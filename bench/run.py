"""symquant benchmark: the CLI pipeline, end to end and per layer.

    python3 bench/run.py --workload coarse-hold --seed 1 --seconds 25 --trace 0

Run it from the root of a symquant source tree.  Each workload in
``bench/workloads.json`` is a config file and a list of stages (abstract,
[refine], verify-frr, synthesize, simulate).  A pipeline runs the stages one
after another, each as a fresh ``python -m symquant`` process against
``./src``; ``--seed`` goes to ``verify-frr --seed`` and is the only random
input.  ``SYMQUANT_WORKERS`` is removed from the stages' environment, so
they build with the default single worker.

``--trace 0`` repeats the pipeline ``floor(--seconds / nominal_pipeline_s)``
times, at least once (``nominal_pipeline_s`` is in workloads.json), so it
measures for up to about ``--seconds`` seconds and two runs with the same
arguments attempt the same stages.  It measures set-up (a fresh interpreter
importing symquant and loading the config) before and after the pipelines;
the end-to-end metrics are medians over the repetitions.  ``--trace 1``
runs one plain pipeline and one whose stages go through
``bench/trace_stage.py``, and reports the per-layer metrics of the traced
one plus the tracing overhead.

Every run checks the outputs: each stage exits 0, except that verify-frr
may exit 1 when its report lists violations (counted in ``failed``, not
hidden); STS and CTRL files survive ``serialize(parse(b)) == b``; simulate
reports ``completed``; and the sha256 of every STS, CTRL and CSV file is the
same in every pipeline of the run and in every earlier run on the same
source tree (kept in ``.bench_work/digests.json``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted`` (stages run), ``failed`` (stages
that exited non-zero) and ``metrics``.  The full result, with provenance,
digests and per-stage layer figures, is written to
``.bench_work/<workload>/result-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 165.0          # the whole run ends well inside 180 s
SETUP_REPS = 5              # timed set-ups before and again after the pipelines

FRR_LINE = re.compile(r"frr-report seed=(\d+) samples=(\d+) checked=(\d+) "
                      r"skipped=(\d+) violations=(\d+)")


class BenchError(Exception):
    """The run cannot be made; no result is printed."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# the source tree and the machine


def source_digest() -> str:
    """sha256 over the package sources, so digests are kept per source tree."""
    h = hashlib.sha256()
    for path in sorted((SRC / "symquant").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(seed: int, removed_workers: bool) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = got.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"git_sha": sha, "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed,
            "symquant_workers": "unset (removed from the stage environment)"
            if removed_workers else "unset"}


# ---------------------------------------------------------------------------
# running stages


class Runner:
    """Starts one child process at a time and kills it at the run deadline."""

    def __init__(self, env: dict, cwd: Path, deadline: float):
        self.env = env
        self.cwd = cwd
        self.deadline = deadline

    def run(self, argv, log: Path) -> dict:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run deadline reached before a stage could start")
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                # reaped here: a late timer or Popen itself must not signal it
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        return {"rc": proc.returncode, "wall_s": wall,
                "maxrss_mb": usage.ru_maxrss / 1024.0,
                "output": log.read_text()}


def stage_args(stage: str, cfg: str, model: str, seed: int) -> list:
    """symquant arguments of one stage; files are relative to the work dir."""
    return {"abstract": ["abstract", "--config", cfg, "--out", "model.sts"],
            "refine": ["refine", "--config", cfg, "--model", "model.sts",
                       "--out", "refined.sts"],
            "verify-frr": ["verify-frr", "--config", cfg, "--model", model,
                           "--seed", str(seed)],
            "synthesize": ["synthesize", "--config", cfg, "--model", model,
                           "--out", "law.ctrl"],
            "simulate": ["simulate", "--config", cfg, "--controller", "law.ctrl",
                         "--out", "run.csv"]}[stage]


OUTPUTS = ("model.sts", "refined.sts", "law.ctrl", "run.csv")


def run_pipeline(runner: Runner, wl: dict, wdir: Path, seed: int,
                 traced: bool) -> dict:
    """All stages of one pipeline; stops at the first stage that fails."""
    for name in OUTPUTS:
        (wdir / name).unlink(missing_ok=True)
    cfg = str(BENCH / wl["config"])
    model = "refined.sts" if "refine" in wl["stages"] else "model.sts"
    stages = []
    start = time.perf_counter()
    for stage in wl["stages"]:
        args = stage_args(stage, cfg, model, seed)
        if traced:
            spans = wdir / f"spans-{stage}.json"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "trace_stage.py"), spans.name,
                    "--"] + args
        else:
            argv = [sys.executable, "-m", "symquant"] + args
        res = runner.run(argv, wdir / f"{stage}.log")
        res["stage"] = stage
        if stage == "verify-frr":
            m = FRR_LINE.search(res["output"])
            res["frr"] = dict(zip(("seed", "samples", "checked", "skipped",
                                   "violations"), map(int, m.groups()))) if m else None
        if traced:
            res["spans"] = json.loads(spans.read_text()) if spans.exists() else None
        stages.append(res)
        if not stage_ok(res):
            break
    wall = time.perf_counter() - start
    digests = {name: _sha256(wdir / name) for name in OUTPUTS if (wdir / name).exists()}
    return {"traced": traced, "wall_s": wall, "stages": stages, "digests": digests}


def stage_ok(res: dict) -> bool:
    """Exit 0, or verify-frr's exit 1 backed by a report with violations."""
    if res["rc"] == 0:
        return True
    frr = res.get("frr")
    return res["stage"] == "verify-frr" and res["rc"] == 1 and bool(frr) \
        and frr["violations"] > 0


def set_up(runner: Runner, wl: dict) -> tuple:
    """A fresh interpreter that imports symquant and loads the config:
    its wall time and the file symquant was imported from."""
    code = ("import sys, symquant; symquant.load_config(sys.argv[1]); "
            "print(symquant.__file__)")
    res = runner.run([sys.executable, "-c", code, str(BENCH / wl["config"])],
                     runner.cwd / "setup.log")
    if res["rc"] != 0:
        raise BenchError(f"set-up failed:\n{res['output']}")
    return res["wall_s"], Path(res["output"].strip().splitlines()[-1]).resolve()


# ---------------------------------------------------------------------------
# output checks


def check_outputs(pipelines: list, wl_name: str, wl: dict, wdir: Path) -> list:
    """Problems found in the pipelines' outputs; empty when all is correct."""
    problems = []
    for i, p in enumerate(pipelines):
        for res in p["stages"]:
            if not stage_ok(res):
                problems.append(f"pipeline {i}: {res['stage']} exited {res['rc']}: "
                                f"{res['output'].strip()[-300:]}")
            if res["stage"] == "verify-frr":
                frr = res["frr"]
                if frr is None or frr["checked"] + frr["skipped"] != frr["samples"]:
                    problems.append(f"pipeline {i}: verify-frr report unreadable "
                                    f"or inconsistent: {frr}")
            if res["stage"] == "simulate" and "run completed" not in res["output"]:
                problems.append(f"pipeline {i}: simulate did not report completed")
        if p["digests"] != pipelines[0]["digests"]:
            problems.append(f"pipeline {i}: outputs differ from pipeline 0: "
                            f"{p['digests']} != {pipelines[0]['digests']}")
        if frr_of(p) != frr_of(pipelines[0]):
            problems.append(f"pipeline {i}: verify-frr report differs from "
                            f"pipeline 0: {frr_of(p)} != {frr_of(pipelines[0])}")
    if problems:
        return problems

    sys.path.insert(0, str(SRC))
    from symquant import model_io
    for name in pipelines[-1]["digests"]:
        path = wdir / name
        if name.endswith(".sts"):
            text = path.read_text()
            if model_io.serialize_ts(model_io.parse_sts(text)) != text:
                problems.append(f"{name}: serialize_ts(parse_sts(b)) != b")
        elif name.endswith(".ctrl"):
            text = path.read_text()
            if model_io.serialize_controller(model_io.parse_controller(text)) != text:
                problems.append(f"{name}: serialize_controller(parse_controller(b)) != b")

    ledger_path = WORK / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{wl_name} {source_digest()} {_sha256(BENCH / wl['config'])}"
    seen = ledger.setdefault(key, pipelines[0]["digests"])
    if seen != pipelines[0]["digests"]:
        problems.append(f"digests differ from an earlier run on the same "
                        f"source and config: "
                        f"{pipelines[0]['digests']} != {seen}")
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end(pipelines: list, setup: list) -> dict:
    return {"pipeline_s": (median([p["wall_s"] for p in pipelines]), "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median([max(r["maxrss_mb"] for r in p["stages"])
                                    for p in pipelines]), "MiB")}


def short(stage: str) -> str:
    """Stage name in metric names: verify-frr -> verify."""
    return stage.split("-")[0]


def stage_times(pipelines: list) -> dict:
    """Median wall time of each stage over the pipelines, by stage name."""
    return {stage: median([r["wall_s"] for p in pipelines for r in p["stages"]
                           if r["stage"] == stage])
            for stage in [r["stage"] for r in pipelines[0]["stages"]]}


def frr_of(pipeline: dict):
    return next((r["frr"] for r in pipeline["stages"] if r["stage"] == "verify-frr"),
                None)


def frr_figures(pipelines: list) -> dict:
    frr = frr_of(pipelines[0])
    stages = [r for p in pipelines for r in p["stages"]]
    failed = sum(1 for r in stages if r["rc"] != 0)
    return {"frr_violations": (frr["violations"], "count"),
            "frr_checked": (frr["checked"], "count"),
            "frr_violation_rate": (frr["violations"] / frr["checked"], "ratio"),
            "failed_stage_ratio": (failed / len(stages), "ratio")}


def layer_table(span_files: list) -> tuple:
    """Per span name: [calls, inclusive s, self s]; and the number of
    integrate calls made under a synthesis span.

    Self time is a span's duration minus the durations of its child spans.
    """
    table: dict = {}
    synth_integrations = 0
    for f in span_files:
        names, spans = f["names"], f["spans"]
        child = [0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        synth = names.index("synthesis") if "synthesis" in names else -1
        integ = names.index("dynamics.integrate") \
            if "dynamics.integrate" in names else -1
        for i, (nid, start, end, parent) in enumerate(spans):
            row = table.setdefault(names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += (end - start - child[i]) / 1e9
            if nid == integ:
                p = parent
                while p >= 0 and spans[p][0] != synth:
                    p = spans[p][3]
                synth_integrations += p >= 0
    return table, synth_integrations


SHARE_OF = ("dynamics.integrate", "dynamics.integrate_delay",
            "dynamics.estimate_lipschitz", "quantizers.intersecting",
            "quantizers.locate", "abstraction.build", "abstraction.refine_cells")
MODULES = ("cli", "config", "abstraction", "dynamics", "quantizers",
           "synthesis", "frr", "sim", "model_io")


def per_layer(plain: dict, traced: dict) -> tuple:
    """Per-layer metrics of a traced pipeline, per-stage figures, and each
    span name's share of the traced self time in percent."""
    files = [r["spans"] for r in traced["stages"]]
    table, synth_integrations = layer_table(files)
    by_stage = {r["stage"]: {name: {"calls": row[0], "self_s": row[2]}
                             for name, row in layer_table([r["spans"]])[0].items()}
                for r in traced["stages"]}
    counters: dict = {}
    for f in files:
        for key, val in f["counters"].items():
            if not key.startswith("abstraction."):
                counters[key] = counters.get(key, 0) + val
    model = next(r["spans"]["counters"] for r in traced["stages"]
                 if r["stage"] == "verify-frr")

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return table.get(name, [0, 0.0, 0.0])[2]

    total_self = sum(row[2] for row in table.values())
    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = (sum(row[2] for name, row in table.items()
                                  if name.split(".")[0] == mod), "s")
    for name in SHARE_OF:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_pct"] = (100.0 * self_s(name) / total_self, "%")
    for name in ("quantizers.locate", "quantizers.intersecting", "abstraction.build"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["quantizers.intersecting.mean_ids"] = (
        counters.get("quantizers.intersecting.ids", 0)
        / max(1, calls("quantizers.intersecting")), "ids")
    m["expr.evals"] = (counters["expr.evals"], "count")
    for key in ("pairs", "blocked_pairs", "transitions", "truncated"):
        m[f"abstraction.{key}"] = (model[f"abstraction.{key}"], "count")
    m["config.build_model.calls"] = (calls("config.build_model"), "count")
    m["synthesis.integrate_calls"] = (synth_integrations, "count")
    m["synthesis.winning_states"] = (counters.get("synthesis.winning_states", 0), "count")
    for key in ("checked", "skipped", "violations"):
        m[f"frr.{key}"] = (counters.get(f"frr.{key}", 0), "count")
    m["frr.samples_per_s"] = (counters.get("frr.samples", 0) / table["frr"][1], "1/s")
    m["sim.steps"] = (counters.get("sim.steps", 0), "count")
    for name in ("parse_sts", "serialize_ts", "parse_controller", "serialize_controller"):
        m[f"model_io.{name}_s"] = (self_s(f"model_io.{name}"), "s")
    m["model_io.sts_bytes"] = (counters.get("model_io.sts_bytes", 0), "bytes")
    figures = frr_figures([plain, traced])
    m["frr_violation_rate"] = figures["frr_violation_rate"]
    m["failed_stage_ratio"] = figures["failed_stage_ratio"]
    m["tracing_overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    for stage, wall in stage_times([plain]).items():
        m[f"cli.{short(stage)}.s"] = (wall, "s")
    shares = {name: 100.0 * row[2] / total_self for name, row in table.items()}
    return m, by_stage, shares


def rationale(shares: dict, dominant: list) -> dict:
    """Whether the layers a workload was chosen for hold the largest share."""
    named = sum(shares.get(n, 0.0) for n in dominant)
    rival = max((n for n in shares if n not in dominant), key=shares.get)
    return {"layers": dominant, "self_pct": named, "largest_other": rival,
            "largest_other_pct": shares[rival], "confirmed": named > shares[rival]}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    workloads = json.loads((BENCH / "workloads.json").read_text())
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads)}")
    if not (SRC / "symquant" / "cli.py").is_file():
        raise BenchError(f"no symquant sources under {SRC}; run from the "
                         f"root of a symquant source tree")
    wl = workloads[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    wdir = WORK / args.workload
    wdir.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ, PYTHONPATH=str(SRC))
    removed = env.pop("SYMQUANT_WORKERS", None) is not None
    runner = Runner(env, wdir, deadline)

    _, where = set_up(runner, wl)   # untimed: fills the bytecode cache
    if not where.is_relative_to(SRC):
        raise BenchError(f"symquant was imported from {where}, not {SRC}")
    setup = []
    if args.trace:
        pipelines = [run_pipeline(runner, wl, wdir, args.seed, traced=False)]
        pipelines.append(run_pipeline(runner, wl, wdir, args.seed, traced=True))
    else:
        setup += [set_up(runner, wl)[0] for _ in range(SETUP_REPS)]
        # a fixed count per workload and --seconds, so that two runs with
        # the same arguments attempt the same stages however fast the host is
        count = max(1, int(args.seconds // wl["nominal_pipeline_s"]))
        pipelines = [run_pipeline(runner, wl, wdir, args.seed, traced=False)
                     for _ in range(count)]
        setup += [set_up(runner, wl)[0] for _ in range(SETUP_REPS)]

    problems = check_outputs(pipelines, args.workload, wl, wdir)
    stages = [r for p in pipelines for r in p["stages"]]
    failed = sum(1 for r in stages if r["rc"] != 0)
    complete = all(len(p["stages"]) == len(wl["stages"]) for p in pipelines)
    plain = [p for p in pipelines if not p["traced"]]

    report = {}
    by_stage = {}
    reason = None
    metrics = {}
    if complete:
        report.update(frr_figures(pipelines))
        if args.trace:
            metrics, by_stage, shares = per_layer(pipelines[0], pipelines[1])
            reason = rationale(shares, wl["dominant"])
        else:
            metrics = end_to_end(pipelines, setup)
        for stage, wall in stage_times(plain).items():
            report[f"{short(stage)}_s"] = (wall, "s")
        missing = [n for n in names if n not in metrics]
        if missing:
            problems.append(f"metrics not measured: {missing}")
        metrics = {n: metrics[n] for n in names if n in metrics}

    report = {n: vu for n, vu in report.items() if n not in metrics}
    for name, (value, unit) in list(metrics.items()) + list(report.items()):
        print(f"{name:40s} {value!r:>24} {unit}")
    if reason:
        print(f"rationale: {' + '.join(reason['layers'])} hold "
              f"{reason['self_pct']:.1f}% of traced self time, the largest other "
              f"is {reason['largest_other']} at {reason['largest_other_pct']:.1f}%: "
              f"{'confirmed' if reason['confirmed'] else 'NOT confirmed'}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    result = {"correct": not problems and complete, "attempted": len(stages),
              "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    full = dict(result, workload=args.workload, trace=args.trace,
                provenance=provenance(args.seed, removed),
                report={n: {"value": v, "unit": u} for n, (v, u) in report.items()},
                problems=problems, pipelines=len(pipelines),
                pipeline_s=[p["wall_s"] for p in plain],
                setup_s=setup, stage_s={s: [r["wall_s"] for p in plain
                                            for r in p["stages"] if r["stage"] == s]
                                        for s in wl["stages"]},
                digests=pipelines[0]["digests"], rationale=reason,
                layers_by_stage=by_stage,
                traced_sites=pipelines[-1]["stages"][0]["spans"]["sites"]
                if args.trace and complete else None)
    (wdir / f"result-trace{args.trace}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps({"provenance": full["provenance"], "digests": full["digests"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        sys.exit(2)
