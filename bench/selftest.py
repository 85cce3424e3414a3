"""Self-test of the benchmark harness, on the coarse-hold workload.

    python3 bench/selftest.py

Run it from the root of a symquant source tree.  It runs ``bench/run.py``
once untraced and once traced (one pipeline each) and fails unless:

- both runs are correct and no stage failed;
- every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
  with the unit BENCHMARK.json gives it;
- the tracer sees the calls through every import site: in the abstract
  stage, 25 cells x 25 inputs give ``dynamics.integrate.calls == 625``, and
  the 609 pairs that are not blocked give
  ``quantizers.intersecting.calls == 609``.  A missed import site makes a
  count fall short instead of reporting zero time.

The two counts describe the program's call structure; a change that
batches integrations or box queries changes them and updates them here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
EXPECTED_ABSTRACT_CALLS = {"dynamics.integrate": 625,
                           "quantizers.intersecting": 609}


def run(trace: int) -> dict:
    got = subprocess.run([sys.executable, str(BENCH / "run.py"),
                          "--workload", "coarse-hold", "--seed", "1",
                          "--seconds", "1", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=180)
    if got.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {got.returncode}:\n"
                         f"{got.stderr}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run(trace)
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: correct={result['correct']} "
                            f"failed={result['failed']}")
        for metric in spec[key]:
            got = result["metrics"].get(metric["name"])
            if got is None:
                problems.append(f"trace {trace}: {metric['name']} not emitted")
            elif got["unit"] != metric["unit"]:
                problems.append(f"trace {trace}: {metric['name']} has unit "
                                f"{got['unit']!r}, expected {metric['unit']!r}")
    full = json.loads(Path(".bench_work/coarse-hold/result-trace1.json").read_text())
    abstract = full["layers_by_stage"]["abstract"]
    for name, want in EXPECTED_ABSTRACT_CALLS.items():
        calls = abstract.get(name, {}).get("calls", 0)
        if calls != want:
            problems.append(f"abstract stage: {name}.calls == {calls}, expected {want}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
