import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symquant import abstraction, cli, config, dynamics, sim
from symquant.cli import main
from symquant.config import AppConfig, load_config
from symquant.frr import RefinementMap
from symquant.quantizers import Partition
from symquant.model_io import (load_controller, load_ts, parse_controller,
                               parse_sts, serialize_controller, serialize_ts,
                               write_ts)
from symquant.sim import export_trajectory, run_closed_loop
from symquant.synthesis import Controller


PENDULUM_INI = """\
[system]
n = 2
m = 1
f =
    x2
    -1.96*sin(x1) - 1.5*x2 + u1
state_lo = -1 -1
state_hi = 1 1
input_lo = -2.5
input_hi = 2.5

[abstraction]
tau = 0.2
variant = EQ20
eta = 0.2
d = 0.4
mu = 0.2
lipschitz = 6

[synthesis]
kind = sequence
mode = hold
targets =
    0 0
    -0.48 0
    0 0
    -0.48 0
    0 0.48
    0.48 0
    0 -0.48
    -0.48 0
    0 0
    -0.48 0
    0 0
    -0.48 0

[run]
x0 = -0.48 0
max_steps = 200
seed = 1
samples = 300
"""

DELAY_INI = """\
[system]
n = 2
m = 1
f =
    x2
    -1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0.2) + u1
state_lo = -1 -1
state_hi = 1 1
input_lo = -2.5
input_hi = 2.5
theta = 0.2
r = 0.2
xi0 =
    -0.72 -0.72

[abstraction]
tau = 0.2
eta = 0.2
d = 0.4
mu = 0.2
lipschitz = 6
budget = 1000

[synthesis]
kind = reach
mode = robust
targets =
    -0.72 -0.72

[run]
max_steps = 5
seed = 1
samples = 100
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Config files plus a prebuilt coarse model."""
    root = tmp_path_factory.mktemp("cli")
    (root / "pendulum.ini").write_text(PENDULUM_INI)
    (root / "sabotage.ini").write_text(
        PENDULUM_INI.replace("lipschitz = 6", "lipschitz = 6\ngrowth_scale = 0"))
    (root / "zoomed.ini").write_text(
        PENDULUM_INI
        .replace("lipschitz = 6", "lipschitz = 6\nzoom =\n    12 1 1.0 0.3")
        .replace("kind = sequence", "kind = reach"))
    (root / "delay.ini").write_text(DELAY_INI)
    assert main(["abstract", "--config", str(root / "pendulum.ini"),
                 "--out", str(root / "model.sts")]) == 0
    return root


def test_abstract_reports_model_size(ws, capsys):
    rc = main(["abstract", "--config", str(ws / "pendulum.ini"),
               "--out", str(ws / "again.sts")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delay-free model with 25 states, 25 inputs, 9875 transitions" in out
    assert len(load_ts(str(ws / "again.sts")).ids) == 25


def test_synthesize_writes_sequence_controller(ws, capsys):
    rc = main(["synthesize", "--config", str(ws / "pendulum.ini"),
               "--model", str(ws / "model.sts"),
               "--out", str(ws / "law.ctrl")])
    assert rc == 0
    assert "sequence controller with 12 phase(s)" in capsys.readouterr().out
    assert load_controller(str(ws / "law.ctrl")).n_phases == 12


@pytest.mark.parametrize("mode", ["hold", "robust"])
def test_hold_mode_says_it_carries_no_guarantee(ws, tmp_path, capsys, mode):
    ini = tmp_path / f"{mode}.ini"
    ini.write_text(PENDULUM_INI.replace("kind = sequence", "kind = reach")
                   .replace("mode = hold", f"mode = {mode}"))
    rc = main(["synthesize", "--config", str(ini), "--model", str(ws / "model.sts"),
               "--out", str(tmp_path / "law.ctrl")])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out.startswith("synthesize: wrote reach controller with 1 phase(s)")
    assert err == ("warning: mode = hold follows nominal trajectories only, so this "
                   "controller carries no refinement guarantee; mode = robust does\n"
                   if mode == "hold" else "")


def test_simulate_completes_the_alternation(ws, capsys):
    rc = main(["simulate", "--config", str(ws / "pendulum.ini"),
               "--controller", str(ws / "law.ctrl"),
               "--out", str(ws / "run.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run completed: phases 12/12" in out
    lines = (ws / "run.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,u1,phase,cell_id"
    assert len(lines) > 40


def test_verify_frr_clean_model(ws, capsys):
    rc = main(["verify-frr", "--config", str(ws / "pendulum.ini"),
               "--model", str(ws / "model.sts")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "frr-report seed=1 samples=300" in out
    assert "violations=0" in out


def test_verify_frr_flag_overrides(ws, capsys):
    rc = main(["verify-frr", "--config", str(ws / "pendulum.ini"),
               "--model", str(ws / "model.sts"),
               "--samples", "50", "--seed", "3"])
    assert rc == 0
    assert "frr-report seed=3 samples=50" in capsys.readouterr().out


def test_verify_frr_catches_sabotaged_radii(ws, capsys):
    rc = main(["abstract", "--config", str(ws / "sabotage.ini"),
               "--out", str(ws / "flat.sts")])
    assert rc == 0
    rc = main(["verify-frr", "--config", str(ws / "sabotage.ini"),
               "--model", str(ws / "flat.sts")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "violation(s)" in captured.err


def test_refine_then_synthesize_on_subcells(ws, capsys):
    rc = main(["refine", "--config", str(ws / "zoomed.ini"),
               "--model", str(ws / "model.sts"),
               "--out", str(ws / "fine.sts")])
    assert rc == 0
    assert "refined model with 33 states" in capsys.readouterr().out
    rc = main(["synthesize", "--config", str(ws / "zoomed.ini"),
               "--model", str(ws / "fine.sts"),
               "--out", str(ws / "fine.ctrl")])
    assert rc == 0


def test_refine_requires_zoom_rows(ws, capsys):
    rc = main(["refine", "--config", str(ws / "pendulum.ini"),
               "--model", str(ws / "model.sts"),
               "--out", str(ws / "x.sts")])
    assert rc == 1
    assert "no abstraction.zoom assignments" in capsys.readouterr().err


def test_model_config_cross_check(ws, tmp_path, capsys):
    coarse = tmp_path / "widemu.ini"
    coarse.write_text(PENDULUM_INI.replace("mu = 0.2", "mu = 0.5"))
    rc = main(["verify-frr", "--config", str(coarse),
               "--model", str(ws / "model.sts")])
    assert rc == 1
    assert "does not match the config rebuild" in capsys.readouterr().err


@pytest.mark.parametrize("command,ini,refined", [
    ("verify-frr", "pendulum.ini", False),
    ("synthesize", "pendulum.ini", False),
    # refine checks the coarse model
    ("refine", "zoomed.ini", False),
    # the refined model: cell 12 is retired, so its ids are not positions
    ("verify-frr", "zoomed.ini", True),
    ("synthesize", "zoomed.ini", True),
], ids=["verify-frr", "synthesize", "refine", "verify-frr-refined",
        "synthesize-refined"])
def test_same_count_edit_fails_the_model_check(ws, tmp_path, capsys, command,
                                               ini, refined):
    if refined:
        text = serialize_ts(load_config(str(ws / ini)).build_model(refined=True))
    else:
        text = (ws / "model.sts").read_text()
    ids = [line.split()[1] for line in text.splitlines() if line.startswith("S ")]
    assert ("12" in ids) != refined
    # move one transition to another destination: every count stays the same
    succ = {}
    for line in text.splitlines():
        if line.startswith("E "):
            _, sid, iid, dst = line.split()
            succ.setdefault((sid, iid), []).append(dst)
    (sid, iid), dsts = min(succ.items(), key=lambda kv: len(kv[1]))
    free = next(c for c in ids if c not in dsts)
    moved = f"E {sid} {iid} {dsts[0]}"
    edited = text.replace(moved + "\n", f"E {sid} {iid} {free}\n")
    assert edited != text and edited.splitlines()[0] == text.splitlines()[0]
    (tmp_path / "edited.sts").write_text(edited)
    args = [command, "--config", str(ws / ini),
            "--model", str(tmp_path / "edited.sts")]
    if command != "verify-frr":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    line = text.splitlines().index(moved) + 1
    assert (f"does not match the config rebuild: first difference on line "
            f"{line}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _count_build_calls(monkeypatch) -> dict:
    """Counts of the per-pair build's calls from here on: integrate, through
    every name the package calls it by, and Partition.intersecting."""
    calls = {"integrate": 0, "intersecting": 0}
    integrate, intersecting = dynamics.integrate, Partition.intersecting

    def counted_integrate(*args, **kwargs):
        calls["integrate"] += 1
        return integrate(*args, **kwargs)

    def counted_intersecting(self, *args):
        calls["intersecting"] += 1
        return intersecting(self, *args)

    for module in (abstraction, dynamics, sim):
        monkeypatch.setattr(module, "integrate", counted_integrate)
    monkeypatch.setattr(Partition, "intersecting", counted_intersecting)
    return calls


def _stage(command, ini, model, tmp_path):
    args = [command, "--config", ini, "--model", model]
    return main(args + (["--out", str(tmp_path / "out")]
                        if command != "verify-frr" else []))


@pytest.mark.parametrize("command", ["verify-frr", "synthesize", "refine"])
def test_model_check_runs_no_per_pair_build(ws, tmp_path, monkeypatch, command):
    # every check, and refine's output, is derived with batched kernels
    refined = tmp_path / "refined.sts"
    write_ts(load_config(str(ws / "zoomed.ini")).build_model(refined=True), str(refined))
    models = {"zoomed.ini": ws / "model.sts" if command == "refine" else refined}
    if command != "refine":  # refine needs zoom rows
        models["pendulum.ini"] = ws / "model.sts"
    calls = _count_build_calls(monkeypatch)
    for ini, model in models.items():
        assert _stage(command, str(ws / ini), str(model), tmp_path) == 0
    assert calls == {"integrate": 0, "intersecting": 0}


def test_coarse_hold_builds_pair_by_pair(monkeypatch):
    # 625 pairs, under the limit at which a build is derived: one integrate
    # per pair and one box query per unblocked pair, the counts that
    # bench/selftest.py pins in coarse-hold's abstract stage
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "bench" / "workloads"
                          / "coarse-hold.ini"))
    calls = _count_build_calls(monkeypatch)
    assert len(cfg.build_model().ids) == 25
    assert calls == {"integrate": 625, "intersecting": 609}


@pytest.mark.parametrize("command,cells", [
    ("refine", [25, 33]), ("verify-frr", [33]), ("synthesize", [33])])
def test_a_zoom_stage_derives_each_model_once(ws, tmp_path, monkeypatch, command, cells):
    # refine derives the coarse model for its check and then the refined
    # one it writes; the refined checks derive the refined model only
    refined = tmp_path / "refined.sts"
    write_ts(load_config(str(ws / "zoomed.ini")).build_model(refined=True), str(refined))
    derived, calls = abstraction._derived_model, []
    monkeypatch.setattr(abstraction, "_derived_model",
                        lambda *args: calls.append(len(args[1].ids)) or derived(*args))
    model = ws / "model.sts" if command == "refine" else refined
    assert _stage(command, str(ws / "zoomed.ini"), str(model), tmp_path) == 0
    assert calls == cells  # the cell count of each derived model


def test_the_tracer_counts_the_derived_model(ws, tmp_path):
    # bench/trace_stage.py reads a stage's model counters from the builders
    # it wraps, so the check's derivation must pass through one of them
    cfg = load_config(str(ws / "zoomed.ini"))
    ts = cfg.derive_model(refined=True)
    write_ts(ts, str(tmp_path / "refined.sts"))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parents[1] / "bench" / "trace_stage.py"),
         str(spans), "--", "verify-frr", "--config", str(ws / "zoomed.ini"),
         "--model", str(tmp_path / "refined.sts")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(spans.read_text())["counters"]
    assert counters["abstraction.pairs"] == len(ts.ids) * len(ts.inputs)
    assert counters["abstraction.transitions"] == ts.n_transitions > 0


def test_simulate_incomplete_run_fails(ws, tmp_path, capsys):
    # robust mode wins nothing beyond the single target cell here, so the
    # loop stalls immediately and the command reports the abort
    cfg = tmp_path / "robust.ini"
    cfg.write_text(PENDULUM_INI
                   .replace("kind = sequence", "kind = reach")
                   .replace("mode = hold", "mode = robust"))
    rc = main(["synthesize", "--config", str(cfg),
               "--model", str(ws / "model.sts"),
               "--out", str(tmp_path / "stall.ctrl")])
    assert rc == 0
    rc = main(["simulate", "--config", str(cfg),
               "--controller", str(tmp_path / "stall.ctrl"),
               "--out", str(tmp_path / "stall.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "run incomplete" in captured.out
    assert "simulation did not complete" in captured.err
    assert (tmp_path / "stall.csv").exists()


def _controller_for(ws, tmp_path, ini):
    """Build the config's model, write it and synthesize a controller."""
    cfg = load_config(str(ws / ini))
    ts = cfg.build_model(refined=bool(cfg.zoom) and not cfg.is_timedelay())
    write_ts(ts, str(tmp_path / "model.sts"))
    assert main(["synthesize", "--config", str(ws / ini),
                 "--model", str(tmp_path / "model.sts"),
                 "--out", str(tmp_path / "law.ctrl")]) == 0
    return cfg, ts


@pytest.mark.parametrize("ini", ["pendulum.ini", "zoomed.ini"])
def test_delay_free_simulate_builds_no_model(ws, tmp_path, monkeypatch,
                                             capsys, ini):
    cfg, ts = _controller_for(ws, tmp_path, ini)
    # the trajectory a refinement map over the built model gives
    traj, _ = run_closed_loop(cfg.system,
                              load_controller(str(tmp_path / "law.ctrl")),
                              RefinementMap.from_ts(ts), x0=np.asarray(cfg.x0),
                              tau=cfg.tau, max_steps=cfg.max_steps,
                              steps=cfg.steps)
    export_trajectory(traj, str(tmp_path / "want.csv"))

    def no_build(self, refined=False):
        raise AssertionError("a delay-free simulate needs no model")

    monkeypatch.setattr(AppConfig, "build_model", no_build)
    rc = main(["simulate", "--config", str(ws / ini),
               "--controller", str(tmp_path / "law.ctrl"),
               "--out", str(tmp_path / "got.csv")])
    assert rc == 0
    assert "run completed" in capsys.readouterr().out
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_time_delay_simulate_builds_the_model(ws, tmp_path, monkeypatch,
                                              capsys):
    _controller_for(ws, tmp_path, "delay.ini")
    calls = []
    build = AppConfig.build_model

    def counted(self, refined=False):
        calls.append(refined)
        return build(self, refined)

    monkeypatch.setattr(AppConfig, "build_model", counted)
    rc = main(["simulate", "--config", str(ws / "delay.ini"),
               "--controller", str(tmp_path / "law.ctrl"),
               "--out", str(tmp_path / "tube.csv")])
    assert rc == 0
    assert calls == [False]


DRIFT_INI = """\
[system]
n = 1
m = 1
f =
    3 + 0*delay(x1, 0.2) + u1
state_lo = -1
state_hi = 1
input_lo = -1
input_hi = 1
theta = 0.2
xi0 =
    0

[abstraction]
tau = 0.2
eta = 0.2
d = 0.4
mu = 0.5
N = 0

[synthesis]
kind = reach
mode = robust
targets =
    0

[run]
max_steps = 10
"""


def test_time_delay_simulate_reports_leaving_the_state_box(tmp_path, capsys):
    # x1' = 2 under u1 = -1 from x1 = 0: the functional's knot at t = 0.6
    # is 1.2, outside X = [-1, 1], after three rows in X
    ini = tmp_path / "drift.ini"
    ini.write_text(DRIFT_INI)
    ts = load_config(str(ini)).build_model()
    iid = ts.input_id_of([-1.0])
    policy = {sid: iid for sid in ts.ids.tolist()}
    (tmp_path / "drift.ctrl").write_text(serialize_controller(Controller(
        [policy], [(-1,)], [dict.fromkeys(policy, 1)], list(ts.inputs),
        "robust")))
    rc = main(["simulate", "--config", str(ini),
               "--controller", str(tmp_path / "drift.ctrl"),
               "--out", str(tmp_path / "drift.csv")])
    assert rc == 1
    got = capsys.readouterr()
    assert "wrote 3 samples" in got.out
    assert ("simulation did not complete: functional state left the state "
            "box at t=0.6") in got.err
    assert len((tmp_path / "drift.csv").read_text().splitlines()) == 4


def test_simulate_needs_x0(ws, tmp_path, capsys):
    cfg = tmp_path / "nox0.ini"
    cfg.write_text(PENDULUM_INI.replace("x0 = -0.48 0\n", ""))
    rc = main(["simulate", "--config", str(cfg),
               "--controller", str(ws / "law.ctrl"),
               "--out", str(tmp_path / "no.csv")])
    assert rc == 1
    assert "run.x0: required" in capsys.readouterr().err


def test_bad_config_is_exit_1(ws, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(PENDULUM_INI.replace("eta = 0.2", "eta = 1.5"))
    rc = main(["abstract", "--config", str(cfg), "--out", str(tmp_path / "x.sts")])
    assert rc == 1
    assert "abstraction.eta" in capsys.readouterr().err


def test_input_box_without_a_quantized_input_is_exit_1(tmp_path, capsys):
    # it used to pass the config check and fail in the build, naming no key
    cfg = tmp_path / "narrow.ini"
    cfg.write_text(PENDULUM_INI.replace("input_lo = -2.5\ninput_hi = 2.5",
                                        "input_lo = 0.05\ninput_hi = 0.1"))
    rc = main(["abstract", "--config", str(cfg), "--out", str(tmp_path / "x.sts")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: abstraction.mu: input axis 1 "
                                       "contains no multiple of 0.2\n")
    assert not (tmp_path / "x.sts").exists()


@pytest.mark.parametrize("old, new, why", [
    ("lipschitz = 6", "lipshitz = 6", "abstraction.lipshitz: unknown key"),
    ("[run]", "[runn]", "runn: unknown section"),
])
def test_misspelled_key_or_section_is_exit_1(tmp_path, capsys, old, new, why):
    # both used to load: the model took the sampled rate, the run its defaults
    cfg = tmp_path / "typo.ini"
    cfg.write_text(PENDULUM_INI.replace(old, new))
    rc = main(["abstract", "--config", str(cfg), "--out", str(tmp_path / "x.sts")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {why}\n"
    assert not (tmp_path / "x.sts").exists()


def test_percent_in_a_config_value_is_exit_1(tmp_path):
    # configparser's default interpolation raises on a lone %, outside the
    # errors main() reports
    cfg = tmp_path / "pct.ini"
    cfg.write_text(PENDULUM_INI.replace("input_hi = 2.5", "input_hi = 2.5 % 1"))
    proc = subprocess.run(
        [sys.executable, "-m", "symquant", "abstract", "--config", str(cfg),
         "--out", str(tmp_path / "x.sts")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: system.input_hi: expected numbers")
    assert "Traceback" not in proc.stderr


def test_nan_target_is_exit_1(ws, tmp_path, capsys):
    # NaN compares false with every bound, so it used to be located in a
    # cell and a controller written for that cell
    cfg = tmp_path / "nan.ini"
    cfg.write_text(PENDULUM_INI.replace("targets =\n    0 0\n",
                                        "targets =\n    nan 0\n"))
    rc = main(["synthesize", "--config", str(cfg), "--model", str(ws / "model.sts"),
               "--out", str(tmp_path / "nan.ctrl")])
    assert rc == 1
    assert ("error: synthesis.targets: row 1: expected finite numbers"
            in capsys.readouterr().err)
    assert not (tmp_path / "nan.ctrl").exists()


def test_xi0_one_ulp_outside_the_box_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "ulp.ini"
    cfg.write_text(DELAY_INI.replace("xi0 =\n    -0.72 -0.72",
                                     "xi0 =\n    1.0000000000000002 -0.72"))
    rc = main(["abstract", "--config", str(cfg), "--out", str(tmp_path / "x.sts")])
    assert rc == 1
    assert ("error: system: xi0 leaves the state box"
            in capsys.readouterr().err)


@pytest.mark.parametrize("rhs,why", [
    ("1/x1 + u1", "float division by zero"),
    ("x1^0.5 + u1", "has no real value"),
])
def test_evaluation_error_is_exit_1(tmp_path, capsys, rhs, why):
    # the origin cell's quantized point has x1 = 0 and the left half of the
    # lattice has x1 < 0
    cfg = tmp_path / "bad.ini"
    cfg.write_text(PENDULUM_INI.replace("-1.96*sin(x1) - 1.5*x2 + u1", rhs))
    rc = main(["abstract", "--config", str(cfg), "--out", str(tmp_path / "x.sts")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: derivative evaluation failed")
    assert why in err


def test_time_delay_blowup_is_exit_1(tmp_path, capsys):
    # the stages reach +inf and -inf in the first step, whose sum is NaN:
    # the tube build reports the non-finite state, not a numpy traceback
    cfg = tmp_path / "blowup.ini"
    cfg.write_text("[system]\nn = 2\nm = 1\nf =\n"
                   "    1e300*1e300*(0.5 - x1) + 0*delay(x1, 0.2)\n    0*x2\n"
                   "state_lo = -1 -1\nstate_hi = 1 1\ninput_lo = -1\n"
                   "input_hi = 1\ntheta = 0.2\nxi0 =\n    0.4 0\n\n"
                   "[abstraction]\ntau = 0.2\neta = 0.2\nd = 0.4\nmu = 0.5\n"
                   "lipschitz = 6\nN = 0\n")
    rc = main(["abstract", "--config", str(cfg), "--out", str(tmp_path / "x.sts")])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite state at t=0.01\n"
    assert not (tmp_path / "x.sts").exists()


@pytest.mark.parametrize("ini,given,sampled", [
    (PENDULUM_INI, "0.1", "1.100000"),  # largest mu over the cells
    (DELAY_INI, "3.9", "3.916000"),  # L over the state box
], ids=["delay-free", "tubes"])
def test_a_numeric_lipschitz_below_the_sampled_rate_is_refused(tmp_path, capsys,
                                                                ini, given, sampled):
    # with 0.1 the pendulum's model had 3457 transitions, and the sampled
    # witness found 3 violations at 20000 samples, seed 1
    cfg = tmp_path / "small.ini"
    cfg.write_text(ini.replace("lipschitz = 6", f"lipschitz = {given}"))
    rc = main(["abstract", "--config", str(cfg), "--out", str(tmp_path / "m.sts")])
    assert rc == 1
    assert re.fullmatch(
        f"error: abstraction.lipschitz: {given} is below the sampled rate "
        f"{sampled}[0-9]* of this plant, so the model would not be sound; "
        f"use at least that, or 'sampled'\n", capsys.readouterr().err)
    assert not (tmp_path / "m.sts").exists()


def test_a_numeric_lipschitz_above_the_sampled_rate_builds(tmp_path, capsys):
    cfg = tmp_path / "tight.ini"
    cfg.write_text(PENDULUM_INI.replace("lipschitz = 6", "lipschitz = 1.2"))
    sts = str(tmp_path / "m.sts")
    assert main(["abstract", "--config", str(cfg), "--out", sts]) == 0
    assert "delay-free model with 25 states" in capsys.readouterr().out
    assert main(["verify-frr", "--config", str(cfg), "--model", sts,
                 "--samples", "2000", "--seed", "1"]) == 0


def test_the_rate_is_checked_where_a_model_is_first_built(ws, tmp_path, monkeypatch,
                                                          capsys):
    # abstract and refine build a model; the later stages rebuild it only
    # to compare it with the file, so they do not sample the rate again
    calls = []
    check = AppConfig.check_lipschitz

    def counted(self, refined=False):
        calls.append(refined)
        return check(self, refined)

    monkeypatch.setattr(AppConfig, "check_lipschitz", counted)
    ini, coarse, fine = (str(ws / "zoomed.ini"), str(tmp_path / "coarse.sts"),
                         str(tmp_path / "fine.sts"))
    assert main(["abstract", "--config", ini, "--out", coarse]) == 0
    assert main(["refine", "--config", ini, "--model", coarse, "--out", fine]) == 0
    assert calls == [False, True]
    assert main(["verify-frr", "--config", ini, "--model", fine,
                 "--samples", "200", "--seed", "1"]) == 0
    assert main(["synthesize", "--config", ini, "--model", fine,
                 "--out", str(tmp_path / "law.ctrl")]) == 0
    assert calls == [False, True]


def test_abstract_builds_a_plant_without_state_dependence(tmp_path, capsys):
    # x1' = u1: the sampled Jacobian is exactly 0, which the growth bound
    # accepts: every radius is its cell's largest spread
    cfg = tmp_path / "drift.ini"
    cfg.write_text("[system]\nn = 1\nm = 1\nf =\n    u1\n"
                   "state_lo = -1\nstate_hi = 1\ninput_lo = -0.6\n"
                   "input_hi = 0.6\n\n[abstraction]\ntau = 0.2\n"
                   "variant = EQ20\neta = 0.2\nd = 0.4\nmu = 0.2\n"
                   "lipschitz = sampled\n")
    rc = main(["abstract", "--config", str(cfg), "--out", str(tmp_path / "m.sts")])
    assert rc == 0, capsys.readouterr().err
    assert ("delay-free model with 5 states, 7 inputs, 81 transitions"
            in capsys.readouterr().out)


def test_missing_config_is_exit_1(tmp_path, capsys):
    rc = main(["abstract", "--config", str(tmp_path / "ghost.ini"),
               "--out", str(tmp_path / "x.sts")])
    assert rc == 1
    assert "config file not found" in capsys.readouterr().err


def test_missing_model_file_is_exit_2(ws, capsys):
    rc = main(["export-dot", "--model", str(ws / "ghost.sts")])
    assert rc == 2
    assert "io error" in capsys.readouterr().err


def test_corrupt_model_file_is_exit_1(ws, tmp_path, capsys):
    bad = tmp_path / "bad.sts"
    bad.write_text("not a model\n")
    rc = main(["export-dot", "--model", str(bad)])
    assert rc == 1
    assert "missing STS 1 header" in capsys.readouterr().err


def test_export_dot_stdout_and_file(ws, tmp_path, capsys):
    rc = main(["export-dot", "--model", str(ws / "model.sts")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("digraph sts {")
    out = tmp_path / "m.dot"
    rc = main(["export-dot", "--model", str(ws / "model.sts"),
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("digraph sts {")


def test_timedelay_pipeline(ws, capsys):
    rc = main(["abstract", "--config", str(ws / "delay.ini"),
               "--out", str(ws / "tube.sts")])
    assert rc == 0
    assert "time-delay model with 40 states" in capsys.readouterr().out
    rc = main(["synthesize", "--config", str(ws / "delay.ini"),
               "--model", str(ws / "tube.sts"),
               "--out", str(ws / "tube.ctrl")])
    assert rc == 0
    rc = main(["simulate", "--config", str(ws / "delay.ini"),
               "--controller", str(ws / "tube.ctrl"),
               "--out", str(ws / "tube.csv")])
    assert rc == 0
    assert "run completed" in capsys.readouterr().out
    rc = main(["verify-frr", "--config", str(ws / "delay.ini"),
               "--model", str(ws / "tube.sts")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "samples=100" in out and "violations=0" in out


def test_abstract_warns_when_the_tube_budget_truncates(tmp_path, capsys):
    small = tmp_path / "small.ini"
    small.write_text(DELAY_INI.replace("budget = 1000", "budget = 5"))
    rc = main(["abstract", "--config", str(small),
               "--out", str(tmp_path / "small.sts")])
    got = capsys.readouterr()
    assert rc == 0
    # stdout is the usual one-line summary; the warning goes to stderr
    assert got.out.startswith("abstract: wrote time-delay model with 5 states")
    assert got.out.count("\n") == 1
    assert got.err.startswith("warning: tube exploration stopped at the "
                              "budget of 5 tubes")


def test_abstract_is_quiet_when_exploration_completes(ws, capsys):
    rc = main(["abstract", "--config", str(ws / "delay.ini"),
               "--out", str(ws / "complete.sts")])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_module_entry_point(ws, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "symquant", "abstract",
         "--config", str(ws / "pendulum.ini"),
         "--out", str(tmp_path / "m.sts")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "25 states" in proc.stdout


def test_verify_frr_negative_seed_is_exit_1(ws, capsys):
    rc = main(["verify-frr", "--config", str(ws / "pendulum.ini"),
               "--model", str(ws / "model.sts"), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --seed: must be nonnegative, got -1\n"


def test_verify_frr_negative_samples_is_exit_1(ws, capsys):
    rc = main(["verify-frr", "--config", str(ws / "pendulum.ini"),
               "--model", str(ws / "model.sts"), "--samples", "-5"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --samples: must be nonnegative, got -5\n"
    assert "frr-report" not in captured.out


def test_verify_frr_that_checked_nothing_is_exit_1(ws, capsys):
    # it used to print checked=0 and exit 0: a report of nothing passed
    rc = main(["verify-frr", "--config", str(ws / "pendulum.ini"),
               "--model", str(ws / "model.sts"), "--samples", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "samples=0 checked=0 skipped=0 violations=0" in captured.out
    assert captured.err == \
        "error: refinement check checked no sample: 0 were asked for\n"


LEAVING_INI = """\
[system]
n = 1
m = 1
f =
    5
state_lo = -1
state_hi = 1
input_lo = 0
input_hi = 0

[abstraction]
tau = 1
eta = 0.2
d = 0.4
lipschitz = 0

[run]
samples = 20
"""


def test_verify_frr_with_every_sample_skipped_is_exit_1(tmp_path, capsys):
    # every trajectory leaves the state box, so every pair is blocked and
    # every sample is skipped
    cfg, sts = tmp_path / "drift.ini", str(tmp_path / "drift.sts")
    cfg.write_text(LEAVING_INI)
    assert main(["abstract", "--config", str(cfg), "--out", sts]) == 0
    rc = main(["verify-frr", "--config", str(cfg), "--model", sts])
    assert rc == 1
    captured = capsys.readouterr()
    assert "samples=20 checked=0 skipped=20 violations=0" in captured.out
    assert captured.err == \
        "error: refinement check checked no sample: all 20 were skipped\n"


@pytest.mark.parametrize("box,message", [
    ("input_lo = -1\ninput_hi = 1", "input 0 is [-2.4] there and [-1] in the config"),
    ("input_lo = -2.5\ninput_hi = 2.7", "input 25 is none there and [2.6] in the config"),
], ids=["narrower", "longer"])
def test_simulate_refuses_a_controller_for_other_inputs(tmp_path, capsys, box,
                                                        message):
    # a controller for the pendulum's 25 inputs on [-2.5, 2.5]; the loop used
    # to apply its input ids to the other config's inputs and exit 0
    inputs = [np.array([k * 0.2]) for k in range(-12, 13)]
    law = tmp_path / "law.ctrl"
    law.write_text(serialize_controller(
        Controller([{12: 12}], [(12,)], [{}], inputs, "hold")))
    cfg = tmp_path / "other.ini"
    cfg.write_text(PENDULUM_INI.replace("input_lo = -2.5\ninput_hi = 2.5", box))
    csv = tmp_path / "run.csv"
    rc = main(["simulate", "--config", str(cfg), "--controller", str(law),
               "--out", str(csv)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: controller {law} was made for "
                                       f"other inputs: {message}\n")
    assert not csv.exists()


def test_negative_config_seed_is_exit_1(ws, tmp_path, capsys):
    cfg = tmp_path / "seed.ini"
    cfg.write_text(PENDULUM_INI.replace("seed = 1", "seed = -1"))
    rc = main(["verify-frr", "--config", str(cfg),
               "--model", str(ws / "model.sts")])
    assert rc == 1
    assert capsys.readouterr().err == "error: run.seed: must be nonnegative\n"


def test_controller_input_id_out_of_range_is_exit_1(ws, tmp_path, capsys):
    law = tmp_path / "bad.ctrl"
    law.write_text("CTRL 1 hold 1 1 1\nI 0 0\nC 0 12 3\n")
    rc = main(["simulate", "--config", str(ws / "pendulum.ini"),
               "--controller", str(law), "--out", str(tmp_path / "run.csv")])
    assert rc == 1
    assert "input id 3 is outside 0..0: 'C 0 12 3'" in capsys.readouterr().err


def test_controller_with_no_phase_is_exit_1(ws, tmp_path, capsys):
    # such a controller used to report every waypoint visited after 0 steps
    law = tmp_path / "empty.ctrl"
    law.write_text("CTRL 1 hold 0 25 0\n" + "".join(f"I {i} 0\n" for i in range(25)))
    rc = main(["simulate", "--config", str(ws / "pendulum.ini"),
               "--controller", str(law), "--out", str(tmp_path / "run.csv")])
    assert rc == 1
    assert "a phase and no negative count: 'CTRL 1 hold 0 25 0'" \
        in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


_STAGES_SCRIPT = """\
import json, sys
from symquant.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    heavy = [m for m in ("numpy.random", "numpy.ma") if m in sys.modules]
    print(json.dumps([argv[0], argv[2], rc, heavy]))
"""


def test_no_stage_imports_numpy_random_or_numpy_ma(ws, tmp_path):
    """numpy.random (about 6 MiB) and numpy.ma (about 1.7 MiB) stay out of
    every stage: the witnesses draw from Python's random module, which
    numpy already loads, and no stage calls np.unique, whose first call
    imports numpy.ma."""
    (tmp_path / "robust.ini").write_text(
        (ws / "zoomed.ini").read_text().replace("mode = hold", "mode = robust"))
    p, z, d = (str(ws / "pendulum.ini"), str(tmp_path / "robust.ini"),
               str(ws / "delay.ini"))
    out = {name: str(tmp_path / name) for name in
           ("m.sts", "law.ctrl", "run.csv", "m.dot", "fine.sts", "fine.ctrl",
            "tube.sts", "tube.ctrl", "tube.csv")}
    stages = [
        ["abstract", "--config", p, "--out", out["m.sts"]],
        ["verify-frr", "--config", p, "--model", out["m.sts"]],
        ["synthesize", "--config", p, "--model", out["m.sts"],
         "--out", out["law.ctrl"]],
        ["simulate", "--config", p, "--controller", out["law.ctrl"],
         "--out", out["run.csv"]],
        ["export-dot", "--model", out["m.sts"], "--out", out["m.dot"]],
        ["refine", "--config", z, "--model", out["m.sts"],
         "--out", out["fine.sts"]],
        ["verify-frr", "--config", z, "--model", out["fine.sts"]],
        ["synthesize", "--config", z, "--model", out["fine.sts"],
         "--out", out["fine.ctrl"]],
        ["abstract", "--config", d, "--out", out["tube.sts"]],
        ["verify-frr", "--config", d, "--model", out["tube.sts"]],
        ["synthesize", "--config", d, "--model", out["tube.sts"],
         "--out", out["tube.ctrl"]],
        ["simulate", "--config", d, "--controller", out["tube.ctrl"],
         "--out", out["tube.csv"]],
    ]
    proc = subprocess.run([sys.executable, "-c", _STAGES_SCRIPT,
                           json.dumps(stages)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("[")]
    assert [(name, rc) for name, _, rc, _ in runs] == [
        (argv[0], 0) for argv in stages]
    assert [(name, cfg, heavy) for name, cfg, _, heavy in runs if heavy] == []


FINE_ZOOM_INI = str(Path(__file__).resolve().parents[1] / "bench" / "workloads"
                    / "fine-zoom.ini")


def test_verify_stage_parses_each_right_hand_side_once(tmp_path, monkeypatch,
                                                       capsys):
    """One plant per stage: load_config parses every row of system.f once,
    and the model check's refined model and the witness use the plant it
    built."""
    model = str(tmp_path / "refined.sts")
    write_ts(load_config(FINE_ZOOM_INI).build_model(refined=True), model)

    parses, configs, models, witnessed = [], [], [], []
    parse, load, derive = config.parse_expr, cli.load_config, AppConfig.derive_model
    witness = cli.sample_frr_delayfree
    monkeypatch.setattr(config, "parse_expr",
                        lambda text: parses.append(text) or parse(text))
    monkeypatch.setattr(cli, "load_config",
                        lambda path: configs.append(load(path)) or configs[-1])
    monkeypatch.setattr(AppConfig, "derive_model",
                        lambda self, refined=False:
                        models.append(derive(self, refined)) or models[-1])
    monkeypatch.setattr(cli, "sample_frr_delayfree",
                        lambda *args: witnessed.append(args) or witness(*args))
    main(["verify-frr", "--config", FINE_ZOOM_INI, "--model", model,
          "--samples", "100"])
    assert capsys.readouterr().out.startswith("frr-report seed=1 samples=100 ")
    assert parses == ["x2", "-1.96*sin(x1) - 1.5*x2 + u1"]
    assert len(configs) == len(models) == len(witnessed) == 1
    assert models[0]._ctx.sys is configs[0].system
    assert witnessed[0][0] is models[0]


UNICYCLE_INI = """\
[system]
n = 3
m = 2
f =
    u1*cos(x3)
    u1*sin(x3)
    u2
state_lo = -1 -1 -1
state_hi = 1 1 1
input_lo = -1 -1
input_hi = 1 1

[abstraction]
tau = 0.2
variant = EQ20
eta = 0.4
d = 0.4
mu = 0.5

[synthesis]
kind = reach
mode = robust
targets =
    0 0 0

[run]
x0 = 0 0 0
seed = 1
"""


def test_three_states_and_two_inputs_through_every_stage(tmp_path, capsys):
    ini = tmp_path / "unicycle.ini"
    ini.write_text(UNICYCLE_INI)
    cfg, sts, ctrl = str(ini), str(tmp_path / "m.sts"), str(tmp_path / "law.ctrl")
    stages = [
        ["abstract", "--config", cfg, "--out", sts],
        ["verify-frr", "--config", cfg, "--model", sts],
        ["synthesize", "--config", cfg, "--model", sts, "--out", ctrl],
        ["simulate", "--config", cfg, "--controller", ctrl,
         "--out", str(tmp_path / "run.csv")],
    ]
    assert [main(argv) for argv in stages] == [0, 0, 0, 0]
    out = capsys.readouterr().out
    assert "27 states, 25 inputs, 7479 transitions" in out
    assert "frr-report seed=1 samples=1000 checked=846 skipped=154 " \
           "violations=0" in out
    data = (tmp_path / "m.sts").read_bytes()
    assert serialize_ts(parse_sts(data.decode())).encode() == data
    data = (tmp_path / "law.ctrl").read_bytes()
    assert serialize_controller(parse_controller(data.decode())).encode() == data
