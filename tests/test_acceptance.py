"""End-to-end acceptance battery for the worked pendulum example.

Each criterion gets exactly one test named test_criterion_<n>_<slug>; the
terminal summary hook in conftest prints one pass/fail line per criterion
after the run.  Tolerances and runtime caps are pinned here and nowhere
else.  Counts (25 states, 9/25 subcells, 33 refined states, 0 violations)
are exact; the closed-loop completion time is banded, not bit-exact,
because it depends on solver tie-breaks.
"""

import time

import numpy as np
import pytest

from symquant.abstraction import (build_delayfree, build_timedelay,
                                  refine_cells, spline_basis)
from symquant.cli import main
from symquant.dynamics import (ControlSystem, SampledCurve, TimeDelaySystem,
                               integrate)
from symquant.frr import (RefinementMap, sample_frr_delayfree,
                          sample_frr_timedelay)
from symquant.quantizers import (LogQuantizerParams, Partition,
                                 ZoomQuantizerParams, log_quantize,
                                 zoom_lattice, zoom_quantize)
from symquant.sim import run_closed_loop, validate_path
from symquant.synthesis import Specification, synthesize_sequence


CONFIG = """\
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
"""


def _alternation_spec(part, phi):
    cid = lambda x, y: part.locate(np.array([x, y]))
    s1 = [cid(0, 0), cid(-phi, 0)]
    s2 = [cid(0, phi), cid(phi, 0), cid(0, -phi), cid(-phi, 0)]
    return Specification("sequence", [(q,) for q in s1 + s1 + s2 + s1 + s1])


def test_criterion_1_state_count(pendulum, logparams):
    t0 = time.monotonic()
    ts = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"build took {elapsed:.2f} s"
    assert len(ts.states) == 25
    pts = sorted((round(s.cell.quantized_point[0], 9),
                  round(s.cell.quantized_point[1], 9)) for s in ts.states)
    levels = (-0.72, -0.48, 0.0, 0.48, 0.72)
    assert pts == sorted((a, b) for a in levels for b in levels)


def test_criterion_2_zoom_counts(logparams):
    part = Partition([-1, -1], [1, 1], logparams)
    corner = part.cell(part.locate(np.array([-0.72, -0.72])))
    center = part.cell(part.locate(np.array([0.0, 0.0])))
    assert len(zoom_lattice(corner, ZoomQuantizerParams(10, 1.0, 0.1))) == 25
    assert len(zoom_lattice(center, ZoomQuantizerParams(1, 1.0, 0.3))) == 9


def test_criterion_3_origin_self_loop(pendulum_ts):
    origin = pendulum_ts.partition.locate(np.array([0.0, 0.0]))
    iid = pendulum_ts.input_id_of([0.0])
    assert origin in pendulum_ts.successors(origin, iid)


def test_criterion_4_sampled_relation_witness(tmp_path, capsys):
    t0 = time.monotonic()
    cfg = tmp_path / "pendulum.ini"
    cfg.write_text(CONFIG)
    model = tmp_path / "model.sts"
    assert main(["abstract", "--config", str(cfg), "--out", str(model)]) == 0
    for seed in (1, 2, 3):
        rc = main(["verify-frr", "--config", str(cfg), "--model", str(model),
                   "--samples", "1000", "--seed", str(seed)])
        out = capsys.readouterr().out
        assert rc == 0, f"seed {seed} reported violations"
        assert "violations=0" in out
    # negative control: a zero growth radius must be caught
    sab = tmp_path / "sabotage.ini"
    sab.write_text(CONFIG + "growth_scale = 0\n")
    flat = tmp_path / "flat.sts"
    assert main(["abstract", "--config", str(sab), "--out", str(flat)]) == 0
    rc = main(["verify-frr", "--config", str(sab), "--model", str(flat),
               "--samples", "1000", "--seed", "1"])
    capsys.readouterr()
    assert rc == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"witness runs took {elapsed:.1f} s"


def test_criterion_5_synthesis_and_closed_loop(pendulum, pendulum_ts):
    spec = _alternation_spec(pendulum_ts.partition, 0.48)
    ctrl = synthesize_sequence(pendulum_ts, spec, mode="hold")
    traj, rep = run_closed_loop(pendulum, ctrl,
                                RefinementMap.from_ts(pendulum_ts),
                                x0=np.array([-0.48, 0.0]),
                                tau=0.2, max_steps=200)
    assert rep.completed
    assert 11.8 * 0.8 <= rep.time <= 11.8 * 1.2, rep.as_text()
    assert rep.time < 24.0
    # every concrete step is also an abstract transition
    assert validate_path(pendulum_ts, traj) is None


def test_criterion_6_refined_model_synthesis(pendulum_ts):
    center = pendulum_ts.partition.locate(np.array([0.0, 0.0]))
    fine = refine_cells(pendulum_ts, {center: ZoomQuantizerParams(1, 1.0, 0.3)})
    assert len(fine.states) == 33
    spec = _alternation_spec(fine.partition, 0.3)
    ctrl = synthesize_sequence(fine, spec, mode="hold")
    assert ctrl.n_phases == 12
    assert all(ctrl.phases[p] for p in range(12))


def test_criterion_7_time_delay_witness(pendulum_delay, logparams):
    t0 = time.monotonic()
    ts = build_timedelay(pendulum_delay, 0.2, logparams, N=0, budget=1000)
    rep = sample_frr_timedelay(ts, 200, 1)
    assert rep.passed, rep.as_text()

    # degenerate horizon: zero delay must agree with the delay-free verdict
    # for the same vector field (the delayed term collapses into the drift)
    rhs = ["x2", "-1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0) + u1"]
    xi0 = SampledCurve(0.0, 0.0, np.array([[-0.72, -0.72]]))
    degenerate = TimeDelaySystem.from_strings(rhs, [-1, -1], [1, 1],
                                              [-2.5], [2.5], 0.0, r=0.0,
                                              xi0=xi0)
    ts0 = build_timedelay(degenerate, 0.2, logparams, N=0, budget=1000)
    rep0 = sample_frr_timedelay(ts0, 200, 1)
    flat = ControlSystem.from_strings(["x2", "-1.96*sin(x1) - 1.4*x2 + u1"],
                                      [-1, -1], [1, 1], [-2.5], [2.5])
    tsf = build_delayfree(flat, 0.2, logparams)
    repf = sample_frr_delayfree(tsf, 200, 1)
    assert rep0.passed == repf.passed
    assert rep0.passed
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"time-delay witness took {elapsed:.1f} s"


def test_criterion_8_quantizer_property_suites(logparams):
    rng = np.random.default_rng(0)

    # sector bound, both variants, 1e5 samples each
    for variant in ("EQ2", "EQ20"):
        p = LogQuantizerParams(0.2, 0.4, variant)
        zs = rng.uniform(-5.0, 5.0, 100_000)
        zs = zs[np.abs(zs) > p.deadzone]
        err = np.array([abs(z - log_quantize(z, p)) for z in zs])
        assert np.all(err <= 0.2 * np.abs(zs) + 1e-12)

    # zoom bounds: error <= Lambda*delta inside the range, hard saturation
    zp = ZoomQuantizerParams(10, 1.0, 0.1)
    zs = rng.uniform(-1.3, 1.3, 100_000)
    qs = np.array([zoom_quantize(z, zp) for z in zs])
    inside = np.abs(zs) <= (zp.M + 0.5) * zp.width
    assert np.all(np.abs(zs[inside] - qs[inside]) <= zp.width + 1e-12)
    assert np.all(np.abs(qs) <= zp.M * zp.width + 1e-12)
    assert np.all(qs[~inside] == np.sign(zs[~inside]) * zp.M * zp.width)

    # spline partition of unity on a 1e3 grid
    basis = spline_basis(3, -0.2, 0.0)
    grid = np.linspace(-0.2, 0.0, 1000)
    total = np.array([sum(h(t) for h in basis) for t in grid])
    assert np.max(np.abs(total - 1.0)) < 1e-12

    # cell cover exactness: 1e5 random points, each in exactly one cell
    part = Partition([-1, -1], [1, 1], logparams)
    X = rng.uniform(-1.0, 1.0, (100_000, 2))
    counts = np.zeros(len(X), dtype=int)
    for c in part.cells:
        counts += np.all((X >= c.lower) & (X <= c.upper), axis=1)
    assert np.all(counts == 1)


def test_criterion_9_integrator_convergence():
    decay = ControlSystem.from_strings(["-x1"], [-10], [10], [0], [0])
    u = np.array([0.0])
    x0 = np.array([1.0])
    exact = np.exp(-1.0)
    err = lambda steps: abs(integrate(decay, x0, u, 1.0, steps)[0] - exact)
    assert err(8) / err(16) >= 8.0
    assert err(16) / err(32) >= 8.0

    pend = ControlSystem.from_strings(
        ["x2", "-1.96*sin(x1) - 1.5*x2 + u1"], [-5, -5], [5, 5], [-2.5], [2.5])
    u = np.array([0.7])
    x0 = np.array([-0.48, 0.0])
    whole = integrate(pend, x0, u, 0.6, 12)
    split = integrate(pend, integrate(pend, x0, u, 0.35, 7), u, 0.25, 5)
    assert np.max(np.abs(whole - split)) < 1e-9
