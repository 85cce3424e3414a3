import itertools
import math

import numpy as np
import pytest

from symquant.abstraction import (build_delayfree, build_timedelay,
                                  growth_bound_delayfree, knot_times,
                                  log_input_lattice, psi2, refine_cells,
                                  spline_basis, tube_interpolant,
                                  uniform_input_lattice)
from symquant.dynamics import SampledCurve, TimeDelaySystem, integrate
from symquant.quantizers import (LogQuantizerParams, Partition,
                                 ZoomQuantizerParams)


# ---------------------------------------------------------------------------
# growth bounds


def test_growth_bound_at_origin_cell():
    # the deadzone cell [-0.4, 0.4]^2 around q = 0: e^1.2 = 3.32012
    radius = growth_bound_delayfree(np.array([0.4, 0.4]), 6.0, 0.2)
    assert radius == pytest.approx(1.32804677, abs=1e-7)


def test_growth_bound_mixed_components():
    # one radius on every axis: the largest spread, not each axis's own
    radius = growth_bound_delayfree(np.array([0.12, 0.4]), 6.0, 0.2)
    assert radius == growth_bound_delayfree(np.array([0.4, 0.4]), 6.0, 0.2)


def test_growth_bound_reaches_the_far_face_from_the_quantized_point():
    # a boundary-merged cell [0.6, 1] with q = 0.72 and the EQ20 deadzone
    # [-0.4, 0.4] with q = 0: with no growth the radius is the distance
    # from q to the far face, where theta1*(|q|+E) gave 0.18 and 0.25
    lower, upper = np.array([[0.6], [-0.4]]), np.array([[1.0], [0.4]])
    q = np.array([[0.72], [0.0]])
    spread = np.maximum(q - lower, upper - q)
    assert growth_bound_delayfree(spread, np.zeros(2), 0.2).tolist() == \
        pytest.approx([0.28, 0.4])


def test_growth_bound_parameter_checks():
    with pytest.raises(ValueError, match="number"):
        growth_bound_delayfree(np.array([0.4]), math.nan, 0.2)
    with pytest.raises(ValueError, match="tau positive"):
        growth_bound_delayfree(np.array([0.4]), 1.0, 0.0)


def test_growth_bound_accepts_a_zero_lipschitz_constant():
    # a right-hand side that does not depend on the state: no growth
    radius = growth_bound_delayfree(np.array([0.12, 0.4]), 0.0, 0.2)
    assert radius == 0.4


def test_growth_bound_rows_equal_one_point_bounds():
    spread = np.array([[0.4, 0.4], [0.12, 0.28], [0.28, 0.4]])
    rate = np.array([6.0, 3.3194235869338233, -0.9])
    rows = growth_bound_delayfree(spread, rate, 0.2)
    assert rows.shape == (3,)
    for k in range(3):
        one = growth_bound_delayfree(spread[k], float(rate[k]), 0.2)
        assert rows[k].tobytes() == one.tobytes()
    with pytest.raises(ValueError, match="number"):
        growth_bound_delayfree(spread, np.array([6.0, math.nan, 1.0]), 0.2)


def test_growth_bound_shrinks_under_a_negative_rate():
    # a contracting plant's matrix measure is negative: the radius is
    # below the spread, e^(-1.35*0.2) of it
    radius = growth_bound_delayfree(np.array([0.2, 0.1]), -1.35, 0.2)
    assert radius == pytest.approx(0.2 * math.exp(-0.27))
    assert radius < 0.2


# ---------------------------------------------------------------------------
# input lattices


def test_uniform_input_lattice_multiples():
    pts = uniform_input_lattice([-2.5], [2.5], 0.2)
    assert len(pts) == 25
    assert pts[0][0] == pytest.approx(-2.4)
    assert pts[-1][0] == pytest.approx(2.4)
    vals = [p[0] for p in pts]
    assert any(abs(v - 1.4) < 1e-9 for v in vals)


def test_uniform_input_lattice_two_axes():
    pts = uniform_input_lattice([-0.5, 0.0], [0.5, 0.4], 0.5)
    # {-0.5, 0, 0.5} x {0}: the second axis holds only the multiple 0.0
    assert len(pts) == 3
    assert {p[1] for p in pts} == {0.0}
    assert len({p[0] for p in pts}) == 3


def loop_log_input_lattice(lo, hi, p):
    """The log input lattice by its own level loop, the reference for the
    one that takes its levels from the state quantizer's enumeration."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    axes = []
    for j in range(len(lo)):
        vals = {0.0} if lo[j] <= 0.0 <= hi[j] else set()
        level = p.first_level
        while level <= max(abs(lo[j]), abs(hi[j])):
            if lo[j] <= level <= hi[j]:
                vals.add(level)
            if lo[j] <= -level <= hi[j]:
                vals.add(-level)
            level *= (1.0 + p.eta) / (1.0 - p.eta)
        if not vals:
            raise ValueError(f"input axis {j + 1} contains no quantizer level")
        axes.append(sorted(vals))
    return [np.array(u) for u in itertools.product(*axes)]


def test_log_input_lattice_levels():
    p = LogQuantizerParams(0.2, 0.4, "EQ20")
    pts = log_input_lattice([-2.5], [2.5], p)
    vals = sorted(v[0] for v in pts)
    assert 0.0 in vals
    assert vals == sorted(-v for v in vals)  # symmetric
    positives = [v for v in vals if v > 0]
    assert positives[0] == pytest.approx(0.48)
    # the same floats in the same order as the level loop, or its error
    for variant in ("EQ2", "EQ20"):
        p = LogQuantizerParams(0.2, 0.4, variant)
        second = p.first_level * ((1.0 + p.eta) / (1.0 - p.eta))
        boxes = [([-2.5], [2.5]),                     # symmetric
                 ([0.1], [2.5]), ([-2.5], [-0.5]),    # one-sided
                 ([-2.5, 0.1], [2.5, 1.7]),
                 ([-0.3], [0.3]),                     # inside the deadzone
                 ([0.34], [0.39]), ([-0.39], [-0.34]),
                 ([p.first_level], [p.first_level]),  # lo == hi on a level
                 ([-second], [-second]),
                 ([0.0], [0.0])]                      # lo == hi at 0
        for lo, hi in boxes:
            try:
                want = loop_log_input_lattice(lo, hi, p)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)):
                    log_input_lattice(lo, hi, p)
                continue
            got = log_input_lattice(lo, hi, p)
            assert [u.tobytes() for u in got] == [u.tobytes() for u in want]


# ---------------------------------------------------------------------------
# delay-free build (the worked 25-state model is exercised in the
# acceptance suite; here we pin structural behavior)


def test_build_counts_and_initial(pendulum_ts):
    assert len(pendulum_ts.ids) == 25
    assert len(pendulum_ts.inputs) == 25
    assert pendulum_ts.kind == "delayfree"


def test_center_successors_under_positive_input(pendulum_ts):
    iid = pendulum_ts.input_id_of([1.4])
    succ = pendulum_ts.successors(12, iid)
    # radius e^(6*0.2) * 0.4 = 1.33 from the deadzone cell: every cell
    assert len(succ) == 25
    assert succ == tuple(sorted(succ))


def test_all_successor_sets_contain_the_nominal_cell(pendulum, pendulum_ts):
    part = pendulum_ts.partition
    for (sid, iid), succ in pendulum_ts.transition_rows():
        x1 = integrate(pendulum, part.cell_arrays(sid)[2],
                       pendulum_ts.inputs[iid], 0.2)
        assert part.locate(x1) in succ


def test_blocked_pairs_have_no_entry(pendulum, pendulum_ts):
    # large positive u from the top-left corner pushes x2 past the box edge
    part = pendulum_ts.partition
    corner = part.locate([-0.72, 0.72])
    iid = pendulum_ts.input_id_of([2.4])
    x1 = integrate(pendulum, part.cell_arrays(corner)[2], [2.4], 0.2)
    assert np.any(x1 > 1.0)
    assert iid not in pendulum_ts.enabled(corner)
    assert pendulum_ts.successors(corner, iid) == ()


def test_monotone_in_lipschitz_constant(pendulum, logparams):
    small = build_delayfree(pendulum, 0.2, logparams, lipschitz=3.0)
    large = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0)
    small_rows, large_rows = dict(small.transition_rows()), dict(large.transition_rows())
    assert set(small_rows) == set(large_rows)  # same blocking
    for key, succ in small_rows.items():
        assert set(succ) <= set(large_rows[key])


def test_build_is_deterministic(pendulum, logparams):
    a = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0)
    b = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0)
    assert dict(a.transition_rows()) == dict(b.transition_rows())


def test_sabotaged_growth_radius_gives_singletons(pendulum, logparams):
    ts0 = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0,
                          growth_scale=0.0)
    assert all(len(s) == 1 for _, s in ts0.transition_rows())


def test_build_rejects_bad_tau(pendulum, logparams):
    with pytest.raises(ValueError):
        build_delayfree(pendulum, 0.0, logparams)


# ---------------------------------------------------------------------------
# refinement


def test_refine_cells_produces_33_states(pendulum_ts):
    ref = refine_cells(pendulum_ts, {12: ZoomQuantizerParams(1, 1.0, 0.3)})
    assert len(ref.ids) == 33
    assert ref.ids.tolist() == [*range(12), *range(13, 34)]


def test_refine_cells_empty_assignment_is_identity(pendulum_ts):
    assert refine_cells(pendulum_ts, {}) is pendulum_ts


def test_refine_carries_over_untouched_rows(pendulum_ts):
    ref = refine_cells(pendulum_ts, {12: ZoomQuantizerParams(1, 1.0, 0.3)})
    ref_rows = dict(ref.transition_rows())
    for (sid, iid), succ in pendulum_ts.transition_rows():
        if sid == 12 or 12 in succ:
            continue
        assert ref_rows[(sid, iid)] == succ


def test_refine_redirects_successors_into_subcells(pendulum, pendulum_ts):
    ref = refine_cells(pendulum_ts, {12: ZoomQuantizerParams(1, 1.0, 0.3)})
    part = ref.partition
    for (sid, iid), succ in ref.transition_rows():
        assert 12 not in succ
        x1 = integrate(pendulum, part.cell_arrays(sid)[2],
                       ref.inputs[iid], 0.2)
        assert part.locate(x1) in succ


def test_build_keeps_its_endpoints(pendulum, pendulum_ts):
    ts = pendulum_ts
    assert ts.endpoints.shape == (len(ts.ids), len(ts.inputs), 2)
    for k in (0, 12, 24):
        for iid in (0, 13):
            x1 = integrate(pendulum, ts.partition.cell_arrays(ts.ids[k])[2],
                           ts.inputs[iid], 0.2)
            assert ts.endpoints[k, iid].tolist() == x1.tolist()


def test_refining_a_refined_model_equals_one_refinement(pendulum, logparams,
                                                        pendulum_ts):
    from symquant.model_io import serialize_ts
    first = {12: ZoomQuantizerParams(1, 1.0, 0.3)}
    second = {13: ZoomQuantizerParams(1, 1.0, 0.3), 0: ZoomQuantizerParams(10, 1.0, 0.1)}
    twice = refine_cells(refine_cells(pendulum_ts, first), second)
    part = Partition(pendulum.state_lo, pendulum.state_hi, logparams)
    once = build_delayfree(pendulum, 0.2, part.refined(first).refined(second),
                           lipschitz=6.0)
    assert serialize_ts(twice) == serialize_ts(once)
    assert np.array_equal(twice.endpoints, once.endpoints)


def test_refine_requires_build_context(pendulum_ts):
    from symquant.model_io import parse_sts, serialize_ts
    bare = parse_sts(serialize_ts(pendulum_ts))
    assert bare.endpoints is None
    with pytest.raises(ValueError):
        refine_cells(bare, {12: ZoomQuantizerParams(1, 1.0, 0.3)})


# ---------------------------------------------------------------------------
# splines and tubes


def test_spline_basis_partition_of_unity():
    hats = spline_basis(3, -0.2, 0.0)
    assert len(hats) == 5
    grid = np.linspace(-0.2, 0.0, 1000)
    worst = max(abs(sum(h(t) for h in hats) - 1.0) for t in grid)
    assert worst < 1e-12


def test_spline_basis_peaks_and_support():
    hats = spline_basis(1, 0.0, 1.0)  # 3 hats, h = 0.5
    assert hats[0](0.0) == 1.0
    assert hats[1](0.5) == 1.0
    assert hats[2](1.0) == 1.0
    assert hats[0](0.5) == 0.0
    assert hats[1](0.25) == pytest.approx(0.5)


def test_knot_times_degenerate_interval():
    assert knot_times(2, 0.0, 0.0) == [0.0, 0.0, 0.0, 0.0]
    ts = knot_times(0, -0.2, 0.0)
    assert ts == pytest.approx([-0.2, 0.0])


def test_psi2_constant_curve(pendulum_ts):
    part = pendulum_ts.partition
    curve = SampledCurve(-0.2, 0.0, np.tile([-0.72, -0.72], (2, 1)))
    assert psi2(curve, part, 2) == (0, 0, 0, 0)


def test_psi2_crossing_curve(pendulum_ts):
    part = pendulum_ts.partition
    vals = np.array([[-0.72, -0.72], [0.0, 0.0]])  # straight line corner->center
    assert psi2(SampledCurve(-0.2, 0.0, vals), part, 0) == (0, 12)


def test_tube_interpolant_runs_through_quantized_points(pendulum_ts):
    part = pendulum_ts.partition
    curve = tube_interpolant((0, 12), part, 0.2)
    assert curve(-0.2) == pytest.approx([-0.72, -0.72])
    assert curve(0.0) == pytest.approx([0.0, 0.0])
    assert curve(-0.1) == pytest.approx([-0.36, -0.36])


# ---------------------------------------------------------------------------
# time-delay build


def test_timedelay_build_shape(pendulum_delay_ts):
    ts = pendulum_delay_ts
    assert ts.kind == "timedelay"
    assert not ts.truncated
    assert ts.knots[0].tolist() == [0, 0]  # psi2 of the corner history
    assert all(len(succ) >= 1 for _, succ in ts.transition_rows())


def test_timedelay_successors_contain_nominal_tube(pendulum_delay,
                                                   pendulum_delay_ts):
    from symquant.dynamics import integrate_delay
    ts = pendulum_delay_ts
    part = ts.partition
    by_tube = dict(zip(map(tuple, ts.knots.tolist()), ts.ids.tolist()))
    checked = 0
    for (tid, iid), succ in list(ts.transition_rows())[:200]:
        hist = tube_interpolant(ts.knots[tid], part, 0.2)  # ids are positions
        u = ts.inputs[iid]
        out = integrate_delay(pendulum_delay, hist, u, 0.2)
        nominal = tuple(part.locate(out(t)) for t in knot_times(0, -0.2, 0.0))
        assert by_tube[nominal] in succ
        checked += 1
    assert checked > 0


def test_timedelay_budget_truncation_blocks_lost_pairs(pendulum_delay,
                                                       logparams):
    ts = build_timedelay(pendulum_delay, 0.2, logparams, N=0, budget=5)
    assert ts.truncated
    assert len(ts.ids) == 5
    known = set(ts.ids.tolist())
    for _, succ in ts.transition_rows():
        assert set(succ) <= known


def test_timedelay_requires_xi0(logparams):
    sys = TimeDelaySystem.from_strings(
        ["x2", "-x1 + u1"], [-1, -1], [1, 1], [-1], [1], Theta=0.1, r=0.0)
    with pytest.raises(ValueError):
        build_timedelay(sys, 0.1, logparams)


def test_timedelay_zoomed_knots(pendulum_delay, logparams):
    part = Partition(pendulum_delay.state_lo, pendulum_delay.state_hi, logparams)
    ts = build_timedelay(pendulum_delay, 0.2,
                         part.refined({0: ZoomQuantizerParams(10, 1.0, 0.1)}),
                         N=0, budget=200)
    # the initial history sits inside the refined corner, so the initial
    # tube's knots are subcells (fresh ids > 24)
    assert all(k >= 25 for k in ts.knots[0].tolist())


def test_timedelay_successors_equal_knotwise_intersecting(pendulum_delay,
                                                          logparams):
    # reference: the knot-wise Partition.intersecting match, tube by tube,
    # under the radius the model kept (test_tube_levels checks it)
    from symquant.dynamics import integrate_delay_batch, interpolate_batch
    # small growth boxes, so that successor sets are proper subsets
    base = Partition(pendulum_delay.state_lo, pendulum_delay.state_hi, logparams)
    ts = build_timedelay(pendulum_delay, 0.2,
                         base.refined({0: ZoomQuantizerParams(10, 1.0, 0.1)}),
                         N=1, lipschitz=1.0, growth_scale=0.25, budget=30)
    part = ts.partition
    thetas = knot_times(1, -0.2, 0.0)
    rows = dict(ts.transition_rows())
    fan_out = [len(v) for v in rows.values()]
    assert max(fan_out) < len(ts.ids) and min(fan_out) < max(fan_out)
    U = np.array(ts.inputs).T
    tubes = list(zip(ts.ids.tolist(), ts.knots.tolist()))
    for sid, tube in tubes:
        hist = tube_interpolant(tube, part, 0.2)
        H = np.repeat(hist.values[:, :, None], len(ts.inputs), axis=2)
        knots = interpolate_batch(integrate_delay_batch(pendulum_delay, H, U, 0.2),
                                  0.2, thetas)
        radius = ts.radius[sid]
        for iid in range(len(ts.inputs)):
            if (sid, iid) not in rows:
                continue
            hits = [set(part.intersecting(knots[j, :, iid] - radius,
                                          knots[j, :, iid] + radius))
                    for j in range(len(thetas))]
            want = [t for t, other in tubes
                    if all(k in hits[j] for j, k in enumerate(other))]
            assert rows[(sid, iid)] == tuple(want)
