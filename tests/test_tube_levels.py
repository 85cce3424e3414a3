"""The level-at-a-time tube build and the array-based tube witness against
the one-tube-at-a-time loops they replaced, and Partition.locate_batch
against Partition.locate and the scalar walk it batches."""

import math

import numpy as np
import pytest

from symquant import frr, quantizers
from symquant import (LogQuantizerParams, TimeDelaySystem,
                      ZoomQuantizerParams, build_timedelay,
                      sample_frr_timedelay)
from symquant.abstraction import (TransitionSystem, _BuildContext,
                                  input_lattice, knot_times, psi2,
                                  transition_arrays)
from symquant.dynamics import (IntegrationError, SampledCurve,
                               integrate_delay_batch, interpolate_batch)
from symquant.frr import _EDGE, FrrReport, Violation
from symquant.model_io import serialize_ts
from symquant.quantizers import Partition, _boxes_meet

DELAY_RHS = ["x2", "-1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0.2) + u1"]
LOGP = LogQuantizerParams(0.2, 0.4, "EQ20")
ZOOM = {0: ZoomQuantizerParams(10, 1.0, 0.1)}


def delay_plant(rhs=DELAY_RHS, Theta=0.2, r=0.2, x0=(-0.72, -0.72)):
    xi0 = SampledCurve(0.0 - Theta, 0.0, np.array([x0], dtype=float))
    return TimeDelaySystem.from_strings(rhs, [-1, -1], [1, 1], [-2.5], [2.5],
                                        Theta=Theta, r=r, xi0=xi0)


def quantized_functional(tube, part, Theta):
    """The grid rows of the quantized functional of a tube (its knot cell
    ids), one cell at a time: the knots' quantized points, the last alone
    when Theta = 0."""
    pts = np.array([part.cell_arrays(k)[2] for k in tube])
    return pts if Theta > 0 else pts[-1:]


def knot_widths(tube, part):
    """Each knot's quantization width, from the zoom records and the cell
    bounds: its record's bin width on a zoom subcell, half the cell's
    widest extent elsewhere."""
    out = []
    for k in tube:
        z = [z for z in part.zoom.values() if z.first_id <= k < z.first_id + z.count]
        lower, upper = part.cell_arrays(k)[:2]
        out.append(z[0].params.width if z else float(np.max(upper - lower)) / 2.0)
    return out


def reference_build(sys, tau, lattice, N=0,
                    input_quantization=("uniform", 0.2), lipschitz=6.0,
                    steps=20, growth_scale=1.0, budget=1000, kernel=None):
    """The tube model by the FIFO loop: one method-of-steps batch per
    dequeued tube, then one Partition.locate per nominal knot.  lattice is
    a Partition or its LogQuantizerParams, as for build_timedelay.  kernel,
    when given, receives the (nominal knot points, growth radius) of every
    pair kept, keyed by (tube id, input id)."""
    part = lattice if isinstance(lattice, Partition) else \
        Partition(sys.state_lo, sys.state_hi, lattice)
    inputs = input_lattice(sys.input_lo, sys.input_hi, input_quantization)
    thetas = knot_times(N, -sys.Theta, 0.0)
    L2 = float(lipschitz)
    amp = 2.0 * math.exp(L2 * tau) * growth_scale
    init = psi2(sys.xi0, part, N)
    order, ids = [init], {init: 0}
    kernel = {} if kernel is None else kernel
    nominal = {}
    truncated = False
    U = np.array(inputs).T
    head = 0
    while head < len(order):
        tube, tid = order[head], head
        head += 1
        hist = quantized_functional(tube, part, sys.Theta)
        radius = max(knot_widths(tube, part)) * amp
        H = np.repeat(hist[:, :, None], len(inputs), axis=2)
        knots = interpolate_batch(integrate_delay_batch(sys, H, U, tau, steps),
                                  sys.Theta, thetas)
        for iid in range(len(inputs)):
            pts = knots[:, :, iid]
            if np.any(pts < sys.state_lo) or np.any(pts > sys.state_hi):
                continue
            succ = tuple(part.locate(p) for p in pts)
            kernel[(tid, iid)] = (pts, radius)
            nominal[(tid, iid)] = succ
            if succ not in ids:
                if len(order) >= budget:
                    truncated = True
                    continue
                ids[succ] = len(order)
                order.append(succ)
    # the successor test itself is unchanged; see
    # test_abstraction.test_timedelay_successors_equal_knotwise_intersecting
    pairs = [key for key in kernel if nominal[key] in ids]
    cell_lo = np.array([[part.cell_arrays(k)[0] for k in t] for t in order])
    cell_hi = np.array([[part.cell_arrays(k)[1] for k in t] for t in order])
    relation = {}
    for key in pairs:
        pts, radius = kernel[key]
        meets = _boxes_meet(pts - radius, pts + radius, cell_lo, cell_hi).all(axis=1)
        relation[key] = tuple(np.flatnonzero(meets).tolist())
    ctx = _BuildContext(sys=sys, tau=tau, lipschitz=lipschitz, steps=steps,
                        growth_scale=growth_scale, knot_thetas=thetas)
    return TransitionSystem(range(len(order)), inputs,
                            transition_arrays(range(len(order)), len(inputs),
                                              relation),
                            cell_rows=(part.ids, *part.cell_arrays(part.ids)[:3]),
                            knots=np.array(order), partition=part, ctx=ctx,
                            truncated=truncated)


def zoomed(sys, zoom=ZOOM):
    """The lattice of LOGP over the state box of sys, refined by zoom."""
    return Partition(sys.state_lo, sys.state_hi, LOGP).refined(zoom)


def assert_same_build(sys, lattice=LOGP, **kw):
    kw.setdefault("lipschitz", 6.0)
    ts = build_timedelay(sys, 0.2, lattice, **kw)
    kernel = {}
    ref = reference_build(sys, 0.2, lattice, kernel=kernel, **kw)
    assert ts.knots.tolist() == ref.knots.tolist()
    assert ts.ids.tolist() == list(range(len(ts.ids)))
    assert np.array_equal(ts.indptr, ref.indptr)
    assert np.array_equal(ts.succ, ref.succ)
    assert ts.truncated == ref.truncated
    assert serialize_ts(ts) == serialize_ts(ref)
    # the model keeps the nominal knot points and radii of its successor test
    n = len(ts.ids)
    assert ts.endpoints.shape == (n, len(ts.inputs), ts.knots.shape[1], sys.n)
    assert ts.radius.shape == (n,)
    for (t, i), (pts, radius) in kernel.items():
        assert ts.endpoints[t, i].tobytes() == pts.tobytes()
        assert ts.radius[t].tobytes() == np.float64(radius).tobytes()
    return ts


@pytest.mark.parametrize("budget", [5, 1000])
def test_budgets(budget):
    ts = assert_same_build(delay_plant(), N=0, budget=budget)
    assert ts.truncated == (budget == 5)


def test_three_knot_tubes():
    ts = assert_same_build(delay_plant(), N=1, budget=1000)
    assert ts.knots.shape[1] == 3


def test_zoomed_knots_with_small_boxes():
    sys = delay_plant()
    ts = assert_same_build(sys, zoomed(sys), N=1, lipschitz=1.0,
                           growth_scale=0.25, budget=60)
    # subcell ids follow the base cells' ids
    assert (ts.knots >= ts.partition.zoom[0].first_id).any()
    fan_out = np.diff(ts.indptr)
    assert 0 < fan_out[fan_out > 0].min() < len(ts.ids)


def test_plant_without_delay_window():
    sys = delay_plant(["x2", "-1.96*sin(x1) - 1.5*x2 + u1"], Theta=0.0)
    assert_same_build(sys, N=0, budget=1000)


def test_blocked_level():
    # every trajectory leaves X, so the initial tube's pairs are all blocked
    sys = delay_plant(["x2", "20 + u1 + 0.1*delay(x2, 0.2)"])
    ts = assert_same_build(sys, N=0, budget=1000)
    assert (len(ts.ids), ts.n_transitions) == (1, 0)


# ---------------------------------------------------------------------------
# errors raised in the order of the one-tube-at-a-time loop

# sqrt(0.6 - x2) fails once a trajectory passes x2 = 0.6, which only the
# tubes found under the largest inputs do; they come late in their level,
# after tubes of the same level that exhaust a budget of 3 to 5
FAILING_RHS = ["x2", "-x1 - x2 + 0.1*delay(x2, 0.2) + u1 + 0.1*sqrt(0.6 - x2)"]


def outcome(build, x0=(0.0, 0.0), **kw):
    try:
        ts = build(delay_plant(FAILING_RHS, x0=x0), 0.2, LOGP, lipschitz=6.0, **kw)
    except (IntegrationError, RuntimeError) as err:
        return type(err), str(err)
    return None, serialize_ts(ts)


def test_failing_initial_tube():
    got = outcome(build_timedelay, N=0, budget=1000, x0=(0.72, 0.72))
    assert got[0] is IntegrationError
    assert got == outcome(reference_build, N=0, budget=1000, x0=(0.72, 0.72))


def test_failing_level_raises_the_integration_error():
    got = outcome(build_timedelay, N=0, budget=1000)
    assert got[0] is IntegrationError
    assert got == outcome(reference_build, N=0, budget=1000)


@pytest.mark.parametrize("budget", range(2, 8))
def test_budget_error_of_an_earlier_tube_comes_first(budget):
    # a budget cut before the failing tubes are found truncates the model;
    # a larger one raises their integration error, as the loop does
    want = outcome(reference_build, N=0, budget=budget)
    assert outcome(build_timedelay, N=0, budget=budget) == want


# ---------------------------------------------------------------------------
# locate_batch


def partitions():
    plain = Partition([-1, -1], [1, 1], LOGP)
    zoomed = plain.refined({12: ZoomQuantizerParams(1, 1.0, 0.3),
                            0: ZoomQuantizerParams(10, 1.0, 0.1),
                            7: ZoomQuantizerParams(3, 1.0, 0.07)})
    eq2 = Partition([-1, 0], [1, 2], LogQuantizerParams(0.15, 0.1, "EQ2"))
    return [plain, zoomed, eq2]


def assert_locates_like_locate(part, X, walk):
    X = np.asarray(X, dtype=float)
    got = part.locate_batch(X)
    assert got.shape == (len(X),)
    assert got.tolist() == [part.locate(x) for x in X]
    assert got.tolist() == [walk(part, x) for x in X.tolist()]


@pytest.mark.parametrize("part", partitions())
def test_locate_batch_on_corners_and_face_midpoints(part, walked_locate):
    pts = []
    for lower, upper in zip(*part.cell_arrays(part.ids)[:2]):
        axes = [(lo, 0.5 * (lo + hi), hi) for lo, hi in zip(lower, upper)]
        pts.extend(np.array(np.meshgrid(*axes)).reshape(part.n, -1).T)
    assert_locates_like_locate(part, pts, walked_locate)


def test_locate_batch_on_zoom_bin_edges(walked_locate):
    plain, part = partitions()[:2]
    pts = []
    for bid, z in part.zoom.items():
        w = z.params.width
        lower, upper = plain.cell_arrays(bid)[:2]  # retired in part
        for i in range(part.n):
            # every bin index whose edges can fall in the record's extent
            for k in range(math.floor(z.lowers[i][0] / w) - 1,
                           math.ceil(z.uppers[i][-1] / w) + 2):
                for edge in ((k - 0.5) * w, (k + 0.5) * w):
                    for e in (np.nextafter(edge, -1), edge, np.nextafter(edge, 1)):
                        if lower[i] <= e <= upper[i]:
                            x = 0.5 * (lower + upper)
                            x[i] = e
                            pts.append(x)
    assert len(pts) > 100
    assert_locates_like_locate(part, pts, walked_locate)


def test_locate_batch_with_every_cell_refined(monkeypatch, walked_locate):
    plain = partitions()[0]
    part = plain.refined({bid: ZoomQuantizerParams(1 + bid % 4, 1.0, 0.05 + 0.02 * (bid % 3))
                          for bid in range(25)})
    assert len(part.zoom) == 25 and part.ids[0] == 25
    rng = np.random.default_rng(11)
    pts = list(rng.uniform(-1.0, 1.0, size=(3000, 2)))
    for lower, upper in zip(*part.cell_arrays(part.ids)[:2]):
        axes = [(lo, 0.5 * (lo + hi), hi) for lo, hi in zip(lower, upper)]
        pts.extend(np.array(np.meshgrid(*axes)).reshape(part.n, -1).T)
    X = np.array(pts)
    assert_locates_like_locate(part, X, walked_locate)
    lo, hi = part.cell_arrays(part.locate_batch(X))[:2]
    assert ((lo <= X) & (X <= hi)).all()
    # the records of cells that no row reaches are not asked
    asked = []
    grid_locate_batch = quantizers._Grid.locate_batch
    monkeypatch.setattr(quantizers._Grid, "locate_batch",
                        lambda g, Y: asked.append(g.first_id) or grid_locate_batch(g, Y))
    part.locate_batch(np.array([[0.0, 0.0], [0.05, 0.0], [-0.95, -0.95], [0.0, 0.01]]))
    assert asked == [0, part.zoom[0].first_id, part.zoom[12].first_id]


@pytest.mark.parametrize("part", partitions())
def test_locate_batch_on_random_points(part, walked_locate):
    rng = np.random.default_rng(7)
    assert_locates_like_locate(part, rng.uniform(part.box_lo, part.box_hi,
                                                 size=(3000, part.n)), walked_locate)


def test_locate_batch_raises_for_the_first_row_outside():
    part = partitions()[1]
    X = np.array([[0.0, 0.0], [0.5, 1.5], [-2.0, 0.0]])
    with pytest.raises(ValueError) as want:
        part.locate(X[1])
    with pytest.raises(ValueError) as got:
        part.locate_batch(X)
    assert str(got.value) == str(want.value)
    # NaN lies outside every axis, like +-inf, in a plain or a zoomed cell
    nan, inf = math.nan, math.inf
    for p in partitions()[:2]:
        for bad in ([nan, 0.0], [0.0, nan], [nan, nan], [inf, 0.0],
                    [0.0, -inf], [-0.95, nan], [nan, -0.95]):
            with pytest.raises(ValueError, match="outside axis range") as want:
                p.locate(bad)
            with pytest.raises(ValueError) as got:
                p.locate_batch([[0.0, 0.0], bad, [-2.0, 0.0]])
            assert str(got.value) == str(want.value)
    assert part.locate_batch(np.zeros((0, 2))).shape == (0,)
    with pytest.raises(ValueError):
        part.locate_batch(np.zeros(2))


# ---------------------------------------------------------------------------
# the tube witness


def reference_witness(sys, ts, n_samples, seed, lipschitz=6.0):
    """sample_frr_timedelay with the per-sample loops: each sample reads
    its row of frr._draws (the tube, the input, then the J x n jitter) and
    takes knot widths, jitter and clamping one knot at a time, then one
    Partition.locate and one closed-box test per knot; the integrations
    stay batched.  The tube radius comes from lipschitz, as in
    reference_build."""
    ctx, part = ts._ctx, ts.partition
    amp = 2.0 * math.exp(float(lipschitz) * ctx.tau) * ctx.growth_scale
    thetas = ctx.knot_thetas
    n = sys.n
    draws = frr._draws(seed, n_samples, 2 + ts.knots.shape[1] * n)
    drawn, skipped = [], 0
    for row in draws:
        sid = int(row[0] * len(ts.ids))
        tube = ts.knots[sid].tolist()  # tube ids are positions
        enabled = ts.enabled(sid)
        if not enabled:
            skipped += 1
            continue
        iid = enabled[int(row[1] * len(enabled))]
        bounds = knot_widths(tube, part)
        pts = []
        for j, k in enumerate(tube):
            lower, upper, q, _ = part.cell_arrays(k)
            u = row[2 + j * n:2 + (j + 1) * n]
            y = q + (-bounds[j] + 2 * bounds[j] * u)
            width = upper - lower
            pts.append(np.minimum(np.maximum(y, lower + _EDGE * width),
                                  upper - _EDGE * width))
        drawn.append((sid, iid, np.array(pts)))

    def knot_points(H, iids):
        U = np.array([ts.inputs[i] for i in iids]).T
        return interpolate_batch(integrate_delay_batch(sys, H, U, ctx.tau, ctx.steps),
                                 sys.Theta, thetas)

    P = np.stack([pts for _, _, pts in drawn], axis=2)
    samples = knot_points(P if sys.Theta > 0 else P[-1:], [i for _, i, _ in drawn])
    H = np.stack([quantized_functional(ts.knots[sid], part, sys.Theta)
                  for sid, _, _ in drawn], axis=2)
    nominal = knot_points(H, [i for _, i, _ in drawn])
    violations, checked = [], 0
    for j, (sid, iid, pts) in enumerate(drawn):
        sample, nom = samples[:, :, j], nominal[:, :, j]
        if np.any(sample < sys.state_lo) or np.any(sample > sys.state_hi):
            skipped += 1
            continue
        radius = max(knot_widths(ts.knots[sid], part)) * amp
        checked += 1
        got = []
        for kj in range(len(thetas)):
            cid = part.locate(sample[kj])
            lower, upper = part.cell_arrays(cid)[:2]
            got.append(cid)
            if not (np.all(lower <= nom[kj] + radius) and np.all(nom[kj] - radius <= upper)):
                violations.append(Violation(pts, ts.inputs[iid], sample, sid,
                                            tuple(got), ts.successors(sid, iid),
                                            detail=f"knot {kj} outside the growth box"))
                break
    return FrrReport(n_samples, checked, skipped, violations, seed)


@pytest.mark.parametrize("N, growth_scale, zoom, Theta", [
    (0, 1.0, None, 0.2),
    (0, 0.0, None, 0.2),
    (1, 0.0, ZOOM, 0.2),
    (1, 0.3, ZOOM, 0.2),
    (0, 0.0, None, 0.0),
])
def test_witness_text_matches_the_per_sample_loop(N, growth_scale, zoom, Theta):
    rhs = DELAY_RHS if Theta else ["x2", "-1.96*sin(x1) - 1.5*x2 + u1"]
    sys = delay_plant(rhs, Theta=Theta)
    ts = build_timedelay(sys, 0.2, zoomed(sys, zoom) if zoom else LOGP, N=N,
                         lipschitz=6.0, growth_scale=growth_scale, budget=200)
    for seed in (1, 2):
        rep = sample_frr_timedelay(ts, 300, seed)
        assert rep.as_text() == reference_witness(sys, ts, 300, seed).as_text()
        assert rep.passed == (growth_scale > 0)


def test_witness_integrates_only_the_samples(monkeypatch):
    # the nominal knot points come from ts.endpoints, not a second batch
    sys = delay_plant()
    ts = build_timedelay(sys, 0.2, LOGP, N=1, lipschitz=6.0, budget=200)
    calls, real = [], frr.tube_knot_points
    monkeypatch.setattr(frr, "tube_knot_points",
                        lambda *a: calls.append(a) or real(*a))
    rep = sample_frr_timedelay(ts, 300, 1)
    assert len(calls) == 1
    assert rep.passed and rep.checked > 0
