import itertools
import math

import numpy as np
import pytest

from symquant.quantizers import (LogQuantizerParams, Partition,
                                 ZoomQuantizerParams, _axis_regions, _zoom_axes,
                                 log_quantize, zoom_quantize)

P6 = LogQuantizerParams(0.2, 0.4, "EQ20")  # deadzone 0.4, first level 0.48


# ---------------------------------------------------------------------------
# scalar logarithmic quantizer


def test_deadzone_and_first_levels():
    assert log_quantize(0.0, P6) == 0.0
    assert log_quantize(0.39, P6) == 0.0
    assert log_quantize(0.4, P6) == 0.0          # boundary belongs to zero
    assert log_quantize(0.41, P6) == pytest.approx(0.48)
    assert log_quantize(0.6, P6) == pytest.approx(0.48)   # tie -> smaller level
    assert log_quantize(0.61, P6) == pytest.approx(0.72)
    assert log_quantize(-0.5, P6) == pytest.approx(-0.48)


def test_eq2_variant_level_placement():
    p = LogQuantizerParams(0.2, 0.48, "EQ2")  # first level d, deadzone d/(1+eta)
    assert p.deadzone == pytest.approx(0.4)
    assert p.first_level == pytest.approx(0.48)
    assert log_quantize(0.5, p) == pytest.approx(0.48)


def test_levels_form_geometric_sequence():
    ratio = (1 + 0.2) / (1 - 0.2)
    q1 = log_quantize(0.5, P6)
    q2 = log_quantize(0.65, P6)
    assert q2 / q1 == pytest.approx(ratio)


@pytest.mark.parametrize("variant", ["EQ2", "EQ20"])
def test_sector_bound_100k_samples(variant):
    # |z - Q(z)| <= eta |z| outside the deadzone; inside it |z| itself is
    # below the deadzone edge so the bound still holds with Q(z) = 0 only
    # when eta*|z| >= |z|... it does not, so restrict to the quantizer range.
    p = LogQuantizerParams(0.2, 0.4, variant)
    rng = np.random.default_rng(8)
    z = rng.uniform(-50.0, 50.0, size=100_000)
    z = z[np.abs(z) > p.deadzone]
    err = np.array([abs(v - log_quantize(v, p)) for v in z])
    assert np.all(err <= p.eta * np.abs(z) + 1e-12)


def test_sector_bound_odd_symmetry():
    rng = np.random.default_rng(9)
    for v in rng.uniform(0.01, 30.0, size=200):
        assert log_quantize(-v, P6) == -log_quantize(v, P6)


# ---------------------------------------------------------------------------
# the worked 2-d lattice: eta=0.2, a=0.4 on [-1,1]^2


def _contains(part, cid, x):
    """Whether the closed cell cid of part holds the point x."""
    lo, hi = part.cell_arrays(cid)[:2]
    return bool(np.all(lo <= x) and np.all(x <= hi))


def test_lattice_axis_cells():
    part = Partition([-1.0], [1.0], P6)
    assert len(part.ids) == 5
    lo, hi, q, _ = part.cell_arrays(part.ids)
    bounds = list(zip(lo[:, 0].tolist(), hi[:, 0].tolist()))
    assert bounds == [(-1.0, -0.6), (-0.6, -0.4), (-0.4, 0.4), (0.4, 0.6), (0.6, 1.0)]
    assert q[:, 0] == pytest.approx([-0.72, -0.48, 0.0, 0.48, 0.72])


def test_lattice_25_cells_row_major():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    assert part.ids.tolist() == list(range(25))
    q = part.cell_arrays(part.ids)[2]
    # row-major: second axis varies fastest
    assert q[0] == pytest.approx([-0.72, -0.72])
    assert q[1] == pytest.approx([-0.72, -0.48])
    assert q[5] == pytest.approx([-0.48, -0.72])
    assert q[12] == pytest.approx([0.0, 0.0])


def test_boundary_slivers_merge_into_outer_cells():
    # [-1, 1] cuts through the (0.6, 0.9] region of level 0.72; the sliver
    # [0.6, 1.0] keeps the 0.72 point and the box edge
    part = Partition([-1.0], [1.0], P6)
    _, upper, q, _ = part.cell_arrays(part.ids[-1])
    assert upper[0] == 1.0
    assert q[0] == pytest.approx(0.72)


def test_tile_boundaries_are_shared_floats():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    lo, hi = part.cell_arrays(part.ids)[:2]
    uppers = sorted(set(hi[:, 0].tolist()))
    lowers = sorted(set(lo[:, 0].tolist()))
    assert uppers[:-1] == lowers[1:]  # interior boundaries appear in both


def test_cover_exactness_monte_carlo_100k():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(100_000, 2))
    lows, ups = part.cell_arrays(part.ids)[:2]
    # strict-interior membership count per point
    inside = np.logical_and(pts[:, None, :] > lows[None, :, :],
                            pts[:, None, :] < ups[None, :, :]).all(axis=2)
    counts = inside.sum(axis=1)
    on_grid = np.zeros(len(pts), dtype=bool)
    edges = sorted(set(lows[:, 0].tolist() + ups[:, 0].tolist()))
    for e in edges:
        on_grid |= (pts == e).any(axis=1)
    assert np.all(counts[~on_grid] == 1)
    assert np.all(counts <= 1)


def test_locate_is_total_and_deterministic_on_boundaries():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    q = lambda x: part.cell_arrays(part.locate(x))[2][0]
    # boundary points resolve toward the smaller |level|
    assert q([0.4, 0.0]) == 0.0
    assert q([-0.4, 0.0]) == 0.0
    assert q([0.6, 0.0]) == pytest.approx(0.48)
    assert q([-0.6, 0.0]) == pytest.approx(-0.48)
    assert q([1.0, 1.0]) == pytest.approx(0.72)
    rng = np.random.default_rng(12)
    for x in rng.uniform(-1, 1, size=(500, 2)):
        assert _contains(part, part.locate(x), x)


def test_locate_rejects_points_outside_the_box():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    with pytest.raises(ValueError):
        part.locate([1.5, 0.0])


# ---------------------------------------------------------------------------
# zoom quantizer


def test_zoom_quantize_bins():
    p = ZoomQuantizerParams(10, 1.0, 0.1)
    assert zoom_quantize(0.0, p) == 0.0
    assert zoom_quantize(0.04, p) == 0.0
    assert zoom_quantize(0.05, p) == pytest.approx(0.1)   # left-closed bins
    assert zoom_quantize(-0.05, p) == pytest.approx(0.0)
    assert zoom_quantize(0.51, p) == pytest.approx(0.5)
    assert zoom_quantize(7.7, p) == pytest.approx(1.0)    # clamp at M*Lambda*delta


def test_zoom_quantize_rejects_delta_zero():
    p = ZoomQuantizerParams(10, 1.0, 0.0)
    with pytest.raises(ValueError):
        zoom_quantize(0.3, p)


def test_zoom_bounds_100k_samples():
    # error bound within range, saturation outside (the range/error bound
    # conditions of the dynamic quantizer)
    p = ZoomQuantizerParams(5, 2.0, 0.05)  # width 0.1, range 0.5
    w, rng_edge = p.width, p.M * p.width
    rng = np.random.default_rng(13)
    z = rng.uniform(-3 * rng_edge, 3 * rng_edge, size=100_000)
    q = np.array([zoom_quantize(v, p) for v in z])
    inside = np.abs(z) <= rng_edge + 0.5 * w
    assert np.all(np.abs(q[inside] - z[inside]) <= w + 1e-12)
    assert np.all(np.abs(q) <= rng_edge + 1e-12)
    far = np.abs(z) > rng_edge + 0.5 * w
    assert np.all(np.abs(q[far]) == pytest.approx(rng_edge))


def test_zoom_lattice_counts_for_worked_cells():
    # the paper's worked cells: the corner [-1, -0.6]^2 under delta = 0.1
    # and the deadzone [-0.4, 0.4]^2 under delta = 0.3
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    assert part.refined({0: ZoomQuantizerParams(10, 1.0, 0.1)}).zoom[0].count == 25
    assert part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)}).zoom[12].count == 9


def test_zoom_lattice_tiles_the_parent_exactly():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({0: ZoomQuantizerParams(10, 1.0, 0.1)})
    subs = list(range(25, 50))  # fresh ids after the 25 base cells
    assert ref.ids.tolist() == list(range(1, 50))
    lo, hi = ref.cell_arrays(subs)[:2]
    assert lo[:, 0].min() == -1.0 and hi[:, 0].max() == -0.6  # outermost extended to edges
    # interior points land in exactly one subcell
    rng = np.random.default_rng(14)
    for x in rng.uniform([-1, -1], [-0.6, -0.6], size=(300, 2)):
        assert np.all((lo < x) & (x < hi), axis=1).sum() <= 1
        assert np.all((lo <= x) & (x <= hi), axis=1).sum() >= 1


def test_zoom_lattice_delta_zero_is_identity():
    part = Partition([-1.0], [1.0], P6)
    ref = part.refined({2: ZoomQuantizerParams(1, 1.0, 0.0)})
    assert not ref.zoom
    assert ref.ids.tolist() == part.ids.tolist()
    assert ref.cell_arrays(2)[0].tolist() == [-0.4]
    assert ref.cell_arrays(2)[1].tolist() == [0.4]


def test_zoom_points_lie_on_the_delta_grid():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    q = ref.cell_arrays(range(25, 34))[2]
    assert sorted(set(q[:, 0].tolist())) == pytest.approx([-0.3, 0.0, 0.3])


# ---------------------------------------------------------------------------
# partitions with refinement


def test_partition_refined_replaces_cell_with_subcells():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    assert len(ref.ids) == 33
    assert 12 not in ref.ids.tolist()
    assert ref.ids[-1] == 33  # fresh ids appended after the original range


def test_partition_refined_rejects_subcell_ids():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    with pytest.raises(ValueError):
        ref.refined({26: ZoomQuantizerParams(1, 1.0, 0.1)})


@pytest.mark.parametrize("cids,message", [
    ((12,), "cell 12 is already zoom-refined"),
    ((25,), "cell 25 is a zoom subcell; refine base cells only"),
    ((33,), "cell 33 is a zoom subcell; refine base cells only"),
    ((34,), "unknown cell id 34"),
    ((-1,), "unknown cell id -1"),
    # 35 would be a subcell of cell 13 refined in the same call (34..36),
    # but it names no cell of the partition being refined
    ((13, 35), "unknown cell id 35"),
])
def test_refined_refuses_refined_subcell_and_unknown_ids(cids, message):
    ref = Partition([-1.0, -1.0], [1.0, 1.0], P6).refined(
        {12: ZoomQuantizerParams(1, 1.0, 0.3)})
    with pytest.raises(ValueError, match=f"^{message}$"):
        ref.refined(dict.fromkeys(cids, ZoomQuantizerParams(1, 1.0, 0.1)))


def test_refined_locate_picks_subcells():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    lower, upper, q, _ = ref.cell_arrays(ref.locate([0.0, 0.0]))
    assert q == pytest.approx([0.0, 0.0])
    assert upper[0] - lower[0] == pytest.approx(0.3)
    # outside the refined cell nothing changed
    assert ref.locate([-0.72, -0.72]) == 0


def test_refined_partition_shares_the_unrefined_lattice():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    assert ref.grid is part.grid
    again = ref.refined({0: ZoomQuantizerParams(10, 1.0, 0.1)})
    assert again.grid is part.grid and again.zoom[12] is ref.zoom[12]
    kept = [k for k in range(25) if k != 12]
    assert np.array_equal(ref.cell_arrays(kept), part.cell_arrays(kept))


def _answers(part, rng):
    """cells, locate, locate_batch and intersecting of part on fixed
    random points and boxes."""
    pts = rng.uniform(-1.0, 1.0, size=(500, 2))
    boxes = np.sort(rng.uniform(-1.0, 1.0, size=(100, 2, 2)), axis=1)
    return (part.ids.tolist(), np.array(part.cell_arrays(part.ids)[:2]).tolist(),
            [part.locate(x) for x in pts], part.locate_batch(pts).tolist(),
            [part.intersecting(lo, hi) for lo, hi in boxes])


def test_refining_leaves_the_parent_unchanged():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    before = _answers(part, np.random.default_rng(3))
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    ref_before = _answers(ref, np.random.default_rng(3))
    again = ref.refined({0: ZoomQuantizerParams(10, 1.0, 0.1)})
    assert _answers(part, np.random.default_rng(3)) == before
    assert _answers(ref, np.random.default_rng(3)) == ref_before
    assert _answers(again, np.random.default_rng(3)) != ref_before
    assert len(part.ids) == 25 and not part.zoom and list(ref.zoom) == [12]


def test_refined_cover_remains_exact():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({0: ZoomQuantizerParams(10, 1.0, 0.1),
                        12: ZoomQuantizerParams(1, 1.0, 0.3)})
    rng = np.random.default_rng(15)
    pts = rng.uniform(-1.0, 1.0, size=(20_000, 2))
    for x in pts:
        assert _contains(ref, ref.locate(x), x)


def test_intersecting_reports_all_touched_cells():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    got = part.intersecting(np.array([-0.1, -0.1]), np.array([0.1, 0.1]))
    assert got == [12]
    got = part.intersecting(np.array([0.35, 0.0]), np.array([0.45, 0.0]))
    assert got == [12, 17]  # box crosses the 0.4 boundary
    everything = part.intersecting(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert everything == list(range(25))


@pytest.mark.parametrize("box,params,zoom", [
    # cell 12 ([-0.4, 0.4]^2) saturates at |k| = M = 1 beyond 0.3, and
    # cell 17 keeps one saturated subcell
    ((-1.0, 1.0), P6, {0: ZoomQuantizerParams(10, 1.0, 0.1),
                       12: ZoomQuantizerParams(1, 1.0, 0.2),
                       17: ZoomQuantizerParams(2, 1.0, 0.05)}),
    # 3-D, per-axis parameters; cell 100 keeps one saturated subcell
    ((-0.9, 1.3), [P6, LogQuantizerParams(0.3, 0.2, "EQ2"),
                   LogQuantizerParams(0.25, 0.5, "EQ20")],
     {37: ZoomQuantizerParams(3, 1.0, 0.1), 100: ZoomQuantizerParams(2, 1.0, 0.15),
      191: ZoomQuantizerParams(20, 1.0, 0.12)}),
])
def test_locate_in_a_zoomed_cell_is_zoom_quantize(box, params, zoom):
    """On, and one ulp either side of, every zoom bin edge (k +- 0.5)w in a
    refined cell, the quantized point of locate's subcell is zoom_quantize
    of the point, clamped on each axis to the record's first and last
    retained levels."""
    n = 2 if isinstance(params, LogQuantizerParams) else len(params)
    plain = Partition([box[0]] * n, [box[1]] * n, params)
    part = plain.refined(zoom)
    rng = np.random.default_rng(5)
    checked, saturated = 0, 0
    for bid, p in zoom.items():
        z, w = part.zoom[bid], p.width
        lower, upper = plain.cell_arrays(bid)[:2]
        levels = part.cell_arrays(np.arange(z.first_id, z.first_id + z.count))[2]
        first, last = levels.min(axis=0).tolist(), levels.max(axis=0).tolist()
        per_axis = []
        for lo, hi in zip(lower.tolist(), upper.tolist()):
            edges = [(k + 0.5) * w for k in range(math.floor(lo / w) - 1, math.ceil(hi / w) + 1)]
            per_axis.append([0.5 * (lo + hi)] + [
                e for edge in edges
                for e in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))
                if lo <= e <= hi])
        # each edge point with the cell's midpoint on the other axes, then
        # random mixes of edge points
        pts = []
        for i, vals in enumerate(per_axis):
            for v in vals:
                x = 0.5 * (lower + upper)
                x[i] = v
                pts.append(x)
        pts += [np.array([rng.choice(vals) for vals in per_axis]) for _ in range(300)]
        for x in pts:
            if plain.locate(x) != bid:
                continue  # on a face that the lattice gives a neighbour
            cid = part.locate(x)
            assert z.first_id <= cid < z.first_id + z.count
            want = [min(max(zoom_quantize(v, p), a), b)
                    for v, a, b in zip(x.tolist(), first, last)]
            assert part.cell_arrays(cid)[2].tolist() == want, (bid, x)
            checked += 1
            saturated += any(abs(zoom_quantize(v, p)) == p.M * w for v in x.tolist())
    assert checked > 900 and saturated > 500


def _reference_cells(lo, hi, params, zoom):
    """{id: (lower, upper, quantized point, knot half-width)} of the
    partition of the box [lo, hi] with the given zoom rows, one cell at a
    time: base cell k is the product of the per-axis regions
    (_axis_regions) at its row-major index (last axis fastest), with half
    its extent as half-width; a refined base cell's id is retired, and its
    subcells, the product of its per-axis zoom bins (_zoom_axes), take ids
    from the next free id in base id order, with the bin width as
    half-width."""
    axes = [_axis_regions(a, b, p) for a, b, p in zip(lo, hi, params)]
    cells = {}
    for k, regions in enumerate(itertools.product(*axes)):
        lower = [r.lower for r in regions]
        upper = [r.upper for r in regions]
        cells[k] = (lower, upper, [r.level for r in regions],
                    [(b - a) / 2.0 for a, b in zip(lower, upper)])
    next_id = len(cells)
    for bid in sorted(zoom):
        p = zoom[bid]
        if p.delta == 0.0:
            continue
        lower, upper = cells.pop(bid)[:2]
        for bins in itertools.product(*_zoom_axes(lower, upper, p)):
            cells[next_id] = ([r.lower for r in bins], [r.upper for r in bins],
                              [r.level for r in bins], [p.width] * len(bins))
            next_id += 1
    return cells, next_id


@pytest.mark.parametrize("box,params,zoom", [
    ((-1.0, 1.0), P6, {0: ZoomQuantizerParams(10, 1.0, 0.1),
                       12: ZoomQuantizerParams(1, 1.0, 0.3),
                       17: ZoomQuantizerParams(2, 1.0, 0.05)}),
    # 3-D, per-axis parameters; cell 100 keeps one saturated subcell
    ((-0.9, 1.3), [P6, LogQuantizerParams(0.3, 0.2, "EQ2"),
                   LogQuantizerParams(0.25, 0.5, "EQ20")],
     {37: ZoomQuantizerParams(3, 1.0, 0.1), 100: ZoomQuantizerParams(2, 1.0, 0.15),
      191: ZoomQuantizerParams(20, 1.0, 0.12)}),
])
def test_intersecting_equals_a_brute_force_scan(box, params, zoom):
    n = 2 if isinstance(params, LogQuantizerParams) else len(params)
    part = Partition([box[0]] * n, [box[1]] * n, params).refined(zoom)
    assert len(part.zoom) == len(zoom)
    axis_params = [params] * n if isinstance(params, LogQuantizerParams) else params
    cells, n_ids = _reference_cells([box[0]] * n, [box[1]] * n, axis_params, zoom)
    # the cell table equals the reference cell by cell: bounds, quantized
    # point and knot half-width, and NaN on every retired id
    assert part.ids.tolist() == sorted(cells)
    lo, hi, q, half = part.cell_arrays(np.arange(n_ids))
    for cid in range(n_ids):
        want = cells.get(cid, ([np.nan] * n,) * 4)
        np.testing.assert_array_equal([lo[cid], hi[cid], q[cid], half[cid]], want)
    base = _reference_cells([box[0]] * n, [box[1]] * n, axis_params, {})[0]
    new = part.ids[part.ids >= len(base)]
    for bid, z in part.zoom.items():
        base_lo, base_hi = base[bid][:2]
        # each axis's bins tile the base cell's extent on that axis, with no
        # gap or overlap, and their product is the record's count
        axes = _zoom_axes(base_lo, base_hi, z.params)
        for i, bins in enumerate(axes):
            assert bins[0].lower == base_lo[i] and bins[-1].upper == base_hi[i]
            assert all(prev.upper == nxt.lower for prev, nxt in zip(bins, bins[1:]))
        assert int(np.prod([len(bins) for bins in axes])) == z.count
        # the table's new rows inside the base cell are the record's ids (a
        # subcell has positive extent, so it cannot lie in a neighbour's
        # shared face)
        inside = ((np.array(base_lo) <= lo[new]) & (hi[new] <= np.array(base_hi))).all(axis=1)
        assert new[inside].tolist() == list(range(z.first_id, z.first_id + z.count))
    # intersecting equals a closed-box scan over the reference cells
    rng = np.random.default_rng(21)
    faces = np.array([c[0] for c in cells.values()] + [c[1] for c in cells.values()])
    boxes = []
    for _ in range(150):
        center = rng.uniform(box[0] - 0.2, box[1] + 0.2, n)
        radius = rng.uniform(0.0, 0.3, n)
        boxes.append((center - radius, center + radius))
    for _ in range(150):
        # faces that touch cell faces exactly, as degenerate and wide boxes
        lo = faces[rng.integers(len(faces))]
        hi = faces[rng.integers(len(faces))]
        boxes.append((lo, lo))
        boxes.append((np.minimum(lo, hi), np.maximum(lo, hi)))
    for lo, hi in boxes:
        want = [cid for cid, (a, b, _, _) in cells.items()
                if np.all(np.array(a) <= hi) and np.all(lo <= np.array(b))]
        assert part.intersecting(lo, hi) == want, (lo, hi)
    assert part.intersecting([np.nan] * n, [box[1]] * n) == []
