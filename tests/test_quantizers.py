import numpy as np
import pytest

from symquant.quantizers import (Cell, LogQuantizerParams, Partition,
                                 ZoomQuantizerParams, log_quantize,
                                 zoom_lattice, zoom_quantize)

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


def test_lattice_axis_cells():
    cells = Partition([-1.0], [1.0], P6).cells
    assert len(cells) == 5
    bounds = [(c.lower[0], c.upper[0]) for c in cells]
    assert bounds == [(-1.0, -0.6), (-0.6, -0.4), (-0.4, 0.4), (0.4, 0.6), (0.6, 1.0)]
    points = [c.quantized_point[0] for c in cells]
    assert points == pytest.approx([-0.72, -0.48, 0.0, 0.48, 0.72])


def test_lattice_25_cells_row_major():
    cells = Partition([-1.0, -1.0], [1.0, 1.0], P6).cells
    assert len(cells) == 25
    assert [c.id for c in cells] == list(range(25))
    # row-major: second axis varies fastest
    assert cells[0].quantized_point == pytest.approx([-0.72, -0.72])
    assert cells[1].quantized_point == pytest.approx([-0.72, -0.48])
    assert cells[5].quantized_point == pytest.approx([-0.48, -0.72])
    assert cells[12].quantized_point == pytest.approx([0.0, 0.0])


def test_boundary_slivers_merge_into_outer_cells():
    # [-1, 1] cuts through the (0.6, 0.9] region of level 0.72; the sliver
    # [0.6, 1.0] keeps the 0.72 point and the box edge
    cells = Partition([-1.0], [1.0], P6).cells
    outer = cells[-1]
    assert outer.upper[0] == 1.0
    assert outer.quantized_point[0] == pytest.approx(0.72)


def test_tile_boundaries_are_shared_floats():
    cells = Partition([-1.0, -1.0], [1.0, 1.0], P6).cells
    uppers = sorted({float(c.upper[0]) for c in cells})
    lowers = sorted({float(c.lower[0]) for c in cells})
    assert uppers[:-1] == lowers[1:]  # interior boundaries appear in both


def test_cover_exactness_monte_carlo_100k():
    cells = Partition([-1.0, -1.0], [1.0, 1.0], P6).cells
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(100_000, 2))
    lows = np.array([c.lower for c in cells])
    ups = np.array([c.upper for c in cells])
    # strict-interior membership count per point
    inside = np.logical_and(pts[:, None, :] > lows[None, :, :],
                            pts[:, None, :] < ups[None, :, :]).all(axis=2)
    counts = inside.sum(axis=1)
    on_grid = np.zeros(len(pts), dtype=bool)
    edges = sorted({float(v) for c in cells for v in (c.lower[0], c.upper[0])})
    for e in edges:
        on_grid |= (pts == e).any(axis=1)
    assert np.all(counts[~on_grid] == 1)
    assert np.all(counts <= 1)


def test_locate_is_total_and_deterministic_on_boundaries():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    # boundary points resolve toward the smaller |level|
    assert part.cell(part.locate([0.4, 0.0])).quantized_point[0] == 0.0
    assert part.cell(part.locate([-0.4, 0.0])).quantized_point[0] == 0.0
    assert part.cell(part.locate([0.6, 0.0])).quantized_point[0] == pytest.approx(0.48)
    assert part.cell(part.locate([-0.6, 0.0])).quantized_point[0] == pytest.approx(-0.48)
    assert part.cell(part.locate([1.0, 1.0])).quantized_point[0] == pytest.approx(0.72)
    rng = np.random.default_rng(12)
    for x in rng.uniform(-1, 1, size=(500, 2)):
        cid = part.locate(x)
        assert part.cell(cid).contains(x)


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
    corner = Cell(0, np.array([-1.0, -1.0]), np.array([-0.6, -0.6]),
                  np.array([-0.72, -0.72]))
    center = Cell(12, np.array([-0.4, -0.4]), np.array([0.4, 0.4]),
                  np.array([0.0, 0.0]))
    assert len(zoom_lattice(corner, ZoomQuantizerParams(10, 1.0, 0.1))) == 25
    assert len(zoom_lattice(center, ZoomQuantizerParams(1, 1.0, 0.3))) == 9


def test_zoom_lattice_tiles_the_parent_exactly():
    parent = Cell(0, np.array([-1.0, -1.0]), np.array([-0.6, -0.6]),
                  np.array([-0.72, -0.72]))
    subs = zoom_lattice(parent, ZoomQuantizerParams(10, 1.0, 0.1), start_id=50)
    assert [c.id for c in subs] == list(range(50, 75))
    los = sorted({float(c.lower[0]) for c in subs})
    his = sorted({float(c.upper[0]) for c in subs})
    assert los[0] == -1.0 and his[-1] == -0.6  # outermost extended to edges
    # interior points land in exactly one subcell
    rng = np.random.default_rng(14)
    for x in rng.uniform([-1, -1], [-0.6, -0.6], size=(300, 2)):
        hits = [c for c in subs if np.all(c.lower < x) and np.all(x < c.upper)]
        assert len(hits) <= 1
        hits_closed = [c for c in subs if c.contains(x)]
        assert len(hits_closed) >= 1


def test_zoom_lattice_delta_zero_is_identity():
    parent = Cell(3, np.array([-0.4]), np.array([0.4]), np.array([0.0]))
    subs = zoom_lattice(parent, ZoomQuantizerParams(1, 1.0, 0.0))
    assert len(subs) == 1
    assert subs[0].lower[0] == parent.lower[0]
    assert subs[0].upper[0] == parent.upper[0]


def test_zoom_points_lie_on_the_delta_grid():
    parent = Cell(12, np.array([-0.4, -0.4]), np.array([0.4, 0.4]),
                  np.array([0.0, 0.0]))
    subs = zoom_lattice(parent, ZoomQuantizerParams(1, 1.0, 0.3))
    pts = sorted({float(c.quantized_point[0]) for c in subs})
    assert pts == pytest.approx([-0.3, 0.0, 0.3])


# ---------------------------------------------------------------------------
# partitions with refinement


def test_partition_refined_replaces_cell_with_subcells():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    assert len(ref.cells) == 33
    ids = [c.id for c in ref.cells]
    assert 12 not in ids
    assert max(ids) == 33  # fresh ids appended after the original range


def test_partition_refined_rejects_subcell_ids():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    with pytest.raises(ValueError):
        ref.refined({26: ZoomQuantizerParams(1, 1.0, 0.1)})


def test_refined_locate_picks_subcells():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    cid = ref.locate([0.0, 0.0])
    c = ref.cell(cid)
    assert c.quantized_point == pytest.approx([0.0, 0.0])
    assert c.upper[0] - c.lower[0] == pytest.approx(0.3)
    # outside the refined cell nothing changed
    assert ref.locate([-0.72, -0.72]) == 0


def test_refined_partition_shares_the_unrefined_lattice():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    assert all(ref.base_cells[k] is part.base_cells[k] for k in range(25))
    assert ref.axes is part.axes
    assert ref.cell(0) is part.cell(0)


def _answers(part, rng):
    """cells, locate, locate_batch and intersecting of part on fixed
    random points and boxes."""
    pts = rng.uniform(-1.0, 1.0, size=(500, 2))
    boxes = np.sort(rng.uniform(-1.0, 1.0, size=(100, 2, 2)), axis=1)
    return ([(c.id, c.lower.tolist(), c.upper.tolist()) for c in part.cells],
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
    assert len(part.cells) == 25 and not part.zoom and list(ref.zoom) == [12]


def test_refined_cover_remains_exact():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    ref = part.refined({0: ZoomQuantizerParams(10, 1.0, 0.1),
                        12: ZoomQuantizerParams(1, 1.0, 0.3)})
    rng = np.random.default_rng(15)
    pts = rng.uniform(-1.0, 1.0, size=(20_000, 2))
    for x in pts:
        cid = ref.locate(x)
        assert ref.cell(cid).contains(x)


def test_intersecting_reports_all_touched_cells():
    part = Partition([-1.0, -1.0], [1.0, 1.0], P6)
    got = part.intersecting(np.array([-0.1, -0.1]), np.array([0.1, 0.1]))
    assert got == [12]
    got = part.intersecting(np.array([0.35, 0.0]), np.array([0.45, 0.0]))
    assert got == [12, 17]  # box crosses the 0.4 boundary
    everything = part.intersecting(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert everything == list(range(25))


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
    rng = np.random.default_rng(21)
    faces = np.array([c.lower for c in part.cells] + [c.upper for c in part.cells])
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
        want = [c.id for c in part.cells if c.intersects(lo, hi)]
        assert part.intersecting(lo, hi) == want, (lo, hi)
    assert part.intersecting([np.nan] * n, [box[1]] * n) == []
    # ids count row-major, last axis fastest: base cell k is the product of
    # the axis regions at np.unravel_index(k, shape), and a zoom subcell
    # the product of its base cell's per-axis bins at its offset from the
    # first subcell id
    shape = tuple(len(ax) for ax in part.axes)
    for k, c in enumerate(part.base_cells):
        regions = [part.axes[i][j] for i, j in enumerate(np.unravel_index(k, shape))]
        assert c.id == k
        assert c.lower.tolist() == [r.lower for r in regions]
        assert c.upper.tolist() == [r.upper for r in regions]
        assert c.quantized_point.tolist() == [r.level for r in regions]
    # the cell table by id: every cell's row holds its bounds and quantized
    # point, and its knot half-width is half its extent on each axis where
    # unrefined; a retired base id's row is NaN
    lo, hi, q, half = part.cell_arrays([c.id for c in part.cells])
    assert lo.tolist() == [c.lower.tolist() for c in part.cells]
    assert hi.tolist() == [c.upper.tolist() for c in part.cells]
    assert q.tolist() == [c.quantized_point.tolist() for c in part.cells]
    for c, row in zip(part.cells, half):
        if c.id < len(part.base_cells):
            assert row.tolist() == ((c.upper - c.lower) / 2).tolist()
    assert np.isnan(part.cell_arrays(sorted(part.zoom))).all()
    for bid, z in part.zoom.items():
        base = part.base_cells[bid]
        # the new cells inside the base cell (a subcell has positive extent,
        # so it cannot lie in a neighbour's shared face)
        subs = [c for c in part.cells if c.id >= len(part.base_cells)
                and base.contains(c.lower) and base.contains(c.upper)]
        bins = [sorted({(c.lower[i], c.upper[i]) for c in subs}) for i in range(n)]
        sub_shape = tuple(len(b) for b in bins)
        assert len(subs) == int(np.prod(sub_shape)) == z.count
        # a subcell's knot half-width is its record's bin width on every axis
        sub_half = part.cell_arrays([c.id for c in subs])[3]
        assert sub_half.tolist() == [[z.params.width] * n] * len(subs)
        for i, b in enumerate(bins):  # the bins tile the base cell's axis
            assert b[0][0] == base.lower[i] and b[-1][1] == base.upper[i]
            assert all(prev[1] == nxt[0] for prev, nxt in zip(b, b[1:]))
        for c in subs:
            at = np.unravel_index(c.id - z.first_id, sub_shape)
            assert [bins[i][j] for i, j in enumerate(at)] == \
                list(zip(c.lower.tolist(), c.upper.tolist()))
