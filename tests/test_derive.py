"""The batched derivation that model checks and refine_cells use, against
the scalar reference: the batched box query (Partition.box_spans and
box_cells, and abstraction._box_successors, which runs them in steps over
growth boxes x - r, x + r) row for row against Partition.intersecting, on
plain and zoom-refined partitions, and derive_delayfree byte for byte
against the per-pair build (abstraction._delayfree_model), which
build_delayfree runs only below abstraction._DERIVE_PAIRS pairs."""

import weakref
from pathlib import Path

import numpy as np
import pytest

from symquant import (ControlSystem, LogQuantizerParams, Partition,
                      ZoomQuantizerParams, abstraction, config, quantizers)
from symquant.abstraction import (_EXPAND_IDS, _box_successors, derive_delayfree,
                                  refine_cells)
from symquant.cli import main
from symquant.config import load_config, parse_config_text
from symquant.dynamics import DEFAULT_STEPS
from symquant.model_io import load_ts, serialize_ts

ROOT = Path(__file__).resolve().parents[1]
P6 = LogQuantizerParams(0.2, 0.4, "EQ20")  # deadzone 0.4, first level 0.48
Z = ZoomQuantizerParams

LATTICES = {
    "1-D": ([-1.0], [1.0], P6),
    # boundary-merged outer cells and the deadzone cell on every axis
    "2-D": ([-1.0, -1.0], [1.0, 1.0], P6),
    "2-D, EQ2, off-centre": ([-0.9, -0.3], [1.3, 2.0], LogQuantizerParams(0.3, 0.2, "EQ2")),
    "3-D, per-axis": ([-0.9] * 3, [1.3] * 3,
                      [P6, LogQuantizerParams(0.3, 0.2, "EQ2"),
                       LogQuantizerParams(0.25, 0.5, "EQ20")]),
}

# zoom rows applied one refinement after another: saturated and unsaturated
# bins, corner and boundary-merged cells, a delta = 0 row, and later
# refinements of lower base ids, whose subcell ids follow the earlier ones'
ZOOMED = {
    "1-D, zoomed": ("1-D", [{2: Z(3, 1.0, 0.1), 0: Z(20, 1.0, 0.05)}]),
    "2-D, nested zoom": ("2-D", [{12: Z(1, 1.0, 0.3)},
                                 {13: Z(3, 1.0, 0.05), 0: Z(20, 1.0, 0.1), 7: Z(1, 1.0, 0.0)}]),
    "3-D, nested zoom": ("3-D, per-axis", [{100: Z(2, 1.0, 0.1)},
                                           {37: Z(5, 1.0, 0.1), 191: Z(1, 1.0, 0.2)}]),
}


def partition(name):
    base, zooms = ZOOMED.get(name, (name, []))
    lo, hi, params = LATTICES[base]
    part = Partition(lo, hi, params)
    for zoom in zooms:
        part = part.refined(zoom)
    return part


def assert_rows_equal(part, x, r):
    """The K growth boxes x - r, x + r, made as the derivation makes them,
    of the (K, n) points x and the radii r, (K, 1) or (K, n) per axis."""
    lo, hi = x - r, x + r
    want = [part.intersecting(a, b) for a, b in zip(lo, hi)]
    start, width = part.box_spans(lo, hi)
    # _EXPAND_IDS lattice ids at a time, and all rows at once
    sizes, succ = _box_successors(part, start, width, x[:, None], r[:, None],
                                  np.arange(len(x)))
    all_sizes, ids = part.box_cells(start, width, lo, hi)
    assert sizes.tolist() == all_sizes.tolist() == [len(row) for row in want]
    assert ids.tolist() == np.frombuffer(succ, dtype=np.int32).tolist() == \
        [cid for row in want for cid in row]
    return sizes


def random_boxes(part, rng, k=400):
    """Boxes around points of a margin past the state box, of random
    radii (zero included), some of them negative: lo above hi."""
    span = part.box_hi - part.box_lo
    centre = rng.uniform(part.box_lo - 0.3 * span, part.box_hi + 0.3 * span,
                         (k, part.n))
    half = rng.uniform(-0.05, 0.4, (k, 1)) * span.max()
    half[::7] = 0.0
    return centre, half


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_random_boxes(name):
    part = partition(name)
    x, r = random_boxes(part, np.random.default_rng(len(name)))
    assert assert_rows_equal(part, x, r).sum() > 0


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_faces_on_cell_bounds(name):
    # every box's faces are cell bounds, a touching face meets the cell:
    # the boxes of two random bounds per axis whose x - r and x + r give
    # back the bounds exactly
    part = partition(name)
    rng = np.random.default_rng(7)
    lower, upper = part.cell_arrays(part.ids)[:2]
    bounds = np.concatenate([lower, upper])
    a = bounds[rng.integers(len(bounds), size=1500)]
    b = bounds[rng.integers(len(bounds), size=1500)]
    a, b = np.minimum(a, b), np.maximum(a, b)
    x, r = (a + b) / 2.0, (b - a) / 2.0
    exact = ((x - r == a) & (x + r == b)).all(axis=1)
    assert exact.sum() >= 100
    assert_rows_equal(part, x[exact], r[exact])


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_zero_width_boxes(name):
    # points: inside cells, on shared faces and corners, and outside X
    part = partition(name)
    lower, upper, q = part.cell_arrays(part.ids)[:3]
    pts = np.concatenate([lower, upper, q, (lower + upper) / 2.0,
                          lower - 1.0, upper + 1.0])
    assert_rows_equal(part, pts, np.zeros((len(pts), 1)))


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_boxes_partly_or_wholly_outside_the_state_box(name):
    # X's box and more, past the low corner, wholly past the high corner
    # and the low one, about X's high face and its low face, and the
    # infinite box
    part = partition(name)
    n, lo_x, hi_x = part.n, part.box_lo, part.box_hi
    mid = (lo_x + hi_x) / 2.0
    x = np.array([mid, lo_x, hi_x + 1.0, lo_x - 2.5, hi_x + 0.5, lo_x - 0.25, np.zeros(n)])
    r = np.array([[(hi_x - lo_x).max() / 2.0 + 1.0], [0.1], [0.9], [0.5], [0.5], [0.25],
                  [np.inf]])
    sizes = assert_rows_equal(part, x, r)
    assert sizes[0] == sizes[-1] == len(part.ids)
    assert sizes[2] == sizes[3] == 0


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_nan_rows_meet_nothing(name):
    part = partition(name)
    x, r = random_boxes(part, np.random.default_rng(3), k=40)
    r = np.repeat(r, part.n, axis=1)
    x[::3, 0] = np.nan
    r[1::3, -1] = np.nan
    x[2], r[2] = np.nan, np.nan
    sizes = assert_rows_equal(part, x, r)
    assert not sizes[::3].any() and not sizes[1::3].any()


def test_rows_larger_and_smaller_than_one_expansion_step():
    # 93 x 93 cells: rows that each hold more ids than one step, between
    # rows of a few ids and empty rows, so steps of one row and of many;
    # then with the deadzone cell and two others zoomed into 441, 11 and 8
    # subcells, which some of those rows meet
    base = Partition([-1.0, -1.0], [1.0, 1.0], LogQuantizerParams(0.05, 0.01))
    assert len(base.ids) > _EXPAND_IDS
    x, r = random_boxes(base, np.random.default_rng(11), k=300)
    r = np.repeat(r, 2, axis=1)
    x[::50], r[::50] = 0.0, 1.0  # X's box
    zoomed = base.refined({4324: Z(10, 1.0, 0.001), 4100: Z(300, 1.0, 0.004),
                           7000: Z(100, 1.0, 0.005)})
    assert [z.count for z in zoomed.zoom.values()] == [11, 441, 8]
    # and boxes about subcells, which meet a few cells each
    lower, upper = zoomed.cell_arrays(zoomed.ids[-40:])[:2]
    x = np.concatenate([x, (lower + upper) / 2.0])
    r = np.concatenate([r, (upper - lower) / 2.0])
    for part in (base, zoomed):
        sizes = assert_rows_equal(part, x, r)
        assert sizes.max() > _EXPAND_IDS and sizes.sum() > 4 * _EXPAND_IDS
    # the rows that meet a subcell
    start, width = zoomed.box_spans(x - r, x + r)
    ids = zoomed.box_cells(start, width, x - r, x + r)[1]
    rows = np.unique(np.repeat(np.arange(len(x)), sizes)[ids >= zoomed.grid.count])
    assert len(rows) < len(x) and sizes[rows].max() > _EXPAND_IDS
    assert sizes[rows].min() < 10


def test_no_rows():
    for name in ("2-D", "2-D, nested zoom"):
        sizes = assert_rows_equal(partition(name), np.empty((0, 2)), np.empty((0, 1)))
        assert sizes.shape == (0,)


# the 25-cell lattice with every cell refined, at once, and in two
# refinements of which the later takes the lower base ids, so its
# subcell ids follow the higher base ids' subcells
EVERY_CELL = {bid: Z(1 + bid % 4, 1.0, 0.05 + 0.02 * (bid % 3)) for bid in range(25)}
REFINED_25 = {
    "every cell at once": [EVERY_CELL],
    "the higher ids first": [{b: z for b, z in EVERY_CELL.items() if b >= 12},
                             {b: z for b, z in EVERY_CELL.items() if b < 12}],
}


@pytest.mark.parametrize("name", REFINED_25)
def test_box_cells_against_a_scan_of_the_cell_table(name):
    part = partition("2-D")
    for zoom in REFINED_25[name]:
        part = part.refined(zoom)
    assert len(part.zoom) == 25 and np.isnan(part.cell_arrays(np.arange(25))[0]).all()
    rng = np.random.default_rng(5)
    x, r = random_boxes(part, rng, k=300)
    lower, upper = part.cell_arrays(part.ids)[:2]
    x = np.concatenate([x, lower, (lower + upper) / 2.0])
    r = np.concatenate([r, np.zeros((len(lower), 1)), rng.uniform(0.0, 0.2, (len(lower), 1))])
    sizes = assert_rows_equal(part, x, r)
    lo, hi = x - r, x + r
    start, width = part.box_spans(lo, hi)
    ids = np.split(part.box_cells(start, width, lo, hi)[1], np.cumsum(sizes)[:-1])
    for row, a, b in zip(ids, lo, hi):
        meets = ((lower <= b) & (upper >= a)).all(axis=1)
        assert row.tolist() == part.ids[meets].tolist()
    assert sizes.sum() > 2000


def test_box_cells_asks_only_the_records_its_rows_reach(monkeypatch):
    part = partition("2-D").refined(EVERY_CELL)
    # rows in the corner cell 0, two in the deadzone cell 12, and one
    # that meets no cell
    x = np.array([[-0.95, -0.95], [0.0, 0.0], [0.05, 0.0], [3.0, 3.0]])
    r = np.full((4, 1), 0.01)
    start, width = part.box_spans(x - r, x + r)
    asked, spans = [], quantizers._Grid.spans
    monkeypatch.setattr(quantizers._Grid, "spans",
                        lambda g, lo, hi: asked.append((g.first_id, len(lo))) or spans(g, lo, hi))
    sizes, ids = part.box_cells(start, width, x - r, x + r)
    assert asked == [(part.zoom[0].first_id, 1), (part.zoom[12].first_id, 2)]
    assert sizes.tolist() == [1, 1, 1, 0]
    assert ids.tolist() == [part.locate(p) for p in x[:3]]


# ---------------------------------------------------------------------------
# the coarse model


def per_pair(sys, tau, lattice, input_quantization=("uniform", 0.2),
             lipschitz="sampled-jacobian", steps=DEFAULT_STEPS, growth_scale=1.0):
    """build_delayfree's model, built pair by pair whatever its size."""
    return abstraction._delayfree_model(sys, *abstraction._delayfree_setup(
        sys, tau, lattice, input_quantization, lipschitz, steps, growth_scale))


def assert_same_model(sys, tau, lattice, **kw):
    built = per_pair(sys, tau, lattice, **kw)
    derived = derive_delayfree(sys, tau, lattice, **kw)
    assert serialize_ts(derived) == serialize_ts(built)
    assert derived.endpoints.tobytes() == built.endpoints.tobytes()
    assert derived.endpoints.shape == built.endpoints.shape
    return derived


def config_args(cfg, refined=False):
    return (cfg.system, cfg.tau, cfg.partition(refined)), dict(
        input_quantization=cfg.input_quantization, lipschitz=cfg.lipschitz,
        steps=cfg.steps, growth_scale=cfg.growth_scale)


@pytest.mark.parametrize("ini", ["bench/workloads/coarse-hold.ini",
                                 "bench/workloads/fine-zoom.ini",
                                 "ci/zoom-refine.ini"])
def test_workload_configs(ini):
    args, kw = config_args(load_config(str(ROOT / ini)))
    assert_same_model(*args, **kw)


def test_three_dimensional_plant():
    sys = ControlSystem.from_strings(["u1*cos(x3)", "u1*sin(x3)", "u2"],
                                     [-1] * 3, [1] * 3, [-1, -1], [1, 1])
    ts = assert_same_model(sys, 0.2, LogQuantizerParams(0.3, 0.2), lipschitz=4.0,
                           input_quantization=("uniform", 0.5))
    assert ts.endpoints.shape == (len(ts.ids), 25, 3)


@pytest.mark.parametrize("lipschitz", ["sampled-jacobian", 6.0])
def test_zero_growth_scale(pendulum, logparams, lipschitz):
    ts = assert_same_model(pendulum, 0.2, logparams, lipschitz=lipschitz,
                           growth_scale=0.0)
    assert ts.n_transitions > 0


def test_blocked_pairs():
    sys = ControlSystem.from_strings(["2*x1 + u1"], [-1], [1], [-0.6], [0.6])
    ts = assert_same_model(sys, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"))
    blocked = np.diff(ts.indptr) == 0
    assert blocked.any() and not blocked.all()


def test_log_input_quantizer(pendulum, logparams):
    assert_same_model(pendulum, 0.2, logparams,
                      input_quantization=("log", LogQuantizerParams(0.3, 0.5)))


# the zoom rows of a config, or zoom rows applied one refinement after
# another, to the config's lattice
ZOOMED_MODELS = {
    "fine-zoom": ("bench/workloads/fine-zoom.ini", None),
    # the deadzone 264, its neighbour 265, the boundary-merged 517 and the
    # corner 0
    "zoom-refine": ("ci/zoom-refine.ini", None),
    # 12's and 264's subcells are numbered after 300's
    "nested": ("bench/workloads/fine-zoom.ini",
               [{300: Z(2, 1.0, 0.05)}, {264: Z(1, 1.0, 0.1), 12: Z(3, 1.0, 0.05)}]),
    "delta = 0": ("ci/zoom-refine.ini", [{264: Z(1, 1.0, 0.1), 265: Z(3, 1.0, 0.0)}]),
}


@pytest.mark.parametrize("name", ZOOMED_MODELS)
def test_zoomed_partitions(name):
    ini, zooms = ZOOMED_MODELS[name]
    cfg = load_config(str(ROOT / ini))
    zooms = zooms or [cfg.zoom]
    (sys, tau, part), kw = config_args(cfg)
    for zoom in zooms:
        part = part.refined(zoom)
    ts = assert_same_model(sys, tau, part, **kw)
    assert len(ts.ids) > len(cfg.partition().ids)
    # refine_cells derives the same model from the coarse one
    refined = cfg.derive_model()
    for zoom in zooms:
        refined = refine_cells(refined, zoom)
    assert serialize_ts(refined) == serialize_ts(ts)
    assert refined.endpoints.tobytes() == ts.endpoints.tobytes()


# ---------------------------------------------------------------------------
# the model a check derives from a config


@pytest.mark.parametrize("ini", ["bench/workloads/fine-zoom.ini", "ci/zoom-refine.ini"])
@pytest.mark.parametrize("refined", [False, True])
def test_derived_model_equals_the_built_model(monkeypatch, ini, refined):
    # one derivation over partition(refined): a refined check makes no
    # coarse model on the way, and its model is the per-pair build's
    cfg = load_config(str(ROOT / ini))
    derive, calls = abstraction._derived_model, []
    monkeypatch.setattr(abstraction, "_derived_model",
                        lambda *args: calls.append(len(args[1].ids)) or derive(*args))
    derived = cfg.derive_model(refined)
    assert calls == [len(cfg.partition(refined).ids)]
    args, kw = config_args(cfg, refined)
    built = per_pair(*args, **kw)
    assert serialize_ts(derived) == serialize_ts(built)
    assert derived.endpoints.tobytes() == built.endpoints.tobytes()
    assert derived._ctx.sys is cfg.system


def test_a_tube_config_builds_the_model():
    text = (ROOT / "bench/workloads/delay-tubes.ini").read_text()
    cfg = parse_config_text(text)
    assert cfg.is_timedelay()
    assert serialize_ts(cfg.derive_model(True)) == serialize_ts(cfg.build_model(True))


def test_refine_frees_the_checked_coarse_model_first(monkeypatch, tmp_path):
    # refine keeps no reference to the model its check derived, so the
    # coarse arrays are freed before the refined model's are made
    ini = str(ROOT / "ci/zoom-refine.ini")
    cfg = load_config(ini)
    coarse = tmp_path / "coarse.sts"
    coarse.write_text(serialize_ts(cfg.build_model()))
    derive, derived, models, freed = config.derive_delayfree, abstraction._derived_model, [], []

    def kept(*args, **kwargs):
        ts = derive(*args, **kwargs)
        models.append(weakref.ref(ts))
        return ts

    def spy(*args):
        freed.append([ref() is None for ref in models])
        return derived(*args)

    monkeypatch.setattr(config, "derive_delayfree", kept)
    monkeypatch.setattr(abstraction, "_derived_model", spy)
    assert main(["refine", "--config", ini, "--model", str(coarse),
                 "--out", str(tmp_path / "refined.sts")]) == 0
    assert freed == [[], [True]]
    assert len(load_ts(str(tmp_path / "refined.sts")).ids) == 578
