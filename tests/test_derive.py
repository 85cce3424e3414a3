"""The batched derivation that model checks and refine_cells use, against
the scalar reference: the batched box query (Partition.box_spans, box_ids,
zoomed_rows and zoomed_box_ids, and abstraction._box_successors, which
runs them in steps) row for row against Partition.intersecting, on plain
and zoom-refined partitions, and derive_delayfree byte for byte against
build_delayfree."""

import weakref
from pathlib import Path

import numpy as np
import pytest

from symquant import (ControlSystem, LogQuantizerParams, Partition,
                      ZoomQuantizerParams, abstraction, build_delayfree, config)
from symquant.abstraction import (_EXPAND_IDS, _box_successors, derive_delayfree,
                                  refine_cells)
from symquant.cli import main
from symquant.config import load_config, parse_config_text
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


def assert_rows_equal(part, lo, hi):
    want = [part.intersecting(a, b) for a, b in zip(lo, hi)]
    start, width = part.box_spans(lo, hi)
    zoomed = part.zoomed_rows(start, width)
    # _EXPAND_IDS ids at a time, and all rows at once
    sizes, succ = _box_successors(part, start, width, zoomed, lo[zoomed], hi[zoomed])
    all_sizes, ids = part.zoomed_box_ids(start, width, lo, hi) if part.zoom else \
        (width.prod(axis=1), part.box_ids(start, width))
    assert sizes.tolist() == all_sizes.tolist() == [len(row) for row in want]
    assert ids.tolist() == np.frombuffer(succ, dtype=np.int32).tolist() == \
        [cid for row in want for cid in row]
    # every other row meets base cells only, which box_ids gives
    plain = np.setdiff1d(np.arange(len(lo)), zoomed)
    assert part.box_ids(start[plain], width[plain]).tolist() == \
        [cid for j in plain.tolist() for cid in want[j]]
    return sizes


def random_boxes(part, rng, k=400):
    """Boxes around points of a margin past the state box, of random
    widths (zero included), some of them with lo above hi on an axis."""
    span = part.box_hi - part.box_lo
    centre = rng.uniform(part.box_lo - 0.3 * span, part.box_hi + 0.3 * span,
                         (k, part.n))
    half = rng.uniform(-0.05, 0.4, (k, part.n)) * span
    half[::7] = 0.0
    return centre - half, centre + half


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_random_boxes(name):
    part = partition(name)
    lo, hi = random_boxes(part, np.random.default_rng(len(name)))
    assert assert_rows_equal(part, lo, hi).sum() > 0


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_faces_on_cell_bounds(name):
    # every box's faces are cell bounds: a touching face meets the cell
    part = partition(name)
    rng = np.random.default_rng(7)
    lower, upper = part.cell_arrays(part.ids)[:2]
    bounds = np.concatenate([lower, upper])
    a = bounds[rng.integers(len(bounds), size=300)]
    b = bounds[rng.integers(len(bounds), size=300)]
    assert_rows_equal(part, np.minimum(a, b), np.maximum(a, b))


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_zero_width_boxes(name):
    # points: inside cells, on shared faces and corners, and outside X
    part = partition(name)
    lower, upper, q = part.cell_arrays(part.ids)[:3]
    pts = np.concatenate([lower, upper, q, (lower + upper) / 2.0,
                          lower - 1.0, upper + 1.0])
    assert_rows_equal(part, pts, pts)


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_boxes_partly_or_wholly_outside_the_state_box(name):
    part = partition(name)
    n, lo_x, hi_x = part.n, part.box_lo, part.box_hi
    lo = np.array([lo_x - 1.0, lo_x - 1.0, hi_x + 0.1, lo_x - 3.0, hi_x, lo_x - 0.5,
                   np.full(n, -np.inf)])
    hi = np.array([hi_x + 1.0, lo_x + 0.1, hi_x + 2.0, lo_x - 2.0, hi_x + 1.0, lo_x,
                   np.full(n, np.inf)])
    sizes = assert_rows_equal(part, lo, hi)
    assert sizes[0] == sizes[-1] == len(part.ids)
    assert sizes[2] == sizes[3] == 0


@pytest.mark.parametrize("name", [*LATTICES, *ZOOMED])
def test_nan_rows_meet_nothing(name):
    part = partition(name)
    lo, hi = random_boxes(part, np.random.default_rng(3), k=40)
    lo[::3, 0] = np.nan
    hi[1::3, -1] = np.nan
    lo[2], hi[2] = np.nan, np.nan
    sizes = assert_rows_equal(part, lo, hi)
    assert not sizes[::3].any() and not sizes[1::3].any()


def test_rows_larger_and_smaller_than_one_expansion_step():
    # 93 x 93 cells: rows that each hold more ids than one step, between
    # rows of a few ids and empty rows, so steps of one row and of many;
    # then with the deadzone cell and two others zoomed into 441, 11 and 8
    # subcells, which some of those rows meet
    base = Partition([-1.0, -1.0], [1.0, 1.0], LogQuantizerParams(0.05, 0.01))
    assert len(base.ids) > _EXPAND_IDS
    lo, hi = random_boxes(base, np.random.default_rng(11), k=300)
    lo[::50], hi[::50] = base.box_lo, base.box_hi
    zoomed = base.refined({4324: Z(10, 1.0, 0.001), 4100: Z(300, 1.0, 0.004),
                           7000: Z(100, 1.0, 0.005)})
    assert [z.count for z in zoomed.zoom.values()] == [11, 441, 8]
    # and boxes that are subcells, which meet a few cells each
    cells = zoomed.cell_arrays(zoomed.ids[-40:])
    lo, hi = np.concatenate([lo, cells[0]]), np.concatenate([hi, cells[1]])
    for part in (base, zoomed):
        sizes = assert_rows_equal(part, lo, hi)
        assert sizes.max() > _EXPAND_IDS and sizes.sum() > 4 * _EXPAND_IDS
    start, width = zoomed.box_spans(lo, hi)
    rows = zoomed.zoomed_rows(start, width)
    assert len(rows) < len(lo) and sizes[rows].max() > _EXPAND_IDS
    assert sizes[rows].min() < 10


def test_no_rows():
    for name in ("2-D", "2-D, nested zoom"):
        sizes = assert_rows_equal(partition(name), np.empty((0, 2)), np.empty((0, 2)))
        assert sizes.shape == (0,)


# ---------------------------------------------------------------------------
# the coarse model


def assert_same_model(sys, tau, lattice, **kw):
    built = build_delayfree(sys, tau, lattice, **kw)
    derived = derive_delayfree(sys, tau, lattice, **kw)
    assert serialize_ts(derived) == serialize_ts(built)
    assert derived.endpoints.tobytes() == built.endpoints.tobytes()
    assert derived.endpoints.shape == built.endpoints.shape
    return derived


def config_args(cfg):
    return (cfg.system, cfg.tau, cfg.partition()), dict(
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
    # coarse model on the way
    cfg = load_config(str(ROOT / ini))
    derive, calls = abstraction._derived_model, []
    monkeypatch.setattr(abstraction, "_derived_model",
                        lambda *args: calls.append(len(args[1].ids)) or derive(*args))
    derived = cfg.derive_model(refined)
    assert calls == [len(cfg.partition(refined).ids)]
    built = cfg.build_model(refined)
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
