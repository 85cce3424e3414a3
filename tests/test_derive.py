"""The batched derivation that model checks use, against the scalar
reference: the batched box query (Partition.box_spans and box_ids, and
abstraction._box_successors, which runs them in steps) row for row
against Partition.intersecting, and derive_delayfree byte for byte
against build_delayfree."""

from pathlib import Path

import numpy as np
import pytest

from symquant import (ControlSystem, LogQuantizerParams, Partition,
                      ZoomQuantizerParams, build_delayfree)
from symquant.abstraction import _EXPAND_IDS, _box_successors, derive_delayfree
from symquant.config import load_config, parse_config_text
from symquant.model_io import serialize_ts

ROOT = Path(__file__).resolve().parents[1]
P6 = LogQuantizerParams(0.2, 0.4, "EQ20")  # deadzone 0.4, first level 0.48

LATTICES = {
    "1-D": ([-1.0], [1.0], P6),
    # boundary-merged outer cells and the deadzone cell on every axis
    "2-D": ([-1.0, -1.0], [1.0, 1.0], P6),
    "2-D, EQ2, off-centre": ([-0.9, -0.3], [1.3, 2.0], LogQuantizerParams(0.3, 0.2, "EQ2")),
    "3-D, per-axis": ([-0.9] * 3, [1.3] * 3,
                      [P6, LogQuantizerParams(0.3, 0.2, "EQ2"),
                       LogQuantizerParams(0.25, 0.5, "EQ20")]),
}


def partition(name):
    lo, hi, params = LATTICES[name]
    return Partition(lo, hi, params)


def assert_rows_equal(part, lo, hi):
    want = [part.intersecting(a, b) for a, b in zip(lo, hi)]
    start, width = part.box_spans(lo, hi)
    # all rows at once, and _EXPAND_IDS ids at a time
    ids = part.box_ids(start, width)
    sizes, succ = _box_successors(part, start, width)
    assert width.prod(axis=1).tolist() == sizes.tolist() == [len(row) for row in want]
    assert ids.tolist() == np.frombuffer(succ, dtype=np.int32).tolist() == \
        [cid for row in want for cid in row]
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


@pytest.mark.parametrize("name", LATTICES)
def test_random_boxes(name):
    part = partition(name)
    lo, hi = random_boxes(part, np.random.default_rng(len(name)))
    assert assert_rows_equal(part, lo, hi).sum() > 0


@pytest.mark.parametrize("name", LATTICES)
def test_faces_on_cell_bounds(name):
    # every box's faces are cell bounds: a touching face meets the cell
    part = partition(name)
    rng = np.random.default_rng(7)
    lower, upper = part.cell_arrays(part.ids)[:2]
    bounds = np.concatenate([lower, upper])
    a = bounds[rng.integers(len(bounds), size=300)]
    b = bounds[rng.integers(len(bounds), size=300)]
    assert_rows_equal(part, np.minimum(a, b), np.maximum(a, b))


@pytest.mark.parametrize("name", LATTICES)
def test_zero_width_boxes(name):
    # points: inside cells, on shared faces and corners, and outside X
    part = partition(name)
    lower, upper, q = part.cell_arrays(part.ids)[:3]
    pts = np.concatenate([lower, upper, q, (lower + upper) / 2.0,
                          lower - 1.0, upper + 1.0])
    assert_rows_equal(part, pts, pts)


@pytest.mark.parametrize("name", LATTICES)
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


@pytest.mark.parametrize("name", LATTICES)
def test_nan_rows_meet_nothing(name):
    part = partition(name)
    lo, hi = random_boxes(part, np.random.default_rng(3), k=40)
    lo[::3, 0] = np.nan
    hi[1::3, -1] = np.nan
    lo[2], hi[2] = np.nan, np.nan
    sizes = assert_rows_equal(part, lo, hi)
    assert not sizes[::3].any() and not sizes[1::3].any()


def test_rows_larger_and_smaller_than_one_expansion_step():
    # 91 x 91 cells: rows that each hold more ids than one step, between
    # rows of a few ids and empty rows, so steps of one row and of many
    part = Partition([-1.0, -1.0], [1.0, 1.0], LogQuantizerParams(0.05, 0.01))
    assert len(part.ids) > _EXPAND_IDS
    lo, hi = random_boxes(part, np.random.default_rng(11), k=300)
    lo[::50], hi[::50] = part.box_lo, part.box_hi
    sizes = assert_rows_equal(part, lo, hi)
    assert sizes.max() > _EXPAND_IDS and sizes.sum() > 4 * _EXPAND_IDS


def test_no_rows():
    sizes = assert_rows_equal(partition("2-D"), np.empty((0, 2)), np.empty((0, 2)))
    assert sizes.shape == (0,)


def test_box_query_refuses_a_zoomed_partition():
    part = partition("2-D").refined({12: ZoomQuantizerParams(1, 1.0, 0.3)})
    with pytest.raises(ValueError, match="no zoom cells"):
        part.box_spans(np.zeros((1, 2)), np.ones((1, 2)))


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


def test_derivation_refuses_a_zoomed_partition(pendulum, logparams):
    part = Partition([-1, -1], [1, 1], logparams).refined(
        {12: ZoomQuantizerParams(1, 1.0, 0.3)})
    with pytest.raises(ValueError, match="no zoom cells"):
        derive_delayfree(pendulum, 0.2, part, lipschitz=6.0)


# ---------------------------------------------------------------------------
# the model a check derives from a config


@pytest.mark.parametrize("ini", ["bench/workloads/fine-zoom.ini", "ci/zoom-refine.ini"])
@pytest.mark.parametrize("refined", [False, True])
def test_derived_model_equals_the_built_model(ini, refined):
    cfg = load_config(str(ROOT / ini))
    derived, built = cfg.derive_model(refined), cfg.build_model(refined)
    assert serialize_ts(derived) == serialize_ts(built)
    assert derived.endpoints.tobytes() == built.endpoints.tobytes()
    assert derived._ctx.sys is cfg.system


def test_a_tube_config_builds_the_model():
    text = (ROOT / "bench/workloads/delay-tubes.ini").read_text()
    cfg = parse_config_text(text)
    assert cfg.is_timedelay()
    assert serialize_ts(cfg.derive_model(True)) == serialize_ts(cfg.build_model(True))
