"""The witnesses' generator: Python's random.Random stream, draw for draw.

frr._draws hands the sampled witnesses a (k, width) array of
random.Random(seed).random() values, one row per sample, and the witnesses
spend it column by column: int(r * S) picks a state, lo + (hi - lo) * r
places a point in a cell, and frr._pick_inputs picks an enabled input.
Every report (and the golden digests) depends on those being the same bits
for the same seed.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from symquant.frr import _draws, _pick_inputs

SEEDS = list(range(256)) + [2 ** 32, 2 ** 64 + 3, 2 ** 200]
RANGES = [2, 529, 4097, 2 ** 31 + 1]
TOP = 1 - 2 ** -53  # the largest value random() returns


def _stream(seed, count):
    rng = random.Random(seed)
    return [rng.random() for _ in range(count)]


def _enabled_ts(enabled, n_inputs):
    """The CSR row sizes _pick_inputs reads: one successor per enabled
    (state, input) pair, none elsewhere."""
    sizes = [int(iid in row) for row in enabled for iid in range(n_inputs)]
    return SimpleNamespace(indptr=np.concatenate([[0], np.cumsum(sizes)]),
                           inputs=[(float(i),) for i in range(n_inputs)])


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_default_rng(seed):
    # the delay-free width n + 2 and time-delay widths 2 + J * n alike
    k, width = 1 + seed % 7, 2 + seed % 5
    got = _draws(seed, k, width)
    assert got.shape == (k, width) and got.dtype == np.float64
    assert got.ravel().tolist() == _stream(seed, k * width)
    assert np.all((got >= 0.0) & (got < 1.0))


@pytest.mark.parametrize("n", RANGES)
def test_every_range_matches_over_many_draws(n):
    picks = (_draws(n, 2000, 1)[:, 0] * n).astype(np.int64)
    assert picks.tolist() == [int(r * n) for r in _stream(n, 2000)]
    assert picks.min() >= 0 and picks.max() < n
    # the largest draw still lands on the last of the n
    assert int(TOP * n) == n - 1
    if n == 2:
        assert set(picks.tolist()) == {0, 1}


def test_integers_of_one_draws_nothing():
    # a state with one enabled input always gets it, whatever its draw ...
    ts = _enabled_ts([(2,), (0, 1, 2, 3)], 4)
    r = _draws(5, 50, 3)
    assert _pick_inputs(ts, np.zeros(50, np.int64), r[:, -1]).tolist() == [2] * 50
    assert _pick_inputs(ts, np.zeros(2, np.int64), np.array([0.0, TOP])).tolist() == [2, 2]
    # ... from the same fixed column that picks int(r * 4) of four inputs,
    # so no pick draws more than its one column
    many = _pick_inputs(ts, np.ones(50, np.int64), r[:, -1])
    assert many.tolist() == [int(x * 4) for x in r[:, -1]]


def test_buffered_half_survives_a_uniform_draw():
    # no draw is held back between rows: row j + 1 starts where row j ended,
    # so asking for more samples leaves the earlier ones as they were
    seed, width = 17, 4
    rows = _draws(seed, 6, width)
    assert np.array_equal(_draws(seed, 9, width)[:6], rows)
    assert np.array_equal(_draws(seed, 1, 6 * width).reshape(6, width), rows)
    assert rows[1, 0] == _stream(seed, width + 1)[width]


def test_uniform_fills_in_c_order_with_broadcast_bounds():
    # the delay-free placement: per-row cell bounds broadcast over the columns
    lo = np.array([[0.0, -1.0], [10.0, 2.0], [-3.0, 0.5]])
    hi = np.array([[1.0, 1.0], [20.0, 2.5], [-2.0, 4.5]])
    r = _draws(3, 3, 2)
    X = lo + (hi - lo) * r
    flat = _stream(3, 6)
    assert X.tolist() == [[lo[i, j] + (hi[i, j] - lo[i, j]) * flat[2 * i + j]
                           for j in range(2)] for i in range(3)]
    assert np.all((X >= lo) & (X < hi))


def test_zero_width_range_returns_the_bound_and_draws():
    lo = np.array([[0.5, -2.0]])
    r = _draws(9, 2, 2)
    assert np.array_equal(lo + (lo - lo) * r[:1], lo)
    # the time-delay jitter of a zero-width knot is exactly zero
    w = np.zeros((1, 2))
    assert np.array_equal(-w + 2 * w * r[:1], np.zeros((1, 2)))
    # a zero-width column still spends its draw: the next row is the stream's next
    assert r[1].tolist() == _stream(9, 4)[2:]


@pytest.mark.parametrize("seed", [-1, -(2 ** 70)])
def test_negative_seed_is_refused_like_numpy(seed):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="nonnegative"):
        _draws(seed, 4, 5)
    # random.Random would take the seed's magnitude, so seed and -seed
    # would give one report
    assert _stream(seed, 3) == _stream(-seed, 3)


def test_calls_outside_the_witnesses_raise():
    for k, width in ((-1, 5), (2, -1)):
        with pytest.raises(ValueError):
            _draws(1, k, width)
    for seed in (1.5, None, "7", b"7", np.int64(7)):
        with pytest.raises(TypeError):
            _draws(seed, 2, 2)
    assert _draws(1, 0, 5).shape == (0, 5)
    assert _draws(1, 3, 0).shape == (3, 0)
