"""The witnesses' generator against numpy's default_rng, draw for draw.

frr._DefaultRng reproduces np.random.default_rng(seed) for the calls the
sampled witnesses make, without importing numpy.random; every report (and
the golden digests) depends on the two streams being the same bits.
"""

import numpy as np
import pytest

from symquant.frr import _DefaultRng

SEEDS = list(range(256)) + [2 ** 32, 2 ** 64 + 3, 2 ** 200]
RANGES = [2, 529, 4097, 2 ** 31 + 1]


def _draws(rng, seed):
    """A mixed sequence: every range, uniform draws between integer draws
    (so a buffered 32-bit half outlives a 64-bit draw), broadcast bounds
    and a zero-width range."""
    lo = np.array([[-1.0, 0.5], [0.25, 0.25], [2.0, -3.0]])
    hi = np.array([[1.0, 0.5], [0.75, 0.5], [2.5, 3.0]])
    w = np.array([[0.1], [0.0], [0.3]])
    out = []
    for k in range(12):
        out.append(int(rng.integers(RANGES[(seed + k) % 4])))
        if k % 3 == 0:
            out.append(rng.uniform(lo[k // 3 % 3], hi[k // 3 % 3]))
        elif k % 3 == 1:
            out.append(rng.uniform(-w, w, size=(3, 2)))
        out.append(int(rng.integers(1)))
        out.append(int(rng.integers(25)))
    out.append(rng.uniform(lo, hi))
    return out


def _same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, int):
            assert x == y
        else:
            assert y.shape == x.shape and y.dtype == x.dtype
            assert np.array_equal(x, y)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_default_rng(seed):
    _same(_draws(np.random.default_rng(seed), seed),
          _draws(_DefaultRng(seed), seed))


@pytest.mark.parametrize("n", RANGES)
def test_every_range_matches_over_many_draws(n):
    ref, ours = np.random.default_rng(n), _DefaultRng(n)
    got = [ours.integers(n) for _ in range(2000)]
    assert got == [int(ref.integers(n)) for _ in range(2000)]
    assert all(0 <= g < n for g in got)


def test_integers_of_one_draws_nothing():
    ref, ours = np.random.default_rng(5), _DefaultRng(5)
    assert [ours.integers(1) for _ in range(10)] == [0] * 10
    assert ours.integers(529) == int(ref.integers(529))
    # integers(1) leaves the high half buffered by that draw to the next call
    assert ours.integers(1) == 0
    assert ours.integers(4097) == int(ref.integers(4097))


def test_buffered_half_survives_a_uniform_draw():
    ref, ours = np.random.default_rng(17), _DefaultRng(17)
    _same([int(ref.integers(7)), ref.uniform([0.0], [1.0]), int(ref.integers(7)),
           int(ref.integers(7))],
          [ours.integers(7), ours.uniform([0.0], [1.0]), ours.integers(7),
           ours.integers(7)])


def test_uniform_fills_in_c_order_with_broadcast_bounds():
    lo, hi = np.array([[0.0], [10.0]]), np.array([[1.0], [20.0]])
    ref, ours = np.random.default_rng(3), _DefaultRng(3)
    got = ours.uniform(lo, hi, size=(2, 4))
    assert np.array_equal(got, ref.uniform(lo, hi, size=(2, 4)))
    assert np.all((got[0] < 1.0) & (got[1] >= 10.0))


def test_zero_width_range_returns_the_bound_and_draws():
    ref, ours = np.random.default_rng(9), _DefaultRng(9)
    assert np.array_equal(ours.uniform([0.5, -2.0], [0.5, -2.0]), [0.5, -2.0])
    ref.uniform([0.5, -2.0], [0.5, -2.0])
    assert ours.integers(4097) == int(ref.integers(4097))


@pytest.mark.parametrize("seed", [-1, -(2 ** 70)])
def test_negative_seed_is_refused_like_numpy(seed):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _DefaultRng(seed)


def test_calls_outside_the_witnesses_raise():
    rng = _DefaultRng(1)
    for n in (0, -3, 2 ** 32, 2 ** 40):
        with pytest.raises(ValueError):
            rng.integers(n)
    with pytest.raises(OverflowError):
        rng.uniform([0.0, -np.inf], [1.0, 1.0])
    with pytest.raises(OverflowError):
        rng.uniform([np.nan], [1.0])
    with pytest.raises(ValueError):
        rng.uniform(0.0, 1.0)  # scalar bounds
    with pytest.raises(ValueError):
        rng.uniform(np.zeros((3, 1)), np.ones((3, 1)), size=(2, 2))
    with pytest.raises(TypeError):
        _DefaultRng(1.5)
    # none of these drew: the stream is where a fresh generator's is
    assert rng.integers(4097) == _DefaultRng(1).integers(4097)

