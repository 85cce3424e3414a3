"""integrate_batch against integrate: every column bit for bit, errors alike."""

import numpy as np
import pytest

from symquant import LogQuantizerParams, build_delayfree
from symquant.dynamics import (ControlSystem, IntegrationError, integrate,
                               integrate_batch)
from symquant.expr import FUNCTIONS
from symquant.synthesis import _hold_sequences

# one plant per FUNCTIONS member and '^', each argument inside its domain
# on the sampled box
TERMS = {
    "sin": "-1.96*sin(x1)",
    "cos": "cos(x1 + x2) - 1",
    "tan": "-tan(0.5*x1)",
    "exp": "exp(-x1^2) - 1",
    "abs": "-abs(x1)*x1",
    "sqrt": "sqrt(1 + x1^2) - 1",
    "^": "-x1^3 - abs(x2)^1.5",
}


def plant(term: str) -> ControlSystem:
    return ControlSystem.from_strings(["x2", f"{term} - 1.5*x2 + u1"],
                                      [-1, -1], [1, 1], [-2.5], [2.5])


def test_every_function_is_covered():
    assert set(TERMS) == set(FUNCTIONS) | {"^"}


@pytest.mark.parametrize("K", [1, 7, 625])
@pytest.mark.parametrize("name", sorted(TERMS))
def test_columns_equal_scalar_runs_bitwise(name, K):
    sys = plant(TERMS[name])
    rng = np.random.default_rng(K)
    X = rng.uniform(-1.0, 1.0, (2, K))
    U = rng.uniform(-2.5, 2.5, (1, K))
    got = integrate_batch(sys, X, U, 0.2, 20)
    assert got.shape == (2, K)
    for j in range(K):
        want = integrate(sys, X[:, j], U[:, j], 0.2, 20)
        assert got[:, j].tobytes() == want.tobytes(), (name, j)


def test_empty_batch():
    got = integrate_batch(plant(TERMS["sin"]), np.empty((2, 0)),
                          np.empty((1, 0)), 0.2)
    assert got.shape == (2, 0)


def test_shape_checks():
    sys = plant(TERMS["sin"])
    with pytest.raises(ValueError, match="shape"):
        integrate_batch(sys, np.zeros((2, 3)), np.zeros((1, 2)), 0.2)
    with pytest.raises(ValueError, match="steps"):
        integrate_batch(sys, np.zeros((2, 3)), np.zeros((1, 3)), 0.2, steps=0)


@pytest.mark.parametrize("rhs,bad", [
    ("x1^2", 5.0),        # blows up at t = 0.2; from 0.5 only at t = 2
    ("1/x1", 0.0),        # division by zero at the start
    ("x1^0.5", -0.25),    # complex power
    ("sqrt(x1)", -0.25),  # math domain error
])
def test_non_finite_raises_on_both_paths(rhs, bad):
    sys = ControlSystem.from_strings([rhs], [-10], [10], [0], [0])
    X = np.array([[0.5, bad, 0.25]])
    U = np.zeros((1, 3))
    with pytest.raises(IntegrationError) as scalar:
        integrate(sys, X[:, 1], U[:, 1], 1.0, 50)
    with pytest.raises(IntegrationError) as batch:
        integrate_batch(sys, X, U, 1.0, 50)
    # the batch names the failing column with the scalar message
    assert str(batch.value) == str(scalar.value)


def test_hold_search_drops_pairs_that_leave_the_box():
    # the rhs is undefined beyond x1 = 1.3: integrating a pair once more after
    # its endpoint left X = [-1, 1] would raise
    sys = ControlSystem.from_strings(["u1 + 0*sqrt(1.3 - x1)"], [-1], [1],
                                     [-1], [1])
    with pytest.raises(IntegrationError):
        integrate(sys, [1.12], [1.0], 0.2)
    ts = build_delayfree(sys, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                         input_quantization=("uniform", 0.5), lipschitz=1.0)
    seqs = _hold_sequences(ts, 16)
    for s in ts.states:
        for iid, u in enumerate(ts.inputs):
            x, want = s.cell.quantized_point, []
            for _ in range(16):
                x = integrate(sys, x, u, 0.2)
                if np.any(x < sys.state_lo) or np.any(x > sys.state_hi):
                    break
                want.append(ts.partition.locate(x))
            assert seqs[(s.id, iid)] == want
    assert any(len(v) < 16 for v in seqs.values())
