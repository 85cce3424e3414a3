"""Batched integrators and Lipschitz estimates against their one-trajectory
and one-cell forms: every column bit for bit, errors alike.  integrate_batch
is checked against integrate, integrate_delay_batch against integrate_delay,
estimate_lipschitz_batch against estimate_lipschitz; both time-delay entry
points are also checked against an interpreted method of steps."""

import math
import warnings

import numpy as np
import pytest

from symquant import LogQuantizerParams, ZoomQuantizerParams, build_delayfree
from symquant.dynamics import (ControlSystem, IntegrationError, SampledCurve,
                               TimeDelaySystem, _interp, estimate_lipschitz,
                               estimate_lipschitz_batch, integrate,
                               integrate_batch, integrate_delay,
                               integrate_delay_batch)
from symquant.expr import FUNCTIONS
from symquant.quantizers import Cell, Partition
from symquant.synthesis import _hold_reach

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
    seqs = {s.id: [] for s in ts.states}  # per state, one list per input
    for s in ts.states:
        for u in ts.inputs:
            x, want = s.cell.quantized_point, []
            for _ in range(16):
                x = integrate(sys, x, u, 0.2)
                if np.any(x < sys.state_lo) or np.any(x > sys.state_hi):
                    break
                want.append(ts.partition.locate(x))
            seqs[s.id].append(want)
    assert any(len(v) < 16 for per_input in seqs.values() for v in per_input)
    # per target, the fewest steps, then the smallest input, that the
    # scalar sequences imply
    targets = [(s.id,) for s in ts.states]
    for (goal,), (policy, dist) in zip(targets, _hold_reach(ts, targets, 16)):
        want_policy, want_dist = {}, {goal: 0}
        for sid, per_input in seqs.items():
            steps = [(seq.index(goal) + 1, iid)
                     for iid, seq in enumerate(per_input) if goal in seq]
            if sid != goal and steps:
                want_dist[sid], want_policy[sid] = min(steps)
        assert policy == want_policy
        assert dist == want_dist


# ---------------------------------------------------------------------------
# method of steps

def delay_plant(name: str, pendulum_delay) -> TimeDelaySystem:
    if name == "pendulum":  # Theta = r = 0.2
        return pendulum_delay
    if name == "no-delay-window":  # Theta = r = 0: delay(x2, 0) is x2
        return TimeDelaySystem.from_strings(
            ["x2", "-1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0) + u1"],
            [-1, -1], [1, 1], [-2.5], [2.5], Theta=0.0, r=0.0)
    # no input delay, two state delays, every function on a delayed argument
    return TimeDelaySystem.from_strings(
        ["x2 + 0.1*tan(0.5*delay(x1, 0.1))",
         "-sin(x1) - x2 + 0.3*cos(delay(x1, 0.1)) - 0.2*delay(x2, 0.2) "
         "+ 0.1*abs(delay(x2, 0.2))^1.5 - 0.1*exp(-delay(x1, 0.2)^2) "
         "+ 0.1*sqrt(1 + delay(x2, 0.1)^2) + u1"],
        [-1, -1], [1, 1], [-2.5], [2.5], Theta=0.2, r=0.0)


def scalar_delay_run(sys, H, U, tau, j):
    # one period under column j's input
    hist = SampledCurve(-sys.Theta, 0.0, H[:, :, j])
    return integrate_delay(sys, hist, U[:, j], tau).values


@pytest.mark.parametrize("K", [1, 25, 1000])
@pytest.mark.parametrize("name", ["pendulum", "no-delay-window", "no-input-delay"])
def test_delay_columns_equal_scalar_runs_bitwise(name, K, pendulum_delay):
    sys = delay_plant(name, pendulum_delay)
    rows = 1 if sys.Theta == 0.0 else 3  # history spacing 0.1 divides tau
    rng = np.random.default_rng(K)
    H = rng.uniform(-1.0, 1.0, (rows, 2, K))  # a distinct history per column
    U = rng.uniform(-2.5, 2.5, (1, K))
    got = integrate_delay_batch(sys, H, U, 0.2)
    assert got.shape == (rows, 2, K)
    for j in range(K):
        want = scalar_delay_run(sys, H, U, 0.2, j)
        assert got[:, :, j].tobytes() == want.tobytes(), (name, j)


def test_delay_batch_keeps_the_scalar_checks(pendulum_delay):
    H = np.zeros((3, 2, 4))
    U = np.zeros((1, 4))
    with pytest.raises(ValueError, match="shape"):
        integrate_delay_batch(pendulum_delay, H, np.zeros((1, 3)), 0.2)
    with pytest.raises(ValueError, match="need u of length 1, got 2"):
        integrate_delay(pendulum_delay, SampledCurve(-0.2, 0.0, H[:, :, 0]),
                        [0.0, 0.0], 0.2)
    # r = 0.2 is not a whole number of periods of 0.3
    with pytest.raises(ValueError, match="integer multiple") as scalar:
        scalar_delay_run(pendulum_delay, H, U, 0.3, 0)
    with pytest.raises(ValueError, match="integer multiple") as batch:
        integrate_delay_batch(pendulum_delay, H, U, 0.3)
    assert str(batch.value) == str(scalar.value)
    # history spacing 0.2/3 does not divide tau = 0.1
    with pytest.raises(ValueError, match="does not divide") as scalar:
        scalar_delay_run(pendulum_delay, np.zeros((4, 2, 1)), U, 0.1, 0)
    with pytest.raises(ValueError, match="does not divide") as batch:
        integrate_delay_batch(pendulum_delay, np.zeros((4, 2, 4)), U, 0.1)
    assert str(batch.value) == str(scalar.value)
    flat = delay_plant("no-delay-window", pendulum_delay)
    with pytest.raises(ValueError, match="exactly one sample"):
        integrate_delay_batch(flat, H, U, 0.2)


def test_delay_batch_one_row_history_is_a_constant_curve():
    sys = TimeDelaySystem.from_strings(["-delay(x1, 0.1)"], [-10], [10],
                                       [0], [0], Theta=0.2, r=0.0)
    U = np.zeros((1, 2))
    one = integrate_delay_batch(sys, np.array([[[1.0, 0.5]]]), U, 0.2)
    two = integrate_delay_batch(sys, np.array([[[1.0, 0.5]]] * 2), U, 0.2)
    assert one[-1, 0, 0] == pytest.approx(0.805, abs=1e-12)
    assert one.tobytes() == two.tobytes()


def test_empty_delay_batch(pendulum_delay):
    got = integrate_delay_batch(pendulum_delay, np.zeros((3, 2, 0)),
                                np.zeros((1, 0)), 0.2)
    assert got.shape == (3, 2, 0)


@pytest.mark.parametrize("rhs", [
    "1/delay(x1, 0.1)",        # division by a zero history
    "sqrt(delay(x1, 0.1))",    # math domain error on a negative history
    "delay(x1, 0.1)^0.5",      # no real power of a negative history
])
def test_delay_errors_match_the_scalar_path(rhs):
    sys = TimeDelaySystem.from_strings([rhs], [-10], [10], [0], [0],
                                       Theta=0.1, r=0.0)
    H = np.zeros((3, 1, 3))
    H[:, :, 0] = 0.5
    H[:, :, 1] = 0.0 if rhs.startswith("1/") else -0.25
    H[:, :, 2] = 0.25
    U = np.zeros((1, 3))
    with pytest.raises(IntegrationError) as scalar:
        scalar_delay_run(sys, H, U, 0.2, 1)
    with pytest.raises(IntegrationError) as batch:
        integrate_delay_batch(sys, H, U, 0.2)
    # the batch names the failing column with the scalar message
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("rhs,start,why", [
    ("1/delay(x1, 0.1)", 0.0, "float division by zero"),
    ("sqrt(delay(x1, 0.1))", -0.25, "math domain error"),
    ("delay(x1, 0.1)^0.5", -0.25, "-0.25^0.5 has no real value"),
])
def test_delay_terms_fail_like_state_terms(rhs, start, why):
    # delayed values reach the expression as floats: the method of steps
    # raises at once with the message integrate() gives for the same term
    # on the state, and numpy warns about nothing
    delayed = TimeDelaySystem.from_strings([rhs], [-10], [10], [0], [0],
                                           Theta=0.1, r=0.0)
    plain = ControlSystem.from_strings([rhs.replace("delay(x1, 0.1)", "x1")],
                                       [-10], [10], [0], [0])
    head = f"derivative evaluation failed at t=0: {why}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            integrate_delay(delayed, SampledCurve(-0.1, 0.0, [[start]] * 3),
                            [0.0], 0.2)
        assert str(err.value) == head
        with pytest.raises(IntegrationError) as err:
            integrate(plain, [start], [0.0], 0.2)
        assert str(err.value).startswith(head + " from x0=")


# ---------------------------------------------------------------------------
# the generated method-of-steps kernel against an interpreted stage loop

def reference_method_of_steps(sys, values, u, tau, steps=20) -> np.ndarray:
    """One period of the method of steps from one history, (k+1, n) rows on
    the uniform grid over [-Theta, 0], under the input u: the textbook
    stage loop over Expression.fn on floats, with integrate_delay's grid,
    substep and error texts.  Returns the rows of x(tau + theta)."""
    values = np.asarray(values, dtype=float)
    if sys.Theta > 0.0 and values.shape[0] == 1:
        values = np.concatenate([values, values])
    n_hist = values.shape[0] - 1
    spacing = sys.Theta / n_hist if n_hist else 0.0
    h_hist = spacing if sys.Theta > 0.0 else tau
    h_des = min(tau / steps, sys.min_positive_delay())
    m_sub = max(1, int(math.ceil(h_hist / h_des - 1e-12)))
    h = h_hist / m_sub
    n_past, n_fwd = n_hist * m_sub, int(round(tau / h_hist)) * m_sub
    traj = np.empty((n_past + n_fwd + 1, sys.n))
    for j in range(n_past + 1):
        traj[j] = _interp(values, -sys.Theta, spacing, -sys.Theta + j * h)
    filled = n_past + 1
    u = [float(v) for v in u]
    x = traj[n_past].tolist()

    def stage(t, y):
        def hist(theta):  # delay(x_i, 0) is the stage point itself
            if theta == 0.0:
                return y
            return _interp(traj[:filled], -sys.Theta, h, t - theta).tolist()
        return [e.fn(y, u, hist) for e in sys.f]

    for k in range(n_fwd):
        t = k * h
        try:
            k1 = stage(t, x)
            k2 = stage(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(x, k1)])
            k3 = stage(t + 0.5 * h, [a + 0.5 * h * b for a, b in zip(x, k2)])
            k4 = stage(t + h, [a + h * b for a, b in zip(x, k3)])
        except (ArithmeticError, ValueError) as err:
            raise IntegrationError(
                f"derivative evaluation failed at t={t:.6g}: {err}") from err
        x = [a + (h / 6.0) * (b + 2.0 * c + 2.0 * d + e)
             for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, x)):
            raise IntegrationError(f"non-finite state at t={t + h:.6g}")
        traj[filled] = x
        filled += 1
    return traj[n_fwd::m_sub].copy()


PENDULUM_DELAY_RHS = ["x2", "-1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0.2) + u1"]

# name: (rhs, Theta, r, history rows); tau = 0.2 throughout
REFERENCE_PLANTS = {
    "delay-tubes": (PENDULUM_DELAY_RHS, 0.2, 0.2, 2),
    "input-delay-only": (["x2", "-1.96*sin(x1) - 1.5*x2 + u1"], 0.0, 0.2, 1),
    "zero-delay": (["x2", "-sin(delay(x1, 0)) - x2 + 0.2*delay(x1, 0)^2 + u1"],
                   0.0, 0.0, 1),
    # the 0.004 delay caps the substep below tau/steps = 0.01
    "two-delays": (["x2 - 0.5*delay(x1, 0.004)",
                    "-sin(x1) - x2 + 0.3*cos(delay(x1, 0.1)) "
                    "- 0.2*delay(x2, 0.004) + u1"], 0.1, 0.0, 3),
    "one-row-history": (PENDULUM_DELAY_RHS, 0.2, 0.2, 1),
}


def reference_plant(rhs, Theta, r) -> TimeDelaySystem:
    return TimeDelaySystem.from_strings(rhs, [-1, -1], [1, 1], [-1], [1],
                                        Theta=Theta, r=r)


@pytest.mark.parametrize("name", sorted(REFERENCE_PLANTS))
def test_method_of_steps_equals_the_interpreted_stage_loop(name):
    rhs, Theta, r, rows = REFERENCE_PLANTS[name]
    sys = reference_plant(rhs, Theta, r)
    if name == "two-delays":
        assert sys.min_positive_delay() < 0.2 / 20
    rng = np.random.default_rng(rows)
    H = rng.uniform(-1.0, 1.0, (rows, 2, 6))
    U = rng.uniform(-1.0, 1.0, (1, 6))
    batch = integrate_delay_batch(sys, H, U, 0.2)
    for j in range(H.shape[2]):
        want = reference_method_of_steps(sys, H[:, :, j], U[:, j], 0.2)
        got = integrate_delay(sys, SampledCurve(-Theta, 0.0, H[:, :, j]),
                              U[:, j], 0.2).values
        assert got.tobytes() == want.tobytes(), (name, j)
        assert batch[:, :, j].tobytes() == want.tobytes(), (name, j)


def failing_runs(sys, H, U, j):
    """The IntegrationError texts of the reference at column j, of
    integrate_delay at column j and of integrate_delay_batch."""
    texts = []
    for run in (lambda: reference_method_of_steps(sys, H[:, :, j], U[:, j], 0.2),
                lambda: integrate_delay(sys, SampledCurve(-sys.Theta, 0.0, H[:, :, j]),
                                        U[:, j], 0.2),
                lambda: integrate_delay_batch(sys, H, U, 0.2)):
        with pytest.raises(IntegrationError) as err:
            run()
        texts.append(str(err.value))
    return texts


def test_division_by_zero_at_a_later_delayed_read():
    # the history is 0 on [-0.05, 0], which the delayed read reaches at
    # t = 0.05, several steps into the period
    sys = TimeDelaySystem.from_strings(["1/delay(x1, 0.1)"], [-10], [10],
                                       [0], [0], Theta=0.1, r=0.0)
    H = np.ones((3, 1, 3))
    H[1:, 0, 1] = 0.0
    U = np.zeros((1, 3))
    want, scalar, batch = failing_runs(sys, H, U, 1)
    assert want.startswith("derivative evaluation failed at t=0.0")
    assert want.endswith(": float division by zero") and "t=0:" not in want
    assert scalar == batch == want


BLOWUP_RHS = ["1e300*1e300*(0.5 - x1) + 0*delay(x1, 0.2)", "0*x2"]


def test_a_step_to_inf_minus_inf_is_a_non_finite_state():
    # the stages reach +inf and -inf, so the step adds inf to -inf: NaN on
    # floats, an invalid operation in the vector form, which reruns the
    # failing column on floats
    sys = reference_plant(BLOWUP_RHS, 0.2, 0.0)
    H = np.zeros((1, 2, 2))
    H[0, 0] = [0.4, -0.4]
    U = np.zeros((1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        texts = failing_runs(sys, H, U, 0)
    assert texts == ["non-finite state at t=0.01"] * 3


@pytest.mark.parametrize("entry", ["integrate_delay", "integrate_delay_batch"])
def test_both_entry_points_refuse_a_fractional_input_delay(entry):
    sys = reference_plant(PENDULUM_DELAY_RHS, 0.2, 0.3)
    H = np.zeros((3, 2, 2))
    U = np.zeros((1, 2))
    with pytest.raises(ValueError) as err:
        if entry == "integrate_delay":
            integrate_delay(sys, SampledCurve(-0.2, 0.0, H[:, :, 0]), U[:, 0], 0.2)
        else:
            integrate_delay_batch(sys, H, U, 0.2)
    assert str(err.value) == ("input delay r=0.3 is not an integer multiple "
                              "of tau=0.2")


# ---------------------------------------------------------------------------
# Lipschitz estimates

def assert_batch_equals_cells(sys, cells, mode="sampled-jacobian", tau=None):
    got = estimate_lipschitz_batch(sys, cells, mode, tau)
    assert got.shape == (len(cells),)
    for k, cell in enumerate(cells):
        want = estimate_lipschitz(sys, cell, mode, tau)
        assert got[k].tobytes() == np.float64(want).tobytes(), k


def test_lipschitz_batch_on_the_fine_zoom_partition(pendulum):
    # the pendulum at eta = d = 0.1 with the center deadzone cell zoomed:
    # 528 logarithmic cells and 9 subcells
    part = Partition(pendulum.state_lo, pendulum.state_hi,
                     LogQuantizerParams(0.1, 0.1, "EQ20"))
    part = part.refined({264: ZoomQuantizerParams(1, 1.0, 0.1)})
    assert len(part.cells) == 537
    assert_batch_equals_cells(pendulum, part.cells)
    assert_batch_equals_cells(pendulum, part.cells, tau=0.2)


@pytest.mark.parametrize("name", sorted(TERMS))
def test_lipschitz_batch_for_every_function(name):
    sys = plant(TERMS[name])
    part = Partition(sys.state_lo, sys.state_hi, LogQuantizerParams(0.2, 0.4))
    assert_batch_equals_cells(sys, part.cells)
    assert_batch_equals_cells(sys, part.cells, tau=0.2)


def test_lipschitz_batch_counts_delay_columns(pendulum_delay, logparams):
    part = Partition(pendulum_delay.state_lo, pendulum_delay.state_hi, logparams)
    whole = Cell(-1, pendulum_delay.state_lo, pendulum_delay.state_hi,
                 np.zeros(2))
    assert_batch_equals_cells(pendulum_delay, part.cells + [whole])
    assert_batch_equals_cells(delay_plant("no-input-delay", pendulum_delay),
                              part.cells)


@pytest.mark.parametrize("rhs", [["1.5"], ["u1"], ["0.5", "-0.25*u1"]])
def test_lipschitz_batch_of_a_state_free_rhs(rhs):
    # vfn returns a float, not an array, for every sample point
    n = len(rhs)
    sys = ControlSystem.from_strings(rhs, [-1] * n, [1] * n, [-0.6], [0.6])
    part = Partition(sys.state_lo, sys.state_hi, LogQuantizerParams(0.2, 0.4))
    assert_batch_equals_cells(sys, part.cells)
    assert not estimate_lipschitz_batch(sys, part.cells).any()
    assert_batch_equals_cells(sys, part.cells, tau=0.2)
    assert not estimate_lipschitz_batch(sys, part.cells, tau=0.2).any()


def test_lipschitz_batch_numeric_and_empty(pendulum, logparams):
    part = Partition(pendulum.state_lo, pendulum.state_hi, logparams)
    assert_batch_equals_cells(pendulum, part.cells, 6)
    assert_batch_equals_cells(pendulum, part.cells, 6, 0.2)
    assert estimate_lipschitz_batch(pendulum, [], "sampled-jacobian").shape == (0,)
    with pytest.raises(ValueError, match="unknown mode"):
        estimate_lipschitz_batch(pendulum, part.cells, "exact")


def test_lipschitz_batch_error_names_the_first_failing_cell():
    # sqrt(0.5 - x1) is undefined on x1 > 0.5: cells 0-2 pass, and the
    # midpoint 0.5 of cell 3 = [0.4, 0.6] fails once bumped by the
    # finite-difference step; cell 4 = [0.6, 1] fails too
    sys = ControlSystem.from_strings(["sqrt(0.5 - x1) + u1"], [-1], [1],
                                     [-0.2], [0.2])
    part = Partition(sys.state_lo, sys.state_hi, LogQuantizerParams(0.2, 0.4))
    text = ("derivative evaluation failed at x=[0.500001], u=[-0.2]: "
            "math domain error")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as scalar:
            estimate_lipschitz(sys, part.cells[3])
        with pytest.raises(IntegrationError) as batch:
            estimate_lipschitz_batch(sys, part.cells)
    assert str(scalar.value) == str(batch.value) == text
    assert_batch_equals_cells(sys, part.cells[:3])
    # with tau, cell 2 = [-0.4, 0.4] grows past x1 = 0.5 and fails first
    with pytest.raises(IntegrationError) as scalar:
        estimate_lipschitz(sys, part.cells[2], tau=0.2)
    with pytest.raises(IntegrationError) as batch:
        estimate_lipschitz_batch(sys, part.cells, tau=0.2)
    assert str(scalar.value) == str(batch.value)
    assert_batch_equals_cells(sys, part.cells[:2], tau=0.2)
