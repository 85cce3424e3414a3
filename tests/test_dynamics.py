import math
import pickle

import numpy as np
import pytest

from symquant import dynamics
from symquant.dynamics import (ControlSystem, IntegrationError, SampledCurve,
                               TimeDelaySystem, estimate_lipschitz, integrate,
                               integrate_batch, integrate_delay,
                               integrate_delay_batch)
from symquant.expr import FUNCTIONS, Binary, Unary
from symquant.quantizers import Cell


def decay():
    return ControlSystem.from_strings(["-x1"], [-10], [10], [0], [0])


# ---------------------------------------------------------------------------
# fixed-step RK4


def test_linear_decay_endpoint():
    x = integrate(decay(), [1.0], [0.0], 0.2)
    assert x[0] == pytest.approx(math.exp(-0.2), abs=1e-10)
    assert x[0] == pytest.approx(0.8187307530779818, abs=1e-10)


def test_pendulum_endpoint_from_origin(pendulum):
    # independently computed reference for x' = (x2, -1.96 sin x1 - 1.5 x2 + u)
    # from (0,0) with u = 1.4 over one period
    x = integrate(pendulum, [0.0, 0.0], [1.4], 0.2)
    assert x[0] == pytest.approx(0.02523589, abs=1e-7)
    assert x[1] == pytest.approx(0.23875935, abs=1e-7)


def test_endpoint_matches_adaptive_reference(pendulum):
    # cross-check against an adaptive solver driven to much tighter
    # tolerances than our fixed grid
    from scipy.integrate import solve_ivp
    rhs = lambda t, x: [x[1], -1.96 * math.sin(x[0]) - 1.5 * x[1] + 0.7]
    ref = solve_ivp(rhs, (0.0, 1.0), [-0.48, 0.0], rtol=1e-11, atol=1e-12)
    ours = integrate(pendulum, [-0.48, 0.0], [0.7], 1.0, steps=50)
    assert np.max(np.abs(ours - ref.y[:, -1])) < 1e-8


def test_fourth_order_error_reduction():
    # on x' = -x the global error must shrink by ~2^4 when the step halves
    exact = math.exp(-1.0)
    err4 = abs(integrate(decay(), [1.0], [0.0], 1.0, steps=4)[0] - exact)
    err8 = abs(integrate(decay(), [1.0], [0.0], 1.0, steps=8)[0] - exact)
    assert err4 / err8 >= 8.0


def test_semigroup_property():
    sys = ControlSystem.from_strings(["x2", "-sin(x1) - 0.3*x2 + u1"],
                                     [-5, -5], [5, 5], [-2], [2])
    x_mid = integrate(sys, [0.4, -0.2], [0.7], 0.1, steps=10)
    x_two = integrate(sys, x_mid, [0.7], 0.1, steps=10)
    x_one = integrate(sys, [0.4, -0.2], [0.7], 0.2, steps=20)
    assert np.max(np.abs(x_two - x_one)) < 1e-9


def test_integrate_rejects_bad_steps():
    with pytest.raises(ValueError):
        integrate(decay(), [1.0], [0.0], 0.2, steps=0)


def test_integrate_flags_blowup():
    sys = ControlSystem.from_strings(["x1^2"], [-10], [10], [0], [0])
    with pytest.raises(IntegrationError):
        integrate(sys, [5.0], [0.0], 10.0, steps=50)


@pytest.mark.parametrize("x0,u", [
    ([0.1, 0.2], [0.0, 5.0]),       # an extra input coordinate
    ([0.1, 0.2], []),               # no input
    ([0.1], [0.0]),                 # a missing state coordinate
    ([0.1, 0.2, 0.3], [0.0]),       # an extra state coordinate
])
def test_integrate_checks_argument_lengths(pendulum, x0, u):
    with pytest.raises(ValueError) as err:
        integrate(pendulum, x0, u, 0.2)
    assert str(err.value) == (f"need x0 of length 2 and u of length 1, "
                              f"got {len(x0)} and {len(u)}")


# ---------------------------------------------------------------------------
# the generated RK4 kernel against a textbook RK4


def textbook_rk4(sys: ControlSystem, x0, u, tau: float, steps: int) -> list:
    """The states after each of `steps` classical RK4 steps, one expression
    at a time through Expression.fn on floats."""
    h = tau / steps
    u = [float(v) for v in u]
    x = [float(v) for v in x0]

    def f(y):
        return [e.fn(y, u, None) for e in sys.f]

    states = []
    for _ in range(steps):
        k1 = f(x)
        k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
        k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
        k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
        x = [xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
             for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        states.append(x)
    return states


# every (n, m) with n in 1..3 and m in 1..2; together the right-hand sides
# use every FUNCTIONS member, '^', unary minus and division
TEXTBOOK_PLANTS = [
    (["-sin(x1) + u1"], 1),
    (["-x1/(2 + cos(u2)) + u1"], 2),
    (["x2", "-tan(0.5*x1) - exp(-x2^2)*x2 + u1"], 1),
    (["x2", "-1.96*sin(x1) - 1.5*x2 + u1*cos(u2)"], 2),
    (["x2 - x3", "-abs(x1)*x1 + u1", "sqrt(1 + x3^2) - 1 - x2/3"], 1),
    (["-x1^3 + x2", "-abs(x3)^1.5 + u1", "-(x1 - x3)/(1 + x2^2) + u2"], 2),
]


def textbook_plant(rhs, m: int) -> ControlSystem:
    n = len(rhs)
    return ControlSystem.from_strings(rhs, [-1] * n, [1] * n, [-1] * m, [1] * m)


def test_textbook_plants_cover_every_case():
    ops, dims = set(), set()

    def walk(node):
        if isinstance(node, (Unary, Binary)):
            ops.add(node.op)
        if isinstance(node, Unary):
            walk(node.arg)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)

    for rhs, m in TEXTBOOK_PLANTS:
        sys = textbook_plant(rhs, m)
        dims.add((sys.n, sys.m))
        for e in sys.f:
            walk(e.root)
    assert set(FUNCTIONS) | {"neg", "/", "^"} <= ops
    assert dims == {(n, m) for n in (1, 2, 3) for m in (1, 2)}


@pytest.mark.parametrize("K", [1, 7])
@pytest.mark.parametrize("rhs,m", TEXTBOOK_PLANTS, ids=lambda v: str(v))
def test_kernel_equals_textbook_rk4_bitwise(rhs, m, K):
    sys = textbook_plant(rhs, m)
    rng = np.random.default_rng(len(rhs) * 10 + m)
    X = rng.uniform(-1.0, 1.0, (sys.n, K))
    U = rng.uniform(-1.0, 1.0, (m, K))
    batch = integrate_batch(sys, X, U, 0.2, 20)
    for j in range(K):
        want = np.array(textbook_rk4(sys, X[:, j], U[:, j], 0.2, 20)[-1])
        assert integrate(sys, X[:, j], U[:, j], 0.2, 20).tobytes() == want.tobytes()
        assert batch[:, j].tobytes() == want.tobytes(), j


def test_evaluation_failure_text():
    sys = ControlSystem.from_strings(["1/x1 + u1"], [-10], [10], [0], [1])
    with pytest.raises(IntegrationError) as err:
        integrate(sys, [0], [0], 0.2)
    assert str(err.value) == ("derivative evaluation failed at t=0: float "
                              "division by zero from x0=[0.0], u=[0.0]")
    assert isinstance(err.value.__cause__, ZeroDivisionError)
    # two failing columns: the batch raises the text of the first
    with pytest.raises(IntegrationError) as batch:
        integrate_batch(sys, [[0.5, 0.0, 0.0]], [[0.0, 1.0, 0.0]], 0.2)
    assert str(batch.value) == ("derivative evaluation failed at t=0: float "
                                "division by zero from x0=[0.0], u=[1.0]")


def test_blowup_text_names_the_first_non_finite_step():
    # x' = x^2 from 5 blows up at t = 0.2; x1*x1 overflows to inf where
    # x1^2 would raise OverflowError
    sys = ControlSystem.from_strings(["x1*x1"], [-10], [10], [0], [0])
    states = textbook_rk4(sys, [5.0], [0.0], 1.0, 50)
    first = next(k for k, x in enumerate(states) if not math.isfinite(x[0]))
    assert first == 12
    with pytest.raises(IntegrationError) as err:
        integrate(sys, [5.0], [0.0], 1.0, 50)
    assert str(err.value) == "non-finite state at t=0.26 from x0=[5.0], u=[0.0]"
    assert f"t={(first + 1) * 0.02:.6g} " in str(err.value)
    # from 6 it blows up earlier, but column 1 is the first that fails
    with pytest.raises(IntegrationError) as batch:
        integrate_batch(sys, [[0.5, 5.0, 6.0]], [[0.0, 0.0, 0.0]], 1.0, 50)
    assert str(batch.value) == str(err.value)


def test_pickle_drops_and_regenerates_the_kernel():
    sys = ControlSystem.from_strings(["x2", "-1.96*sin(x1) - 1.5*x2 + u1"],
                                     [-1, -1], [1, 1], [-2.5], [2.5])
    X = np.array([[-0.3, 0.4], [0.2, -0.1]])
    U = np.array([[1.0, -2.0]])
    want = integrate(sys, X[:, 0], U[:, 0], 0.2)
    want_batch = integrate_batch(sys, X, U, 0.2)
    assert sys._rk4fn is not None and sys._vrk4fn is not None
    copy = pickle.loads(pickle.dumps(sys))
    assert copy._rk4fn is None and copy._vrk4fn is None
    assert integrate(copy, X[:, 0], U[:, 0], 0.2).tobytes() == want.tobytes()
    assert integrate_batch(copy, X, U, 0.2).tobytes() == want_batch.tobytes()
    assert copy._rk4fn is not None and copy._rk4fn is not sys._rk4fn


def test_time_delay_plant_caches_and_pickles_its_kernels(monkeypatch):
    # each kernel form is generated once per plant, in the method of steps'
    # form, and dropped on pickling like a ControlSystem's
    calls = []
    compile_rk4 = dynamics.compile_rk4

    def counted(*args):
        calls.append(args[2:])
        return compile_rk4(*args)
    monkeypatch.setattr(dynamics, "compile_rk4", counted)
    sys = TimeDelaySystem.from_strings(
        ["x2", "-1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0.2) + u1"],
        [-1, -1], [1, 1], [-2.5], [2.5], Theta=0.2, r=0.2)
    H = np.array([[[-0.3, 0.4], [0.2, -0.1]], [[-0.2, 0.5], [0.1, 0.0]]])
    U = np.array([[1.0, -2.0]])
    hist = SampledCurve(-0.2, 0.0, H[:, :, 0])
    want = integrate_delay(sys, hist, U[:, 0], 0.2).values
    want_batch = integrate_delay_batch(sys, H, U, 0.2)
    assert integrate_delay(sys, hist, U[:, 0], 0.2).values.tobytes() == want.tobytes()
    assert integrate_delay_batch(sys, H, U, 0.2).tobytes() == want_batch.tobytes()
    assert calls == [(False, IntegrationError, True), (True, IntegrationError, True)]
    copy = pickle.loads(pickle.dumps(sys))
    assert copy._rk4fn is None and copy._vrk4fn is None
    assert integrate_delay(copy, hist, U[:, 0], 0.2).values.tobytes() == want.tobytes()
    assert integrate_delay_batch(copy, H, U, 0.2).tobytes() == want_batch.tobytes()
    assert len(calls) == 4 and copy._rk4fn is not sys._rk4fn


@pytest.mark.parametrize("plant", [ControlSystem, TimeDelaySystem])
@pytest.mark.parametrize("box, message", [
    (([-1, -1], [1, 1], [-1], [1]), "state box dimension mismatch"),
    (([-1], [1], [-1, -1], [1]), "input box dimension mismatch"),
    (([1], [-1], [-1], [1]), "state box must have nonempty interior"),
    (([0], [0], [-1], [1]), "state box must have nonempty interior"),
    (([-1], [1], [1], [-1]), "input box empty"),
], ids=["state-dims", "input-dims", "state-inverted", "state-flat",
        "input-inverted"])
def test_both_plant_kinds_check_their_boxes(plant, box, message):
    delay = {"Theta": 0.2} if plant is TimeDelaySystem else {}
    with pytest.raises(ValueError, match=message):
        plant.from_strings(["x1 + u1"], *box, **delay)


@pytest.mark.parametrize("x0", [math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0),
                                math.nan])
def test_xi0_must_lie_in_the_closed_state_box(x0):
    # the build locates xi0 exactly, so no tolerance: one ulp outside fails
    # here, where the plant is made, not in Partition.locate
    def plant(v):
        return TimeDelaySystem.from_strings(
            ["0*delay(x1, 0.2) + u1"], [-1], [1], [-1], [1], Theta=0.2,
            xi0=SampledCurve(-0.2, 0.0, np.tile([v], (2, 1))))

    with pytest.raises(ValueError, match="xi0 leaves the state box"):
        plant(x0)
    assert plant(1.0).xi0(0.0).tolist() == [1.0]


@pytest.mark.parametrize("kind", ["delayfree", "timedelay"])
def test_inside_is_the_closed_state_box(pendulum, pendulum_delay, kind):
    plant = pendulum if kind == "delayfree" else pendulum_delay  # X = [-1, 1]^2
    edge = math.nextafter(1.0, 2.0)
    pts = np.array([[1.0, -1.0], [0.0, 0.0], [0.0, edge], [np.nan, 0.0],
                    [0.0, np.inf], [-np.inf, 0.0], [-1.0, 1.0]])
    want = [True, True, False, False, False, False, True]
    assert plant.inside(pts[0]).shape == () and plant.inside(pts[0])
    assert not plant.inside(pts[3])
    assert plant.inside(pts).tolist() == want  # (K, n)
    knots = np.stack([pts, pts[::-1]], axis=1)  # (K, J, n)
    assert plant.inside(knots).tolist() == [list(w) for w in zip(want, want[::-1])]


def test_control_system_rejects_delay_terms():
    with pytest.raises(Exception):
        ControlSystem.from_strings(["-delay(x1, 0.1)"], [-1], [1], [0], [0])


def test_control_system_rejects_zero_delay_terms():
    # the RK4 kernel has no history; delay(x1, 0) belongs to TimeDelaySystem
    with pytest.raises(ValueError, match="TimeDelaySystem"):
        ControlSystem.from_strings(["-delay(x1, 0)"], [-1], [1], [0], [0])


# ---------------------------------------------------------------------------
# sampled curves


def test_sampled_curve_interpolates_linearly():
    c = SampledCurve(-0.2, 0.0, np.array([[0.0, 1.0], [1.0, 3.0]]))
    assert c(-0.2) == pytest.approx([0.0, 1.0])
    assert c(0.0) == pytest.approx([1.0, 3.0])
    assert c(-0.1) == pytest.approx([0.5, 2.0])
    # clamped outside the domain
    assert c(0.5) == pytest.approx([1.0, 3.0])


def test_sampled_curve_constant():
    # one row over t0 < t1 is a constant curve
    c = SampledCurve(-0.3, 0.0, [[2.0]])
    assert c(-0.17)[0] == 2.0 and c(0.0)[0] == 2.0


# ---------------------------------------------------------------------------
# method of steps


def delayed_decay():
    return TimeDelaySystem.from_strings(["-delay(x1, 0.1)"], [-10], [10],
                                        [0], [0], Theta=0.1, r=0.0)


def test_dde_first_interval_is_exact():
    # x' = -x(t-0.1) with unit history: on [0, 0.1] the rhs is the constant
    # -1, so x(0.1) = 0.9 with no integration error at all
    sys = delayed_decay()
    hist = SampledCurve(-0.1, 0.0, np.tile([1.0], (2, 1)))
    out = integrate_delay(sys, hist, [0.0], 0.1)
    assert out(0.0)[0] == pytest.approx(0.9, abs=1e-14)


def test_dde_second_interval_uses_stored_history(monkeypatch):
    # continuing the same run: x(0.2) = 0.9 - (0.1 - 0.005) = 0.805, again
    # exact because the rhs stays polynomial and interpolation is lossless
    sys = delayed_decay()
    hist = SampledCurve(-0.1, 0.0, np.tile([1.0], (2, 1)))
    mid = integrate_delay(sys, hist, [0.0], 0.1)
    out = integrate_delay(sys, mid, [0.0], 0.1)
    assert out(0.0)[0] == pytest.approx(0.805, abs=1e-12)
    # a delay as short as the substep reads the step just stored, and never
    # a row not yet computed: poisoning the unfilled rows changes no bit
    short = TimeDelaySystem.from_strings(["-delay(x1, 0.005)"], [-10], [10],
                                         [0], [0], Theta=0.005, r=0.0)
    hist = SampledCurve(-0.005, 0.0, np.tile([1.0], (2, 1)))
    want = integrate_delay(short, hist, [0.0], 0.1).values
    empty = np.empty
    monkeypatch.setattr(np, "empty",
                        lambda *a, **k: np.full_like(empty(*a, **k), np.nan))
    assert integrate_delay(short, hist, [0.0], 0.1).values.tobytes() == want.tobytes()


def test_one_row_history_is_a_constant_curve():
    # x' = -x(t - 0.1) over Theta = tau = 0.2 from the constant 1: a single
    # stored row is the same curve as two equal rows, so x(0.2) = 0.805
    sys = TimeDelaySystem.from_strings(["-delay(x1, 0.1)"], [-10], [10],
                                       [0], [0], Theta=0.2, r=0.0)
    one = integrate_delay(sys, SampledCurve(-0.2, 0.0, [[1.0]]), [0.0], 0.2)
    two = integrate_delay(sys, SampledCurve(-0.2, 0.0, [[1.0], [1.0]]), [0.0], 0.2)
    assert two(0.0)[0] == pytest.approx(0.805, abs=1e-12)
    assert one.values.tobytes() == two.values.tobytes()


def test_dde_against_chained_ode():
    # x' = -x(t - 0.2) over one period of length 0.2 equals the plain ODE
    # x' = -h(t - 0.2) driven by the known history, integrated directly
    sys = TimeDelaySystem.from_strings(["-delay(x1, 0.2)"], [-10], [10],
                                       [0], [0], Theta=0.2, r=0.0)
    vals = np.linspace(2.0, 1.0, 5)[:, None]  # history decays linearly to 1
    hist = SampledCurve(-0.2, 0.0, vals)
    out = integrate_delay(sys, hist, [0.0], 0.2)
    # d/dt x = -(2 - 5t... the history at t-0.2 for t in [0,0.2] is the
    # stored ramp; integral of the ramp over the period is its mean * 0.2
    expect = 1.0 - 0.2 * np.mean([2.0, 1.0])
    assert out(0.0)[0] == pytest.approx(expect, abs=1e-12)


def test_theta_zero_matches_delay_free_bitwise(pendulum):
    sysd = TimeDelaySystem.from_strings(
        ["x2", "-1.96*sin(x1) - 1.5*x2 + u1"],
        [-1, -1], [1, 1], [-2.5], [2.5], Theta=0.0, r=0.0)
    hist = SampledCurve(0.0, 0.0, np.array([[-0.3, 0.2]]))
    out = integrate_delay(sysd, hist, [1.0], 0.2, steps=20)
    ref = integrate(pendulum, [-0.3, 0.2], [1.0], 0.2, steps=20)
    assert out.values.shape == (1, 2)
    assert out(0.0)[0] == ref[0] and out(0.0)[1] == ref[1]


def test_history_domain_is_checked():
    sys = delayed_decay()
    bad = SampledCurve(-0.2, 0.0, np.array([[1.0], [1.0]]))  # Theta is 0.1
    with pytest.raises(ValueError):
        integrate_delay(sys, bad, [0.0], 0.1)


def test_history_spacing_must_divide_tau():
    sys = delayed_decay()
    hist = SampledCurve(-0.1, 0.0, np.ones((3, 1)))  # spacing 0.05
    with pytest.raises(ValueError):
        integrate_delay(sys, hist, [0.0], 0.12)  # 0.12 / 0.05 = 2.4


def test_r_must_be_multiple_of_tau():
    sys = TimeDelaySystem.from_strings(["u1"], [-10], [10], [-5], [5],
                                       Theta=0.0, r=0.15)
    with pytest.raises(ValueError):
        sys.input_delay_periods(0.2)


# ---------------------------------------------------------------------------
# Lipschitz constants


def box_cell():
    return Cell(0, np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                np.array([0.0, 0.0]))


def test_numeric_mode_is_verbatim(pendulum):
    assert estimate_lipschitz(pendulum, box_cell(), 6.0) == 6.0
    assert estimate_lipschitz(pendulum, box_cell(), 2) == 2.0


def test_sampled_jacobian_bound_for_pendulum(pendulum):
    # max row sum of |J| is 1.96 + 1.5 = 3.46 (attained at x1 = 0),
    # times the 1.1 safety factor
    L = estimate_lipschitz(pendulum, box_cell(), "sampled-jacobian")
    assert 3.46 <= L <= 3.81


def test_sampled_jacobian_sees_cell_extent(pendulum):
    # on a cell away from x1=0 the sine curvature lowers the row sum
    off = Cell(0, np.array([0.6, -0.4]), np.array([1.0, 0.4]),
               np.array([0.72, 0.0]))
    L_off = estimate_lipschitz(pendulum, off, "sampled-jacobian")
    L_all = estimate_lipschitz(pendulum, box_cell(), "sampled-jacobian")
    assert L_off <= L_all


def test_unknown_mode_rejected(pendulum):
    with pytest.raises(ValueError):
        estimate_lipschitz(pendulum, box_cell(), "exact")


def test_lipschitz_falsification_200_pairs(pendulum):
    # the estimate must actually dominate finite differences of f
    L = estimate_lipschitz(pendulum, box_cell(), "sampled-jacobian")
    rng = np.random.default_rng(21)
    fns = [e.fn for e in pendulum.f]
    for _ in range(200):
        x = rng.uniform(-1, 1, size=2)
        y = rng.uniform(-1, 1, size=2)
        u = rng.uniform(-2.5, 2.5, size=1)
        fx = np.array([fn(list(x), list(u), None) for fn in fns])
        fy = np.array([fn(list(y), list(u), None) for fn in fns])
        assert np.max(np.abs(fx - fy)) <= L * np.max(np.abs(x - y)) + 1e-9


def test_lipschitz_counts_delay_columns(pendulum_delay):
    # row sum for the delayed plant adds the |alpha| = 0.1 column:
    # 1.96 + 1.5 + 0.1 = 3.56 before the safety factor
    L = estimate_lipschitz(pendulum_delay, box_cell(), "sampled-jacobian")
    assert 3.56 <= L <= 3.92


def test_delay_column_not_cancelled_against_state_column():
    # f = -x1 + delay(x1, 0.1): the true increment bound needs |−1| + |1| = 2,
    # not |−1 + 1| = 0; a naive perturbation of both at once underestimates
    sys = TimeDelaySystem.from_strings(["-x1 + delay(x1, 0.1)"], [-1], [1],
                                       [0], [0], Theta=0.1, r=0.0)
    cell = Cell(0, np.array([-1.0]), np.array([1.0]), np.array([0.0]))
    L = estimate_lipschitz(sys, cell, "sampled-jacobian")
    assert L >= 2.0


# ---------------------------------------------------------------------------
# the delay-free build's rate: the matrix measure over the grown cell


def test_measure_of_the_pendulum(pendulum):
    # J = [[0, 1], [-1.96 cos x1, -1.5]]: row 1 gives 0 + 1, row 2 gives
    # -1.5 + 1.96|cos x1| <= 0.46, so mu = 1, times 1.1; L is 3.46 * 1.1
    mu = estimate_lipschitz(pendulum, box_cell(), "sampled-jacobian", 0.2)
    assert mu == pytest.approx(1.1, abs=1e-6)
    assert mu < estimate_lipschitz(pendulum, box_cell(), "sampled-jacobian")


def test_measure_of_a_contracting_plant_takes_the_0_9_margin():
    # J = [[-2, 0.5], [0.5, -2]]: mu = -1.5 on every row, times 0.9
    sys = ControlSystem.from_strings(["-2*x1 + 0.5*x2 + u1", "0.5*x1 - 2*x2"],
                                     [-1, -1], [1, 1], [-0.6], [0.6])
    mu = estimate_lipschitz(sys, box_cell(), "sampled-jacobian", 0.2)
    assert mu == pytest.approx(-1.35, abs=1e-6)


def test_measure_is_taken_over_the_grown_cell():
    # f = x1^2 on the cell [0, 0.1]: |f| <= 0.01 on the cell, so the cell
    # grows by 1.1*0.2*0.01 on each side and J = 2*x1 is sampled up to
    # x1 = 0.1022; the rate is 2 * 0.1022 * 1.1
    sys = ControlSystem.from_strings(["x1*x1 + 0*u1"], [-1], [1], [0], [0])
    cell = Cell(0, np.array([0.0]), np.array([0.1]), np.array([0.05]))
    mu = estimate_lipschitz(sys, cell, "sampled-jacobian", 0.2)
    assert mu == pytest.approx(2 * (0.1 + 1.1 * 0.2 * 0.01) * 1.1, rel=1e-6)
    # without tau: the Lipschitz constant over the cell itself
    L = estimate_lipschitz(sys, cell, "sampled-jacobian")
    assert L == pytest.approx(2 * 0.1 * 1.1, rel=1e-6)


def test_measure_region_holds_the_quantized_point():
    # a quantized point outside its cell starts the nominal trajectory, so
    # the rate is sampled up to it: J = 2*x1 at x1 = 0.5, the grown end
    sys = ControlSystem.from_strings(["x1*x1 + 0*u1"], [-1], [1], [0], [0])
    inside = Cell(0, np.array([0.0]), np.array([0.1]), np.array([0.05]))
    outside = Cell(0, np.array([0.0]), np.array([0.1]), np.array([0.5]))
    mu_in = estimate_lipschitz(sys, inside, "sampled-jacobian", 0.2)
    mu_out = estimate_lipschitz(sys, outside, "sampled-jacobian", 0.2)
    assert mu_out == pytest.approx(2 * (0.5 + 1.1 * 0.2 * 0.25) * 1.1, rel=1e-6)
    assert mu_out > mu_in


def test_numeric_mode_is_the_rate_as_given(pendulum):
    assert estimate_lipschitz(pendulum, box_cell(), 6.0, 0.2) == 6.0
