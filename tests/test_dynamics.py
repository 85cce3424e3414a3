import math

import numpy as np
import pytest

from symquant.dynamics import (ControlSystem, IntegrationError, SampledCurve,
                               TimeDelaySystem, estimate_lipschitz, integrate,
                               integrate_delay)
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


def test_control_system_rejects_delay_terms():
    with pytest.raises(Exception):
        ControlSystem.from_strings(["-delay(x1, 0.1)"], [-1], [1], [0], [0])


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
    c = SampledCurve.constant(-0.3, 0.0, np.array([2.0]))
    assert c(-0.17)[0] == 2.0


# ---------------------------------------------------------------------------
# method of steps


def delayed_decay():
    return TimeDelaySystem.from_strings(["-delay(x1, 0.1)"], [-10], [10],
                                        [0], [0], Theta=0.1, r=0.0)


def test_dde_first_interval_is_exact():
    # x' = -x(t-0.1) with unit history: on [0, 0.1] the rhs is the constant
    # -1, so x(0.1) = 0.9 with no integration error at all
    sys = delayed_decay()
    hist = SampledCurve.constant(-0.1, 0.0, np.array([1.0]))
    out = integrate_delay(sys, hist, [], [0.0], 0.1)
    assert out(0.0)[0] == pytest.approx(0.9, abs=1e-14)


def test_dde_second_interval_uses_stored_history():
    # continuing the same run: x(0.2) = 0.9 - (0.1 - 0.005) = 0.805, again
    # exact because the rhs stays polynomial and interpolation is lossless
    sys = delayed_decay()
    hist = SampledCurve.constant(-0.1, 0.0, np.array([1.0]))
    mid = integrate_delay(sys, hist, [], [0.0], 0.1)
    out = integrate_delay(sys, mid, [], [0.0], 0.1)
    assert out(0.0)[0] == pytest.approx(0.805, abs=1e-12)


def test_one_row_history_is_a_constant_curve():
    # x' = -x(t - 0.1) over Theta = tau = 0.2 from the constant 1: a single
    # stored row is the same curve as two equal rows, so x(0.2) = 0.805
    sys = TimeDelaySystem.from_strings(["-delay(x1, 0.1)"], [-10], [10],
                                       [0], [0], Theta=0.2, r=0.0)
    one = integrate_delay(sys, SampledCurve(-0.2, 0.0, [[1.0]]), [], [0.0], 0.2)
    two = integrate_delay(sys, SampledCurve(-0.2, 0.0, [[1.0], [1.0]]), [],
                          [0.0], 0.2)
    assert two(0.0)[0] == pytest.approx(0.805, abs=1e-12)
    assert one.values.tobytes() == two.values.tobytes()


def test_dde_against_chained_ode():
    # x' = -x(t - 0.2) over one period of length 0.2 equals the plain ODE
    # x' = -h(t - 0.2) driven by the known history, integrated directly
    sys = TimeDelaySystem.from_strings(["-delay(x1, 0.2)"], [-10], [10],
                                       [0], [0], Theta=0.2, r=0.0)
    vals = np.linspace(2.0, 1.0, 5)[:, None]  # history decays linearly to 1
    hist = SampledCurve(-0.2, 0.0, vals)
    out = integrate_delay(sys, hist, [], [0.0], 0.2)
    # d/dt x = -(2 - 5t... the history at t-0.2 for t in [0,0.2] is the
    # stored ramp; integral of the ramp over the period is its mean * 0.2
    expect = 1.0 - 0.2 * np.mean([2.0, 1.0])
    assert out(0.0)[0] == pytest.approx(expect, abs=1e-12)


def test_theta_zero_matches_delay_free_bitwise(pendulum):
    sysd = TimeDelaySystem.from_strings(
        ["x2", "-1.96*sin(x1) - 1.5*x2 + u1"],
        [-1, -1], [1, 1], [-2.5], [2.5], Theta=0.0, r=0.0)
    hist = SampledCurve(0.0, 0.0, np.array([[-0.3, 0.2]]))
    out = integrate_delay(sysd, hist, [], [1.0], 0.2, steps=20)
    ref = integrate(pendulum, [-0.3, 0.2], [1.0], 0.2, steps=20)
    assert out.values.shape == (1, 2)
    assert out(0.0)[0] == ref[0] and out(0.0)[1] == ref[1]


def test_input_delay_uses_buffered_sample():
    sys = TimeDelaySystem.from_strings(["u1"], [-10], [10], [-5], [5],
                                       Theta=0.0, r=0.1)
    hist = SampledCurve(0.0, 0.0, np.array([[0.0]]))
    out = integrate_delay(sys, hist, [np.array([2.0])], np.array([5.0]), 0.1)
    assert out(0.0)[0] == pytest.approx(0.2, abs=1e-12)  # 2.0 * 0.1, not 5.0 * 0.1


def test_input_delay_requires_buffer():
    sys = TimeDelaySystem.from_strings(["u1"], [-10], [10], [-5], [5],
                                       Theta=0.0, r=0.2)
    hist = SampledCurve(0.0, 0.0, np.array([[0.0]]))
    with pytest.raises(ValueError):
        integrate_delay(sys, hist, [], [1.0], 0.2)


def test_history_domain_is_checked():
    sys = delayed_decay()
    bad = SampledCurve(-0.2, 0.0, np.array([[1.0], [1.0]]))  # Theta is 0.1
    with pytest.raises(ValueError):
        integrate_delay(sys, bad, [], [0.0], 0.1)


def test_history_spacing_must_divide_tau():
    sys = delayed_decay()
    hist = SampledCurve(-0.1, 0.0, np.ones((3, 1)))  # spacing 0.05
    with pytest.raises(ValueError):
        integrate_delay(sys, hist, [], [0.0], 0.12)  # 0.12 / 0.05 = 2.4


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
