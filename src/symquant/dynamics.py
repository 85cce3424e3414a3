"""Concrete plant models and fixed-step integrators.

Both plant kinds are integrated with classical RK4 by a function generated
once per system (expr.compile_rk4) that runs every step with each coordinate
in a local variable and each right-hand side inlined.  Its scalar form steps
floats and its vector form (K,) arrays, one column per trajectory, from one
source, so every column of a batch equals the single run bit for bit.

Time-delay systems use the method of steps: the substep is capped at the
smallest positive delay so every delayed argument falls in the already
computed part of the trajectory, which the kernel reads through a callback
at each stage time and stores step by step on a fine uniform grid, linearly
interpolated.  One period runs under the input active on [0, tau]; the
input delay r, a whole number of sampling periods, is applied by the
closed loop, which buffers the inputs of the last r/tau periods (sim).

The sampled-Jacobian rate, the time-delay build's L and the delay-free
build's mu, has one body as well: estimate_lipschitz runs it on the floats
of one cell and estimate_lipschitz_batch on (C,) arrays for C cells, entry
for entry bit-equal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .expr import Expression, compile_rk4, parse, validate


class IntegrationError(RuntimeError):
    pass


def _spacing(length: float, k: int) -> float:
    """The spacing of k intervals over length; 0 for a single sample."""
    return length / k if k else 0.0


def _interp(values: np.ndarray, t0: float, spacing: float, t: float) -> np.ndarray:
    """The value at time t of samples taken at t0, t0 + spacing, ...: linear
    between rows, clamped to the first and last, and the stored row itself
    at a sample time.  values is (k+1, ...); the trailing axes ride along,
    so (k+1, n, K) holds K curves on one grid."""
    if values.shape[0] == 1:
        return values[0]
    s = min(max((t - t0) / spacing, 0.0), float(values.shape[0] - 1))
    i = int(s)
    frac = s - i
    if frac == 0.0:  # a sample time: no neighbour read, nothing allocated
        return values[i]
    return (1.0 - frac) * values[i] + frac * values[i + 1]


@dataclass(frozen=True)
class SampledCurve:
    """A curve on [t0, t1] sampled on a uniform grid, linearly interpolated."""

    t0: float
    t1: float
    values: np.ndarray  # shape (k+1, n); single row means a constant point

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must be a (k+1, n) array")
        object.__setattr__(self, "values", v)
        if self.t1 < self.t0:
            raise ValueError(f"t1 < t0: [{self.t0}, {self.t1}]")
        if self.t1 == self.t0 and v.shape[0] != 1:
            raise ValueError("degenerate interval needs exactly one sample")

    @property
    def spacing(self) -> float:
        return _spacing(self.t1 - self.t0, self.values.shape[0] - 1)

    def __call__(self, t: float) -> np.ndarray:
        return _interp(self.values, self.t0, self.spacing, t)


def history_rows(values: np.ndarray, Theta: float) -> np.ndarray:
    """The rows of a history over [-Theta, 0] from its grid rows: all of
    them when Theta > 0 (one row is a constant curve), the last alone when
    Theta = 0.  Rows are on the first axis: (k+1, n) or (k+1, n, K)."""
    return values if Theta > 0.0 else values[-1:]


def history_curve(values: np.ndarray, Theta: float) -> SampledCurve:
    """The functional through one history's grid rows (history_rows); it
    starts at 0.0 - Theta, which is +0.0, not -0.0, when Theta = 0."""
    return SampledCurve(0.0 - Theta, 0.0, history_rows(values, Theta))


def _validate_rhs(f: Sequence[Expression], n: int, m: int, max_theta: float) -> None:
    if len(f) != n:
        raise ValueError(f"need {n} right-hand sides, got {len(f)}")
    for i, e in enumerate(f):
        try:
            validate(e, n, m, max_theta)
        except ValueError as err:
            raise ValueError(f"rhs[{i}]: {err}") from err


@dataclass(frozen=True)
class _Plant:
    """The fields and box checks of both plant kinds."""

    n: int
    m: int
    state_lo: np.ndarray
    state_hi: np.ndarray
    input_lo: np.ndarray
    input_hi: np.ndarray
    f: Tuple[Expression, ...]
    _rk4fn: Optional[Callable] = field(default=None, init=False, repr=False,
                                     compare=False)
    _vrk4fn: Optional[Callable] = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        for name in ("state_lo", "state_hi", "input_lo", "input_hi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if len(self.state_lo) != self.n or len(self.state_hi) != self.n:
            raise ValueError("state box dimension mismatch")
        if len(self.input_lo) != self.m or len(self.input_hi) != self.m:
            raise ValueError("input box dimension mismatch")
        if not np.all(self.state_lo < self.state_hi):
            raise ValueError("state box must have nonempty interior")
        if not np.all(self.input_lo <= self.input_hi):
            raise ValueError("input box empty")
        object.__setattr__(self, "f", tuple(self.f))

    def inside(self, points) -> np.ndarray:
        """Whether each point lies in the closed state box X, coordinates on
        the last axis: a face counts as inside, NaN as outside."""
        points = np.asarray(points, dtype=float)
        return np.all((self.state_lo <= points) & (points <= self.state_hi), axis=-1)

    @property
    def rk4(self) -> Callable:
        """Generated RK4 kernel on floats, cached on first use; see
        expr.compile_rk4 (with history callbacks for a TimeDelaySystem)."""
        if self._rk4fn is None:
            object.__setattr__(self, "_rk4fn", compile_rk4(
                self.f, self.m, False, IntegrationError, isinstance(self, TimeDelaySystem)))
        return self._rk4fn

    @property
    def vrk4(self) -> Callable:
        """The vector form of rk4: x and u are lists of (K,) arrays, one per
        coordinate, and column j of the result equals rk4 at column j of the
        arguments bit for bit.  Cached on first use."""
        if self._vrk4fn is None:
            object.__setattr__(self, "_vrk4fn", compile_rk4(
                self.f, self.m, True, IntegrationError, isinstance(self, TimeDelaySystem)))
        return self._vrk4fn

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_rk4fn"] = state["_vrk4fn"] = None  # regenerated on demand
        return state


@dataclass(frozen=True)
class ControlSystem(_Plant):
    """Delay-free plant: dims, state/input boxes, and n rhs expressions."""

    def __post_init__(self):
        super().__post_init__()
        _validate_rhs(self.f, self.n, self.m, max_theta=0.0)
        if any(e.delays() for e in self.f):
            raise ValueError("delay() terms need a TimeDelaySystem")

    @staticmethod
    def from_strings(rhs: Sequence[str], state_lo, state_hi, input_lo, input_hi) -> "ControlSystem":
        f = tuple(parse(s) for s in rhs)
        return ControlSystem(len(f), len(np.atleast_1d(input_lo)),
                             state_lo, state_hi,
                             np.atleast_1d(input_lo), np.atleast_1d(input_hi), f)


@dataclass(frozen=True)
class TimeDelaySystem(_Plant):
    """Time-delay plant: rhs may contain delay(xi, theta) terms with theta <= Theta.

    r is the input delay; it must be an integer multiple of the sampling
    period so the delayed input is a buffered sample (checked at use sites).
    xi0 is the initial functional on [-Theta, 0].
    """

    Theta: float
    r: float
    xi0: Optional[SampledCurve] = None

    def __post_init__(self):
        super().__post_init__()
        if self.Theta < 0 or self.r < 0:
            raise ValueError("Theta and r must be nonnegative")
        _validate_rhs(self.f, self.n, self.m, max_theta=self.Theta)
        if self.xi0 is not None and not self.inside(self.xi0.values).all():
            raise ValueError("xi0 leaves the state box")

    @staticmethod
    def from_strings(rhs: Sequence[str], state_lo, state_hi, input_lo, input_hi,
                     Theta: float, r: float = 0.0,
                     xi0: Optional[SampledCurve] = None) -> "TimeDelaySystem":
        f = tuple(parse(s) for s in rhs)
        return TimeDelaySystem(len(f), len(np.atleast_1d(input_lo)),
                               state_lo, state_hi,
                               np.atleast_1d(input_lo), np.atleast_1d(input_hi),
                               f, Theta, r, xi0)

    def min_positive_delay(self) -> float:
        thetas = [th for e in self.f for (_, th) in e.delays() if th > 0.0]
        return min(thetas) if thetas else math.inf

    def input_delay_periods(self, tau: float) -> int:
        """r as an integer number of sampling periods; raises if not integral."""
        k = self.r / tau
        ki = int(round(k))
        if abs(k - ki) > 1e-9:
            raise ValueError(f"input delay r={self.r} is not an integer multiple of tau={tau}")
        return ki


# ---------------------------------------------------------------------------
# delay-free RK4

DEFAULT_STEPS = 20


def integrate(sys: ControlSystem, x0, u, tau: float, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Endpoint of the trajectory from x0 under constant input u over tau.

    Fixed-step classical RK4 with step tau/steps, run by the system's
    generated kernel; x0 must have n entries and u m.  The trajectory is
    not confined to the state box; callers decide what leaving it means.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u = np.asarray(u, dtype=float).ravel().tolist()
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    if len(x0) != sys.n or len(u) != sys.m:
        raise ValueError(f"need x0 of length {sys.n} and u of length {sys.m}, "
                         f"got {len(x0)} and {len(u)}")
    try:
        x = sys.rk4(x0, u, tau / steps, steps)
    except IntegrationError as err:
        raise IntegrationError(f"{err} from x0={x0}, u={u}") from err.__cause__
    return np.array(x)


def integrate_batch(sys: ControlSystem, X, U, tau: float,
                    steps: int = DEFAULT_STEPS) -> np.ndarray:
    """integrate() for K starts at once: column j of the (n, K) result is
    integrate(sys, X[:, j], U[:, j], tau, steps), bit for bit.

    X is (n, K) and U is (m, K).  When any trajectory fails, the error is
    the one integrate() raises for the first failing column.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    if X.ndim != 2 or X.shape[0] != sys.n or U.shape != (sys.m, X.shape[1]):
        raise ValueError(f"need X of shape ({sys.n}, K) and U of shape "
                         f"({sys.m}, K), got {X.shape} and {U.shape}")
    return _vector_or_each(
        lambda: np.array(sys.vrk4(list(X), list(U), tau / steps, steps)),
        lambda j: integrate(sys, X[:, j], U[:, j], tau, steps), X.shape[1], 1)


def _vector_or_each(vector: Callable, one: Callable, count: int, axis: int):
    """vector(), the vector form of a batch of count elements, under numpy
    error handling that matches float arithmetic.  When it raises
    IntegrationError, one(j) reruns every element j on its own, so the first
    failing element raises its own error; if none fails, their results
    stand, stacked along axis."""
    try:
        # float arithmetic raises on x/0 and math functions raise outside
        # their domain; make numpy do the same, and let overflow give inf
        with np.errstate(divide="raise", invalid="raise", over="ignore"):
            return vector()
    except IntegrationError:
        return np.stack([one(j) for j in range(count)], axis=axis)


# ---------------------------------------------------------------------------
# method of steps for time-delay systems


def _method_of_steps(sys: TimeDelaySystem, values: np.ndarray, u: list,
                     tau: float, steps: int) -> np.ndarray:
    """One sampling period of the method of steps from the history `values`.

    values is (k+1, n) for one history or (k+1, n, K) for K histories, all
    on the uniform grid over [-Theta, 0]; u holds the input active on
    [0, tau], one float or (K,) array per coordinate.  Returns
    x(tau + theta) for theta in [-Theta, 0] on the history grid, (k+1, n)
    or (k+1, n, K); a single row when Theta = 0.  Both shapes run this same
    body and the two forms of the system's kernel, so every column of a
    batch equals the single run bit for bit.
    """
    sys.input_delay_periods(tau)
    if sys.Theta > 0.0 and values.shape[0] == 1:
        # one row is a constant curve: the same curve sampled at both ends
        values = np.concatenate([values, values])
    n_hist = values.shape[0] - 1  # grid intervals over [-Theta, 0]
    spacing = _spacing(sys.Theta, n_hist)
    h_hist = spacing if sys.Theta > 0.0 else tau  # tau with no history
    per = tau / h_hist
    if abs(per - round(per)) > 1e-9:
        raise ValueError(f"history spacing {h_hist:.6g} does not divide tau={tau}")
    n_tau_coarse = int(round(per))

    # fine substep: at most tau/steps, at most the smallest positive delay,
    # and an integer fraction of the history spacing
    h_des = min(tau / steps, sys.min_positive_delay())
    m_sub = max(1, int(math.ceil(h_hist / h_des - 1e-12)))
    h = h_hist / m_sub

    # samples on the fine grid from -Theta to tau, stored step by step;
    # delays read the filled rows only, as the rest is uninitialized
    n_past = n_hist * m_sub
    n_fwd = n_tau_coarse * m_sub
    traj = np.empty((n_past + n_fwd + 1,) + values.shape[1:])
    for j in range(n_past + 1):
        traj[j] = _interp(values, -sys.Theta, spacing, -sys.Theta + j * h)
    filled = n_past + 1
    past = lambda t: _interp(traj[:filled], -sys.Theta, h, t)

    def store(x: list) -> None:
        nonlocal filled
        traj[filled] = x
        filled += 1

    # one trajectory steps on floats, a batch on (K,) rows; delayed values
    # reach the expressions as floats too, so x/0 raises as in integrate()
    if traj.ndim == 2:
        sys.rk4(traj[n_past].tolist(), u, h, n_fwd, lambda t: past(t).tolist(), store)
    else:
        sys.vrk4(list(traj[n_past]), u, h, n_fwd, past, store)
    return traj[n_fwd::m_sub].copy()  # x(tau + theta) on the history grid


def integrate_delay(sys: TimeDelaySystem, history: SampledCurve, u, tau: float,
                    steps: int = DEFAULT_STEPS) -> SampledCurve:
    """Advance the functional state one sampling period under the input u.

    history is x on [-Theta, 0] on a uniform grid whose spacing divides both
    Theta and tau; a single row over Theta > 0 is a constant curve, stepped
    on the grid {-Theta, 0}.  u is the input active on [0, tau]; with an
    input delay r, that is the input chosen r/tau periods earlier, which
    the caller supplies (run_closed_loop buffers it), and r must be a whole
    number of periods.  Returns x(tau + theta) for theta in [-Theta, 0] on
    the same grid.
    """
    if abs(history.t0 - (-sys.Theta)) > 1e-9 or abs(history.t1) > 1e-9:
        raise ValueError(f"history must cover [-Theta, 0], got [{history.t0}, {history.t1}]")
    u = np.asarray(u, dtype=float).ravel().tolist()
    if len(u) != sys.m:
        raise ValueError(f"need u of length {sys.m}, got {len(u)}")
    return history_curve(_method_of_steps(sys, history.values, u, tau, steps), sys.Theta)


def integrate_delay_batch(sys: TimeDelaySystem, H, U, tau: float,
                          steps: int = DEFAULT_STEPS) -> np.ndarray:
    """integrate_delay() for K histories at once.

    H is (k+1, n, K): column j is a history on the uniform grid over
    [-Theta, 0] (one row when Theta = 0; one row is a constant history
    otherwise, as in integrate_delay).  U is (m, K): column j is the
    input active on [0, tau].  Column j of the result is
    integrate_delay(sys, SampledCurve(-Theta, 0, H[:, :, j]), U[:, j], tau,
    steps).values, bit for bit.  When any trajectory fails, the error is
    the one integrate_delay() raises for the first failing column.  An r
    that is not a whole number of periods is refused, as in integrate_delay.
    """
    H = np.asarray(H, dtype=float)
    U = np.asarray(U, dtype=float)
    if H.ndim != 3 or H.shape[0] < 1 or H.shape[1] != sys.n or \
            U.shape != (sys.m, H.shape[2]):
        raise ValueError(f"need H of shape (k+1, {sys.n}, K) and U of shape "
                         f"({sys.m}, K), got {H.shape} and {U.shape}")
    if sys.Theta == 0.0 and H.shape[0] != 1:
        raise ValueError("degenerate interval needs exactly one sample")
    return _vector_or_each(
        lambda: _method_of_steps(sys, H, list(U), tau, steps),
        lambda j: integrate_delay(sys, SampledCurve(-sys.Theta, 0.0, H[:, :, j]),
                                  U[:, j], tau, steps).values,
        H.shape[2], 2)


def interpolate_batch(values: np.ndarray, Theta: float, times) -> np.ndarray:
    """(len(times), n, K): K curves on the uniform grid over [-Theta, 0],
    values (k+1, n, K) as integrate_delay_batch returns them, at each time.
    Column j equals SampledCurve(-Theta, 0, values[:, :, j])(t) bit for bit.
    """
    spacing = _spacing(Theta, values.shape[0] - 1)
    return np.stack([_interp(values, -Theta, spacing, t) for t in times])


# ---------------------------------------------------------------------------
# Lipschitz estimation

SAFETY = 1.1
_FD_EPS = 1e-6


def _floats_finite(x: list) -> bool:
    return all(math.isfinite(v) for v in x)


def _arrays_finite(x: list) -> bool:
    return all(np.isfinite(v).all() for v in x)


def _axis_samples(lo, hi) -> list:
    return [lo, 0.5 * (lo + hi), hi]


def _check_mode(mode: str) -> None:
    if mode != "sampled-jacobian":
        raise ValueError(f"unknown mode {mode!r}")


def _lipschitz(sys: Union[ControlSystem, TimeDelaySystem], fns, lower: list,
               upper: list, finite, maximum, tau: Optional[float] = None):
    """The sampled-Jacobian rate over one cell or over C cells: L, or with
    tau mu over the grown cell (see estimate_lipschitz).

    lower and upper hold the cell bounds, one float per state coordinate
    for one cell or one (C,) array per coordinate for C cells; fns are the
    matching Expression.fn or Expression.vfn functions, finite tests a list
    of derivative values, and maximum is max or np.maximum.  Both forms run
    this body, so entry k of the batched estimate equals the one-cell
    estimate of cell k bit for bit.
    """
    delay_cols = sorted({(i - 1, th) for e in sys.f for (i, th) in e.delays()})
    n, m = sys.n, sys.m
    grids_u = [_axis_samples(float(sys.input_lo[j]), float(sys.input_hi[j])) for j in range(m)]

    def f_at(x: list, u: List[float], bumps: dict, base=None) -> list:
        # bumps: (coord, theta) -> offset on that delayed argument; delayed
        # arguments are evaluated at `base` (the unperturbed point) so state
        # and delay columns stay independent
        anchor = x if base is None else base

        def hist(theta: float):
            if not bumps:
                return anchor
            out = list(anchor)
            for (i, th), off in bumps.items():
                if th == theta:
                    out[i] = out[i] + off
            return out
        try:
            vals = [fn(x, u, hist if delay_cols else None) for fn in fns]
        except (ArithmeticError, ValueError) as err:
            raise IntegrationError(
                f"derivative evaluation failed at x={x}, u={u}: {err}") from err
        if not finite(vals):
            raise IntegrationError(f"non-finite derivative sample at x={x}, u={u}")
        return vals

    def samples():  # the 3^n grid of the cell crossed with the inputs' 3^m
        grids_x = [_axis_samples(lower[i], upper[i]) for i in range(n)]
        for xi in np.ndindex(*[3] * n):
            x = [grids_x[i][xi[i]] for i in range(n)]
            for uj in np.ndindex(*[3] * m):
                yield x, [grids_u[j][uj[j]] for j in range(m)]

    if tau is not None:  # grow the cell by 1.1*tau*max|f| on each side
        grow = SAFETY * tau * functools.reduce(
            maximum, (abs(v) for x, u in samples() for v in f_at(x, u, {})))
        lower, upper = [v - grow for v in lower], [v + grow for v in upper]

    best, measure = 0.0, -math.inf
    for x, u in samples():
        # rows[j] sums row j of |J|, state columns first; meas[j] has J_jj
        rows, meas = [0.0] * n, [0.0] * n
        for col in [(i, None) for i in range(n)] + delay_cols:
            i = col[0]
            eps = _FD_EPS * maximum(1.0, abs(x[i]))
            if col[1] is None:
                # not xp[i] += eps: an array x[i] is shared by x, xp, xm
                xp = list(x); xp[i] = x[i] + eps
                xm = list(x); xm[i] = x[i] - eps
                fp, fm = f_at(xp, u, {}, base=x), f_at(xm, u, {}, base=x)
            else:
                fp, fm = f_at(x, u, {col: +eps}), f_at(x, u, {col: -eps})
            for j in range(n):
                d = (fp[j] - fm[j]) / (2 * eps)
                rows[j] += abs(d)
                meas[j] += d if col == (j, None) else abs(d)
        best = maximum(best, functools.reduce(maximum, rows))
        measure = maximum(measure, functools.reduce(maximum, meas))
    # the margin raises the rate: 1.1 on a positive measure, 0.9 on a negative
    return best * SAFETY if tau is None else maximum(measure * SAFETY, measure * 0.9)


def _region(cells: Sequence, tau: Optional[float]) -> Tuple[np.ndarray, np.ndarray]:
    """(C, n) bounds sampled for each cell: the cell, joined with tau by its
    quantized point, which starts the nominal trajectory."""
    lower = np.array([c.lower for c in cells], dtype=float)
    upper = np.array([c.upper for c in cells], dtype=float)
    if tau is None:
        return lower, upper
    q = np.array([c.quantized_point for c in cells], dtype=float)
    return np.minimum(lower, q), np.maximum(upper, q)


def estimate_lipschitz(sys: Union[ControlSystem, TimeDelaySystem], cell,
                       mode: Union[str, float] = "sampled-jacobian",
                       tau: Optional[float] = None) -> float:
    """Growth rate of f in the state over one cell.

    mode 'sampled-jacobian' takes the Jacobian by central differences on
    the 3^n grid of a box's corners and midpoints, crossed with the 3^m
    grid of the input box.  Without tau it returns L, the samples' largest
    infinity-norm over the cell times 1.1; delayed arguments count as
    independent columns, so L bounds the increment in the supremum norm of
    the functional.  The time-delay build's rate is this L.

    With tau it returns mu, the delay-free build's rate: the samples'
    largest infinity-norm matrix measure max_j (J_jj + sum_{i != j} |J_ji|)
    times 1.1 when positive, 0.9 when negative, over the box of the cell
    and its quantized point q grown by 1.1*tau*max|f| on each side (max|f|
    from that box's samples).  Two solutions in the box part at most like
    e^(mu t) (Dahlquist; Lozinskii), so e^(mu tau) times the cell's largest
    spread bounds every successor's distance from q's.  A numeric mode is
    the rate as given.  estimate_lipschitz_batch runs the same body over
    many cells at once.
    """
    if isinstance(mode, (int, float)):
        return float(mode)
    _check_mode(mode)
    lower, upper = _region([cell], tau)
    return float(_lipschitz(sys, [e.fn for e in sys.f], lower[0].tolist(),
                            upper[0].tolist(), _floats_finite, max, tau))


def estimate_lipschitz_batch(sys: Union[ControlSystem, TimeDelaySystem],
                             cells: Sequence,
                             mode: Union[str, float] = "sampled-jacobian",
                             tau: Optional[float] = None) -> np.ndarray:
    """estimate_lipschitz() for C cells at once: entry k of the (C,) result
    is estimate_lipschitz(sys, cells[k], mode, tau), bit for bit.  The
    delay-free build takes every cell's rate mu from here, with tau.

    Each coordinate of the sample points is one (C,) array, one column per
    cell.  When any cell fails, the error is the one estimate_lipschitz()
    raises for the first failing cell.
    """
    if isinstance(mode, (int, float)):
        return np.full(len(cells), float(mode))
    _check_mode(mode)
    if not cells:
        return np.empty(0)
    lower, upper = _region(cells, tau)
    return _vector_or_each(
        lambda: _lipschitz(sys, [e.vfn for e in sys.f], list(lower.T),
                           list(upper.T), _arrays_finite, np.maximum, tau),
        lambda k: estimate_lipschitz(sys, cells[k], mode, tau), len(cells), 0)
