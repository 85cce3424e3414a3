"""Feedback refinement relation: exact finite check and randomized witnesses.

The relation holds from T1 to T2 under a map F when (i) every input enabled
at x2 = F(x1) is enabled at x1, and (ii) applying such an input from x1
leads only to states whose image under F is an abstract successor of x2.
For a finite pair of systems this is checked exhaustively.  Against the
concrete plant it is tested by sampling: concrete states are drawn inside
abstract states, advanced one sampling period, and their quantized image is
checked against the abstract successor set.  A witness takes the model
alone: it integrates the plant the model was built from (its build
context) and its map is the model's partition.  The tube witness integrates
only the samples and reads the nominal knot points and growth radii that
the build kept (ts.endpoints, ts.radius).  Zero violations is the
executable form of the soundness claim; a deliberately broken model
(zero growth radius) must produce violations, guarding the test itself.

The witnesses take every random number from Python's
``random.Random(seed).random()`` stream (``_draws``), one row of draws per
sample.  Python keeps that stream fixed for an integer seed, so a report
depends on the seed alone, and numpy already loads ``random``, so drawing
from it costs no import (numpy.random would add about 6 MiB).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .abstraction import (SplineTube, TransitionSystem, _boxes_meet,
                          _locate_inside, _positions, knot_points, knot_tube,
                          tube_knot_points)
from .dynamics import SampledCurve, history_rows, integrate_batch
from .model_io import _fmt_vec
from .quantizers import Partition


@dataclass
class RefinementMap:
    """Point location into abstract states: cells, or tubes via knot cells."""

    partition: Partition
    tube_index: Optional[Dict[SplineTube, int]] = None
    N: Optional[int] = None

    @staticmethod
    def from_ts(ts: TransitionSystem) -> "RefinementMap":
        if ts.partition is None:
            raise ValueError("model carries no partition; rebuild from config")
        if ts.kind == "timedelay":
            index = {s.tube: s.id for s in ts.states}
            return RefinementMap(ts.partition, index, ts.states[0].tube.N)
        return RefinementMap(ts.partition)

    def locate(self, x) -> int:
        return self.partition.locate(x)

    def knot_points(self, curve: SampledCurve) -> np.ndarray:
        """The (N+2, n) points psi2 locates for a functional of this model."""
        if self.tube_index is None or self.N is None:
            raise ValueError("map was not built over a tube model")
        return knot_points(curve, self.N)

    def tube_at(self, points: np.ndarray) -> Optional[int]:
        """Tube id of knot_points, or None if their knot tuple is undiscovered."""
        return self.tube_index.get(knot_tube(points, self.partition))


@dataclass
class Violation:
    x: np.ndarray
    u: np.ndarray
    x_next: object
    abstract_state: int
    observed: object
    allowed: Tuple[int, ...]
    detail: str = ""


@dataclass
class FrrReport:
    samples: int
    checked: int
    skipped: int
    violations: List[Violation]
    seed: int

    @property
    def passed(self) -> bool:
        """No violation among at least one checked sample: a report that
        checked nothing shows nothing, so it does not pass."""
        return self.checked > 0 and not self.violations

    def as_text(self) -> str:
        lines = [f"frr-report seed={self.seed} samples={self.samples} "
                 f"checked={self.checked} skipped={self.skipped} "
                 f"violations={len(self.violations)}"]
        for i, v in enumerate(self.violations):
            x, u = _fmt_vec(np.ravel(v.x)), _fmt_vec(np.ravel(v.u))
            lines.append(f"violation {i}: state={v.abstract_state} x=[{x}] u=[{u}] "
                         f"observed={v.observed} allowed={list(v.allowed)} {v.detail}".rstrip())
        return "\n".join(lines)


@dataclass
class Counterexample:
    x1: int
    x2: int
    input: Optional[np.ndarray]
    kind: str  # 'inputs' or 'successors'
    detail: str


def _input_map(T1: TransitionSystem, T2: TransitionSystem) -> Dict[int, int]:
    """T2 input id -> T1 input id by exact vector equality; U2 must be in U1."""
    mapping = {}
    for i2, u in enumerate(T2.inputs):
        i1 = T1.input_id_of(u)
        if i1 is None:
            raise ValueError(
                f"input set not nested: T2 input {u.tolist()} missing from T1")
        mapping[i2] = i1
    return mapping


def check_frr_finite(T1: TransitionSystem, T2: TransitionSystem,
                     F: Dict[int, int]) -> Tuple[bool, Optional[Counterexample]]:
    """Exhaustive check of the relation over all pairs related by F."""
    imap = _input_map(T1, T2)
    for x1, x2 in F.items():
        if x1 not in T1._pos or x2 not in T2._pos:
            raise ValueError(f"F references unknown state pair ({x1}, {x2})")
    for x1, x2 in sorted(F.items()):
        enabled1 = set(T1.enabled(x1))
        for i2 in T2.enabled(x2):
            i1 = imap[i2]
            if i1 not in enabled1:
                return False, Counterexample(
                    x1, x2, T2.inputs[i2], "inputs",
                    f"input enabled at abstract {x2} but not at {x1}")
            allowed = set(T2.successors(x2, i2))
            for s in T1.successors(x1, i1):
                if s not in F:
                    raise ValueError(f"F undefined on successor state {s}")
                if F[s] not in allowed:
                    return False, Counterexample(
                        x1, x2, T2.inputs[i2], "successors",
                        f"F({s})={F[s]} not among successors {sorted(allowed)}")
    return True, None


# ---------------------------------------------------------------------------
# sampled witnesses against the concrete system


def _ctx_of(ts: TransitionSystem):
    if ts._ctx is None:
        raise ValueError("model carries no build context; rebuild from config")
    return ts._ctx


def _draws(seed: int, k: int, width: int) -> np.ndarray:
    """A (k, width) array of random.Random(seed).random() values, filled
    row by row: one row per sample.  Python keeps this stream fixed for an
    integer seed, so a report depends on the seed alone."""
    if not isinstance(seed, int):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if k < 0 or width < 0:
        raise ValueError(f"draws of shape ({k}, {width}) asked for")
    rng = random.Random(seed)
    return np.array([rng.random() for _ in range(k * width)]).reshape(k, width)


def _pick_inputs(ts: TransitionSystem, pos: np.ndarray, r: np.ndarray) -> np.ndarray:
    """For each state position in pos, the int(r * count)-th (from 0) of
    the count inputs enabled there, read from the CSR row sizes; -1 where
    no input is enabled."""
    rank = np.cumsum(np.diff(ts.indptr).reshape(-1, len(ts.inputs))[pos] > 0, axis=1)
    count = rank[:, -1]
    nth = (r * count).astype(np.int64)
    return np.where(count > 0, np.argmax(rank > nth[:, None], axis=1), -1)


def sample_frr_delayfree(ts: TransitionSystem, n_samples: int,
                         seed: int) -> FrrReport:
    """Sampled soundness witness for delay-free models: quantized concrete
    successors must be abstract successors.  The plant is the one the model
    was built from and points are located on the model's partition.
    A sample is skipped, not failed, when its state has no enabled input
    or its successor leaves the state box; every other one is checked."""
    ctx = _ctx_of(ts)
    sys, part = ctx.sys, ts.partition
    # a row: the state, the point in its cell, the input
    r = _draws(seed, n_samples, sys.n + 2)
    lo, hi = part.cell_arrays(ts.ids[(r[:, 0] * len(ts.states)).astype(np.int64)])[:2]
    X = lo + (hi - lo) * r[:, 1:-1]
    located = part.locate_batch(X)
    pos, known = _positions(ts.ids, located)
    iids = np.where(known, _pick_inputs(ts, pos, r[:, -1]), -1)
    drawn = np.flatnonzero(iids >= 0)
    violations: List[Violation] = []
    if not len(drawn):
        return FrrReport(n_samples, 0, n_samples, violations, seed)
    X, x2, iids = X[drawn], located[drawn].tolist(), iids[drawn]
    X_next = integrate_batch(sys, X.T, np.array(ts.inputs)[iids].T,
                             ctx.tau, ctx.steps).T
    kept, got = _locate_inside(sys, part, X_next)
    for j, q_next in zip(kept.tolist(), got.tolist()):
        allowed = ts.successors(x2[j], int(iids[j]))
        if q_next not in allowed:
            violations.append(Violation(X[j], ts.inputs[iids[j]], X_next[j].copy(),
                                        x2[j], q_next, allowed))
    return FrrReport(n_samples, len(kept), n_samples - len(kept), violations, seed)


_EDGE = 1e-9


def sample_frr_timedelay(ts: TransitionSystem, n_samples: int,
                         seed: int) -> FrrReport:
    """Sampled soundness witness over functional states.

    Concrete functionals are linear interpolants through knot points
    jittered within each knot cell (clamped just inside the faces so point
    location recovers the sampled cell).  Successor membership is knot-wise:
    at every knot time, the cell of the sampled successor must intersect the
    growth box around the nominal successor of the tube's quantized
    functional, which the build kept with its radius (ts.endpoints, ts.radius).
    Like the delay-free witness, it reads plant and partition from the model.
    As in the build, each sample runs under its own input on [0, tau],
    whatever the input delay r, so it does not check the plant that
    run_closed_loop drives when r > 0.
    """
    ctx = _ctx_of(ts)
    sys, part = ctx.sys, ts.partition
    # per tube: its knot cells' bounds, quantized points and half-widths
    # (S, J, n), and one jitter width per knot (S, J), the widest axis's
    cell_lo, cell_hi, quantized, half = part.cell_arrays([s.tube.knots for s in ts.states])
    widths = half.max(axis=-1)
    J, n = cell_lo.shape[1:]
    # a row: the tube, the input, then the J x n jitter
    r = _draws(seed, n_samples, 2 + J * n)
    sid = (r[:, 0] * len(ts.states)).astype(np.int64)
    iids = _pick_inputs(ts, sid, r[:, 1])
    # a tube with no enabled input is skipped, as is a sample whose knots leave X
    drawn = np.flatnonzero(iids >= 0)
    violations: List[Violation] = []
    if not len(drawn):
        return FrrReport(n_samples, 0, n_samples, violations, seed)
    sid, iids = sid[drawn], iids[drawn]
    w = widths[sid][:, :, None]
    jitter = -w + 2 * w * r[drawn, 2:].reshape(-1, J, n)
    # a sampled functional is the linear interpolant through its knot points
    width = cell_hi[sid] - cell_lo[sid]
    pts = np.minimum(np.maximum(quantized[sid] + jitter,
                                cell_lo[sid] + _EDGE * width),
                     cell_hi[sid] - _EDGE * width).transpose(1, 2, 0)  # (J, n, K)
    U = np.array(ts.inputs)[iids].T
    samples = tube_knot_points(sys, history_rows(pts, sys.Theta), U,
                               ctx.tau, ctx.steps, ctx.knot_thetas)
    inside, got = _locate_inside(sys, part, samples.transpose(2, 0, 1))
    nominal = ts.endpoints[sid[inside], iids[inside]]  # (K, J, n)
    radius = ts.radius[sid[inside]][:, None, None]
    # the cell of every sampled knot must meet its closed growth box
    meets = _boxes_meet(nominal - radius, nominal + radius, *part.cell_arrays(got)[:2])
    for k in np.flatnonzero(~meets.all(axis=1)).tolist():
        j = int(inside[k])
        bad = int(np.argmax(~meets[k]))
        violations.append(Violation(
            pts[:, :, j].copy(), ts.inputs[iids[j]], samples[:, :, j].copy(),
            int(sid[j]), tuple(got[k, :bad + 1].tolist()),
            ts.successors(int(sid[j]), int(iids[j])),
            detail=f"knot {bad} outside the growth box"))
    return FrrReport(n_samples, len(inside), n_samples - len(inside), violations, seed)
