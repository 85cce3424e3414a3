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

The witnesses draw numpy's ``np.random.default_rng(seed)`` stream, so a
report depends only on the seed, but they draw it through ``_DefaultRng``,
a pure-Python copy of the few calls they make: importing numpy.random
would add about 6 MiB to the process for a few thousand draws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .abstraction import (SplineTube, TransitionSystem, _boxes_meet,
                          _knot_widths, _locate_inside, knot_points,
                          knot_tube, tube_knot_points)
from .dynamics import SampledCurve, integrate_batch
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
    t2_ids = set(T2.state_ids())
    for x1, x2 in F.items():
        if x1 not in T1._pos or x2 not in t2_ids:
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


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _DefaultRng:
    """numpy's ``default_rng(seed)`` for the calls the witnesses make.

    PCG64 (a 128-bit LCG with XSL-RR output; O'Neill 2014) seeded as numpy
    seeds it, through SeedSequence.  Draws match numpy bit for bit; inputs
    outside what the witnesses use raise instead of drawing another stream.
    """

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_sequence(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = (self._inc + (s0 << 64 | s1)) & _MASK128  # one step from 0
        self._state = (state * _PCG64_MULT + self._inc) & _MASK128
        self._half: Optional[int] = None  # high half left by a 32-bit draw

    def _next64(self) -> int:
        self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        s = self._state
        v = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (v >> rot | v << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        v = self._next64()
        self._half = v >> 32
        return v & _MASK32

    def integers(self, n: int) -> int:
        """Generator.integers(n): Lemire's rejection on 32-bit draws (Lemire
        2019); n == 1 draws nothing."""
        if not 1 <= n <= _MASK32:
            raise ValueError(f"integers({n}): need 1 <= n < 2**32")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (_MASK32 + 1 - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def uniform(self, lo, hi, size: Optional[Tuple[int, ...]] = None) -> np.ndarray:
        """Generator.uniform(lo, hi, size) for array bounds: one draw per
        element in C order, lo + (hi - lo) * u with u on the 2**-53 grid."""
        lo = np.asarray(lo, dtype=float)
        span = np.asarray(hi, dtype=float) - lo
        if span.ndim == 0:
            raise ValueError("uniform needs array bounds")
        if not np.isfinite(span).all():
            raise OverflowError("Range exceeds valid bounds")
        shape = span.shape if size is None else tuple(size)
        if span.ndim > len(shape) or any(
                a not in (1, b) for a, b in zip(span.shape[::-1], shape[::-1])):
            raise ValueError(f"bounds of shape {span.shape} do not broadcast "
                             f"to size {shape}")
        u = [(self._next64() >> 11) * 2.0 ** -53 for _ in range(math.prod(shape))]
        return lo + span * np.array(u).reshape(shape)


def _seed_sequence(seed: int) -> List[int]:
    """SeedSequence(seed).generate_state(4, np.uint64): four 64-bit words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


def sample_frr_delayfree(ts: TransitionSystem, n_samples: int,
                         seed: int) -> FrrReport:
    """Sampled soundness witness for delay-free models: quantized concrete
    successors must be abstract successors.  The plant is the one the model
    was built from and points are located on the model's partition.
    A sample is skipped, not failed, when its state has no enabled input
    or its successor leaves the state box; every other one is checked."""
    ctx = _ctx_of(ts)
    sys, part = ctx.sys, ts.partition
    rng = _DefaultRng(seed)
    cells = [s.cell for s in ts.states]
    drawn: List[Tuple[np.ndarray, int, int]] = []  # (x, abstract state, input id)
    for _ in range(n_samples):
        cell = cells[int(rng.integers(len(cells)))]
        x = rng.uniform(cell.lower, cell.upper)
        x2 = part.locate(x)
        enabled = ts.enabled(x2)
        if enabled:
            drawn.append((x, x2, enabled[int(rng.integers(len(enabled)))]))
    violations: List[Violation] = []
    if not drawn:
        return FrrReport(n_samples, 0, n_samples, violations, seed)
    X = np.array([x for x, _, _ in drawn]).T
    U = np.array([ts.inputs[iid] for _, _, iid in drawn]).T
    X_next = integrate_batch(sys, X, U, ctx.tau, ctx.steps).T
    kept, located = _locate_inside(sys, part, X_next)
    for j, q_next in zip(kept.tolist(), located.tolist()):
        x, x2, iid = drawn[j]
        allowed = ts.successors(x2, iid)
        if q_next not in allowed:
            violations.append(Violation(x, ts.inputs[iid], X_next[j].copy(), x2,
                                        q_next, allowed))
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
    """
    ctx = _ctx_of(ts)
    sys, part = ctx.sys, ts.partition
    rng = _DefaultRng(seed)
    # per tube: knot cells and their bounds, and jitter widths
    tubes = [s.tube for s in ts.states]
    cell_lo, cell_hi = part.cell_bounds([t.knots for t in tubes])  # (S, J, n)
    quantized = np.array([[part.cell(k).quantized_point for k in t.knots]
                          for t in tubes])
    widths = np.array([_knot_widths(t, part) for t in tubes])  # (S, J)
    enabled = [ts.enabled(sid) for sid in range(len(tubes))]
    # every draw first, in the order of one-at-a-time sampling
    sids: List[int] = []
    iids: List[int] = []
    jitter: List[np.ndarray] = []
    for _ in range(n_samples):
        sid = int(rng.integers(len(tubes)))
        if not enabled[sid]:  # skipped, as is a sample whose knots leave X
            continue
        iids.append(enabled[sid][int(rng.integers(len(enabled[sid])))])
        sids.append(sid)
        w = widths[sid][:, None]
        jitter.append(rng.uniform(-w, w, size=cell_lo.shape[1:]))

    violations: List[Violation] = []
    if not sids:
        return FrrReport(n_samples, 0, n_samples, violations, seed)
    sid = np.array(sids)
    # a sampled functional is the linear interpolant through its knot points
    width = cell_hi[sid] - cell_lo[sid]
    pts = np.minimum(np.maximum(quantized[sid] + np.array(jitter),
                                cell_lo[sid] + _EDGE * width),
                     cell_hi[sid] - _EDGE * width).transpose(1, 2, 0)  # (J, n, K)
    U = np.array(ts.inputs)[iids].T
    samples = tube_knot_points(sys, pts if sys.Theta > 0.0 else pts[-1:], U,
                               ctx.tau, ctx.steps, ctx.knot_thetas)
    inside, got = _locate_inside(sys, part, samples.transpose(2, 0, 1))
    nominal = ts.endpoints[sid[inside], np.array(iids)[inside]]  # (K, J, n)
    r = ts.radius[sid[inside]][:, None, None]
    # the cell of every sampled knot must meet its closed growth box
    meets = _boxes_meet(nominal - r, nominal + r, *part.cell_bounds(got))
    for k in np.flatnonzero(~meets.all(axis=1)).tolist():
        j = int(inside[k])
        bad = int(np.argmax(~meets[k]))
        violations.append(Violation(
            pts[:, :, j].copy(), ts.inputs[iids[j]], samples[:, :, j].copy(),
            sids[j], tuple(got[k, :bad + 1].tolist()),
            ts.successors(sids[j], iids[j]),
            detail=f"knot {bad} outside the growth box"))
    return FrrReport(n_samples, len(inside), n_samples - len(inside), violations, seed)
