"""Finite symbolic models of sampled control systems.

Delay-free construction: states are the logarithmic lattice cells, inputs a
quantized grid, and (cell, input) gets every cell intersecting the box
around the nominal endpoint integrate(q, u, tau) of radius

    growth_scale * e^(mu*tau) * max_i s_i                on every axis,

s = Cell.spread(), the largest distance from the quantized point q to the
cell on each axis, and mu the cell's sampled matrix measure over the cell
grown by 1.1*tau*max|f| (estimate_lipschitz with tau), or a numeric
lipschitz as given: one rule for log, merged, deadzone and zoom cells.
The build stays on flat arrays from start to end: one rate estimate over
all C cells, the (C,) radii, a preallocated (C, I, n) array that each
integrate() call writes its nominal endpoint into, the blocked pairs, and
the growth boxes as (C*I, n) arrays in CSR row order.  Each box row goes to
one Partition.intersecting() query, whose ids are appended to an int32
buffer that becomes the model's successor array without a copy (see
TransitionSystem); the model keeps the endpoint array.  Zoom refinement
runs the same build with the coarse model as prior: a cell the refinement
keeps copies its endpoints, and each of its pairs copies its successor row
unless that row lists a replaced base cell (subcells lie inside their base
cell, so no other row can meet one).  Only the new subcells are integrated
and only the rows that met a replaced cell are queried again; the result
equals a build from scratch byte for byte.

The per-pair part of the build (integrate the new cells' pairs, find the
blocked pairs and growth boxes, copy or query each unblocked row) is one
block function over a contiguous range of cells; the rate estimate, the
radii and the prior's rows are computed once before it.  A build with
at least 2 * 4096 new pairs, in a process that may run on more than one
CPU (its affinity mask), is cut into min(CPUs, new pairs // 4096) ranges
with about the same number of new cells each: the first runs in process
and every other in an os.fork worker, which sends its endpoints, row
numbers and successors back through a pipe.  The ranges are
merged in cell order, so the model is byte-identical to a one-block build,
and the first range that raises decides the error.  Where os.fork or
os.sched_getaffinity is missing, every build is one block.

Time-delay construction: states are spline tubes, tuples of N+2 knot cells
on [-Theta, 0] sampled at the peaks of linear hat functions.  A tube's
quantized functional is the linear interpolant through the knot quantized
points; the successor test requires, at every knot time, intersection of the
knot cell with the box of radius 2*theta2*e^(L*tau) around the integrated
endpoint, theta2 collecting each knot's zoom width (unrefined knots
contribute their cell half-width).  Tubes are discovered by forward
exploration along nominal successors from psi2(xi0) under a state budget;
pairs whose nominal successor is undiscovered or leaves the state box are
blocked (no successors).  Exploration runs one breadth-first level at a
time: one method-of-steps batch over every (tube, input) pair of the
level, one array test for blocked pairs, one Partition.locate_batch call
for all nominal knots, then a walk over the pairs in (tube, input) order
that numbers new tubes.  The model keeps every pair's nominal knot points
(ts.endpoints) and each tube's growth radius (ts.radius), and the successor
sets come from one closed-box test of those growth boxes against the knot
cells of all discovered tubes.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from array import array
from collections.abc import Mapping
from contextlib import suppress
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import (ControlSystem, SampledCurve, TimeDelaySystem,
                       DEFAULT_STEPS, estimate_lipschitz,
                       estimate_lipschitz_batch, integrate,
                       integrate_delay_batch, interpolate_batch)
from .quantizers import (Cell, LogQuantizerParams, Partition, ZoomQuantizerParams,
                         _boundaries_up_to)


def growth_bound_delayfree(spread, rate, tau: float) -> np.ndarray:
    """The radius e^(rate*tau) * max_i spread_i on every axis: of one cell's
    Cell.spread() (n,) under a float rate, or of C cells' (C, n) under (C,)
    rates.  A rate may be negative or zero, but it must be a number."""
    rate = np.asarray(rate, dtype=float)
    if np.isnan(rate).any() or not tau > 0:
        raise ValueError("the growth rate must be a number and tau positive")
    # math.exp, which np.exp does not match bit for bit on every build, into
    # the array: a list of floats made the traced build four times slower
    amp = np.empty(rate.shape)
    for i, v in enumerate(rate.flat):
        amp.flat[i] = math.exp(v * tau)
    return amp * np.max(spread, axis=-1)


def _locate_inside(sys, part: Partition, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of points (K, ..., n) that lie wholly inside the closed
    state box of sys, ascending, and the cells of their points, of shape
    (len(rows), ...), from one Partition.locate_batch call."""
    rows = np.flatnonzero(sys.inside(points).all(axis=tuple(range(1, points.ndim - 1))))
    kept = points[rows]
    cells = part.locate_batch(kept.reshape(-1, kept.shape[-1]))
    return rows, cells.reshape(kept.shape[:-1])


def _boxes_meet(box_lo, box_hi, cell_lo, cell_hi) -> np.ndarray:
    """Whether each closed box meets the closed cell at the same index,
    touching faces included: coordinates on the last axis, tested one at a
    time so every temporary has the result's shape; other axes broadcast."""
    meets = np.ones(np.broadcast_shapes(box_lo.shape, cell_lo.shape)[:-1], dtype=bool)
    for i in range(cell_lo.shape[-1]):
        meets &= cell_lo[..., i] <= box_hi[..., i]
        meets &= box_lo[..., i] <= cell_hi[..., i]
    return meets


@dataclass(frozen=True)
class SplineTube:
    """Functional abstract state: cell ids at the N+2 hat-function knots."""

    knots: Tuple[int, ...]

    @property
    def N(self) -> int:
        return len(self.knots) - 2


@dataclass(eq=False)
class AbstractState:
    """One state of the symbolic model: a cell, or a tube over cells."""

    id: int
    cell: Optional[Cell] = None
    tube: Optional[SplineTube] = None


@dataclass
class _BuildContext:
    """The build settings of a model: refine_cells rebuilds with them, and
    the hold search and the witnesses integrate the plant with them."""

    sys: object
    tau: float
    lipschitz: Union[str, float]
    steps: int
    growth_scale: float
    knot_thetas: Optional[List[float]] = None


class TransitionSystem:
    """Finite transition system with identity output map.

    The relation is stored in CSR (compressed sparse row) arrays with one
    row per (state position, input id): row k*len(inputs) + i holds the
    successor state ids of (states[k], input i) in
    succ[indptr[row]:indptr[row + 1]].  indptr is int64 with
    len(states)*len(inputs) + 1 entries, succ int32, and every successor id
    must name a state.  A pair is enabled exactly when its row is
    non-empty; a blocked pair's row is empty.  States ascend by id, so
    position order is id order; the constructor rejects any other order.
    ids holds the state ids, in that order, as an int64 array.
    Construction is deterministic: same configuration, same serialized
    bytes.

    A built model keeps the nominal successors of its successor test, in
    the order of states, so no later stage integrates them again: endpoints
    is (S, I, n) for a delay-free model and (S, I, N+2, n), the knot points,
    for a tube model; radius is each tube's (S,) growth radius, and None
    for a delay-free model.  Parsed models have neither.
    """

    def __init__(self, kind: str, states: List[AbstractState],
                 inputs: List[np.ndarray],
                 relation: Tuple[np.ndarray, np.ndarray],
                 partition: Optional[Partition] = None,
                 ctx: Optional[_BuildContext] = None,
                 truncated: bool = False,
                 cell_table: Optional[List[Cell]] = None,
                 endpoints: Optional[np.ndarray] = None,
                 radius: Optional[np.ndarray] = None):
        self.kind = kind
        self.states = states
        self.inputs = [np.atleast_1d(np.asarray(u, dtype=float)) for u in inputs]
        self.indptr = np.asarray(relation[0], dtype=np.int64)
        self.succ = np.asarray(relation[1], dtype=np.int32)
        if self.indptr.shape != (len(states) * len(self.inputs) + 1,) or \
                self.indptr[-1] != len(self.succ):
            raise ValueError("indptr needs one row per (state, input) pair "
                             "and must end at len(succ)")
        self.ids = _ascending(np.array([s.id for s in states], dtype=np.int64))
        unknown = _unknown_id(self.ids, self.succ)
        if unknown is not None:
            raise ValueError(f"successor id {unknown} names no state")
        self.partition = partition
        self._ctx = ctx
        self._pos = {s.id: k for k, s in enumerate(states)}
        # tube exploration hit its budget: some frontier pairs are blocked
        self.truncated = truncated
        # knot cells of a tube model parsed without its partition
        self.cell_table = cell_table
        self.endpoints = endpoints
        self.radius = radius

    def state(self, sid: int) -> AbstractState:
        return self.states[self._pos[sid]]

    def state_ids(self) -> List[int]:
        return [s.id for s in self.states]

    def successors(self, sid: int, iid: int) -> Tuple[int, ...]:
        k = self._pos.get(sid)
        if k is None or not 0 <= iid < len(self.inputs):
            return ()
        row = k * len(self.inputs) + iid
        return tuple(self.succ[self.indptr[row]:self.indptr[row + 1]].tolist())

    def enabled(self, sid: int) -> List[int]:
        k = self._pos.get(sid)
        if k is None:
            return []
        n_in = len(self.inputs)
        return np.flatnonzero(np.diff(self.indptr[k * n_in:(k + 1) * n_in + 1])).tolist()

    @property
    def n_transitions(self) -> int:
        return len(self.succ)

    def transition_rows(self) -> Iterator[Tuple[Tuple[int, int], Tuple[int, ...]]]:
        """((state id, input id), successor ids) of every enabled pair, by
        state id and then input id."""
        n_in = len(self.inputs)
        for k, s in enumerate(self.states):
            bounds = self.indptr[k * n_in:(k + 1) * n_in + 1].tolist()
            for iid in range(n_in):
                if bounds[iid] < bounds[iid + 1]:
                    yield (s.id, iid), tuple(self.succ[bounds[iid]:bounds[iid + 1]].tolist())

    @property
    def transitions(self) -> Mapping[Tuple[int, int], Tuple[int, ...]]:
        """Read-only mapping view of the enabled pairs over the arrays; it
        stores nothing per edge.  Only bench/trace_stage.py reads it (for
        len(), the number of enabled pairs); it goes when that file moves to
        the accessors."""
        return _RelationView(self)

    def input_id_of(self, u) -> Optional[int]:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        for i, v in enumerate(self.inputs):
            if v.shape == u.shape and np.all(np.abs(v - u) <= 1e-9):
                return i
        return None


class _RelationView(Mapping):
    def __init__(self, ts: TransitionSystem):
        self._ts = ts

    def __getitem__(self, key):
        succ = self._ts.successors(*key)
        if not succ:
            raise KeyError(key)
        return succ

    def __iter__(self):
        return (key for key, _ in self._ts.transition_rows())

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self._ts.indptr)))


def _ascending(ids: np.ndarray) -> np.ndarray:
    """ids, which must ascend strictly, as every model's state ids do."""
    if np.any(ids[1:] <= ids[:-1]):
        raise ValueError("state ids must ascend: a state id is given "
                         "twice or out of order")
    return ids


_POS_CHUNK = 1 << 13  # ids per lookup in _positions and _unknown_id


def _positions(state_ids: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For every id in x: its int32 position in the ascending state_ids (0
    where absent), and whether it is there.  x is looked up _POS_CHUNK ids
    at a time, so the int64 temporaries stay small however long x is."""
    pos = np.zeros(len(x), dtype=np.int32)
    found = np.zeros(len(x), dtype=bool)
    if not len(state_ids):
        return pos, found
    for a in range(0, len(x), _POS_CHUNK):
        part = x[a:a + _POS_CHUNK]
        at = np.minimum(np.searchsorted(state_ids, part), len(state_ids) - 1)
        hit = state_ids[at] == part
        pos[a:a + _POS_CHUNK] = np.where(hit, at, 0)
        found[a:a + _POS_CHUNK] = hit
    return pos, found


def _unknown_id(state_ids: np.ndarray, x: np.ndarray) -> Optional[int]:
    """The first id in x that is not in the ascending state_ids, or None.
    A bool table over the range of x marks the state ids, and x is looked
    up in it _POS_CHUNK ids at a time, so the check is linear in len(x) and
    its temporaries stay small; ids too sparse for such a table go through
    _positions."""
    if not len(x):
        return None
    lo, hi = int(x.min()), int(x.max())
    if hi - lo >= len(x) + len(state_ids):
        found = _positions(state_ids, x)[1]
        return None if found.all() else int(x[np.argmin(found)])
    known = np.zeros(hi - lo + 1, dtype=bool)
    known[state_ids[(state_ids >= lo) & (state_ids <= hi)] - lo] = True
    if known.all():
        return None
    for a in range(0, len(x), _POS_CHUNK):
        part = x[a:a + _POS_CHUNK]
        miss = ~known[part - lo]
        if miss.any():
            return int(part[np.argmax(miss)])
    return None


def _indptr(n_rows: int, rows, sizes) -> np.ndarray:
    """indptr of n_rows CSR rows: row rows[j] holds sizes[j] entries, every
    other row none."""
    counts = np.zeros(n_rows + 1, dtype=np.int64)
    counts[np.asarray(rows, dtype=np.int64) + 1] = sizes
    return np.cumsum(counts)


def transition_arrays(state_ids: Sequence[int], n_inputs: int,
                      relation) -> Tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, succ) of a relation over the states of the
    ascending state_ids, for TransitionSystem.

    relation is a {(state id, input id): successor ids} mapping, or a
    (src, input, dst) triple of equal-length id sequences, one entry per
    edge; int32 id arrays are used as they are.  Successors keep their
    given order within a pair.  Ids that do not ascend, an unknown state or
    input, or an edge given twice, raise ValueError.
    """
    if isinstance(relation, Mapping):
        src = [sid for (sid, _), dst in relation.items() for _ in dst]
        iid = [i for (_, i), dst in relation.items() for _ in dst]
        dst = [t for succ in relation.values() for t in succ]
    else:
        src, iid, dst = relation
    ids = _ascending(np.asarray(state_ids, dtype=np.int64))
    int32 = np.iinfo(np.int32)
    wide = (ids < int32.min) | (ids > int32.max)
    if wide.any():
        raise ValueError(f"state id {ids[np.argmax(wide)]} does not fit int32")
    src, iid, dst = (_id_array(a) for a in (src, iid, dst))
    pos, src_known = _positions(ids, src)
    dst_known = _positions(ids, dst)[1]
    bad = ~src_known | ~dst_known | (iid < 0) | (iid >= n_inputs)
    if bad.any():
        e = int(np.argmax(bad))
        if src_known[e] and dst_known[e]:
            raise ValueError(f"transition references unknown input {iid[e]}")
        raise ValueError(f"transition references unknown state: "
                         f"({src[e]}, {iid[e]}) -> {dst[e]}")
    n_rows = len(ids) * n_inputs
    rows = pos.astype(np.int32 if n_rows < 2 ** 31 else np.int64)
    del pos
    rows *= n_inputs
    rows += iid
    step = np.diff(rows)
    if np.all(step >= 0) and np.all((step > 0) | (np.diff(dst) > 0)):
        # rows ascending and successors ascending within a row, the order
        # sts_chunks writes: no edge repeats, and no edge moves
        indptr = np.searchsorted(rows, np.arange(n_rows + 1, dtype=rows.dtype))
        return indptr, dst.astype(np.int32)
    del step
    by_edge = np.lexsort((dst, rows))
    same = (np.diff(rows[by_edge]) == 0) & (np.diff(dst[by_edge]) == 0)
    if same.any():
        e = by_edge[int(np.argmax(same)) + 1]
        raise ValueError(f"duplicate transition: ({src[e]}, {iid[e]}) -> {dst[e]}")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    return indptr, dst[np.argsort(rows, kind="stable")].astype(np.int32)


def _id_array(a) -> np.ndarray:
    """a as a flat int32 or int64 array; other sequences become int64."""
    a = np.asarray(a).reshape(-1)
    return a if a.dtype in (np.int32, np.int64) else a.astype(np.int64)


# ---------------------------------------------------------------------------
# input lattices


def _lattice(axes: List[List[float]]) -> List[np.ndarray]:
    """The Cartesian product of the axes' values, the last axis fastest."""
    return [np.array(u) for u in product(*axes)]


def uniform_input_lattice(lo, hi, mu: float) -> List[np.ndarray]:
    """Integer multiples of mu inside the closed input box, ascending."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if mu <= 0:
        raise ValueError("input grid spacing must be positive")
    axes = []
    for j in range(len(lo)):
        k_lo = int(math.ceil(lo[j] / mu - 1e-9))
        k_hi = int(math.floor(hi[j] / mu + 1e-9))
        axes.append([k * mu for k in range(k_lo, k_hi + 1)])
        if not axes[-1]:
            raise ValueError(f"input axis {j + 1} contains no multiple of {mu}")
    return _lattice(axes)


def log_input_lattice(lo, hi, p: LogQuantizerParams) -> List[np.ndarray]:
    """Logarithmic quantizer levels (including 0) inside the input box: 0
    and each level of the state quantizer's enumeration, _boundaries_up_to,
    with either sign, where it lies in the closed box."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    axes = []
    for j in range(len(lo)):
        levels = _boundaries_up_to(p, max(abs(lo[j]), abs(hi[j])))[0]
        vals = sorted(v for v in (0.0, *levels, *(-z for z in levels))
                      if lo[j] <= v <= hi[j])
        if not vals:
            raise ValueError(f"input axis {j + 1} contains no quantizer level")
        axes.append(vals)
    return _lattice(axes)


def input_lattice(lo, hi, input_quantization) -> List[np.ndarray]:
    """The inputs of a model: ('uniform', mu) or ('log', LogQuantizerParams)."""
    kind, spec = input_quantization
    if kind == "uniform":
        return uniform_input_lattice(lo, hi, spec)
    if kind == "log":
        return log_input_lattice(lo, hi, spec)
    raise ValueError(f"unknown input quantization {kind!r}")


# ---------------------------------------------------------------------------
# delay-free model


def build_delayfree(sys: ControlSystem, tau: float,
                    lattice: Union[LogQuantizerParams, Sequence[LogQuantizerParams], Partition],
                    input_quantization=("uniform", 0.2),
                    lipschitz: Union[str, float] = "sampled-jacobian",
                    steps: int = DEFAULT_STEPS,
                    growth_scale: float = 1.0) -> TransitionSystem:
    """Symbolic model of a delay-free system on a logarithmic lattice.

    lattice is the state lattice, used as given: a Partition (zoom-refined
    or not), or LogQuantizerParams, one or one per axis, for the plain
    lattice of the state box.  input_quantization is ('uniform', mu) or
    ('log', LogQuantizerParams).  growth_scale multiplies every growth
    radius (1.0 normally; 0 builds a deliberately unsound model for
    negative-control testing).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    part = lattice if isinstance(lattice, Partition) else \
        Partition(sys.state_lo, sys.state_hi, lattice)
    inputs = input_lattice(sys.input_lo, sys.input_hi, input_quantization)
    ctx = _BuildContext(sys=sys, tau=tau, lipschitz=lipschitz, steps=steps,
                        growth_scale=growth_scale)
    return _delayfree_model(sys, part, inputs, ctx)


def _delayfree_model(sys: ControlSystem, part: Partition,
                     inputs: List[np.ndarray], ctx: _BuildContext,
                     prior: Optional[TransitionSystem] = None) -> TransitionSystem:
    """The delay-free transitions of every cell of part and input, built on
    arrays as the module docstring describes.

    prior, when given, is a model built with ctx and inputs over a
    partition that part refines.  A cell of part that is a state of prior
    takes its endpoints from prior, and each of its pairs takes its prior
    successors unless they name a state that part no longer has; only the
    remaining pairs are integrated or queried.  The copied rows are taken
    from prior's arrays without Python lists: the unblocked rows of a block
    fall into pieces, each one queried row or one run of copied rows whose
    successors follow one another in prior.succ, and each run is appended
    with one buffer copy and its row sizes with one more.
    """
    cells = part.cells
    if not cells:
        raise ValueError("empty state lattice")

    rate = estimate_lipschitz_batch(sys, cells, ctx.lipschitz, ctx.tau)
    radius = ctx.growth_scale * growth_bound_delayfree(
        np.array([c.spread() for c in cells]), rate, ctx.tau)[:, None, None]
    n_in = len(inputs)
    x1 = np.empty((len(cells), n_in, sys.n))
    new = np.ones(len(cells), dtype=bool)
    # per (cell, input), the CSR row of prior whose successors it copies,
    # -1 where none
    reuse = None
    if prior is not None:
        kept, at, copied = _prior_rows(prior, cells)
        x1[kept] = prior.endpoints[at]
        new[kept] = False
        reuse = np.full(x1.shape[:2], -1, dtype=np.int64)
        reuse[kept] = copied

    def block(k0: int, k1: int):
        """Endpoints (k1-k0, I, n), CSR row numbers of the unblocked pairs,
        and their successors and row sizes, for the pairs of cells[k0:k1]."""
        for k in (np.flatnonzero(new[k0:k1]) + k0).tolist():
            for iid, u in enumerate(inputs):
                x1[k, iid] = integrate(sys, cells[k].quantized_point, u, ctx.tau, ctx.steps)
        ends = x1[k0:k1]
        # a pair is blocked when its nominal endpoint leaves X
        blocked = ~sys.inside(ends).ravel()
        # one row per (cell, input), the CSR row order
        box_lo = (ends - radius[k0:k1]).reshape(-1, sys.n)
        box_hi = (ends + radius[k0:k1]).reshape(-1, sys.n)
        # rows of blocked pairs stay empty
        local = np.flatnonzero(~blocked)
        succ, sizes = array("i"), array("q")

        def query(j: int) -> None:
            ids = part.intersecting(box_lo[j], box_hi[j])
            succ.extend(ids)
            sizes.append(len(ids))

        if reuse is None:
            for j in local.tolist():
                query(j)
            return ends, local + k0 * n_in, succ, sizes
        from_rows = reuse[k0:k1].ravel()[local]
        copy = from_rows >= 0
        a, b = prior.indptr[from_rows], prior.indptr[from_rows + 1]
        # a piece starts at every queried row and wherever a copied row's
        # successors do not follow the previous row's in prior.succ
        starts = np.flatnonzero(~copy | np.r_[True, ~copy[:-1] | (a[1:] != b[:-1])])
        for p, q in zip(starts.tolist(), [*starts[1:].tolist(), len(local)]):
            if not copy[p]:
                query(int(local[p]))
                continue
            succ.frombytes(memoryview(prior.succ[a[p]:b[q - 1]]).cast("B"))
            sizes.frombytes((b[p:q] - a[p:q]).tobytes())
        return ends, local + k0 * n_in, succ, sizes

    ranges = _cell_ranges(new, n_in)
    results = _in_blocks(block, ranges)
    # append every later range's pairs, in cell order
    _, rows, succ, sizes = results[0]
    for (k0, k1), (ends, _, more, more_sizes) in zip(ranges[1:], results[1:]):
        x1[k0:k1] = ends
        succ.extend(more)
        sizes.extend(more_sizes)
    rows = np.concatenate([r[1] for r in results])
    del results
    indptr = _indptr(x1.shape[0] * n_in, rows, sizes)

    states = [AbstractState(c.id, cell=c) for c in cells]
    return TransitionSystem("delayfree", states, inputs,
                            (indptr, np.frombuffer(succ, dtype=np.int32)),
                            partition=part, ctx=ctx, endpoints=x1)


def _prior_rows(prior: TransitionSystem,
                cells: List[Cell]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the cells that are states of prior: their positions in cells,
    their positions in prior.states, and their (K, I) CSR rows in prior,
    -1 on a row that lists a state of prior that is not in cells."""
    ids, prior_ids = np.array([c.id for c in cells]), prior.ids
    kept = np.flatnonzero(np.isin(ids, prior_ids))
    at = np.searchsorted(prior_ids, ids[kept])  # prior's state ids ascend
    n_in = len(prior.inputs)
    rows = at[:, None] * n_in + np.arange(n_in)
    stale = np.zeros(len(prior.indptr) - 1, dtype=bool)
    edges = np.flatnonzero(np.isin(prior.succ, prior_ids[~np.isin(prior_ids, ids)]))
    stale[np.searchsorted(prior.indptr, edges, side="right") - 1] = True
    rows[stale[rows]] = -1
    return kept, at, rows


# On a 2-vCPU Xeon host a forked worker costs 7-8 ms (fork, a 1 MiB pipe
# transfer and the reap) and a new pair about 38 us, so a block of 4096 new
# pairs (about 150 ms) pays about 5% for its fork.
_FORK_PAIRS = 4096


def _cpus() -> int:
    """The CPUs this process may run on (its affinity mask), or 1 where the
    platform cannot say or cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _cell_ranges(new: np.ndarray, n_inputs: int) -> List[Tuple[int, int]]:
    """Contiguous [k0, k1) ranges that cover the cells, one per block, with
    about the same number of new cells (new marks them) in each.  There are
    min(CPUs, new pairs // _FORK_PAIRS, new cells) blocks, at least one."""
    n_new = int(np.count_nonzero(new))
    w = max(1, min(_cpus(), n_new * n_inputs // _FORK_PAIRS, n_new))
    # range j ends just after the (j*n_new//w)-th new cell
    cuts = np.searchsorted(np.cumsum(new), [j * n_new // w for j in range(1, w)]) + 1
    bounds = [0, *cuts.tolist(), len(new)]
    return list(zip(bounds[:-1], bounds[1:]))


def _in_blocks(block, ranges: List[Tuple[int, int]]) -> list:
    """[block(k0, k1) for (k0, k1) in ranges], the first range in this
    process and every other in a forked worker, which sends its result, or
    the exception it raised, back through a pipe.

    The results and errors are those of running the ranges in order: the
    first range that raises decides.  No worker outlives the call, whether
    it returns or raises.  What a worker changes in its copy of the process
    is lost; only its return value comes back.
    """
    workers: Dict[int, Optional[int]] = {}  # pid -> read end, in range order
    try:
        for k0, k1 in ranges[1:]:
            r, w = os.pipe()
            try:
                # the worker calls no BLAS routine, so numpy's idle BLAS
                # threads, which it does not inherit, cannot hold it up
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _serve(block, k0, k1, w, (r, *workers.values()))
            # later workers must not hold this write end, or the read below
            # would not see EOF
            os.close(w)
            workers[pid] = r
        results = [block(*ranges[0])]
        for pid in list(workers):
            r, workers[pid] = workers[pid], None  # the with statement closes r
            with open(r, "rb") as pipe:
                try:
                    ok, value = pickle.load(pipe)
                except Exception:
                    ok = None
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if ok is None:
                raise RuntimeError(f"build worker exited with status {status} "
                                   f"and sent no result")
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, r in workers.items():
            if r is not None:
                os.close(r)
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _serve(block, k0: int, k1: int, fd: int, read_ends) -> None:
    """The whole life of a forked worker: write (True, block(k0, k1)), or
    (False, the exception it raised), to fd, then end the process with
    os._exit, so it unwinds none of the parent's frames and runs no atexit
    hook or stdio flush.  Never returns.

    read_ends are the inherited read ends of this and earlier workers'
    pipes.  They are closed first, so that when the parent is gone the
    write fails instead of waiting for a reader forever."""
    status = 1
    try:
        for r in read_ends:
            os.close(r)
        try:
            out = (True, block(k0, k1))
        except BaseException as err:
            out = (False, err)
        with open(fd, "wb") as pipe:
            pickle.dump(out, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def refine_cells(ts: TransitionSystem,
                 assignments: Dict[int, ZoomQuantizerParams]) -> TransitionSystem:
    """Zoom-refine cells of a delay-free model; ids of kept cells are stable.

    The result is the model that a build from scratch over the refined
    partition gives, with the build settings and inputs of ts, byte for
    byte.  It is derived from ts: a kept cell keeps its endpoints, and its
    successor rows unless they list a replaced cell, so only the new
    subcells are integrated and only the rows that met a replaced cell are
    queried again.
    """
    if ts.kind != "delayfree":
        raise ValueError("refine_cells applies to delay-free models")
    if ts._ctx is None or ts.partition is None or ts.endpoints is None:
        raise ValueError("model carries no build context; rebuild from config")
    if not assignments:
        return ts
    return _delayfree_model(ts._ctx.sys, ts.partition.refined(assignments),
                            ts.inputs, ts._ctx, prior=ts)


# ---------------------------------------------------------------------------
# splines and tubes


def spline_basis(N: int, a: float, b: float):
    """The N+2 linear hat functions on [a, b], peaking at a+j*h, h=(b-a)/(N+1)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if not a < b:
        raise ValueError("need a < b")
    h = (b - a) / (N + 1)

    def make(j: int):
        peak = a + j * h
        return lambda t: max(0.0, 1.0 - abs(t - peak) / h)

    return [make(j) for j in range(N + 2)]


def knot_times(N: int, a: float, b: float) -> List[float]:
    if a == b:
        return [a] * (N + 2)
    h = (b - a) / (N + 1)
    return [a + j * h for j in range(N + 2)]


def knot_points(curve: SampledCurve, N: int) -> np.ndarray:
    """The (N+2, n) values of a functional at the knot times of its interval
    [t0, t1], the points psi2 locates; every knot is t1 when t0 == t1."""
    return np.array([curve(t) for t in knot_times(N, curve.t0, curve.t1)])


def knot_tube(points: np.ndarray, partition: Partition) -> SplineTube:
    """The tube whose knot cells hold points, one Partition.locate per row."""
    return SplineTube(tuple(partition.locate(p) for p in points))


def psi2(curve: SampledCurve, partition: Partition, N: int) -> SplineTube:
    """Abstract a functional (psi2): the cells of its N+2 knot points."""
    return knot_tube(knot_points(curve, N), partition)


def tube_interpolant(tube: SplineTube, partition: Partition,
                     Theta: float) -> SampledCurve:
    """The quantized functional of a tube: linear through knot quantized points."""
    pts = np.array([partition.cell(k).quantized_point for k in tube.knots])
    if Theta == 0.0:
        return SampledCurve(0.0, 0.0, pts[-1][None, :])
    return SampledCurve(-Theta, 0.0, pts)


def _knot_widths(tube: SplineTube, partition: Partition) -> List[float]:
    """Each knot's zoom width, its cell half-width where unrefined."""
    out = []
    for k in tube.knots:
        zp = partition.zoom_params_of(k)
        out.append(zp.width if zp is not None else partition.cell(k).half_width)
    return out


_CHUNK = 4096  # trajectories per integrate_delay_batch call


def tube_knot_points(sys: TimeDelaySystem, H: np.ndarray, U: np.ndarray,
                     tau: float, steps: int, thetas) -> np.ndarray:
    """(J, n, K) points at the knot times thetas of the K continuations,
    one period later, of the histories H (k+1, n, K) under the inputs U
    (m, K); _CHUNK columns per integration bound the memory."""
    return np.concatenate([
        interpolate_batch(integrate_delay_batch(
            sys, H[:, :, a:a + _CHUNK], U[:, a:a + _CHUNK], tau, steps),
            sys.Theta, thetas)
        for a in range(0, H.shape[2], _CHUNK)], axis=2)


def _boxes_meet_knot_cells(box_lo, box_hi, cell_lo, cell_hi) -> np.ndarray:
    """(P, T) mask: tube t's knot cells (T, J, n) meet pair p's boxes
    (P, J, n) at every knot, that is, in the product of the knot spaces."""
    P, T = len(box_lo), len(cell_lo)
    return _boxes_meet(box_lo.reshape(P, 1, -1), box_hi.reshape(P, 1, -1),
                       cell_lo.reshape(T, -1), cell_hi.reshape(T, -1))


def build_timedelay(sys: TimeDelaySystem, tau: float,
                    lattice: Union[LogQuantizerParams, Sequence[LogQuantizerParams], Partition],
                    N: int = 0,
                    input_quantization=("uniform", 0.2),
                    lipschitz: Union[str, float] = "sampled-jacobian",
                    steps: int = DEFAULT_STEPS,
                    growth_scale: float = 1.0,
                    budget: int = 1000) -> TransitionSystem:
    """Symbolic model of a time-delay system over spline tubes.

    lattice is the knots' state lattice, as in build_delayfree.  States
    are discovered breadth-first from psi2(xi0) following nominal
    successors only, up to `budget` tubes; materialized successor sets are
    the discovered tubes passing the knot-wise growth-box test.  When the
    budget is exhausted, the frontier pairs whose nominal successor was
    never discovered are blocked and ts.truncated is set.

    A level is every tube the previous level discovered, and it is explored
    in one batch; walking its pairs in (tube, input) order gives the tube
    ids and the budget cut of a search that dequeues one tube at a time.
    When an integration fails, the build raises the error of the first
    failing (tube, input) pair of the level.
    """
    if sys.xi0 is None:
        raise ValueError("time-delay build needs the initial functional xi0")
    if tau <= 0:
        raise ValueError("tau must be positive")
    part = lattice if isinstance(lattice, Partition) else \
        Partition(sys.state_lo, sys.state_hi, lattice)
    inputs = input_lattice(sys.input_lo, sys.input_hi, input_quantization)

    thetas = knot_times(N, -sys.Theta, 0.0)
    if isinstance(lipschitz, (int, float)):
        L2 = float(lipschitz)
    else:
        whole = Cell(-1, sys.state_lo.copy(), sys.state_hi.copy(),
                     0.5 * (sys.state_lo + sys.state_hi))
        L2 = estimate_lipschitz(sys, whole, lipschitz)
    amp = 2.0 * math.exp(L2 * tau) * growth_scale

    init = psi2(sys.xi0, part, N).knots
    order: List[Tuple[int, ...]] = [init]  # knot cells of tube id k at k
    ids: Dict[Tuple[int, ...], int] = {init: 0}
    n_in = len(inputs)
    U = np.array(inputs).T
    # per level, the CSR rows of the pairs kept, and the nominal knot
    # points of all its pairs (tubes, I, J, n)
    rows: List[np.ndarray] = []
    levels: List[np.ndarray] = []
    truncated = False

    head = 0
    while head < len(order):
        level = [SplineTube(t) for t in order[head:]]
        H = np.stack([tube_interpolant(t, part, sys.Theta).values for t in level],
                     axis=2)
        knots = tube_knot_points(sys, np.repeat(H, n_in, axis=2),
                                 np.tile(U, len(level)), tau, steps,
                                 thetas).transpose(2, 0, 1)  # (pairs, J, n)
        # a pair is blocked when a nominal knot leaves X
        cols, located = _locate_inside(sys, part, knots)
        found = np.ones(len(cols), dtype=bool)
        for p, succ in enumerate(map(tuple, located.tolist())):
            if succ not in ids:
                if len(order) >= budget:
                    truncated = True
                    found[p] = False
                    continue
                ids[succ] = len(order)
                order.append(succ)
        rows.append(head * n_in + cols[found])
        levels.append(knots.reshape(len(level), n_in, len(thetas), sys.n))
        head += len(level)
    endpoints = np.concatenate(levels)  # (T, I, J, n)
    radius = np.array([max(_knot_widths(SplineTube(t), part)) for t in order]) * amp

    # successors: every discovered tube whose knot cells all meet the growth
    # boxes around the nominal knot points (closed boxes, touching counts)
    cell_lo, cell_hi = part.cell_bounds(order)  # (T, J, n)
    rows = np.concatenate(rows)
    pts = endpoints.reshape(-1, *endpoints.shape[2:])  # a view, row order
    # pairs are in row order, and tube ids are positions, so the successors
    # of every (P, T) mask are its row-major nonzero columns
    succ, sizes = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
    chunk = max(1, (1 << 16) // len(order))  # pairs per (P, T) test
    for start in range(0, len(rows), chunk):
        at = rows[start:start + chunk]
        p, r = pts[at], radius[at // n_in][:, None, None]
        meets = _boxes_meet_knot_cells(p - r, p + r, cell_lo, cell_hi)
        succ.append(np.nonzero(meets)[1].astype(np.int32))
        sizes.append(meets.sum(axis=1))
    indptr = _indptr(len(order) * n_in, rows, np.concatenate(sizes))

    states = [AbstractState(k, tube=SplineTube(t)) for k, t in enumerate(order)]
    ctx = _BuildContext(sys=sys, tau=tau, lipschitz=lipschitz, steps=steps,
                        growth_scale=growth_scale, knot_thetas=thetas)
    return TransitionSystem("timedelay", states, inputs,
                            (indptr, np.concatenate(succ)),
                            partition=part, ctx=ctx,
                            truncated=truncated, endpoints=endpoints, radius=radius)
