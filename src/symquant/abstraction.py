"""Finite symbolic models of sampled control systems.

Delay-free construction: states are the logarithmic lattice cells, inputs a
quantized grid, and (cell, input) gets every cell intersecting the box
around the nominal endpoint integrate(q, u, tau) of radius

    growth_scale * e^(mu*tau) * max_i s_i                on every axis,

s = max(q - lower, upper - q), the largest distance from the quantized
point q to the cell on each axis, and mu the cell's sampled matrix measure
over the cell grown by 1.1*tau*max|f| (estimate_lipschitz with tau), or a
numeric lipschitz as given: one rule for log, merged, deadzone and zoom
cells.  A cell is an id: its bounds and q are rows of the partition's cell
table (Partition.cell_arrays).  The per-pair build stays on flat arrays
from start to end: the (C, n) bounds and quantized points of all C cells,
one rate estimate over them, the (C,) radii, a preallocated (C, I, n) array
that each integrate() call writes its nominal endpoint into, the blocked
pairs, and the growth boxes as (C*I, n) arrays in CSR row order.  Each box
row goes to one Partition.intersecting() query, a scan of the cell table,
whose cell ids are appended to an int32 buffer that, its ids turned into
state positions in place, becomes the model's successor array without a
copy (see TransitionSystem); the model keeps the endpoint array.

derive_delayfree gives the same model, byte for byte and with bitwise
equal endpoints, from batched kernels: integrate_batch over every (cell,
input) pair, 4096 pairs per call, one state-box test for the blocked
pairs, and one batched box query (Partition.box_spans, the per-axis index
ranges of SCOTS, and Partition.box_cells, which asks each zoom record only
for the rows that reach it).  Both paths share the first step
(_delayfree_cells: cell arrays, rates and radii) and the last
(_delayfree_ts: CSR and model assembly).  build_delayfree derives every
model of at least 2 * 4096 (cell, input) pairs and builds a smaller one
pair by pair (_delayfree_model), the reference the tests compare the
derivation with (its table scan checks the batched index ranges) and the
path whose integrate and intersecting calls the benchmark self-test
counts.  The model checks of the CLI and refine_cells always derive.

Time-delay construction: states are spline tubes, tuples of N+2 knot cells
on [-Theta, 0] sampled at the peaks of linear hat functions.  A tube's
quantized functional is the linear interpolant through the knot quantized
points, the last alone when Theta = 0 (dynamics.history_rows); the
successor test requires, at every knot time, intersection of the knot cell
with the box of radius 2*theta2*e^(L*tau) around the integrated endpoint,
theta2 the tube's largest knot half-width over knots and axes: half a knot
cell's extent on an axis, or Lambda*delta on a zoom subcell.  Knot points,
bounds and half-widths come from the partition's cell table by id
(Partition.cell_arrays).  Tubes are discovered by forward exploration
along nominal successors from psi2(xi0) under a state budget; pairs whose
nominal successor is undiscovered or leaves the state box are blocked (no
successors).  Exploration runs one breadth-first level at a time: one
method-of-steps batch over every (tube, input) pair of the level, one
array test for blocked pairs, one Partition.locate_batch call for all
nominal knots, then a walk over the pairs in (tube, input) order that
numbers new tubes.  The model keeps its tubes' knot cell ids as one
(T, N+2) array (ts.knots), every pair's nominal knot points
(ts.endpoints) and each tube's growth radius (ts.radius), and the successor
sets come from one closed-box test of those growth boxes against the knot
cells of all discovered tubes, a tube's knot cells being one box in the
product of the knot spaces, by the closed-box compare that
Partition.intersecting scans the cell table with (quantizers._boxes_meet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from array import array
from collections.abc import Mapping
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import (ControlSystem, SampledCurve, TimeDelaySystem,
                       DEFAULT_STEPS, estimate_lipschitz,
                       estimate_lipschitz_batch, history_curve, history_rows,
                       integrate, integrate_batch, integrate_delay_batch,
                       interpolate_batch)
from .quantizers import (LogQuantizerParams, Partition, ZoomQuantizerParams,
                         _boundaries_up_to, _boxes_meet)


def growth_bound_delayfree(spread, rate, tau: float) -> np.ndarray:
    """The radius e^(rate*tau) * max_i spread_i on every axis: of one cell's
    spread (n,) under a float rate, or of C cells' (C, n) under (C,) rates;
    a cell's spread is max(q - lower, upper - q) per axis, the largest
    distance from its quantized point q to the cell.  A rate may be
    negative or zero, but it must be a number."""
    rate = np.asarray(rate, dtype=float)
    if np.isnan(rate).any() or not tau > 0:
        raise ValueError("the growth rate must be a number and tau positive")
    # math.exp, which np.exp does not match bit for bit on every build, into
    # the array: a list of floats made the traced build four times slower
    amp = np.empty(rate.shape)
    for i, v in enumerate(rate.flat):
        amp.flat[i] = math.exp(v * tau)
    return amp * np.max(spread, axis=-1)


def growth_rates(sys: Union[ControlSystem, TimeDelaySystem], tau: float, part: Partition,
                 lipschitz: Union[str, float] = "sampled-jacobian") -> np.ndarray:
    """The growth rates a build on part takes: for a delay-free plant, the
    (C,) rates mu of part's C active cells, with tau; for a time-delay
    plant, one L over the whole state box, as a (1,) array.  A numeric
    lipschitz is the rate as given."""
    if isinstance(sys, TimeDelaySystem):
        return np.array([estimate_lipschitz(sys, sys.state_lo, sys.state_hi, None, lipschitz)])
    return estimate_lipschitz_batch(sys, *part.cell_arrays(part.ids)[:3], lipschitz, tau)


def _locate_inside(sys, part: Partition, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of points (K, ..., n) that lie wholly inside the closed
    state box of sys, ascending, and the cells of their points, of shape
    (len(rows), ...), from one Partition.locate_batch call."""
    rows = np.flatnonzero(sys.inside(points).all(axis=tuple(range(1, points.ndim - 1))))
    kept = points[rows]
    cells = part.locate_batch(kept.reshape(-1, kept.shape[-1]))
    return rows, cells.reshape(kept.shape[:-1])


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

    A state is an id.  ids holds the state ids, ascending, as an int64
    array; the constructor rejects any other order, so position order is
    id order.  The relation is stored in CSR (compressed sparse row) arrays
    with one row per (state position, input id): row k*len(inputs) + i
    holds the successor state positions of (ids[k], input i) in
    succ[indptr[row]:indptr[row + 1]].  indptr is int64 with
    len(ids)*len(inputs) + 1 entries, succ int32 with every entry in
    0..len(ids)-1.  A pair is enabled exactly when its row is non-empty; a
    blocked pair's row is empty.  ids[succ] are the successor ids, which
    successors() and transition_rows() return.  Construction is
    deterministic: same configuration, same serialized bytes.

    cell_rows holds the cells of the model's S records (model_io),
    ascending by id: (ids, lower, upper, quantized point), the ids (S,)
    int64 and the rest (S, n).  A delay-free model's cells are its states;
    a tube model's are the cells its knots refer to, and knots is its
    (T, N+2) int64 array of knot cell ids, row k for state ids[k]; kind
    is "timedelay" for a model with knots and "delayfree" for one without.
    A built model takes its cell rows from its partition, a parsed model
    from its S records.

    A built model keeps the nominal successors of its successor test, in
    the order of ids, so no later stage integrates them again: endpoints
    is (S, I, n) for a delay-free model and (S, I, N+2, n), the knot points,
    for a tube model; radius is each tube's (S,) growth radius, and None
    for a delay-free model.  Parsed models have neither.
    """

    def __init__(self, ids, inputs: List[np.ndarray],
                 relation: Tuple[np.ndarray, np.ndarray],
                 cell_rows: Optional[Tuple[np.ndarray, ...]] = None,
                 knots: Optional[np.ndarray] = None,
                 partition: Optional[Partition] = None,
                 ctx: Optional[_BuildContext] = None,
                 truncated: bool = False,
                 endpoints: Optional[np.ndarray] = None,
                 radius: Optional[np.ndarray] = None):
        self.kind = "delayfree" if knots is None else "timedelay"
        self.ids = _ascending(np.asarray(ids, dtype=np.int64).reshape(-1))
        self.inputs = [np.atleast_1d(np.asarray(u, dtype=float)) for u in inputs]
        self.indptr = np.asarray(relation[0], dtype=np.int64)
        self.succ = np.asarray(relation[1], dtype=np.int32)
        if self.indptr.shape != (len(self.ids) * len(self.inputs) + 1,) or \
                self.indptr[-1] != len(self.succ):
            raise ValueError("indptr needs one row per (state, input) pair "
                             "and must end at len(succ)")
        if len(self.succ) and not 0 <= self.succ.min() <= self.succ.max() < len(self.ids):
            k = self.succ.min() if self.succ.min() < 0 else self.succ.max()
            raise ValueError(f"successor position {k} names no state")
        self.cell_rows = cell_rows
        self.knots = knots
        self.partition = partition
        self._ctx = ctx
        # tube exploration hit its budget: some frontier pairs are blocked
        self.truncated = truncated
        self.endpoints = endpoints
        self.radius = radius

    def _row_ids(self, row: int) -> Tuple[int, ...]:
        """The successor ids of CSR row row."""
        return tuple(self.ids[self.succ[self.indptr[row]:self.indptr[row + 1]]].tolist())

    def _at(self, sid) -> Optional[int]:
        """The position of state id sid, or None when no state has it."""
        pos, found = _positions(self.ids, np.array([sid], dtype=np.int64))
        return int(pos[0]) if found[0] else None

    def successors(self, sid: int, iid: int) -> Tuple[int, ...]:
        k = self._at(sid)
        if k is None or not 0 <= iid < len(self.inputs):
            return ()
        return self._row_ids(k * len(self.inputs) + iid)

    def enabled(self, sid: int) -> List[int]:
        k, n_in = self._at(sid), len(self.inputs)
        if k is None:
            return []
        return np.flatnonzero(np.diff(self.indptr[k * n_in:(k + 1) * n_in + 1])).tolist()

    @property
    def n_transitions(self) -> int:
        return len(self.succ)

    def transition_rows(self) -> Iterator[Tuple[Tuple[int, int], Tuple[int, ...]]]:
        """((state id, input id), successor ids) of every enabled pair, by
        state id and then input id."""
        n_in, ids = len(self.inputs), self.ids.tolist()
        for row in np.flatnonzero(np.diff(self.indptr)).tolist():
            yield (ids[row // n_in], row % n_in), self._row_ids(row)

    @property
    def states(self) -> np.ndarray:
        """ids, read-only, under the name bench/trace_stage.py reads (for
        len(), the number of states); it goes with transitions."""
        return self.ids

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


_POS_CHUNK = 1 << 13  # ids per lookup in _positions and _to_positions


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


def _to_positions(succ: np.ndarray, state_ids: np.ndarray) -> np.ndarray:
    """succ, int32 ids, with each id replaced in place by its position in
    the ascending state_ids, _POS_CHUNK at a time, so no temporary grows
    with succ; an id not there raises ValueError.  Ids 0..S-1 stay."""
    if len(state_ids) and state_ids[0] == 0 and state_ids[-1] == len(state_ids) - 1:
        return succ
    for a in range(0, len(succ), _POS_CHUNK):
        pos, found = _positions(state_ids, succ[a:a + _POS_CHUNK])
        if not found.all():
            raise ValueError(f"successor id {succ[a + np.argmin(found)]} names no state")
        succ[a:a + _POS_CHUNK] = pos
    return succ


def _indptr(n_rows: int, rows, sizes) -> np.ndarray:
    """indptr of n_rows CSR rows: row rows[j] holds sizes[j] entries, every
    other row none."""
    counts = np.zeros(n_rows + 1, dtype=np.int64)
    counts[np.asarray(rows, dtype=np.int64) + 1] = sizes
    return np.cumsum(counts)


def transition_arrays(state_ids: Sequence[int], n_inputs: int,
                      relation) -> Tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, succ) of a relation over the states of the
    ascending state_ids, for TransitionSystem: succ holds the successors'
    state positions.

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
        return indptr, _to_positions(dst.astype(np.int32), ids)
    del step
    by_edge = np.lexsort((dst, rows))
    same = (np.diff(rows[by_edge]) == 0) & (np.diff(dst[by_edge]) == 0)
    if same.any():
        e = by_edge[int(np.argmax(same)) + 1]
        raise ValueError(f"duplicate transition: ({src[e]}, {iid[e]}) -> {dst[e]}")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    return indptr, _to_positions(dst[np.argsort(rows, kind="stable")].astype(np.int32), ids)


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

_CHUNK = 4096  # trajectories per integrate_batch or integrate_delay_batch call
_DERIVE_PAIRS = 2 * 4096  # (cell, input) pairs from which build_delayfree derives


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

    A model of at least _DERIVE_PAIRS (cell, input) pairs is derived with
    batched kernels (_derived_model); a smaller one is built pair by pair
    (_delayfree_model).  Both give the same bytes and endpoints.
    """
    part, inputs, ctx = _delayfree_setup(sys, tau, lattice, input_quantization,
                                         lipschitz, steps, growth_scale)
    build = _derived_model if len(part.ids) * len(inputs) >= _DERIVE_PAIRS else _delayfree_model
    return build(sys, part, inputs, ctx)


def derive_delayfree(sys: ControlSystem, tau: float,
                     lattice: Union[LogQuantizerParams, Sequence[LogQuantizerParams], Partition],
                     input_quantization=("uniform", 0.2),
                     lipschitz: Union[str, float] = "sampled-jacobian",
                     steps: int = DEFAULT_STEPS,
                     growth_scale: float = 1.0) -> TransitionSystem:
    """build_delayfree's model, byte for byte and with bitwise equal
    endpoints, from the batched kernels the module docstring describes:
    _CHUNK pairs per integrate_batch call, then Partition.box_spans and
    Partition.box_cells of the growth boxes (_box_successors)."""
    return _derived_model(sys, *_delayfree_setup(sys, tau, lattice, input_quantization,
                                                 lipschitz, steps, growth_scale))


def _derived_model(sys: ControlSystem, part: Partition, inputs: List[np.ndarray],
                   ctx: _BuildContext) -> TransitionSystem:
    """derive_delayfree's model of every cell of part and input."""
    cells, radius = _delayfree_cells(sys, part, ctx)
    n_in, quantized = len(inputs), cells[3]
    # pair k*I + i starts at cell k's quantized point under input i; _CHUNK
    # pairs per call bound the kernel's temporaries
    starts = np.repeat(quantized, n_in, axis=0)
    U = np.tile(np.array(inputs), (len(quantized), 1))
    x1 = np.empty((len(quantized), n_in, sys.n))
    ends = x1.reshape(-1, sys.n)  # a view, in pair order
    for a in range(0, len(starts), _CHUNK):
        ends[a:a + _CHUNK] = integrate_batch(sys, starts[a:a + _CHUNK].T, U[a:a + _CHUNK].T,
                                             ctx.tau, ctx.steps).T
    del starts, U
    # a pair is blocked when its nominal endpoint leaves X
    rows = np.flatnonzero(sys.inside(x1).ravel())
    # the growth boxes are freed once their index ranges are known, and
    # made again a step at a time
    start, width = part.box_spans(*_growth_boxes(x1, radius, rows))
    sizes, succ = _box_successors(part, start, width, x1, radius, rows)
    return _delayfree_ts(part, inputs, ctx, cells, x1, rows, sizes, succ)


def _growth_boxes(x1: np.ndarray, radius: np.ndarray,
                  rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The closed growth boxes of the pairs rows, pair k*I + i's x1[k, i] -+
    radius[k, 0]: (C, I, n) endpoints, (C, 1, 1) or per axis (C, 1, n) radii."""
    cell = np.unravel_index(rows, x1.shape[:2])[0]  # not rows // I: its loops add 64 KiB RSS
    x, r = x1.reshape(-1, x1.shape[2]).take(rows, axis=0), radius.take(cell, axis=0)[:, 0]
    return x - r, x + r


_EXPAND_IDS = 4096  # lattice ids per expansion step of _box_successors


def _box_successors(part: Partition, start: np.ndarray, width: np.ndarray, x1: np.ndarray,
                    radius: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, array]:
    """The (K,) sizes and the int32 ids, row after row, of the cells that
    the growth boxes (_growth_boxes) of the K pairs rows, with index boxes
    start, width (Partition.box_spans), meet: Partition.box_cells of about
    _EXPAND_IDS lattice ids at a step, whose boxes the step makes again."""
    sizes, succ = width.prod(axis=1), array("i")
    for p, q in _steps(sizes):
        lo, hi = _growth_boxes(x1, radius, rows[p:q])
        sizes[p:q], ids = part.box_cells(start[p:q], width[p:q], lo, hi)
        ids = ids.astype(np.int32)  # the int64 ids are freed before the copy
        succ.frombytes(ids.tobytes())
    return sizes, succ


def _steps(sizes: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive row ranges [p, q) of about _EXPAND_IDS ids each (sizes[j]
    in row j) and at least one row; sizes[p:q] may change once given."""
    ends, p = np.cumsum(sizes), 0
    while p < len(sizes):
        q = max(p + 1, int(np.searchsorted(ends, ends[p] - sizes[p] + _EXPAND_IDS, "right")))
        yield p, q
        p = q


def _delayfree_setup(sys: ControlSystem, tau: float, lattice, input_quantization,
                     lipschitz, steps: int,
                     growth_scale: float) -> Tuple[Partition, List[np.ndarray], _BuildContext]:
    """The partition, inputs and build context of build_delayfree's
    arguments."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    part = lattice if isinstance(lattice, Partition) else \
        Partition(sys.state_lo, sys.state_hi, lattice)
    inputs = input_lattice(sys.input_lo, sys.input_hi, input_quantization)
    ctx = _BuildContext(sys=sys, tau=tau, lipschitz=lipschitz, steps=steps,
                        growth_scale=growth_scale)
    return part, inputs, ctx


def _delayfree_cells(sys: ControlSystem, part: Partition,
                     ctx: _BuildContext) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """The cell rows (ids, lower, upper, quantized point) of part's cells
    and their (C, 1, 1) growth radii, one rate estimate over all of them:
    the first step of both delay-free paths."""
    ids = part.ids
    lower, upper, quantized, _ = part.cell_arrays(ids)
    rate = growth_rates(sys, ctx.tau, part, ctx.lipschitz)
    radius = ctx.growth_scale * growth_bound_delayfree(
        np.maximum(quantized - lower, upper - quantized), rate, ctx.tau)[:, None, None]
    return (ids, lower, upper, quantized), radius


def _delayfree_ts(part: Partition, inputs: List[np.ndarray], ctx: _BuildContext,
                  cells: Tuple[np.ndarray, ...], x1: np.ndarray, rows, sizes,
                  succ) -> TransitionSystem:
    """The model of part's cells, their (C, I, n) endpoints x1, and the
    successor ids succ (an int32 buffer) of the CSR rows rows, sizes[j] of
    them for rows[j]: the last step of both delay-free paths."""
    ids = cells[0]
    indptr = _indptr(len(ids) * len(inputs), rows, sizes)
    succ = _to_positions(np.frombuffer(succ, dtype=np.int32), ids)
    return TransitionSystem(ids, inputs, (indptr, succ), cell_rows=cells,
                            partition=part, ctx=ctx, endpoints=x1)


def _delayfree_model(sys: ControlSystem, part: Partition,
                     inputs: List[np.ndarray], ctx: _BuildContext) -> TransitionSystem:
    """The delay-free transitions of every cell of part and input, built
    pair by pair on arrays as the module docstring describes: one integrate
    call per pair and one Partition.intersecting query per unblocked pair,
    the reference the tests compare the derivation with."""
    cells, radius = _delayfree_cells(sys, part, ctx)
    quantized = cells[3]
    x1 = np.empty((len(quantized), len(inputs), sys.n))
    for k, q in enumerate(quantized):
        for iid, u in enumerate(inputs):
            x1[k, iid] = integrate(sys, q, u, ctx.tau, ctx.steps)
    # one row per (cell, input), the CSR row order
    box_lo = (x1 - radius).reshape(-1, sys.n)
    box_hi = (x1 + radius).reshape(-1, sys.n)
    # a pair is blocked when its nominal endpoint leaves X; its row stays
    # empty
    rows = np.flatnonzero(sys.inside(x1).ravel())
    succ, sizes = array("i"), array("q")
    for j in rows.tolist():
        ids = part.intersecting(box_lo[j], box_hi[j])
        succ.extend(ids)
        sizes.append(len(ids))
    return _delayfree_ts(part, inputs, ctx, cells, x1, rows, sizes, succ)


def refine_cells(ts: TransitionSystem,
                 assignments: Dict[int, ZoomQuantizerParams]) -> TransitionSystem:
    """Zoom-refine cells of a delay-free model; ids of kept cells are stable.

    The result is derive_delayfree's model over the refined partition, with
    the build settings and inputs of ts: the model a build from scratch
    gives, byte for byte and with bitwise equal endpoints.
    """
    if ts.kind != "delayfree":
        raise ValueError("refine_cells applies to delay-free models")
    if ts._ctx is None or ts.partition is None or ts.endpoints is None:
        raise ValueError("model carries no build context; rebuild from config")
    if not assignments:
        return ts
    ctx, part, inputs = ts._ctx, ts.partition.refined(assignments), ts.inputs
    del ts  # a model the caller does not keep goes before the refined one is made
    return _derived_model(ctx.sys, part, inputs, ctx)


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


def knot_tube(points: np.ndarray, partition: Partition) -> Tuple[int, ...]:
    """The tube, its knot cell ids, whose knot cells hold the (N+2, n)
    points, from one Partition.locate_batch call."""
    return tuple(partition.locate_batch(points).tolist())


def psi2(curve: SampledCurve, partition: Partition, N: int) -> Tuple[int, ...]:
    """Abstract a functional (psi2): the cells of its N+2 knot points."""
    return knot_tube(knot_points(curve, N), partition)


def tube_interpolant(knots, partition: Partition, Theta: float) -> SampledCurve:
    """The quantized functional of the tube with the given knot cell ids:
    linear through the knot quantized points."""
    return history_curve(partition.cell_arrays(knots)[2], Theta)


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

    Every pair runs under its own input on [0, tau], whatever the input
    delay r: only run_closed_loop delays an input, by r/tau periods, so for
    r > 0 the closed loop runs a plant this model was not built for.
    """
    if sys.xi0 is None:
        raise ValueError("time-delay build needs the initial functional xi0")
    if tau <= 0:
        raise ValueError("tau must be positive")
    part = lattice if isinstance(lattice, Partition) else \
        Partition(sys.state_lo, sys.state_hi, lattice)
    inputs = input_lattice(sys.input_lo, sys.input_hi, input_quantization)

    thetas = knot_times(N, -sys.Theta, 0.0)
    # one rate over the whole state box
    L2, = growth_rates(sys, tau, part, lipschitz)
    amp = 2.0 * math.exp(L2 * tau) * growth_scale

    init = psi2(sys.xi0, part, N)
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
        level = order[head:]
        # the level's quantized functionals, (J, n, tubes); one row if Theta = 0
        H = history_rows(part.cell_arrays(level)[2].transpose(1, 2, 0), sys.Theta)
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
    knots = np.array(order, dtype=np.int64)
    # knot cells (T, J, n); a radius scales the tube's largest knot half-width
    cell_lo, cell_hi, _, half = part.cell_arrays(knots)
    radius = half.max(axis=(1, 2)) * amp
    # a tube's knot cells as one box in the product of the knot spaces
    cell_lo, cell_hi = cell_lo.reshape(len(order), -1), cell_hi.reshape(len(order), -1)

    # successors: every discovered tube whose knot cells all meet the growth
    # boxes around the nominal knot points (closed boxes, touching counts)
    rows = np.concatenate(rows)
    pts = endpoints.reshape(-1, *endpoints.shape[2:])  # a view, row order
    # pairs are in row order and tube ids are positions: the successors of
    # a (P, T) mask are its row-major True columns, gathered as int32 ids
    succ, sizes = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
    chunk = max(1, (1 << 16) // len(order))  # pairs per (P, T) test
    columns = np.arange(len(order), dtype=np.int32)
    for start in range(0, len(rows), chunk):
        at = rows[start:start + chunk]
        p, r = pts[at].reshape(len(at), 1, -1), radius[at // n_in][:, None, None]
        meets = _boxes_meet(p - r, p + r, cell_lo, cell_hi)
        succ.append(np.broadcast_to(columns, meets.shape)[meets])
        sizes.append(meets.sum(axis=1))
    indptr = _indptr(len(order) * n_in, rows, np.concatenate(sizes))

    ctx = _BuildContext(sys=sys, tau=tau, lipschitz=lipschitz, steps=steps,
                        growth_scale=growth_scale, knot_thetas=thetas)
    return TransitionSystem(np.arange(len(order)), inputs,
                            (indptr, np.concatenate(succ)),
                            cell_rows=(part.ids, *part.cell_arrays(part.ids)[:3]),
                            knots=knots, partition=part, ctx=ctx,
                            truncated=truncated, endpoints=endpoints, radius=radius)
