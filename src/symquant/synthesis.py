"""Controller synthesis on the finite abstraction.

Two reach semantics are offered.  Mode 'robust' is the classical fixed
point on the nondeterministic model: a state wins when some input forces
every abstract successor into the current winning set; only this mode turns
the refinement relation into an unconditional concrete guarantee.  On
coarse logarithmic lattices it is typically empty for single-cell targets,
because every growth box spans several cells.  Mode 'hold' searches, per
state, for one input that, held constant over consecutive sampling periods,
drives the nominal trajectory of the cell's quantized point into the target
within a step cap; that matches controllers that hold one input per leg
for several periods, and the closed loop re-evaluates the table at every
sample, so deviations from the nominal path are corrected by feedback
rather than guarded a priori.

Robust reach skips dominated pairs: (q, j) is dominated when its
successors contain those of a non-empty pair (q, i) with i < j.  That is
exact.  Whenever every successor of (q, j) is won, so is every successor
of (q, i), and a state takes the smallest ready input, so (q, j) never
wins q and its absence changes no winning domain, level or input.  Target
states take their smallest enabled input in the whole model.

Waypoint sequences chain per-phase reach tables; the phase advances when
the trajectory's abstract state enters the current waypoint set.  A reach
and a sequence take one path, which does each mode's target-independent
work once per call: robust mode's predecessor arrays, and hold mode's one
pass over held periods, which starts from the endpoints the build kept
(ts.endpoints) and updates every target's table as each step is located.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .abstraction import TransitionSystem, _locate_inside, _positions
from .dynamics import integrate_batch


class SynthesisError(ValueError):
    pass


@dataclass
class Specification:
    kind: str  # 'reach' or 'sequence'
    targets: List[Tuple[int, ...]]  # one set for reach, one per waypoint

    def __post_init__(self):
        if self.kind not in ("reach", "sequence"):
            raise ValueError(f"unknown specification kind {self.kind!r}")
        if not self.targets or any(not t for t in self.targets):
            raise ValueError("targets must be nonempty")
        self.targets = [tuple(sorted(set(t))) for t in self.targets]


@dataclass
class Controller:
    """Phase-indexed input table with per-phase winning domains."""

    phases: List[Dict[int, int]]  # state id -> input id
    waypoints: List[Tuple[int, ...]]
    winning: List[Dict[int, int]]  # state id -> recorded step bound
    inputs: List[np.ndarray]
    mode: str

    def input_at(self, phase: int, sid: int) -> Optional[int]:
        return self.phases[phase].get(sid)

    @property
    def n_phases(self) -> int:
        return len(self.phases)


def _robust_reach(ts: TransitionSystem, targets: List[Tuple[int, ...]]):
    """(policy, dist) of every target under the fixed point
    W_k = W_{k-1} + {q : exists u, {} != post(q,u) <= W_{k-1}}.

    The predecessor arrays do not depend on the target and are built once,
    over the undominated pairs only (_undominated).  Each target then runs
    a worklist over them that visits every kept transition once: every
    pair counts its successors not yet won, and the states won at level
    k-1 decrement the pairs leading into them.  A state first won at level
    k takes the smallest input id whose count reached zero then, which is
    the smallest input whose successors all lie in W_{k-1}.  Each level
    counts the hits per row with one np.bincount (np.unique would import
    numpy.ma, about 1.7 MiB).
    """
    n_in, ids = len(ts.inputs), ts.ids
    n_succ = np.diff(ts.indptr).astype(np.int32)
    pred, pred_ptr = _predecessors(ts, ids, n_succ, _undominated(ts, n_succ))
    n_pred = np.diff(pred_ptr)
    tables = []
    for target in targets:
        left = n_succ.copy()
        table: Tuple[Dict[int, int], Dict[int, int]] = ({}, {q: 0 for q in target})
        frontier = np.sort(_positions(ids, np.array(target, dtype=np.int64))[0])
        won = np.zeros(len(ids), dtype=bool)
        won[frontier] = True
        level = 0
        while frontier.size:
            level += 1
            sizes = n_pred[frontier]
            at = np.repeat(pred_ptr[frontier] - np.cumsum(sizes) + sizes, sizes)
            at += np.arange(len(at))
            hits = np.bincount(pred[at], minlength=len(left))
            del at
            rows = np.flatnonzero(hits)
            left[rows] -= hits[rows]
            frontier = _claim(rows[left[rows] == 0], won, ids, n_in, level, table)
        tables.append(table)
    return tables


def _claim(rows: np.ndarray, won: np.ndarray, ids: np.ndarray, n_in: int,
           level: int, table: Tuple[Dict[int, int], Dict[int, int]]) -> np.ndarray:
    """Give every state not yet won that has a row among the ascending CSR
    rows its smallest input there: mark it in won (by position), record
    input and level in table, (policy, dist), and return the positions
    won, ascending."""
    policy, dist = table
    rows = rows[~won[rows // n_in]]
    # rows ascend, so the first row of each state has its smallest input
    first = rows[np.flatnonzero(np.diff(rows // n_in, prepend=-1))]
    pos = first // n_in
    won[pos] = True
    for q, iid in zip(ids[pos].tolist(), (first % n_in).tolist()):
        dist[q] = level
        policy[q] = iid
    return pos


# edges per chunk of states; at most 2**15 (see _undominated).  With 2**15,
# the chunk's 256 KiB temporaries raised the robust synthesize stage's
# peak RSS on the 55-tube delay demo by 0.6 MiB
_REACH_EDGES = 1 << 14


def _state_chunks(ts: TransitionSystem):
    """[r0, r1) CSR row ranges that cover the rows state by state, each
    with the rows of as many whole states as fit in _REACH_EDGES edges
    (at least one state)."""
    n_in = len(ts.inputs)
    ends = ts.indptr[n_in::n_in]  # where each state's edges end
    s0 = 0
    while s0 < len(ends):
        s1 = max(s0 + 1, int(np.searchsorted(
            ends, ts.indptr[s0 * n_in] + _REACH_EDGES, side="right")))
        yield s0 * n_in, s1 * n_in
        s0 = s1


def _undominated(ts: TransitionSystem, sizes: np.ndarray) -> np.ndarray:
    """bool per CSR row: the row is non-empty and no non-empty row of a
    smaller input at the same state has successors it contains.

    A dominated row can never win its state: when its successors all lie
    in W_{k-1}, so do those of the smaller input that it contains, and the
    reach takes the smallest ready input.  So the reach may skip it.

    Per chunk of states (_state_chunks), a sort of the chunk's edges by
    (state, successor) gives, per 64 inputs, a bit mask per (state,
    successor) of the inputs that reach it; the AND of those masks over a
    row's successors marks the rows at its state that contain it, and every
    such row of a larger input is dominated.  The sort key packs state rank,
    successor offset and edge index into one int64: at most 15 + 32 + 16
    bits while a chunk has at most 2**15 edges, and 32 + 31 for a chunk of
    one state.  No copy of succ is made.
    """
    n_in = len(ts.inputs)
    # per 64-input word: each input's bit, and the bits of larger inputs
    bit = np.zeros(((n_in + 63) // 64, n_in), dtype=np.uint64)
    for w, word in enumerate(bit):
        word[64 * w:64 * w + 64] = np.left_shift(
            np.uint64(1), np.arange(min(64, n_in - 64 * w), dtype=np.uint64))
    above = np.zeros_like(bit)
    above[:, :-1] = np.bitwise_or.accumulate(bit[:, :0:-1], axis=1)[:, ::-1]
    keep = sizes > 0
    for r0, r1 in _state_chunks(ts):
        rows = r0 + np.flatnonzero(sizes[r0:r1])
        if not rows.size:
            continue
        counts, row_in, state = sizes[rows], rows % n_in, rows // n_in
        n_edges = int(counts.sum())
        new_state = np.r_[True, state[1:] != state[:-1]]
        first = np.flatnonzero(new_state)  # each state's first row
        edges = ts.succ[ts.indptr[rows[0]]:ts.indptr[r1]].astype(np.int64)
        edges -= edges.min()
        succ_bits, idx_bits = int(edges.max()).bit_length(), n_edges.bit_length()
        key = np.repeat((np.cumsum(new_state) - 1) << succ_bits, counts)
        key |= edges
        del edges
        key <<= idx_bits
        key |= np.arange(n_edges)
        key.sort()
        order = key & ((1 << idx_bits) - 1)
        key >>= idx_bits
        groups = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        del key
        group_sizes = np.diff(groups, append=n_edges)
        edge_in = np.repeat(row_in, counts)[order]
        row_start = ts.indptr[rows] - ts.indptr[rows[0]]
        hit = np.zeros(len(rows), dtype=bool)
        for bit_w, above_w in zip(bit, above):
            # per (state, successor): the inputs that reach it
            reach = np.bitwise_or.reduceat(bit_w[edge_in], groups)
            mask = np.empty(n_edges, dtype=np.uint64)
            mask[order] = np.repeat(reach, group_sizes)
            # per row: the rows of larger inputs at its state that contain it
            inside = np.bitwise_and.reduceat(mask, row_start) & above_w[row_in]
            del mask
            dominated = np.repeat(np.bitwise_or.reduceat(inside, first),
                                  np.diff(first, append=len(rows)))
            hit |= (dominated & bit_w[row_in]) != 0
        keep[rows[hit]] = False
    return keep


def _predecessors(ts: TransitionSystem, ids: np.ndarray, sizes: np.ndarray,
                  keep: np.ndarray):
    """int32 rows leading into each state, grouped by state position: the
    kept rows (keep, a bool per row) into the state at position k are
    pred[pred_ptr[k]:pred_ptr[k + 1]], ascending.  sizes holds each row's
    successor count.

    One int64 key per kept edge, position * rows + row, filled one chunk of
    states at a time and sorted in place, gives both arrays; it is the only
    edge-long int64 array.
    """
    n_rows = len(sizes)
    key = np.empty(int(sizes[keep].sum()), dtype=np.int64)
    at = 0
    for r0, r1 in _state_chunks(ts):
        edges = np.repeat(keep[r0:r1], sizes[r0:r1])
        # states ascend by id, and every successor names one
        part = np.searchsorted(ids, ts.succ[ts.indptr[r0]:ts.indptr[r1]][edges])
        part *= n_rows
        part += np.repeat(np.arange(r0, r1), np.where(keep[r0:r1], sizes[r0:r1], 0))
        key[at:at + len(part)] = part
        at += len(part)
    key.sort()
    pred_ptr = np.searchsorted(key, np.arange(len(ids) + 1, dtype=np.int64) * n_rows)
    np.remainder(key, n_rows, out=key)
    return key.astype(np.int32), pred_ptr


def _hold_reach(ts: TransitionSystem, targets: List[Tuple[int, ...]], max_hold: int):
    """(policy, dist) of every target: per state, the fewest steps, then
    the smallest input id, whose held nominal trajectory from the cell's
    quantized point enters the target inside the state box.

    One loop over held periods serves every target.  Step 1 is
    ts.endpoints; each later step advances the live pairs in one
    integrate_batch call, and every step is located in one
    Partition.locate_batch call and read by every target at once, so no
    step is stored.  A pair leaves the live set when its endpoint leaves the
    state box or when its state has won every target, which changes no
    table; the loop ends after max_hold steps or when no pair is live.
    """
    if ts.kind != "delayfree":
        raise SynthesisError("hold mode needs a delay-free model")
    ctx = ts._ctx
    if ctx is None or ts.partition is None or ts.endpoints is None:
        raise SynthesisError("model carries no build context; rebuild from config")
    sys = ctx.sys
    n_in, ids = len(ts.inputs), ts.ids
    goal = np.zeros((len(targets), ids.max() + 1), dtype=bool)  # by cell id
    for row, target in zip(goal, targets):
        row[list(target)] = True
    won = goal[:, ids]  # by state position
    tables = [({}, {q: 0 for q in target}) for target in targets]
    X = ts.endpoints.reshape(-1, sys.n).T
    U = np.tile(np.array(ts.inputs), (len(ids), 1)).T
    live = np.arange(X.shape[1], dtype=np.int32)  # CSR rows, ascending
    for k in range(1, max_hold + 1):
        if k > 1:
            X = integrate_batch(sys, X, U[:, live], ctx.tau, ctx.steps)
        inside, cells = _locate_inside(sys, ts.partition, X.T)
        X, live = X[:, inside], live[inside]
        for won_t, goal_t, table in zip(won, goal, tables):
            _claim(live[goal_t[cells]], won_t, ids, n_in, k, table)
        keep = ~won.all(axis=0)[live // n_in]
        X, live = X[:, keep], live[keep]
        if not live.size:
            break
    return tables


def _reach_tables(ts: TransitionSystem, targets: List[Tuple[int, ...]],
                  mode: str, max_hold: int):
    """(policy, dist) of every target, each a sorted tuple of state ids; the
    mode's target-independent work is done once for all of them.  Target
    states are assigned their smallest enabled input."""
    known = set(ts.state_ids())
    for target in targets:
        if not target:
            raise SynthesisError("target must be nonempty")
        missing = [q for q in target if q not in known]
        if missing:
            raise SynthesisError(f"target references unknown states {missing}")
    if mode == "robust":
        tables = _robust_reach(ts, targets)
    elif mode == "hold":
        if not isinstance(max_hold, Integral) or max_hold < 1:
            raise SynthesisError("max_hold: must be an integer >= 1")
        tables = _hold_reach(ts, targets, max_hold)
    else:
        raise SynthesisError(f"unknown synthesis mode {mode!r}")
    for target, (policy, _) in zip(targets, tables):
        for q in target:
            enabled = ts.enabled(q)
            if enabled:
                policy[q] = enabled[0]
    return tables


def synthesize_reach(ts: TransitionSystem, target: Sequence[int],
                     mode: str = "robust",
                     max_hold: int = 64) -> Tuple[Controller, Dict[int, int]]:
    """Reach controller and winning domain (state id -> step bound).

    Target states belong to the winning domain at distance 0; they are
    assigned their smallest enabled input so the table is total on the
    winning domain (a state with no enabled input stays unassigned).  An
    empty winning domain beyond the target is reported by the returned map,
    not raised.
    """
    target = tuple(sorted(set(target)))
    ((policy, dist),) = _reach_tables(ts, [target], mode, max_hold)
    ctrl = Controller([policy], [target], [dist], list(ts.inputs), mode)
    return ctrl, dist


def synthesize_sequence(ts: TransitionSystem, spec: Specification,
                        mode: str = "hold",
                        max_hold: int = 64) -> Controller:
    """Chain reach controllers along the waypoint list.

    Each phase's table must cover the previous waypoint set (where that
    phase starts); the first phase's coverage is checked at run time against
    the actual initial state.
    """
    tables = _reach_tables(ts, spec.targets, mode, max_hold)
    for p in range(1, len(tables)):
        dead = [q for q in spec.targets[p - 1] if q not in tables[p][1]]
        if dead:
            raise SynthesisError(
                f"leg {p}: waypoint set {list(spec.targets[p])} unreachable "
                f"from previous waypoint states {dead}")
    return Controller([policy for policy, _ in tables], list(spec.targets),
                      [dist for _, dist in tables], list(ts.inputs), mode)
