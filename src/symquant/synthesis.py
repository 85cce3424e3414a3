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

Waypoint sequences chain per-phase reach tables; the phase advances when
the trajectory's abstract state enters the current waypoint set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .abstraction import TransitionSystem, _positions
from .dynamics import integrate_batch
from .frr import RefinementMap


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


def _robust_reach(ts: TransitionSystem, target: Tuple[int, ...]):
    """Fixed point W_k = W_{k-1} + {q : exists u, {} != post(q,u) <= W_{k-1}}.

    A worklist over predecessor arrays that visits every transition once:
    every pair counts its successors not yet won, and the states won at
    level k-1 decrement the pairs leading into them.  A state
    first won at level k takes the smallest input id whose count reached
    zero then, which is the smallest input whose successors all lie in
    W_{k-1}.  Each level counts the hits per row with one np.bincount
    (np.unique would import numpy.ma, about 1.7 MiB).
    """
    n_in = len(ts.inputs)
    ids = np.array(ts.state_ids(), dtype=np.int64)
    left = np.diff(ts.indptr).astype(np.int32)
    pred, pred_ptr = _predecessors(ts, ids, left)

    dist = {q: 0 for q in target}
    policy: Dict[int, int] = {}
    frontier = np.sort(_positions(ids, np.array(target, dtype=np.int64))[0])
    won = np.zeros(len(ids), dtype=bool)
    won[frontier] = True
    n_pred = np.diff(pred_ptr)
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
        done = rows[left[rows] == 0]  # ascending: by state, then by input
        done = done[~won[done // n_in]]
        # the first row of each state: its smallest input
        first = np.flatnonzero(np.diff(done // n_in, prepend=-1))
        frontier = done[first] // n_in
        won[frontier] = True
        for q, iid in zip(ids[frontier].tolist(), (done[first] % n_in).tolist()):
            dist[q] = level
            policy[q] = iid
    return policy, dist


def _predecessors(ts: TransitionSystem, ids: np.ndarray, sizes: np.ndarray):
    """int32 rows leading into each state, grouped by state position: the
    rows into the state at position k are pred[pred_ptr[k]:pred_ptr[k + 1]],
    ascending.  sizes holds each row's successor count.

    One int64 key per edge, position * rows + row, sorted in place, gives
    both arrays; it is the only edge-long int64 array.
    """
    n_rows = len(sizes)
    key = _positions(ids, ts.succ)[0].astype(np.int64)
    key *= n_rows
    key += np.repeat(np.arange(n_rows, dtype=np.int32), sizes)
    key.sort()
    pred_ptr = np.searchsorted(key, np.arange(len(ids) + 1, dtype=np.int64) * n_rows)
    np.remainder(key, n_rows, out=key)
    return key.astype(np.int32), pred_ptr


def _hold_sequences(ts: TransitionSystem, max_hold: int) -> Dict[Tuple[int, int], List[int]]:
    """Cell id sequence visited by holding each input from each state's
    quantized point, truncated at the state box or max_hold; memoized on ts.

    All (state, input) pairs advance together, one period per batch, and
    the endpoints still inside the state box are located in one batch; a
    pair whose endpoint leaves the box drops out and is never integrated
    again.
    """
    if ts._hold_seqs is not None and ts._hold_seqs[0] >= max_hold:
        return ts._hold_seqs[1]
    ctx = ts._ctx
    if ctx is None or ts.partition is None:
        raise SynthesisError("model carries no build context; rebuild from config")
    sys, part = ctx.sys, ts.partition
    pairs = [(s.id, iid) for s in ts.states for iid in range(len(ts.inputs))]
    seqs: Dict[Tuple[int, int], List[int]] = {p: [] for p in pairs}
    points = np.array([s.cell.quantized_point for s in ts.states])
    X = np.repeat(points, len(ts.inputs), axis=0).T
    U = np.tile(np.array(ts.inputs), (len(ts.states), 1)).T
    live = np.arange(len(pairs))
    lo, hi = sys.state_lo[:, None], sys.state_hi[:, None]
    for _ in range(max_hold):
        if not live.size:
            break
        X = integrate_batch(sys, X, U[:, live], ctx.tau, ctx.steps)
        inside = np.all((X >= lo) & (X <= hi), axis=0)
        X, live = X[:, inside], live[inside]
        for j, cid in zip(live.tolist(), part.locate_batch(X.T).tolist()):
            seqs[pairs[j]].append(cid)
    ts._hold_seqs = (max_hold, seqs)
    return seqs


def _hold_reach(ts: TransitionSystem, target: Tuple[int, ...], max_hold: int):
    """Per state, the first (steps, input id) whose held nominal trajectory
    from the cell's quantized point enters the target inside the state box."""
    if ts.kind != "delayfree":
        raise SynthesisError("hold mode needs a delay-free model")
    seqs = _hold_sequences(ts, max_hold)
    target_set = set(target)
    dist = {q: 0 for q in target}
    policy: Dict[int, int] = {}
    for s in ts.states:
        q = s.id
        if q in dist:
            continue
        best: Optional[Tuple[int, int]] = None
        for iid in range(len(ts.inputs)):
            seq = seqs[(q, iid)]
            k = next((i + 1 for i, c in enumerate(seq[:max_hold])
                      if c in target_set), None)
            if k is not None and (best is None or k < best[0]):
                best = (k, iid)
        if best is not None:
            dist[q] = best[0]
            policy[q] = best[1]
    return policy, dist


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
    if not target:
        raise SynthesisError("target must be nonempty")
    known = set(ts.state_ids())
    missing = [q for q in target if q not in known]
    if missing:
        raise SynthesisError(f"target references unknown states {missing}")
    if mode == "robust":
        policy, dist = _robust_reach(ts, target)
    elif mode == "hold":
        policy, dist = _hold_reach(ts, target, max_hold)
    else:
        raise SynthesisError(f"unknown synthesis mode {mode!r}")
    for q in target:
        enabled = ts.enabled(q)
        if enabled:
            policy[q] = enabled[0]
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
    if spec.kind == "reach":
        ctrl, _ = synthesize_reach(ts, spec.targets[0], mode, max_hold)
        return ctrl
    phases: List[Dict[int, int]] = []
    winning: List[Dict[int, int]] = []
    for p, waypoint in enumerate(spec.targets):
        ctrl_p, dist = synthesize_reach(ts, waypoint, mode, max_hold)
        phases.append(ctrl_p.phases[0])
        winning.append(dist)
        if p > 0:
            start = spec.targets[p - 1]
            dead = [q for q in start if q not in dist]
            if dead:
                raise SynthesisError(
                    f"leg {p}: waypoint set {list(waypoint)} unreachable "
                    f"from previous waypoint states {dead}")
    return Controller(phases, list(spec.targets), winning, list(ts.inputs), mode)


@dataclass
class ConcreteLaw:
    """The abstract controller composed with the state quantizer."""

    controller: Controller
    F: RefinementMap

    def __call__(self, x, phase: int) -> np.ndarray:
        sid = self.F.locate(x)
        iid = self.controller.input_at(phase, sid)
        if iid is None:
            raise SynthesisError(
                f"state {list(np.atleast_1d(x))} (abstract {sid}) has no "
                f"assignment in phase {phase}")
        return self.controller.inputs[iid]


def refine_controller(c: Controller, F: RefinementMap) -> ConcreteLaw:
    return ConcreteLaw(c, F)
