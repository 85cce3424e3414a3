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

Robust reach computes that fixed point in rounds over the CSR arrays:
each round checks every non-empty row against the current winning set, and
a state first won in round k takes its smallest input whose successors all
lie in W_{k-1}.  Target states take their smallest enabled input in the
whole model.

Waypoint sequences chain per-phase reach tables; the phase advances when
the trajectory's abstract state enters the current waypoint set.  A reach
and a sequence take one path, which does each mode's target-independent
work once per call: robust mode's list of non-empty rows, and hold mode's
one pass over held periods, which starts from the endpoints the build kept
(ts.endpoints) and updates every target's table as each step is located.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .abstraction import TransitionSystem, _locate_inside
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

    The non-empty rows and where their successors start are found once.
    Each target then runs the fixed point as rounds: round k ANDs, per
    non-empty row, whether each successor lies in W_{k-1}, and every state
    not yet won takes the smallest input whose row is ready (_claim).  The
    rounds stop when one wins nothing.
    """
    n_in, ids = len(ts.inputs), ts.ids
    rows = np.flatnonzero(np.diff(ts.indptr))
    starts = ts.indptr[rows]
    tables = []
    for target in targets:
        table: Tuple[Dict[int, int], Dict[int, int]] = ({}, {q: 0 for q in target})
        won = np.zeros(len(ids), dtype=bool)  # by state position
        won[np.searchsorted(ids, target)] = True
        level = 0
        while rows.size:
            level += 1
            ready = np.logical_and.reduceat(won[ts.succ], starts)
            if not _claim(rows[ready], won, ids, n_in, level, table).size:
                break
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
    for target in targets:
        if not target:
            raise SynthesisError("target must be nonempty")
        missing = [q for q in target if q not in ts._pos]
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
