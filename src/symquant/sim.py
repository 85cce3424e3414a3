"""Closed-loop simulation of the concrete plant under the refined controller.

The loop is sample, quantize, look up, hold: at every multiple of the
sampling period the state (or functional state) is located in the abstract
partition, the current phase's table supplies the input, and the plant runs
one period under that constant input.  The phase advances when the located
abstract state enters the current waypoint set (one advance per sampling
instant); completion means all phases have advanced.  Both kinds of run
share the loop and its box rule: the points about to be located (the
state, or a functional's N+2 knot points) are tested against the closed
state box first, and a point outside ends the run with the rows so far.
Time-delay runs keep an input buffer primed with zeros, so the controller
gains authority only r seconds after the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .abstraction import TransitionSystem
from .dynamics import (SampledCurve, DEFAULT_STEPS, integrate,
                       integrate_delay)
from .frr import RefinementMap
from .model_io import _fmt
from .synthesis import Controller


@dataclass
class TrajectorySample:
    t: float
    x: np.ndarray
    u: np.ndarray
    input_id: int  # -1 on the terminal row (no input applied)
    phase: int
    cell_id: int


@dataclass
class Trajectory:
    samples: List[TrajectorySample]

    def __len__(self):
        return len(self.samples)


@dataclass
class CompletionReport:
    completed: bool
    steps: int
    time: float
    phase_reached: int
    n_phases: int
    reason: str

    def as_text(self) -> str:
        status = "completed" if self.completed else "incomplete"
        return (f"run {status}: phases {self.phase_reached}/{self.n_phases}, "
                f"steps {self.steps}, time {_fmt(self.time)} s ({self.reason})")


def run_closed_loop(sys, controller: Controller, F: RefinementMap,
                    x0=None, xi0: Optional[SampledCurve] = None,
                    tau: float = 0.2, max_steps: int = 500,
                    steps: int = DEFAULT_STEPS) -> Tuple[Trajectory, CompletionReport]:
    """Simulate until the waypoint sequence completes or max_steps elapse.

    Exactly one of x0 (delay-free) and xi0 (functional initial state) must
    be given.  A run whose state, or a knot point of whose functional,
    leaves the closed state box ends incomplete, with no row for that
    instant.  The terminal row of the trajectory carries a zero input and
    input_id -1.
    """
    if (x0 is None) == (xi0 is None):
        raise ValueError("give exactly one of x0 and xi0")
    m, n_phases = sys.m, controller.n_phases
    tube = xi0 is not None
    if tube:
        state, buffer = xi0, [np.zeros(m)] * sys.input_delay_periods(tau)
    else:
        state = np.asarray(x0, dtype=float)
    rows: List[TrajectorySample] = []
    phase = 0
    completed, k, reason = False, max_steps, f"max_steps={max_steps} reached"
    for k in range(max_steps + 1):
        t = k * tau
        if tube:
            x, points = state(state.t1), F.knot_points(state)
        else:
            x = points = state
        if not sys.inside(points).all():
            reason = (f"functional state left the state box at t={_fmt(t)}"
                      if tube else
                      f"state {x.tolist()} left the state box at t={_fmt(t)}")
            break
        cid = F.tube_at(points) if tube else F.locate(x)
        if cid is None:
            reason = f"functional state maps to no abstract state at t={_fmt(t)}"
            break
        if phase < n_phases and cid in controller.waypoints[phase]:
            phase += 1
        if phase == n_phases:
            rows.append(TrajectorySample(t, x, np.zeros(m), -1, phase, cid))
            completed, reason = True, "all waypoints visited"
            break
        iid = controller.input_at(phase, cid)
        if iid is None:
            rows.append(TrajectorySample(t, x, np.zeros(m), -1, phase, cid))
            reason = (f"abstract state {cid} has no assignment in phase {phase}"
                      if k else
                      f"initial {'functional' if tube else 'state'} lies "
                      f"outside the phase-0 winning domain (abstract state {cid})")
            break
        u = controller.inputs[iid]
        rows.append(TrajectorySample(t, x, u, iid, phase, cid))
        if tube:
            if buffer:  # the plant receives the input chosen r/tau periods ago
                buffer, u = buffer[1:] + [u], buffer[0]
            state = integrate_delay(sys, state, u, tau, steps)
        else:
            state = integrate(sys, state, u, tau, steps)
    return Trajectory(rows), CompletionReport(completed, k, k * tau, phase,
                                              n_phases, reason)


def validate_path(ts: TransitionSystem, traj: Trajectory) -> Optional[int]:
    """Index of the first sample whose recorded step is not a transition of
    ts, or None when the whole cell sequence is an abstract run."""
    for i in range(len(traj.samples) - 1):
        a, b = traj.samples[i], traj.samples[i + 1]
        if a.input_id < 0:
            continue
        if b.cell_id not in ts.successors(a.cell_id, a.input_id):
            return i
    return None


def export_trajectory(traj: Trajectory, path: str) -> None:
    """CSV with columns t, x1..xn, u1..um, phase, cell_id at 9 significant digits."""
    if traj.samples:
        n = len(traj.samples[0].x)
        m = len(traj.samples[0].u)
    else:
        n = m = 0
    cols = (["t"] + [f"x{i + 1}" for i in range(n)]
            + [f"u{j + 1}" for j in range(m)] + ["phase", "cell_id"])
    lines = [",".join(cols)]
    for s in traj.samples:
        lines.append(",".join(map(_fmt, [s.t, *s.x, *s.u]))
                     + f",{s.phase},{s.cell_id}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
