"""Zoom refinement: tighter waypoints on a locally finer lattice.

With the coarse 5x5 partition the alternation amplitude is pinned to the
first quantizer level, 0.48: no smaller swing is expressible, because the
points (+-0.3, 0) and (0, +-0.3) all land in the one center cell.
Splitting that cell into 9 uniform subcells (bin width 0.3) separates
them, so the same alternation shape can be posed at phi = 0.3 over a
33-state model.  Synthesis covers each phase's winning domain only; the
printout shows which phases are total and which leave subcells uncovered,
and the closed loop threads through the covered ones.

Run:  python3 demos/02_zoom_refinement.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from symquant import (ControlSystem, LogQuantizerParams, RefinementMap,
                      Specification, ZoomQuantizerParams, build_delayfree,
                      refine_cells, run_closed_loop, synthesize_sequence)
from symquant.sim import export_trajectory

OUT = Path(sys.argv[1] if len(sys.argv) > 1 else "demo-out")
OUT.mkdir(parents=True, exist_ok=True)

plant = ControlSystem.from_strings(
    ["x2", "-1.96*sin(x1) - 1.5*x2 + u1"],
    [-1, -1], [1, 1], [-2.5], [2.5])
coarse = build_delayfree(plant, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                         lipschitz=6.0)
center = coarse.partition.locate(np.array([0.0, 0.0]))

fine = refine_cells(coarse, {center: ZoomQuantizerParams(1, 1.0, 0.3)})
print(f"refined center cell {center}: {len(coarse.ids)} -> "
      f"{len(fine.ids)} states")

phi = 0.3
cid = lambda x, y: fine.partition.locate(np.array([x, y]))
s1 = [cid(0, 0), cid(-phi, 0)]
s2 = [cid(0, phi), cid(phi, 0), cid(0, -phi), cid(-phi, 0)]
legs = s1 + s1 + s2 + s1 + s1
print("waypoint subcells:", " -> ".join(str(q) for q in legs))

spec = Specification("sequence", [(q,) for q in legs])
ctrl = synthesize_sequence(fine, spec, mode="hold")
print(f"synthesis succeeded: {ctrl.n_phases} phases over {len(fine.ids)} "
      f"states")
for p, table in enumerate(ctrl.phases):
    gap = "" if len(table) == len(fine.ids) else "   <- partial"
    print(f"  phase {p:2d}: target {ctrl.waypoints[p]}, "
          f"{len(table)}/{len(fine.ids)} states covered{gap}")

# the loop re-locates the state every period, so it only ever consults
# table entries along the actual orbit; a landing outside a partial
# phase's coverage would stop the run with a named diagnostic
start = fine.partition.cell_arrays(legs[1])[2]
print(f"\nclosed loop from {start.tolist()}:")
traj, report = run_closed_loop(plant, ctrl, RefinementMap.from_ts(fine),
                               x0=start, tau=0.2, max_steps=200)
print("  " + report.as_text())
if not report.completed:
    print("  the run stopped where the landed subcell has no table entry")
export_trajectory(traj, str(OUT / "refined_run.csv"))
print(f"\ntrajectory written to {OUT}/refined_run.csv")
