"""Full pipeline on the damped pendulum: build, synthesize, simulate.

The plant is
    x1' = x2
    x2' = -1.96 sin(x1) - 1.5 x2 + u
on X = [-1,1]^2 with U = [-2.5, 2.5], sampled every 0.2 s.  State
quantization is logarithmic (eta = 0.2, first level 0.48), which yields a
5x5 grid of cells with quantized points in {0, +-0.48, +-0.72}^2.  The
specification is an alternation: swing the quantized state back and forth
between the origin cell and its left neighbor, with one full loop around
the four axis cells in the middle.

Run:  python3 demos/01_coarse_pipeline.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from symquant import (ControlSystem, LogQuantizerParams, RefinementMap,
                      Specification, build_delayfree, run_closed_loop,
                      synthesize_sequence, validate_path)
from symquant.model_io import write_controller, write_ts
from symquant.sim import export_trajectory

OUT = Path(sys.argv[1] if len(sys.argv) > 1 else "demo-out")
OUT.mkdir(parents=True, exist_ok=True)

plant = ControlSystem.from_strings(
    ["x2", "-1.96*sin(x1) - 1.5*x2 + u1"],
    [-1, -1], [1, 1], [-2.5], [2.5])

print("building the abstraction (L = 6, tau = 0.2) ...")
ts = build_delayfree(plant, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                     lipschitz=6.0)
print(f"  {len(ts.ids)} states, {len(ts.inputs)} inputs, "
      f"{ts.n_transitions} transitions")
write_ts(ts, str(OUT / "pendulum.sts"))

phi = 0.48
cid = lambda x, y: ts.partition.locate(np.array([x, y]))
s1 = [cid(0, 0), cid(-phi, 0)]
s2 = [cid(0, phi), cid(phi, 0), cid(0, -phi), cid(-phi, 0)]
spec = Specification("sequence", [(q,) for q in s1 + s1 + s2 + s1 + s1])
print(f"\nwaypoint sequence ({len(spec.targets)} legs): "
      + " -> ".join(str(t[0]) for t in spec.targets))

ctrl = synthesize_sequence(ts, spec, mode="hold")
write_controller(ctrl, str(OUT / "pendulum.ctrl"))
sizes = [len(p) for p in ctrl.phases]
print(f"synthesized {ctrl.n_phases} phase tables, "
      f"{min(sizes)}..{max(sizes)} states covered per phase")

print("\nclosed loop from (-0.48, 0):")
traj, report = run_closed_loop(plant, ctrl, RefinementMap.from_ts(ts),
                               x0=np.array([-0.48, 0.0]),
                               tau=0.2, max_steps=200)
print("  " + report.as_text())
bad = validate_path(ts, traj)
print("  every step is an abstract transition" if bad is None
      else f"  step {bad} left the abstract model (unexpected)")
export_trajectory(traj, str(OUT / "pendulum_run.csv"))

cells = [s.cell_id for s in traj.samples]
print(f"  visited cells: {' '.join(str(c) for c in cells[:18])} ...")
print(f"\nartifacts in {OUT}/: pendulum.sts, pendulum.ctrl, pendulum_run.csv")
