"""Functional states for a delayed plant, and a sampled relation check.

The plant gains a delayed velocity term and an actuation lag:

    x1' = x2
    x2' = -1.96 sin(x1) - 1.5 x2 + 0.1 x2(t - 0.2) + u(t - 0.2)

A state is now a curve segment over [-0.2, 0], abstracted as a "tube": the
tuple of partition cells its knots pass through.  Exploration starts from
the constant initial curve at (-0.72, -0.72) and discovers tubes on the
fly.  The finite model is then checked against the concrete flow by
sampling: jitter a discovered tube, integrate one period, and verify the
continuation lands inside the abstract successor boxes knot by knot.

Run:  python3 demos/03_time_delay_tubes.py
"""

import numpy as np

from symquant import (LogQuantizerParams, SampledCurve, TimeDelaySystem,
                      build_timedelay, sample_frr_timedelay)

plant = TimeDelaySystem.from_strings(
    ["x2", "-1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0.2) + u1"],
    [-1, -1], [1, 1], [-2.5], [2.5], Theta=0.2, r=0.2,
    xi0=SampledCurve(-0.2, 0.0, np.array([[-0.72, -0.72]])))  # one row: constant

print("exploring tubes from the constant corner history ...")
ts = build_timedelay(plant, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                     N=0, budget=1000)
print(f"  discovered {len(ts.ids)} tubes, {ts.n_transitions} transitions")

# a tube is a row of knot cell ids
flat = sum(len(set(knots)) == 1 for knots in ts.knots.tolist())
print(f"  {flat} tubes stay inside one cell over the whole window, "
      f"{len(ts.ids) - flat} cross a cell boundary")

print("\nsampled refinement check (200 draws, seed 1):")
report = sample_frr_timedelay(ts, 200, 1)
print("  " + report.as_text())
if report.passed:
    print("  every sampled continuation stayed inside its abstract successor")
else:
    for v in report.violations[:3]:
        print("  violation:", v.detail)

# the same machinery with the delay shrunk to zero must agree with a
# plain delay-free abstraction of the collapsed drift
print("\ndegenerate check (Theta = r = 0):")
flat_plant = TimeDelaySystem.from_strings(
    ["x2", "-1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0) + u1"],
    [-1, -1], [1, 1], [-2.5], [2.5], Theta=0.0, r=0.0,
    xi0=SampledCurve(0.0, 0.0, np.array([[-0.72, -0.72]])))
ts0 = build_timedelay(flat_plant, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                      N=0, budget=1000)
rep0 = sample_frr_timedelay(ts0, 200, 1)
print(f"  single-knot tubes: {len(ts0.ids)} states; " + rep0.as_text())
