import bisect
import re

import numpy as np
import pytest

from symquant import (ControlSystem, LogQuantizerParams, TimeDelaySystem,
                      build_delayfree, build_timedelay)
from symquant.dynamics import SampledCurve


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if m and getattr(rep, "when", "call") in ("call", "setup"):
                rows[int(m.group(1))] = (rep.nodeid.split("::")[-1], status)
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for k in sorted(rows):
            name, status = rows[k]
            word = "PASS" if status == "passed" else "FAIL"
            terminalreporter.write_line(f"criterion {k}: {word}  ({name})")

# The running example everywhere: a damped pendulum-like plant
#   x1' = x2
#   x2' = -1.96 sin(x1) - 1.5 x2 + u
# on X = [-1,1]^2, U = [-2.5, 2.5], sampled every 0.2 s, quantized with
# eta = 0.2, first-level parameter a = 0.4 (deadzone [-0.4, 0.4]).

PENDULUM_RHS = ["x2", "-1.96*sin(x1) - 1.5*x2 + u1"]


@pytest.fixture(scope="session")
def pendulum():
    return ControlSystem.from_strings(PENDULUM_RHS, [-1, -1], [1, 1],
                                      [-2.5], [2.5])


@pytest.fixture(scope="session")
def logparams():
    return LogQuantizerParams(0.2, 0.4, "EQ20")


@pytest.fixture(scope="session")
def pendulum_ts(pendulum, logparams):
    # L = 6 is the hand-chosen Lipschitz constant used throughout the
    # worked example; the sampled estimate is ~3.8 and gives tighter boxes.
    return build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0)


@pytest.fixture(scope="session")
def pendulum_delay():
    return TimeDelaySystem.from_strings(
        ["x2", "-1.96*sin(x1) - 1.5*x2 + 0.1*delay(x2, 0.2) + u1"],
        [-1, -1], [1, 1], [-2.5], [2.5], Theta=0.2, r=0.2,
        xi0=SampledCurve(-0.2, 0.0, np.tile([-0.72, -0.72], (2, 1))))


@pytest.fixture(scope="session")
def pendulum_delay_ts(pendulum_delay, logparams):
    return build_timedelay(pendulum_delay, 0.2, logparams, N=0, budget=1000)


def _walked_locate(part, x):
    """The scalar walk that Partition.locate_batch batches, for a point x
    (a list of floats) inside the box: per axis of the lattice, then of
    the refined cell's zoom record, the first interval whose upper bound
    is not below x, or the next one on a marked tie."""
    def walk(grid):
        cid = grid.first_id
        for i, stride in enumerate(grid.strides):
            j = bisect.bisect_left(grid.uppers[i], x[i])
            cid += (j + 1 if x[i] == grid.uppers[i][j] and grid.ties[i][j] else j) * stride
        return cid
    cid = walk(part.grid)
    return walk(part.zoom[cid]) if cid in part.zoom else cid


@pytest.fixture(scope="session")
def walked_locate():
    """The point-location reference of the locate_batch tests."""
    return _walked_locate
