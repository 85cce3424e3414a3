"""A large delay-free build is split into contiguous cell ranges: the first
runs in process and every other in a forked worker.  The block count is
forced here by replacing the CPU-count lookup of symquant.abstraction."""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from symquant import ControlSystem, LogQuantizerParams, build_delayfree
from symquant import abstraction
from symquant.abstraction import _cell_ranges, _in_blocks, refine_cells
from symquant.dynamics import IntegrationError, integrate
from symquant.model_io import sts_chunks
from symquant.quantizers import ZoomQuantizerParams

PENDULUM = (["x2", "-1.96*sin(x1) - 1.5*x2 + u1"], [-1, -1], [1, 1], [-2.5], [2.5])
FINE = LogQuantizerParams(0.1, 0.1, "EQ20")  # 529 cells, 13,225 pairs
LINE = LogQuantizerParams(0.05, 0.05, "EQ20")  # 61 cells on [-1, 1]


def cpus(monkeypatch, n):
    monkeypatch.setattr(abstraction, "_cpus", lambda: n)


def no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def same_model(a, b):
    assert "".join(sts_chunks(a)) == "".join(sts_chunks(b))
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.succ, b.succ)
    assert a.endpoints.tobytes() == b.endpoints.tobytes()


@pytest.fixture(scope="module")
def pendulum_sys():
    return ControlSystem.from_strings(*PENDULUM)


def fine_build(sys):
    return build_delayfree(sys, 0.2, FINE, ("uniform", 0.2),
                           lipschitz="sampled-jacobian")


def test_workers_give_the_bytes_of_one_block(monkeypatch, pendulum_sys):
    cpus(monkeypatch, 1)
    one = fine_build(pendulum_sys)
    for w in (2, 3):
        cpus(monkeypatch, w)
        assert len(_cell_ranges(529, 25)) == w
        same_model(fine_build(pendulum_sys), one)
        assert no_children()


def line_plant(rhs):
    return ControlSystem.from_strings([rhs], [-1], [1], [-1], [1])


def line_build(sys, mu=0.008):
    # 61 cells x 251 inputs = 15,311 pairs: three blocks of about 20 cells
    return build_delayfree(sys, 0.2, LINE, ("uniform", mu), lipschitz=1.0)


def failing_ranges(sys, ranges):
    """Indices of the ranges that hold a pair whose integration fails; the
    plants below fail, if at all, at the input u = -1 or u = 1."""
    part = abstraction.Partition(sys.state_lo, sys.state_hi, LINE)
    q = part.cell_arrays(part.ids)[2]

    def fails(k):
        for u in (-1.0, 1.0):
            try:
                integrate(sys, q[k], [u], 0.2)
            except IntegrationError:
                return True
        return False

    return {j for j, (k0, k1) in enumerate(ranges) if any(map(fails, range(k0, k1)))}


@pytest.mark.parametrize("rhs,w,where", [
    ("u1 + 0*sqrt(0.6 - x1)", 2, {1}),              # a worker's range only
    ("u1 + 0*sqrt(0.6 - x1)", 3, {2}),
    ("u1 + 0*sqrt(0.1 - x1)", 3, {1, 2}),           # two workers
    ("u1 + 0*sqrt(x1 + 0.6) + 0*sqrt(0.6 - x1)", 3, {0, 2}),  # in process too
])
def test_worker_errors_match_one_block(monkeypatch, rhs, w, where):
    sys = line_plant(rhs)
    cpus(monkeypatch, 1)
    with pytest.raises(IntegrationError) as one:
        line_build(sys)
    cpus(monkeypatch, w)
    ranges = _cell_ranges(61, 251)
    assert len(ranges) == w and failing_ranges(sys, ranges) == where
    with pytest.raises(IntegrationError) as split:
        line_build(sys)
    assert str(split.value) == str(one.value)
    assert no_children()


def test_no_fork_below_two_blocks(monkeypatch, pendulum_sys):
    def fork():
        raise AssertionError("os.fork called")

    coarse = build_delayfree(pendulum_sys, 0.2, FINE, ("uniform", 0.2), lipschitz=2.0)
    monkeypatch.setattr(os, "fork", fork)
    cpus(monkeypatch, 1)
    assert len(fine_build(pendulum_sys).ids) == 529
    cpus(monkeypatch, 4)
    # 61 cells x 133 inputs = 8113 pairs, under 2 x 4096
    assert len(line_build(line_plant("u1"), mu=0.015).ids) == 61
    # the coarse-hold model: 625 pairs
    assert len(build_delayfree(pendulum_sys, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                               ("uniform", 0.2), lipschitz=6.0).ids) == 25
    # a refine of 13,425 pairs, which derives its model with batched kernels
    assert len(refine_cells(coarse, {264: ZoomQuantizerParams(1, 1.0, 0.1)}).ids) == 537


def test_ranges_hold_about_the_same_new_cells(monkeypatch):
    cpus(monkeypatch, 3)
    assert _cell_ranges(60, 4096) == [(0, 20), (20, 40), (40, 60)]
    # never more blocks than cells, and one below 2 * 4096 pairs
    assert _cell_ranges(2, 10 ** 6) == [(0, 1), (1, 2)]
    assert _cell_ranges(5, 1638) == [(0, 5)]


def test_a_worker_that_sends_nothing_is_an_error():
    def block(k0, k1):
        if k0:
            os._exit(3)
        return k0

    with pytest.raises(RuntimeError, match="exited with status 3 and sent no result"):
        _in_blocks(block, [(0, 1), (1, 2)])
    assert no_children()


def test_an_error_in_process_stops_the_workers():
    def block(k0, k1):
        if k0 == 0:
            raise ValueError("first range")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="first range"):
        _in_blocks(block, [(0, 1), (1, 2), (2, 3)])
    assert time.perf_counter() - start < 30
    assert no_children()


_KILLED_PARENT = """
import os, signal, time
from symquant.abstraction import _in_blocks

def block(k0, k1):
    if k0:
        print(os.getpid(), flush=True)
        return b"x" * (1 << 20)  # more than a pipe holds
    time.sleep(1.0)  # the worker now waits to write the rest
    os.kill(os.getpid(), signal.SIGKILL)

_in_blocks(block, [(0, 1), (1, 2)])
"""


def test_a_worker_ends_when_its_parent_is_killed():
    # a stage killed at a deadline runs no finally clause: its worker must
    # not wait for a reader forever
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT],
                            stdout=subprocess.PIPE, text=True)
    worker = int(proc.stdout.readline())
    try:
        # the worker shares stdout, so EOF comes once it has exited
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.kill(worker, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the worker outlived its killed parent")
    assert proc.returncode == -signal.SIGKILL
