"""A delay-free build of at least 2 * 4096 (cell, input) pairs is the
batched derivation (abstraction._derived_model); a smaller one runs pair by
pair (abstraction._delayfree_model).  Large builds are checked here against
that per-pair reference: the same bytes, bitwise equal endpoints and the
error of the same first failing pair.  No build starts a process."""

import os

import numpy as np
import pytest

from symquant import ControlSystem, LogQuantizerParams, build_delayfree
from symquant import abstraction
from symquant.abstraction import _CHUNK, _DERIVE_PAIRS, refine_cells
from symquant.dynamics import DEFAULT_STEPS, IntegrationError, integrate
from symquant.model_io import sts_chunks
from symquant.quantizers import Partition, ZoomQuantizerParams

PENDULUM = (["x2", "-1.96*sin(x1) - 1.5*x2 + u1"], [-1, -1], [1, 1], [-2.5], [2.5])
FINE = LogQuantizerParams(0.1, 0.1, "EQ20")  # 529 cells, 13,225 pairs
LINE = LogQuantizerParams(0.05, 0.05, "EQ20")  # 61 cells on [-1, 1]


def per_pair(sys, tau, lattice, input_quantization, lipschitz,
             steps=DEFAULT_STEPS, growth_scale=1.0):
    """build_delayfree's model, built pair by pair whatever its size: the
    same arguments, in the same order."""
    return abstraction._delayfree_model(sys, *abstraction._delayfree_setup(
        sys, tau, lattice, input_quantization, lipschitz, steps, growth_scale))


def derived_builds(monkeypatch):
    """The cell counts of the models _derived_model makes from here on."""
    derive, calls = abstraction._derived_model, []
    monkeypatch.setattr(abstraction, "_derived_model",
                        lambda *args: calls.append(len(args[1].ids)) or derive(*args))
    return calls


@pytest.fixture(scope="module")
def pendulum_sys():
    return ControlSystem.from_strings(*PENDULUM)


# large pendulum builds: (lattice, inputs, lipschitz, growth_scale)
LARGE = {
    "529 cells": (FINE, ("uniform", 0.2), "sampled-jacobian", 1.0),  # 13,225 pairs
    "zoom-refined": (Partition([-1, -1], [1, 1], FINE).refined(
        {264: ZoomQuantizerParams(1, 1.0, 0.1), 265: ZoomQuantizerParams(3, 1.0, 0.05)}),
        ("uniform", 0.2), "sampled-jacobian", 1.0),  # 541 cells, 13,525 pairs
    "log inputs": (FINE, ("log", LogQuantizerParams(0.2, 0.1)), 6.0, 1.0),  # 8993 pairs
    "growth scale 0": (FINE, ("uniform", 0.2), 2.0, 0.0),
}


@pytest.mark.parametrize("name", LARGE)
def test_a_large_build_gives_the_per_pair_bytes(monkeypatch, pendulum_sys, name):
    lattice, inputs, lipschitz, scale = LARGE[name]
    args = (pendulum_sys, 0.2, lattice, inputs, lipschitz, DEFAULT_STEPS, scale)
    calls = derived_builds(monkeypatch)
    built = build_delayfree(*args)
    assert len(calls) == 1 and calls[0] * len(built.inputs) >= _DERIVE_PAIRS
    ref = per_pair(*args)
    assert "".join(sts_chunks(built)) == "".join(sts_chunks(ref))
    assert np.array_equal(built.indptr, ref.indptr) and np.array_equal(built.succ, ref.succ)
    assert built.endpoints.tobytes() == ref.endpoints.tobytes()


def line_plant(rhs):
    return ControlSystem.from_strings([rhs], [-1], [1], [-1], [1])


def line_build(build, sys, mu=0.008):
    # 61 cells x 251 inputs = 15,311 pairs: three full integrate_batch
    # chunks and a fourth of 3023 pairs
    return build(sys, 0.2, LINE, ("uniform", mu), 1.0)


def failing_chunks(sys, mu):
    """The _CHUNK pair chunks, in (cell, input) order, that hold a pair
    whose integration fails."""
    part = Partition(sys.state_lo, sys.state_hi, LINE)
    q = part.cell_arrays(part.ids)[2]
    inputs = abstraction.input_lattice(sys.input_lo, sys.input_hi, ("uniform", mu))
    chunks = set()
    for k in range(len(q)):
        for i, u in enumerate(inputs):
            try:
                integrate(sys, q[k], u, 0.2)
            except IntegrationError:
                chunks.add((k * len(inputs) + i) // _CHUNK)
    return chunks


@pytest.mark.parametrize("rhs,mu,chunks", [
    pytest.param("u1 + 0*sqrt(0.6 - x1)", 0.008, {3}, id="short last chunk"),
    # 61 cells x 501 inputs = 30,561 pairs: the failing pairs start in
    # chunk 6 and run on into the short chunk 7
    pytest.param("u1 + 0*sqrt(0.6 - x1)", 0.004, {6, 7}, id="across the last boundary"),
    pytest.param("u1 + 0*sqrt(0.1 - x1)", 0.008, {1, 2, 3}, id="middle chunk on"),
    pytest.param("u1 + 0*sqrt(x1 + 0.6) + 0*sqrt(0.6 - x1)", 0.008, {0, 3},
                 id="first and last"),
    pytest.param("u1 + 0*sqrt(x1 + 0.9)", 0.008, {0}, id="first pair"),
])
def test_a_large_build_fails_at_the_first_failing_pair(monkeypatch, rhs, mu, chunks):
    sys = line_plant(rhs)
    assert failing_chunks(sys, mu) == chunks
    with pytest.raises(IntegrationError) as ref:
        line_build(per_pair, sys, mu)
    calls = derived_builds(monkeypatch)
    with pytest.raises(IntegrationError) as built:
        line_build(build_delayfree, sys, mu)
    assert calls == [61]
    assert str(built.value) == str(ref.value)


def test_no_build_starts_a_process(monkeypatch, pendulum_sys):
    def fork():
        raise AssertionError("os.fork called")

    def affinity(pid):
        raise AssertionError("os.sched_getaffinity called")

    coarse = build_delayfree(pendulum_sys, 0.2, FINE, ("uniform", 0.2), lipschitz=2.0)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", affinity, raising=False)
    calls = derived_builds(monkeypatch)
    lattice, inputs, lipschitz, _ = LARGE["529 cells"]
    assert len(build_delayfree(pendulum_sys, 0.2, lattice, inputs, lipschitz).ids) == 529
    # 61 cells x 133 inputs = 8113 pairs, just under 2 x 4096: pair by pair
    assert 61 * 133 < _DERIVE_PAIRS
    assert len(line_build(build_delayfree, line_plant("u1"), mu=0.015).ids) == 61
    # the coarse-hold model: 625 pairs
    assert len(build_delayfree(pendulum_sys, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                               ("uniform", 0.2), lipschitz=6.0).ids) == 25
    # a refine of 13,425 pairs
    assert len(refine_cells(coarse, {264: ZoomQuantizerParams(1, 1.0, 0.1)}).ids) == 537
    assert calls == [529, 537]
