"""The delay-free build, which works on arrays, against the one-pair-at-a-time
loop it replaced: the same transitions and the same serialized bytes."""

import math

import numpy as np
import pytest

from symquant import (ControlSystem, LogQuantizerParams, ZoomQuantizerParams,
                      build_delayfree, refine_cells)
from symquant.abstraction import TransitionSystem, transition_arrays
from symquant.dynamics import estimate_lipschitz, integrate
from symquant.model_io import serialize_ts


def reference_model(ts: TransitionSystem) -> TransitionSystem:
    """ts rebuilt by the per-pair loop: one rate estimate and one radius
    per cell, e^(rate tau) times the cell's largest spread on every axis,
    then per input one integration, one blocked test and one box query."""
    ctx, part, inputs = ts._ctx, ts.partition, ts.inputs
    sys = ctx.sys
    transitions = {}
    cells = part.cell_arrays(part.ids)[:3]
    for cid, lower, upper, q in zip(part.ids.tolist(), *cells):
        rate = estimate_lipschitz(sys, lower, upper, q, ctx.lipschitz, ctx.tau)
        s = float(np.max(np.maximum(q - lower, upper - q)))
        radius = ctx.growth_scale * (math.exp(rate * ctx.tau) * s)
        for iid, u in enumerate(inputs):
            x1 = integrate(sys, q, u, ctx.tau, ctx.steps)
            if np.any(x1 < sys.state_lo) or np.any(x1 > sys.state_hi):
                continue  # nominal endpoint leaves X: blocked pair
            succ = part.intersecting(x1 - radius, x1 + radius)
            transitions[(cid, iid)] = tuple(succ)
    return TransitionSystem(part.ids, inputs,
                            transition_arrays(part.ids, len(inputs), transitions),
                            cell_rows=(part.ids, *cells), partition=part, ctx=ctx)


def assert_same_model(ts):
    ref = reference_model(ts)
    assert dict(ts.transition_rows()) == dict(ref.transition_rows())
    assert serialize_ts(ts) == serialize_ts(ref)


def test_one_dimensional_plant_with_blocked_pairs():
    sys = ControlSystem.from_strings(["2*x1 + u1"], [-1], [1], [-0.6], [0.6])
    ts = build_delayfree(sys, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"))
    blocked = len(ts.ids) * len(ts.inputs) - len(dict(ts.transition_rows()))
    assert blocked > 0
    assert_same_model(ts)


def test_pendulum_with_a_zoomed_cell(pendulum, logparams):
    coarse = build_delayfree(pendulum, 0.2, logparams)
    ts = refine_cells(coarse, {12: ZoomQuantizerParams(1, 1.0, 0.3),
                               0: ZoomQuantizerParams(2, 1.0, 0.1)})
    assert sorted(ts.partition.zoom) == [0, 12]
    assert_same_model(ts)


@pytest.mark.parametrize("lipschitz", ["sampled-jacobian", 6.0])
def test_zero_growth_scale(pendulum, logparams, lipschitz):
    ts = build_delayfree(pendulum, 0.2, logparams, lipschitz=lipschitz,
                         growth_scale=0.0)
    assert_same_model(ts)


def test_plant_without_state_dependence():
    # the sampled Jacobian is 0, so every radius is the cell's largest spread
    sys = ControlSystem.from_strings(["u1"], [-1], [1], [-0.6], [0.6])
    ts = build_delayfree(sys, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"))
    assert dict(ts.transition_rows())
    assert_same_model(ts)
