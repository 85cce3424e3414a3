"""Output bytes pinned by sha256.

The digests were recorded with the one-trajectory-at-a-time integrators,
before hold synthesis, the sampled FRR witnesses and the tube build were
batched.  The refined-model digest was recorded with the one growth-radius
rule, e^(rate*tau) times the cell's largest spread on every axis; a change
that moves them changes program output and must say why.
"""

import hashlib

import numpy as np

from symquant import (Specification, ZoomQuantizerParams,
                      build_delayfree, refine_cells, sample_frr_delayfree,
                      sample_frr_timedelay, serialize_controller,
                      synthesize_sequence)
from symquant.model_io import serialize_ts

HOLD_CTRL_SHA256 = "69ad4a30c970e9df8c0a231242cf6b9c6f4d128dee7aa303a710cbfe05ae1ab6"
FRR_SHA256 = "3dd681e1760ef4c94f1ddb27c4456c80f9474a6ea8718c1d4062e0d6d9b9fb55"
FRR_SABOTAGED_SHA256 = "7b0b868deb7ef1aebd1cd82dfb069aa6e23f04f70abff9f44e2a59ffead13438"
REFINED_STS_SHA256 = "534ef82d0a34c00b58bbe17ce3c08fa8df514cf0cce2595f685fb984f02e5333"
TUBE_STS_SHA256 = "edae3a6fc27a18f3cb3e37f64dae90073d68d16b82c99e4763bcb4adff788b14"
TUBE_FRR_SHA256 = "1292408c0bf4bd99ed1f9a675026c9ccc9d51ceddb7e5202cd2d9bb0d0f7b7ca"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frr_reports(ts) -> str:
    return "\n".join(sample_frr_delayfree(ts, 1000, seed).as_text()
                     for seed in (1, 2, 3))


def test_hold_sequence_controller_bytes(pendulum_ts):
    part = pendulum_ts.partition
    cid = lambda x, y: part.locate(np.array([x, y]))
    phi = 0.48
    s1 = [cid(0, 0), cid(-phi, 0)]
    s2 = [cid(0, phi), cid(phi, 0), cid(0, -phi), cid(-phi, 0)]
    spec = Specification("sequence", [(q,) for q in s1 + s1 + s2 + s1 + s1])
    ctrl = synthesize_sequence(pendulum_ts, spec, mode="hold")
    assert sha(serialize_controller(ctrl)) == HOLD_CTRL_SHA256


def test_frr_report_text(pendulum_ts):
    assert sha(frr_reports(pendulum_ts)) == FRR_SHA256


def test_frr_report_text_with_violations(pendulum, logparams):
    ts0 = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0,
                          growth_scale=0.0)
    text = frr_reports(ts0)
    assert text.count("\nviolation ") == 1013
    assert sha(text) == FRR_SABOTAGED_SHA256


def test_refined_model_bytes(pendulum_ts):
    ref = refine_cells(pendulum_ts, {12: ZoomQuantizerParams(1, 1.0, 0.3)})
    assert (len(ref.ids), ref.n_transitions) == (33, 16623)
    assert sha(serialize_ts(ref)) == REFINED_STS_SHA256


def test_tube_model_bytes(pendulum_delay_ts):
    ts = pendulum_delay_ts
    assert (len(ts.ids), ts.n_transitions) == (40, 36094)
    assert sha(serialize_ts(ts)) == TUBE_STS_SHA256


def test_tube_frr_report_text(pendulum_delay_ts):
    text = "\n".join(
        sample_frr_timedelay(pendulum_delay_ts, 1000, seed).as_text()
        for seed in (1, 2, 3))
    assert text.startswith("frr-report seed=1 samples=1000 checked=971 "
                           "skipped=29 violations=0")
    assert sha(text) == TUBE_FRR_SHA256
