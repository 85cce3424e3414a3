"""The delay-free build, the robust reach and the STS parse on flat arrays:
their traced memory, and the bytes and arrays they give against the
list-based build and the line-by-line parse."""

import tracemalloc

import numpy as np
import pytest

from symquant import (LogQuantizerParams, Partition, ZoomQuantizerParams,
                      build_delayfree, refine_cells)
from symquant import model_io
from symquant.abstraction import (TransitionSystem, growth_bound_delayfree,
                                  transition_arrays)
from symquant.dynamics import (ControlSystem, estimate_lipschitz_batch,
                               integrate)
from symquant.model_io import ModelFormatError, parse_sts, serialize_ts
from symquant.synthesis import synthesize_reach

MiB = 1 << 20


def _peak_traced(fn):
    """fn() and the peak of traced memory above its level at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def fine_zoom_build(pendulum):
    """Builds the fine-zoom benchmark's refined model: eta = d = 0.1,
    sampled Lipschitz constants, the center cell zoomed into 9 subcells."""
    params = LogQuantizerParams(0.1, 0.1, "EQ20")
    part = Partition(pendulum.state_lo, pendulum.state_hi, params)
    part = part.refined({264: ZoomQuantizerParams(1, 1.0, 0.1)})
    return lambda: build_delayfree(pendulum, 0.2, part, ("uniform", 0.2),
                                   lipschitz="sampled-jacobian")


@pytest.fixture(scope="module")
def fine_zoom_ts(fine_zoom_build):
    return fine_zoom_build()  # also generates the system's kernels


@pytest.fixture(scope="module")
def zoomed_pendulum_ts(pendulum, logparams):
    # blocked pairs, zoomed cells, and state ids that are not positions
    coarse = build_delayfree(pendulum, 0.2, logparams, lipschitz=6.0)
    ts = refine_cells(coarse, {12: ZoomQuantizerParams(1, 1.0, 0.3),
                               0: ZoomQuantizerParams(2, 1.0, 0.1)})
    assert len(dict(ts.transition_rows())) < len(ts.ids) * len(ts.inputs)
    assert sorted(ts.partition.zoom) == [0, 12]
    assert ts.ids.tolist() != list(range(len(ts.ids)))
    return ts


# ---------------------------------------------------------------------------
# traced memory


def test_build_peak(fine_zoom_ts, fine_zoom_build):
    # nested endpoint and box lists and a copied successor array peaked at
    # about 5.2 MiB here
    ts, peak = _peak_traced(fine_zoom_build)
    assert ts.n_transitions == fine_zoom_ts.n_transitions == 173_395
    assert not ts.succ.flags.owndata  # a view of the build's buffer
    assert peak <= 2.5 * MiB, peak / MiB


def test_robust_reach_peak(fine_zoom_ts):
    # rounds over the CSR rows peak at about 0.5 MiB here, int32
    # predecessor arrays at 1.2 MiB; the 89 cells meeting [-0.2, 0.2]^2 win
    # 363 states
    ts = fine_zoom_ts
    target = tuple(ts.partition.intersecting([-0.2, -0.2], [0.2, 0.2]))
    (_, dist), peak = _peak_traced(lambda: synthesize_reach(ts, target, "robust"))
    assert len(dist) == 363
    assert peak <= 1.0 * MiB, peak / MiB


def test_hold_search_peak_does_not_grow_with_max_hold():
    # every held trajectory leaves X = [-1, 1] within three periods, so the
    # search stays small however large max_hold is
    sys = ControlSystem.from_strings(["5 + u1"], [-1], [1], [-1], [1])
    ts = build_delayfree(sys, 0.2, LogQuantizerParams(0.2, 0.4, "EQ20"),
                         input_quantization=("uniform", 0.5), lipschitz=1.0)
    target = [ts.partition.locate([0.9])]
    (_, dist), peak = _peak_traced(
        lambda: synthesize_reach(ts, target, "hold", max_hold=100_000))
    assert 1 < len(dist) and max(dist.values()) <= 3
    assert peak < 1 * MiB, peak / MiB


def test_parse_peak(fine_zoom_ts):
    # one str.split and three int() per E record and int64 temporaries
    # peaked at about 6.2 times the text here
    text = serialize_ts(fine_zoom_ts)
    ts, peak = _peak_traced(lambda: parse_sts(text))
    assert serialize_ts(ts) == text
    assert peak < 4 * len(text), peak / len(text)


# ---------------------------------------------------------------------------
# the build against the list-based build


def list_build(ts: TransitionSystem) -> TransitionSystem:
    """ts rebuilt as the build was with Python lists: the endpoints as a
    nested list of integrate() results, the growth boxes through .tolist(),
    and the successor ids copied out of their buffer."""
    ctx, part, inputs = ts._ctx, ts.partition, ts.inputs
    sys, ids = ctx.sys, part.ids.tolist()
    lower, upper, q = cells = part.cell_arrays(ids)[:3]
    rate = estimate_lipschitz_batch(sys, *cells, ctx.lipschitz, ctx.tau)
    radius = ctx.growth_scale * growth_bound_delayfree(
        np.maximum(q - lower, upper - q), rate, ctx.tau)[:, None, None]
    x1 = np.array([[integrate(sys, p, u, ctx.tau, ctx.steps) for u in inputs]
                   for p in q])
    blocked = ((x1 < sys.state_lo) | (x1 > sys.state_hi)).any(axis=2)
    box_lo, box_hi = (x1 - radius).tolist(), (x1 + radius).tolist()
    relation = {(cid, iid): tuple(part.intersecting(box_lo[k][iid], box_hi[k][iid]))
                for k, cid in enumerate(ids) for iid in range(len(inputs))
                if not blocked[k, iid]}
    return TransitionSystem(ids, inputs,
                            transition_arrays(ids, len(inputs), relation),
                            cell_rows=(np.array(ids), *cells), partition=part, ctx=ctx)


def test_same_bytes_as_the_list_build(zoomed_pendulum_ts):
    ts = zoomed_pendulum_ts
    assert serialize_ts(ts) == serialize_ts(list_build(ts))


# ---------------------------------------------------------------------------
# the bulk E parse against the line-by-line parse


def _parse_by_line(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(model_io, "_edge_block", lambda text, start: None)
        return parse_sts(text)


def _same_model(a, b):
    assert a.ids.tolist() == b.ids.tolist()
    assert a.indptr.tolist() == b.indptr.tolist()
    assert a.succ.dtype == b.succ.dtype == np.int32
    assert a.succ.tolist() == b.succ.tolist()
    assert serialize_ts(a) == serialize_ts(b)


def _edge_lines(lines):
    return [i for i, ln in enumerate(lines) if ln.startswith("E ")]


def _blank_lines(text):
    lines = text.splitlines(keepends=True)
    for i in _edge_lines(lines)[::7]:
        lines[i] += "\n"
    return "".join(lines) + "\n\n"


def _tab_edge_first(text):
    # a tab after the tag: the record is read with the lines before the
    # block, and its edge goes first in its pair
    lines = text.splitlines(keepends=True)
    last = lines.pop(_edge_lines(lines)[-1])
    return "".join(lines[:1] + [last.replace("E ", "E\t", 1)] + lines[1:])


def _extra_field(text):
    lines = text.splitlines(keepends=True)
    i = _edge_lines(lines)[3]
    lines[i] = lines[i][:-1] + " 99\n"
    return "".join(lines)


def _record_after_block(text):
    lines = text.splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("I "))
    return "".join(lines[:i] + lines[i + 1:] + [lines[i]])


@pytest.mark.parametrize("edit,bulk", [
    (lambda text: text, True),
    (_blank_lines, True),
    (lambda text: text.rstrip("\n"), False),
    (lambda text: text.replace("\n", "\r\n"), False),
    (_tab_edge_first, True),
    (_extra_field, False),
    (_record_after_block, False),
])
def test_bulk_parse_equals_line_parse(zoomed_pendulum_ts, monkeypatch, edit, bulk):
    text = edit(serialize_ts(zoomed_pendulum_ts))
    first_e = model_io._FIRST_E.search(text).start()
    assert (model_io._edge_block(text, first_e) is not None) == bulk
    _same_model(parse_sts(text), _parse_by_line(text, monkeypatch))


def test_ids_of_ten_digits_are_parsed_by_line(monkeypatch):
    ids = [5, 10 ** 9 + 7]
    k = np.arange(2.0).reshape(2, 1)
    relation = {(5, 0): (5, 10 ** 9 + 7), (10 ** 9 + 7, 1): (5,)}
    ts = TransitionSystem(ids, [np.array([0.0]), np.array([1.0])],
                          transition_arrays(ids, 2, relation),
                          cell_rows=(np.array(ids), k, k + 1.0, k + 0.5))
    text = serialize_ts(ts)
    assert model_io._edge_block(text, model_io._FIRST_E.search(text).start()) is None
    assert serialize_ts(parse_sts(text)) == text
    _same_model(parse_sts(text), _parse_by_line(text, monkeypatch))


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_chunk_boundaries(zoomed_pendulum_ts, monkeypatch, chunk):
    text = _blank_lines(serialize_ts(zoomed_pendulum_ts))
    whole = parse_sts(text)
    monkeypatch.setattr(model_io, "_E_CHUNK", chunk)
    _same_model(parse_sts(text), whole)


@pytest.mark.parametrize("bad", ["E 3 x 4", "E 3 4", "Q 1 2 3"])
def test_a_bad_record_deep_in_the_block(zoomed_pendulum_ts, monkeypatch, bad):
    lines = serialize_ts(zoomed_pendulum_ts).splitlines(keepends=True)
    lines[_edge_lines(lines)[-50]] = bad + "\n"
    text = "".join(lines)
    fragment = "unknown record tag" if bad.startswith("Q") else "malformed record"
    with pytest.raises(ModelFormatError, match=f"{fragment}.*{bad.split()[0]}"):
        parse_sts(text)
    monkeypatch.setattr(model_io, "_E_CHUNK", 64)
    with pytest.raises(ModelFormatError, match=fragment):
        parse_sts(text)


# ---------------------------------------------------------------------------
# transition_arrays on int32 edge arrays


def test_edges_in_row_order_and_shuffled_give_the_same_arrays(zoomed_pendulum_ts):
    ts = zoomed_pendulum_ts
    rows = list(ts.transition_rows())
    edges = np.array([(sid, iid, t) for (sid, iid), succ in rows for t in succ],
                     dtype=np.int32)
    ids, n_in = ts.ids.tolist(), len(ts.inputs)
    in_order = transition_arrays(ids, n_in, tuple(edges.T))
    # pairs in another order, successors in their order within a pair
    shuffled = np.concatenate(
        [edges[edges[:, 0] * n_in + edges[:, 1] == sid * n_in + iid]
         for (sid, iid), _ in reversed(rows)])
    again = transition_arrays(ids, n_in, tuple(shuffled.T))
    for indptr, succ in (in_order, again):
        assert indptr.tolist() == ts.indptr.tolist()
        assert succ.dtype == np.int32 and succ.tolist() == ts.succ.tolist()
