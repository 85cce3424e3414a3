"""The transition relation in CSR arrays: accessors, the STS parse checks,
the memory of writing and checking a model, and robust reach's rounds
against the level-by-level fixed point."""

import tracemalloc

import numpy as np
import pytest

from symquant import (LogQuantizerParams, Partition, ZoomQuantizerParams,
                      build_delayfree)
from symquant.abstraction import (AbstractState, TransitionSystem,
                                  transition_arrays)
from symquant.cli import _load_model_checked, main
from symquant.frr import check_frr_finite
from symquant.model_io import (ModelFormatError, parse_sts, serialize_ts,
                               sts_chunks, write_ts)
from symquant.quantizers import Cell
from symquant.synthesis import _robust_reach


def reference_robust_reach(ts, target):
    """The level-by-level fixed point: at level k every state not yet won
    takes the smallest input whose successors all lie in W_{k-1}."""
    dist = {q: 0 for q in target}
    policy = {}
    level = 0
    changed = True
    while changed:
        changed = False
        level += 1
        frontier = {}
        for s in ts.states:
            q = s.id
            if q in dist:
                continue
            for iid in ts.enabled(q):
                succ = ts.successors(q, iid)
                if succ and all(t in dist for t in succ):
                    frontier[q] = iid
                    break
        for q, iid in frontier.items():
            dist[q] = level
            policy[q] = iid
            changed = True
    return policy, dist


@pytest.fixture(scope="module")
def fine_zoom_ts(pendulum):
    # the fine-zoom benchmark's refined model: eta = d = 0.1, sampled
    # Lipschitz constants, the center cell zoomed into 9 subcells
    params = LogQuantizerParams(0.1, 0.1, "EQ20")
    part = Partition(pendulum.state_lo, pendulum.state_hi, params)
    part = part.refined({264: ZoomQuantizerParams(1, 1.0, 0.1)})
    return build_delayfree(pendulum, 0.2, part, ("uniform", 0.2),
                           lipschitz="sampled-jacobian")


# ---------------------------------------------------------------------------
# accessors


def test_arrays_describe_every_pair(pendulum_ts):
    ts = pendulum_ts
    assert ts.indptr.dtype == np.int64 and ts.succ.dtype == np.int32
    assert len(ts.indptr) == len(ts.states) * len(ts.inputs) + 1
    assert ts.n_transitions == len(ts.succ) == ts.indptr[-1]
    rows = list(ts.transition_rows())
    assert [key for key, _ in rows] == sorted(key for key, _ in rows)
    assert sum(len(succ) for _, succ in rows) == ts.n_transitions
    for (sid, iid), succ in rows:
        assert ts.successors(sid, iid) == succ and succ
        assert iid in ts.enabled(sid)


def test_blocked_pairs_and_unknown_ids(pendulum_ts):
    ts = pendulum_ts
    blocked = [(s.id, iid) for s in ts.states for iid in range(len(ts.inputs))
               if iid not in ts.enabled(s.id)]
    assert blocked
    for sid, iid in blocked:
        assert ts.successors(sid, iid) == ()
    assert ts.enabled(999) == []
    assert ts.successors(999, 0) == ()
    assert ts.successors(0, len(ts.inputs)) == ()
    assert ts.successors(0, -1) == ()


def test_ids_need_not_be_positions(fine_zoom_ts):
    # zooming cell 264 removes its id; rows follow state positions
    ts = fine_zoom_ts
    assert 264 not in ts.ids.tolist()
    last = ts.states[-1].id
    assert last > len(ts.states) - 1
    assert ts.enabled(last)
    for iid in ts.enabled(last):
        assert all(t != 264 for t in ts.successors(last, iid))
    assert ts.successors(264, 0) == () and ts.enabled(264) == []


def test_mapping_and_edge_triples_give_the_same_arrays():
    relation = {(5, 1): (7, 5), (7, 0): (7,), (5, 0): (5,)}
    indptr, succ = transition_arrays([5, 7], 2, relation)
    assert indptr.tolist() == [0, 1, 3, 4, 4]
    # state positions, in the order given within a pair
    assert succ.tolist() == [0, 1, 0, 1]
    src, iid, dst = [5, 7, 5, 5], [1, 0, 1, 0], [7, 7, 5, 5]
    again = transition_arrays([5, 7], 2, (src, iid, dst))
    assert again[0].tolist() == indptr.tolist()
    assert again[1].tolist() == succ.tolist()


@pytest.mark.parametrize("relation,fragment", [
    ({(0, 0): (2,)}, "unknown state"),
    ({(3, 0): (0,)}, "unknown state"),
    ({(0, 1): (0,)}, "unknown input"),
    ({(0, 0): (1, 1)}, "duplicate transition"),
])
def test_bad_relations_are_rejected(relation, fragment):
    with pytest.raises(ValueError, match=fragment):
        transition_arrays([0, 1], 1, relation)


def test_state_ids_must_fit_int32():
    with pytest.raises(ValueError, match="state id 3000000000 does not fit int32"):
        transition_arrays([5, 3000000000], 1, {(5, 0): (5,)})
    with pytest.raises(ValueError, match="state id -2147483649 does not fit int32"):
        transition_arrays([-2 ** 31 - 1], 1, {})
    assert transition_arrays([2 ** 31 - 1], 1, {(2 ** 31 - 1, 0): (2 ** 31 - 1,)})[1] \
        .tolist() == [0]


def _two_states(ids, succ):
    return TransitionSystem("delayfree", [AbstractState(i) for i in ids],
                            [np.array([0.0])],
                            (np.array([0, 0, len(succ)]), np.array(succ)))


@pytest.mark.parametrize("ids,succ,unknown", [
    ([0, 1], [7], 7),  # beyond the last position
    ([0, 1], [-1], -1),
    ([5, 6], [1, 0, 6], 6),  # a state's id, but no state's position
])
def test_successor_ids_must_name_states(ids, succ, unknown):
    # successors are state positions 0..S-1; an index table by position
    # would read another state's entry, or none, for any other value
    with pytest.raises(ValueError, match=f"successor position {unknown} names no state"):
        _two_states(ids, succ)


@pytest.mark.parametrize("make", [
    # the order is checked first: the successor lookup assumes it
    lambda: _two_states([4, 2], [2, 3, 4]),
    lambda: transition_arrays([4, 2], 1, {(4, 0): (2,)}),
    lambda: transition_arrays([2, 2], 1, {}),
], ids=["constructor", "transition_arrays", "transition_arrays_twice"])
def test_state_ids_out_of_order_are_rejected(make):
    with pytest.raises(ValueError, match="state ids must ascend"):
        make()


def test_successor_check_runs_chunk_by_chunk(monkeypatch):
    # the build turns the cell ids it found into positions in place
    import symquant.abstraction as abstraction
    monkeypatch.setattr(abstraction, "_POS_CHUNK", 2)
    succ = np.array([0, 2, 2, 0, 2], dtype=np.int32)
    abstraction._to_positions(succ, np.array([0, 2]))
    assert succ.tolist() == [0, 1, 1, 0, 1]
    with pytest.raises(ValueError, match="successor id 1 names no state"):
        abstraction._to_positions(np.array([0, 2, 2, 0, 1], dtype=np.int32),
                                  np.array([0, 2]))


def test_indptr_must_cover_every_pair():
    with pytest.raises(ValueError, match="one row per"):
        TransitionSystem("delayfree", [AbstractState(0)], [np.array([0.0])],
                         (np.array([0, 1, 1]), np.array([0])))


# ---------------------------------------------------------------------------
# STS parse checks


def test_cut_model_is_rejected(tmp_path, capsys, pendulum_ts):
    text = serialize_ts(pendulum_ts)
    lines = text.splitlines(keepends=True)
    first_edge = next(i for i, ln in enumerate(lines) if ln.startswith("E "))
    cut = "".join(lines[:first_edge + 100])
    with pytest.raises(ModelFormatError,
                       match=f"header says {pendulum_ts.n_transitions} "
                             f"transitions, found 100"):
        parse_sts(cut)
    path = tmp_path / "cut.sts"
    path.write_text(cut)
    assert main(["export-dot", "--model", str(path)]) == 1
    assert "transitions, found 100" in capsys.readouterr().err


def test_successor_order_survives_a_round_trip():
    text = "STS 1 2 1 3\nS 0 0 1 0.5\nS 1 1 2 1.5\nI 0 0\nE 1 0 1\nE 0 0 1\nE 1 0 0\n"
    ts = parse_sts(text)
    assert ts.successors(1, 0) == (1, 0)
    assert serialize_ts(ts) == ("STS 1 2 1 3\nS 0 0 1 0.5\nS 1 1 2 1.5\nI 0 0\n"
                                "E 0 0 1\nE 1 0 1\nE 1 0 0\n")


def _sts_by_pair(ts):
    """The E records of ts written one (state, input) pair at a time, with
    str() on every successor id."""
    return "".join(f"E {sid} {iid} {t}\n" for (sid, iid), succ in ts.transition_rows()
                   for t in succ)


def test_edge_records_come_one_piece_per_state(fine_zoom_ts):
    ts = fine_zoom_ts
    chunks = list(sts_chunks(ts))
    head = 1 + len(ts.states) + len(ts.inputs)
    with_edges = sum(1 for s in ts.states if ts.enabled(s.id))
    assert len(chunks) == head + with_edges
    assert "".join(chunks[head:]) == _sts_by_pair(ts)
    assert all(len({ln.split()[1] for ln in c.splitlines()}) == 1 for c in chunks[head:])


def test_edge_records_of_sparse_ids_and_empty_states():
    relation = {(10 ** 9 + 7, 1): (5, 10 ** 9 + 7), (5, 0): (5,)}
    ts = TransitionSystem("delayfree", [AbstractState(i, cell=Cell(i, np.zeros(1), np.ones(1),
                                                                   np.full(1, 0.5)))
                                        for i in (3, 5, 10 ** 9 + 7)],
                          [np.array([0.0]), np.array([1.0])],
                          transition_arrays([3, 5, 10 ** 9 + 7], 2, relation))
    text = serialize_ts(ts)
    assert text.endswith("I 1 1\nE 5 0 5\nE 1000000007 1 5\nE 1000000007 1 1000000007\n")
    assert text[text.index("E "):] == _sts_by_pair(ts)


# ---------------------------------------------------------------------------
# memory of writing and checking a model


class _Prebuilt:
    """Stands in for a config whose build returns a given model."""

    def __init__(self, ts):
        self.ts = ts

    def build_model(self, refined=False):
        return self.ts


def _peak_traced(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_write_and_check_hold_no_copy_of_the_text(tmp_path, pendulum_ts):
    # writing or checking streams one piece per state, so the peak is file
    # buffers and one piece; a list of lines plus the joined
    # text is about nine times the file size
    path = tmp_path / "model.sts"
    write_ts(pendulum_ts, str(path))
    size = path.stat().st_size
    assert size > 50_000
    write_peak = _peak_traced(lambda: write_ts(pendulum_ts, str(path)))
    check_peak = _peak_traced(
        lambda: _load_model_checked(_Prebuilt(pendulum_ts), str(path), False))
    assert path.read_text() == serialize_ts(pendulum_ts)
    assert write_peak < size, (write_peak, size)
    assert check_peak < size, (check_peak, size)


# ---------------------------------------------------------------------------
# robust reach as rounds


def test_rounds_match_the_fixed_point_over_many_levels(fine_zoom_ts):
    ts = fine_zoom_ts
    # the cells meeting the box [-0.2, 0.2]^2: 89 targets, 8 levels
    target = tuple(ts.partition.intersecting([-0.2, -0.2], [0.2, 0.2]))
    ((policy, dist),) = _robust_reach(ts, [target])
    ref_policy, ref_dist = reference_robust_reach(ts, target)
    assert (len(target), len(dist), max(dist.values())) == (89, 363, 8)
    assert dist == ref_dist and list(dist) == list(ref_dist)
    assert policy == ref_policy


def _graph_ts(ids, m, relation):
    return TransitionSystem("delayfree", [AbstractState(q) for q in ids],
                            [np.array([float(i)]) for i in range(m)],
                            transition_arrays(ids, m, relation))


def _random_graph(seed, ids, m):
    rng = np.random.default_rng(seed)
    relation = {}
    for q in ids:
        for iid in range(m):
            if rng.random() < 0.8:
                size = int(rng.integers(1, 4))
                relation[(q, iid)] = tuple(
                    rng.choice(ids, size=size, replace=False).tolist())
    return relation


def _small_graph(graph, m):
    """(ids, relation, target) of a named graph with m inputs.  Seeds give
    random graphs over 40 states whose ids are not positions; "dense" has
    ids 0..39, "negative" ids -20..19 and "sparse" ids as far apart as
    int32 allows.  "wrap" is a target of id -1 beside a state 1 that only
    the target would let win.  "chain" leads each of 250 states to the one
    before it, so state k is won at level k, and "empty" has no non-empty
    row, so no round has a row to check."""
    ids = (np.arange(40) * 3 + 1).tolist()
    if graph == "dense":
        ids = list(range(40))
    elif graph == "negative":
        ids = list(range(-20, 20))
    elif graph == "sparse":
        ids = [-2 ** 31] + (np.arange(38) * 1000 - 19000).tolist() + [2 ** 31 - 1]
    elif graph == "wrap":
        return [-1, 0, 1], {(0, 0): (1,), (1, 0): (0,)}, (-1,)
    elif graph == "chain":
        ids = (np.arange(250) * 3 + 1).tolist()
        return ids, {(q, k % m): (p,) for k, (p, q) in enumerate(zip(ids, ids[1:]))}, (ids[0],)
    elif graph == "empty":
        return ids, {}, tuple(ids[:3])
    seed = graph if isinstance(graph, int) else 5  # 4 levels beyond the target
    return ids, _random_graph(seed, ids, m), tuple(ids[:3])


@pytest.mark.parametrize("graph", [0, 1, 2, "dense", "negative", "sparse", "wrap",
                                   "chain", "empty"])
def test_rounds_match_the_fixed_point_on_small_graphs(graph):
    m = 3
    ids, relation, target = _small_graph(graph, m)
    ts = _graph_ts(ids, m, relation)
    # the accessors give back the relation's ids, in its order within a row
    assert dict(ts.transition_rows()) == relation
    for q in ids:
        assert ts.enabled(q) == [i for i in range(m) if (q, i) in relation]
        for i in range(m):
            assert ts.successors(q, i) == relation.get((q, i), ())
    assert check_frr_finite(ts, ts, {q: q for q in ids}) == (True, None)
    ref_policy, ref_dist = reference_robust_reach(ts, target)
    ((policy, dist),) = _robust_reach(ts, [target])
    assert dist == ref_dist and list(dist) == list(ref_dist)
    assert policy == ref_policy
    if graph == "chain":
        assert max(dist.values()) == len(ids) - 1
    if graph == "wrap":
        assert dist == {-1: 0}
    if isinstance(graph, str) and graph not in ("wrap", "empty"):
        assert len(dist) > len(target)  # the graph has a level beyond the target
    if graph == "sparse":
        # no table over the id range, which would take 4 GiB
        assert _peak_traced(lambda: _robust_reach(ts, [target])) < 2 ** 20


# ---------------------------------------------------------------------------
# robust reach where rows contain one another


def _dominance_graph(rng, ids, m):
    """A relation over ids with m inputs whose rows at a state often contain
    one another: each row is empty, a fresh set, a copy of an earlier row,
    or an earlier row with more successors (a chain when that row was
    grown too)."""
    relation = {}
    for q in ids:
        rows = []
        for iid in range(m):
            kind = rng.integers(4) if rows else 1
            if kind == 0:
                row = ()
            elif kind == 1:
                row = tuple(rng.choice(ids, size=int(rng.integers(1, 4)), replace=False))
            else:
                row = rows[int(rng.integers(len(rows)))]
                if kind == 3:
                    row = tuple(set(row) | set(rng.choice(ids, size=2).tolist()))
            rows.append(row)
            if row:
                relation[(q, iid)] = tuple(sorted(set(row)))
    return relation


@pytest.mark.parametrize("seed,m", [(0, 3), (1, 6), (2, 9), (3, 70)])
def test_pruned_reach_matches_the_fixed_point(seed, m):
    # where a row contains a smaller input's row at its state, only the
    # smaller input may win the state
    rng = np.random.default_rng(seed)
    ids = (np.arange(30) * 3 + 1).tolist()  # ids that are not positions
    ts = _graph_ts(ids, m, _dominance_graph(rng, ids, m))
    for target in (tuple(ids[:3]), (ids[-1],)):
        assert _robust_reach(ts, [target]) == [reference_robust_reach(ts, target)]
