import numpy as np
import pytest

from symquant.abstraction import TransitionSystem, transition_arrays
from symquant.model_io import (ModelFormatError, export_dot, load_controller,
                               load_ts, parse_controller, parse_sts,
                               serialize_controller, serialize_ts,
                               write_controller, write_ts)
from symquant.synthesis import Controller, synthesize_reach


def cell_rows(ids, lower, upper, q):
    """The cell rows of a model whose cells have the given ids and 1-D
    bounds and quantized points."""
    return (np.array(ids, dtype=np.int64),
            *(np.array(v, dtype=float).reshape(-1, 1) for v in (lower, upper, q)))


def tiny_ts():
    return TransitionSystem([0, 1], [np.array([0.5])],
                            transition_arrays([0, 1], 1, {(0, 0): (1,),
                                                          (1, 0): (0, 1)}),
                            cell_rows=cell_rows([0, 1], [0.0, 1.0], [1.0, 2.0],
                                                [0.5, 1.5]))


# ---------------------------------------------------------------------------
# STS round trips


def test_delayfree_round_trip_is_byte_identical(pendulum_ts):
    text = serialize_ts(pendulum_ts)
    again = serialize_ts(parse_sts(text))
    assert again == text


def test_delayfree_round_trip_preserves_content(pendulum_ts):
    ts2 = parse_sts(serialize_ts(pendulum_ts))
    assert ts2.kind == "delayfree"
    assert len(ts2.ids) == len(pendulum_ts.ids)
    assert dict(ts2.transition_rows()) == dict(pendulum_ts.transition_rows())
    assert ts2.ids.tolist() == pendulum_ts.ids.tolist()
    for a, b in zip(pendulum_ts.cell_rows, ts2.cell_rows):
        assert np.allclose(a, b)
    for a, b in zip(pendulum_ts.inputs, ts2.inputs):
        assert np.allclose(a, b)


def test_timedelay_round_trip_is_byte_identical(pendulum_delay_ts):
    text = serialize_ts(pendulum_delay_ts)
    ts2 = parse_sts(text)
    assert ts2.kind == "timedelay"
    assert ts2.knots.tolist() == pendulum_delay_ts.knots.tolist()
    assert serialize_ts(ts2) == text


def test_header_counts_match_body(pendulum_ts):
    text = serialize_ts(pendulum_ts)
    lines = text.splitlines()
    tag = lines[0].split()
    assert tag[:2] == ["STS", "1"]
    assert int(tag[2]) == sum(1 for ln in lines if ln.startswith("S "))
    assert int(tag[3]) == sum(1 for ln in lines if ln.startswith("I "))
    assert int(tag[4]) == sum(1 for ln in lines if ln.startswith("E "))


def test_negative_zero_is_normalized():
    ts = TransitionSystem([0], [np.array([-0.0])],
                          transition_arrays([0], 1, {(0, 0): (0,)}),
                          cell_rows=cell_rows([0], [-0.0], [1.0], [-0.0]))
    tokens = serialize_ts(ts).split()
    assert "-0" not in tokens


def test_nine_significant_digits():
    q = 0.123456789123456
    ts = TransitionSystem([0], [np.array([0.0])],
                          transition_arrays([0], 1, {}),
                          cell_rows=cell_rows([0], [0.0], [1.0], [q]))
    assert "0.123456789 " not in serialize_ts(ts)  # no trailing pad
    assert "0.123456789" in serialize_ts(ts)


def test_file_round_trip(tmp_path, pendulum_ts):
    p = tmp_path / "model.sts"
    write_ts(pendulum_ts, str(p))
    ts2 = load_ts(str(p))
    assert serialize_ts(ts2) == p.read_text()


# ---------------------------------------------------------------------------
# STS parse errors


@pytest.mark.parametrize("text,fragment", [
    ("", "missing STS 1 header"),
    ("XTS 1 0 0 0\n", "missing STS 1 header"),
    ("STS 1 one 0 0\n", "bad header"),
    ("STS 1 0 0\n", "bad header"),
    ("STS 1 1 1 0\nS 0 0 1 0.5\nI 0 0\nQ what\n", "unknown record tag"),
    ("STS 1 1 1 0\nS 0 0 1 0.5\nI 0 zero\n", "malformed record"),
    ("STS 1 1 1 0\nS 0 0 1\nI 0 0\n", "S record has 2 values"),
    ("STS 1 2 1 0\nS 0 0 1 0.5\nI 0 0\n", "header says 2 states, found 1"),
    ("STS 1 1 2 0\nS 0 0 1 0.5\nI 0 0\n", "header says 2 inputs, found 1"),
    ("STS 1 1 1 1\nS 0 0 1 0.5\nI 0 0\nE 0 0 7\n", "unknown state"),
    ("STS 1 1 1 1\nS 0 0 1 0.5\nI 0 0\nE 0 4 0\n", "unknown input"),
    ("STS 1 1 1 2\nS 0 0 1 0.5\nI 0 0\nE 0 0 0\n", "header says 2 transitions, found 1"),
    ("STS 1 1 1 0\nS 0 0 1 0.5\nI 5 0\n", r"input ids must be 0..0, found \[5\]"),
    ("STS 1 2 1 0\nS 0 0 1 0.5\nS 0 1 2 1.5\nI 0 0\n", "state id is given twice"),
    ("STS 1 2 1 0\nS 0 0 1 0.5\nT 0 0\nT 0 0\nI 0 0\n", "state id is given twice"),
    ("STS 1 1 1 2\nS 0 0 1 0.5\nI 0 0\nE 0 0 0\nE 0 0 0\n",
     r"duplicate transition: \(0, 0\) -> 0"),
    # successors are stored as int32, so this id would wrap to -1294967296
    ("STS 1 2 1 1\nS 5 0 1 0.5\nS 3000000000 1 2 1.5\nI 0 0\nE 5 0 3000000000\n",
     "state id 3000000000 does not fit int32"),
    # the cell rows and the knot array hold one width each
    ("STS 1 2 1 0\nS 0 0 1 0.5\nS 1 0 0 1 1 0.5 0.5\nI 0 0\n", "S record has 6 values"),
    ("STS 1 2 1 0\nS 0 0 1 0.5\nT 0 0 0\nT 1 0\nI 0 0\n", "T record has 1 knots"),
    # a tube's knots are cells of the S records, each given once
    ("STS 1 1 1 0\nS 0 0 1 0.5\nT 0 7 9\nI 0 0\n", "knot cell id 7 names no S record"),
    ("STS 1 1 1 0\nS 0 0 1 0.5\nS 0 1 2 1.5\nT 0 0\nI 0 0\n",
     "S record id 0 is given twice"),
])
def test_sts_parse_errors(text, fragment):
    with pytest.raises(ModelFormatError, match=fragment):
        parse_sts(text)


def test_states_must_ascend_by_id():
    relation = (np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int32))
    for ids in ([0, 2, 1], [0, 2, 2]):
        with pytest.raises(ValueError, match="state ids must ascend"):
            TransitionSystem(ids, [np.array([0.5])], relation)


@pytest.mark.parametrize("model", ["pendulum_ts", "pendulum_delay_ts"])
def test_shuffled_records_parse_to_the_sorted_model(model, request):
    text = serialize_ts(request.getfixturevalue(model))
    header, *records = text.splitlines(keepends=True)
    order = np.random.default_rng(7).permutation(len(records))
    shuffled = [records[k] for k in order]
    # the order of a pair's successors is part of the model, so the E
    # records of each pair keep theirs: each pair's lines go back, in
    # their own order, to the places the shuffle gave them
    pair = lambda ln: tuple(ln.split()[1:3]) if ln.startswith("E ") else ln
    groups = {}
    for ln in records:
        groups.setdefault(pair(ln), []).append(ln)
    shuffled = header + "".join(groups[pair(ln)].pop(0) for ln in shuffled)
    assert shuffled != text
    ts = parse_sts(shuffled)
    assert ts.ids.tolist() == sorted(ts.ids.tolist())
    assert serialize_ts(ts) == text


def test_blank_lines_are_tolerated():
    text = "STS 1 1 1 1\n\nS 0 0 1 0.5\n\nI 0 0\nE 0 0 0\n\n"
    ts = parse_sts(text)
    assert dict(ts.transition_rows()) == {(0, 0): (0,)}


# ---------------------------------------------------------------------------
# controller tables


def test_controller_round_trip(pendulum_ts):
    ctrl, _ = synthesize_reach(pendulum_ts, [12], mode="hold")
    text = serialize_controller(ctrl)
    c2 = parse_controller(text)
    assert serialize_controller(c2) == text
    assert c2.mode == "hold"
    assert c2.phases == ctrl.phases
    assert c2.waypoints == ctrl.waypoints
    # values survive to 9 significant digits, the file format's precision
    assert all(np.allclose(a, b, rtol=1e-8, atol=0)
               for a, b in zip(c2.inputs, ctrl.inputs))
    # recorded step bounds are build artifacts and are not persisted
    assert c2.winning == [{}]


def test_controller_file_round_trip(tmp_path, pendulum_ts):
    ctrl, _ = synthesize_reach(pendulum_ts, [12], mode="hold")
    p = tmp_path / "law.ctrl"
    write_controller(ctrl, str(p))
    assert serialize_controller(load_controller(str(p))) == p.read_text()


@pytest.mark.parametrize("text,fragment", [
    ("", "missing CTRL 1 header"),
    ("CTRL 2 hold 1 1 0\nI 0 0\n", "missing CTRL 1 header"),
    ("CTRL 1 hold x 1 0\nI 0 0\n", "bad header"),
    ("CTRL 1 hold 1 1 0\nI 0 0\nZ 1 2\n", "unknown record tag"),
    ("CTRL 1 hold 1 1 0\nI 0 h\n", "malformed record"),
    ("CTRL 1 hold 1 2 0\nI 0 0\n", "header says 2 inputs, found 1"),
    ("CTRL 1 hold 1 1 3\nI 0 0\nC 0 0 0\n", "entry count"),
    ("CTRL 1 hold 1 2 0\nI 0 0\nI 5 0\n", "input id 5 is outside 0..1: 'I 5 0'"),
    ("CTRL 1 hold 2 1 0\nI 0 0\nW -1 3\n", "phase -1 is outside 0..1: 'W -1 3'"),
    ("CTRL 1 hold 2 1 1\nI 0 0\nC -2 3 0\n", "phase -2 is outside 0..1: 'C -2 3 0'"),
    ("CTRL 1 hold 1 1 1\nI 0 0\nC 0 3 4\n", "input id 4 is outside 0..0: 'C 0 3 4'"),
    # a controller with no phase would complete every run at once
    ("CTRL 1 hold 0 1 0\nI 0 0\n", "needs a phase.*: 'CTRL 1 hold 0 1 0'"),
    ("CTRL 1 hold -1 1 0\nI 0 0\n", "needs a phase.*: 'CTRL 1 hold -1 1 0'"),
    ("CTRL 1 hold 1 -1 0\n", "negative count: 'CTRL 1 hold 1 -1 0'"),
    ("CTRL 1 hold 1 1 -1\nI 0 0\n", "negative count: 'CTRL 1 hold 1 1 -1'"),
])
def test_controller_parse_errors(text, fragment):
    with pytest.raises(ModelFormatError, match=fragment):
        parse_controller(text)


def test_multi_phase_controller_survives():
    c = Controller([{0: 0}, {1: 0, 2: 0}], [(0,), (3,)], [{}, {}],
                   [np.array([0.25])], "hold")
    c2 = parse_controller(serialize_controller(c))
    assert c2.n_phases == 2
    assert c2.phases == [{0: 0}, {1: 0, 2: 0}]
    assert c2.waypoints == [(0,), (3,)]


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_layout():
    dot = export_dot(tiny_ts())
    assert dot.startswith("digraph sts {\n  rankdir=LR;\n")
    assert dot.endswith("}\n")
    assert '  s0 [label="(0.5)"];' in dot
    assert '  s1 [label="(1.5)"];' in dot
    assert '  s0 -> s1 [label="0.5"];' in dot
    assert dot.count("->") == 3


def test_export_dot_tube_labels(pendulum_delay_ts):
    dot = export_dot(pendulum_delay_ts)
    assert '  s0 [label="knots 0 0"];' in dot
