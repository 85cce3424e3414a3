"""Plain-text persistence: STS v1 model files, controller tables, DOT graphs.

STS v1 layout, all floats at 9 significant digits, records sorted by id:

    STS 1 <n_states> <n_inputs> <n_transitions>
    S <id> <lower...> <upper...> <q...>
    T <id> <knot cell ids...>        (tube models only)
    I <id> <u...>
    E <src> <input> <dst>

For tube models the S records list the partition cells the knots refer to,
and n_states counts the T records.  Serialization is deterministic, and
serialize(parse(text)) == text byte for byte.  The parser rejects a header
whose counts disagree with the records and an E record given twice.

Controller tables:

    CTRL 1 <mode> <n_phases> <n_inputs> <n_entries>
    I <id> <u...>
    W <phase> <state id>
    C <phase> <state id> <input id>
"""

from __future__ import annotations

import io
import re
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .abstraction import TransitionSystem, _positions, transition_arrays
from .synthesis import Controller


def _fmt(v: float) -> str:
    return "%.9g" % (float(v) + 0.0)


def _fmt_vec(vec) -> str:
    return " ".join(_fmt(v) for v in np.atleast_1d(vec))


class ModelFormatError(ValueError):
    pass


def sts_chunks(ts: TransitionSystem) -> Iterator[str]:
    """The STS 1 text of ts in pieces: the header, one piece per S, T and I
    record, and one per state holding the E records of its enabled pairs.
    Writers and the model check consume these, so the whole text is never
    held in memory."""
    if ts.cell_rows is None:
        raise ModelFormatError("model carries no cells to serialize")
    yield f"STS 1 {len(ts.ids)} {len(ts.inputs)} {ts.n_transitions}\n"
    cid, lower, upper, q = ts.cell_rows
    for c, lo, hi, p in zip(cid.tolist(), lower, upper, q):
        yield f"S {c} {_fmt_vec(lo)} {_fmt_vec(hi)} {_fmt_vec(p)}\n"
    # successors are state positions: each state's id is formatted once
    names = [str(i) for i in ts.ids.tolist()]
    if ts.knots is not None:
        for name, knots in zip(names, ts.knots.tolist()):
            yield f"T {name} {' '.join(map(str, knots))}\n"
    for i, u in enumerate(ts.inputs):
        yield f"I {i} {_fmt_vec(u)}\n"
    n_in = len(ts.inputs)
    for k, name in enumerate(names):
        bounds = ts.indptr[k * n_in:(k + 1) * n_in + 1].tolist()
        succ = list(map(names.__getitem__, ts.succ[bounds[0]:bounds[-1]].tolist()))
        records = []
        for iid in range(n_in):
            a, b = bounds[iid] - bounds[0], bounds[iid + 1] - bounds[0]
            if a < b:
                head = f"E {name} {iid} "
                records.append(head + f"\n{head}".join(succ[a:b]) + "\n")
        if records:
            yield "".join(records)


def serialize_ts(ts: TransitionSystem) -> str:
    return "".join(sts_chunks(ts))


# An E block the bulk parse takes: E records of three ids below 10^9, one
# per line, and empty lines.  Any other block is parsed line by line.
_E_BLOCK = re.compile(r"(?:E [0-9]{1,9} [0-9]{1,9} [0-9]{1,9}\n|\n)*")
# characters per check and conversion: the check keeps about 24 bytes of
# backtracking state per character it matches
_E_CHUNK = 1 << 14
_FIRST_E = re.compile(r"^E ", re.MULTILINE)


def _edge_block(text: str, start: int) -> Optional[np.ndarray]:
    """The (E, 3) int32 (src, input, dst) rows of the E records in
    text[start:], when that text matches _E_BLOCK and ends its last line;
    None otherwise.  Each _E_CHUNK piece is checked and then converted by
    one np.fromstring call."""
    if not text.endswith("\n"):
        return None
    out = np.empty(3 * text.count("E", start), dtype=np.int32)
    at = 0
    while start < len(text):
        end = text.find("\n", min(start + _E_CHUNK, len(text) - 1)) + 1
        piece = text[start:end]
        if not _E_BLOCK.fullmatch(piece):
            return None
        ids = np.fromstring(piece.replace("E", " "), dtype=np.int32, sep=" ")
        out[at:at + len(ids)] = ids
        at += len(ids)
        start = end
    return out.reshape(-1, 3)


def parse_sts(text: str) -> TransitionSystem:
    """The model of an STS 1 text.  Besides the record syntax it checks the
    header's state, input and transition counts, that input ids are 0..n-1
    and state ids distinct, that a tube model's S ids are distinct and its
    knots name S records, that every E record names known states and
    inputs, and that no E record repeats.

    The records before the first line that starts with "E " are read line
    by line.  From there on, a block of E records that _E_BLOCK accepts is
    converted in bulk; any other rest is read line by line too, so a
    malformed record raises the same error in the same order.
    """
    first_e = _FIRST_E.search(text)
    split = first_e.start() if first_e else len(text)
    edges = _edge_block(text, split)
    if edges is not None:
        text = text[:split]
    records = (ln.rstrip("\n") for ln in io.StringIO(text, newline=None)
               if ln.strip())
    header = next(records, "")
    if not header.startswith("STS 1 "):
        raise ModelFormatError("missing STS 1 header")
    try:
        _, _, n_states, n_inputs, n_trans = header.split()
        n_states, n_inputs, n_trans = int(n_states), int(n_inputs), int(n_trans)
    except ValueError as err:
        raise ModelFormatError(f"bad header: {header!r}") from err

    cell_ids, cell_nums = array("q"), array("d")  # S records: id, 3n values
    tube_ids, tube_knots = array("q"), array("q")  # T records: id, N+2 ids
    inputs: Dict[int, np.ndarray] = {}
    src, iid, dst = array("q"), array("q"), array("q")  # E records read by line
    for ln in records:
        parts = ln.split()
        tag = parts[0]
        try:
            if tag == "S":
                nums = [float(v) for v in parts[2:]]
                # all S records have 3n values, and all T records N+2 knots
                if len(nums) % 3 or len(cell_nums) != len(cell_ids) * len(nums):
                    raise ModelFormatError(f"S record has {len(nums)} values: {ln!r}")
                cell_ids.append(int(parts[1]))
                cell_nums.extend(nums)
            elif tag == "T":
                knots = [int(v) for v in parts[2:]]
                if len(tube_knots) != len(tube_ids) * len(knots):
                    raise ModelFormatError(f"T record has {len(knots)} knots: {ln!r}")
                tube_ids.append(int(parts[1]))
                tube_knots.extend(knots)
            elif tag == "I":
                inputs[int(parts[1])] = np.array([float(v) for v in parts[2:]])
            elif tag == "E":
                edge = int(parts[1]), int(parts[2]), int(parts[3])
                src.append(edge[0])
                iid.append(edge[1])
                dst.append(edge[2])
            else:
                raise ModelFormatError(f"unknown record tag {tag!r}")
        except (IndexError, ValueError, OverflowError) as err:
            if isinstance(err, ModelFormatError):
                raise
            raise ModelFormatError(f"malformed record: {ln!r}") from err
    if edges is not None:
        if src:  # E records in the lines before the block come first
            edges = np.concatenate([np.array([src, iid, dst]).T, edges])
        src, iid, dst = edges.T

    if len(inputs) != n_inputs:
        raise ModelFormatError(f"header says {n_inputs} inputs, found {len(inputs)}")
    if sorted(inputs) != list(range(n_inputs)):
        raise ModelFormatError(f"input ids must be 0..{n_inputs - 1}, found "
                               f"{sorted(inputs)}")
    input_list = [inputs[i] for i in range(n_inputs)]

    # states must ascend by id; records may come in any order
    cell_ids, nums = _sorted_records(cell_ids, cell_nums, float)
    n = nums.shape[1] // 3
    cell_rows = (cell_ids, nums[:, :n], nums[:, n:2 * n], nums[:, 2 * n:])
    tube_ids, knots = _sorted_records(tube_ids, tube_knots, np.int64)
    tubes = len(tube_ids) > 0
    ids = tube_ids if tubes else cell_ids
    if len(ids) != n_states:
        raise ModelFormatError(f"header says {n_states} states, found {len(ids)}")
    if len(src) != n_trans:
        raise ModelFormatError(f"header says {n_trans} transitions, found {len(src)}")
    if tubes:  # a knot names one S record
        twice = np.flatnonzero(cell_ids[1:] == cell_ids[:-1])
        if len(twice):
            raise ModelFormatError(f"S record id {cell_ids[twice[0]]} is given twice")
        found = _positions(cell_ids, knots.ravel())[1]
        if not found.all():
            raise ModelFormatError(f"knot cell id {knots.ravel()[np.argmin(found)]} "
                                   f"names no S record")
    try:  # an unknown id, an edge given twice, a state id given twice
        relation = transition_arrays(ids, n_inputs, (src, iid, dst))
        return TransitionSystem(ids, input_list, relation, cell_rows=cell_rows,
                                knots=knots if tubes else None)
    except ValueError as err:
        raise ModelFormatError(str(err)) from err


def _sorted_records(ids: array, values: array, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """The ids of records read in any order, ascending, and the records'
    values, one row of equal width each, in the same order; the sort is
    stable, so records that repeat an id keep their order."""
    ids = np.array(ids, dtype=np.int64)
    width = len(values) // len(ids) if len(ids) else 0
    order = np.argsort(ids, kind="stable")
    return ids[order], np.array(values, dtype=dtype).reshape(len(ids), width)[order]


def write_ts(ts: TransitionSystem, path: str) -> None:
    with open(path, "w") as fh:
        fh.writelines(sts_chunks(ts))


def load_ts(path: str) -> TransitionSystem:
    with open(path) as fh:
        return parse_sts(fh.read())


# ---------------------------------------------------------------------------
# controller tables


def serialize_controller(c: Controller) -> str:
    n_entries = sum(len(p) for p in c.phases)
    lines = [f"CTRL 1 {c.mode} {c.n_phases} {len(c.inputs)} {n_entries}"]
    for i, u in enumerate(c.inputs):
        lines.append(f"I {i} {_fmt_vec(u)}")
    for p, wp in enumerate(c.waypoints):
        for sid in sorted(wp):
            lines.append(f"W {p} {sid}")
    for p, table in enumerate(c.phases):
        for sid in sorted(table):
            lines.append(f"C {p} {sid} {table[sid]}")
    return "\n".join(lines) + "\n"


def parse_controller(text: str) -> Controller:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("CTRL 1 "):
        raise ModelFormatError("missing CTRL 1 header")
    try:
        _, _, mode, n_phases, n_inputs, n_entries = lines[0].split()
        n_phases, n_inputs, n_entries = int(n_phases), int(n_inputs), int(n_entries)
    except ValueError as err:
        raise ModelFormatError(f"bad header: {lines[0]!r}") from err
    if n_phases < 1 or min(n_inputs, n_entries) < 0:
        raise ModelFormatError(f"header needs a phase and no negative count: {lines[0]!r}")
    inputs: Dict[int, np.ndarray] = {}
    waypoints: List[set] = [set() for _ in range(n_phases)]
    phases: List[Dict[int, int]] = [{} for _ in range(n_phases)]
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "I":
                iid = _index(parts[1], n_inputs, "input id", ln)
                inputs[iid] = np.array([float(v) for v in parts[2:]])
            elif parts[0] == "W":
                waypoints[_index(parts[1], n_phases, "phase", ln)].add(int(parts[2]))
            elif parts[0] == "C":
                table = phases[_index(parts[1], n_phases, "phase", ln)]
                table[int(parts[2])] = _index(parts[3], n_inputs, "input id", ln)
            else:
                raise ModelFormatError(f"unknown record tag {parts[0]!r}")
        except (IndexError, ValueError) as err:
            if isinstance(err, ModelFormatError):
                raise
            raise ModelFormatError(f"malformed record: {ln!r}") from err
    if len(inputs) != n_inputs:
        raise ModelFormatError(f"header says {n_inputs} inputs, found {len(inputs)}")
    if sum(len(p) for p in phases) != n_entries:
        raise ModelFormatError("entry count does not match header")
    return Controller(phases, [tuple(sorted(w)) for w in waypoints],
                      [{} for _ in range(n_phases)],
                      [inputs[i] for i in range(n_inputs)], mode)


def _index(word: str, n: int, what: str, ln: str) -> int:
    """The id word of record ln, which must lie in 0..n-1."""
    i = int(word)
    if not 0 <= i < n:
        raise ModelFormatError(f"{what} {i} is outside 0..{n - 1}: {ln!r}")
    return i


def write_controller(c: Controller, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_controller(c))


def load_controller(path: str) -> Controller:
    with open(path) as fh:
        return parse_controller(fh.read())


# ---------------------------------------------------------------------------
# DOT export


def export_dot(ts: TransitionSystem) -> str:
    """One node per abstract state, one labeled edge per (src, input, dst)."""
    return "".join(_dot_chunks(ts))


def _dot_chunks(ts: TransitionSystem) -> Iterator[str]:
    yield "digraph sts {\n  rankdir=LR;\n"
    if ts.knots is None:  # a delay-free model's states are its S records' cells
        labels = ("(" + ", ".join(map(_fmt, q)) + ")" for q in ts.cell_rows[3].tolist())
    else:
        labels = ("knots " + " ".join(map(str, k)) for k in ts.knots.tolist())
    for sid, label in zip(ts.ids.tolist(), labels):
        yield f'  s{sid} [label="{label}"];\n'
    ulabels = [" ".join(_fmt(v) for v in u) for u in ts.inputs]
    for (sid, iid), succ in ts.transition_rows():
        yield "".join(f'  s{sid} -> s{dst} [label="{ulabels[iid]}"];\n'
                      for dst in succ)
    yield "}\n"
