"""Parser and evaluator for vector-field expressions.

Systems are declared in config files as one scalar expression per state
component.  The grammar is Python arithmetic with '^' for power: numbers,
unary minus, + - * / ^ and parentheses with Python's precedence, so '^'
is right associative and binds tighter than unary minus; the variables
x<i> (state) and u<j> (input), 1-indexed; one-argument calls of FUNCTIONS;
and delayed state references delay(x<i>, theta), theta a nonnegative
numeric literal, which keeps the history-access pattern of the DDE
integrator static.  Excluded are '**' written in the source, unary '+',
every other operator, keyword, attribute or container, a trailing comma
in a call, Python-only number forms (0x1, 1_0, 1j) and non-ASCII
characters; any other identifier is rejected at parse time so typos fail
fast.  Integer leading zeros (09, x01) and whitespace anywhere, newlines
included, are accepted.  parse rewrites '^' to '**', hands the text to
ast.parse and converts a whitelist of Python nodes into the tree below.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Union

import numpy as np

FUNCTIONS = ("sin", "cos", "tan", "exp", "abs", "sqrt")


class ExprError(ValueError):
    """Parse or evaluation failure; carries the source position when known."""

    def __init__(self, message: str, pos: Optional[int] = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class StateVar:
    index: int  # 1-based, as written in the source


@dataclass(frozen=True)
class InputVar:
    index: int  # 1-based


@dataclass(frozen=True)
class DelayVar:
    index: int  # 1-based state component
    theta: float  # delay offset in seconds, >= 0


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a FUNCTIONS member
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Const, StateVar, InputVar, DelayVar, Unary, Binary]


@dataclass
class Expression:
    """A parsed scalar expression; immutable after parse, evaluation is pure."""

    root: Node
    source: str
    _fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    _vfn: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def fn(self) -> Callable:
        """Generated function (x, u, history) -> float, cached on first use;
        only delay() terms call history(theta), the state theta back."""
        if self._fn is None:
            self._fn = _compile(self.root, _FN)
        return self._fn

    @property
    def vfn(self) -> Callable:
        """Generated function (x, u, history) -> (K,) array, cached on first
        use; the same source as fn over the vector function table.

        x and u are lists of (K,) arrays, one per coordinate, and history
        maps theta to an (n, K) array of delayed states; column j of the
        result equals fn at column j of the arguments bit for bit.
        """
        if self._vfn is None:
            self._vfn = _compile(self.root, _vector_table())
        return self._vfn

    def delays(self) -> set[tuple[int, float]]:
        """All (state index, theta) pairs appearing in delay() terms."""
        return {(v.index, v.theta) for v in _leaves(self.root)
                if isinstance(v, DelayVar)}

    def max_var_indices(self) -> tuple[int, int]:
        """Largest referenced (state, input) index, 0 if none."""
        return _max_indices(self.root)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_fn"] = state["_vfn"] = None  # regenerated on demand
        return state


# ---------------------------------------------------------------------------
# parser

# what the grammar accepts before Python's parser sees it: ASCII letters,
# digits and whitespace, and the characters of the operators and numbers;
# Python's own power operator and every other character are rejected
_REJECT = re.compile(r"[^\w\s+\-*/^(),.]|[^\x00-\x7f]|\*\*")
# leading zeros of an integer part, which Python refuses in '09'; not those
# of an exponent, which it takes in '1e+09'
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![\d.][eE][+-])0+(?=\d)")
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_VAR = re.compile(r"([xu])0*([1-9]\d*)")
_DELAY = re.compile(rf"delay *\( *x0*([1-9]\d*) *, *({_NUMBER}) *\)")
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse(source: str) -> Expression:
    """Parse a scalar expression; raises ExprError with a position on failure."""
    bad = _REJECT.search(source)
    if bad:
        raise ExprError(f"unexpected {bad[0]!r}", bad.start())
    # every rewrite but '^' -> '**' keeps the length, so at[k] is the
    # position in source of character k of text
    text = _LEADING_ZEROS.sub(lambda m: " " * len(m[0]), re.sub(r"\s", " ", source))
    start = len(text) - len(text.lstrip())
    text = text[start:].replace("^", "**")
    at = [i for i in range(start, len(source))
          for _ in range(1 + (source[i] == "^"))] + [len(source)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. "invalid decimal literal"
            tree = ast.parse(text, mode="eval").body
        return Expression(_node(tree, text, at), source)
    except SyntaxError as err:
        raise ExprError(err.msg, at[min(err.offset or 1, len(at)) - 1]) from None
    except RecursionError:
        raise ExprError("expression nested too deeply") from None


def _node(e: ast.expr, text: str, at: List[int]) -> Node:
    """The tree of e, a node of ast.parse(text); at maps positions in text
    to positions in the source."""
    seg = text[e.col_offset:e.end_col_offset]
    if isinstance(e, ast.Constant) and re.fullmatch(_NUMBER, seg):
        return Const(float(seg))
    if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
        return Unary("neg", _node(e.operand, text, at))
    if isinstance(e, ast.BinOp) and type(e.op) in _BINARY:
        return Binary(_BINARY[type(e.op)], _node(e.left, text, at),
                      _node(e.right, text, at))
    if isinstance(e, ast.Name) and (var := _VAR.fullmatch(e.id)):
        return (StateVar if var[1] == "x" else InputVar)(int(var[2]))
    if isinstance(e, ast.Call) and isinstance(e.func, ast.Name):
        name = e.func.id
        if name == "delay":
            m = _DELAY.fullmatch(seg)
            if m is None:
                raise ExprError("delay() takes a state variable x<i> and a "
                                "nonnegative numeric literal", at[e.col_offset])
            return DelayVar(int(m[1]), float(m[2]))
        # one argument, no trailing comma, and the name not parenthesized
        if (name in FUNCTIONS and len(e.args) == 1 and not e.keywords
                and re.match(r"\w+ *\(", seg)
                and "," not in text[e.args[0].end_col_offset:e.end_col_offset]):
            return Unary(name, _node(e.args[0], text, at))
    if isinstance(e, ast.Name):
        raise ExprError(f"unknown identifier {e.id!r} (only x<i>, u<j> and "
                        f"{'/'.join(FUNCTIONS)} allowed)", at[e.col_offset])
    raise ExprError(f"unsupported expression {seg!r}", at[e.col_offset])


# ---------------------------------------------------------------------------
# evaluation

def _leaves(node: Node) -> Iterator[Node]:
    """The constants and variables of the tree, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, Binary):
            stack += (node.right, node.left)
        else:
            yield node


def _max_indices(node: Node) -> tuple[int, int]:
    leaves = list(_leaves(node))
    return (max((v.index for v in leaves if isinstance(v, (StateVar, DelayVar))),
                default=0),
            max((v.index for v in leaves if isinstance(v, InputVar)), default=0))


def _pow(a: float, b: float) -> float:
    """a ** b, which must be real: Python turns a negative base with a
    fractional exponent into a complex number."""
    r = a ** b
    if type(r) is complex:
        raise ExprError(f"{a!r}^{b!r} has no real value")
    return r


# scalar evaluation: one float per call
_FN = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "abs": abs,
    "sqrt": math.sqrt,
    "^": _pow,
}


def _each(f: Callable) -> Callable:
    """f applied elementwise, for functions whose ufunc rounds differently."""
    def g(a):
        if isinstance(a, np.ndarray):
            return np.fromiter(map(f, a.tolist()), float, a.size)
        return f(float(a))
    return g


def _vpow(a, b):
    """_pow elementwise over arrays, or on two scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.broadcast_arrays(a, b)
        return np.fromiter(map(_pow, a.tolist(), b.tolist()), float, a.size)
    return _pow(float(a), float(b))


@functools.cache
def _vector_table() -> dict:
    """Vector evaluation: ufuncs where they round like the scalar functions.

    sqrt and abs are exact in IEEE arithmetic.  Whether np.sin and np.cos
    match the C library depends on the numpy build and the CPU, so each is
    compared with its math twin on a probe set once and replaced by an
    elementwise math call when any value differs.  np.exp, np.tan and
    np.power differ on common builds and are never used.
    """
    # 4096 well-spread points of [-8, 8) by the golden-ratio sequence; a
    # deterministic probe keeps numpy.random (about 6 MB) out of the process
    probe = (np.arange(1, 4097) * 0.6180339887498949) % 1.0 * 16.0 - 8.0

    def pick(ufunc, f):
        same = np.array_equal(ufunc(probe), list(map(f, probe.tolist())))
        return ufunc if same else _each(f)

    return {
        "sin": pick(np.sin, math.sin),
        "cos": pick(np.cos, math.cos),
        "tan": _each(math.tan),
        "exp": _each(math.exp),
        "abs": np.abs,
        "sqrt": np.sqrt,
        "^": _vpow,
    }


def _compile(node: Node, table: dict) -> Callable:
    """Generate one Python function (x, u, h) for the AST.

    Every node but a constant or a variable becomes one assignment, in
    post-order, so -1.96*sin(x1) - 1.5*x2 + u1 becomes

        def _f(x, u, h):
            _t0 = (-_c0)
            _t1 = _c1(x[0])
            _t2 = (_t0 * _t1)
            _t3 = (_c2 * x[1])
            _t4 = (_t2 - _t3)
            _t5 = (_t4 + u[0])
            return _t5

    which keeps the AST association and the left-to-right evaluation order
    at any tree depth.  Constants, delay offsets and the table's functions
    are bound by name in the namespace of the generated code, so no source
    text reaches exec.  table maps each FUNCTIONS member and '^' to its
    implementation: _FN for floats, _vector_table() for arrays.
    """
    ns: dict = {"__builtins__": {}}
    lines: List[str] = []
    names = _names(*_max_indices(node), "x[{}]", "u[{}]")
    lines.append(f"return {_emit(node, table, ns, lines, names)}")
    exec("def _f(x, u, h):\n    " + "\n    ".join(lines), ns)
    return ns["_f"]


def _names(n: int, m: int, x: str, u: str) -> dict:
    """The name map of _emit: the text that reads each of the n state and m
    input variables, x and u formatted with the 0-based index."""
    names: dict = {StateVar(i + 1): x.format(i) for i in range(n)}
    names.update({InputVar(j + 1): u.format(j) for j in range(m)})
    return names


def _emit(node: Node, table: dict, ns: dict, lines: List[str],
          names: dict) -> str:
    """Text holding node's value: a bound constant, a variable's or delay()
    term's text from names, or a temporary whose assignment is appended to
    lines after those of its operands (h(theta)[i] for an unnamed delay)."""
    def bind(value) -> str:
        name = f"_c{len(ns) - 1}"
        ns[name] = value
        return name

    if isinstance(node, Const):
        return bind(node.value)
    if isinstance(node, (StateVar, InputVar, DelayVar)) and node in names:
        return names[node]
    if isinstance(node, DelayVar):
        text = f"h({bind(node.theta)})[{int(node.index) - 1}]"
    elif isinstance(node, Unary):
        arg = _emit(node.arg, table, ns, lines, names)
        text = f"(-{arg})" if node.op == "neg" else f"{bind(table[node.op])}({arg})"
    elif isinstance(node, Binary):
        left = _emit(node.left, table, ns, lines, names)
        right = _emit(node.right, table, ns, lines, names)
        if node.op == "^":
            text = f"{bind(table['^'])}({left}, {right})"
        elif node.op in ("+", "-", "*", "/"):
            text = f"({left} {node.op} {right})"
        else:
            raise ExprError(f"cannot compile node {node!r}")
    else:
        raise ExprError(f"cannot compile node {node!r}")
    lines.append(f"_t{len(lines)} = {text}")
    return f"_t{len(lines) - 1}"


def _finite_array(a) -> bool:
    return bool(np.isfinite(a).all())


def compile_rk4(f: Sequence[Expression], m: int, vector: bool, error: type,
                history: bool = False) -> Callable:
    """Generate one Python function that runs `steps` classical RK4 steps of
    size h for x' = f(x, u) under the constant input u and returns the end
    state as a list; x and u hold exactly n and m entries.  The scalar form
    (vector=False) steps floats; the vector form steps (K,) arrays, one
    column per trajectory, and every column equals the scalar run bit for
    bit: the two forms differ only in the function table and finiteness test.

    Without history the function is (x, u, h, steps) and f has no delay()
    terms.  With history, the method of steps' kernel, it is
    (x, u, h, steps, _past, _store): step s starts at _t = s*h; each stage
    reads every positive delay theta once, as _past(t - theta) at its stage
    time t, an (n,) list or (n, K) array; delay(x_i, 0) is the stage's own
    x_i; each finished step's state goes to _store; and each stage rebinds
    the names of the one before (_d0, _t2, ...), so a step holds one stage's
    temporaries, not four.  For f = (x2, -delay(x1, 0.1) + u1) it is

        def _rk4(x, u, h, steps, _past, _store):
            [_x0, _x1] = x
            [_u0] = u
            _hh = 0.5 * h
            _h6 = h / 6.0
            for _s in _range(steps):
                _t = _s * h
                try:
                    _d0 = _past(_t - _th0)
                    _k1_0 = _x1
                    _t2 = (-_d0[0])
                    ...
                    _y1 = _x1 + _hh * _k1_1
                    _d0 = _past(_t + _hh - _th0)
                    _t2 = (-_d0[0])
                    ...
                    _x0 = _x0 + _h6 * (_k1_0 + 2.0 * _k2_0 + 2.0 * _k3_0 + _k4_0)
                    _x1 = ...
                except _errors as _err:
                    raise _E(f"derivative evaluation failed at t=...") from _err
                if not (_fin(_x0) and _fin(_x1)):
                    raise _E(f"non-finite state at t=...")
                _store([_x0, _x1])
            return [_x0, _x1]

    and without history the _t, _d and _store lines are absent.  Every
    coordinate is a local variable and every right-hand side is inlined by
    _emit, in coordinate order, with the textbook association.  error is
    raised with t = s*h when an evaluation or the step fails in step s, and
    with t = (s+1)*h (_t + h with history) when it ends in a non-finite state.
    """
    table = _vector_table() if vector else _FN
    ns: dict = {"__builtins__": {}, "_range": range, "_E": error,
                "_errors": (ArithmeticError, ValueError),
                "_fin": _finite_array if vector else math.isfinite}
    n = len(f)
    delays = sorted({d for e in f for d in e.delays()})
    thetas = sorted({th for _, th in delays if th > 0.0})
    ns.update({f"_th{k}": th for k, th in enumerate(thetas)})

    body: List[str] = []

    def stage(s: int, x: str, t: str) -> None:
        # the state at x; each positive delay read once, at stage time t
        lines = [] if history else body
        names = _names(n, m, x, "_u{}")
        lines.extend(f"_d{k} = _past({t} - _th{k})" for k in range(len(thetas)))
        for i, th in delays:
            names[DelayVar(i, th)] = (f"_d{thetas.index(th)}[{i - 1}]"
                                      if th > 0.0 else x.format(i - 1))
        for i, e in enumerate(f):
            lines.append(f"_k{s}_{i} = {_emit(e.root, table, ns, lines, names)}")
        if history:
            body.extend(lines)

    stage(1, "_x{}", "_t")
    body.extend(f"_y{i} = _x{i} + _hh * _k1_{i}" for i in range(n))
    stage(2, "_y{}", "_t + _hh")
    body.extend(f"_y{i} = _x{i} + _hh * _k2_{i}" for i in range(n))
    stage(3, "_y{}", "_t + _hh")
    body.extend(f"_y{i} = _x{i} + h * _k3_{i}" for i in range(n))
    stage(4, "_y{}", "_t + h")
    body.extend(f"_x{i} = _x{i} + _h6 * (_k1_{i} + 2.0 * _k2_{i} "
                f"+ 2.0 * _k3_{i} + _k4_{i})" for i in range(n))
    xs = ", ".join(f"_x{i}" for i in range(n))
    us = ", ".join(f"_u{j}" for j in range(m))
    finite = " and ".join(f"_fin(_x{i})" for i in range(n)) or "True"
    end = "_t + h" if history else "(_s + 1) * h"
    src = "\n".join([
        f"def _rk4(x, u, h, steps{', _past, _store' if history else ''}):",
        f"    [{xs}] = x",
        f"    [{us}] = u",
        "    _hh = 0.5 * h",
        "    _h6 = h / 6.0",
        "    for _s in _range(steps):",
        *(["        _t = _s * h"] if history else []),
        "        try:",
        *(f"            {line}" for line in body),
        "        except _errors as _err:",
        "            raise _E(f'derivative evaluation failed at t={_s * h:.6g}: "
        "{_err}') from _err",
        f"        if not ({finite}):",
        f"            raise _E(f'non-finite state at t={{{end}:.6g}}')",
        *([f"        _store([{xs}])"] if history else []),
        f"    return [{xs}]",
    ])
    exec(src, ns)
    return ns["_rk4"]


def validate(e: Expression, n: int, m: int, max_theta: float = 0.0) -> None:
    """Check variable indices against declared dimensions and delays against Theta."""
    xi, ui = e.max_var_indices()
    if xi > n:
        raise ExprError(f"expression {e.source!r} references x{xi} but n={n}")
    if ui > m:
        raise ExprError(f"expression {e.source!r} references u{ui} but m={m}")
    for idx, theta in e.delays():
        if theta > max_theta + 1e-12:
            raise ExprError(
                f"expression {e.source!r} delays x{idx} by {theta} > Theta={max_theta}"
            )
