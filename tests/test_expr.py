import math
import operator

import numpy as np
import pytest

from symquant.expr import (FUNCTIONS, _FN, Binary, Const, DelayVar, ExprError,
                           InputVar, StateVar, Unary, _vector_table, parse,
                           validate)


def test_arithmetic_precedence():
    e = parse("1 + 2*3 - 4/2")
    assert e.fn([], [], None) == 5.0


def test_power_right_associative():
    assert parse("2^3^2").fn([], [], None) == 512.0


def test_power_binds_tighter_than_unary_minus():
    # -x^2 must parse as -(x^2)
    assert parse("-2^2").fn([], [], None) == -4.0


def test_variables_are_one_indexed():
    e = parse("x1 + 10*x2 + 100*u1")
    assert e.fn([1.0, 2.0], [3.0], None) == 321.0


@pytest.mark.parametrize("src,val", [
    ("sin(0)", 0.0),
    ("cos(0)", 1.0),
    ("exp(1)", math.e),
    ("sqrt(9)", 3.0),
    ("abs(-2)", 2.0),
])
def test_functions(src, val):
    assert parse(src).fn([], [], None) == pytest.approx(val, abs=1e-15)


def test_nested_function_calls():
    e = parse("sin(cos(x1)) + exp(-x1^2)")
    x = 0.7
    want = math.sin(math.cos(x)) + math.exp(-(x ** 2))
    assert e.fn([x], [], None) == pytest.approx(want, rel=1e-15)


def test_delay_term_uses_history_lookup():
    e = parse("delay(x2, 0.1) - x2")
    hist = lambda theta: [0.0, 5.0] if theta == 0.1 else [0.0, 1.0]
    assert e.fn([0.0, 1.0], [], hist) == 4.0


def test_delay_offset_must_be_literal():
    with pytest.raises(ExprError):
        parse("delay(x1, u1)")


def test_delay_offset_must_be_nonnegative():
    with pytest.raises(ExprError):
        parse("delay(x1, -0.2)")


@pytest.mark.parametrize("src", [
    "x0", "u0",          # indices start at 1
    "y1",                # unknown identifier
    "sin",               # function without argument list
    "1 +",               # dangling operator
    "(1 + 2",            # unbalanced paren
    "1 2",               # missing operator
    "",
    # Python syntax outside the grammar
    "x1**2", "sin(x1,)", "delay(x1, 0.2,)", "0x1", "1_0", "1j", "x1 % 2",
    "x1 if x2 else 3", "x1.real", "+x1",
    "x\u0661",          # a non-ASCII digit one
])
def test_rejects_malformed_sources(src):
    with pytest.raises(ExprError):
        parse(src)


@pytest.mark.parametrize("src,root", [
    ("09", Const(9.0)),  # leading zeros, which Python refuses
    ("x01", StateVar(1)),
    ("1e+09", Const(1e9)),
    ("\tx1", StateVar(1)),  # leading whitespace
    ("sin(\nx1)", Unary("sin", StateVar(1))),
    ("(" * 250 + "x1" + ")" * 250, None),  # too deep: an ExprError
], ids=["09", "x01", "1e+09", "tab", "newline", "250-parens"])
def test_where_python_syntax_differs(src, root):
    if root is None:
        with pytest.raises(ExprError):
            parse(src)
    else:
        assert parse(src).root == root


def test_division_and_unary_chain():
    assert parse("--4 / 2").fn([], [], None) == 2.0


def test_validate_checks_dimensions():
    e = parse("x3 + u1")
    with pytest.raises(ExprError):
        validate(e, 2, 1)
    validate(e, 3, 1)  # fine


def test_validate_checks_delay_horizon():
    e = parse("delay(x1, 0.3)")
    with pytest.raises(ExprError):
        validate(e, 1, 0, max_theta=0.2)
    validate(e, 1, 0, max_theta=0.3)


def test_delays_collects_pairs():
    e = parse("delay(x1, 0.1) + delay(x2, 0.2) + delay(x1, 0.1)")
    assert e.delays() == {(1, 0.1), (2, 0.2)}


def test_float_literals():
    assert parse("1.5e-3 + .25").fn([], [], None) == pytest.approx(0.25150)


def test_fractional_power_of_negative_base_is_an_error():
    # Python's ** would return a complex number here
    with pytest.raises(ExprError, match="no real value"):
        parse("x1^0.5").fn([-0.25], [], None)
    assert parse("x1^0.5").fn([0.25], [], None) == 0.5
    assert parse("x1^2").fn([-0.5], [], None) == 0.25


def test_vector_form_matches_scalar_and_pickles():
    import pickle

    import numpy as np
    e = parse("sin(x1)*u1 + exp(-x1^2) - abs(x1)^1.5")
    x = np.linspace(-2.0, 2.0, 9)
    u = np.linspace(0.5, 1.5, 9)
    got = e.vfn([x], [u], None)
    want = [e.fn([a], [b], None) for a, b in zip(x.tolist(), u.tolist())]
    assert got.tobytes() == np.array(want).tobytes()
    e2 = pickle.loads(pickle.dumps(e))
    assert e2.root == e.root and e2._fn is None and e2._vfn is None


def test_vector_form_of_delay_terms_matches_scalar():
    import numpy as np
    e = parse("delay(x1, 0.1)*u1 - sin(delay(x2, 0.2)) + x1*delay(x1, 0) "
              "+ abs(delay(x2, 0.1))^1.5")
    rng = np.random.default_rng(5)
    K = 9
    x = [rng.uniform(-1.0, 1.0, K) for _ in range(2)]
    u = [rng.uniform(-1.0, 1.0, K)]
    past = {0.1: rng.uniform(-1.0, 1.0, (2, K)),
            0.2: rng.uniform(-1.0, 1.0, (2, K))}
    # a history maps theta to the delayed state, (n, K) on the vector form;
    # theta = 0 is the current state
    got = e.vfn(x, u, lambda th: x if th == 0.0 else past[th])
    assert got.shape == (K,)
    for j in range(K):
        xj = [float(v[j]) for v in x]
        want = e.fn(xj, [float(u[0][j])],
                    lambda th: xj if th == 0.0 else past[th][:, j])
        assert np.float64(want).tobytes() == got[j].tobytes(), j


# ---------------------------------------------------------------------------
# generated functions against a tree-walking reference

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def reference(node, x, u, h, table):
    """Walk the AST: the semantics the generated functions must keep."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, StateVar):
        return x[node.index - 1]
    if isinstance(node, InputVar):
        return u[node.index - 1]
    if isinstance(node, DelayVar):
        return h(node.theta)[node.index - 1]
    if isinstance(node, Unary):
        a = reference(node.arg, x, u, h, table)
        return -a if node.op == "neg" else table[node.op](a)
    a = reference(node.left, x, u, h, table)
    b = reference(node.right, x, u, h, table)
    return table["^"](a, b) if node.op == "^" else _BINARY[node.op](a, b)


def _deep(src):
    """src as the innermost operand of a tree about 70 levels deep."""
    return "(" + src + ")" + " + x1" * 70


REFERENCE_SOURCES = [
    "-1.96*sin(x1) - 1.5*x2 + u1",
    "cos(x2)*u1 - tan(x1/3) + exp(-x2^2)",
    "abs(x1)^1.5 - sqrt(abs(x2) + 1)/u1",
    "--x1 - -x2 * -u1 / (1 + x1^2) - x1 - x2 - u1",
    "2^x1^2 - x2^3 / (2 + cos(x1)) * u1 / x2^2",
    "delay(x1, 0.1)*u1 - sin(delay(x2, 0.2)) + x1*delay(x1, 0) "
    "+ abs(delay(x2, 0.1))^1.5",
    "sin(" * 70 + "x1" + ")" * 70,
    _deep("x2 / u1 - delay(x2, 0.2)"),
]


def _short(value):
    return value if len(value) <= 40 else value[:37] + "..."


@pytest.mark.parametrize("src", REFERENCE_SOURCES, ids=_short)
def test_generated_functions_equal_the_reference(src):
    e = parse(src)
    rng = np.random.default_rng(8)
    K = 16
    x = [rng.uniform(-1.0, 1.0, K) for _ in range(2)]
    u = [rng.uniform(0.5, 1.5, K)]
    past = {0.1: rng.uniform(-1.0, 1.0, (2, K)),
            0.2: rng.uniform(-1.0, 1.0, (2, K))}
    vhist = lambda th: x if th == 0.0 else past[th]
    want = np.broadcast_to(reference(e.root, x, u, vhist, _vector_table()), K)
    assert e.vfn(x, u, vhist).tobytes() == want.tobytes()
    for j in range(K):
        xj, uj = [float(v[j]) for v in x], [float(u[0][j])]
        hist = lambda th: xj if th == 0.0 else past[th][:, j].tolist()
        got = e.fn(xj, uj, hist)
        assert type(got) is float
        assert got == reference(e.root, xj, uj, hist, _FN)
        assert got == want[j]


def test_reference_sources_cover_every_operation():
    ops = set()

    def walk(node):
        if isinstance(node, (Unary, Binary)):
            ops.add(node.op)
        if isinstance(node, Unary):
            walk(node.arg)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, DelayVar):
            ops.add("delay")

    for src in REFERENCE_SOURCES:
        walk(parse(src).root)
    assert ops == set(FUNCTIONS) | {"neg", "+", "-", "*", "/", "^", "delay"}


@pytest.mark.parametrize("src,x", [
    ("1 + u1/x1", [0.0]),                   # float division by zero
    ("x1^0.5", [-0.25]),                    # no real power
    ("sqrt(x1) - 1", [-1.0]),               # math domain error
    ("2*delay(x1, 0.1)", [0.5]),            # no history to call
    ("sqrt(x1) + 1/(x1 + 1)", [-1.0]),      # the left operand fails first
    ("1/(x1 + 1) + sqrt(x1)", [-1.0]),
    (_deep("1/(x1 + 1) + sqrt(x1)"), [-1.0]),
    (_deep("delay(x1, 0.1) + 1/(x1 + 1)"), [-1.0]),
], ids=lambda v: _short(v) if isinstance(v, str) else str(v))
def test_generated_function_errors_equal_the_reference(src, x):
    e = parse(src)
    with pytest.raises(Exception) as want:
        reference(e.root, x, [1.0], None, _FN)
    with pytest.raises(Exception) as got:
        e.fn(x, [1.0], None)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
