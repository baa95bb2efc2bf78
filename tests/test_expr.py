import gc
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from atomcur import expr as ex
from atomcur.jets import (FLOAT, RATIONAL, EvalDomainError, ExactModeError, as_point)


def test_parse_shape():
    e = ex.parse("x*y + sin(x)", ["x", "y"])
    assert isinstance(e, ex.Add)
    assert isinstance(e.a, ex.Mul)
    assert isinstance(e.b, ex.Call) and e.b.fn == "sin"


def test_syntax_error_offset():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("x +", ["x"])
    assert err.value.offset == 3


def test_undeclared_symbol():
    with pytest.raises(ex.UndeclaredSymbolError) as err:
        ex.parse("z", ["x", "y"])
    assert err.value.name == "z"


def test_precedence():
    # ^ binds tighter than unary minus; same-precedence chains associate left
    e = ex.parse("-x^2", ["x"])
    assert isinstance(e, ex.Neg) and isinstance(e.a, ex.Pow)
    e = ex.parse("x^2^3", ["x"])  # left-associative power chain
    assert isinstance(e, ex.Pow) and e.k == 3 and isinstance(e.a, ex.Pow)
    e = ex.parse("a - b - c", ["a", "b", "c"])
    assert isinstance(e, ex.Sub) and isinstance(e.a, ex.Sub)


def test_eval_jet_exp():
    j = ex.eval_jet(ex.parse("exp(x)", ["x"]), as_point((0.0,), FLOAT), 3)
    assert [round(c, 12) for c in j.coeffs] == [1.0, 1.0, 0.5, round(1 / 6, 12)]


def test_eval_jet_constant():
    j = ex.eval_jet(ex.parse("3.5", ["x", "y"]), as_point((1.0, 2.0), FLOAT), 2)
    assert j.value == 3.5
    assert all(c == 0 for c in list(j.coeffs)[1:])


def test_eval_jet_mixed():
    j = ex.eval_jet(ex.parse("x*y + sin(x)", ["x", "y"]), as_point((0.0, 0.0), FLOAT), 2)
    assert j.value == 0
    assert j.partial((1, 0)) == 1.0
    assert j.partial((0, 1)) == 0.0
    assert j.coeff((1, 1)) == 1.0
    assert j.coeff((2, 0)) == 0.0


def test_eval_jet_leaves_no_reference_cycle():
    # frames and jets of a call are freed by reference counting alone
    e = ex.parse("x*y^2 + 3*x - y/(1 + x^2) + sin(x)", ["x", "y"])
    point = as_point((0.5, 0.25), FLOAT)
    gc.collect()
    gc.disable()
    try:
        ex.eval_jet(e, point, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rational_polynomial_exact():
    e = ex.parse("x^2*y/3 - 7/2", ["x", "y"])
    j = ex.eval_jet(e, as_point((Fraction(1, 2), Fraction(2, 3)), RATIONAL), 3)
    assert j.value == Fraction(1, 4) * Fraction(2, 3) / 3 - Fraction(7, 2)
    assert j.partial((2, 1)) == Fraction(2, 3)


def test_rational_mode_rejects_elementary():
    with pytest.raises(ExactModeError):
        ex.eval_jet(ex.parse("sin(x)", ["x"]), as_point((Fraction(0),), RATIONAL), 2)


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        ex.eval_jet(ex.parse("log(x)", ["x"]), as_point((-1.0,), FLOAT), 1)
    with pytest.raises(EvalDomainError):
        ex.eval_jet(ex.parse("sqrt(x)", ["x"]), as_point((-2.0,), FLOAT), 1)
    with pytest.raises(EvalDomainError):
        ex.eval_jet(ex.parse("1/x", ["x"]), as_point((0.0,), FLOAT), 1)


def test_monomial_form_printing():
    m = ex.monomial_form((1, 2), (2, 0), ["x", "y"])
    assert ex.to_string(m) == "(x - 1)^2/2"
    assert ex.to_string(ex.monomial_form((0, 0), (0, 0), ["x", "y"])) == "1"
    assert ex.to_string(ex.monomial_form((0, 0), (1, 1), ["x", "y"])) == "x*y"


def test_monomial_kronecker():
    # partial^S of (e-p)^T/T! at p equals delta_{S,T}
    p = (Fraction(1), Fraction(-2))
    for T in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        m = ex.monomial_form(p, T, ["x", "y"])
        jet = ex.eval_jet(m, as_point(p, RATIONAL), sum(T))
        for S in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3)]:
            if sum(S) > sum(T):
                continue
            assert jet.partial(S) == (1 if S == T else 0)


# random expression trees for the round-trip property
_names = ("x", "y")


def _exprs(depth):
    leaf = st.one_of(
        st.integers(-9, 9).map(lambda v: ex.Const(Fraction(v))),
        st.fractions(min_value=-4, max_value=4, max_denominator=8).map(ex.Const),
        st.sampled_from([ex.Sym(0, "x"), ex.Sym(1, "y")]),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda ab: ex.Add(*ab)),
        st.tuples(sub, sub).map(lambda ab: ex.Sub(*ab)),
        st.tuples(sub, sub).map(lambda ab: ex.Mul(*ab)),
        sub.map(ex.Neg),
        st.tuples(sub, st.integers(0, 3)).map(lambda ak: ex.Pow(ak[0], ak[1])),
    )


@given(_exprs(3))
@settings(max_examples=150, deadline=None)
def test_roundtrip_bitwise_rational(e):
    text = ex.to_string(e)
    e2 = ex.parse(text, _names)
    p = as_point((Fraction(3, 7), Fraction(-2, 5)), RATIONAL)
    assert ex.evaluate(e, p) == ex.evaluate(e2, p)


# truncating a higher-order jet gives the lower-order jet, so the expression
# jet memo may answer every order up to the highest it holds


def _div_pow_exprs(depth, calls):
    leaf = st.one_of(
        st.integers(-4, 4).map(lambda v: ex.Const(Fraction(v))),
        st.fractions(min_value=-3, max_value=3, max_denominator=8).map(ex.Const),
        st.sampled_from([ex.Sym(0, "x"), ex.Sym(1, "y")]),
    )
    if depth == 0:
        return leaf
    sub = _div_pow_exprs(depth - 1, calls)
    nodes = [
        leaf,
        st.tuples(sub, sub).map(lambda ab: ex.Add(*ab)),
        st.tuples(sub, sub).map(lambda ab: ex.Mul(*ab)),
        st.tuples(sub, sub).map(lambda ab: ex.Div(*ab)),
        sub.map(ex.Neg),
        st.tuples(sub, st.integers(-3, 3)).map(lambda ak: ex.Pow(ak[0], ak[1])),
    ]
    if calls:
        nodes.append(st.tuples(st.sampled_from(ex.ELEMENTARY_FUNCTIONS), sub)
                     .map(lambda fa: ex.Call(*fa)))
    return st.one_of(*nodes)


def _rooted_exprs(calls):
    """Trees whose root is a quotient, a negative power or (with ``calls``)
    an elementary function, over random subtrees of the same kinds."""
    sub = _div_pow_exprs(2, calls)
    roots = [
        st.tuples(sub, sub).map(lambda ab: ex.Div(*ab)),
        st.tuples(sub, st.integers(-3, -1)).map(lambda ak: ex.Pow(ak[0], ak[1])),
    ]
    if calls:
        roots.append(st.tuples(st.sampled_from(ex.ELEMENTARY_FUNCTIONS), sub)
                     .map(lambda fa: ex.Call(*fa)))
    return st.one_of(*roots)


def _jets_or_none(e, p, orders, mode):
    try:
        return [ex.eval_jet(e, as_point(p, mode), order) for order in orders]
    except (EvalDomainError, OverflowError, ZeroDivisionError):
        return None


@given(_rooted_exprs(calls=True), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_truncated_float_jet_is_bitwise_lower_order_jet(e, lo, extra):
    p = (0.7, 1.3)
    jets = _jets_or_none(e, p, (lo, lo + extra), FLOAT)
    if jets is None:
        return
    low, high = jets
    assert bytes(high.truncate(lo).coeffs) == bytes(low.coeffs), ex.to_string(e)


@given(_rooted_exprs(calls=False), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_truncated_rational_jet_is_exact_lower_order_jet(e, lo, extra):
    p = (Fraction(3, 7), Fraction(-2, 5))
    jets = _jets_or_none(e, p, (lo, lo + extra), RATIONAL)
    if jets is None:
        return
    low, high = jets
    cut = high.truncate(lo)
    assert (cut.coeffs, cut.den) == (low.coeffs, low.den), ex.to_string(e)


def test_jet_memo_evaluates_only_when_the_order_rises(monkeypatch):
    e = ex.parse("1/(1 + x^2) + tan(y)*x^-2", ["x", "y"])
    p = as_point((0.7, 1.3), FLOAT)
    orders = []
    inner = ex.eval_jet

    def counting(e, point, order):
        orders.append(order)
        return inner(e, point, order)

    monkeypatch.setattr(ex, "eval_jet", counting)
    for order in (1, 0, 3, 2, 1, 3, 4, 0):
        jet = ex.jet_at(e, p, order)
        assert bytes(jet.coeffs) == bytes(inner(e, p, order).coeffs)
    assert orders == [1, 3, 4]


# eval_jet reads the jets that the memo of an interior node already holds at
# the point

def _memo_snapshot(e):
    """Every (node, point) -> jet entry of the jet memos under e."""
    out, stack = {}, [e]
    while stack:
        node = stack.pop()
        for point, jet in (getattr(node, "_jets", None) or {}).items():
            out[(id(node), point)] = jet
        stack.extend(getattr(node, c) for c in ("a", "b") if hasattr(node, c))
    return out


def _subtrees(e):
    stack, out = [e], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(getattr(node, c) for c in ("a", "b") if hasattr(node, c))
    return out


@pytest.mark.parametrize("mode", [FLOAT, RATIONAL])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_eval_jet_reusing_held_jets_is_bitwise_fresh(mode, data):
    """Subtrees held at lower, equal and higher orders (a shared subtree
    included) give the jet a fresh evaluation gives, bit for bit, and the
    call adds no memo entry."""
    sub = data.draw(_div_pow_exprs(2, calls=mode == FLOAT))
    e = ex.Add(ex.Mul(sub, data.draw(_div_pow_exprs(2, calls=False))), ex.Neg(sub))
    coords = (0.7, 1.3) if mode == FLOAT else (Fraction(3, 7), Fraction(-2, 5))
    p = as_point(coords, mode)
    order = data.draw(st.integers(0, 3))
    # the oracle runs before any jet_at call, so no interior node holds a jet
    assert not any(getattr(node, "_jets", None) for node in _subtrees(e)
                   if not isinstance(node, (ex.Const, ex.Sym)))
    try:
        fresh = ex.eval_jet(e, p, order)
        for node in data.draw(st.lists(st.sampled_from(_subtrees(e)), max_size=4)):
            ex.jet_at(node, p, data.draw(st.integers(0, 4)))
    except (EvalDomainError, OverflowError, ZeroDivisionError):
        return
    before = _memo_snapshot(e)
    got = ex.eval_jet(e, p, order)
    assert _memo_snapshot(e) == before
    if mode == FLOAT:
        assert bytes(got.coeffs) == bytes(fresh.coeffs), ex.to_string(e)
    else:
        assert (got.coeffs, got.den) == (fresh.coeffs, fresh.den), ex.to_string(e)


def test_eval_jet_keeps_signed_zeros_and_shared_subtrees():
    """-0.0 and 0.0 compare equal, yet each Const node keeps its own sign;
    a node reached twice (a shared subtree) counts twice."""
    e = ex.Add(ex.Neg(ex.Const(0.0)), ex.Const(-0.0))
    p = as_point((0.5,), FLOAT)
    assert math.copysign(1.0, ex.eval_jet(e, p, 0).value) == -1.0
    shared = ex.Sym(0, "x")
    jet = ex.eval_jet(ex.Mul(shared, ex.Add(shared, ex.Const(1))), p, 2)
    assert list(jet.coeffs) == [0.75, 2.0, 1.0]


def _shape(e):
    """Node types and their data, recursively."""
    fields = {ex.Const: ("value",), ex.Sym: ("index", "name"), ex.Pow: ("a", "k"),
              ex.Neg: ("a",), ex.Add: ("a", "b"), ex.Mul: ("a", "b")}[type(e)]
    return (type(e).__name__,) + tuple(
        _shape(v) if isinstance(v, ex.Expression) else (type(v).__name__, v)
        for v in (getattr(e, f) for f in fields))


@pytest.mark.parametrize("names", [("x",), ("x", "y"), ("u", "v", "w")])
def test_random_poly_tree_survives_the_parser(names):
    """A random polynomial tree printed and parsed back is the same tree,
    so the random-field builders need no string."""
    import random

    from atomcur import suites as su
    rng = random.Random(0)
    for _ in range(40):
        for degree in (1, 2, 3):
            tree = su.rand_poly_tree(rng, names, degree)
            parsed = ex.parse(ex.to_string(tree), names)
            assert _shape(parsed) == _shape(tree)
            assert ex.to_string(parsed) == ex.to_string(tree)

    class Zeros:  # every coefficient drawn is 0
        def randint(self, lo, hi):
            return 0

    assert _shape(su.rand_poly_tree(Zeros(), names)) == ("Const", ("Fraction", 1))
