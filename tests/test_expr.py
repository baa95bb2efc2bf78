import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from atomcur import expr as ex
from atomcur.jets import (FLOAT, RATIONAL, EvalDomainError, ExactModeError)


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
    j = ex.eval_jet(ex.parse("exp(x)", ["x"]), (0.0,), 3)
    assert [round(c, 12) for c in j.coeffs] == [1.0, 1.0, 0.5, round(1 / 6, 12)]


def test_eval_jet_constant():
    j = ex.eval_jet(ex.parse("3.5", ["x", "y"]), (1.0, 2.0), 2)
    assert j.value == 3.5
    assert all(c == 0 for c in list(j.coeffs)[1:])


def test_eval_jet_mixed():
    j = ex.eval_jet(ex.parse("x*y + sin(x)", ["x", "y"]), (0.0, 0.0), 2)
    assert j.value == 0
    assert j.partial((1, 0)) == 1.0
    assert j.partial((0, 1)) == 0.0
    assert j.coeff((1, 1)) == 1.0
    assert j.coeff((2, 0)) == 0.0


def test_rational_polynomial_exact():
    e = ex.parse("x^2*y/3 - 7/2", ["x", "y"])
    j = ex.eval_jet(e, (Fraction(1, 2), Fraction(2, 3)), 3, RATIONAL)
    assert j.value == Fraction(1, 4) * Fraction(2, 3) / 3 - Fraction(7, 2)
    assert j.partial((2, 1)) == Fraction(2, 3)


def test_rational_mode_rejects_elementary():
    with pytest.raises(ExactModeError):
        ex.eval_jet(ex.parse("sin(x)", ["x"]), (Fraction(0),), 2, RATIONAL)


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        ex.eval_jet(ex.parse("log(x)", ["x"]), (-1.0,), 1)
    with pytest.raises(EvalDomainError):
        ex.eval_jet(ex.parse("sqrt(x)", ["x"]), (-2.0,), 1)
    with pytest.raises(EvalDomainError):
        ex.eval_jet(ex.parse("1/x", ["x"]), (0.0,), 1)


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
        jet = ex.eval_jet(m, p, sum(T), RATIONAL)
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
    p = (Fraction(3, 7), Fraction(-2, 5))
    assert ex.evaluate(e, p, RATIONAL) == ex.evaluate(e2, p, RATIONAL)


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
        return [ex.eval_jet(e, p, order, mode) for order in orders]
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
    p = (0.7, 1.3)
    orders = []
    inner = ex.eval_jet

    def counting(e, point, order, mode=FLOAT):
        orders.append(order)
        return inner(e, point, order, mode)

    monkeypatch.setattr(ex, "eval_jet", counting)
    for order in (1, 0, 3, 2, 1, 3, 4, 0):
        jet = ex.jet_at(e, p, order, FLOAT)
        assert bytes(jet.coeffs) == bytes(inner(e, p, order).coeffs)
    assert orders == [1, 3, 4]
