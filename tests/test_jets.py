import math
import pickle
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from atomcur.jets import (FLOAT, KERNEL_MAX_TERMS, RATIONAL, Jet, JetSpace, Point,
                          apply_elementary)


def test_gradlex_prefix_property():
    # truncation must be a prefix slice: lower-order indices come first
    sp = JetSpace(3, 4)
    lower = JetSpace(3, 2)
    assert sp.indices[: lower.size] == lower.indices


def test_space_interning():
    assert JetSpace(2, 3) is JetSpace(2, 3)


@given(st.lists(st.fractions(max_denominator=16), min_size=6, max_size=6),
       st.lists(st.fractions(max_denominator=16), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_cauchy_product_is_polynomial_product(ac, bc):
    # two variables, order 2: 6 coefficients; multiply as truncated polynomials
    sp = JetSpace(2, 2)
    a = Jet(sp, RATIONAL, list(ac))
    b = Jet(sp, RATIONAL, list(bc))
    c = a * b
    for T in sp.indices:
        want = 0
        for Ta in sp.indices:
            Tb = tuple(x - y for x, y in zip(T, Ta))
            if any(t < 0 for t in Tb):
                continue
            want += ac[sp.index_of[Ta]] * bc[sp.index_of[Tb]]
        assert c.coeff(T) == want


def test_reciprocal_exact():
    sp = JetSpace(1, 5)
    u = Jet(sp, RATIONAL, [Fraction(2), Fraction(1), Fraction(0), Fraction(3),
                           Fraction(0), Fraction(0)])
    one = u * u.reciprocal()
    assert one.coeffs[0] == 1
    assert all(c == 0 for c in one.coeffs[1:])


def test_negative_power():
    sp = JetSpace(1, 4)
    u = Jet.variable(sp, RATIONAL, 0, Fraction(1, 2))
    w = u.power(-2) * u.power(2)
    assert w.coeffs[0] == 1 and all(c == 0 for c in w.coeffs[1:])


def test_derivative_shift():
    sp = JetSpace(2, 3)
    f = Jet.variable(sp, RATIONAL, 0, Fraction(1)) * \
        Jet.variable(sp, RATIONAL, 1, Fraction(2))
    dfx = f.derivative(0)
    assert dfx.value == Fraction(2)  # d(xy)/dx at (1,2)
    assert dfx.partial((0, 1)) == 1


@pytest.mark.parametrize("fn,ref", [
    ("exp", math.exp), ("sin", math.sin), ("cos", math.cos),
    ("sinh", math.sinh), ("cosh", math.cosh), ("tan", math.tan),
])
def test_elementary_series_order4(fn, ref):
    sp = JetSpace(1, 4)
    u = Jet.variable(sp, FLOAT, 0, 0.37)
    out = apply_elementary(fn, u)
    h = 1e-5
    fd = (ref(0.37 + h) - ref(0.37 - h)) / (2 * h)
    assert abs(out.value - ref(0.37)) < 1e-14
    assert abs(out.partial((1,)) - fd) < 1e-8


def test_log_sqrt_domain():
    sp = JetSpace(1, 2)
    u = Jet.variable(sp, FLOAT, 0, 0.81)
    assert abs(apply_elementary("sqrt", u).value - 0.9) < 1e-14
    assert abs(apply_elementary("log", u).value - math.log(0.81)) < 1e-14


# ---------------------------------------------------------------------------
# Jets against a coefficient-list reference.

def _ref_mul(sp, a, b):
    # every term of the product table, first factor's index outer: the
    # summation order a float product must reproduce bit for bit
    out = [0] * sp.size
    for ia, Ta in enumerate(sp.indices):
        for ib, Tb in enumerate(sp.indices):
            T = tuple(x + y for x, y in zip(Ta, Tb))
            if sum(T) <= sp.order:
                out[sp.index_of[T]] += a[ia] * b[ib]
    return out


def _ref_one(sp):
    return [Fraction(1)] + [Fraction(0)] * (sp.size - 1)


def _ref_reciprocal(sp, a):
    # v_T = -(1/a_0) sum_{0 != S <= T} a_S v_{T-S}, degree by degree
    v = [Fraction(0)] * sp.size
    for it, T in enumerate(sp.indices):
        if it == 0:
            v[0] = 1 / a[0]
            continue
        acc = Fraction(0)
        for iS, S in enumerate(sp.indices[1:], 1):
            R = tuple(t - s for t, s in zip(T, S))
            if min(R) >= 0:
                acc += a[iS] * v[sp.index_of[R]]
        v[it] = -acc / a[0]
    return v


def _ref_power(sp, a, k):
    base = _ref_reciprocal(sp, a) if k < 0 else a
    out = _ref_one(sp)
    for _ in range(abs(k)):
        out = _ref_mul(sp, out, base)
    return out


def _ref_derivative(sp, a, i):
    lower = JetSpace(sp.n, sp.order - 1)
    out = []
    for T in lower.indices:
        up = tuple(t + (k == i) for k, t in enumerate(T))
        out.append(a[sp.index_of[up]] * (T[i] + 1))
    return out


def _ref_compose(sp, a, series):
    du = [Fraction(0)] + list(a[1:])
    out, pw = [Fraction(0)] * sp.size, _ref_one(sp)
    for c in series[: sp.order + 1]:
        out = [x + c * y for x, y in zip(out, pw)]
        pw = _ref_mul(sp, pw, du)
    return out


def _canonical_values(jet):
    """Coefficients of a rational jet, after checking its storage is canonical."""
    assert all(type(c) is int for c in jet.coeffs)
    assert type(jet.den) is int and jet.den > 0
    assert math.gcd(jet.den, *jet.coeffs) == 1
    if not any(jet.coeffs):
        assert jet.den == 1
    return [jet.coeff(T) for T in jet.space.indices]


_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@pytest.mark.parametrize("n,order", [(1, 5), (2, 3), (3, 2)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rational_jet_ops_match_fraction_reference(n, order, data):
    sp = JetSpace(n, order)
    ac = data.draw(st.lists(_fracs, min_size=sp.size, max_size=sp.size))
    bc = data.draw(st.lists(_fracs, min_size=sp.size, max_size=sp.size))
    alpha = data.draw(_fracs)
    k = data.draw(st.integers(-3, 6))
    i = data.draw(st.integers(0, n - 1))
    low = data.draw(st.integers(0, order))
    series = data.draw(st.lists(_fracs, min_size=order + 1, max_size=order + 1))
    a, b = Jet(sp, RATIONAL, ac), Jet(sp, RATIONAL, bc)

    assert _canonical_values(a) == ac
    assert _canonical_values(a + b) == [x + y for x, y in zip(ac, bc)]
    assert _canonical_values(a - b) == [x - y for x, y in zip(ac, bc)]
    assert _canonical_values(-a) == [-x for x in ac]
    assert _canonical_values(a.scale(alpha)) == [alpha * x for x in ac]
    assert _canonical_values(a * b) == _ref_mul(sp, ac, bc)
    assert _canonical_values(a.derivative(i)) == _ref_derivative(sp, ac, i)
    assert _canonical_values(a.truncate(low)) == ac[: JetSpace(n, low).size]
    assert _canonical_values(a.compose_series(series)) == _ref_compose(sp, ac, series)
    if ac[0] != 0:
        assert _canonical_values(a.reciprocal()) == _ref_reciprocal(sp, ac)
        assert _canonical_values(a.power(k)) == _ref_power(sp, ac, k)
    else:
        assert _canonical_values(a.power(abs(k))) == _ref_power(sp, ac, abs(k))


_floats = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-8, 8))

# both sides of KERNEL_MAX_TERMS: (2, 6) and (3, 4) have exactly 210 product
# terms and run the straight-line kernel, (2, 7) and (3, 5) the row loop
_FLOAT_SPACES = [(1, 5), (2, 3), (3, 2), (2, 6), (3, 4), (2, 7), (3, 5)]


def _row_walk(sp, a, b):
    # the row loop of rational jets: left factor outer, its zero coefficients
    # skipped
    out = [0] * sp.size
    for x, row in zip(a, sp.mul_rows):
        if x:
            for o, j in row:
                out[o] += x * b[j]
    return array("d", out).tobytes()


def test_kernel_cap():
    for n, order in _FLOAT_SPACES:
        sp = JetSpace(n, order)
        assert (sp.float_kernel is not None) == (len(sp.mul_oi) <= KERNEL_MAX_TERMS)
    assert len(JetSpace(2, 6).mul_oi) == len(JetSpace(3, 4).mul_oi) == KERNEL_MAX_TERMS


@pytest.mark.parametrize("n,order", _FLOAT_SPACES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_float_product_matches_table_order_reference(n, order, data):
    # the kernel keeps the terms that the row walk skips; they must not
    # change a single bit, the sign of a zero included
    sp = JetSpace(n, order)
    ac = data.draw(st.lists(_floats, min_size=sp.size, max_size=sp.size))
    bc = data.draw(st.lists(_floats, min_size=sp.size, max_size=sp.size))
    a, b = Jet(sp, FLOAT, array("d", ac)), Jet(sp, FLOAT, array("d", bc))
    assert (a * b).coeffs.tobytes() == _row_walk(sp, ac, bc)
    assert (b * a).coeffs.tobytes() == _row_walk(sp, bc, ac)
    assert (a * b).coeffs.tobytes() == array("d", _ref_mul(sp, ac, bc)).tobytes()


@pytest.mark.parametrize("n,order", _FLOAT_SPACES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fused_product_matches_product_then_sum_float(n, order, data):
    sp = JetSpace(n, order)
    acc, a, b = (Jet(sp, FLOAT, array("d", data.draw(
        st.lists(_floats, min_size=sp.size, max_size=sp.size)))) for _ in range(3))
    assert acc.add_product(a, b).coeffs.tobytes() == (acc + a * b).coeffs.tobytes()
    assert acc.add_product(a, b, -1).coeffs.tobytes() == (acc - a * b).coeffs.tobytes()


@pytest.mark.parametrize("n,order", [(2, 1), (3, 5)])
def test_fused_product_rejects_mismatched_jets(n, order):
    sp, other = JetSpace(n, order), JetSpace(n, order - 1)
    acc = Jet.const(sp, FLOAT, 1.0)
    for a, b in ((Jet.const(other, FLOAT, 1.0), acc), (acc, Jet.const(sp, RATIONAL, 1))):
        with pytest.raises(ValueError, match="mismatch"):
            acc.add_product(a, b)


@pytest.mark.parametrize("n,order", [(1, 5), (2, 3), (3, 2)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fused_product_rational(n, order, data):
    sp = JetSpace(n, order)
    cc, ac, bc = (data.draw(st.lists(_fracs, min_size=sp.size, max_size=sp.size))
                  for _ in range(3))
    acc, a, b = Jet(sp, RATIONAL, cc), Jet(sp, RATIONAL, ac), Jet(sp, RATIONAL, bc)
    prod = _ref_mul(sp, ac, bc)
    assert _canonical_values(acc.add_product(a, b)) == [c + x for c, x in zip(cc, prod)]
    assert _canonical_values(acc.add_product(a, b, -1)) == [c - x for c, x in zip(cc, prod)]


@pytest.mark.parametrize("n,order", [(1, 5), (2, 3), (3, 2)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fused_rational_product_equals_product_then_sum(n, order, data):
    """The one-pass rational fused product stores the numerators and the
    denominator of ``acc + a*b`` / ``acc - a*b``, also where the sum cancels
    to zero, in part or in full (den 1)."""
    sp = JetSpace(n, order)
    cc, ac, bc = (data.draw(st.lists(_fracs, min_size=sp.size, max_size=sp.size))
                  for _ in range(3))
    acc, a, b = Jet(sp, RATIONAL, cc), Jet(sp, RATIONAL, ac), Jet(sp, RATIONAL, bc)
    prod = a * b
    # a prefix of the product's coefficients cancels against acc
    cut = data.draw(st.integers(0, sp.size))
    part = Jet(sp, RATIONAL, [prod.coeff(T) for T in sp.indices[:cut]] + cc[cut:])
    for start in (acc, prod, -prod, part, -part, Jet.zero(sp, RATIONAL)):
        for sign, want in ((1, start + prod), (-1, start - prod)):
            got = start.add_product(a, b, sign)
            assert (got.coeffs, got.den) == (want.coeffs, want.den)
    assert prod.add_product(a, b, -1).den == 1
    assert not any(prod.add_product(a, b, -1).coeffs)


def test_jets_product_check_across_denominators(monkeypatch):
    # the check compares jets whose numerators sit over different denominators;
    # its residual must come from their difference, not from the raw storage
    from atomcur import expr as ex
    from atomcur import suites
    from atomcur.connection import ChartConnection

    real = ex.eval_jet
    seen, factors, bump = [], [], [0]

    def eval_jet(e, *args):
        jet = real(e, *args)
        # a product jet is evaluated right after the jets of its two factors
        if (len(seen) >= 2 and isinstance(e, ex.Mul)
                and e.a is seen[-2][0] and e.b is seen[-1][0]):
            factors.append((seen[-2][1], seen[-1][1]))
            jet = jet + bump[0]
        seen.append((e, jet))
        return jet

    monkeypatch.setattr(ex, "eval_jet", eval_jet)
    ctx = suites.SuiteContext(chart=ChartConnection.flat(2), mode=RATIONAL,
                              probes=[(Fraction(1, 2), Fraction(1, 3))])
    results = suites.check_jets_product(ctx)
    assert len(factors) == 4
    assert any(j1.den != j2.den for j1, j2 in factors)
    assert all(r.passed and r.residual == 0 for r in results)
    # a product jet off by 1/7 in its value reads exactly 1/7
    bump[0] = Fraction(1, 7)
    results = suites.check_jets_product(ctx)
    assert [r.residual for r in results] == [1 / 7] * 4


@pytest.mark.parametrize("coords,mode", [((0.25, -1.5), FLOAT),
                                          ((Fraction(1, 4), Fraction(-3, 2)), RATIONAL)])
def test_point_survives_pickle(coords, mode):
    """Check rows cross the process boundary of --jobs with their probe."""
    p = Point(coords, mode)
    q = pickle.loads(pickle.dumps(p))
    assert type(q) is Point and q.mode == mode
    assert q == p and hash(q) == hash(p)
    assert tuple(q) == coords and all(type(x) is type(y) for x, y in zip(q, coords))
