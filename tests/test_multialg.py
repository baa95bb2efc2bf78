from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from atomcur.jets import FLOAT, RATIONAL, Jet, JetSpace
from atomcur.multialg import (TensorExtElement, basis_element, det, row_reduce,
                              sorted_words, tensor_coproduct, wedge_coproduct,
                              wedge_merge, word_multidegree, sorted_word)


def test_tensor_coproduct_primitive():
    assert sorted(tensor_coproduct((0,))) == [((), (0,)), ((0,), ())]


def test_tensor_coproduct_length_two():
    got = sorted(tensor_coproduct((0, 1)))
    assert got == [((), (0, 1)), ((0,), (1,)), ((0, 1), ()), ((1,), (0,))]


def test_tensor_coproduct_unit():
    assert tensor_coproduct(()) == [((), ())]


def test_wedge_coproduct_signs():
    got = {(A, B): s for A, B, s in wedge_coproduct((0, 1))}
    assert got[((0, 1), ())] == 1
    assert got[((), (0, 1))] == 1
    assert got[((0,), (1,))] == 1
    assert got[((1,), (0,))] == -1


def test_wedge_coproduct_singleton_and_empty():
    assert {(A, B): s for A, B, s in wedge_coproduct((0,))} == {
        ((0,), ()): 1, ((), (0,)): 1}
    assert wedge_coproduct(()) == [((), (), 1)]


def test_words_and_multidegree():
    assert word_multidegree((0, 1, 1), 3) == (1, 2, 0)
    assert sorted_word((1, 2, 0)) == (0, 1, 1)
    assert len(sorted_words(2, 3)) == 10  # C(2+3, 2)


def test_tensor_ext_element_json():
    from atomcur.atomic import AtomicCurrent
    el = TensorExtElement(2, 2)
    el.add_term((0, 1), (1,), Fraction(3, 2))
    el.add_term((1,), (0, 1), -2)
    cur = AtomicCurrent((Fraction(1, 2), Fraction(0)), 2, 1, 2)
    cur.add_term((0, 1), (0,), Fraction(3, 7))
    cur.add_term((), (1,), -2)
    for x in (el, cur):
        back = TensorExtElement.from_json(2, 2, x.to_json())
        assert back.coeffs == x.coeffs


def test_tensor_ext_element_cancellation():
    el = basis_element(2, 2, (0,), (1,)) + basis_element(2, 2, (0,), (1,)).scale(-1)
    assert el.coeffs == {}


def test_wedge_merge():
    assert wedge_merge((0,), (1,)) == (1, (0, 1))
    assert wedge_merge((1,), (0,)) == (-1, (0, 1))
    assert wedge_merge((0,), (0,)) == (0, ())


def test_det_numbers():
    assert det([]) == 1
    assert det([[7]]) == 7
    assert det([[2, 1], [1, 3]]) == 5
    m = [[Fraction(1, 2), Fraction(1, 3), 0],
         [0, Fraction(2), Fraction(-1, 4)],
         [Fraction(3), 0, Fraction(1)]]
    # 1/2*(2 - 0) - 1/3*(0 + 3/4) + 0
    assert det(m) == Fraction(3, 4)
    # a zero first row skips every term
    assert det([[0, 0], [1, 2]]) == 0
    assert det([[0.5, 0.25], [2.0, 4.0]]) == 1.5


def test_det_jets():
    # det [[x, y], [-y, x]] = x^2 + y^2 at (1, 2), coefficientwise
    for mode, point in ((FLOAT, (1.0, 2.0)), (RATIONAL, (Fraction(1), Fraction(2)))):
        sp = JetSpace(2, 2)
        x = Jet.variable(sp, mode, 0, point[0])
        y = Jet.variable(sp, mode, 1, point[1])
        d = det([[x, y], [-y, x]])
        assert isinstance(d, Jet)
        want = {(0, 0): 5, (1, 0): 2, (0, 1): 4, (2, 0): 1, (1, 1): 0, (0, 2): 1}
        assert {T: d.coeff(T) for T in sp.indices} == want


def test_row_reduce_rank():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
    reduced, pivots = row_reduce(rows)
    assert pivots == [0, 1]
    assert reduced == [[1, 0], [0, 1], [0, 0]]
    assert row_reduce([[Fraction(0), Fraction(0)]])[1] == []
    assert row_reduce([])[1] == []


def test_tensor_ext_rejects_bad_keys():
    el = TensorExtElement(2, 3)
    with pytest.raises(ValueError):
        el.add_term((0, 2), (0,), 1)      # letter outside 0..n-1
    with pytest.raises(ValueError):
        el.add_term((0,), (1, 1), 1)      # repeated anti-index
    with pytest.raises(ValueError):
        el.add_term((0,), (2, 0), 1)      # decreasing anti-index
    with pytest.raises(ValueError):
        el.add_term((0,), (3,), 1)        # anti-index outside 0..d-1
    with pytest.raises(ValueError):
        TensorExtElement(2, 3, {((5,), ()): 1})
    with pytest.raises(ValueError):
        TensorExtElement(2, 3, {((0,), (2, 1)): 1})
    assert el.coeffs == {}


def test_tensor_ext_sum_cancels_to_empty():
    a = TensorExtElement(2, 2, {((0, 1), (0,)): Fraction(1, 2)})
    b = TensorExtElement(2, 2, {((0, 1), (0,)): Fraction(-1, 2), ((1,), ()): 3})
    assert (a + b).coeffs == {((1,), ()): 3}
    assert (a - a).coeffs == {}
    assert a.coeffs == {((0, 1), (0,)): Fraction(1, 2)}


def test_tensor_coproduct_returns_fresh_lists():
    first = tensor_coproduct((0, 1, 1))
    want = list(first)
    first.append(((9,), ()))
    first[0] = None
    assert tensor_coproduct((0, 1, 1)) == want
    assert tensor_coproduct([0, 1, 1]) == want
    assert tensor_coproduct((0, 1, 1)) is not tensor_coproduct((0, 1, 1))


_KEYS = st.tuples(st.sampled_from([(), (0,), (1,), (0, 1), (1, 1, 0)]),
                  st.sampled_from([(), (0,), (1,), (0, 1)]))
_COEFS = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_TERMS = st.lists(st.tuples(_KEYS, _COEFS), max_size=8)


def _oracle(*signed_terms):
    """The plain {(w, K): Fraction} map of sums of signed term lists."""
    out = {}
    for sign, terms in signed_terms:
        for key, c in terms:
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c != 0}


def _element(terms):
    el = TensorExtElement(2, 2)
    for (w, K), c in terms:
        el.add_term(w, K, c)
    return el


def _assert_canonical(el):
    assert el.den > 0 and gcd(el.den, *el.nums.values()) == 1
    assert all(type(c) is int and c != 0 for c in el.nums.values())


@given(_TERMS, _TERMS, _COEFS, st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_rational_element_matches_fraction_oracle(ta, tb, alpha, cut):
    """A rational element holds int numerators over one canonical
    denominator and reads as the Fraction map it stands for, through
    add_term (keys summing to zero are dropped), +, -, scale (by 0 too)
    and a to_json/from_json round trip."""
    # the negated prefix cancels: some keys sum to zero on the way
    tc = ta + [(key, -c) for key, c in ta[:cut]]
    a, b, c = _element(ta), _element(tb), _element(tc)
    cases = [(a, _oracle((1, ta))), (b, _oracle((1, tb))), (c, _oracle((1, tc))),
             (a + b, _oracle((1, ta), (1, tb))), (a - b, _oracle((1, ta), (-1, tb))),
             (a - a, {}), (a.scale(alpha), _oracle((alpha, ta))), (a.scale(0), {})]
    for el, want in cases:
        _assert_canonical(el)
        assert el.coeffs == want
        back = TensorExtElement.from_json(2, 2, el.to_json())
        _assert_canonical(back)
        assert back.coeffs == want
    assert (a - a).den == 1 and (a - a).nums == {}


def test_element_numerators_accumulating_to_zero_drop_the_key():
    el = TensorExtElement(2, 2, {((0,), (1,)): Fraction(1, 6), ((1,), ()): Fraction(1, 4)})
    assert (el.nums, el.den) == ({((0,), (1,)): 2, ((1,), ()): 3}, 12)
    el._add(((0,), (1,)), -2)
    assert el.nums == {((1,), ()): 3}
    el._reduce()
    assert (el.nums, el.den) == ({((1,), ()): 1}, 4)
    el.add_term((1,), (), Fraction(-1, 4))
    assert (el.nums, el.den) == ({}, 1)
