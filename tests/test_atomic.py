import math
import random
from fractions import Fraction

import pytest

from atomcur import atomic as at
from atomcur import covderiv as cd
from atomcur import expr as ex
from atomcur import operators as op
from atomcur.connection import ChartConnection, curvature
from atomcur.jets import FLOAT, RATIONAL
from atomcur.multialg import (TensorExtElement, anti_indices, basis_element, delta_coproduct,
                              row_reduce)


def test_phi_zeroth_derivative(s2):
    # x = () box eps_K evaluates omega at the point
    p = s2.resolve((1.1, 0.8), FLOAT)
    om = cd.form_field(s2, 1, {(0,): "theta^2", (1,): "phi"})
    x = basis_element(2, 2, (), (1,))
    assert abs(at.phi_apply(x, om, p) - 0.8) < 1e-12


def test_phi_commutator_curvature_example(s2):
    """Phi((a(x)b - b(x)a) box alpha + 1 box R_{a,b} alpha) = 0."""
    rng = random.Random(2)
    p = s2.resolve((1.2, 0.7), FLOAT)
    cv = curvature(s2, p)
    for a, b in [(0, 1), (1, 0)]:
        for K in [(0,), (1,), (0, 1)]:
            x = basis_element(2, 2, (a, b), K) + basis_element(2, 2, (b, a), K).scale(-1)
            M = [[cv.fiber[(bb, aa, a, b)] for aa in range(2)] for bb in range(2)]
            for K2, c in at._apply_end_to_kvector(M, {K: 1}).items():
                x.add_term((), K2, c)
            for _ in range(10):
                comps = {KK: f"{rng.randint(-2, 2)} + {rng.randint(-2, 2)}*theta*phi"
                         for KK in anti_indices(2, len(K))}
                om = cd.form_field(s2, len(K), comps)
                assert abs(at.phi_apply(x, om, p)) < 1e-9


def test_phi_monomial_probes(poly2, poly2_point):
    """Phi(e_S box eps_K)((e-p)^T/T! d eps^L) = delta_{<S>,T} delta_{K,L}."""
    p = poly2_point
    for S in [(0,), (0, 1), (1, 1)]:
        for T in [(1, 0), (1, 1), (0, 2), (2, 1)]:
            if len(S) > sum(T):
                continue
            for K in anti_indices(2, 1):
                for L in anti_indices(2, 1):
                    x = basis_element(2, 2, S, K)
                    probe = at.probe_form(poly2, p, T, L)
                    got = at.phi_apply(x, probe, p)
                    from atomcur.multialg import word_multidegree
                    want = 1 if (word_multidegree(S, 2) == T and K == L) else 0
                    assert got == want


def test_to_pbw_flat_unit(flat2):
    p = flat2.resolve((0.25, -0.5), FLOAT)
    cur = at.to_pbw(flat2, basis_element(2, 2, (0, 1), (1,)), p, 2, 1)
    assert cur.coeffs == {((0, 1), (1,)): 1}


def test_to_pbw_flat_commutator_zero(flat2):
    p = flat2.resolve((0.25, -0.5), FLOAT)
    x = basis_element(2, 2, (0, 1), (0,)) + basis_element(2, 2, (1, 0), (0,)).scale(-1)
    assert at.to_pbw(flat2, x, p, 2, 1).coeffs == {}


def test_to_pbw_s2_curvature(s2):
    p = s2.resolve((1.1, 0.8), FLOAT)
    cv = curvature(s2, p)
    x = basis_element(2, 2, (0, 1), (0, 1)) + basis_element(2, 2, (1, 0), (0, 1)).scale(-1)
    lhs = at.to_pbw(s2, x, p, 2, 2)
    M = [[cv.fiber[(b, a, 0, 1)] for a in range(2)] for b in range(2)]
    rhs = at.AtomicCurrent(p, 2, 2, 2)
    for K, c in at._apply_end_to_kvector(M, {(0, 1): 1}).items():
        rhs.add_term((), K, -c)
    assert (lhs - rhs).max_abs() < 1e-8


def test_pbw_dimension_count():
    assert at.pbw_dimension(2, 2, 3, 1) == math.comb(5, 2) * 2
    assert len(at.pbw_keys(2, 2, 3, 1)) == at.pbw_dimension(2, 2, 3, 1)


def test_kernel_basis_flat_shape(flat2):
    p = flat2.resolve((0.1, 0.2), FLOAT)
    kb = at.kernel_basis(flat2, p, 2, 1)
    # flat chart: all correction terms vanish, E = (e_i (x) e_j - e_j (x) e_i) box eps_K
    assert len(kb) == at.kernel_basis_count(2, 2, 2, 1) == 2
    for (I, i, j, J, K), el in kb:
        want = {((i, j), K): 1, ((j, i), K): -1}
        assert el.coeffs == want


def test_kernel_count_example():
    # n = 2, r = 3, k = 1, d = 2: (15 - 10)*2 = 10
    assert at.kernel_basis_count(2, 2, 3, 1) == 10


def test_kernel_annihilation_exact(poly2, poly2_point):
    p = poly2_point
    kb = at.kernel_basis(poly2, p, 3, 1)
    assert len(kb) == 10
    for _label, el in kb:
        assert op.probe_annihilation_residual(poly2, el, p, 3, 1) == 0


def _poly3_chart():
    from pathlib import Path
    from atomcur import cli
    spec = Path(__file__).resolve().parent.parent / "src" / "atomcur" / "specs" / "poly3.json"
    return cli.build_chart(cli.load_spec(spec))


def test_kernel_basis_is_independent_at_order_3():
    """Above order 2 the kernel basis is a basis: as many elements as
    kernel_basis_count, and of full rank over the rationals.  Each word
    I j i J has its first descent at the pair, so no label repeats."""
    chart = _poly3_chart()
    p = chart.resolve((Fraction(1, 4), Fraction(-1, 3), Fraction(1, 5)), RATIONAL)
    kb = at.kernel_basis(chart, p, 3, 1)
    assert len(kb) == at.kernel_basis_count(3, 3, 3, 1) == 60
    for (I, i, j, J, _K), _el in kb:
        w = I + (j, i) + J
        assert next(t for t in range(len(w) - 1) if w[t] > w[t + 1]) == len(I)
    # the 20 words of length 2 and 3 over three letters that have a descent
    assert len({I + (j, i) + J for (I, i, j, J, _K), _el in kb}) == 20
    keys = sorted({key for _label, el in kb for key in el.coeffs})
    rows = [[el.coeffs.get(key, 0) for key in keys] for _label, el in kb]
    assert len(row_reduce(rows)[1]) == 60


def test_coproduct_dirac_grouplike():
    D = at.AtomicCurrent((0.0, 0.0), 0, 0, 2)
    D.add_term((), (), 1)
    assert delta_coproduct(D) == {(((), ()), ((), ())): 1}
    # a repeated letter: both single-letter splits of (0, 0) land on one key
    x = basis_element(2, 2, (0, 0), (1,), 3)
    assert delta_coproduct(x) == {
        (((), ()), ((0, 0), (1,))): 3, (((), (1,)), ((0, 0), ())): 3,
        (((0,), ()), ((0,), (1,))): 6, (((0,), (1,)), ((0,), ())): 6,
        (((0, 0), ()), ((), (1,))): 3, (((0, 0), (1,)), ((), ())): 3}
    # Koszul signs on the wedge side; keys whose sum cancels are dropped
    y = basis_element(2, 2, (0, 1), (0, 1)) + basis_element(2, 2, (1, 0), (0, 1), -1)
    got = delta_coproduct(y)
    assert got[(((), (1,)), ((0, 1), (0,)))] == -1
    assert got[(((), (1,)), ((1, 0), (0,)))] == 1
    assert (((0,), ()), ((1,), (0, 1))) not in got
    assert len(got) == 2 * 4 * 2


def test_coproduct_duality(s2):
    rng = random.Random(42)
    p = s2.resolve((1.1, 0.8), FLOAT)
    worst = 0
    for _ in range(25):
        T = at.AtomicCurrent(p, 2, 2, 2)
        for key in at.pbw_keys(2, 2, 2, 2):
            T.add_term(key[0], key[1], rng.randint(-3, 3))
        om = cd.form_field(s2, 1, {(0,): f"{rng.randint(-2,2)}*theta", (1,): "phi"})
        et = cd.form_field(s2, 1, {(0,): "1", (1,): f"{rng.randint(-2,2)}*theta*phi"})
        lhs = at.coproduct_pair_evaluate(T, om, et)
        rhs = at.phi_apply(T, cd.wedge_fields(om, et), p)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-8


def test_counit_law(s2):
    rng = random.Random(9)
    p = (1.3, 2.0)
    T = at.AtomicCurrent(p, 2, 1, 2)
    for key in at.pbw_keys(2, 2, 2, 1):
        T.add_term(key[0], key[1], Fraction(rng.randint(-3, 3)))
    assert at.counit(T) == 0  # degree 1 pairs to zero with the constant 1
    left = {}
    for ((kl, kr)), c in delta_coproduct(T).items():
        if kl == ((), ()):
            left[kr] = left.get(kr, 0) + c
    assert left == T.coeffs


def test_f_action(s2):
    rng = random.Random(4)
    p = s2.resolve((1.1, 0.8), FLOAT)
    f = cd.scalar_field(s2, "theta^2*phi + sin(theta)")
    for _ in range(10):
        T = at.AtomicCurrent(p, 2, 1, 2)
        for key in at.pbw_keys(2, 2, 2, 1):
            T.add_term(key[0], key[1], rng.randint(-2, 2))
        om = cd.form_field(s2, 1, {(0,): "theta", (1,): "phi^2"})
        fT = op.f_lrcorner(f, p)(T)
        lhs = at.phi_apply(fT, om, p)
        fom = cd.Field(s2, om.slots,
                       {i: ex.ex_mul(f.comps[()], c) for i, c in om.comps.items()})
        rhs = at.phi_apply(T, fom, p)
        assert abs(lhs - rhs) < 1e-9
    one = cd.scalar_field(s2, 1)
    assert (op.f_lrcorner(one, p)(T) - T).max_abs() == 0
    D = at.AtomicCurrent(p, 0, 0, 2)
    D.add_term((), (), 1)
    vanish = cd.scalar_field(s2, ex.ex_sub(ex.Sym(0, "theta"), ex.Const(Fraction(11, 10))))
    # f(p) = 0 within float resolution kills the Dirac mass
    assert op.f_lrcorner(vanish, p)(D).max_abs() < 1e-12


def test_f_lrcorner_current_exact(poly2, poly2_point):
    """On a rational current the module action lands on nondecreasing words
    (a deshuffle of a sorted word is sorted) and (f corner T)(omega) =
    T(f omega) holds exactly."""
    rng = random.Random(11)
    p = poly2_point
    T = at.AtomicCurrent(p, 2, 1, poly2.d)
    for key in at.pbw_keys(2, 2, 2, 1):
        T.add_term(key[0], key[1], Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    f = cd.scalar_field(poly2, "x^2*y - 3*x + 2")
    om = cd.form_field(poly2, 1, {(0,): "x*y", (1,): "y^2 - x"})
    fT = op.f_lrcorner(f, p)(T)
    assert fT.coeffs
    assert all(list(w) == sorted(w) for (w, _K) in fT.coeffs)
    fom = cd.Field(poly2, om.slots,
                   {i: ex.ex_mul(f.comps[()], c) for i, c in om.comps.items()})
    assert at.phi_apply(fT, om, p) == at.phi_apply(T, fom, p)


def test_current_arithmetic_keeps_current():
    p = (Fraction(1, 2), Fraction(0))
    T = at.AtomicCurrent(p, 2, 1, 3)
    T.add_term((0, 1), (2,), Fraction(3, 7))
    U = at.AtomicCurrent(p, 2, 1, 3)
    U.add_term((), (0,), 5)
    for out in (T.scale(2), T + U, T - U, T.scale(0)):
        assert isinstance(out, at.AtomicCurrent)
        assert (out.point, out.r, out.k, out.n, out.d) == (p, 2, 1, 2, 3)
    assert (T + U).coeffs == {((0, 1), (2,)): Fraction(3, 7), ((), (0,)): 5}
    assert (T - T).coeffs == {}


def test_transition_identity(s2):
    p = s2.resolve((1.1, 0.8), FLOAT)
    tm = at.transition_matrix(s2, s2, ["theta", "phi"], p, 2, 1)
    for key, row in tm.items():
        for k2, v in row.items():
            assert abs(v - (1 if key == k2 else 0)) < 1e-12


def test_transition_linear_scale():
    # chart A coordinate y, chart B coordinate x with x = 2y:
    # the Dirac mass maps to the Dirac mass and the derivative functional
    # scales by 2
    A = ChartConnection.flat(1, names=("y",), lo=-3, hi=3)
    B = ChartConnection.flat(1, names=("x",), lo=-7, hi=7)
    tm = at.transition_matrix(A, B, ["2*y"], A.resolve((0.5,), FLOAT), 1, 0)
    assert abs(tm[((), ())][((), ())] - 1) < 1e-14
    assert abs(tm[((0,), ())][((0,), ())] - 2) < 1e-14


def test_transition_cocycle_sphere():
    from atomcur.suites import _cocycle_check, SuiteContext
    ctx = SuiteContext(chart=ChartConnection.flat(2), probes=[(0.0, 0.0)])
    res = _cocycle_check(ctx, "cocycle")
    assert res.residual < 1e-7 and res.passed


def test_current_json_roundtrip():
    T = at.AtomicCurrent((Fraction(1, 2), Fraction(0)), 2, 1, 2)
    T.add_term((0, 1), (0,), Fraction(3, 7))
    T.add_term((), (1,), -2)
    back = TensorExtElement.from_json(T.n, T.d, T.to_json())
    assert back.coeffs == T.coeffs
