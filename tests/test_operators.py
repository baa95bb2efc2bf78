import random
from fractions import Fraction

import pytest

from atomcur import atomic as at
from atomcur import covderiv as cd
from atomcur import expr as ex
from atomcur import operators as op
from atomcur import suites as su
from atomcur.connection import ChartConnection, ChartValidationError
from atomcur.jets import FLOAT, RATIONAL
from atomcur.multialg import all_words, anti_indices, basis_element

ELEMS2 = [basis_element(2, 2, w, K)
          for w in [(), (0,), (1,), (0, 1), (1, 0), (1, 1)]
          for K in [(), (0,), (1,), (0, 1)]]


def test_op_E_unit_case(flat2):
    # v = (): E_X(() box alpha) = () box X(p) ^ alpha
    X = cd.kvector_field(flat2, 1, {(0,): "x1"})
    E = op.op_E(X, flat2.resolve((0.5, 2.0), FLOAT))
    out = E(basis_element(2, 2, (), (1,)))
    assert abs(out.coeffs[((), (0, 1))] - 2.0) < 1e-14


def test_op_E_scalar_is_corner(s2):
    f = cd.scalar_field(s2, "theta^2 + phi")
    p = s2.resolve((1.1, 0.8), FLOAT)
    lhs = op.op_E(cd.Field(s2, (), {(): f.comps[()]}), p)
    rhs = op.f_lrcorner(f, p)
    assert op.endo_residual(lhs, rhs, ELEMS2) == 0


def test_a_lift_reads_the_chart_of_its_field(s2):
    # the perturbed chart has s2's coordinates, another connection and no
    # metric: Edag of a field on it has no metric to read, and E of it differs
    # from E of the same components on s2 once nabla acts (a one-letter word)
    pert = su._perturbed_chart(s2)
    p = s2.resolve((1.1, 0.8), FLOAT)
    comps = {(0,): "phi", (1,): "theta"}
    X, Xp = cd.kvector_field(s2, 1, comps), cd.kvector_field(pert, 1, comps)
    with pytest.raises(ChartValidationError):
        op.op_Edag(Xp, p)
    x = basis_element(2, 2, (0,), ())
    assert (op.op_E(X, p)(x) - op.op_E(Xp, p)(x)).max_abs() > 1e-3


def test_op_EE_composition(s2):
    p = s2.resolve((1.1, 0.8), FLOAT)
    X = cd.kvector_field(s2, 1, {(0,): "phi", (1,): "theta"})
    X2 = cd.kvector_field(s2, 1, {(0,): "1", (1,): "theta*phi"})
    lhs = op.op_E(X, p).compose(op.op_E(X2, p))
    rhs = op.op_E(cd.wedge_fields(X, X2), p)
    assert op.endo_residual(lhs, rhs, ELEMS2) < 1e-9


def test_op_D_dirac(s2):
    # D_Y(() box alpha) = Y(p) box alpha for vector Y
    p = s2.resolve((1.1, 0.8), FLOAT)
    Y = cd.vector_field(s2, {0: "theta", 1: "phi"})
    out = op.op_D(Y, p)(basis_element(2, 2, (), (0,)))
    assert abs(out.coeffs[((0,), (0,))] - 1.1) < 1e-12
    assert abs(out.coeffs[((1,), (0,))] - 0.8) < 1e-12


def test_op_DD_right_action(s2):
    p = s2.resolve((1.4, 2.2), FLOAT)
    Y = cd.vector_field(s2, {0: "phi", 1: "theta^2"})
    Y2 = cd.vector_field(s2, {0: "theta*phi", 1: "1"})
    lhs = op.op_D(Y, p).compose(op.op_D(Y2, p))
    cp = cd.covariant_product(Y2, Y, p, out_order=3)
    rhs = op.op_D(cd.mixed_tensor_fields(s2, cp, p, 3), p)
    assert op.endo_residual(lhs, rhs, ELEMS2) < 1e-8


def test_op_ED_exchange(s2):
    p = s2.resolve((1.2, 0.9), FLOAT)
    X = cd.kvector_field(s2, 1, {(0,): "phi", (1,): "theta"})
    Y = cd.vector_field(s2, {0: "1", 1: "theta"})
    lhs = op.op_E(X, p).compose(op.op_D(Y, p))
    nbX = {}
    for i in range(2):
        ji = Y.comp_jet((i,), p, 3)
        for K, jet in cd.nabla_word_jets(X, (i,), p, 3).items():
            cur = nbX.get(K)
            term = ji * jet
            nbX[K] = term if cur is None else cur + term
    nXf = cd.jet_field(s2, (cd.FU,), nbX, p, 3)
    rhs = op.op_D(Y, p).compose(op.op_E(X, p)) + op.op_E(nXf, p)
    assert op.endo_residual(lhs, rhs, ELEMS2) < 1e-8


def test_perp_euclidean(flat2, flat3, s2):
    p = flat2.resolve((0.1, 0.2), FLOAT)
    P = op.op_perp(flat2, p)
    assert P(basis_element(2, 2, (), ())).coeffs == {((), (0, 1)): 1}
    # the sign anchor of the coordinate orientation in R^3: star e_0 = e_1 ^ e_2
    star, _star_inv = op.pointwise_star(flat3, flat3.resolve((0.1, 0.2, 0.3), FLOAT))
    assert star({(0,): 1}) == {(1, 2): 1}
    # involution with sign (-1)^{k(n-k)}
    Pi = op.op_perp(flat2, p, inverse=True)
    for K in [(), (0,), (1,), (0, 1)]:
        x = basis_element(2, 2, (0,), K)
        k = len(K)
        got = P(P(x)).coeffs.get(((0,), K), 0)
        assert got == (-1) ** (k * (2 - k))
        assert Pi(P(x)).coeffs == x.coeffs
    # the same laws on the curved s2 metric, in float mode
    p = s2.resolve((1.1, 0.8), FLOAT)
    P, Pi = op.op_perp(s2, p), op.op_perp(s2, p, inverse=True)
    for K in [(), (0,), (1,), (0, 1)]:
        x = basis_element(2, 2, (0,), K)
        k = len(K)
        assert (Pi(P(x)) - x).max_abs() < 1e-12
        assert (P(P(x)) - x.scale((-1) ** (k * (2 - k)))).max_abs() < 1e-12


def test_perp_exact_on_constant_metric():
    # g = diag(4, 9): sqrt(det g) = 6 is rational, so perp is exact
    chart = ChartConnection.from_metric(["x", "y"], [["4", "0"], ["0", "9"]],
                                        [(-1.0, 1.0), (-1.0, 1.0)], name="diag49")
    p = chart.resolve((Fraction(1, 4), Fraction(-1, 3)), RATIONAL)
    P = op.op_perp(chart, p)
    Pi = op.op_perp(chart, p, inverse=True)
    expect = {(): {(0, 1): Fraction(1, 6)}, (0,): {(1,): Fraction(-2, 3)},
              (1,): {(0,): Fraction(3, 2)}, (0, 1): {(): 6}}
    for K, img in expect.items():
        x = basis_element(2, 2, (0,), K)
        assert P(x).coeffs == {((0,), L): c for L, c in img.items()}
        assert Pi(P(x)).coeffs == x.coeffs


def test_perp_duality_vs_star(s2):
    from atomcur.suites import SuiteContext, check_perp_duality
    ctx = SuiteContext(chart=s2, probes=[(1.1, 0.8)], seed=1)
    results = check_perp_duality(ctx)
    assert all(r.passed for r in results if not r.skipped)


def test_hodge_star_check_runs_the_operator_star(monkeypatch):
    # the hodge-star check reads op.pointwise_star, so swapping star and
    # star^{-1} there breaks the det-pairing transpose law it checks
    from atomcur.suites import SuiteContext, check_hodge_algebra
    ctx = SuiteContext(chart=ChartConnection.flat(2))
    assert check_hodge_algebra(ctx)[0].status == "pass"
    star = op.pointwise_star
    monkeypatch.setattr(op, "pointwise_star", lambda *a: star(*a)[::-1])
    assert check_hodge_algebra(ctx)[0].status == "FAIL"


def test_edag_explicit_r3(flat3):
    # Euclidean R^3, X = e0, alpha = e0 ^ e1: Edag_X alpha = e1
    p = flat3.resolve((0.0, 0.0, 0.0), FLOAT)
    X = cd.kvector_field(flat3, 1, {(0,): 1})
    out = op.op_Edag(X, p)(basis_element(3, 3, (), (0, 1)))
    assert out.coeffs == {((), (1,)): 1}
    out2 = op.op_Edag(X, p, route="conjugate")(basis_element(3, 3, (), (0, 1)))
    assert abs(out2.coeffs[((), (1,))] - 1) < 1e-12


def test_edag_routes_agree(s2):
    p = s2.resolve((1.1, 0.8), FLOAT)
    X = cd.kvector_field(s2, 1, {(0,): "phi", (1,): "theta"})
    a = op.op_Edag(X, p)
    b = op.op_Edag(X, p, route="conjugate")
    assert op.endo_residual(a, b, ELEMS2) < 1e-9


@pytest.mark.parametrize("spec, mode, p, tol", [
    ("flat-r2", RATIONAL, (Fraction(1, 4), Fraction(-1, 2)), 0),
    ("s2", "float", (1.1, 0.8), 1e-10),
])
def test_edag_theta_of_lowered_field_is_edag(spec, mode, p, tol):
    """Both pairings of the shared contraction: the metric pairing of
    op_Edag(X) and the form pairing of op_Edag_theta(X lowered by g) agree,
    since the connection is metric compatible."""
    from pathlib import Path

    from atomcur import cli
    path = Path(__file__).resolve().parent.parent / "src" / "atomcur" / "specs" / f"{spec}.json"
    chart = cli.build_chart(cli.load_spec(path))
    p = chart.resolve(p, mode)
    x, y = chart.names
    X = cd.kvector_field(chart, 1, {(0,): f"{x}*{y} + 1", (1,): f"{x}^2 - {y}"})
    lowered = {}
    for a in range(2):
        acc = ex.Const(0)
        for b in range(2):
            acc = ex.ex_add(acc, ex.ex_mul(chart.metric[a][b], X.comps[(b,)]))
        lowered[(a,)] = acc
    theta = cd.form_field(chart, 1, lowered)
    lhs = op.op_Edag(X, p)
    rhs = op.op_Edag_theta(theta, p)
    assert op.endo_residual(lhs, rhs, ELEMS2) <= tol
    assert any(lhs(x).coeffs for x in ELEMS2)


def test_edag_reversal_and_anticommutator(s2):
    p = s2.resolve((1.5, 2.5), FLOAT)
    X = cd.kvector_field(s2, 1, {(0,): "phi", (1,): "1"})
    Y = cd.kvector_field(s2, 1, {(0,): "theta", (1,): "theta*phi"})
    lhs = op.op_Edag(X, p).compose(op.op_Edag(Y, p))
    rhs = op.op_Edag(cd.wedge_fields(Y, X), p)
    assert op.endo_residual(lhs, rhs, ELEMS2) < 1e-9
    EX = op.op_E(X, p)
    EdY = op.op_Edag(Y, p)
    anti = EX.compose(EdY) + EdY.compose(EX)
    acc = ex.Const(0)
    for i in range(2):
        for j in range(2):
            acc = ex.ex_add(acc, ex.ex_mul(X.comps[(i,)],
                                           ex.ex_mul(s2.metric[i][j], Y.comps[(j,)])))
    corner = op.f_lrcorner(cd.Field(s2, (), {(): acc}), p)
    assert op.endo_residual(anti, corner, ELEMS2) < 1e-8


def test_clifford_factorization():
    for n in (2, 3):
        ch = ChartConnection.flat(n)
        p = ch.resolve([0.1 * (i + 1) for i in range(n)], FLOAT)
        P = op.op_perp(ch, p)
        prod = None
        for i in range(n):
            Fi = cd.kvector_field(ch, 1, {(i,): 1})
            t = op.op_E(Fi, p) + op.op_Edag(Fi, p)
            prod = t if prod is None else prod.compose(t)
        for k in range(n + 1):
            sgn = (-1) ** (k * (k - 1) // 2)
            for K in anti_indices(n, k):
                for w in [(), (0,)]:
                    x = basis_element(n, n, w, K)
                    assert (prod(x).scale(sgn) - P(x)).max_abs() == 0


def test_ddag_flat_constant(flat2):
    p = flat2.resolve((0.2, 0.3), FLOAT)
    X = cd.vector_field(flat2, {0: 1, 1: 2})
    lhs = op.op_Ddag(X, p, budget=3)
    rhs = op.op_D(X, p).scaled(-1)
    assert op.endo_residual(lhs, rhs, ELEMS2) == 0


def test_ddag_commutators(s2):
    from atomcur.suites import SuiteContext, check_adjoint_identities
    ctx = SuiteContext(chart=s2, probes=[(1.1, 0.8), (1.7, 1.9)], seed=7, r=2, k=1,
                       trials=2)
    results = check_adjoint_identities(ctx)
    for r in results:
        assert r.skipped or r.passed, (r.check, r.residual)


def test_ddag_duality(s2):
    """Phi(Ddag_X x)(omega) = Phi(x)(-div(X) omega - nabla_X omega)."""
    p = s2.resolve((1.3, 1.1), FLOAT)
    X = cd.vector_field(s2, {0: "phi", 1: "theta"})
    DdX = op.op_Ddag(X, p, budget=4)
    om = cd.form_field(s2, 1, {(0,): "theta*phi", (1,): "phi^2"})
    divX = op.divergence_field(X, p, budget=5)
    for x in ELEMS2:
        if not all(len(K) == 1 for (_w, K) in x.coeffs):
            continue
        lhs = at.phi_apply(DdX(x), om, p)
        # adjoint form field: -div(X) omega - nabla_X omega, as jets
        budget = 3
        comps = {}
        for idx in om.comps:
            omj = om.comp_jet(idx, p, budget)
            term = -(divX.comps[()].truncate(budget) * omj)
            comps[idx] = term
        for i in range(2):
            Xi = X.comp_jet((i,), p, budget)
            for idx, jet in cd.nabla_word_jets(om, (i,), p, budget).items():
                comps[idx] = comps.get(idx, 0) + (-(Xi * jet)) if idx in comps \
                    else -(Xi * jet)
        adj = cd.jet_field(s2, om.slots, comps, p, budget)
        rhs = at.phi_apply(x, adj, p)
        assert abs(lhs - rhs) < 1e-8


def test_sharp_unit_and_alpha_one(s2):
    p = s2.resolve((1.1, 0.8), FLOAT)
    B = 6
    tf = cd.tensor_field(s2, 1, {(0,): "phi", (1,): "theta"})
    ef = cd.kvector_field(s2, 1, {(0,): "1", (1,): "theta"})
    a = op.SharpElement.from_fields(tf, ef, p, B)
    u = op.unit_sharp(s2, p, B)
    au, ua = op.sharp(a, u), op.sharp(u, a)
    for kk, jet in a.coeffs.items():
        assert abs(au.coeffs[kk].value - jet.value) < 1e-12
        assert abs(ua.coeffs[kk].value - jet.value) < 1e-12
    # alpha = 1: (v box 1) sharp (w box beta) = (w (.) v) box beta
    v = cd.tensor_field(s2, 1, {(0,): "1"})
    one = cd.kvector_field(s2, 0, {(): 1})
    w = cd.tensor_field(s2, 1, {(1,): "theta"})
    beta = cd.kvector_field(s2, 1, {(0,): "phi"})
    sv = op.SharpElement.from_fields(v, one, p, B)
    sw = op.SharpElement.from_fields(w, beta, p, B)
    got = op.sharp(sv, sw)
    wv = cd.covariant_product(w, v, p, 0)
    for word, jet in wv.items():
        if abs(jet.value) > 1e-14:
            assert abs(got.coeffs[(word, (0,))].value - jet.value * 0.8) < 1e-10


def test_sharp_associativity_and_actions(s2):
    from atomcur.suites import SuiteContext, check_sharp
    ctx = SuiteContext(chart=s2, probes=[(1.1, 0.8)], seed=5, r=2, k=1)
    results = check_sharp(ctx)
    for r in results:
        assert r.skipped or r.passed, (r.check, r.residual)


def test_boundary_flat_hand_value(flat2):
    p = flat2.resolve((0.25, -0.5), FLOAT)
    T = at.AtomicCurrent(p, 0, 2, 2)
    T.add_term((), (0, 1), 1)
    bT = op.boundary(flat2, T)
    assert set(bT.coeffs) == {((0,), (1,)), ((1,), (0,))}
    assert abs(bT.coeffs[((0,), (1,))] - 1) < 1e-12
    assert abs(bT.coeffs[((1,), (0,))] + 1) < 1e-12


def test_boundary_square_and_counit(s2):
    rng = random.Random(7)
    p = s2.resolve((1.1, 0.8), FLOAT)
    for _ in range(5):
        T = at.AtomicCurrent(p, 1, 2, 2)
        for key in at.pbw_keys(2, 2, 1, 2):
            T.add_term(key[0], key[1], rng.randint(-3, 3))
        bT = op.boundary(s2, T)
        assert op.boundary(s2, bT).max_abs() < 1e-9
        T1 = at.AtomicCurrent(p, 1, 1, 2)
        for key in at.pbw_keys(2, 2, 1, 1):
            T1.add_term(key[0], key[1], rng.randint(-3, 3))
        assert abs(at.counit(op.boundary(s2, T1))) < 1e-12


def test_boundary_degree_zero(s2):
    T = at.AtomicCurrent((1.1, 0.8), 1, 0, 2)
    T.add_term((0,), (), 2.0)
    assert op.boundary(s2, T).coeffs == {}


def test_boundary_trace_route(s2):
    rng = random.Random(3)
    p = s2.resolve((1.1, 0.8), FLOAT)
    for _ in range(3):
        T = at.AtomicCurrent(p, 1, 2, 2)
        for key in at.pbw_keys(2, 2, 1, 2):
            T.add_term(key[0], key[1], rng.randint(-3, 3))
        assert (op.boundary(s2, T) - op.boundary_via_trace(s2, T)).max_abs() < 1e-8


def test_boundary_reuses_differentiated_probes(monkeypatch):
    """A second boundary at the same point and (r, k) derives no new
    covariant derivative: it reads the differentiated probes of the first."""
    chart = ChartConnection.from_metric(
        ["x", "y"], [["1/y^2", "0"], ["0", "1/y^2"]],
        [(-2.0, 2.0), (0.4, 3.0)], name="hyperbolic")
    p = chart.resolve((Fraction(1, 4), Fraction(5, 4)), RATIONAL)
    T = at.AtomicCurrent(p, 1, 1, 2)
    for i, key in enumerate(at.pbw_keys(2, 2, 1, 1)):
        T.add_term(key[0], key[1], i + 1)
    misses = []
    inner = cd.nabla

    def counting(field, I, p):
        misses.append(tuple(I))
        return inner(field, I, p)

    monkeypatch.setattr(cd, "nabla", counting)
    first = op.boundary(chart, T)
    assert misses
    misses.clear()
    second = op.boundary(chart, T.scale(3))
    assert misses == []
    assert second.coeffs == first.scale(3).coeffs


def test_trace_lift_checks_rational(poly2, poly2_point):
    rep = op.trace_DEdag_lift_check(poly2, poly2_point, 2, 1)
    assert rep["kernel_preservation"] == 0
    assert rep["delta_commutation"] == 0
    assert rep["order_degree_ok"]


def test_trace_gamma_gamma_diagnostic(flat2, s2):
    # the nonempty-word local-frame expansion vanishes on flat charts
    q = flat2.resolve((0.2, 0.3), FLOAT)
    for w in [(0,), (0, 1), (1, 1)]:
        assert op.gamma_gamma_local_frame(flat2, q, w, (0, 1)).max_abs() == 0
    # on the sphere the Gamma.Gamma terms differ from the full lift
    # (flat-chart tension)
    p = s2.resolve((1.1, 0.8), FLOAT)
    endo = op.trace_DEdag_endo(s2, p)
    gap = 0
    for w in all_words(2, 2):
        x = basis_element(2, 2, w, (0, 1))
        gap = max(gap, (endo(x) - op.gamma_gamma_local_frame(s2, p, w, (0, 1))).max_abs())
    assert gap > 1e-3


def test_trace_squared_nonzero(s2):
    p = s2.resolve((1.1, 0.8), FLOAT)
    endo = op.trace_DEdag_endo(s2, p)
    x = basis_element(2, 2, (1,), (0, 1))
    assert endo(endo(x)).max_abs() > 1e-9


def test_kernel_preservation_all_ops(poly2, poly2_point):
    from atomcur.suites import SuiteContext, check_kernel_preservation
    ctx = SuiteContext(chart=poly2, mode=RATIONAL, probes=[poly2_point], seed=1,
                       r=2, k=1)
    results = check_kernel_preservation(ctx)
    for r in results:
        assert r.passed and r.residual == 0


def test_codifferential_twin(s2):
    from atomcur.suites import SuiteContext, _codifferential_twin_residual
    ctx = SuiteContext(chart=s2, probes=[(1.1, 0.8)], seed=1)
    assert _codifferential_twin_residual(ctx, ctx.probes[0]) < 1e-7


def test_trace_frame_independence(s2):
    from atomcur.suites import SuiteContext, check_trace_frame_independence
    ctx = SuiteContext(chart=s2, probes=[(1.1, 0.8)], seed=1, r=2, k=1)
    results = check_trace_frame_independence(ctx)
    assert all(r.passed for r in results)


def test_star_form_jets_reuses_metric_jets(monkeypatch):
    # det g and its square root come from the per-point cache: a second star
    # at the same (point, budget) evaluates no expression
    chart = ChartConnection.from_metric(
        ["x", "y"], [["1 + x^2", "x*y/2"], ["x*y/2", "1 + y^2"]],
        [(-1.0, 1.0), (-1.0, 1.0)], name="poly2")
    p = chart.resolve((0.25, -0.5), FLOAT)
    om = cd.form_field(chart, 1, {(0,): "x*y", (1,): "1 + x"})
    first = op.star_form_jets(om, p, 2)
    calls = []
    real = ex.eval_jet
    monkeypatch.setattr(ex, "eval_jet", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    second = op.star_form_jets(om, p, 2)
    assert calls == []
    assert {i: list(j.coeffs) for i, j in second.comps.items()} == \
        {i: list(j.coeffs) for i, j in first.comps.items()}


def test_sharp_one_covariant_product_per_key(s2, monkeypatch):
    """sharp derives e_{w1} (.) f e_{wa} once per (w1, a-key), not per b-term,
    and builds the jet-backed head f e_{wa} once per key of a, so all the
    covariant products of that key read one head."""
    from atomcur.multialg import tensor_coproduct
    p = s2.resolve((1.1, 0.8), FLOAT)
    B = 6
    tf = cd.tensor_field(s2, 1, {(0,): "phi", (1,): "theta"})
    ef = cd.kvector_field(s2, 1, {(0,): "1", (1,): "theta"})
    a = op.SharpElement.from_fields(tf, ef, p, B)
    tg = cd.tensor_field(s2, 2, {(0, 1): "1", (1, 1): "theta*phi"})
    b = op.SharpElement.from_fields(tg, ef, p, B)
    calls, heads, readers = [], [], {}
    inner, build = cd.covariant_product, cd.mixed_tensor_fields

    def counting(X, Y, *args, **kwargs):
        (w1,) = X.comps
        (wa,) = [w for f in cd.as_field_list(Y) for w in f.comps]
        calls.append((w1, wa))
        readers.setdefault(id(Y), []).append(w1)
        return inner(X, Y, *args, **kwargs)

    def building(*args, **kwargs):
        heads.append(build(*args, **kwargs))
        return heads[-1]

    monkeypatch.setattr(cd, "covariant_product", counting)
    monkeypatch.setattr(cd, "mixed_tensor_fields", building)
    op.sharp(a, b)
    assert len(heads) == len(a.coeffs)
    assert sorted(readers) == sorted(id(h) for h in heads)
    assert all(len(w1s) > 1 for w1s in readers.values())
    w1s = {w1 for (wb, _Kb) in b.coeffs for (w1, _w2) in tensor_coproduct(wb)}
    assert len(calls) == len(w1s) * len(a.coeffs)
    want = sorted((w1, wa) for w1 in w1s for (wa, _Ka) in a.coeffs)
    assert sorted(calls) == want
    b_terms = sum(len(tensor_coproduct(wb)) for (wb, _Kb) in b.coeffs)
    assert len(calls) < b_terms * len(a.coeffs)


def _leaf_endos(chart, p):
    """Each leaf lift of the operator layer, built afresh on every call."""
    X = cd.kvector_field(chart, 1, {(0,): "x*y + 1", (1,): "x - y/2"})
    X2 = cd.kvector_field(chart, 2, {(0, 1): "1 + x^2"})
    Y = cd.vector_field(chart, {0: "y^2", 1: "1 + x*y"})
    theta = cd.form_field(chart, 1, {(0,): "x", (1,): "2 - y"})
    f = cd.scalar_field(chart, "1 + x*y^2")
    return {
        "E": op.op_E(X, p),
        "E2": op.op_E(X2, p),
        "D": op.op_D(Y, p),
        "D-mixed": op.op_D([Y, cd.product_field(Y, Y)], p),
        "f-corner": op.f_lrcorner(f, p),
        "Edag": op.op_Edag(X, p),
        "Edag2": op.op_Edag(X2, p),
        "Edag-theta": op.op_Edag_theta(theta, p),
    }


@pytest.mark.parametrize("mode", ["float", RATIONAL])
def test_leaf_endo_rows_are_derived_once(poly2, poly2_point, monkeypatch, mode):
    """A second pass of a leaf lift over the basis reads only its held rows:
    no nabla value and no Gram determinant is derived again, and the images
    equal those of a freshly built endomorphism."""
    from atomcur.suites import SuiteContext, _op_elems
    p = poly2.resolve(poly2_point, mode)
    ctx = SuiteContext(chart=poly2, probes=[p], seed=0, r=2, k=1, mode=mode)
    elems = _op_elems(ctx)
    endos = _leaf_endos(poly2, p)
    first = {name: [endo(x) for x in elems] for name, endo in endos.items()}
    calls = []
    nabla_value, gram_pair = cd.nabla_value, op._gram_pair
    monkeypatch.setattr(cd, "nabla_value",
                        lambda *a, **kw: calls.append("nabla_value") or nabla_value(*a, **kw))
    monkeypatch.setattr(op, "_gram_pair",
                        lambda *a, **kw: calls.append("_gram_pair") or gram_pair(*a, **kw))
    second = {name: [endo(x) for x in elems] for name, endo in endos.items()}
    assert calls == []
    monkeypatch.undo()
    fresh = _leaf_endos(poly2, p)
    for name, endo in fresh.items():
        images = [endo(x).coeffs for x in elems]
        assert [y.coeffs for y in second[name]] == images, name
        assert [y.coeffs for y in first[name]] == images, name
        assert any(images), name

