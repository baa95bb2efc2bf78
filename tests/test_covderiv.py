import itertools
import random
from fractions import Fraction

import pytest

from atomcur import covderiv as cd
from atomcur import expr as ex
from atomcur.jets import FLOAT, RATIONAL, Jet, as_point
from atomcur.multialg import tensor_coproduct


def test_flat_scalar_is_plain_partial(flat2):
    f = cd.scalar_field(flat2, "x0^2*x1 + x1^3")
    p = flat2.resolve((0.5, 0.25), FLOAT)
    got = cd.nabla_value(f, (0, 1), p).get((), 0)
    want = ex.eval_jet(f.comps[()], p, 2).partial((1, 1))
    assert abs(got - want) < 1e-14


def test_monomial_lemma_exact(poly2, poly2_point):
    """nabla_{e_S}((e-p)^T/T! alpha) at p equals delta_{<S>,T} alpha(p)."""
    p = poly2_point
    alpha = cd.vector_field(poly2, {0: "1 + x*y", 1: "x - y^2"})
    aval = alpha.value(p)
    for T in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]:
        mono = ex.monomial_form(p, T, poly2.names)
        fld = cd.Field(poly2, (cd.TU,),
                       {idx: ex.ex_mul(mono, c) for idx, c in alpha.comps.items()})
        for slen in range(sum(T) + 1):
            for S in itertools.product(range(2), repeat=slen):
                got = cd.nabla_value(fld, S, p)
                count = (S.count(0), S.count(1))
                want = aval if count == T else {}
                keys = set(got) | set(want)
                assert all(got.get(k, 0) == want.get(k, 0) for k in keys), (T, S)


def test_third_order_expansion_identity(s2):
    """nabla^3_{X,Y,Z} = nabla_X o nabla^2_{Y,Z} - nabla^2_{hat X Y, Z}
    - nabla^2_{Y, hat X Z} as an operator identity on random fields."""
    rng = random.Random(7)
    p = s2.resolve((1.2, 0.9), FLOAT)
    for _ in range(6):
        om = cd.form_field(s2, 1, {(0,): f"{rng.randint(-2,2)}*theta^2 + phi",
                                   (1,): f"theta*phi + {rng.randint(-2,2)}"})
        i, j, k = (rng.randrange(2) for _ in range(3))
        lhs = cd.nabla_value(om, (i, j, k), p)
        inner = cd.nabla_word_jets(om, (j, k), p, 1)
        inner_field = cd.jet_field(s2, om.slots, inner, p, 1)
        rhs = dict(cd.nabla_value(inner_field, (i,), p))
        for l in range(2):
            gam = s2.higher_gamma((i,), j, p)[l]
            if gam:
                for idx, c in cd.nabla_value(om, (l, k), p).items():
                    rhs[idx] = rhs.get(idx, 0) - gam * c
            gam = s2.higher_gamma((i,), k, p)[l]
            if gam:
                for idx, c in cd.nabla_value(om, (j, l), p).items():
                    rhs[idx] = rhs.get(idx, 0) - gam * c
        keys = set(lhs) | set(rhs)
        assert max(abs(lhs.get(kk, 0) - rhs.get(kk, 0)) for kk in keys) < 1e-8


def test_compose_check_flat_exact(flat2):
    om = cd.form_field(flat2, 1, {(0,): "x0*x1", (1,): "x1^2"})
    p = flat2.resolve((Fraction(1, 2), Fraction(1, 3)), RATIONAL)
    assert cd.nabla_compose_check((0, 1), (1,), om, p) == 0
    # empty w reduces to the identity composition
    assert cd.nabla_compose_check((0,), (), om, p) == 0


def test_compose_check_curved(s2, hyperbolic):
    rng = random.Random(13)
    for chart, p in [(s2, (1.1, 0.8)), (hyperbolic, (0.4, 1.3))]:
        p = chart.resolve(p, FLOAT)
        om = cd.form_field(chart, 1,
                           {(0,): f"{chart.names[0]}^2", (1,): f"{chart.names[1]}"})
        for _ in range(8):
            v = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            w = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            assert cd.nabla_compose_check(v, w, om, p) < 1e-7


def test_fundamental_commutation(flat2, s2, hyperbolic):
    om = cd.form_field(flat2, 1, {(0,): "x0^2*x1", (1,): "x1^3"})
    p = flat2.resolve((Fraction(1, 4), Fraction(-1, 2)), RATIONAL)
    assert cd.fundamental_commutation_check((), (), 0, 1, om, p) == 0
    assert cd.fundamental_commutation_check((0,), (1,), 0, 1, om, p) == 0
    rng = random.Random(23)
    for chart, p in [(s2, (1.3, 1.1)), (hyperbolic, (-0.2, 0.9))]:
        p = chart.resolve(p, FLOAT)
        om = cd.form_field(chart, 1,
                           {(0,): f"{chart.names[0]}*{chart.names[1]}", (1,): "1"})
        for _ in range(6):
            u = tuple(rng.randrange(2) for _ in range(rng.randint(0, 1)))
            v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 1)))
            assert cd.fundamental_commutation_check(u, v, 0, 1, om, p) < 1e-7


def test_zero_order_commutator_is_curvature(s2):
    """|u| = 0 case: nabla^2 commutator = R^E o nabla_v - nabla_{R^TM v}."""
    p = s2.resolve((1.5, 2.3), FLOAT)
    om = cd.form_field(s2, 1, {(0,): "theta^2*phi", (1,): "phi^2"})
    a, b = 0, 1
    v = (0,)
    lhs = {}
    for word, sgn in [((a, b) + v, 1), ((b, a) + v, -1)]:
        for idx, c in cd.nabla_value(om, word, p).items():
            lhs[idx] = lhs.get(idx, 0) + sgn * c
    # covariant_step reads each endomorphism by rows: the transpose
    # the matrices come over den 1: the values of a float chart
    ab = ({(a, b): 1}, 1)
    base_rows = [*zip(*cd.curvature_endomorphism(s2, (), ab, p)[0])]
    fiber_rows = [*zip(*cd.curvature_endomorphism(s2, (), ab, p, fiber=True)[0])]
    inner = cd.nabla_value(om, v, p)
    rhs = cd.covariant_step(s2, om.slots, {}, inner,
                            lambda fiber: fiber_rows if fiber else base_rows)
    rv = cd.covariant_step(s2, (cd.TU,), {}, {v: 1}, lambda fiber: base_rows)
    for word, c in rv.items():
        for idx, c2 in cd.nabla_value(om, word, p).items():
            rhs[idx] = rhs.get(idx, 0) - c * c2
    keys = set(lhs) | set(rhs)
    assert max(abs(lhs.get(kk, 0) - rhs.get(kk, 0)) for kk in keys) < 1e-8


def test_covariant_step_applies_endomorphisms_as_a_derivation():
    """With the rows of pointwise endomorphisms A (tangent) and B (fiber),
    covariant_step adds to ``derivs`` +A on the up tangent slot, -A^T on the
    down one, and likewise B on the fiber slots, against a hand expansion."""
    from types import SimpleNamespace
    rng = random.Random(11)
    n, d = 2, 3
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    B = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
    keys = list(itertools.product(range(n), range(n), range(d), range(d)))
    T = {key: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for key in keys}
    derivs = {key: Fraction(rng.randint(-2, 2)) for key in keys[::5]}
    # row[a][b]: the coefficient of e_b in the image of e_a
    rows = {False: [[A[b][a] for b in range(n)] for a in range(n)],
            True: [[B[b][a] for b in range(d)] for a in range(d)]}
    got = cd.covariant_step(SimpleNamespace(n=n, d=d), (cd.TU, cd.TD, cd.FU, cd.FD),
                            derivs, T, rows.get)
    for (i, j, al, be) in keys:
        want = (derivs.get((i, j, al, be), 0)
                + sum(A[i][k] * T[(k, j, al, be)] for k in range(n))
                - sum(A[k][j] * T[(i, k, al, be)] for k in range(n))
                + sum(B[al][g] * T[(i, j, g, be)] for g in range(d))
                - sum(B[g][be] * T[(i, j, al, g)] for g in range(d)))
        assert got.get((i, j, al, be), 0) == want


def test_covariant_product_bracket(s2):
    rng = random.Random(3)
    p = s2.resolve((1.1, 0.8), FLOAT)
    V = cd.vector_field(s2, {0: "phi", 1: "theta^2"})
    W = cd.vector_field(s2, {0: "theta*phi", 1: "1 + phi"})
    vw = cd.covariant_product_value(V, W, p)
    wv = cd.covariant_product_value(W, V, p)
    lhs = dict(vw)
    for kk, c in wv.items():
        lhs[kk] = lhs.get(kk, 0) - c
    Vv, Wv = V.value(p), W.value(p)
    rhs = {}
    for (i,), a in Vv.items():
        for (j,), b in Wv.items():
            rhs[(i, j)] = rhs.get((i, j), 0) + a * b
            rhs[(j, i)] = rhs.get((j, i), 0) - a * b
    for kk in range(2):
        acc = 0.0
        for i in range(2):
            ei = tuple(1 if t == i else 0 for t in range(2))
            acc += Vv[(i,)] * ex.eval_jet(W.comps[(kk,)], p, 1).partial(ei)
            acc -= Wv[(i,)] * ex.eval_jet(V.comps[(kk,)], p, 1).partial(ei)
        rhs[(kk,)] = rhs.get((kk,), 0) + acc
    keys = set(lhs) | set(rhs)
    assert max(abs(lhs.get(kk, 0) - rhs.get(kk, 0)) for kk in keys) < 1e-9


def test_covariant_product_unit_and_assoc(s2):
    p = s2.resolve((1.4, 1.9), FLOAT)
    one = cd.tensor_field(s2, 0, {(): 1})
    W = cd.vector_field(s2, {0: "theta", 1: "phi^2"})
    Wv = W.value(p)
    oy = cd.covariant_product_value(one, W, p)
    assert all(abs(oy[kk] - Wv[kk]) < 1e-13 for kk in Wv)
    X = cd.vector_field(s2, {0: "1", 1: "theta"})
    V = cd.vector_field(s2, {0: "phi", 1: "1"})
    xy = cd.covariant_product(X, V, p, out_order=2)
    l = cd.covariant_product(cd.mixed_tensor_fields(s2, xy, p, 2), W, p, 0)
    yz = cd.covariant_product(V, W, p, out_order=1)
    r = cd.covariant_product(X, cd.mixed_tensor_fields(s2, yz, p, 1), p, 0)
    lv = {kk: j.value for kk, j in l.items()}
    rv = {kk: j.value for kk, j in r.items()}
    keys = set(lv) | set(rv)
    assert max(abs(lv.get(kk, 0) - rv.get(kk, 0)) for kk in keys) < 1e-7


def test_exterior_derivative_flat_example(flat2):
    # omega = x dy on flat R^2: d omega = dx ^ dy
    om = cd.form_field(flat2, 1, {(1,): "x0"})
    d = cd.exterior_derivative(om, flat2.resolve((0.3, 0.7), FLOAT), 0)
    assert abs(d.comps[(0, 1)].value - 1.0) < 1e-14
    assert abs(d.comps[(1, 0)].value + 1.0) < 1e-14


def test_exterior_derivative_d_squared(s2):
    p = s2.resolve((1.6, 3.0), FLOAT)
    f = cd.scalar_field(s2, "theta^2*phi").comp_jet((), p, 2)
    df = cd.jet_field(s2, (cd.FD,), {(i,): f.derivative(i) for i in range(2)}, p, 1)
    ddf = cd.exterior_derivative(df, p, 0)
    assert max((abs(j.value) for j in ddf.comps.values()), default=0) < 1e-9


def test_exterior_derivative_connection_independent(s2):
    from atomcur.suites import _perturbed_chart
    p = s2.resolve((1.2, 2.8), FLOAT)
    om = cd.form_field(s2, 1, {(0,): "phi^2", (1,): "theta"})
    pert = _perturbed_chart(s2)
    om2 = cd.form_field(pert, 1, {(0,): "phi^2", (1,): "theta"})
    d1 = cd.exterior_derivative(om, p, 0)
    d2 = cd.exterior_derivative(om2, p, 0)
    for idx in set(d1.comps) | set(d2.comps):
        a = d1.comps.get(idx)
        b = d2.comps.get(idx)
        assert abs((a.value if a else 0) - (b.value if b else 0)) < 1e-8


def test_perturbed_chart_follows_its_chart():
    # batches of charts are created and dropped in turn, so CPython hands
    # new charts the ids of freed ones; each perturbation must still be of
    # the chart passed in
    from atomcur.connection import ChartConnection
    from atomcur.suites import _perturbed_chart
    for n in (2, 3, 2, 3):
        charts = [ChartConnection.flat(n) for _ in range(30)]
        for b in charts:
            pert = _perturbed_chart(b)
            assert pert.n == b.n
            assert pert.names == b.names
        del charts, b, pert


def test_leibniz_rule(s2):
    rng = random.Random(31)
    p = s2.resolve((1.0, 1.5), FLOAT)
    a = cd.vector_field(s2, {0: "phi", 1: "theta"})
    b = cd.vector_field(s2, {0: "1", 1: "theta*phi"})
    prod = cd.product_field(a, b)
    for v in [(0,), (0, 1), (1, 0, 1)]:
        lhs = cd.nabla_value(prod, v, p)
        rhs = {}
        for (v1, v2) in tensor_coproduct(v):
            av = cd.nabla_value(a, v1, p)
            bv = cd.nabla_value(b, v2, p)
            for ia, ca in av.items():
                for ib, cb in bv.items():
                    rhs[ia + ib] = rhs.get(ia + ib, 0) + ca * cb
        keys = set(lhs) | set(rhs)
        assert max(abs(lhs.get(kk, 0) - rhs.get(kk, 0)) for kk in keys) < 1e-8


def test_tensoriality_in_word_slots(s2):
    """Scaling a word slot scales the value linearly: the derivative with a
    non-coordinate slot argument is the coefficient combination of frame
    derivatives."""
    p = s2.resolve((1.2, 1.7), FLOAT)
    om = cd.form_field(s2, 1, {(0,): "theta*phi", (1,): "phi^2"})
    z = {(0,): 2.5, (1,): -1.25}
    got, den = cd.nabla_mixed(om, (1,), (z, 1), p)
    assert den == 1
    want = {}
    for (i,), c in z.items():
        for idx, v in cd.nabla_value(om, (1, i), p).items():
            want[idx] = want.get(idx, 0) + c * v
    keys = set(got) | set(want)
    assert max(abs(got.get(kk, 0) - want.get(kk, 0)) for kk in keys) < 1e-12


def test_curvature_with_derivative_orders(s2, flat2, poly2, poly2_point):
    def nabla_R(chart, which, S, p):
        field = cd.curvature_field(chart, which, p, len(S))
        return {idx: j.value for idx, j in cd.nabla_word_jets(field, S, p, 0).items()}

    # the round sphere is locally symmetric: nabla R vanishes identically
    p = s2.resolve((1.1, 0.8), FLOAT)
    assert all(abs(v) < 1e-12 for v in nabla_R(s2, "base", (0,), p).values())
    # a generic polynomial metric has nonvanishing nabla R, base and fiber
    assert any(v != 0 for v in nabla_R(poly2, "base", (0,), poly2_point).values())
    assert any(v != 0 for v in nabla_R(poly2, "fiber", (0, 1), poly2_point).values())
    p = flat2.resolve((0.2, 0.3), FLOAT)
    for S in [(0,), (1,)] + list(itertools.product(range(2), repeat=2)):
        assert all(v == 0 for v in nabla_R(flat2, "base", S, p).values())
    # connection.curvature is the dense order-0 reading of the same jets, for
    # the base and the fiber, on a tangent and on an explicit fiber
    from atomcur.connection import ChartConnection, curvature
    fibered = ChartConnection.from_metric(
        poly2.names, poly2.metric, poly2.domain,
        fiber_gamma=[[["x", "y/2"], ["0", "x*y"]], [["y", "0"], ["x^2", "1"]]])
    for chart in (poly2, fibered):
        cv = curvature(chart, poly2_point)
        for which, dense in (("base", cv.base), ("fiber", cv.fiber)):
            dim = chart.d if which == "fiber" else chart.n
            jets = cd.curvature_field(chart, which, poly2_point, 0).comps
            assert jets and len(dense) == chart.n ** 2 * dim ** 2
            assert dense == {key: jets[key].value if key in jets else 0 for key in dense}
    assert cv.fiber != cv.base


def test_warning_case_nonzero(s2):
    """The order-3 scalar commutator equals minus the curvature contraction
    and is nonzero somewhere on the sphere."""
    from atomcur.connection import curvature
    p = s2.resolve((1.1, 0.8), FLOAT)
    cv = curvature(s2, p)
    f = cd.scalar_field(s2, "theta^2*phi + phi^2")
    saw_nonzero = False
    for (i, j, k) in itertools.product(range(2), repeat=3):
        lhs = cd.nabla_value(f, (i, j, k), p).get((), 0) \
            - cd.nabla_value(f, (j, i, k), p).get((), 0)
        rhs = -sum(cv.base[(l, k, i, j)] * cd.nabla_value(f, (l,), p).get((), 0)
                   for l in range(2))
        assert abs(lhs - rhs) < 1e-8
        if abs(lhs) > 1e-6:
            saw_nonzero = True
    assert saw_nonzero


def test_nabla_value_memo_is_per_field_and_point(s2):
    f = cd.vector_field(s2, {0: "sin(theta)", 1: "phi*theta"})
    p = s2.resolve((1.1, 0.8), FLOAT)
    first = cd.nabla_value(f, (0, 1), p)
    assert cd.nabla_value(f, [0, 1], as_point([1.1, 0.8], FLOAT)) is first
    assert cd.nabla_value(f, (1, 0), p) is not first
    assert cd.nabla_value(f, (0, 1), s2.resolve((1.2, 0.8), FLOAT)) != first
    g = cd.vector_field(s2, {0: "sin(theta)", 1: "phi*theta"})
    assert cd.nabla_value(g, (0, 1), p) == first
    # the memo is filled only by a successful evaluation
    for _ in range(2):
        with pytest.raises(ValueError):
            cd.nabla_value(f, (0,), as_point((5.0, 0.8), FLOAT))


def test_nabla_computed_once_per_key_in_operator_suite(tmp_path, monkeypatch):
    """Every (field, word, point) nonzero value is derived once by
    `_nabla_num`, the memo behind `nabla_value`: each miss checks the point
    once before it derives the values, and only a miss does."""
    import sys
    from pathlib import Path

    from atomcur import cli
    from atomcur.connection import ChartConnection
    seen, fields = {}, []
    inner = ChartConnection.check_point

    def counting(chart, p):
        frame = sys._getframe(1)
        if frame.f_code is cd._nabla_num.__code__:
            field = frame.f_locals["field"]
            fields.append(field)  # keeps ids unique for the whole run
            key = (id(field), frame.f_locals["I"], p)
            seen[key] = seen.get(key, 0) + 1
        return inner(chart, p)

    monkeypatch.setattr(ChartConnection, "check_point", counting)
    spec = Path(__file__).resolve().parent.parent / "src" / "atomcur" / "specs" / "hyperbolic.json"
    code = cli.main(["run", str(spec), "--suite", "operators", "--mode", "float",
                     "--trials", "1", "--seed", "0", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert seen
    assert max(seen.values()) == 1


def test_expression_jet_memo_is_shared_and_dies_with_its_node(s2, monkeypatch):
    """A second field holding the same expression at the same probe reads the
    node's jet memo, and the memo does not keep its node alive."""
    import gc
    import weakref
    e = ex.parse("sin(theta)*phi + 1/phi", s2.names)
    p = as_point((1.1, 0.8), FLOAT)
    orders = []
    inner = ex.eval_jet

    def counting(e, point, order):
        orders.append(order)
        return inner(e, point, order)

    monkeypatch.setattr(ex, "eval_jet", counting)
    first = cd.scalar_field(s2, e)
    first.comp_jet((), p, 3)
    assert orders == [3]
    second = cd.scalar_field(s2, e)
    for order in (3, 2, 0):
        jet = second.comp_jet((), p, order)
        assert bytes(jet.coeffs) == bytes(inner(e, p, order).coeffs)
    # an equal point built separately finds the entry the probe point made
    second.comp_jet((), as_point((1.1, 0.8), FLOAT), 1)
    assert orders == [3]
    node = weakref.ref(e)
    del e, first, second, jet
    gc.collect()
    assert node() is None


def test_antisymmetrized_components_share_one_negation(flat3):
    f = cd.form_field(flat3, 2, {(0, 1): "x0*x1", (1, 2): "x2"})
    assert f.comps[(1, 0)] is not f.comps[(0, 1)]
    assert f.comps[(2, 1)] is not f.comps[(1, 2)]
    g = cd.form_field(flat3, 3, {(0, 1, 2): "x0 + x1"})
    odd = [K for K in itertools.permutations((0, 1, 2)) if g.comps[K] is not g.comps[(0, 1, 2)]]
    assert len(odd) == 3
    assert all(g.comps[K] is g.comps[odd[0]] for K in odd)
    # jet components (the form-level Hodge star) go through the same expansion
    jet = ex.eval_jet(ex.parse("x0*x1 + 2", flat3.names), as_point((0.5, 0.25, 1.0), FLOAT), 1)
    full = cd.antisymmetrize({(0, 1, 2): jet}, Jet.__neg__)
    odd = [K for K in full if full[K] is not jet]
    assert sorted(odd) == [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    assert all(full[K] is full[odd[0]] for K in odd)
    assert full[(1, 0, 2)].coeffs == (-jet).coeffs


def _coefficients(jets: dict, n, order):
    """Every coefficient of every component whose jet is not zero."""
    from atomcur.jets import JetSpace
    space = JetSpace(n, order)
    return {idx: [jet.coeff(T) for T in space.index_of] for idx, jet in jets.items()
            if jet}


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_lower_order_nabla_jets_are_truncations(poly2, poly2_point, mode):
    """After a word's jets at a high order, a lower order is answered by
    truncation, and equals the jets a fresh field derives at that order,
    coefficient for coefficient (bitwise in float mode)."""
    p = poly2.resolve(poly2_point, mode)

    def fields():
        return [cd.vector_field(poly2, {0: "x*y + 1", 1: "x^3 - y"}),
                cd.form_field(poly2, 2, {(0, 1): "1 + x*y^2"}),
                cd.scalar_field(poly2, "x^2*y/(1 + y^2)")]

    held = fields()
    words = [(), (0,), (1, 0), (0, 1, 1)]
    for f in held:
        for I in words:
            cd.nabla_word_jets(f, I, p, 4)
    for low in (0, 1, 2):
        for f, g in zip(held, fields()):
            for I in words:
                got = cd.nabla_word_jets(f, I, p, low)
                want = cd.nabla_word_jets(g, I, p, low)
                a = _coefficients(got, poly2.n, low)
                b = _coefficients(want, poly2.n, low)
                assert {k: list(map(repr, v)) for k, v in a.items()} == \
                    {k: list(map(repr, v)) for k, v in b.items()}, (I, low)
                assert a


def test_float_and_rational_points_never_share_a_cache_entry(poly2):
    """At equal coordinates a float and a rational point are two keys of every
    per-point cache: the expression jet memo, the field memos and the chart
    memo each answer a point in its own mode, whichever mode came first."""
    from atomcur.connection import ChartConnection
    chart = ChartConnection.from_metric(poly2.names, poly2.metric, poly2.domain)
    coords = (Fraction(1, 2), Fraction(1, 4))
    pq, pf = chart.resolve(coords, RATIONAL), chart.resolve(coords, FLOAT)
    assert tuple(pq) == tuple(pf) and hash(tuple(pq)) == hash(tuple(pf))
    assert pq != pf and pq == as_point(coords, RATIONAL)
    e = ex.parse("x^2*y + 1/(1 + y^2)", chart.names)
    field = cd.scalar_field(chart, e)
    for p, kind in [(pq, Fraction), (pf, float)] * 2:
        assert type(ex.jet_at(e, p, 2).value) is kind
        assert field.comp_jet((), p, 1).mode == p.mode
        values = cd.nabla_value(field, (0, 1), p)
        assert values and all(type(v) is kind for v in values.values())
        assert all(jet.mode == p.mode for jet in chart.gamma1_jet(0, 1, p, 1))
        assert chart._memo(p, ("mode",), lambda: p.mode) == p.mode


def _random_fields(chart, seed):
    """A vector, a 2-tensor, a 1-form, a 2-vector and a scalar field with
    random polynomial components, the same for every call with one seed."""
    from atomcur import suites as su
    rng = random.Random(seed)
    names, n, d = chart.names, chart.n, chart.d

    def poly():
        return su.rand_poly_tree(rng, names)

    return [cd.vector_field(chart, {i: poly() for i in range(n)}),
            cd.tensor_field(chart, 2, {w: poly() for w in itertools.product(range(n), repeat=2)}),
            cd.form_field(chart, 1, {(a,): poly() for a in range(d)}),
            cd.kvector_field(chart, 2, {(0, 1): poly()}),
            cd.scalar_field(chart, poly())]


def _same_values(got: dict, want: dict):
    """Equal keys in equal order, equal values (zero-valued keys included)."""
    assert list(got) == list(want)
    assert all(got[k] == want[k] and type(got[k]) is type(want[k]) for k in want)


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("history", ["fresh", "higher", "longer"])
def test_word_values_equal_order0_jets(poly2, poly2_point, mode, history):
    """The values of `nabla_value` are, under every memo history, the values
    of the order-0 jets in their key order, all of them nonzero; after a
    higher order of the word (asked for directly, or inside a longer word)
    both are read from that jet, and they equal a fresh derivation."""
    from atomcur.connection import dual_chart
    p = poly2.resolve(poly2_point, mode)
    words = [(0,), (1, 0), (0, 1, 1)]
    for chart in (poly2, dual_chart(poly2)):
        for seed in range(3):
            for I in words:
                fresh = [cd.nabla_value(f, I, p) for f in _random_fields(chart, seed)]
                for f, want in zip(_random_fields(chart, seed), fresh):
                    if history == "higher":
                        cd.nabla_word_jets(f, I, p, 2)
                    elif history == "longer":
                        cd.nabla_value(f, (1,) + I, p)
                    values = cd.nabla_value(f, I, p)
                    jets = cd.nabla_word_jets(f, I, p, 0)
                    assert all(jet.space.order == 0 for jet in jets.values())
                    _same_values(values, {idx: jet.value for idx, jet in jets.items()})
                    # a second read derives nothing: the stored pair stays, and
                    # float values are its dict itself
                    held = f._nabla_values[p][I]
                    again = cd.nabla_value(f, I, p)
                    assert f._nabla_values[p][I] is held and again == values
                    if mode == "float":
                        assert again is values
                    assert all(v != 0 for v in values.values())
                    if history == "fresh":
                        _same_values(values, want)
                    else:
                        _same_values(values, {k: want[k] for k in values})
                        assert values == want


def test_word_values_drop_zero_valued_components(flat2):
    """A word whose components all vanish at p keeps no key in its values or
    in its order-0 jets, whether they are derived on numbers or read from
    held jets, which do key both components."""
    for p in (flat2.resolve((0.5, 0.25), FLOAT), flat2.resolve((1, 2), RATIONAL)):
        f = cd.vector_field(flat2, {0: "1", 1: "x1"})
        assert cd.nabla_value(f, (0,), p) == {}
        assert cd.nabla_word_jets(f, (0,), p, 0) == {}
        g = cd.vector_field(flat2, {0: "1", 1: "x1"})
        assert list(cd.nabla_word_jets(g, (0,), p, 1)) == [(0,), (1,)]
        assert cd.nabla_value(g, (0,), p) == {}
        assert cd.nabla_word_jets(g, (0,), p, 0) == {}


def test_nabla_memo_holds_one_form_per_word(poly2, poly2_point):
    """A word asked for at orders 3, 1, 2 and 0 and for its values is held
    once: one (3, jets) entry and one values dict.  An expression node asked
    for at orders 3, 1 and 0 holds one order-3 jet."""
    p = poly2.resolve(poly2_point, FLOAT)

    def field():
        return cd.vector_field(poly2, {0: "x*y^2 + 1", 1: "y^3 - x"})

    f, I = field(), (1, 0)
    top = cd.nabla_word_jets(f, I, p, 3)
    for order in (1, 2, 0):
        jets = cd.nabla_word_jets(f, I, p, order)
        want = {idx: jet.truncate(order) for idx, jet in top.items()}
        if not order:
            want = {idx: jet for idx, jet in want.items() if jet.value != 0}
        assert {idx: list(jet.coeffs) for idx, jet in jets.items()} == \
            {idx: list(jet.coeffs) for idx, jet in want.items()}
    values = cd.nabla_value(f, I, p)
    assert f._nabla_cache[p][I] == (3, top)
    assert f._nabla_values[p] == {I: (values, 1)}
    assert all(len(w) < len(I) for w in f._nabla_cache[p] if w != I)

    e = ex.parse("x*y^2 + 1", poly2.names)
    held = ex.jet_at(e, p, 3)
    for order in (1, 0):
        assert list(ex.jet_at(e, p, order).coeffs) == list(held.truncate(order).coeffs)
    assert e._jets == {p: held}


def test_nabla_makes_no_order0_jet_product(poly2, monkeypatch):
    """nabla on a fresh field runs its top level on numbers: no product and
    no fused add on an order-0 jet space (the chart's symbols, shared by
    every field, are derived by a twin field first)."""
    p = poly2.resolve((0.25, -0.5), FLOAT)
    words = [(0,), (1, 0), (0, 1, 1), (1, 1, 0)]
    for f in _random_fields(poly2, 7):
        for I in words:
            cd.nabla_value(f, I, p)
    seen = []
    mul, add = Jet.__mul__, Jet.add_product

    def counting_mul(a, b):
        seen.append(a.space.order)
        return mul(a, b)

    def counting_add(c, a, b, sign=1):
        seen.append(c.space.order)
        return add(c, a, b, sign)

    monkeypatch.setattr(Jet, "__mul__", counting_mul)
    monkeypatch.setattr(Jet, "add_product", counting_add)
    for f in _random_fields(poly2, 7):
        for I in words:
            cd.nabla_value(f, I, p)
    assert seen and 0 not in seen
