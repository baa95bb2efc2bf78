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
    p = (0.5, 0.25)
    got = cd.nabla_value(f, (0, 1), p).get((), 0)
    want = ex.eval_jet(f.comps[()], p, 2).partial((1, 1))
    assert abs(got - want) < 1e-14


def test_monomial_lemma_exact(poly2, poly2_point):
    """nabla_{e_S}((e-p)^T/T! alpha) at p equals delta_{<S>,T} alpha(p)."""
    p = poly2_point
    alpha = cd.vector_field(poly2, {0: "1 + x*y", 1: "x - y^2"})
    aval = alpha.value(p, RATIONAL)
    for T in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]:
        mono = ex.monomial_form(p, T, poly2.names)
        fld = cd.Field(poly2, (cd.TU,),
                       {idx: ex.ex_mul(mono, c) for idx, c in alpha.comps.items()})
        for slen in range(sum(T) + 1):
            for S in itertools.product(range(2), repeat=slen):
                got = cd.nabla_value(fld, S, p, RATIONAL)
                count = (S.count(0), S.count(1))
                want = aval if count == T else {}
                keys = set(got) | set(want)
                assert all(got.get(k, 0) == want.get(k, 0) for k in keys), (T, S)


def test_third_order_expansion_identity(s2):
    """nabla^3_{X,Y,Z} = nabla_X o nabla^2_{Y,Z} - nabla^2_{hat X Y, Z}
    - nabla^2_{Y, hat X Z} as an operator identity on random fields."""
    rng = random.Random(7)
    p = (1.2, 0.9)
    for _ in range(6):
        om = cd.form_field(s2, 1, {(0,): f"{rng.randint(-2,2)}*theta^2 + phi",
                                   (1,): f"theta*phi + {rng.randint(-2,2)}"})
        i, j, k = (rng.randrange(2) for _ in range(3))
        lhs = cd.nabla_value(om, (i, j, k), p)
        inner = cd.nabla_word_jets(om, (j, k), p, 1, "float")
        inner_field = cd.jet_field(s2, om.slots, inner, p, 1, "float")
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
    p = (Fraction(1, 2), Fraction(1, 3))
    assert cd.nabla_compose_check((0, 1), (1,), om, p, RATIONAL) == 0
    # empty w reduces to the identity composition
    assert cd.nabla_compose_check((0,), (), om, p, RATIONAL) == 0


def test_compose_check_curved(s2, hyperbolic):
    rng = random.Random(13)
    for chart, p in [(s2, (1.1, 0.8)), (hyperbolic, (0.4, 1.3))]:
        om = cd.form_field(chart, 1,
                           {(0,): f"{chart.names[0]}^2", (1,): f"{chart.names[1]}"})
        for _ in range(8):
            v = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            w = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            assert cd.nabla_compose_check(v, w, om, p) < 1e-7


def test_fundamental_commutation(flat2, s2, hyperbolic):
    om = cd.form_field(flat2, 1, {(0,): "x0^2*x1", (1,): "x1^3"})
    p = (Fraction(1, 4), Fraction(-1, 2))
    assert cd.fundamental_commutation_check((), (), 0, 1, om, p, RATIONAL) == 0
    assert cd.fundamental_commutation_check((0,), (1,), 0, 1, om, p, RATIONAL) == 0
    rng = random.Random(23)
    for chart, p in [(s2, (1.3, 1.1)), (hyperbolic, (-0.2, 0.9))]:
        om = cd.form_field(chart, 1,
                           {(0,): f"{chart.names[0]}*{chart.names[1]}", (1,): "1"})
        for _ in range(6):
            u = tuple(rng.randrange(2) for _ in range(rng.randint(0, 1)))
            v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 1)))
            assert cd.fundamental_commutation_check(u, v, 0, 1, om, p) < 1e-7


def test_zero_order_commutator_is_curvature(s2):
    """|u| = 0 case: nabla^2 commutator = R^E o nabla_v - nabla_{R^TM v}."""
    p = (1.5, 2.3)
    om = cd.form_field(s2, 1, {(0,): "theta^2*phi", (1,): "phi^2"})
    a, b = 0, 1
    v = (0,)
    lhs = {}
    for word, sgn in [((a, b) + v, 1), ((b, a) + v, -1)]:
        for idx, c in cd.nabla_value(om, word, p).items():
            lhs[idx] = lhs.get(idx, 0) + sgn * c
    base_end = cd.curvature_endomorphism(s2, (), {(a, b): 1}, p)
    fiber_end = cd.curvature_endomorphism(s2, (), {(a, b): 1}, p, fiber=True)
    inner = cd.nabla_value(om, v, p)
    rhs = cd.apply_endomorphism_derivation(base_end, fiber_end, inner, om.slots)
    rv = cd.apply_endomorphism_derivation(base_end, None, {v: 1}, (cd.TU,))
    for word, c in rv.items():
        for idx, c2 in cd.nabla_value(om, word, p).items():
            rhs[idx] = rhs.get(idx, 0) - c * c2
    keys = set(lhs) | set(rhs)
    assert max(abs(lhs.get(kk, 0) - rhs.get(kk, 0)) for kk in keys) < 1e-8


def test_covariant_product_bracket(s2):
    rng = random.Random(3)
    p = (1.1, 0.8)
    V = cd.vector_field(s2, {0: "phi", 1: "theta^2"})
    W = cd.vector_field(s2, {0: "theta*phi", 1: "1 + phi"})
    vw = cd.covariant_product_value(V, W, p)
    wv = cd.covariant_product_value(W, V, p)
    lhs = dict(vw)
    for kk, c in wv.items():
        lhs[kk] = lhs.get(kk, 0) - c
    Vv, Wv = V.value(p, "float"), W.value(p, "float")
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
    p = (1.4, 1.9)
    one = cd.tensor_field(s2, 0, {(): 1})
    W = cd.vector_field(s2, {0: "theta", 1: "phi^2"})
    Wv = W.value(p, "float")
    oy = cd.covariant_product_value(one, W, p)
    assert all(abs(oy[kk] - Wv[kk]) < 1e-13 for kk in Wv)
    X = cd.vector_field(s2, {0: "1", 1: "theta"})
    V = cd.vector_field(s2, {0: "phi", 1: "1"})
    xy = cd.covariant_product(X, V, p, "float", out_order=2)
    l = cd.covariant_product(cd.mixed_tensor_fields(s2, xy, p, 2, "float"), W, p, "float", 0)
    yz = cd.covariant_product(V, W, p, "float", out_order=1)
    r = cd.covariant_product(X, cd.mixed_tensor_fields(s2, yz, p, 1, "float"), p, "float", 0)
    lv = {kk: j.value for kk, j in l.items()}
    rv = {kk: j.value for kk, j in r.items()}
    keys = set(lv) | set(rv)
    assert max(abs(lv.get(kk, 0) - rv.get(kk, 0)) for kk in keys) < 1e-7


def test_exterior_derivative_flat_example(flat2):
    # omega = x dy on flat R^2: d omega = dx ^ dy
    om = cd.form_field(flat2, 1, {(1,): "x0"})
    d = cd.exterior_derivative(om, (0.3, 0.7), "float", 0)
    assert abs(d.comps[(0, 1)].value - 1.0) < 1e-14
    assert abs(d.comps[(1, 0)].value + 1.0) < 1e-14


def test_exterior_derivative_d_squared(s2):
    p = (1.6, 3.0)
    f = cd.scalar_field(s2, "theta^2*phi").comp_jet((), p, 2, "float")
    df = cd.jet_field(s2, (cd.FD,), {(i,): f.derivative(i) for i in range(2)}, p, 1, "float")
    ddf = cd.exterior_derivative(df, p, "float", 0)
    assert max((abs(j.value) for j in ddf.comps.values()), default=0) < 1e-9


def test_exterior_derivative_connection_independent(s2):
    from atomcur.suites import _perturbed_chart
    p = (1.2, 2.8)
    om = cd.form_field(s2, 1, {(0,): "phi^2", (1,): "theta"})
    pert = _perturbed_chart(s2)
    om2 = cd.form_field(pert, 1, {(0,): "phi^2", (1,): "theta"})
    d1 = cd.exterior_derivative(om, p, "float", 0)
    d2 = cd.exterior_derivative(om2, p, "float", 0)
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
    p = (1.0, 1.5)
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
    p = (1.2, 1.7)
    om = cd.form_field(s2, 1, {(0,): "theta*phi", (1,): "phi^2"})
    z = {(0,): 2.5, (1,): -1.25}
    got = cd.nabla_mixed(om, (1,), z, p)
    want = {}
    for (i,), c in z.items():
        for idx, v in cd.nabla_value(om, (1, i), p).items():
            want[idx] = want.get(idx, 0) + c * v
    keys = set(got) | set(want)
    assert max(abs(got.get(kk, 0) - want.get(kk, 0)) for kk in keys) < 1e-12


def test_curvature_with_derivative_orders(s2, flat2, poly2, poly2_point):
    def nabla_R(chart, which, S, p, mode=FLOAT):
        field = cd.curvature_field(chart, which, p, mode, len(S))
        return {idx: j.value for idx, j in cd.nabla_word_jets(field, S, p, 0, mode).items()}

    # the round sphere is locally symmetric: nabla R vanishes identically
    assert all(abs(v) < 1e-12 for v in nabla_R(s2, "base", (0,), (1.1, 0.8)).values())
    # a generic polynomial metric has nonvanishing nabla R, base and fiber
    assert any(v != 0 for v in nabla_R(poly2, "base", (0,), poly2_point, RATIONAL).values())
    assert any(v != 0 for v in nabla_R(poly2, "fiber", (0, 1), poly2_point, RATIONAL).values())
    for S in [(0,), (1,)] + list(itertools.product(range(2), repeat=2)):
        assert all(v == 0 for v in nabla_R(flat2, "base", S, (0.2, 0.3)).values())
    # connection.curvature is the dense order-0 reading of the same jets, for
    # the base and the fiber, on a tangent and on an explicit fiber
    from atomcur.connection import ChartConnection, curvature
    fibered = ChartConnection.from_metric(
        poly2.names, poly2.metric, poly2.domain,
        fiber_gamma=[[["x", "y/2"], ["0", "x*y"]], [["y", "0"], ["x^2", "1"]]])
    for chart in (poly2, fibered):
        cv = curvature(chart, poly2_point, RATIONAL)
        for which, dense in (("base", cv.base), ("fiber", cv.fiber)):
            dim = chart.d if which == "fiber" else chart.n
            jets = cd.curvature_field(chart, which, poly2_point, RATIONAL, 0).comps
            assert jets and len(dense) == chart.n ** 2 * dim ** 2
            assert dense == {key: jets[key].value if key in jets else 0 for key in dense}
    assert cv.fiber != cv.base


def test_warning_case_nonzero(s2):
    """The order-3 scalar commutator equals minus the curvature contraction
    and is nonzero somewhere on the sphere."""
    from atomcur.connection import curvature
    p = (1.1, 0.8)
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
    p = (1.1, 0.8)
    first = cd.nabla_value(f, (0, 1), p)
    assert cd.nabla_value(f, [0, 1], list(p)) is first
    assert cd.nabla_value(f, (1, 0), p) is not first
    assert cd.nabla_value(f, (0, 1), (1.2, 0.8)) != first
    g = cd.vector_field(s2, {0: "sin(theta)", 1: "phi*theta"})
    assert cd.nabla_value(g, (0, 1), p) == first
    # the memo is filled only by a successful evaluation
    for _ in range(2):
        with pytest.raises(ValueError):
            cd.nabla_value(f, (0,), (5.0, 0.8))


def test_nabla_computed_once_per_key_in_operator_suite(tmp_path, monkeypatch):
    """Every (field, word, point, mode) value is derived once by `nabla`."""
    from pathlib import Path

    from atomcur import cli
    seen, fields = {}, []
    inner = cd.nabla

    def counting(field, I, p, mode="float"):
        fields.append(field)  # keeps ids unique for the whole run
        key = (id(field), tuple(I), tuple(p), mode)
        seen[key] = seen.get(key, 0) + 1
        return inner(field, I, p, mode)

    monkeypatch.setattr(cd, "nabla", counting)
    spec = Path(__file__).resolve().parent.parent / "src" / "atomcur" / "specs" / "hyperbolic.json"
    code = cli.main(["run", str(spec), "--suite", "operators", "--mode", "float",
                     "--trials", "1", "--seed", "0", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert seen
    assert max(seen.values()) == 1


def test_nabla_value_memo_under_threads(hyperbolic):
    """Threads that share a field's memo read the same values as a serial run."""
    import sys
    import threading
    words = [w for ell in range(3) for w in itertools.product(range(2), repeat=ell)]
    p = (0.3, 1.1)

    def make():
        return cd.vector_field(hyperbolic, {0: "x*y", 1: "y^2 - x"})

    ref = make()
    want = {w: dict(cd.nabla_value(ref, w, p)) for w in words}
    shared = make()
    got, errors = [None] * 6, []

    def work(t):
        # odd threads walk the words backwards, so memo misses interleave
        order = words if t % 2 == 0 else words[::-1]
        try:
            got[t] = {w: cd.nabla_value(shared, w, p) for w in order}
        except Exception as exc:  # reported below with the thread's index
            errors.append((t, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for vals in got:
        assert vals == want


def test_expression_jet_memo_is_shared_and_dies_with_its_node(s2, monkeypatch):
    """A second field holding the same expression at the same probe reads the
    node's jet memo, and the memo does not keep its node alive."""
    import gc
    import weakref
    e = ex.parse("sin(theta)*phi + 1/phi", s2.names)
    p = as_point((1.1, 0.8), FLOAT)
    orders = []
    inner = ex.eval_jet

    def counting(e, point, order, mode=FLOAT):
        orders.append(order)
        return inner(e, point, order, mode)

    monkeypatch.setattr(ex, "eval_jet", counting)
    first = cd.scalar_field(s2, e)
    first.comp_jet((), p, 3, FLOAT)
    assert orders == [3]
    second = cd.scalar_field(s2, e)
    for order in (3, 2, 0):
        jet = second.comp_jet((), p, order, FLOAT)
        assert bytes(jet.coeffs) == bytes(inner(e, p, order).coeffs)
    # a plain tuple finds the entry the probe point made
    second.comp_jet((), (1.1, 0.8), 1, FLOAT)
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
    jet = ex.eval_jet(ex.parse("x0*x1 + 2", flat3.names), (0.5, 0.25, 1.0), 1)
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
            if not jet.is_zero()}


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_lower_order_nabla_jets_are_truncations(poly2, poly2_point, mode):
    """After a word's jets at a high order, a lower order is answered by
    truncation, and equals the jets a fresh field derives at that order,
    coefficient for coefficient (bitwise in float mode)."""
    p = poly2_point if mode == "rational" else tuple(float(x) for x in poly2_point)

    def fields():
        return [cd.vector_field(poly2, {0: "x*y + 1", 1: "x^3 - y"}),
                cd.form_field(poly2, 2, {(0, 1): "1 + x*y^2"}),
                cd.scalar_field(poly2, "x^2*y/(1 + y^2)")]

    held = fields()
    words = [(), (0,), (1, 0), (0, 1, 1)]
    for f in held:
        for I in words:
            cd.nabla_word_jets(f, I, p, 4, mode)
    for low in (0, 1, 2):
        for f, g in zip(held, fields()):
            for I in words:
                got = cd.nabla_word_jets(f, I, p, low, mode)
                want = cd.nabla_word_jets(g, I, p, low, mode)
                a = _coefficients(got, poly2.n, low)
                b = _coefficients(want, poly2.n, low)
                assert {k: list(map(repr, v)) for k, v in a.items()} == \
                    {k: list(map(repr, v)) for k, v in b.items()}, (I, low)
                assert a
