"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one pass/fail line; the whole module is the exit
criterion for the build.  Scale: n <= 3, d <= 3, r <= 3, k <= 2.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from atomcur import atomic as at
from atomcur import covderiv as cd
from atomcur import expr as ex
from atomcur import operators as op
from atomcur import suites as su
from atomcur.connection import ChartConnection, curvature
from atomcur.jets import FLOAT, RATIONAL
from atomcur.multialg import all_words, anti_indices, basis_element, row_reduce


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


@pytest.fixture(scope="module")
def charts():
    return {
        "flat1": ChartConnection.flat(1),
        "flat2": ChartConnection.flat(2),
        "flat3": ChartConnection.flat(3),
        "s2": ChartConnection.from_metric(
            ["theta", "phi"], [["1", "0"], ["0", "sin(theta)^2"]],
            [(0.6, 2.5), (0.2, 6.0)], name="round-s2"),
        "hyp": ChartConnection.from_metric(
            ["x", "y"], [["1/y^2", "0"], ["0", "1/y^2"]],
            [(-2.0, 2.0), (0.4, 3.0)], name="hyperbolic"),
        "poly2": ChartConnection.from_metric(
            ["x", "y"], [["1 + x^2", "x*y/2"], ["x*y/2", "1 + y^2"]],
            [(-1.0, 1.0), (-1.0, 1.0)], name="poly2"),
        "poly3": ChartConnection.from_metric(
            ["x", "y", "z"],
            [["1 + x^2", "x*y/4", "0"], ["x*y/4", "1 + y^2", "y*z/4"],
             ["0", "y*z/4", "1 + z^2"]],
            [(-1.0, 1.0)] * 3, name="poly3"),
    }


def test_criterion_1_flat_exactness(charts):
    """Flat rational mode: kernel annihilation, composition, Leibniz,
    shuffle, coproduct duality, and boundary residuals exactly zero on
    flat R^n for n = 1..3, under 30 s."""
    t0 = time.time()
    named = ["pbw", "composition", "leibniz", "coalgebra", "boundary"]
    extra = ["fundamental-commutation", "covariant-product", "f-action",
             "exterior-derivative", "curvature-quotient"]
    worst = 0
    count = 0
    plans = [("flat1", (Fraction(1, 4),), 1, named + extra),
             ("flat2", (Fraction(1, 4), Fraction(-1, 2)), 1, named + extra),
             ("flat3", (Fraction(1, 4), Fraction(-1, 2), Fraction(1, 8)), 1, named)]
    for name, p, k, suites in plans:
        ctx = su.SuiteContext(chart=charts[name], mode=RATIONAL, seed=0, r=2, k=k,
                              probes=[p], trials=3)
        for suite in suites:
            for res in su.run_suite(ctx, suite):
                if res.skipped:
                    continue
                count += 1
                worst = max(worst, abs(res.residual))
    wall = time.time() - t0
    _report(1, "flat exactness (rational)",
            worst == 0 and wall < 30 and count >= 90,
            f"worst residual {worst}, {count} checks, {wall:.1f}s")


def test_criterion_2_composition(charts):
    """Composition formula on curved charts: 20 trials each, < 1e-7, < 60 s."""
    t0 = time.time()
    rng = random.Random(2026)
    worst = 0
    for name, p in [("s2", (1.1, 0.8)), ("hyp", (0.3, 1.2))]:
        chart = charts[name]
        p = chart.resolve(p, FLOAT)
        om = cd.form_field(chart, 1, {(0,): f"{chart.names[0]}^2",
                                      (1,): f"{chart.names[0]}*{chart.names[1]}"})
        for _ in range(20):
            v = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            w = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            worst = max(worst, cd.nabla_compose_check(v, w, om, p))
    wall = time.time() - t0
    _report(2, "composition formula, |v|,|w| <= 2, 20 trials per chart",
            worst < 1e-7 and wall < 60, f"worst {worst:.2e}, {wall:.1f}s")


def test_criterion_3_fundamental_commutation(charts):
    """Fundamental commutation, |u| <= 1, 10 trials per curved chart, < 1e-7."""
    rng = random.Random(3)
    worst = 0
    for name, p in [("s2", (1.4, 2.0)), ("hyp", (-0.5, 1.5))]:
        chart = charts[name]
        p = chart.resolve(p, FLOAT)
        om = cd.form_field(chart, 1, {(0,): f"{chart.names[1]}",
                                      (1,): f"1 + {chart.names[0]}^2"})
        for _ in range(10):
            u = tuple(rng.randrange(2) for _ in range(rng.randint(0, 1)))
            v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 1)))
            a, b = rng.randrange(2), rng.randrange(2)
            worst = max(worst, cd.fundamental_commutation_check(u, v, a, b, om, p))
    _report(3, "fundamental commutation, |u| <= 1, 10 trials each",
            worst < 1e-7, f"worst {worst:.2e}")


def test_criterion_4_pbw_kernel(charts):
    """Kernel elements with |I|+|J|+2 <= 3 annihilate every probe exactly;
    the count matches the dimension formula."""
    chart = charts["poly2"]
    p = chart.resolve((Fraction(1, 4), Fraction(-1, 3)), RATIONAL)
    worst = 0
    counts_ok = True
    for k in (1, 2):
        kb = at.kernel_basis(chart, p, 3, k)
        counts_ok = counts_ok and len(kb) == at.kernel_basis_count(2, 2, 3, k)
        for _label, el in kb:
            worst = max(worst, op.probe_annihilation_residual(chart, el, p, 3, k))
    _report(4, "PBW kernel theorem (rational, poly metric)",
            worst == 0 and counts_ok, f"worst residual {worst}")


def test_criterion_5_pbw_image_rank(charts):
    """Probe matrix rank equals C(n+r,n) C(d,k) for the three stated shapes."""
    t0 = time.time()
    ok = True
    details = []
    cases = [(charts["poly2"], (Fraction(1, 4), Fraction(-1, 3)), 2, 2, 1, 2),
             (charts["poly2"], (Fraction(1, 4), Fraction(-1, 3)), 2, 3, 1, 2),
             (charts["poly3"], (Fraction(1, 4), Fraction(-1, 3), Fraction(1, 5)),
              3, 2, 2, 3)]
    for chart, p, n, r, k, d in cases:
        p = chart.resolve(p, RATIONAL)
        rows = []
        for w in all_words(n, r):
            for K in anti_indices(d, k):
                el = basis_element(n, d, w, K)
                row = []
                for g in range(r + 1):
                    for T in at._multi_indices(n, r)[g]:
                        for L in anti_indices(d, k):
                            probe = at.probe_form(chart, p, T, L)
                            row.append(at.phi_apply(el, probe, p))
                rows.append(row)
        rank = len(row_reduce(rows)[1])
        want = at.pbw_dimension(n, d, r, k)
        ok = ok and rank == want
        details.append(f"(n={n},r={r},k={k},d={d}): rank {rank}/{want}")
    _report(5, "PBW image theorem ranks", ok,
            "; ".join(details) + f" ({time.time() - t0:.1f}s)")


def test_criterion_6_coalgebra(charts):
    """Duality < 1e-8 over 50 triples; coassociativity/counit exact;
    connection independence < 1e-7."""
    ctx = su.SuiteContext(chart=charts["s2"], mode=FLOAT, seed=42, r=2, k=2,
                          probes=[(1.1, 0.8)])
    results = {r.check: r for r in su.check_coalgebra(ctx)}
    dual = results["coalgebra-duality"]
    exact = results["coalgebra-counit"]
    indep = results["coalgebra-connection-independent"]
    _report(6, "coalgebra duality / counit / connection independence",
            dual.residual < 1e-8 and exact.residual == 0 and indep.residual < 1e-7,
            f"duality {dual.residual:.2e}, counit {exact.residual}, "
            f"independence {indep.residual:.2e}")


def test_criterion_7_curvature_in_quotient(charts):
    """to_pbw((a(x)b - b(x)a) box alpha) = -to_pbw(() box R_{a,b} alpha) on the
    sphere, residual < 1e-8."""
    chart = charts["s2"]
    worst = 0
    for p in [(1.1, 0.8), (1.9, 2.5)]:
        p = chart.resolve(p, FLOAT)
        cv = curvature(chart, p)
        for a, b in [(0, 1), (1, 0)]:
            for k in (1, 2):
                for K in anti_indices(2, k):
                    x = basis_element(2, 2, (a, b), K) \
                        + basis_element(2, 2, (b, a), K).scale(-1)
                    lhs = at.to_pbw(chart, x, p, 2, k)
                    M = [[cv.fiber[(bb, aa, a, b)] for aa in range(2)]
                         for bb in range(2)]
                    rhs = at.AtomicCurrent(p, 2, k, 2)
                    for K2, c in at._apply_end_to_kvector(M, {K: 1}).items():
                        rhs.add_term((), K2, -c)
                    worst = max(worst, (lhs - rhs).max_abs())
    _report(7, "curvature in the quotient", worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_8_operator_calculus(charts):
    """EE, DD, ED exchange, {E,Edag}, Edag reversal, [D,Ddag], Clifford:
    operator equalities on the full coordinate basis at 5 probe points,
    residual < 1e-7."""
    s2 = charts["s2"]
    probes = [(1.1, 0.8), (1.7, 1.9), (2.1, 0.5), (0.9, 3.3), (1.4, 5.2)]
    ctx = su.SuiteContext(chart=s2, mode=FLOAT, seed=8, r=2, k=1, probes=probes,
                          trials=5)
    rows = su.check_operator_identities(ctx) + su.check_adjoint_identities(ctx)
    worst = max(r.residual for r in rows if not r.skipped)
    ok = all(r.passed for r in rows if not r.skipped) and worst < 1e-7
    # Clifford factorization on flat orthonormal charts, exact
    cl_ok = True
    for name in ("flat2", "flat3"):
        ctx2 = su.SuiteContext(chart=charts[name], mode=RATIONAL, seed=8, r=2, k=1,
                               probes=[(Fraction(1, 4),) * charts[name].n])
        for r in su.check_clifford(ctx2):
            cl_ok = cl_ok and not r.skipped and r.residual == 0
    _report(8, "operator calculus identities", ok and cl_ok,
            f"worst curved residual {worst:.2e}, clifford exact: {cl_ok}")


def test_criterion_9_boundary(charts):
    """boundary^2 = 0, counit-after-boundary = 0, duality on 30 pairs < 1e-8,
    flat hand value, trace lift kernel preservation and coproduct law exact
    on a polynomial metric."""
    s2 = charts["s2"]
    rng = random.Random(9)
    p = s2.resolve((1.1, 0.8), FLOAT)
    worst_sq = worst_eps = worst_dual = 0
    for _ in range(30):
        T = at.AtomicCurrent(p, 1, rng.choice((1, 2)), 2)
        for key in at.pbw_keys(2, 2, 1, T.k):
            T.add_term(key[0], key[1], rng.randint(-3, 3))
        om = su.rand_form_field(
            su.SuiteContext(chart=s2, probes=[p], seed=rng.randint(0, 99)),
            rng, T.k - 1)
        bT = op.boundary(s2, T)
        lhs = at.phi_apply(bT, om, p)
        rhs = at.phi_apply(T, cd.exterior_derivative(om, p, out_order=T.r), p)
        worst_dual = max(worst_dual, abs(lhs - rhs))
        worst_sq = max(worst_sq, op.boundary(s2, bT).max_abs())
        if T.k == 1:
            worst_eps = max(worst_eps, abs(at.counit(bT)))
    flat = charts["flat2"]
    T = at.AtomicCurrent(flat.resolve((0.25, -0.5), FLOAT), 0, 2, 2)
    T.add_term((), (0, 1), 1)
    bT = op.boundary(flat, T)
    hand_ok = abs(bT.coeffs.get(((0,), (1,)), 0) - 1) < 1e-12 and \
        abs(bT.coeffs.get(((1,), (0,)), 0) + 1) < 1e-12 and len(bT.coeffs) == 2
    poly = charts["poly2"]
    pr = poly.resolve((Fraction(1, 4), Fraction(-1, 3)), RATIONAL)
    rep = op.trace_DEdag_lift_check(poly, pr, 2, 1)
    lift_ok = rep["kernel_preservation"] == 0 and rep["delta_commutation"] == 0 \
        and rep["order_degree_ok"]
    _report(9, "boundary operator",
            worst_sq < 1e-9 and worst_eps < 1e-10 and worst_dual < 1e-8
            and hand_ok and lift_ok,
            f"dual {worst_dual:.2e}, square {worst_sq:.2e}, "
            f"hand value {hand_ok}, lift exact {lift_ok}")


def test_criterion_10_transition_cocycle(charts):
    """g_CB g_BA = g_CA over three overlapping sphere charts < 1e-7;
    identity change gives the identity matrix exactly."""
    ctx = su.SuiteContext(chart=charts["s2"], mode=FLOAT, seed=1, r=2, k=1,
                          probes=[(1.1, 0.8)])
    res = su._cocycle_check(ctx, "cocycle")
    flat = charts["flat2"]
    ident = at.transition_matrix(flat, flat, ["x0", "x1"],
                                 flat.resolve((Fraction(1, 4), Fraction(1, 8)), RATIONAL), 2, 1)
    ident_ok = all(v == (1 if key == k2 else 0)
                   for key, row in ident.items() for k2, v in row.items())
    _report(10, "transition cocycle", res.residual < 1e-7 and ident_ok,
            f"cocycle {res.residual:.2e}, identity exact: {ident_ok}")
