"""Named verification suites over probe points.

Each check verifies one identity of the calculus on the context's chart
and reports a residual; the registry groups checks into suites runnable
from the CLI or from the test suite.  Checks declare requirements
(metric, tangent fiber, curvature, rational-expressible chart) and are
skipped, not failed, where they do not apply.

Determinism: every random choice comes from ``random.Random(seed)``
seeded per check, so a (spec, seed, mode) triple reproduces its report
byte for byte.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import atomic as at
from . import covderiv as cd
from . import expr as ex
from . import operators as op
from .connection import ChartConnection, curvature, dual_chart
from .jets import FLOAT, RATIONAL, Jet, JetSpace, as_point
from .multialg import (all_words, anti_indices, basis_element, delta_coproduct, merge_sign,
                       row_reduce, tensor_coproduct, wedge_coproduct)


class CheckResult:
    def __init__(self, check: str, statement: str, probe: tuple | None, residual: float,
                 tol: float, passed: bool, skipped: bool = False, note: str = ""):
        self.check = check
        self.statement = statement
        self.probe = probe
        self.residual = residual
        self.tol = tol
        self.passed = passed
        self.skipped = skipped
        self.note = note

    @property
    def status(self) -> str:
        return "skip" if self.skipped else ("pass" if self.passed else "FAIL")

    def row(self):
        return {
            "check": self.check,
            "statement": self.statement,
            "probe": None if self.probe is None else [str(x) for x in self.probe],
            "residual": str(self.residual),
            "tol": str(self.tol),
            "status": self.status,
            "note": self.note,
        }


class SuiteContext:
    def __init__(self, chart: ChartConnection, mode: str = FLOAT, tol: float | None = None,
                 seed: int = 0, r: int = 2, k: int = 1, probes=(), trials: int | None = None):
        self.chart = chart
        self.mode = mode
        self.tol = tol
        self.seed = seed
        self.r = r
        self.k = k
        # every check reads its probes in the scalar type of the mode
        self.probes = [as_point(p, mode) for p in probes]
        self.trials = trials

    def tolerance(self, default):
        if self.mode == RATIONAL:
            return 0
        return self.tol if self.tol is not None else default

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    def scalar(self, q):
        return Fraction(q) if self.mode == RATIONAL else float(Fraction(q))

    def n_trials(self, default):
        return self.trials if self.trials is not None else default


def _result(check, statement, probe, residual, tol, note=""):
    return CheckResult(check, statement, probe, float(residual), float(tol),
                       passed=abs(residual) <= tol, note=note)


def _skip(check, statement, note):
    return CheckResult(check, statement, None, 0.0, 0.0, True, skipped=True, note=note)


# ---------------------------------------------------------------------------
# Random data generators (deterministic per seed).

def rand_poly_tree(rng, names, degree=2):
    """A sum of up to three monomials with coefficients in [-3, 3] and
    exponents in [0, degree], as raw nodes: a negative coefficient is
    ``Neg(Const(|c|))``, and the sum is ``Const(1)`` when every coefficient
    is 0.  ``parse(to_string(e))`` gives the same tree."""
    acc = None
    for _ in range(3):
        c = rng.randint(-3, 3)
        if c == 0:
            continue
        term = ex.Const(c) if c > 0 else ex.Neg(ex.Const(-c))
        for i, nm in enumerate(names):
            term = ex.Mul(term, ex.Pow(ex.Sym(i, nm), rng.randint(0, degree)))
        acc = term if acc is None else ex.Add(acc, term)
    return ex.Const(1) if acc is None else acc


def rand_scalar_field(ctx, rng):
    return cd.scalar_field(ctx.chart, rand_poly_tree(rng, ctx.chart.names))


def rand_vector_field(ctx, rng):
    return cd.vector_field(ctx.chart, {i: rand_poly_tree(rng, ctx.chart.names)
                                       for i in range(ctx.chart.n)})


def rand_tensor_field(ctx, rng, order):
    comps = {w: rand_poly_tree(rng, ctx.chart.names)
             for w in itertools.product(range(ctx.chart.n), repeat=order)}
    return cd.tensor_field(ctx.chart, order, comps)


def rand_form_field(ctx, rng, k):
    comps = {K: rand_poly_tree(rng, ctx.chart.names)
             for K in anti_indices(ctx.chart.d, k)}
    return cd.form_field(ctx.chart, k, comps)


def rand_kvector_field(ctx, rng, k):
    comps = {K: rand_poly_tree(rng, ctx.chart.names)
             for K in anti_indices(ctx.chart.d, k)}
    return cd.kvector_field(ctx.chart, k, comps)


def rand_current(ctx, rng, r, k):
    cur = at.AtomicCurrent(ctx.probes[0], r, k, ctx.chart.d)
    for key in at.pbw_keys(ctx.chart.n, ctx.chart.d, r, k):
        cur.add_term(key[0], key[1], ctx.scalar(rng.randint(-3, 3)))
    return cur


def rand_word(ctx, rng, length):
    return tuple(rng.randrange(ctx.chart.n) for _ in range(length))


# ---------------------------------------------------------------------------
# expr / jets checks.

def check_jets_fd(ctx):
    """Jet coefficients agree with central finite differences at h = 1e-4.

    Third-order quotients at that step are bound by float64 roundoff
    (about eps/h^3 = 1e-4), so order-3 coefficients get a roundoff-floor
    tolerance while orders <= 2 are held to relative 1e-5.
    """
    stmt = "jet coefficients vs central finite differences at h = 1e-4"
    if ctx.mode == RATIONAL:
        return [_skip("jets-fd", stmt, "finite differences are a float oracle")]
    rng = ctx.rng("jets-fd")
    out = []
    h = 1e-4
    exprs = ["sin(x0)*exp(x1)", "sqrt(4 + x0^2) + cos(x1)",
             "x0^3*x1 - x1^2/2", "sinh(x0/2) + log(4 + x1)", "tan(x0/3)*x1"]
    names = ("x0", "x1")
    for text in exprs:
        e = ex.parse(text, names)
        p = (0.3 + rng.random() * 0.4, -0.2 + rng.random() * 0.4)
        jet = ex.eval_jet(e, as_point(p, FLOAT), 3)
        worst_lo, worst_hi = 0.0, 0.0
        for T in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2)]:
            fd = _central_fd(e, p, T, h)
            got = jet.partial(T)
            rel = abs(got - fd) / max(1.0, abs(fd))
            if sum(T) <= 2:
                worst_lo = max(worst_lo, rel)
            else:
                worst_hi = max(worst_hi, rel)
        out.append(_result("jets-fd", stmt + " (order <= 2)", p, worst_lo,
                           1e-5, note=text))
        out.append(_result("jets-fd-order3", stmt + " (order 3, roundoff floor)",
                           p, worst_hi, 1e-3, note=text))
    return out


def _central_fd(e, p, T, h):
    if sum(T) == 0:
        return ex.evaluate(e, as_point(p, FLOAT))
    i = next(k for k, t in enumerate(T) if t > 0)
    T2 = tuple(t - (1 if k == i else 0) for k, t in enumerate(T))
    pp = tuple(x + (h if k == i else 0) for k, x in enumerate(p))
    pm = tuple(x - (h if k == i else 0) for k, x in enumerate(p))
    return (_central_fd(e, pp, T2, h) - _central_fd(e, pm, T2, h)) / (2 * h)


def check_jets_product(ctx):
    """eval_jet(e1*e2) equals eval_jet(e1)*eval_jet(e2) coefficientwise."""
    stmt = "truncated Cauchy product: jet(e1*e2) = jet(e1)*jet(e2)"
    rng = ctx.rng("jets-prod")
    out = []
    names = ctx.chart.names
    for trial in range(4):
        e1 = rand_poly_tree(rng, names)
        e2 = rand_poly_tree(rng, names)
        p = ctx.probes[trial % len(ctx.probes)]
        j1 = ex.eval_jet(e1, p, 4)
        j2 = ex.eval_jet(e2, p, 4)
        j12 = ex.eval_jet(ex.Mul(e1, e2), p, 4)
        prod = j1 * j2
        worst = (j12 - prod).max_abs()
        out.append(_result("jets-product", stmt, p, worst, ctx.tolerance(1e-12)))
    return out


def check_jets_monomial(ctx):
    """d^S of (e-p)^T/T! at p is the Kronecker delta."""
    stmt = "monomial jets: partial^S[(e-p)^T/T!](p) = delta_{S,T}"
    out = []
    n = ctx.chart.n
    p = ctx.probes[0]
    worst = 0
    for T in itertools.chain.from_iterable(at._multi_indices(n, 3).values()):
        mono = ex.monomial_form(p, T, ctx.chart.names)
        jet = ex.eval_jet(mono, p, sum(T))
        for S in itertools.chain.from_iterable(at._multi_indices(n, sum(T)).values()):
            want = 1 if S == T else 0
            worst = max(worst, abs(jet.partial(S) - want))
    out.append(_result("jets-monomial", stmt, p, worst, ctx.tolerance(1e-12)))
    return out


def check_roundtrip(ctx):
    """parse(to_string(e)) evaluates identically."""
    stmt = "parse/print round-trip evaluates identically"
    rng = ctx.rng("roundtrip")
    names = ctx.chart.names
    worst = 0
    p = ctx.probes[0]
    for _ in range(6):
        e = rand_poly_tree(rng, names)
        e2 = ex.parse(ex.to_string(e), names)
        worst = max(worst, abs(ex.evaluate(e, p) - ex.evaluate(e2, p)))
    return [_result("expr-roundtrip", stmt, p, worst, 0)]


# ---------------------------------------------------------------------------
# multialg checks (chart independent).

def check_coassociativity(ctx):
    stmt = "coassociativity of deshuffle coproducts (words <= 5, subsets <= 4)"
    worst = 0
    for w in [(0,), (0, 1), (1, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1, 0)]:
        lhs, rhs = {}, {}
        for (a, b) in tensor_coproduct(w):
            for (a1, a2) in tensor_coproduct(a):
                lhs[(a1, a2, b)] = lhs.get((a1, a2, b), 0) + 1
            for (b1, b2) in tensor_coproduct(b):
                rhs[(a, b1, b2)] = rhs.get((a, b1, b2), 0) + 1
        worst = max(worst, cd._dict_residual(lhs, rhs))
    for K in [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]:
        lhs, rhs = {}, {}
        for (A, B, s) in wedge_coproduct(K):
            for (A1, A2, s2) in wedge_coproduct(A):
                lhs[(A1, A2, B)] = lhs.get((A1, A2, B), 0) + s * s2
            for (B1, B2, s2) in wedge_coproduct(B):
                rhs[(A, B1, B2)] = rhs.get((A, B1, B2), 0) + s * s2
        worst = max(worst, cd._dict_residual(lhs, rhs))
    return [_result("coassociativity", stmt, None, worst, 0)]


def check_counit(ctx):
    stmt = "counit law: (eps (x) id) Delta = id = (id (x) eps) Delta"
    worst = 0
    for w in [(0,), (1, 0), (0, 1, 1)]:
        left = sum(1 for (a, b) in tensor_coproduct(w) if a == () and b == w)
        right = sum(1 for (a, b) in tensor_coproduct(w) if b == () and a == w)
        worst = max(worst, abs(left - 1), abs(right - 1))
    return [_result("counit", stmt, None, worst, 0)]


def check_hodge_algebra(ctx):
    """The star laws on the stars the operators run: ``op.pointwise_star`` on
    multivectors and ``op.star_form_jets`` on forms, exact at the origin of
    constant metrics with rational sqrt(det g) (3, 6 and 9) and nonzero
    off-diagonal minors."""
    stmt = "star involution and det-pairing transpose: star-hat* = star^{-1}"
    worst = 0
    for g in ([[5, 4], [4, 5]], [[5, 4, 0], [4, 5, 0], [0, 0, 4]],
              [[5, 4, 0, 0], [4, 5, 0, 0], [0, 0, 5, 4], [0, 0, 4, 5]]):
        n = len(g)
        chart = ChartConnection.from_metric([f"x{i}" for i in range(n)], g,
                                            [(-1, 1)] * n, name=f"hodge-{n}")
        p = chart.resolve((0,) * n, RATIONAL)
        star, star_inv = op.pointwise_star(chart, p)
        hat = {J: op.star_form_jets(cd.form_field(chart, m, {J: 1}), p, 0).comps
               for m in range(n + 1) for J in anti_indices(n, m)}
        for k in range(n + 1):
            for K in anti_indices(n, k):
                st = star({K: 1})
                worst = max(worst, cd._dict_residual(star_inv(st), {K: 1}),
                            cd._dict_residual(star(st), {K: (-1) ** (k * (n - k))}))
                # <e^J, star^{-1} e_K> = (star-hat e^J)_K
                inv = star_inv({K: 1})
                for J in anti_indices(n, n - k):
                    jet = hat[J].get(K)
                    worst = max(worst, abs(inv.get(J, 0) - (0 if jet is None else jet.value)))
    return [_result("hodge-star", stmt, None, worst, 0)]


# ---------------------------------------------------------------------------
# connection checks.

def check_torsion_free(ctx):
    stmt = "torsion-free symmetry Gamma^k_{ij} = Gamma^k_{ji}"
    out = []
    for p in ctx.probes:
        worst = 0
        for i in range(ctx.chart.n):
            for j in range(ctx.chart.n):
                a = ctx.chart.gamma1_jet(i, j, p, 0)
                b = ctx.chart.gamma1_jet(j, i, p, 0)
                worst = max(worst, max(abs(x.value - y.value) for x, y in zip(a, b)))
        out.append(_result("torsion-free", stmt, p, worst, ctx.tolerance(1e-10)))
    return out


def check_dualpath_gamma(ctx):
    stmt = "higher symbols: inductive recursion vs direct nabla of frame fields"
    rng = ctx.rng("dualpath")
    out = []
    for p in ctx.probes:
        worst = 0
        for length in (1, 2, 3, 4):
            I = rand_word(ctx, rng, length)
            j = rng.randrange(ctx.chart.n)
            a = ctx.chart.higher_gamma(I, j, p)
            ej = cd.coordinate_tensor_field(ctx.chart, (j,))
            v = cd.nabla_value(ej, I, p)
            for kk in range(ctx.chart.n):
                worst = max(worst, abs(a[kk] - v.get((kk,), 0)))
        out.append(_result("gamma-dual-path", stmt, p, worst, ctx.tolerance(1e-8)))
    return out


def check_metric_compat(ctx):
    stmt = "metric compatibility: d_k g_ij = Gamma_ikj + Gamma_jki"
    if ctx.chart.metric is None:
        return [_skip("metric-compat", stmt, "chart has no metric")]
    out = []
    for p in ctx.probes:
        g = ctx.chart.metric_value(p)
        g1 = [[ex.eval_jet(e, p, 1) for e in row] for row in ctx.chart.metric]
        worst = 0
        n = ctx.chart.n
        for kk in range(n):
            for i in range(n):
                for j in range(n):
                    dg = g1[i][j].partial(tuple(1 if t == kk else 0 for t in range(n)))
                    gj = ctx.chart.gamma1_jet(kk, j, p, 0)
                    gi = ctx.chart.gamma1_jet(kk, i, p, 0)
                    low = sum(g[i][l] * gj[l].value for l in range(n))
                    low += sum(g[j][l] * gi[l].value for l in range(n))
                    worst = max(worst, abs(dg - low))
        out.append(_result("metric-compat", stmt, p, worst, ctx.tolerance(1e-9)))
    return out


def check_flat_lemma(ctx):
    stmt = "flat chart: higher symbols, nabla^s R, and nabla^s Gamma all vanish"
    if not _is_flat(ctx):
        return [_skip("flat-lemma", stmt, "chart is not flat")]
    rng = ctx.rng("flat")
    p = ctx.probes[0]
    worst = 0
    for length in (1, 2, 3, 4):
        I = rand_word(ctx, rng, length)
        j = rng.randrange(ctx.chart.n)
        worst = max(worst, max(abs(v) for v in ctx.chart.higher_gamma(I, j, p)))
    for s in range(5):
        S = rand_word(ctx, rng, s)
        ab = ({(0, min(1, ctx.chart.n - 1)): 1}, 1)
        for fiber in (False, True):
            end, den = cd.curvature_endomorphism(ctx.chart, S, ab, p, fiber=fiber)
            top = max(abs(v) for row in end for v in row)
            worst = max(worst, top if den == 1 else Fraction(top, den))
    return [_result("flat-lemma", stmt, p, worst, 0 if ctx.mode == RATIONAL else 1e-14)]


def _is_flat(ctx):
    """The base and fiber symbol jets vanish to order 6 at every probe, which
    covers every symbol and curvature derivative (R^TM and R^E) the flat
    checks evaluate there (order 0 first: it fails fast on curved charts).
    On a tangent fiber the fiber symbols are the base symbols."""
    chart = ctx.chart
    for order in (0, 6):
        for p in ctx.probes:
            for fiber, dim in ((False, chart.n), (True, chart.d)):
                for i in range(chart.n):
                    for j in range(dim):
                        jets = chart.gamma1_jet(i, j, p, order, fiber)
                        if any(jets):
                            return False
    return True


def check_dual_connection(ctx):
    stmt = "dual connection: X(omega(Y)) = (nabla*_X omega)(Y) + omega(nabla-hat_X Y)"
    rng = ctx.rng("dualconn")
    if not ctx.chart.fiber_is_tangent:
        return [_skip("dual-connection", stmt, "non-tangent fiber")]
    out = []
    for p in ctx.probes:
        worst = 0
        for _ in range(3):
            omega = rand_form_field(ctx, rng, 1)
            Y = rand_vector_field(ctx, rng)
            contr = cd.contract_form_vector(omega, Y)
            for i in range(ctx.chart.n):
                lhs = cd.nabla_value(contr, (i,), p).get((), 0)
                nb_om = cd.nabla_value(omega, (i,), p)
                yv = Y.value(p)
                rhs = sum(nb_om.get((a,), 0) * yv.get((a,), 0) for a in range(ctx.chart.n))
                nb_y = cd.nabla_value(Y, (i,), p)
                omv = omega.value(p)
                rhs += sum(omv.get((a,), 0) * nb_y.get((a,), 0) for a in range(ctx.chart.n))
                worst = max(worst, abs(lhs - rhs))
        out.append(_result("dual-connection", stmt, p, worst, ctx.tolerance(1e-9)))
    return out


def check_curvature(ctx):
    stmt = "curvature from order-2 symbols vs finite differences of Gamma; antisymmetry"
    out = []
    n = ctx.chart.n
    for p in ctx.probes:
        cv = curvature(ctx.chart, p)
        worst_anti = 0
        for (kk, j, u, v), val in cv.base.items():
            worst_anti = max(worst_anti, abs(val + cv.base[(kk, j, v, u)]))
        out.append(_result("curvature-antisym", "R^k_{juv} + R^k_{jvu} = 0",
                           p, worst_anti, ctx.tolerance(1e-12)))
        if ctx.mode == FLOAT:
            h = 1e-5
            worst = 0
            for kk in range(n):
                for j in range(n):
                    for u in range(n):
                        for v in range(n):
                            # classical formula with finite-difference derivatives
                            acc = _fd_gamma(ctx.chart, kk, v, j, u, p, h) \
                                - _fd_gamma(ctx.chart, kk, u, j, v, p, h)
                            for l in range(n):
                                acc += _gamma_value(ctx.chart, l, v, j, p) \
                                    * _gamma_value(ctx.chart, kk, u, l, p)
                                acc -= _gamma_value(ctx.chart, l, u, j, p) \
                                    * _gamma_value(ctx.chart, kk, v, l, p)
                            worst = max(worst, abs(acc - cv.base[(kk, j, u, v)]))
            out.append(_result("curvature-fd", stmt, p, worst, 1e-5))
    return out


def _gamma_value(chart, kk, i, j, p):
    return chart.gamma1_jet(i, j, p, 0)[kk].value


def _fd_gamma(chart, kk, i, j, direction, p, h):
    pp, pm = (as_point([x + s if t == direction else x for t, x in enumerate(p)], FLOAT)
              for s in (h, -h))
    return (_gamma_value(chart, kk, i, j, pp) - _gamma_value(chart, kk, i, j, pm)) / (2 * h)


# ---------------------------------------------------------------------------
# covderiv checks.

def check_composition(ctx):
    stmt = "composition: nabla_v o nabla_w = nabla_{v_(1) (x) nabla-hat_{v_(2)} w}"
    rng = ctx.rng("compose")
    out = []
    trials = ctx.n_trials(20)
    for p in ctx.probes:
        worst = 0
        for _ in range(trials):
            v = rand_word(ctx, rng, rng.randint(1, 2))
            w = rand_word(ctx, rng, rng.randint(1, 2))
            fld = rand_form_field(ctx, rng, min(1, ctx.chart.d))
            worst = max(worst, cd.nabla_compose_check(v, w, fld, p))
        out.append(_result("composition", stmt, p, worst, ctx.tolerance(1e-7)))
    return out


def check_fundamental(ctx):
    stmt = "fundamental commutation: curvature terms reproduce nabla over (ab-ba)v words"
    rng = ctx.rng("fundamental")
    out = []
    trials = ctx.n_trials(10)
    for p in ctx.probes:
        worst = 0
        for _ in range(trials):
            u = rand_word(ctx, rng, rng.randint(0, 1))
            v = rand_word(ctx, rng, rng.randint(0, 1))
            a = rng.randrange(ctx.chart.n)
            b = rng.randrange(ctx.chart.n)
            fld = rand_form_field(ctx, rng, min(1, ctx.chart.d))
            worst = max(worst, cd.fundamental_commutation_check(u, v, a, b, fld, p))
        out.append(_result("fundamental-commutation", stmt, p, worst, ctx.tolerance(1e-7)))
    return out


def check_leibniz(ctx):
    stmt = "Leibniz: nabla_v(alpha (x) beta) = sum nabla_{v_(1)} alpha (x) nabla_{v_(2)} beta"
    rng = ctx.rng("leibniz")
    out = []
    for p in ctx.probes:
        worst = 0
        for _ in range(ctx.n_trials(6)):
            a = rand_vector_field(ctx, rng)
            b = rand_vector_field(ctx, rng)
            prod = cd.product_field(a, b)
            v = rand_word(ctx, rng, rng.randint(1, 3))
            lhs = cd.nabla_value(prod, v, p)
            rhs = {}
            for (v1, v2) in tensor_coproduct(v):
                av = cd.nabla_value(a, v1, p)
                bv = cd.nabla_value(b, v2, p)
                for ia, ca in av.items():
                    for ib, cb in bv.items():
                        rhs[ia + ib] = rhs.get(ia + ib, 0) + ca * cb
            worst = max(worst, cd._dict_residual(lhs, rhs))
        out.append(_result("leibniz", stmt, p, worst, ctx.tolerance(1e-8)))
    return out


def check_shuffle(ctx):
    stmt = "shuffle: nabla^j(omega ^ eta) = sum over riffle shuffles of nabla^i omega ^ nabla^{j-i} eta"
    rng = ctx.rng("shuffle")
    out = []
    kmax = ctx.chart.d
    for p in ctx.probes:
        worst = 0
        for _ in range(ctx.n_trials(4)):
            ka = 1
            kb = 1 if kmax >= 2 else 0
            om = rand_form_field(ctx, rng, ka)
            et = rand_form_field(ctx, rng, kb)
            wedge = cd.wedge_fields(om, et)
            v = rand_word(ctx, rng, rng.randint(1, 3))
            lhs = cd.nabla_value(wedge, v, p)
            rhs = {}
            for (v1, v2) in tensor_coproduct(v):
                a = cd.nabla_value(om, v1, p)
                b = cd.nabla_value(et, v2, p)
                for idx in itertools.product(range(ctx.chart.d), repeat=ka + kb):
                    acc = 0
                    for S in itertools.combinations(range(ka + kb), ka):
                        Sc = tuple(t for t in range(ka + kb) if t not in S)
                        sgn = merge_sign(S, Sc)
                        va = a.get(tuple(idx[t] for t in S), 0)
                        vb = b.get(tuple(idx[t] for t in Sc), 0)
                        acc += sgn * va * vb
                    if acc != 0:
                        rhs[idx] = rhs.get(idx, 0) + acc
            worst = max(worst, cd._dict_residual(lhs, rhs))
        out.append(_result("shuffle", stmt, p, worst, ctx.tolerance(1e-8)))
    return out


def check_contraction(ctx):
    stmt = "contraction: nabla_v(omega(alpha)) = (nabla_{v_(1)} omega)(nabla_{v_(2)} alpha)"
    rng = ctx.rng("contract")
    out = []
    for p in ctx.probes:
        worst = 0
        for _ in range(ctx.n_trials(5)):
            k = 1
            om = rand_form_field(ctx, rng, k)
            al = rand_kvector_field(ctx, rng, k)
            scal = cd.contract_form_vector(om, al)
            v = rand_word(ctx, rng, rng.randint(1, 3))
            lhs = cd.nabla_value(scal, v, p).get((), 0)
            rhs = 0
            for (v1, v2) in tensor_coproduct(v):
                a = cd.nabla_value(om, v1, p)
                b = cd.nabla_value(al, v2, p)
                rhs += sum(c * b.get(idx, 0) for idx, c in a.items())
            worst = max(worst, abs(lhs - rhs))
        out.append(_result("contraction", stmt, p, worst, ctx.tolerance(1e-8)))
    return out


def check_interior(ctx):
    stmt = "interior product: nabla_v(iota_X omega) = iota_{nabla_{v_(1)} X}(nabla_{v_(2)} omega)"
    rng = ctx.rng("interior")
    if ctx.chart.d < 2:
        return [_skip("interior", stmt, "needs fiber dimension >= 2")]
    out = []
    for p in ctx.probes:
        worst = 0
        for _ in range(ctx.n_trials(5)):
            X = rand_kvector_field(ctx, rng, 1)
            om = rand_form_field(ctx, rng, 2)
            iox = cd.interior_product_field(X, om)
            v = rand_word(ctx, rng, rng.randint(1, 2))
            lhs = cd.nabla_value(iox, v, p)
            rhs = {}
            for (v1, v2) in tensor_coproduct(v):
                xv = cd.nabla_value(X, v1, p)
                ov = cd.nabla_value(om, v2, p)
                for (b,), cx in xv.items():
                    for idx, co in ov.items():
                        if idx[0] == b:
                            key = idx[1:]
                            rhs[key] = rhs.get(key, 0) + cx * co
            worst = max(worst, cd._dict_residual(lhs, rhs))
        out.append(_result("interior", stmt, p, worst, ctx.tolerance(1e-8)))
    return out


def check_cov_coproduct(ctx):
    """Two paths: deshuffle the value of nabla_v T, versus covariantly
    differentiate each graded deshuffle component of T (grouped as a field
    on the doubled tensor bundle) and read its value."""
    stmt = "coproduct commutation: nabla_v(Delta alpha) = Delta(nabla_v alpha) on tensor fields"
    rng = ctx.rng("covcoprod")
    out = []
    for p in ctx.probes[:2]:
        worst = 0
        for _ in range(ctx.n_trials(3)):
            m = 2
            T = rand_tensor_field(ctx, rng, m)
            v = rand_word(ctx, rng, rng.randint(1, 2))
            nl = cd.nabla_value(T, v, p)
            lhs = {}
            for w, c in nl.items():
                for (a, b) in tensor_coproduct(w):
                    lhs[(a, b)] = lhs.get((a, b), 0) + c
            rhs = {}
            for la in range(m + 1):
                comps = {}
                for w, e in T.comps.items():
                    for (a, b) in tensor_coproduct(w):
                        if len(a) != la:
                            continue
                        key = a + b
                        comps[key] = ex.ex_add(comps[key], e) if key in comps else e
                fld = cd.Field(ctx.chart, (cd.TU,) * m, comps)
                for key, c in cd.nabla_value(fld, v, p).items():
                    pair = (key[:la], key[la:])
                    rhs[pair] = rhs.get(pair, 0) + c
            worst = max(worst, cd._dict_residual(lhs, rhs))
        out.append(_result("cov-coproduct", stmt, p, worst, ctx.tolerance(1e-9)))
    return out


def check_even_order(ctx):
    stmt = "even-order commutators nabla^{2j}_{(vw-wv)...} are tensorial in the field"
    rng = ctx.rng("evenorder")
    out = []
    for p in ctx.probes:
        worst = 0
        for _ in range(ctx.n_trials(4)):
            al = rand_form_field(ctx, rng, min(1, ctx.chart.d))
            f = rand_scalar_field(ctx, rng)
            fal = cd.Field(ctx.chart, al.slots,
                           {i: ex.ex_mul(f.comps[()], c) for i, c in al.comps.items()})
            fval = f.value(p).get((), 0)
            for j in (1, 2):
                pairs = [(rng.randrange(ctx.chart.n), rng.randrange(ctx.chart.n))
                         for _ in range(j)]
                lhs, rhs = {}, {}
                for signs in itertools.product((0, 1), repeat=j):
                    word = ()
                    sgn = 1
                    for (vv, ww), s in zip(pairs, signs):
                        word += (vv, ww) if s == 0 else (ww, vv)
                        sgn *= 1 if s == 0 else -1
                    for idx, c in cd.nabla_value(fal, word, p).items():
                        lhs[idx] = lhs.get(idx, 0) + sgn * c
                    for idx, c in cd.nabla_value(al, word, p).items():
                        rhs[idx] = rhs.get(idx, 0) + sgn * fval * c
                worst = max(worst, cd._dict_residual(lhs, rhs))
        out.append(_result("even-order", stmt, p, worst, ctx.tolerance(1e-8)))
    return out


def check_warning_case(ctx):
    stmt = "odd-order warning: nabla^3_{X,Y,Z} f - nabla^3_{Y,X,Z} f = -(R(X,Y)Z)(f)"
    rng = ctx.rng("warning")
    out = []
    for p in ctx.probes[:2]:
        cv = curvature(ctx.chart, p)
        worst = 0
        saw_nonzero = False
        for _ in range(ctx.n_trials(4)):
            f = rand_scalar_field(ctx, rng)
            i, j, kk = (rng.randrange(ctx.chart.n) for _ in range(3))
            lhs = cd.nabla_value(f, (i, j, kk), p).get((), 0) \
                - cd.nabla_value(f, (j, i, kk), p).get((), 0)
            rhs = 0
            for l in range(ctx.chart.n):
                rhs -= cv.base[(l, kk, i, j)] * cd.nabla_value(f, (l,), p).get((), 0)
            worst = max(worst, abs(lhs - rhs))
            if abs(lhs) > 1e-10:
                saw_nonzero = True
        note = "left side nonzero at a probe" if saw_nonzero else "left side zero (flat)"
        out.append(_result("warning-case", stmt, p, worst, ctx.tolerance(1e-8), note=note))
    return out


def check_covariant_product(ctx):
    stmt = "covariant product: bracket example, unit, associativity"
    rng = ctx.rng("covprod")
    out = []
    for p in ctx.probes[:2]:
        V = rand_vector_field(ctx, rng)
        W = rand_vector_field(ctx, rng)
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
        for kk in range(ctx.chart.n):
            acc = 0
            jW = W.comp_jet((kk,), p, 1)
            jV = V.comp_jet((kk,), p, 1)
            for i in range(ctx.chart.n):
                ei = tuple(1 if t == i else 0 for t in range(ctx.chart.n))
                acc += Vv.get((i,), 0) * jW.partial(ei) - Wv.get((i,), 0) * jV.partial(ei)
            rhs[(kk,)] = rhs.get((kk,), 0) + acc
        res1 = cd._dict_residual(lhs, rhs)
        out.append(_result("covariant-product-bracket",
                           "V(.)W - W(.)V = V(x)W - W(x)V + [V,W]", p, res1,
                           ctx.tolerance(1e-9)))
        one = cd.tensor_field(ctx.chart, 0, {(): 1})
        oy = cd.covariant_product_value(one, W, p)
        res2 = cd._dict_residual(oy, Wv)
        out.append(_result("covariant-product-unit", "1 (.) Y = Y", p, res2,
                           ctx.tolerance(1e-12)))
        X = rand_vector_field(ctx, rng)
        xy = cd.covariant_product(X, V, p, out_order=2)
        l = cd.covariant_product(cd.mixed_tensor_fields(ctx.chart, xy, p, 2), W, p, 0)
        yz = cd.covariant_product(V, W, p, out_order=1)
        r2 = cd.covariant_product(X, cd.mixed_tensor_fields(ctx.chart, yz, p, 1), p, 0)
        lv = {kk: j.value for kk, j in l.items()}
        rv = {kk: j.value for kk, j in r2.items()}
        out.append(_result("covariant-product-assoc",
                           "(X(.)Y)(.)Z = X(.)(Y(.)Z)", p, cd._dict_residual(lv, rv),
                           ctx.tolerance(1e-7)))
    return out


def check_exterior_derivative(ctx):
    stmt = "exterior derivative: d(df) = 0 and connection independence"
    if not ctx.chart.fiber_is_tangent:
        return [_skip("exterior-derivative", stmt, "non-tangent fiber")]
    rng = ctx.rng("extder")
    out = []
    for p in ctx.probes[:2]:
        fj = rand_scalar_field(ctx, rng).comp_jet((), p, 2)
        df = cd.jet_field(ctx.chart, (cd.FD,), {(i,): fj.derivative(i)
                                               for i in range(ctx.chart.n)}, p, 1)
        ddf = cd.exterior_derivative(df, p, out_order=0)
        res = max((abs(j.value) for j in ddf.comps.values()), default=0)
        out.append(_result("d-squared-zero", "d(df) = 0", p, res, ctx.tolerance(1e-9)))
        om = rand_form_field(ctx, rng, 1)
        d1 = cd.exterior_derivative(om, p, out_order=0)
        pert = _perturbed_chart(ctx.chart)
        om2 = cd.form_field(pert, 1, {(i,): om.comps[(i,)] for i in range(ctx.chart.n)
                                      if (i,) in om.comps})
        d2 = cd.exterior_derivative(om2, p, out_order=0)
        worst = 0
        for idx in set(d1.comps) | set(d2.comps):
            a = d1.comps.get(idx)
            b = d2.comps.get(idx)
            worst = max(worst, abs((0 if a is None else a.value) - (0 if b is None else b.value)))
        out.append(_result("d-connection-independent",
                           "d omega agrees across torsion-free connections", p,
                           worst, ctx.tolerance(1e-8)))
    return out


def _perturbed_chart(chart):
    """A second torsion-free connection on the same chart: Gamma + symmetric
    polynomial perturbation, added to the chart's own symbol jets."""
    n, names = chart.n, chart.names
    bumps = {(i, j): [ex.parse(f"{kk + 1}/8*{names[i]}*{names[j]}", names)
                      for kk in range(n)] for i in range(n) for j in range(i, n)}

    def base(p, order):
        gam = chart._symbols(p, order)
        out = [[None] * n for _ in range(n)]
        for (i, j), bump in bumps.items():
            out[i][j] = out[j][i] = [g + ex.eval_jet(e, p, order)
                                     for g, e in zip(gam[i][j], bump)]
        return out

    return chart._derived(chart.name + "+bump", base_table=base)


# ---------------------------------------------------------------------------
# atomic checks.

def check_pbw(ctx):
    out = []
    n, d = ctx.chart.n, ctx.chart.d
    p = ctx.probes[0]
    r, k = ctx.r, ctx.k
    # kernel basis: count and annihilation
    stmt = "kernel basis elements annihilate every monomial probe"
    kb = at.kernel_basis(ctx.chart, p, r, k)
    want = at.kernel_basis_count(n, d, r, k)
    out.append(_result("pbw-kernel-count",
                       "kernel basis count = (dim tensor - dim sym) * C(d,k)",
                       p, abs(len(kb) - want), 0))
    worst = 0
    for _label, el in kb:
        worst = max(worst, op.probe_annihilation_residual(ctx.chart, el, p, r, k))
    out.append(_result("pbw-kernel-annihilation", stmt, p, worst,
                       ctx.tolerance(1e-8)))
    # image rank
    stmt2 = "probe matrix of the coordinate basis has PBW rank C(n+r,n)C(d,k)"
    if ctx.mode == RATIONAL:
        rows = []
        probes = [probe for _T, _L, probe in at.monomial_probes(ctx.chart, p, r, k)]
        for el in _op_elems(ctx, r, k):
            rows.append([at.phi_apply(el, probe, p) for probe in probes])
        rank = len(row_reduce(rows)[1])
        out.append(_result("pbw-image-rank", stmt2, p,
                           abs(rank - at.pbw_dimension(n, d, r, k)), 0))
    else:
        out.append(_skip("pbw-image-rank", stmt2, "rank check runs in rational mode"))
    # to_pbw round trip on sorted lifts
    stmt3 = "to_pbw of a PBW lift returns the unit coefficient vector"
    worst = 0
    for (I, K) in at.pbw_keys(n, d, r, k):
        cur = at.to_pbw(ctx.chart, basis_element(n, d, I, K), p, r, k)
        expect = {(I, K): 1}
        worst = max(worst, cd._dict_residual(cur.coeffs, expect))
    out.append(_result("pbw-roundtrip", stmt3, p, worst, 0))
    # flat collapse: to_pbw depends only on symmetrization
    stmt4 = "flat chart: to_pbw(v box alpha) depends only on the symmetrization of v"
    if _is_flat(ctx):
        rng = ctx.rng("flatcollapse")
        worst = 0
        for _ in range(4):
            w = rand_word(ctx, rng, min(3, r))
            K = anti_indices(d, k)[0]
            perm = tuple(sorted(w, key=lambda _: rng.random()))
            a = at.to_pbw(ctx.chart, basis_element(n, d, w, K), p, r, k)
            b = at.to_pbw(ctx.chart, basis_element(n, d, perm, K), p, r, k)
            worst = max(worst, (a - b).max_abs())
        out.append(_result("pbw-flat-collapse", stmt4, p, worst, 0))
    else:
        out.append(_skip("pbw-flat-collapse", stmt4, "chart is not flat"))
    return out


def check_curvature_quotient(ctx):
    stmt = "(a(x)b - b(x)a) box alpha maps to minus the curvature action on alpha"
    p = ctx.probes[0]
    n, d = ctx.chart.n, ctx.chart.d
    cv = curvature(ctx.chart, p)
    worst = 0
    for a in range(n):
        for b in range(n):
            for K in anti_indices(d, min(ctx.k, d)):
                x = basis_element(n, d, (a, b), K) + basis_element(n, d, (b, a), K).scale(-1)
                lhs = at.to_pbw(ctx.chart, x, p, 2, len(K))
                M = [[cv.fiber[(bb, aa, a, b)] for aa in range(d)] for bb in range(d)]
                acted = at._apply_end_to_kvector(M, {K: 1})
                rhs = at.AtomicCurrent(p, 2, len(K), d)
                for K2, c in acted.items():
                    rhs.add_term((), K2, -c)
                worst = max(worst, (lhs - rhs).max_abs())
    return [_result("curvature-quotient", stmt, p, worst, ctx.tolerance(1e-8))]


def check_coalgebra(ctx):
    out = []
    rng = ctx.rng("coalgebra")
    p = ctx.probes[0]
    n, d = ctx.chart.n, ctx.chart.d
    r, k = ctx.r, ctx.k
    # duality
    stmt = "coproduct duality: (omega (x) eta)(Delta T) = T(omega ^ eta)"
    worst = 0
    trials = ctx.n_trials(50)
    for _ in range(trials):
        kk = k if k <= d else d
        k1 = rng.randint(0, kk)
        T = rand_current(ctx, rng, r, kk)
        om = rand_form_field(ctx, rng, k1)
        et = rand_form_field(ctx, rng, kk - k1)
        lhs = at.coproduct_pair_evaluate(T, om, et)
        rhs = at.phi_apply(T, cd.wedge_fields(om, et), p)
        worst = max(worst, abs(lhs - rhs))
    out.append(_result("coalgebra-duality", stmt, p, worst, ctx.tolerance(1e-8)))
    # coassociativity/counit at coefficient level (exact in either mode)
    stmt2 = "current coproduct coassociative with counit, exact at the coefficient level"
    worst = 0
    T = rand_current(ctx, rng, r, min(k, d))
    pairs = delta_coproduct(T)
    lhs, rhs = {}, {}
    for ((kl, kr)), c in pairs.items():
        for (kll, klr), c2 in delta_coproduct(basis_element(n, d, *kl)).items():
            lhs[(kll, klr, kr)] = lhs.get((kll, klr, kr), 0) + c * c2
        for (krl, krr), c2 in delta_coproduct(basis_element(n, d, *kr)).items():
            rhs[(kl, krl, krr)] = rhs.get((kl, krl, krr), 0) + c * c2
    worst = max(worst, cd._dict_residual(lhs, rhs))
    left = {}
    for ((kl, kr)), c in pairs.items():
        if kl == ((), ()):
            left[kr] = left.get(kr, 0) + c
    worst = max(worst, cd._dict_residual(left, T.coeffs))
    out.append(_result("coalgebra-counit", stmt2, p, worst, 0))
    # connection independence
    stmt3 = "coproduct is connection independent (two torsion-free connections)"
    if ctx.chart.fiber_is_tangent:
        pert = _perturbed_chart(ctx.chart)
        worst = 0
        for _ in range(ctx.n_trials(6)):
            kk = min(k, d)
            k1 = rng.randint(0, kk)
            T = rand_current(ctx, rng, r, kk)
            om = rand_form_field(ctx, rng, k1)
            et = rand_form_field(ctx, rng, kk - k1)
            lhs = at.coproduct_pair_evaluate(T, om, et)

            # express the same functional in the perturbed connection's PBW
            # basis; Phi reads the connection from the form, so rebuild the probe on T's chart
            def eval_fn(_probe, Tm, L, T=T, terms=at.phi_terms(T)):
                own = at.probe_form(ctx.chart, p, Tm, L)
                return at.phi_apply(T, own, p, terms)

            T2 = op.resolve_functional(pert, p, r, kk, eval_fn)
            om2 = cd.form_field(pert, k1, _incr_comps(om))
            et2 = cd.form_field(pert, kk - k1, _incr_comps(et))
            rhs = at.coproduct_pair_evaluate(T2, om2, et2)
            worst = max(worst, abs(lhs - rhs))
        out.append(_result("coalgebra-connection-independent", stmt3, p, worst,
                           ctx.tolerance(1e-7)))
    else:
        out.append(_skip("coalgebra-connection-independent", stmt3, "non-tangent fiber"))
    return out


def _incr_comps(field):
    return {K: c for K, c in field.comps.items()
            if all(K[i] < K[i + 1] for i in range(len(K) - 1))}


def check_f_action(ctx):
    out = []
    rng = ctx.rng("faction")
    p = ctx.probes[0]
    stmt = "module action duality: (f corner T)(omega) = T(f omega)"
    worst = 0
    for _ in range(ctx.n_trials(30)):
        T = rand_current(ctx, rng, ctx.r, min(ctx.k, ctx.chart.d))
        f = rand_scalar_field(ctx, rng)
        om = rand_form_field(ctx, rng, T.k)
        fT = op.f_lrcorner(f, p)(T)
        lhs = at.phi_apply(fT, om, p)
        fom = cd.Field(ctx.chart, om.slots,
                       {i: ex.ex_mul(f.comps[()], c) for i, c in om.comps.items()})
        rhs = at.phi_apply(T, fom, p)
        worst = max(worst, abs(lhs - rhs))
    out.append(_result("f-action-duality", stmt, p, worst, ctx.tolerance(1e-9)))
    stmt2 = "f == 1 acts as the identity; f(p) = 0 kills the Dirac mass"
    one = cd.scalar_field(ctx.chart, 1)
    T = rand_current(ctx, rng, ctx.r, min(ctx.k, ctx.chart.d))
    res = (op.f_lrcorner(one, p)(T) - T).max_abs()
    D = at.AtomicCurrent(p, 0, 0, ctx.chart.d)
    D.add_term((), (), 1)
    van = cd.scalar_field(ctx.chart, ex.ex_sub(ex.Sym(0, ctx.chart.names[0]),
                                               ex.Const(p[0])))
    res = max(res, op.f_lrcorner(van, p)(D).max_abs())
    out.append(_result("f-action-unit", stmt2, p, res, 0))
    return out


# ---------------------------------------------------------------------------
# operator checks.

def _op_elems(ctx, r=None, k=None):
    n, d = ctx.chart.n, ctx.chart.d
    r = ctx.r if r is None else r
    out = []
    for w in all_words(n, r):
        for kk in (range(d + 1) if k is None else [k]):
            for K in anti_indices(d, kk):
                out.append(basis_element(n, d, w, K))
    return out


def check_operator_identities(ctx):
    out = []
    rng = ctx.rng("operators")
    elems = _op_elems(ctx)
    for p in ctx.probes[: ctx.n_trials(5)]:
        X = rand_kvector_field(ctx, rng, 1)
        X2 = rand_kvector_field(ctx, rng, 1)
        Y = rand_vector_field(ctx, rng)
        Y2 = rand_vector_field(ctx, rng)
        EX = op.op_E(X, p)
        DY = op.op_D(Y, p)
        lhs = EX.compose(op.op_E(X2, p))
        rhs = op.op_E(cd.wedge_fields(X, X2), p)
        out.append(_result("op-EE", "E_X o E_X' = E_{X ^ X'}", p,
                           op.endo_residual(lhs, rhs, elems), ctx.tolerance(1e-9)))
        lhs = DY.compose(op.op_D(Y2, p))
        cp = cd.covariant_product(Y2, Y, p, out_order=ctx.r + 1)
        rhs = op.op_D(cd.mixed_tensor_fields(ctx.chart, cp, p, ctx.r + 1), p)
        out.append(_result("op-DD", "D_Y o D_Y' = D_{Y'_(1) nabla_{Y'_(2)} Y}", p,
                           op.endo_residual(lhs, rhs, elems), ctx.tolerance(1e-8)))
        lhs = EX.compose(DY)
        nbX = cd.covderiv(Y, X, p, ctx.r + 1)
        nXf = cd.jet_field(ctx.chart, (cd.FU,), nbX, p, ctx.r + 1)
        rhs = DY.compose(EX) + op.op_E(nXf, p)
        out.append(_result("op-ED", "E_X o D_Y = D_{Y_(1)} o E_{nabla_{Y_(2)} X}", p,
                           op.endo_residual(lhs, rhs, elems), ctx.tolerance(1e-8)))
    return out


def check_adjoint_identities(ctx):
    stmt_need = "adjoint identities need a metric"
    if ctx.chart.metric is None:
        return [_skip("op-adjoints", stmt_need, "no metric")]
    out = []
    rng = ctx.rng("adjoints")
    elems = _op_elems(ctx)
    if not _stars_run(ctx, ctx.probes[0]):
        return [_skip("op-adjoints", stmt_need,
                      "rational mode needs an orthonormal chart for star routes")]
    if not ctx.chart.fiber_is_tangent:
        return [_skip("op-adjoints", stmt_need, "needs metric + tangent fiber")]
    for p in ctx.probes[: ctx.n_trials(5)]:
        X = rand_kvector_field(ctx, rng, 1)
        Y = rand_kvector_field(ctx, rng, 1)
        EX = op.op_E(X, p)
        EdX = op.op_Edag(X, p)
        EdY = op.op_Edag(Y, p)
        anti = EX.compose(EdY) + EdY.compose(EX)
        acc = ex.Const(0)
        for i in range(ctx.chart.n):
            for j in range(ctx.chart.n):
                acc = ex.ex_add(acc, ex.ex_mul(X.comps.get((i,), ex.Const(0)),
                                               ex.ex_mul(ctx.chart.metric[i][j],
                                                         Y.comps.get((j,), ex.Const(0)))))
        rhs = op.f_lrcorner(cd.Field(ctx.chart, (), {(): acc}), p)
        out.append(_result("op-anticommutator", "{E_X, Edag_Y} = <X,Y> corner", p,
                           op.endo_residual(anti, rhs, elems), ctx.tolerance(1e-8)))
        lhs = EdX.compose(EdY)
        rhs = op.op_Edag(cd.wedge_fields(Y, X), p)
        out.append(_result("op-EdagEdag", "Edag_X o Edag_X' = Edag_{X' ^ X}", p,
                           op.endo_residual(lhs, rhs, elems), ctx.tolerance(1e-9)))
        r1 = op.endo_residual(EdX, op.op_Edag(X, p, route="conjugate"), elems)
        out.append(_result("op-Edag-routes",
                           "Edag contraction route = perp conjugation route", p, r1,
                           ctx.tolerance(1e-9)))
        Edd = op.adjoint_of_Edag(ctx.chart, EdX, 1, p)
        out.append(_result("op-adjoint-involution", "(Edag)dag = E", p,
                           op.endo_residual(Edd, EX, elems), ctx.tolerance(1e-9)))
        # Ddag commutators
        Xv = rand_vector_field(ctx, rng)
        Yv = rand_vector_field(ctx, rng)
        DX = op.op_D(Xv, p)
        DdY = op.op_Ddag(Yv, p, budget=ctx.r + 2)
        lhs = DX.compose(DdY) + DdY.compose(DX).scaled(-1)
        RXY = op.op_D(cd.add_fields(cd.product_field(Yv, Xv),
                                    cd.scale_field(cd.product_field(Xv, Yv), -1)), p)
        br = _bracket_field(Xv, Yv, p, ctx.r + 3)
        Dbr = op.op_D(br, p)
        divY = op.divergence_field(Yv, p, budget=ctx.r + 3)
        xd = None
        for i in range(ctx.chart.n):
            ji = Xv.comp_jet((i,), p, ctx.r + 2)
            term = ji * divY.comps[()].derivative(i)
            xd = term if xd is None else xd + term
        XdivY = cd.jet_field(ctx.chart, (), {(): xd}, p, ctx.r + 2)
        rhs = op.f_lrcorner(XdivY, p) + RXY.scaled(-1) + Dbr
        out.append(_result("op-DDdag",
                           "[D_X, Ddag_Y] = X(div Y) corner - R_{X,Y} + D_{[X,Y]}", p,
                           op.endo_residual(lhs, rhs, elems), ctx.tolerance(1e-7)))
        DdX = op.op_Ddag(Xv, p, budget=ctx.r + 2)
        lhs = DdX.compose(DdY) + DdY.compose(DdX).scaled(-1)
        divbr = op.divergence_field(br, p, budget=ctx.r + 2)
        rhs = op.f_lrcorner(divbr, p).scaled(-1) + RXY + Dbr.scaled(-1)
        out.append(_result("op-DdagDdag",
                           "[Ddag_X, Ddag_Y] = -div[X,Y] corner + R_{X,Y} - D_{[X,Y]}", p,
                           op.endo_residual(lhs, rhs, elems), ctx.tolerance(1e-7)))
        # tensor-case recursion for Ddag
        T2 = cd.product_field(Xv, Yv)
        lhs = op.op_Ddag(T2, p, budget=ctx.r + 2)
        nXY = cd.covderiv(Xv, Yv, p, ctx.r + 2)
        corr = cd.mixed_tensor_fields(ctx.chart, nXY, p, ctx.r + 2)
        rhs = DdX.compose(DdY) + op.op_Ddag(corr, p, budget=ctx.r + 1).scaled(-1)
        out.append(_result("op-Ddag-tensor",
                           "Ddag_{X(x)Y} = Ddag_X o Ddag_Y - Ddag_{nabla_X Y}", p,
                           op.endo_residual(lhs, rhs, elems), ctx.tolerance(1e-7)))
    return out


def _metric_is_identity(chart, p):
    if chart.metric is None:
        return False
    g = chart.metric_value(p)
    return all(g[i][j] == (1 if i == j else 0)
               for i in range(chart.n) for j in range(chart.n))


def _stars_run(ctx, p):
    """Whether the checks that take the star routes (op_Edag, op_Ddag, perp,
    the adjoints) run at p: always in float mode, and in rational mode only
    where g(p) = I, the one case where those routes stay exact."""
    return ctx.mode == FLOAT or _metric_is_identity(ctx.chart, p)


def _bracket_field(X, Y, p, budget):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k as a jet-backed field at p."""
    chart = X.chart
    comps = {}
    for kk in range(chart.n):
        acc = Jet.zero(JetSpace(chart.n, budget), p.mode)
        for i in range(chart.n):
            acc = acc + X.comp_jet((i,), p, budget) \
                * Y.comp_jet((kk,), p, budget + 1).derivative(i)
            acc = acc - Y.comp_jet((i,), p, budget) \
                * X.comp_jet((kk,), p, budget + 1).derivative(i)
        comps[(kk,)] = acc
    return cd.jet_field(chart, (cd.TU,), comps, p, budget)


def check_clifford(ctx):
    stmt = "Clifford factorization: signed product of (E + Edag) over a frame equals perp"
    if ctx.chart.metric is None:
        return [_skip("op-clifford", stmt, "no metric")]
    p = ctx.probes[0]
    if not _stars_run(ctx, p):
        return [_skip("op-clifford", stmt, "rational mode needs an orthonormal chart")]
    if not _metric_is_identity(ctx.chart, p):
        return [_skip("op-clifford", stmt,
                      "factorization stated in an orthonormal frame; run on flat specs")]
    if not ctx.chart.fiber_is_tangent:
        return [_skip("op-clifford", stmt, "needs metric + tangent fiber")]
    n, d = ctx.chart.n, ctx.chart.d
    P = op.op_perp(ctx.chart, p)
    prod = None
    for i in range(n):
        Fi = cd.kvector_field(ctx.chart, 1, {(i,): 1})
        t = op.op_E(Fi, p) + op.op_Edag(Fi, p)
        prod = t if prod is None else prod.compose(t)
    worst = 0
    for kk in range(n + 1):
        sgn = (-1) ** (kk * (kk - 1) // 2)
        for K in anti_indices(d, kk):
            for w in [(), (0,)]:
                x = basis_element(n, d, w, K)
                worst = max(worst, (prod(x).scale(sgn) - P(x)).max_abs())
    return [_result("op-clifford", stmt, p, worst, ctx.tolerance(1e-12))]


def check_perp_duality(ctx):
    """perp(x) has exterior degree n - k when x has degree k, so it pairs
    with (n-k)-forms omega while x pairs with star(omega)."""
    stmt = "perp duality: Phi(perp x)(omega) = Phi(x)(star omega)"
    if ctx.chart.metric is None or not ctx.chart.fiber_is_tangent:
        return [_skip("op-perp-duality", stmt, "needs metric + tangent fiber")]
    p = ctx.probes[0]
    if not _stars_run(ctx, p):
        return [_skip("op-perp-duality", stmt, "rational mode needs an orthonormal chart")]
    rng = ctx.rng("perp")
    n = ctx.chart.n
    P = op.op_perp(ctx.chart, p)
    worst = 0
    for kk in range(n + 1):
        for K in anti_indices(n, kk):
            om = rand_form_field(ctx, rng, n - kk)
            st = op.star_form_jets(om, p, 1)
            for w in [(), (0,)]:
                x = basis_element(n, n, w, K)
                lhs = at.phi_apply(P(x), om, p)
                rhs = at.phi_apply(x, st, p)
                worst = max(worst, abs(lhs - rhs))
    return [_result("op-perp-duality", stmt, p, worst, ctx.tolerance(1e-8))]


def check_sharp(ctx):
    out = []
    rng = ctx.rng("sharp")
    p = ctx.probes[0]
    # sharp(x, y) keeps the jet budget min(x, y) - (top tensor order of y):
    # b sharp c (orders 1 and 2) keeps B - 2 and has order 3, so
    # a sharp (b sharp c) keeps B - 5; B = 5 is the least budget that works
    B = 5
    kd = min(1, ctx.chart.d)

    def mk(order, k):
        tf = rand_tensor_field(ctx, rng, order)
        ef = rand_kvector_field(ctx, rng, k)
        return op.SharpElement.from_fields(tf, ef, p, B)

    a, b, c = mk(1, kd), mk(1, kd), mk(2, 0)
    u = op.unit_sharp(ctx.chart, p, B)

    def sharp_resid(x, y):
        return cd._dict_residual({kk: j.value for kk, j in x.coeffs.items()},
                                 {kk: j.value for kk, j in y.coeffs.items()})

    out.append(_result("sharp-unit", "unit element is a two-sided sharp unit", p,
                       max(sharp_resid(op.sharp(a, u), a), sharp_resid(op.sharp(u, a), a)),
                       ctx.tolerance(1e-12)))
    ab = op.sharp(a, b)
    l = op.sharp(ab, c)
    r = op.sharp(a, op.sharp(b, c))
    out.append(_result("sharp-assoc", "sharp product is associative", p,
                       sharp_resid(l, r), ctx.tolerance(1e-7)))
    elems = _op_elems(ctx, r=1)
    lhs = op.op_DE(ab)
    rhs = op.op_DE(a).compose(op.op_DE(b))
    out.append(_result("op-DE-action", "DE_{a sharp b} = DE_a o DE_b", p,
                       op.endo_residual(lhs, rhs, elems), ctx.tolerance(1e-7)))
    out.append(_result("op-DE-unit", "DE of the unit is the identity", p,
                       op.endo_residual(op.op_DE(u), op.identity_endo(ctx.chart.n, ctx.chart.d),
                                        elems), ctx.tolerance(1e-12)))
    metric_ok = ctx.chart.metric is not None and _stars_run(ctx, p)
    if metric_ok and ctx.chart.fiber_is_tangent:
        lhs = op.op_DEdag(ab)
        rhs = op.op_DEdag(a).compose(op.op_DEdag(b))
        sgn = (-1) ** (kd * kd)
        out.append(_result("op-DEdag-sign",
                           "DEdag_{a sharp b} = (-1)^{|alpha||beta|} DEdag_a o DEdag_b", p,
                           op.endo_residual(lhs, rhs.scaled(sgn), elems), ctx.tolerance(1e-7)))
    elif metric_ok:
        out.append(_skip("op-DEdag-sign", "DEdag sign law", "needs metric + tangent fiber"))
    else:
        out.append(_skip("op-DEdag-sign", "DEdag sign law", "needs metric (orthonormal in rational mode)"))
    return out


def check_kernel_preservation(ctx):
    stmt = "every distinguished endomorphism preserves ker Phi"
    rng = ctx.rng("kerpres")
    p = ctx.probes[0]
    r, k = ctx.r, min(ctx.k, ctx.chart.d)
    if k == 0:
        k = min(1, ctx.chart.d)
    kb = at.kernel_basis(ctx.chart, p, r, k)
    X = rand_kvector_field(ctx, rng, 1)
    Y = rand_vector_field(ctx, rng)
    f = rand_scalar_field(ctx, rng)
    endos = [("E", op.op_E(X, p), r, k + 1),
             ("D", op.op_D(Y, p), r + 1, k),
             ("f", op.f_lrcorner(f, p), r, k),
             ("trDEdag", op.trace_DEdag_endo(ctx.chart, p), r + 1, k - 1)]
    if ctx.chart.metric is not None and ctx.chart.fiber_is_tangent and _stars_run(ctx, p):
        endos.append(("Edag", op.op_Edag(X, p), r, k - 1))
        endos.append(("Ddag", op.op_Ddag(Y, p, budget=r + 2), r + 1, k))
        endos.append(("perp", op.op_perp(ctx.chart, p), r, None))
    worst = 0
    for name, endo, rp, kp in endos:
        for _label, kel in kb:
            out_el = endo(kel)
            degs = out_el.degrees()
            for kk in (degs if kp is None else [kp]):
                if kk < 0:
                    continue
                worst = max(worst, op.probe_annihilation_residual(
                    ctx.chart, out_el, p, rp, kk))
    return [_result("kernel-preservation", stmt, p, worst, ctx.tolerance(1e-8))]


def check_boundary(ctx):
    out = []
    rng = ctx.rng("boundary")
    p = ctx.probes[0]
    if not ctx.chart.fiber_is_tangent:
        return [_skip("boundary", "boundary checks", "non-tangent fiber")]
    n = ctx.chart.n
    r, k = ctx.r, min(max(ctx.k, 1), n)
    # hand value on flat
    if _is_flat(ctx) and n >= 2:
        T = at.AtomicCurrent(p, 0, 2, ctx.chart.d)
        T.add_term((), (0, 1), 1)
        bT = op.boundary(ctx.chart, T)
        expect = {((0,), (1,)): 1, ((1,), (0,)): -1}
        out.append(_result("boundary-hand-value",
                           "flat: boundary(Dirac box e0^e1) = +(e0,{1}) - (e1,{0})", p,
                           cd._dict_residual(bT.coeffs, expect), ctx.tolerance(1e-10)))
    # duality, square zero, counit
    worst_d, worst_sq, worst_eps = 0, 0, 0
    for _ in range(ctx.n_trials(30)):
        T = rand_current(ctx, rng, r, k)
        om = rand_form_field(ctx, rng, k - 1)
        bT = op.boundary(ctx.chart, T)
        lhs = at.phi_apply(bT, om, p)
        rhs = at.phi_apply(T, cd.exterior_derivative(om, p, out_order=T.r), p)
        worst_d = max(worst_d, abs(lhs - rhs))
        worst_sq = max(worst_sq, op.boundary(ctx.chart, bT).max_abs())
        if k == 1:
            worst_eps = max(worst_eps, abs(at.counit(bT)))
    T1 = rand_current(ctx, rng, r, 1)
    worst_eps = max(worst_eps, abs(at.counit(op.boundary(ctx.chart, T1))))
    out.append(_result("boundary-duality", "(dT)(omega) = T(d omega)", p, worst_d,
                       ctx.tolerance(1e-8)))
    out.append(_result("boundary-squared", "boundary o boundary = 0", p, worst_sq,
                       ctx.tolerance(1e-9)))
    out.append(_result("boundary-counit", "counit o boundary = 0 on degree 1", p,
                       worst_eps, ctx.tolerance(1e-10)))
    # trace route
    worst_t = 0
    for _ in range(ctx.n_trials(4)):
        T = rand_current(ctx, rng, r, k)
        worst_t = max(worst_t, (op.boundary(ctx.chart, T)
                                - op.boundary_via_trace(ctx.chart, T)).max_abs())
    out.append(_result("boundary-trace-route",
                       "duality route equals the tr(DEdag) trace route", p, worst_t,
                       ctx.tolerance(1e-8)))
    # co-Leibniz through probe duality
    worst_cl = 0
    for _ in range(ctx.n_trials(5)):
        kk = min(2, n)
        T = rand_current(ctx, rng, r, kk)
        om = rand_form_field(ctx, rng, 0)
        et = rand_form_field(ctx, rng, kk - 1)
        bT = op.boundary(ctx.chart, T)
        lhs = at.coproduct_pair_evaluate(bT, om, et)
        dom = cd.exterior_derivative(om, p, out_order=T.r)
        det_ = cd.exterior_derivative(et, p, out_order=T.r)
        rhs = at.coproduct_pair_evaluate(T, dom, et) + at.coproduct_pair_evaluate(T, om, det_)
        worst_cl = max(worst_cl, abs(lhs - rhs))
    out.append(_result("boundary-co-leibniz",
                       "Delta(dT) pairs with d(omega ^ eta) = d omega ^ eta + (-1)^{|omega|} omega ^ d eta",
                       p, worst_cl, ctx.tolerance(1e-7)))
    # trace lift report
    rep = op.trace_DEdag_lift_check(ctx.chart, p, r, k)
    out.append(_result("trace-lift-kernel",
                       "tr(DEdag) lift maps ker Phi into ker Phi", p,
                       rep["kernel_preservation"], ctx.tolerance(1e-8)))
    out.append(_result("trace-lift-coproduct",
                       "tr(DEdag) lift satisfies the signed co-derivation law with Delta",
                       p, rep["delta_commutation"], ctx.tolerance(1e-9)))
    out.append(_result("trace-lift-order-degree",
                       "tr(DEdag) raises order by one and drops degree by one", p,
                       0 if rep["order_degree_ok"] else 1, 0))
    if _is_flat(ctx) and ctx.chart.metric is not None:
        worst_disp = 0
        for w in all_words(n, 2):
            for K in anti_indices(n, k):
                worst_disp = max(worst_disp, op.gamma_gamma_local_frame(
                    ctx.chart, p, w, K).max_abs())
        out.append(_result("trace-gamma-gamma-flat",
                           "nonempty-word local-frame expansion vanishes on flat orthonormal charts",
                           p, worst_disp, 0))
    # tr^2 != 0 as a lift on curved charts; it lowers the degree by two, so
    # below dimension 2 (degree at most 1) it is zero on every element
    if not _is_flat(ctx):
        stmt = "tr(DEdag)^2 is nonzero as a lift while boundary^2 = 0"
        if n < 2:
            out.append(_skip("trace-lift-not-differential", stmt,
                             "needs dimension >= 2: tr^2 lowers the degree by two"))
        else:
            endo = op.trace_DEdag_endo(ctx.chart, p)
            sq = endo(endo(basis_element(n, n, (1,), (0, 1)))).max_abs()
            out.append(_result("trace-lift-not-differential", stmt, p,
                               0 if sq > 1e-9 else 1, 0,
                               note=f"|tr^2 x| = {float(sq):.3e}"))
    # codifferential twin
    if ctx.chart.metric is not None and ctx.mode == FLOAT:
        worst_tw = _codifferential_twin_residual(ctx, p)
        out.append(_result("codifferential-twin",
                           "tr(DE) on the dual fiber is probe-dual to -delta, delta = (-1)^k star^{-1} d star",
                           p, worst_tw, ctx.tolerance(1e-7)))
    else:
        out.append(_skip("codifferential-twin", "tr(DE) dual to -delta",
                         "float mode with metric"))
    return out


def _codifferential_twin_residual(ctx, p):
    chart = ctx.chart
    n = chart.n
    dch = dual_chart(chart)
    trDE = op.trace_DE_endo(dch, p)
    worst = 0
    for kdeg in range(0, min(2, n)):
        for w in [(), (0,)]:
            xs = [basis_element(n, n, w, K) for K in anti_indices(n, kdeg)]
            txs = [(x, trDE(x)) for x in xs]
            # the raised probe and its raised codifferential depend on
            # (kdeg, len(w), T, L) only: build each once, read it for every x
            multis = at._multi_indices(n, len(w) + 1).values()
            for T in itertools.chain.from_iterable(multis):
                for L in anti_indices(n, kdeg + 1):
                    mono = ex.monomial_form(p, T, chart.names)
                    omf = cd.form_field(chart, kdeg + 1, {L: mono})
                    omsharp = _raise_jet_form(dch, omf, p, len(w) + 1)
                    dl = op.codifferential_form(omf, p, budget=len(w) + 1)
                    mdl = _raise_jet_form(dch, dl, p, len(w) + 1)
                    for x, tx in txs:
                        lhs = at.phi_apply(tx, omsharp, p)
                        rhs = -at.phi_apply(x, mdl, p)
                        worst = max(worst, abs(lhs - rhs))
    return worst


def _raise_jet_form(dch, form, p, budget):
    """``form`` raised by its chart's metric, as a jet-backed field on ``dch``."""
    comps = op.raise_form_jets(form, p, budget)
    return cd.jet_field(dch, (cd.FD,) * len(form.slots),
                        cd.antisymmetrize(comps, Jet.__neg__), p, budget)


def check_trace_frame_independence(ctx):
    stmt = "tr(DEdag) is independent of the frame used (coordinate vs generic smooth frame)"
    if ctx.chart.n != 2:
        return [_skip("trace-frame-independence", stmt, "generic-frame variant coded for n = 2")]
    p = ctx.probes[0]
    names = ctx.chart.names
    gen_frame = [cd.vector_field(ctx.chart, {0: "1", 1: f"{names[0]}"}),
                 cd.vector_field(ctx.chart, {0: "0", 1: "1"})]
    gen_cofr = [cd.form_field(ctx.chart, 1, {(0,): "1"}),
                cd.form_field(ctx.chart, 1, {(0,): f"0 - {names[0]}", (1,): "1"})]
    t0 = op.trace_DEdag_endo(ctx.chart, p)
    t1 = op.trace_DEdag_endo(ctx.chart, p, frame=gen_frame, coframe=gen_cofr)
    elems = _op_elems(ctx)
    return [_result("trace-frame-independence", stmt, p,
                    op.endo_residual(t0, t1, elems), ctx.tolerance(1e-7))]


def check_transitions(ctx):
    out = []
    p = ctx.probes[0]
    stmt = "identity chart change gives the identity transition matrix"
    if not ctx.chart.fiber_is_tangent:
        return [_skip("transition-identity", stmt, "non-tangent fiber")]
    ident = at.transition_matrix(ctx.chart, ctx.chart, list(ctx.chart.names), p,
                                 ctx.r, min(ctx.k, ctx.chart.n))
    worst = 0
    for key, row in ident.items():
        for k2, v in row.items():
            worst = max(worst, abs(v - (1 if key == k2 else 0)))
    out.append(_result("transition-identity", stmt, p, worst, ctx.tolerance(1e-12)))
    stmt2 = "Cech cocycle: g_CB g_BA = g_CA over three overlapping charts"
    if ctx.mode == RATIONAL:
        out.append(_skip("transition-cocycle", stmt2,
                         "bundled cocycle charts use trigonometric changes"))
        return out
    out.append(_cocycle_check(ctx, stmt2))
    return out


def _cocycle_check(ctx, stmt):
    # three charts on the round sphere: colatitude/longitude, stereographic
    # from the north pole, stereographic from the south pole
    r, k = 2, 1
    A = ChartConnection.from_metric(["theta", "phi"], [["1", "0"], ["0", "sin(theta)^2"]],
                                    [(0.6, 2.5), (0.2, 6.0)], name="s2-angles")
    B = ChartConnection.from_metric(
        ["X", "Y"],
        [["4/(1 + X^2 + Y^2)^2", "0"], ["0", "4/(1 + X^2 + Y^2)^2"]],
        [(-8.0, 8.0), (-8.0, 8.0)], name="s2-north")
    C = ChartConnection.from_metric(
        ["U", "V"],
        [["4/(1 + U^2 + V^2)^2", "0"], ["0", "4/(1 + U^2 + V^2)^2"]],
        [(-8.0, 8.0), (-8.0, 8.0)], name="s2-south")
    changeAB = ["cos(theta/2)/sin(theta/2)*cos(phi)", "cos(theta/2)/sin(theta/2)*sin(phi)"]
    changeAC = ["sin(theta/2)/cos(theta/2)*cos(phi)", "sin(theta/2)/cos(theta/2)*sin(phi)"]
    changeBC = ["X/(X^2 + Y^2)", "Y/(X^2 + Y^2)"]
    worst = 0
    for p in [(1.1, 0.8), (1.7, 1.9), (2.1, 0.5)]:
        p = A.resolve(p, FLOAT)
        gBA = at.transition_matrix(A, B, changeAB, p, r, k)
        q = B.resolve([ex.evaluate(ex.parse(c, A.names), p) for c in changeAB], FLOAT)
        gCB = at.transition_matrix(B, C, changeBC, q, r, k)
        gCA = at.transition_matrix(A, C, changeAC, p, r, k)
        comp = at.compose_transitions(gCB, gBA)
        worst = max(worst, at.transition_residual(comp, gCA))
    return _result("transition-cocycle", stmt, None, worst, ctx.tolerance(1e-7))


# ---------------------------------------------------------------------------
# Registry.

CHECKS = {
    "jets": [check_jets_fd, check_jets_product, check_jets_monomial, check_roundtrip],
    "multialg": [check_coassociativity, check_counit, check_hodge_algebra],
    "connection": [check_torsion_free, check_dualpath_gamma, check_metric_compat,
                   check_flat_lemma, check_dual_connection, check_curvature],
    "composition": [check_composition],
    "leibniz": [check_leibniz, check_shuffle, check_contraction, check_interior,
                check_cov_coproduct, check_even_order, check_warning_case],
    "fundamental-commutation": [check_fundamental],
    "covariant-product": [check_covariant_product],
    "exterior-derivative": [check_exterior_derivative],
    "pbw": [check_pbw],
    "coalgebra": [check_coalgebra],
    "curvature-quotient": [check_curvature_quotient],
    "f-action": [check_f_action],
    "operators": [check_operator_identities, check_adjoint_identities, check_clifford,
                  check_perp_duality, check_sharp, check_kernel_preservation,
                  check_trace_frame_independence],
    "boundary": [check_boundary],
    "transition": [check_transitions],
}

SUITE_DESCRIPTIONS = {
    "jets": ("jet arithmetic vs finite differences; Cauchy product; monomial deltas",
             "partial^S[(e-p)^T/T!](p) = delta_{S,T}"),
    "multialg": ("coproduct coassociativity/counit; Hodge star algebra",
                 "star-hat transpose = star inverse under the determinant pairing"),
    "connection": ("torsion, metric compatibility, higher-symbol recursion dual path, curvature",
                   "nabla_{e_I} e_j = Gamma^k_{I,j} e_k and its inductive recursion"),
    "composition": ("composition of higher covariant derivatives",
                    "nabla_v o nabla_w = nabla_{v_(1) (x) nabla-hat_{v_(2)} w}"),
    "leibniz": ("Leibniz, riffle-shuffle, contraction, interior product, parity facts",
                "nabla^j(omega ^ eta) = sum over riffle shuffle permutations"),
    "fundamental-commutation": ("the fundamental commutation identity",
                                "Fundamental Commutation Lemma"),
    "covariant-product": ("the covariant product as a unital associative algebra",
                          "V(.)W - W(.)V = V(x)W - W(x)V + [V,W]"),
    "exterior-derivative": ("d via antisymmetrized nabla; connection independence",
                            "d omega = sum_i e^i ^ nabla_{e_i} omega"),
    "pbw": ("kernel basis annihilation and count; image rank; flat collapse",
            "forms a basis of the kernel"),
    "coalgebra": ("coproduct duality with wedge; counit; connection independence",
                  "omega (x) eta (Delta T) = (omega ^ eta)(T)"),
    "curvature-quotient": ("the commutator-to-curvature relation in the quotient",
                           "Phi((a(x)b - b(x)a) box alpha + 1 box R_{a,b} alpha) = 0"),
    "f-action": ("the scalar module action and its lift",
                 "(f corner T)(omega) = T(f omega)"),
    "operators": ("interior/derivative actions, adjoints, Clifford factorization, smash product",
                  "E_X o E_X' = E_{X ^ X'} and companions"),
    "boundary": ("boundary operator on finitely supported currents",
                 "boundary dual to d; trace route tr(DEdag)"),
    "transition": ("PBW transition matrices between charts",
                   "trivially satisfies the Cech cocycle condition"),
}

SUITES = {name: fns for name, fns in CHECKS.items()}
SUITES["all"] = [fn for fns in CHECKS.values() for fn in fns]


def list_suites():
    rows = []
    for name in sorted(CHECKS) + ["all"]:
        if name == "all":
            rows.append(("all", "every suite below", ""))
        else:
            desc, anchor = SUITE_DESCRIPTIONS[name]
            rows.append((name, desc, anchor))
    return rows


def run_suite(ctx: SuiteContext, suite: str):
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; see list_suites()")
    results = []
    for fn in SUITES[suite]:
        results.extend(fn(ctx))
    return results
