"""Charts with a torsion-free connection and higher-order Christoffel symbols.

A :class:`ChartConnection` holds a chart (coordinate names and a domain
box), first-order Christoffel symbols for the base connection on the
tangent bundle, first-order coefficients for a fiber bundle E (the
tangent bundle by default), and optionally a metric.

A chart built from a metric stores only the metric expressions: its
Levi-Civita symbols, g^{-1} and det g are assembled at each point from the
jets of g (see ``_levi_civita_table``), never by symbolic differentiation.

The higher-order symbols are defined by contracting the higher covariant
derivative of a coordinate frame field against the frame,

    nabla_{e_I} e_j = Gamma^k_{I,j} e_k,

and satisfy the recursion (I = (i1, ..., is), I' = (i2, ..., is)):

    Gamma^k_{I,j} = d(Gamma^k_{I',j})/d e^{i1}
                    + Gamma^l_{I',j} Gamma^k_{i1,l}
                    - sum_{r=1..s-1} Gamma^l_{i1, I'_r} Gamma^k_{I' with r -> l, j}

where the replacement sum runs over the s-1 positions of I'.  The same
recursion with the fiber coefficients in the first two terms (the
replacement sum always uses the base symbols) yields the higher-order
fiber coefficients.  All evaluations are jets at a
:class:`~atomcur.jets.Point`, in the scalar mode that the point carries;
results are cached per point and the chart is immutable, so the cache is
never invalidated.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from . import expr as ex
from .jets import FLOAT, Jet, JetSpace, as_point, as_scalar, common_values
from .multialg import det


class ChartDomainError(ValueError):
    """A probe point fell outside the declared chart domain box."""


class ChartValidationError(ValueError):
    """Construction-time check (torsion, metric compatibility) failed."""


def _expression_table(gamma):
    """Symbols gamma[k][i][j] given as expressions, evaluated as a table
    [i][j] -> jets over k."""
    def table(p, order):
        return [[[ex.eval_jet(plane[i][j], p, order) for plane in gamma]
                 for j in range(len(gamma[0][0]))] for i in range(len(gamma[0]))]
    return table


class ChartConnection:
    """Immutable chart + connection data with a jet cache per point.

    ``base_gamma`` is ``None`` for the Levi-Civita connection of ``metric``.
    """

    def __init__(self, names, base_gamma, domain, fiber_gamma=None,
                 metric=None, check_points=None, name="chart"):
        self.name = name
        self.names = tuple(names)
        self.n = len(self.names)
        self.domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        if len(self.domain) != self.n:
            raise ChartValidationError("domain box must give one interval per coordinate")
        self.metric = None if metric is None else ex.as_expr(metric, self.names)
        if base_gamma is None:
            if self.metric is None:
                raise ChartValidationError("a chart needs Christoffel symbols or a metric")
            self.base_gamma = None
            self._base_table = self._levi_civita_table
        else:
            self.base_gamma = ex.as_expr(base_gamma, self.names)
            self._base_table = _expression_table(self.base_gamma)
        if fiber_gamma is None:
            self.d = self.n
            self.fiber_gamma = self.base_gamma
            self.fiber_is_tangent = True
            self._fiber_table = None
        else:
            self.d = len(fiber_gamma)
            self.fiber_gamma = ex.as_expr(fiber_gamma, self.names)
            self.fiber_is_tangent = False
            self._fiber_table = _expression_table(self.fiber_gamma)
        self._cache = {}
        self._check_points = tuple(as_point(p, FLOAT)
                                   for p in (check_points or [self._midpoint()]))
        self._validate()

    # -- construction helpers ------------------------------------------

    @staticmethod
    def flat(n, names=None, lo=-2.0, hi=2.0, name="flat"):
        names = names or tuple(f"x{i}" for i in range(n))
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return ChartConnection.from_metric(names, eye, [(lo, hi)] * n, name=name)

    @staticmethod
    def from_metric(names, metric, domain, name="chart", check_points=None,
                    fiber_gamma=None):
        """Levi-Civita connection of a metric given by expressions, with an
        optional fiber connection given by expressions."""
        return ChartConnection(names, None, domain, fiber_gamma=fiber_gamma,
                               metric=metric, name=name, check_points=check_points)

    def _derived(self, name, base_table=None, fiber_table=None):
        """A chart on the same coordinates whose symbols are computed from this
        chart's cached jets.  ``base_table`` replaces the base symbols (and
        drops the metric); ``fiber_table`` gives a non-tangent fiber.  Each
        maps (point, order) to a table [i][j] -> jets over k."""
        ch = copy.copy(self)
        ch.name, ch._cache = name, {}
        ch.base_gamma = ch.fiber_gamma = None
        ch._base_table = self._symbols
        if base_table is not None:
            ch._base_table, ch.metric = base_table, None
        ch._fiber_table, ch.fiber_is_tangent = fiber_table, fiber_table is None
        if fiber_table is None:
            ch.d = ch.n
        return ch

    def _midpoint(self):
        return tuple((lo + hi) / 2 for lo, hi in self.domain)

    def _validate(self):
        for p in self._check_points:
            gam = self._symbols(p, 0)
            for k in range(self.n):
                for i in range(self.n):
                    for j in range(i + 1, self.n):
                        a = gam[i][j][k].value
                        b = gam[j][i][k].value
                        if abs(a - b) > 1e-9 * max(1.0, abs(a)):
                            raise ChartValidationError(
                                f"torsion-free violation at probe {p}: "
                                f"Gamma^{k}_{{{i},{j}}} != Gamma^{k}_{{{j},{i}}}")
            if self.metric is not None:
                self._check_metric_compat(p)

    def _check_metric_compat(self, p):
        # d_k g_ij = Gamma_{ikj} + Gamma_{jki} with lowered symbols
        n = self.n
        g1 = self._metric_jets(p, 1)
        g = [[jet.value for jet in row] for row in g1]
        gam = self._symbols(p, 0)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    dg = g1[i][j].partial(tuple(1 if t == k else 0 for t in range(n)))
                    low = sum(g[i][l] * gam[k][j][l].value for l in range(n))
                    low += sum(g[j][l] * gam[k][i][l].value for l in range(n))
                    if abs(dg - low) > 1e-8 * max(1.0, abs(dg)):
                        raise ChartValidationError(
                            f"metric incompatibility at probe {p} (k,i,j)=({k},{i},{j})")

    # -- domain ----------------------------------------------------------

    def check_point(self, p):
        if len(p) != self.n:
            raise ChartDomainError(f"point {p!r} has wrong dimension")
        for x, (lo, hi) in zip(p, self.domain):
            if not (lo <= float(x) <= hi):
                raise ChartDomainError(f"point {p!r} outside chart domain box")

    def resolve(self, p, mode):
        """The probe :class:`~atomcur.jets.Point` of p in ``mode``, after
        checking that p lies in the domain box."""
        p = as_point(p, mode)
        self.check_point(p)
        return p

    # -- cached jet evaluation --------------------------------------------

    def _memo(self, p, key, build):
        """The value under ``key`` in the cache of the point p, built on first use."""
        cache = self._cache.get(p)
        if cache is None:
            cache = self._cache[p] = {}
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = build()
        return hit

    def _symbols(self, p, order, fiber=False):
        """First-order symbols at p as a table [i][j] -> jets over k, cached per
        (point, order); a tangent fiber shares the base table."""
        fiber = fiber and not self.fiber_is_tangent
        table = self._fiber_table if fiber else self._base_table
        return self._memo(p, ("g1", order, fiber), lambda: table(p, order))

    def _metric_jets(self, p, order):
        """Jets of g at p, read through the jet memo of each metric expression
        (:func:`atomcur.expr.jet_at`), so a lower order is a truncation."""
        return self._memo(p, ("g", order), lambda: [
            [ex.jet_at(e, p, order) for e in row] for row in self.metric])

    def _metric_inverse_jets(self, p, order):
        """(g^{-1}, det g) as jets at p: the cofactors of g over one
        reciprocal of det g."""
        def build():
            g = self._metric_jets(p, order)
            n = self.n
            detg = det(g)
            inv = detg.reciprocal()
            ginv = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    cof = det([row[:j] + row[j + 1:] for r, row in enumerate(g) if r != i])
                    ginv[j][i] = -(cof * inv) if (i + j) % 2 else cof * inv
            return ginv, detg
        return self._memo(p, ("ginv", order), build)

    def _levi_civita_table(self, p, order):
        """Gamma^k_{ij} = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) from the jets
        of g one order higher.  Vanishing brackets are skipped, so a constant
        metric needs no g^{-1}."""
        n = self.n
        dg = [[[gab.derivative(c) for c in range(n)] for gab in row]
              for row in self._metric_jets(p, order + 1)]
        zero = Jet.zero(JetSpace(n, order), p.mode)
        half = Fraction(1, 2)
        ginv = None
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                low = [(l, dg[l][j][i] + dg[l][i][j] - dg[i][j][l]) for l in range(n)]
                low = [(l, b) for l, b in low if b]
                if low and ginv is None:
                    ginv = self._metric_inverse_jets(p, order)[0]
                row.append([sum((ginv[k][l] * b for l, b in low), zero).scale(half)
                            for k in range(n)])
            table.append(row)
        return table

    def gamma1_jet(self, i, j, p, order, fiber=False):
        """Jet of the first-order symbol (base Gamma^._{i j} or fiber A^._{i j})."""
        return self._symbols(p, order, fiber)[i][j]

    def symbol_values(self, p):
        """The values of the first-order symbols at p, read once per point
        from the order-0 jets, as (base, fiber, den): tables [i][j] -> numbers
        over k.  In rational mode both tables hold integer numerators over
        the one denominator den; in float mode they hold the values and den
        is 1."""
        def build():
            tables = [self._symbols(p, 0), self._symbols(p, 0, fiber=True)]
            jets = {(t, i, j, k): jet for t, table in enumerate(tables)
                    for i, row in enumerate(table) for j, ks in enumerate(row)
                    for k, jet in enumerate(ks)}
            nums, den = common_values(jets)
            base, fiber = ([[[nums[t, i, j, k] for k in range(len(ks))]
                             for j, ks in enumerate(row)] for i, row in enumerate(table)]
                           for t, table in enumerate(tables))
            return base, fiber, den
        return self._memo(p, ("g1-values",), build)

    def higher_gamma_jets(self, I, j, p, order, fiber=False):
        """Jets of Gamma^k_{I,j} for all k, by the inductive formula."""
        I = tuple(I)
        if not I:
            raise ValueError("higher-order symbols need |I| >= 1")
        fiber = fiber and not self.fiber_is_tangent
        if len(I) == 1:
            return self.gamma1_jet(I[0], j, p, order, fiber)

        def build():
            i1, rest = I[0], I[1:]
            dim = self.d if fiber else self.n
            upper = self.higher_gamma_jets(rest, j, p, order + 1, fiber)
            out = []
            for k in range(dim):
                acc = upper[k].derivative(i1)
                for l in range(dim):
                    comp = self.gamma1_jet(i1, l, p, order, fiber)[k]
                    acc = acc + upper[l].truncate(order) * comp
                out.append(acc)
            for r in range(len(rest)):
                for l in range(self.n):
                    gam = self.gamma1_jet(i1, rest[r], p, order, fiber=False)[l]
                    if not gam:
                        continue
                    replaced = rest[:r] + (l,) + rest[r + 1:]
                    sub = self.higher_gamma_jets(replaced, j, p, order, fiber)
                    for k in range(dim):
                        out[k] = out[k] - gam * sub[k]
            return out
        return self._memo(p, ("gh", I, j, order, fiber), build)

    def higher_gamma(self, I, j, p, fiber=False):
        """Values Gamma^k_{I,j}(p) as a list over k."""
        self.check_point(p)
        return [jet.value for jet in self.higher_gamma_jets(I, j, p, 0, fiber)]

    def curvature_jets(self, p, order, fiber=False) -> dict:
        """Jets of the curvature R^b_{a,u,v} = Gamma^b_{(u,v),a} - Gamma^b_{(v,u),a}
        of the fiber connection (``fiber``) or the base connection, keyed
        (b, a, u, v).  Only u != v can be nonzero: each pair u < v is derived
        once and (b, a, v, u) holds the negated jet.  Zero jets are left out."""
        dim = self.d if fiber else self.n
        out = {}
        for u in range(self.n):
            for v in range(u + 1, self.n):
                guv = [self.higher_gamma_jets((u, v), a, p, order, fiber)
                       for a in range(dim)]
                gvu = [self.higher_gamma_jets((v, u), a, p, order, fiber)
                       for a in range(dim)]
                for a in range(dim):
                    for b in range(dim):
                        jet = guv[a][b] - gvu[a][b]
                        if not jet:
                            continue
                        out[(b, a, u, v)] = jet
                        out[(b, a, v, u)] = -jet
        return out

    # -- metric helpers ----------------------------------------------------

    def require_metric(self):
        if self.metric is None:
            raise ChartValidationError(f"chart {self.name!r} has no metric configured")

    def metric_value(self, p):
        self.require_metric()
        return [[jet.value for jet in row] for row in self._metric_jets(p, 0)]


class CurvatureAt:
    """Curvature components at a point: R(e_u, e_v) e_j = base[(k, j, u, v)] e_k,
    and likewise for the fiber bundle.  Covariant derivatives of R are read
    through ``covderiv.curvature_field``."""

    def __init__(self, point: tuple, base: dict, fiber: dict):
        self.point = point
        self.base = base
        self.fiber = fiber


def curvature(cc: ChartConnection, p) -> CurvatureAt:
    """Curvature values at p, dense over every index tuple: the order-0
    values of :meth:`ChartConnection.curvature_jets`, zero elsewhere."""
    cc.check_point(p)
    zero = as_scalar(0, p.mode)

    def dense(fiber, dim):
        jets = cc.curvature_jets(p, 0, fiber)
        return {(b, a, u, v): jets[(b, a, u, v)].value if (b, a, u, v) in jets else zero
                for u in range(cc.n) for v in range(cc.n)
                for a in range(dim) for b in range(dim)}

    return CurvatureAt(point=p, base=dense(False, cc.n), fiber=dense(True, cc.d))


def dual_chart(cc: ChartConnection, name=None) -> ChartConnection:
    """Chart with the fiber replaced by its dual bundle.

    Defined so that covariant differentiation commutes with contraction:
    (nabla*_X omega)(Y) = X(omega(Y)) - omega(nabla_X Y), which on the
    coordinate co-frame gives A*^a_{i b} = -A^b_{i a}, the negated
    transpose of cc's fiber jets.
    """
    def fiber(p, order):
        A = cc._symbols(p, order, fiber=True)
        return [[[-A[i][a][b] for a in range(cc.d)] for b in range(cc.d)]
                for i in range(cc.n)]
    return cc._derived(name or (cc.name + "*"), fiber_table=fiber)
