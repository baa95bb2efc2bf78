"""Charts with a torsion-free connection and higher-order Christoffel symbols.

A :class:`ChartConnection` holds a chart (coordinate names and a domain
box), first-order Christoffel symbols for the base connection on the
tangent bundle, first-order coefficients for a fiber bundle E (the
tangent bundle by default), and optionally a metric with orientation.

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
fiber coefficients.  All evaluations are jets at a point; results are
cached per (point, mode) and the chart is immutable, so the cache is
never invalidated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from . import expr as ex
from .jets import FLOAT, as_point
from .multialg import det


class ChartDomainError(ValueError):
    """A probe point fell outside the declared chart domain box."""


class ChartValidationError(ValueError):
    """Construction-time check (torsion, metric compatibility) failed."""


def _expr(v, names):
    if isinstance(v, ex.Expression):
        return v
    if isinstance(v, str):
        return ex.parse(v, names)
    return ex.Const(v)


def _sym_inverse(rows):
    """Inverse of a symbolic matrix via the adjugate; n <= 4 territory."""
    m = len(rows)
    d = det(rows)
    inv = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [[rows[r][c] for c in range(m) if c != j]
                     for r in range(m) if r != i]
            cof = det(minor) if m > 1 else ex.Const(1)
            if (i + j) % 2 == 1:
                cof = ex.ex_neg(cof)
            inv[j][i] = ex.ex_div(cof, d)
    return inv, d


class ChartConnection:
    """Immutable chart + connection data with a synchronized jet cache."""

    def __init__(self, names, base_gamma, domain, fiber_gamma=None,
                 metric=None, metric_inverse=None, orientation=1,
                 check_points=None, name="chart", validate=True):
        self.name = name
        self.names = tuple(names)
        self.n = len(self.names)
        self.domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        if len(self.domain) != self.n:
            raise ChartValidationError("domain box must give one interval per coordinate")
        self.base_gamma = tuple(
            tuple(tuple(_expr(base_gamma[k][i][j], self.names) for j in range(self.n))
                  for i in range(self.n))
            for k in range(self.n))
        if fiber_gamma is None:
            self.d = self.n
            self.fiber_gamma = self.base_gamma
            self.fiber_is_tangent = True
        else:
            self.d = len(fiber_gamma)
            self.fiber_gamma = tuple(
                tuple(tuple(_expr(fiber_gamma[b][i][a], self.names) for a in range(self.d))
                      for i in range(self.n))
                for b in range(self.d))
            self.fiber_is_tangent = False
        self.metric = None
        self.metric_inverse = None
        self.metric_det = None
        if metric is not None:
            self.metric = tuple(tuple(_expr(metric[i][j], self.names)
                                      for j in range(self.n)) for i in range(self.n))
            if metric_inverse is None:
                inv, _ = _sym_inverse([list(r) for r in self.metric])
                metric_inverse = inv
            self.metric_inverse = tuple(tuple(_expr(metric_inverse[i][j], self.names)
                                              for j in range(self.n)) for i in range(self.n))
            self.metric_det = det([list(r) for r in self.metric])
        self.orientation = 1 if orientation >= 0 else -1
        self._cache = {}
        self._lock = threading.Lock()
        self._check_points = tuple(tuple(p) for p in (check_points or [self._midpoint()]))
        if validate:
            self._validate()

    # -- construction helpers ------------------------------------------

    @staticmethod
    def flat(n, names=None, lo=-2.0, hi=2.0, name="flat"):
        names = names or tuple(f"x{i}" for i in range(n))
        zero = ex.Const(0)
        gamma = [[[zero] * n for _ in range(n)] for _ in range(n)]
        eye = [[ex.Const(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return ChartConnection(names, gamma, [(lo, hi)] * n, metric=eye,
                               metric_inverse=eye, name=name)

    @staticmethod
    def from_metric(names, metric, domain, name="chart", check_points=None):
        """Levi-Civita connection of a metric given by expressions."""
        names = tuple(names)
        n = len(names)
        g = [[_expr(metric[i][j], names) for j in range(n)] for i in range(n)]
        ginv, _ = _sym_inverse(g)
        dg = [[[ex.partial_derivative(g[i][j], k) for j in range(n)]
               for i in range(n)] for k in range(n)]
        gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
        half = ex.Const("1/2")
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    acc = ex.Const(0)
                    for l in range(n):
                        inner = ex.ex_sub(ex.ex_add(dg[i][l][j], dg[j][l][i]), dg[l][i][j])
                        acc = ex.ex_add(acc, ex.ex_mul(ginv[k][l], inner))
                    gamma[k][i][j] = ex.ex_mul(half, acc)
        return ChartConnection(names, gamma, domain, metric=g, metric_inverse=ginv,
                               name=name, check_points=check_points)

    def with_fiber(self, fiber_gamma, name=None):
        """Same chart with an explicit fiber connection (e.g. the dual one)."""
        return ChartConnection(self.names,
                               [[[self.base_gamma[k][i][j] for j in range(self.n)]
                                 for i in range(self.n)] for k in range(self.n)],
                               self.domain, fiber_gamma=fiber_gamma,
                               metric=self.metric, metric_inverse=self.metric_inverse,
                               orientation=self.orientation,
                               name=name or self.name, validate=False)

    def _midpoint(self):
        return tuple((lo + hi) / 2 for lo, hi in self.domain)

    def _validate(self):
        for p in self._check_points:
            for k in range(self.n):
                for i in range(self.n):
                    for j in range(i + 1, self.n):
                        a = ex.evaluate(self.base_gamma[k][i][j], p)
                        b = ex.evaluate(self.base_gamma[k][j][i], p)
                        if abs(a - b) > 1e-9 * max(1.0, abs(a)):
                            raise ChartValidationError(
                                f"torsion-free violation at probe {p}: "
                                f"Gamma^{k}_{{{i},{j}}} != Gamma^{k}_{{{j},{i}}}")
            if self.metric is not None:
                self._check_metric_compat(p)

    def _check_metric_compat(self, p):
        # d_k g_ij = Gamma_{ikj} + Gamma_{jki} with lowered symbols
        n = self.n
        g = [[ex.evaluate(self.metric[i][j], p) for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    dg = ex.eval_jet(self.metric[i][j], p, 1).partial(
                        tuple(1 if t == k else 0 for t in range(n)))
                    low = sum(g[i][l] * ex.evaluate(self.base_gamma[l][k][j], p)
                              for l in range(n))
                    low += sum(g[j][l] * ex.evaluate(self.base_gamma[l][k][i], p)
                               for l in range(n))
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
        return tuple(p)

    # -- cached jet evaluation --------------------------------------------

    def _point_cache(self, p, mode):
        key = (tuple(p), mode)
        with self._lock:
            return self._cache.setdefault(key, {})

    def gamma1_jet(self, i, j, p, order, mode, fiber=False):
        """Jet of the first-order symbol (base Gamma^._{i j} or fiber A^._{i j})."""
        cache = self._point_cache(p, mode)
        key = ("g1", i, j, order, fiber)
        hit = cache.get(key)
        if hit is None:
            table = self.fiber_gamma if fiber else self.base_gamma
            dim = self.d if fiber else self.n
            hit = [ex.eval_jet(table[k][i][j], p, order, mode) for k in range(dim)]
            cache[key] = hit
        return hit

    def higher_gamma_jets(self, I, j, p, order, mode, fiber=False):
        """Jets of Gamma^k_{I,j} for all k, by the inductive formula."""
        I = tuple(I)
        if not I:
            raise ValueError("higher-order symbols need |I| >= 1")
        p = tuple(p)
        cache = self._point_cache(p, mode)
        key = ("gh", I, j, order, fiber)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if len(I) == 1:
            out = self.gamma1_jet(I[0], j, p, order, mode, fiber)
            cache[key] = out
            return out
        i1, rest = I[0], I[1:]
        dim = self.d if fiber else self.n
        upper = self.higher_gamma_jets(rest, j, p, order + 1, mode, fiber)
        out = []
        for k in range(dim):
            acc = upper[k].derivative(i1)
            for l in range(dim):
                comp = self.gamma1_jet(i1, l, p, order, mode, fiber)[k]
                acc = acc + upper[l].truncate(order) * comp
            out.append(acc)
        for r in range(len(rest)):
            for l in range(self.n):
                gam = self.gamma1_jet(i1, rest[r], p, order, mode, fiber=False)[l]
                if all(c == 0 for c in gam.coeffs):
                    continue
                replaced = rest[:r] + (l,) + rest[r + 1:]
                sub = self.higher_gamma_jets(replaced, j, p, order, mode, fiber)
                for k in range(dim):
                    out[k] = out[k] - gam * sub[k]
        cache[key] = out
        return out

    def higher_gamma(self, I, j, p, mode=FLOAT, fiber=False):
        """Values Gamma^k_{I,j}(p) as a list over k."""
        self.check_point(p)
        p = as_point(p, mode)
        return [jet.value for jet in self.higher_gamma_jets(I, j, p, 0, mode, fiber)]

    # -- metric helpers ----------------------------------------------------

    def require_metric(self):
        if self.metric is None:
            raise ChartValidationError(f"chart {self.name!r} has no metric configured")

    def metric_value(self, p, mode=FLOAT):
        self.require_metric()
        return [[ex.evaluate(self.metric[i][j], p, mode) for j in range(self.n)]
                for i in range(self.n)]

    def metric_inverse_value(self, p, mode=FLOAT):
        self.require_metric()
        return [[ex.evaluate(self.metric_inverse[i][j], p, mode) for j in range(self.n)]
                for i in range(self.n)]


@dataclass
class CurvatureAt:
    """Curvature components at a point: R(e_u, e_v) e_j = base[(k, j, u, v)] e_k,
    and likewise for the fiber bundle.  ``nabla_base`` / ``nabla_fiber`` hold
    the requested covariant derivatives, keyed by frame word."""

    point: tuple
    base: dict
    fiber: dict
    nabla_base: dict = field(default_factory=dict)
    nabla_fiber: dict = field(default_factory=dict)


def curvature(cc: ChartConnection, p, mode=FLOAT, nabla_order=0) -> CurvatureAt:
    """Curvature from the antisymmetrized order-2 symbols:
    R^k_{j u v} = Gamma^k_{(u,v),j} - Gamma^k_{(v,u),j}.

    With ``nabla_order`` > 0, covariant derivatives nabla_{e_S} R for all
    frame words |S| <= nabla_order are evaluated through the derivative
    engine (Hom-bundle connection) and attached to the result.
    """
    cc.check_point(p)
    p = as_point(p, mode)
    base, fiber = {}, {}
    for u in range(cc.n):
        for v in range(cc.n):
            guv = [cc.higher_gamma_jets((u, v), j, p, 0, mode) for j in range(cc.n)]
            gvu = [cc.higher_gamma_jets((v, u), j, p, 0, mode) for j in range(cc.n)]
            for j in range(cc.n):
                for k in range(cc.n):
                    base[(k, j, u, v)] = guv[j][k].value - gvu[j][k].value
            fuv = [cc.higher_gamma_jets((u, v), a, p, 0, mode, fiber=True)
                   for a in range(cc.d)]
            fvu = [cc.higher_gamma_jets((v, u), a, p, 0, mode, fiber=True)
                   for a in range(cc.d)]
            for a in range(cc.d):
                for b in range(cc.d):
                    fiber[(b, a, u, v)] = fuv[a][b].value - fvu[a][b].value
    out = CurvatureAt(point=tuple(p), base=base, fiber=fiber)
    if nabla_order > 0:
        from . import covderiv as cd
        import itertools
        for s in range(1, nabla_order + 1):
            for S in itertools.product(range(cc.n), repeat=s):
                bf = cd.curvature_field(cc, "base", p, mode, s)
                ff = cd.curvature_field(cc, "fiber", p, mode, s)
                out.nabla_base[S] = {idx: j.value for idx, j in
                                     cd.nabla_word_jets(bf, S, p, 0, mode).items()}
                out.nabla_fiber[S] = {idx: j.value for idx, j in
                                      cd.nabla_word_jets(ff, S, p, 0, mode).items()}
    return out


def levi_civita(names, metric, domain, name="chart", check_points=None) -> ChartConnection:
    """Convenience alias for :meth:`ChartConnection.from_metric`."""
    return ChartConnection.from_metric(names, metric, domain, name=name,
                                       check_points=check_points)


def dual_connection(cc: ChartConnection):
    """Fiber coefficients of the dual connection on E*.

    Defined so that covariant differentiation commutes with contraction:
    (nabla*_X omega)(Y) = X(omega(Y)) - omega(nabla_X Y), which on the
    coordinate co-frame gives A*^a_{i b} = -A^b_{i a}.
    """
    return [[[ex.ex_neg(cc.fiber_gamma[b][i][a]) for b in range(cc.d)]
             for i in range(cc.n)] for a in range(cc.d)]


def dual_chart(cc: ChartConnection, name=None) -> ChartConnection:
    """Chart with the fiber replaced by its dual bundle."""
    return cc.with_fiber(dual_connection(cc), name=name or (cc.name + "*"))
