"""Higher covariant derivatives of fields at a point.

A :class:`Field` is a section of a tensor bundle built from the tangent
bundle and the fiber bundle E of a chart.  Its shape is a tuple of typed
index slots:

* ``tu`` / ``td``: tangent index up (vector) / down (covector), range n;
* ``fu`` / ``fd``: fiber index up (E) / down (E*), range d.

Components are stored on full index tuples (antisymmetric data is stored
antisymmetrized), either as closed-form expressions or as jets at a fixed
base point with a fixed order budget.  Missing keys are zero.

The order-j covariant derivative contracted with a coordinate word I is
evaluated by the inductive formula

    nabla_{e_I} = nabla_{e_{i1}} o nabla_{e_{I'}}
                  - sum_r nabla_{e_{I'} with slot r replaced by nabla-hat_{e_{i1}} e_{i_r}},

reduced to jet arithmetic of component functions and first-order symbols.
Everything here is a pure function of immutable inputs; per-field caches
only memoize results.
"""

from __future__ import annotations

import itertools

from . import expr as ex
from .connection import ChartConnection
from .jets import FLOAT, Jet, JetSpace, as_point
from .multialg import (merge_sign, sort_sign, tensor_coproduct)

TU, TD, FU, FD = "tu", "td", "fu", "fd"


class Field:
    """A field over a chart: typed slots plus a component map."""

    __slots__ = ("chart", "slots", "comps", "jet_backed", "point", "budget",
                 "mode", "_nabla_cache")

    def __init__(self, chart: ChartConnection, slots, comps, jet_backed=False,
                 point=None, budget=None, mode=None):
        self.chart = chart
        self.slots = tuple(slots)
        self.comps = dict(comps)
        self.jet_backed = jet_backed
        self.point = as_point(point, mode) if point is not None else None
        self.budget = budget
        self.mode = mode
        self._nabla_cache = {}
        for idx in self.comps:
            if len(idx) != len(self.slots):
                raise ValueError(f"component key {idx!r} does not match slots {self.slots!r}")

    def comp_jet(self, idx, p, order, mode) -> Jet:
        """Jet of one component at p; an expression component reads the jet
        memo of its node (:func:`atomcur.expr.jet_at`), shared by every
        field that holds the node."""
        if self.jet_backed:
            if p != self.point or mode != self.mode:
                raise ValueError("jet-backed field queried at a foreign point or mode")
            if order > self.budget:
                raise ValueError(f"jet budget exceeded: need {order}, have {self.budget}")
            jet = self.comps.get(idx)
            if jet is None:
                return Jet.zero(JetSpace(self.chart.n, order), mode)
            return jet.truncate(order)
        e = self.comps.get(idx)
        if e is None:
            return Jet.zero(JetSpace(self.chart.n, order), mode)
        return ex.jet_at(e, p, order, mode)

    def value(self, p, mode):
        return {idx: self.comp_jet(idx, p, 0, mode).value for idx in self.comps}


# ---------------------------------------------------------------------------
# Field constructors.

def scalar_field(chart, e) -> Field:
    return Field(chart, (), {(): ex.as_expr(e, chart.names)})


def tensor_field(chart, order, comps) -> Field:
    return Field(chart, (TU,) * order,
                 {tuple(w): ex.as_expr(c, chart.names) for w, c in comps.items()})


def vector_field(chart, comps) -> Field:
    if isinstance(comps, dict):
        comps = {k if isinstance(k, tuple) else (k,): v for k, v in comps.items()}
    else:
        comps = {(i,): c for i, c in enumerate(comps)}
    return tensor_field(chart, 1, comps)


def coordinate_tensor_field(chart, w) -> Field:
    """The constant coordinate frame tensor e_w."""
    return Field(chart, (TU,) * len(w), {tuple(w): ex.Const(1)})


def antisymmetrize(comps_incr, neg) -> dict:
    """Expand components given on increasing keys to full antisymmetric
    tuples.  ``neg`` negates a component (an expression or a jet); it runs
    once per key, so all odd permutations of the key share one negation."""
    full = {}
    for K, c in comps_incr.items():
        K = tuple(K)
        minus = neg(c) if len(K) > 1 else None
        for perm in itertools.permutations(K):
            full[perm] = c if sort_sign(perm) == 1 else minus
    return full


def form_field(chart, k, comps_incr) -> Field:
    """A k-form on E: section of wedge^k(E*), components on increasing keys."""
    comps = {K: ex.as_expr(c, chart.names) for K, c in comps_incr.items()}
    return Field(chart, (FD,) * k, antisymmetrize(comps, ex.ex_neg))


def kvector_field(chart, k, comps_incr) -> Field:
    """A k-vector on E: section of wedge^k(E), components on increasing keys."""
    comps = {K: ex.as_expr(c, chart.names) for K, c in comps_incr.items()}
    return Field(chart, (FU,) * k, antisymmetrize(comps, ex.ex_neg))


def jet_field(chart, slots, comps, point, budget, mode) -> Field:
    return Field(chart, slots, comps, jet_backed=True, point=point,
                 budget=budget, mode=mode)


# ---------------------------------------------------------------------------
# The covariant derivative engine.

def _add_jet(acc: dict, idx, jet: Jet):
    cur = acc.get(idx)
    acc[idx] = jet if cur is None else cur + jet


def _sub_jet(acc: dict, idx, jet: Jet):
    cur = acc.get(idx)
    acc[idx] = -jet if cur is None else cur - jet


def covariant_step(chart, slots, comps, i, p, order, mode):
    """One covariant derivative along e_i of a section with component jets.

    ``comps`` holds jets of order ``order + 1``; the result holds jets of
    order ``order``.
    """
    out = {}
    for idx, jet in comps.items():
        _add_jet(out, idx, jet.derivative(i))
    for pos, sl in enumerate(slots):
        fiber = sl in (FU, FD)
        dim = chart.d if fiber else chart.n
        up = sl in (TU, FU)
        for idx, jet in comps.items():
            jt = jet.truncate(order)
            if jt.is_zero():
                continue
            a = idx[pos]
            if up:
                gam = chart.gamma1_jet(i, a, p, order, mode, fiber=fiber)
                for b in range(dim):
                    if not gam[b].is_zero():
                        _add_jet(out, idx[:pos] + (b,) + idx[pos + 1:], gam[b] * jt)
            else:
                for b in range(dim):
                    gam = chart.gamma1_jet(i, b, p, order, mode, fiber=fiber)[a]
                    if not gam.is_zero():
                        _sub_jet(out, idx[:pos] + (b,) + idx[pos + 1:], gam * jt)
    return out


def nabla_word_jets(field: Field, I, p, order, mode):
    """Component jets of nabla_{e_I}(field) at p, of jet order ``order``.

    The field's memo holds each word's jets at every order asked for, and
    under the bare word the highest order computed.  A lower order is the
    truncation of that one: every coefficient below the cut sums the same
    products in the same order (see :func:`atomcur.expr.jet_at`), so it
    equals the jets derived afresh at the lower order, coefficient for
    coefficient.  It may also keep a component whose truncated jet is
    zero, which a fresh derivation could leave out.
    """
    I = tuple(I)
    cache = field._nabla_cache.setdefault((p, mode), {})
    key = (I, order)
    hit = cache.get(key)
    if hit is not None:
        return hit
    top = cache.get(I, -1)
    if top > order:
        out = cache[key] = {idx: jet.truncate(order)
                            for idx, jet in cache[(I, top)].items()}
        return out
    chart = field.chart
    if not I:
        out = {idx: field.comp_jet(idx, p, order, mode) for idx in field.comps}
    else:
        i1, rest = I[0], I[1:]
        inner = nabla_word_jets(field, rest, p, order + 1, mode)
        out = covariant_step(chart, field.slots, inner, i1, p, order, mode)
        for r in range(len(rest)):
            gam = chart.gamma1_jet(i1, rest[r], p, order, mode, fiber=False)
            for l in range(chart.n):
                if gam[l].is_zero():
                    continue
                sub = nabla_word_jets(field, rest[:r] + (l,) + rest[r + 1:], p, order, mode)
                for idx, jet in sub.items():
                    _sub_jet(out, idx, gam[l] * jet)
    cache[key] = out
    cache[I] = order
    return out


def nabla(field: Field, I, p, mode=FLOAT) -> dict:
    """Nonzero components of the order-|I| higher covariant derivative at p
    along the frame word I."""
    p = field.chart.resolve(p, mode)
    jets = nabla_word_jets(field, tuple(I), p, 0, mode)
    return {idx: v for idx, j in jets.items() if (v := j.value) != 0}


def nabla_value(field: Field, I, p, mode=FLOAT) -> dict:
    """Nonzero components of nabla_{e_I}(field) at p, memoized on the field.

    The value dict is computed once per (word, point, mode) and kept in
    ``field._nabla_cache`` beside the jets it summarizes; later calls
    return that same dict without re-checking the point.  It is shared, so
    callers must treat it as read-only.  A miss runs :func:`nabla`, so an
    out-of-domain point still raises on its first query.
    """
    I, p = tuple(I), as_point(p, mode)
    bucket = field._nabla_cache.get((p, mode))
    if bucket is not None:
        hit = bucket.get((I, None))
        if hit is not None:
            return hit
    comps = nabla(field, I, p, mode)
    field._nabla_cache.setdefault((p, mode), {})[(I, None)] = comps
    return comps


def nabla_mixed(field: Field, prefix, tensor_value: dict, p, mode=FLOAT) -> dict:
    """nabla_{e_prefix tensor Z}(field) at p for a tangent-tensor value Z.

    Tensoriality in the vector slots reduces Z to its components:
    the result is sum_w Z[w] * nabla_{e_{prefix + w}}(field)(p).
    """
    out = {}
    for w, c in tensor_value.items():
        if c == 0:
            continue
        part = nabla_value(field, tuple(prefix) + tuple(w), p, mode)
        for idx, v in part.items():
            out[idx] = out.get(idx, 0) + c * v
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# Derived fields.

def product_field(a: Field, b: Field) -> Field:
    """Tensor product over C^infty(M): slots concatenate, components multiply."""
    if a.chart is not b.chart:
        raise ValueError("fields live on different charts")
    if a.jet_backed or b.jet_backed:
        raise ValueError("product_field expects expression-backed fields")
    comps = {}
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            key = ia + ib
            cur = comps.get(key)
            term = ex.ex_mul(ca, cb)
            comps[key] = term if cur is None else ex.ex_add(cur, term)
    return Field(a.chart, a.slots + b.slots, comps)


def scale_field(f: Field, factor) -> Field:
    e = ex.as_expr(factor, f.chart.names)
    return Field(f.chart, f.slots, {i: ex.ex_mul(e, c) for i, c in f.comps.items()})


def add_fields(a: Field, b: Field) -> Field:
    if a.slots != b.slots:
        raise ValueError("slot mismatch")
    comps = dict(a.comps)
    for i, c in b.comps.items():
        comps[i] = ex.ex_add(comps[i], c) if i in comps else c
    return Field(a.chart, a.slots, comps)


def wedge_fields(a: Field, b: Field) -> Field:
    """Wedge of two form fields (or two k-vector fields) on the same chart."""
    if not (set(a.slots) <= {FD} and set(b.slots) <= {FD}) and \
       not (set(a.slots) <= {FU} and set(b.slots) <= {FU}):
        raise ValueError("wedge_fields expects two fiber forms or two fiber vectors")
    ka, kb = len(a.slots), len(b.slots)
    comps = {}
    for idx in itertools.product(range(a.chart.d), repeat=ka + kb):
        acc = None
        for S in itertools.combinations(range(ka + kb), ka):
            Sc = tuple(t for t in range(ka + kb) if t not in S)
            sign = merge_sign(S, Sc)
            ia = tuple(idx[t] for t in S)
            ib = tuple(idx[t] for t in Sc)
            if ia not in a.comps or ib not in b.comps:
                continue
            term = ex.ex_mul(a.comps[ia], b.comps[ib])
            if sign < 0:
                term = ex.ex_neg(term)
            acc = term if acc is None else ex.ex_add(acc, term)
        if acc is not None:
            comps[idx] = acc
    return Field(a.chart, a.slots + b.slots, comps)


def interior_product_field(X: Field, omega: Field) -> Field:
    """iota_X omega for a k-vector field X and a form field omega.

    Iterated contraction with iota_{alpha wedge beta} = iota_beta o iota_alpha;
    on components, (iota_{eps_A} omega)_B = omega_{A + B}.
    """
    if set(X.slots) != {FU} and X.slots != ():
        raise ValueError("interior product needs a fiber multivector field")
    r = len(X.slots)
    k = len(omega.slots)
    if r > k:
        return Field(omega.chart, (), {})
    comps = {}
    for B in itertools.product(range(omega.chart.d), repeat=k - r):
        acc = None
        for A, cX in X.comps.items():
            w = omega.comps.get(tuple(A) + B)
            if w is None:
                continue
            term = ex.ex_mul(cX, w)
            acc = term if acc is None else ex.ex_add(acc, term)
        if acc is not None:
            comps[B] = acc
    # normalize repeated-index overcounting: X components run over full tuples
    scale = 1
    for t in range(1, r + 1):
        scale *= t
    if scale != 1:
        comps = {B: ex.ex_div(c, ex.Const(scale)) for B, c in comps.items()}
    return Field(omega.chart, (FD,) * (k - r), comps)


def contract_form_vector(omega: Field, alpha: Field) -> Field:
    """The scalar field omega(alpha) under the determinant pairing."""
    if len(omega.slots) != len(alpha.slots):
        raise ValueError("degree mismatch in contraction")
    k = len(omega.slots)
    acc = None
    for idx, co in omega.comps.items():
        ca = alpha.comps.get(idx)
        if ca is None:
            continue
        term = ex.ex_mul(co, ca)
        acc = term if acc is None else ex.ex_add(acc, term)
    if acc is None:
        acc = ex.Const(0)
    fact = 1
    for t in range(1, k + 1):
        fact *= t
    if fact != 1:
        acc = ex.ex_div(acc, ex.Const(fact))
    return Field(omega.chart, (), {(): acc})


# ---------------------------------------------------------------------------
# Mixed-order tangent tensors.  The covariant product is filtered, not
# graded, so its results mix tensor orders; a mixed tensor is carried as a
# list of homogeneous fields (or, at a point, a word-keyed jet/value dict).

def as_field_list(X):
    return list(X) if isinstance(X, (list, tuple)) else [X]


def mixed_tensor_fields(chart, comps: dict, p, budget, mode):
    """Split a word-keyed jet dict into homogeneous jet-backed fields."""
    by_len = {}
    for w, jet in comps.items():
        by_len.setdefault(len(w), {})[w] = jet
    return [jet_field(chart, (TU,) * ell, d, p, budget, mode)
            for ell, d in sorted(by_len.items())]


def covderiv(X: Field, Y: Field, p, order, mode) -> dict:
    """nabla_X Y = sum_i X^i nabla_{e_i} Y for a vector field X, as jets of
    order ``order`` at p keyed by the components of Y.

    The component of X is the left factor of each product, which fixes
    the summation order of the Cauchy product; components of X whose jet
    vanishes are skipped.
    """
    out = {}
    for i in range(X.chart.n):
        xi = X.comp_jet((i,), p, order, mode)
        if xi.is_zero():
            continue
        for idx, jet in nabla_word_jets(Y, (i,), p, order, mode).items():
            _add_jet(out, idx, xi * jet)
    return out


def nabla_jets_mixed(parts, I, p, order, mode) -> dict:
    """nabla_{e_I} of a mixed tangent tensor, as word-keyed jets."""
    out = {}
    for f in as_field_list(parts):
        for w, jet in nabla_word_jets(f, tuple(I), p, order, mode).items():
            _add_jet(out, w, jet)
    return out


def covariant_product(X, Y, p, mode=FLOAT, out_order=0) -> dict:
    """X (.) Y = X_(1) tensor nabla_{X_(2)} Y, as word-keyed jets at p.

    ``X`` and ``Y`` are tangent tensor fields or lists of such (mixed
    orders).  C^infty-linear in X: only component jets of X enter.  Jet
    budgets: X parts need ``out_order``; Y parts need ``out_order`` plus
    the top tensor order of X.
    """
    out = {}
    p = as_point(p, mode)
    for Xf in as_field_list(X):
        if set(Xf.slots) > {TU}:
            raise ValueError("covariant product is defined for tangent tensor fields")
        for w in Xf.comps:
            Xw = Xf.comp_jet(w, p, out_order, mode)
            if Xw.is_zero():
                continue
            unit = Xw.is_constant() and Xw.value == 1
            for (A, B) in tensor_coproduct(w):
                nb = nabla_jets_mixed(Y, B, p, out_order, mode)
                for u, jet in nb.items():
                    _add_jet(out, A + u, jet if unit else Xw * jet)
    return out


def covariant_product_value(X, Y, p, mode=FLOAT) -> dict:
    jets = covariant_product(X, Y, p, mode, 0)
    return {w: v for w, j in jets.items() if (v := j.value) != 0}


# ---------------------------------------------------------------------------
# Exterior derivative (torsion-free): d omega = sum_i e^i wedge nabla_{e_i} omega.

def exterior_derivative(omega: Field, p, mode=FLOAT, out_order=0) -> Field:
    """d(omega) at p as a jet-backed (k+1)-form field.

    Valid for differential forms (fiber = tangent bundle, all slots down);
    the result is independent of the torsion-free connection used.
    """
    if not omega.chart.fiber_is_tangent or set(omega.slots) > {FD}:
        raise ValueError("exterior derivative applies to differential forms")
    chart = omega.chart
    k = len(omega.slots)
    p = as_point(p, mode)
    nb = [nabla_word_jets(omega, (i,), p, out_order, mode) for i in range(chart.n)]
    comps = {}
    for idx in itertools.product(range(chart.n), repeat=k + 1):
        acc = None
        for j in range(k + 1):
            rest = idx[:j] + idx[j + 1:]
            jet = nb[idx[j]].get(rest)
            if jet is None:
                continue
            term = jet if j % 2 == 0 else -jet
            acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            comps[idx] = acc
    return jet_field(chart, (FD,) * (k + 1), comps, p, out_order, mode)


# ---------------------------------------------------------------------------
# Curvature as a field, and curvature-derivative actions.

def curvature_field(chart: ChartConnection, which: str, p, mode, budget) -> Field:
    """R as a jet-backed field: fiber slots (fu, fd, td, td) with the
    components of :meth:`ChartConnection.curvature_jets`; base analogously.
    The field is kept in the chart's point cache, so every caller at p
    shares one nabla memo."""
    fiber = which == "fiber"
    slots = (FU, FD, TD, TD) if fiber else (TU, TD, TD, TD)
    p = as_point(p, mode)
    return chart._memo(p, mode, ("curv", fiber, budget), lambda: jet_field(
        chart, slots, chart.curvature_jets(p, budget, mode, fiber), p, budget, mode))


def curvature_endomorphism(chart, S, ab_value: dict, p, mode=FLOAT, fiber=False):
    """(nabla_{e_S} R)_{Z} at p for a 2-tensor value Z = ab_value, as one
    matrix: end[k][l] on tangent indices (R^TM), or with ``fiber`` end[b][a]
    on fiber indices (R^E)."""
    p = as_point(p, mode)
    S = tuple(S)
    field = curvature_field(chart, "fiber" if fiber else "base", p, mode, len(S))
    jets = nabla_word_jets(field, S, p, 0, mode)
    dim = chart.d if fiber else chart.n
    end = [[0] * dim for _ in range(dim)]
    for (uv), c in ab_value.items():
        if c == 0 or len(uv) != 2:
            continue
        u, v = uv
        for (k, l, uu, vv), jet in jets.items():
            if (uu, vv) == (u, v):
                end[k][l] += c * jet.value
    return end


def apply_endomorphism_derivation(base_end, fiber_end, comps: dict, slots) -> dict:
    """Extend pointwise endomorphisms to a tensor value as a derivation.

    Up slots receive +M, down slots receive -(M transpose), with the base
    matrix on tangent slots and the fiber matrix on fiber slots.
    """
    out = {}
    for pos, sl in enumerate(slots):
        mat = fiber_end if sl in (FU, FD) else base_end
        dim = len(mat)
        up = sl in (TU, FU)
        for idx, c in comps.items():
            if c == 0:
                continue
            a = idx[pos]
            for b in range(dim):
                coef = mat[b][a] if up else -mat[a][b]
                if coef == 0:
                    continue
                key = idx[:pos] + (b,) + idx[pos + 1:]
                out[key] = out.get(key, 0) + coef * c
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# Identity residuals (spec'd check operations).

def _dict_residual(a: dict, b: dict):
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in keys), default=0)


def nabla_compose_check(v, w, field: Field, p, mode=FLOAT):
    """Residual of nabla_v o nabla_w = nabla_{v_(1) tensor nabla-hat_{v_(2)} w}."""
    chart = field.chart
    p = as_point(p, mode)
    v, w = tuple(v), tuple(w)
    # left side: jets of nabla_w(field) to order |v|, then nabla_v of that
    inner = nabla_word_jets(field, w, p, len(v), mode)
    inner_field = jet_field(chart, field.slots, inner, p, len(v), mode)
    left = nabla_value(inner_field, v, p, mode)
    # right side: Sweedler sum over the tensor coproduct of v
    right = {}
    ew = coordinate_tensor_field(chart, w) if w else None
    for (v1, v2) in tensor_coproduct(v):
        if w:
            zval = nabla_value(ew, v2, p, mode)
        else:
            zval = {(): 1} if not v2 else {}
            if v2:
                continue
        part = nabla_mixed(field, v1, zval, p, mode)
        for idx, c in part.items():
            right[idx] = right.get(idx, 0) + c
    return _dict_residual(left, right)


def fundamental_commutation_check(u, v, a, b, field: Field, p, mode=FLOAT):
    """Residual of the commutation identity

    nabla_{u_(1) nabla-hat_{u_(2)}((ab - ba)v)}
        = (nabla_{u_(1)} R^E)_{nabla-hat_{u_(2)}(ab)} o nabla_{u_(3) nabla-hat_{u_(4)} v}
          - nabla_{u_(1) (nabla-hat_{u_(2)} R^TM)_{nabla-hat_{u_(3)}(ab)}(nabla-hat_{u_(4)} v)}

    evaluated on ``field`` at p.
    """
    from .multialg import iterated_tensor_coproduct
    chart = field.chart
    p = as_point(p, mode)
    u, v, a, b = tuple(u), tuple(v), int(a), int(b)
    comm_words = [((a, b) + v, 1), ((b, a) + v, -1)]
    # left side
    left = {}
    for (u1, u2) in tensor_coproduct(u):
        for word, sgn in comm_words:
            zval = nabla_value(coordinate_tensor_field(chart, word), u2, p, mode)
            part = nabla_mixed(field, u1, zval, p, mode)
            for idx, c in part.items():
                left[idx] = left.get(idx, 0) + sgn * c
    # right side, first group
    right = {}
    eab = coordinate_tensor_field(chart, (a, b))
    ev = coordinate_tensor_field(chart, v) if v else None
    for (u1, u2, u3, u4) in iterated_tensor_coproduct(u, 4):
        abval = nabla_value(eab, u2, p, mode)
        base_end = curvature_endomorphism(chart, u1, abval, p, mode)
        fiber_end = curvature_endomorphism(chart, u1, abval, p, mode, fiber=True)
        vval = nabla_value(ev, u4, p, mode) if v else ({(): 1} if not u4 else None)
        if vval is None:
            continue
        inner = nabla_mixed(field, u3, vval, p, mode)
        acted = apply_endomorphism_derivation(base_end, fiber_end, inner, field.slots)
        for idx, c in acted.items():
            right[idx] = right.get(idx, 0) + c
    # right side, second group (subtracted)
    for (u1, u2, u3, u4) in iterated_tensor_coproduct(u, 4):
        abval = nabla_value(eab, u3, p, mode)
        base_end = curvature_endomorphism(chart, u2, abval, p, mode)
        vval = nabla_value(ev, u4, p, mode) if v else ({(): 1} if not u4 else None)
        if vval is None:
            continue
        rv = apply_endomorphism_derivation(base_end, None, vval, (TU,) * len(v))
        part = nabla_mixed(field, u1, rv, p, mode)
        for idx, c in part.items():
            right[idx] = right.get(idx, 0) - c
    return _dict_residual(left, right)
