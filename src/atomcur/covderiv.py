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
A word of length s needs the jets of its inner words up to order s, but its
own top level only values at the point: Phi_p(v box alpha)(omega) reads
(nabla_v omega)_p(alpha).  So the order-0 level runs on plain numbers
(``_nabla_num``): the e_{i1} coefficients and values of the order-1 jets
of the inner word, the symbol values the chart keeps per point, and the
nonzero values of the substituted words, accumulated by the same loops as
the jet levels (``covariant_step``, ``_add_product``).  In rational mode
those numbers are Python-int numerators over one denominator per dict, as
in a rational jet, so a value dict is the pair (numerators, den); in float
mode it is the pair (values, 1).  Fractions are built only for callers
that read values (``nabla_value``), and jets of order 0 only for callers
that ask for jets.
Everything here is a pure function of immutable inputs; per-field caches
only memoize results, one jet entry and one value pair per (word, point).
"""

from __future__ import annotations

import itertools

from . import expr as ex
from .connection import ChartConnection
from .jets import FLOAT, Jet, JetSpace, common_values
from .multialg import (_aligned, _combine, _fractions, _reduced, _value, merge_sign, sort_sign,
                       tensor_coproduct)

TU, TD, FU, FD = "tu", "td", "fu", "fd"


class Field:
    """A field over a chart: typed slots plus a component map."""

    __slots__ = ("chart", "slots", "comps", "jet_backed", "point", "budget",
                 "_nabla_cache", "_nabla_values")

    def __init__(self, chart: ChartConnection, slots, comps, jet_backed=False,
                 point=None, budget=None):
        self.chart = chart
        self.slots = tuple(slots)
        self.comps = dict(comps)
        self.jet_backed = jet_backed
        self.point = point
        self.budget = budget
        self._nabla_cache = {}
        self._nabla_values = {}
        for idx in self.comps:
            if len(idx) != len(self.slots):
                raise ValueError(f"component key {idx!r} does not match slots {self.slots!r}")

    def comp_jet(self, idx, p, order) -> Jet:
        """Jet of one component at p; an expression component reads the jet
        memo of its node (:func:`atomcur.expr.jet_at`), shared by every
        field that holds the node.  A jet-backed field answers only at its
        own point, in that point's mode."""
        if self.jet_backed:
            if p != self.point:
                raise ValueError("jet-backed field queried at a foreign point or mode")
            if order > self.budget:
                raise ValueError(f"jet budget exceeded: need {order}, have {self.budget}")
        c = self.comps.get(idx)
        if c is None:
            return Jet.zero(JetSpace(self.chart.n, order), p.mode)
        return c.truncate(order) if self.jet_backed else ex.jet_at(c, p, order)

    def value(self, p):
        return {idx: self.comp_jet(idx, p, 0).value for idx in self.comps}


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


def jet_field(chart, slots, comps, point, budget) -> Field:
    return Field(chart, slots, comps, jet_backed=True, point=point, budget=budget)


# ---------------------------------------------------------------------------
# The covariant derivative engine.

def _add_jet(acc: dict, idx, jet: Jet):
    cur = acc.get(idx)
    acc[idx] = jet if cur is None else cur + jet


def _add_product(acc: dict, idx, a, b, sign=1):
    """acc[idx] += sign * a*b for jets or for plain numbers; on jets, one
    fused pass where the jets allow it."""
    cur = acc.get(idx)
    if cur is None:
        acc[idx] = a * b if sign > 0 else -(a * b)
    elif type(cur) is Jet:
        acc[idx] = cur.add_product(a, b, sign)
    else:
        acc[idx] = cur + a * b if sign > 0 else cur - a * b


def covariant_step(chart, slots, derivs, lows, symbols):
    """One covariant derivative along e_i of a section, from already lowered
    inputs at the order of the result: ``derivs`` holds d/dx_i of each
    component, ``lows`` each component, and ``symbols(fiber)`` the row
    [a][b] = Gamma^b_{i a} of the first-order symbols (of the fiber
    connection for ``fiber``).  They are jets of that order, or at order 0
    plain values; a zero term is skipped either way.

    The slot loop is the derivation rule of the calculus: with empty
    ``derivs`` and the rows of pointwise endomorphisms, row[a][b] the
    coefficient of e_b in the image of e_a, it applies them to a tensor
    value, +M on up slots and -M^T on down slots.
    """
    out = dict(derivs)
    for pos, sl in enumerate(slots):
        fiber = sl in (FU, FD)
        dim = chart.d if fiber else chart.n
        up = sl in (TU, FU)
        row = symbols(fiber)
        for idx, jt in lows.items():
            if not jt:
                continue
            a = idx[pos]
            if up:
                gam = row[a]
                for b in range(dim):
                    if gam[b]:
                        _add_product(out, idx[:pos] + (b,) + idx[pos + 1:], gam[b], jt)
            else:
                for b in range(dim):
                    gam = row[b][a]
                    if gam:
                        _add_product(out, idx[:pos] + (b,) + idx[pos + 1:], gam, jt, -1)
    return out


def _nabla_word(field: Field, I, p, order):
    """nabla_{e_I}(field) at p by one step of the recursion: component jets
    of order ``order`` >= 1, or at order 0 their values as a pair
    (numerators, den).

    Both levels run the same loops in the same order on inputs lowered to
    the order of the result: the derivative and truncation of the order + 1
    jets of the inner word, the first-order symbols, and the words with one
    letter substituted, whose zero values the order-0 level never sees.  A
    value thus differs from the value of a higher-order jet of the word at
    most in the sign of an exact zero, which :func:`_nabla_num` drops.  At
    order 0 in rational mode the values of the inner jets and of the
    substituted words are numerators over their least common denominator v,
    the symbols over theirs, s, and the e_{i1} coefficients over s * v, so
    every term of the result is over s * v (s and v are 1 in float mode).
    """
    chart = field.chart
    if not I:
        jets = {idx: field.comp_jet(idx, p, order) for idx in field.comps}
        return jets if order else common_values(jets)
    i1, rest = I[0], I[1:]
    inner = nabla_word_jets(field, rest, p, order + 1)
    if order:
        derivs = {idx: jet.derivative(i1) for idx, jet in inner.items()}
        lows = {idx: jet.truncate(order) for idx, jet in inner.items()} if field.slots else {}

        def symbols(fiber):
            return chart._symbols(p, order, fiber)[i1]

        def word(J):
            return nabla_word_jets(field, J, p, order)
    else:
        base, fib, sden = chart.symbol_values(p)
        brow, frow = base[i1], fib[i1]

        def symbols(fiber):
            return frow if fiber else brow

        u = JetSpace(chart.n, 1).units[i1]
        if p.mode == FLOAT:
            derivs = {idx: jet.coeffs[u] for idx, jet in inner.items()}
            lows = {idx: jet.coeffs[0] for idx, jet in inner.items()} if field.slots else {}
            vden = 1

            def word(J):
                return _nabla_num(field, J, p)[0]
        else:
            words = {}
            for r in range(len(rest)):
                gam = brow[rest[r]]
                for l in range(chart.n):
                    if gam[l]:
                        J = rest[:r] + (l,) + rest[r + 1:]
                        words[J] = _nabla_num(field, J, p)
            derivs, vden = common_values(inner, u)
            lows = common_values(inner)[0] if field.slots else {}
            (derivs, lows, *wvals), vden = _aligned([(derivs, vden), (lows, vden),
                                                     *words.values()])
            if sden != 1:
                derivs = {idx: c * sden for idx, c in derivs.items()}
            word = dict(zip(words, wvals)).__getitem__
    out = covariant_step(chart, field.slots, derivs, lows, symbols)
    if rest:
        row = symbols(False)
        for r in range(len(rest)):
            gam = row[rest[r]]
            for l in range(chart.n):
                if not gam[l]:
                    continue
                for idx, v in word(rest[:r] + (l,) + rest[r + 1:]).items():
                    _add_product(out, idx, gam[l], v, -1)
    return out if order else (out, sden * vden)


def nabla_word_jets(field: Field, I, p, order):
    """Component jets of nabla_{e_I}(field) at p, of jet order ``order``.

    The field's memo holds, per point, one entry per word, ``(top, jets)``:
    its jets at the highest order computed (a miss stores, and recursion
    reads only shorter words).  A lower order is read as their truncation:
    every coefficient below the cut sums the same products in the same
    order (see :func:`atomcur.expr.jet_at`), so it equals the jets derived
    afresh at the lower order.  It may also keep a component whose
    truncated jet is zero, which a fresh derivation could leave out.
    Order 0 wraps the values of :func:`_nabla_num` into order-0 jets.
    """
    I = tuple(I)
    if not order:
        space = JetSpace(field.chart.n, 0)
        nums, den = _nabla_num(field, I, p)
        return {idx: Jet.const(space, p.mode, v, den) for idx, v in nums.items()}
    cache = field._nabla_cache.setdefault(p, {})
    top, jets = cache.get(I, (-1, None))
    if top >= order:
        return jets if top == order else {idx: jet.truncate(order) for idx, jet in jets.items()}
    jets = _nabla_word(field, I, p, order)
    cache[I] = (order, jets)
    return jets


def _nabla_num(field: Field, I: tuple, p):
    """Nonzero components of the order-|I| higher covariant derivative at p
    along the frame word I, as the pair (numerators, den): integer
    numerators over one denominator, canonical as a rational jet is, in
    rational mode, and the values over den 1 in float mode.

    Computed once per (word, point) into ``field._nabla_values``, from the
    jets :func:`nabla_word_jets` holds for the word if any, else by the
    order-0 level of the recursion.  The pair is shared: callers must
    treat it as read-only.  A miss checks the point first, so an
    out-of-domain point still raises on its first query.
    """
    cache = field._nabla_values.setdefault(p, {})
    hit = cache.get(I)
    if hit is not None:
        return hit
    field.chart.check_point(p)
    held = field._nabla_cache.get(p, {}).get(I)
    nums, den = common_values(held[1]) if held else _nabla_word(field, I, p, 0)
    return cache.setdefault(I, _reduced({idx: v for idx, v in nums.items() if v != 0}, den))


def nabla_value(field: Field, I, p) -> dict:
    """Nonzero components of the order-|I| higher covariant derivative at p
    along the frame word I: the values of :func:`_nabla_num`, as Fractions
    in rational mode, and in float mode its memoized dict itself, which
    callers must treat as read-only."""
    nums, den = _nabla_num(field, tuple(I), p)
    return nums if p.mode == FLOAT else _fractions(nums, den)


def nabla_mixed(field: Field, prefix, tensor_value, p):
    """nabla_{e_prefix tensor Z}(field) at p for a tangent-tensor value Z,
    given and returned as a pair (numerators, den).

    Tensoriality in the vector slots reduces Z to its components:
    the result is sum_w Z[w] * nabla_{e_{prefix + w}}(field)(p).
    """
    znums, zden = tensor_value
    out, den = _combine([(c, _nabla_num(field, tuple(prefix) + tuple(w), p))
                         for w, c in znums.items() if c != 0])
    return _reduced({k: v for k, v in out.items() if v != 0}, zden * den)


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


def mixed_tensor_fields(chart, comps: dict, p, budget):
    """Split a word-keyed jet dict into homogeneous jet-backed fields."""
    by_len = {}
    for w, jet in comps.items():
        by_len.setdefault(len(w), {})[w] = jet
    return [jet_field(chart, (TU,) * ell, d, p, budget)
            for ell, d in sorted(by_len.items())]


def covderiv(X: Field, Y: Field, p, order) -> dict:
    """nabla_X Y = sum_i X^i nabla_{e_i} Y for a vector field X, as jets of
    order ``order`` at p keyed by the components of Y.

    The component of X is the left factor of each product, which fixes
    the summation order of the Cauchy product; components of X whose jet
    vanishes are skipped.
    """
    out = {}
    for i in range(X.chart.n):
        xi = X.comp_jet((i,), p, order)
        if not xi:
            continue
        for idx, jet in nabla_word_jets(Y, (i,), p, order).items():
            _add_product(out, idx, xi, jet)
    return out


def nabla_jets_mixed(parts, I, p, order) -> dict:
    """nabla_{e_I} of a mixed tangent tensor, as word-keyed jets."""
    out = {}
    for f in as_field_list(parts):
        for w, jet in nabla_word_jets(f, tuple(I), p, order).items():
            _add_jet(out, w, jet)
    return out


def covariant_product(X, Y, p, out_order) -> dict:
    """X (.) Y = X_(1) tensor nabla_{X_(2)} Y, as word-keyed jets at p.

    ``X`` and ``Y`` are tangent tensor fields or lists of such (mixed
    orders).  C^infty-linear in X: only component jets of X enter.  Jet
    budgets: X parts need ``out_order``; Y parts need ``out_order`` plus
    the top tensor order of X.
    """
    out = {}
    for Xf in as_field_list(X):
        if set(Xf.slots) > {TU}:
            raise ValueError("covariant product is defined for tangent tensor fields")
        for w in Xf.comps:
            Xw = Xf.comp_jet(w, p, out_order)
            if not Xw:
                continue
            unit = Xw.is_constant() and Xw.value == 1
            for (A, B) in tensor_coproduct(w):
                nb = nabla_jets_mixed(Y, B, p, out_order)
                for u, jet in nb.items():
                    _add_jet(out, A + u, jet if unit else Xw * jet)
    return out


def covariant_product_value(X, Y, p) -> dict:
    jets = covariant_product(X, Y, p, 0)
    return {w: v for w, j in jets.items() if (v := j.value) != 0}


# ---------------------------------------------------------------------------
# Exterior derivative (torsion-free): d omega = sum_i e^i wedge nabla_{e_i} omega.

def exterior_derivative(omega: Field, p, out_order) -> Field:
    """d(omega) at p as a jet-backed (k+1)-form field.

    Valid for differential forms (fiber = tangent bundle, all slots down);
    the result is independent of the torsion-free connection used.
    """
    if not omega.chart.fiber_is_tangent or set(omega.slots) > {FD}:
        raise ValueError("exterior derivative applies to differential forms")
    chart = omega.chart
    k = len(omega.slots)
    nb = [nabla_word_jets(omega, (i,), p, out_order) for i in range(chart.n)]
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
        if acc:
            comps[idx] = acc
    return jet_field(chart, (FD,) * (k + 1), comps, p, out_order)


# ---------------------------------------------------------------------------
# Curvature as a field, and curvature-derivative actions.

def curvature_field(chart: ChartConnection, which: str, p, budget) -> Field:
    """R as a jet-backed field: fiber slots (fu, fd, td, td) with the
    components of :meth:`ChartConnection.curvature_jets`; base analogously.
    The field is kept in the chart's point cache, so every caller at p
    shares one nabla memo."""
    fiber = which == "fiber"
    slots = (FU, FD, TD, TD) if fiber else (TU, TD, TD, TD)
    return chart._memo(p, ("curv", fiber, budget), lambda: jet_field(
        chart, slots, chart.curvature_jets(p, budget, fiber), p, budget))


def curvature_endomorphism(chart, S, ab_value, p, fiber=False):
    """(nabla_{e_S} R)_{Z} at p for a 2-tensor value Z, given as a pair
    (numerators, den), as one matrix and its denominator, (end, den):
    end[k][l] on tangent indices (R^TM), or with ``fiber`` end[b][a] on
    fiber indices (R^E)."""
    S = tuple(S)
    field = curvature_field(chart, "fiber" if fiber else "base", p, len(S))
    values, vden = _nabla_num(field, S, p)
    ab, abden = ab_value
    dim = chart.d if fiber else chart.n
    end = [[0] * dim for _ in range(dim)]
    for (uv), c in ab.items():
        if c == 0 or len(uv) != 2:
            continue
        u, v = uv
        for (k, l, uu, vv), x in values.items():
            if (uu, vv) == (u, v):
                end[k][l] += c * x
    return end, abden * vden


# ---------------------------------------------------------------------------
# Identity residuals (spec'd check operations).

def _dict_residual(a: dict, b: dict):
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in keys), default=0)


def _pair_residual(a, b):
    """:func:`_dict_residual` of two (numerators, den) pairs, as a value."""
    (x, y), den = _aligned([a, b])
    return _value(_dict_residual(x, y), den)


_UNIT = ({(): 1}, 1)  # the 0-tensor 1 as a value pair


def nabla_compose_check(v, w, field: Field, p):
    """Residual of nabla_v o nabla_w = nabla_{v_(1) tensor nabla-hat_{v_(2)} w}."""
    chart = field.chart
    v, w = tuple(v), tuple(w)
    # left side: jets of nabla_w(field) to order |v|, then nabla_v of that
    inner = nabla_word_jets(field, w, p, len(v))
    inner_field = jet_field(chart, field.slots, inner, p, len(v))
    left = _nabla_num(inner_field, v, p)
    # right side: Sweedler sum over the tensor coproduct of v
    right = []
    ew = coordinate_tensor_field(chart, w) if w else None
    for (v1, v2) in tensor_coproduct(v):
        if w:
            zval = _nabla_num(ew, v2, p)
        elif v2:
            continue
        else:
            zval = _UNIT
        right.append((1, nabla_mixed(field, v1, zval, p)))
    return _pair_residual(left, _combine(right))


def fundamental_commutation_check(u, v, a, b, field: Field, p):
    """Residual of the commutation identity

    nabla_{u_(1) nabla-hat_{u_(2)}((ab - ba)v)}
        = (nabla_{u_(1)} R^E)_{nabla-hat_{u_(2)}(ab)} o nabla_{u_(3) nabla-hat_{u_(4)} v}
          - nabla_{u_(1) (nabla-hat_{u_(2)} R^TM)_{nabla-hat_{u_(3)}(ab)}(nabla-hat_{u_(4)} v)}

    evaluated on ``field`` at p.
    """
    from .multialg import iterated_tensor_coproduct
    chart = field.chart
    u, v, a, b = tuple(u), tuple(v), int(a), int(b)
    comm_words = [((a, b) + v, 1), ((b, a) + v, -1)]
    # left side
    left = []
    for (u1, u2) in tensor_coproduct(u):
        for word, sgn in comm_words:
            zval = _nabla_num(coordinate_tensor_field(chart, word), u2, p)
            left.append((sgn, nabla_mixed(field, u1, zval, p)))
    # right side, first group
    right = []
    eab = coordinate_tensor_field(chart, (a, b))
    ev = coordinate_tensor_field(chart, v) if v else None
    for (u1, u2, u3, u4) in iterated_tensor_coproduct(u, 4):
        abval = _nabla_num(eab, u2, p)
        base_end, den = curvature_endomorphism(chart, u1, abval, p)
        fiber_end, fden = curvature_endomorphism(chart, u1, abval, p, fiber=True)
        if fden != den:  # both matrices over den * fden
            base_end = [[c * fden for c in row] for row in base_end]
            fiber_end = [[c * den for c in row] for row in fiber_end]
            den *= fden
        # covariant_step reads each endomorphism by rows: the transpose
        base_rows, fiber_rows = [*zip(*base_end)], [*zip(*fiber_end)]
        vval = _nabla_num(ev, u4, p) if v else (_UNIT if not u4 else None)
        if vval is None:
            continue
        inner, iden = nabla_mixed(field, u3, vval, p)
        acted = covariant_step(chart, field.slots, {}, inner,
                               lambda fiber: fiber_rows if fiber else base_rows)
        right.append((1, (acted, den * iden)))
    # right side, second group (subtracted)
    for (u1, u2, u3, u4) in iterated_tensor_coproduct(u, 4):
        abval = _nabla_num(eab, u3, p)
        base_end, den = curvature_endomorphism(chart, u2, abval, p)
        base_rows = [*zip(*base_end)]
        vval = _nabla_num(ev, u4, p) if v else (_UNIT if not u4 else None)
        if vval is None:
            continue
        rv = covariant_step(chart, (TU,) * len(v), {}, vval[0], lambda fiber: base_rows)
        right.append((-1, nabla_mixed(field, u1, (rv, den * vval[1]), p)))
    return _pair_residual(_combine(left), _combine(right))
