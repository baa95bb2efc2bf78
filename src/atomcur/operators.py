"""Distinguished endomorphisms of tensor(TM) box wedge(E) and their
descents to point-supported currents.

All operators act fiberwise at a probe point p, on
:class:`~atomcur.multialg.TensorExtElement` values:

* ``op_E(X)``:      v box alpha |-> v_(1) box (nabla_{v_(2)} X) wedge alpha,
  dual to interior product;
* ``op_D(Y)``:      v box alpha |-> v_(1) tensor (nabla_{v_(2)} Y) box alpha,
  dual to higher covariant differentiation;
* ``op_perp``:      v box alpha |-> v box star^{-1}(alpha), dual to the
  Hodge star (metric required).  Both stars, on multivectors
  (``pointwise_star``) and on form fields (``star_form_jets``), are one
  formula in g(p), its minors and sqrt(det g(p)); they need det g > 0 and
  are exact in rational mode wherever sqrt(det g(p)) is rational;
* ``op_Edag``:      the adjoint of op_E, both as star-conjugation and as
  the explicit signed contraction sum (the two must agree);
* ``op_Edag_theta``: the Koszul-style variant taking a covector-field
  argument, metric-free;
* ``op_Ddag``:      the adjoint of covariant differentiation, recursive in
  the tensor order of its argument;
* ``sharp``:        the smash-type product on point germs, with the
  combined actions op_DE / op_DEdag;
* ``boundary``:     dual to exterior derivative (normative duality route),
  with the trace lift sum_i D_{e_i} o Edag_{e^i} implemented and compared.

Each lift is one Sweedler sum v_(1) box (an action of nabla_{v_(2)}) that
reads its chart from the field it is built from, and shared recipes have
one home here: ``_edag_contraction`` is the signed contraction behind
op_Edag and op_Edag_theta (only the pairing differs), ``_perp_conjugate``
is the degree-signed perp conjugation behind the conjugate route of
op_Edag and adjoint_of_Edag, and ``_sum_D_compose`` is the sum of
D o (E or Edag) behind op_DE, op_DEdag and the trace lifts.
PBW coordinates of a functional come from the triangular probe solve in
:mod:`atomcur.atomic`.  Endomorphisms are closures over immutable chart
data; a leaf lift also holds its rows, what its action reads of each
Sweedler factor, derived once per endomorphism (``_sweedler_lift``).
In rational mode a row holds integer numerators over one denominator,
read straight from the nabla value pairs (numerators, den) of
:func:`atomcur.covderiv._nabla_num`, and an action multiplies integers.
"""

from __future__ import annotations

import itertools

from . import atomic as at
from . import covderiv as cd
from . import expr as ex
from .connection import ChartConnection
from .covderiv import FD, FU, TU, Field
from .jets import FLOAT, EvalDomainError, Jet, JetSpace, apply_elementary, common_values
from .multialg import (TensorExtElement, _combine, _delta_nums, _ratios, _reduced, _scales,
                       all_words, anti_indices, det, iterated_tensor_coproduct, merge_sign,
                       tensor_coproduct, wedge_merge)


class FiberEndo:
    """A linear endomorphism of tensor(T_p M) box wedge(E_p), held as the
    closure ``fn``; ``compose``, ``+`` and ``scaled`` wrap closures."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x: TensorExtElement) -> TensorExtElement:
        return self.fn(x)

    def compose(self, other: "FiberEndo") -> "FiberEndo":
        return FiberEndo(lambda x: self(other(x)))

    def __add__(self, other: "FiberEndo") -> "FiberEndo":
        return FiberEndo(lambda x: self(x) + other(x))

    def scaled(self, a) -> "FiberEndo":
        return FiberEndo(lambda x: self(x).scale(a))


def _endo_sum(terms, n, d) -> FiberEndo:
    """The left fold ((t1 + t2) + t3) + ... of endomorphisms, so each image
    sums its terms in order; the zero map when there are none."""
    endo = None
    for term in terms:
        endo = term if endo is None else endo + term
    return endo if endo is not None else FiberEndo(lambda x: TensorExtElement(n, d))


def endo_residual(a: FiberEndo, b: FiberEndo, elements) -> float:
    worst = 0
    for x in elements:
        diff = a(x) - b(x)
        worst = max(worst, diff.max_abs())
    return worst


def _incr_items(val: dict):
    for K, c in val.items():
        if c != 0 and all(K[i] < K[i + 1] for i in range(len(K) - 1)):
            yield K, c


def _nabla_values(parts, B, p):
    """nabla_{e_B} of a field or a mixed list of fields at p, as a value
    pair (numerators, den)."""
    parts = cd.as_field_list(parts)
    if len(parts) == 1:
        return cd._nabla_num(parts[0], B, p)
    out, den = _combine([(1, cd._nabla_num(f, B, p)) for f in parts])
    return _reduced({k: v for k, v in out.items() if v != 0}, den)


# ---------------------------------------------------------------------------
# Interior-product and covariant-differentiation actions.

def _sweedler_lift(key, row, act, p) -> FiberEndo:
    """The lift of a Sweedler-sum recipe at p: each term c (v box eps_K)
    maps to the sum over deshuffles (A, B) = (v_(1), v_(2)) of v, where
    ``act(out, A, B, K, c, entries)`` adds one summand to ``out``.

    ``key`` names the Sweedler factor that the action reads, and ``row``
    derives what the action needs of it with unit coefficient (a nabla
    value, or a signed contraction), as (entries, den).  A row is built on
    first use and held by this endomorphism, so each is derived once
    however many terms and deshuffles read it, and it goes when the
    endomorphism goes.  ``act`` multiplies c into the entries.

    In float mode the entries are values (den is 1) and are used as they
    are.  In rational mode they are integer numerators: an image first
    reads the rows of its terms, then runs each action with c rescaled to
    the lcm L of their denominators, so the image is integer numerators
    over x.den * L, reduced once."""
    rows = {}
    if p.mode == FLOAT:
        def fn(x: TensorExtElement) -> TensorExtElement:
            out = TensorExtElement(x.n, x.d)
            for (w, K), c in x.nums.items():
                for (A, B) in tensor_coproduct(w):
                    rk = key(A, B, K)
                    r = rows.get(rk)
                    if r is None:
                        r = rows[rk] = row(rk)[0]
                    act(out, A, B, K, c, r)
            return out

        return FiberEndo(fn)

    def exact_fn(x: TensorExtElement) -> TensorExtElement:
        read = []  # the row of each (term, deshuffle), in the order of the action pass
        for (w, K), _c in x.nums.items():
            for (A, B) in tensor_coproduct(w):
                rk = key(A, B, K)
                r = rows.get(rk)
                if r is None:
                    r = rows[rk] = row(rk)
                read.append(r)
        den, scale = _scales(rden for _entries, rden in read)
        out = TensorExtElement(x.n, x.d)
        rit = iter(read)
        for (w, K), c in x.nums.items():
            for (A, B) in tensor_coproduct(w):
                entries, rden = next(rit)
                act(out, A, B, K, c * scale[rden], entries)
        out.den = x.den * den
        out._reduce()
        return out

    return FiberEndo(exact_fn)


def op_E(X: Field, p) -> FiberEndo:
    """E_X(v box alpha) = v_(1) box (nabla_{v_(2)} X) wedge alpha."""
    if not (set(X.slots) <= {FU}):
        raise ValueError("op_E takes a fiber multivector field (or scalar)")

    def row(B):
        nums, den = cd._nabla_num(X, B, p)
        return list(_incr_items(nums)), den

    def act(out, A, B, K, c, row):
        for KX, cx in row:
            s, merged = wedge_merge(KX, K)
            if s:
                out._add((A, merged), s * c * cx)

    return _sweedler_lift(lambda A, B, K: B, row, act, p)


def op_D(Y, p) -> FiberEndo:
    """D_Y(v box alpha) = v_(1) tensor (nabla_{v_(2)} Y) box alpha."""
    for f in cd.as_field_list(Y):
        if not (set(f.slots) <= {TU}):
            raise ValueError("op_D takes a tangent tensor field")

    def act(out, A, B, K, c, row):
        for wy, cy in row.items():
            out._add((A + wy, K), c * cy)

    return _sweedler_lift(lambda A, B, K: B, lambda B: _nabla_values(Y, B, p), act, p)


def f_lrcorner(f: Field, p) -> FiberEndo:
    """The module action lift f_corner(v box alpha) = (nabla_{v_(1)} f) v_(2) box alpha."""
    if f.slots != ():
        raise ValueError("f_lrcorner needs a scalar field")

    def row(A):
        nums, den = cd._nabla_num(f, A, p)
        return nums.get((), 0), den

    def act(out, A, B, K, c, fa):
        if fa != 0:
            out._add((B, K), c * fa)

    return _sweedler_lift(lambda A, B, K: A, row, act, p)


def identity_endo(n, d) -> FiberEndo:
    return FiberEndo(lambda x: x + TensorExtElement(n, d))


# ---------------------------------------------------------------------------
# Metric plumbing: the pointwise Hodge star.

def pointwise_star(chart: ChartConnection, p):
    """(star, star_inverse) on wedge(T_p M) w.r.t. the metric at p, acting on
    increasing-key coefficient maps in the coordinate frame.

    The multivector twin of :func:`star_form_jets`, from the minors of g(p)
    and sqrt(det g(p)): (star beta)^L = sgn(L^c, L) <e_{L^c}, beta>_g / sqrt(det g),
    and star^{-1} = (-1)^{k(n-k)} star on degree-k input.  Exact in rational
    mode wherever sqrt(det g(p)) is rational.
    """
    chart.require_metric()
    n = chart.n
    g = chart.metric_value(p)
    vol = chart._memo(p, ("sqrt-det", 0),
                      lambda: _sqrt_det(chart._metric_inverse_jets(p, 0)[1])).value

    def apply(val, inverse):
        out = {}
        for k in dict.fromkeys(len(K) for K, _c in _incr_items(val)):
            flip = -1 if inverse and k * (n - k) % 2 else 1
            minors = _minors(chart, p, ("g-minors", k), g, k)
            for L in itertools.combinations(range(n), n - k):
                Lc = tuple(i for i in range(n) if i not in L)
                pv = _gram_pair(minors, val, Lc)
                if pv != 0:
                    out[L] = merge_sign(Lc, L) * flip * pv / vol
        return out

    return (lambda val: apply(val, False)), (lambda val: apply(val, True))


def op_perp(chart: ChartConnection, p, inverse=False) -> FiberEndo:
    """perp(v box alpha) = v box star^{-1}(alpha); needs a metric, and the star
    uses the coordinate orientation."""
    if not chart.fiber_is_tangent:
        raise ValueError("op_perp is defined on the tangent-fiber picture")
    star, star_inv = pointwise_star(chart, p)
    act = star if inverse else star_inv

    def fn(x: TensorExtElement) -> TensorExtElement:
        out = TensorExtElement(x.n, x.d)
        by_word = {}
        for (w, K), c in x.coeffs.items():
            by_word.setdefault(w, {})[K] = c
        for w, val in by_word.items():
            for K, c in act(val).items():
                out.add_term(w, K, c)
        return out

    return FiberEndo(fn)


# ---------------------------------------------------------------------------
# Adjoint of interior product.

def _edag_fiber(pair, val: dict, r, K):
    """The signed contraction sum on eps_K, as (subset, coefficient) pairs:

    Edag(eps_K) = sum over r-subsets L of positions (1-based) of K of
    (-1)^{l1+...+lr + r(r+1)/2} pair(val, K_L) eps_{K minus L}."""
    k = len(K)
    for pos in itertools.combinations(range(k), r):
        pv = pair(val, tuple(K[q] for q in pos))
        if pv != 0:
            sgn = (-1) ** (sum(q + 1 for q in pos) + r * (r + 1) // 2)
            yield tuple(K[q] for q in range(k) if q not in pos), sgn * pv


def _minors(chart: ChartConnection, p, key, mat, k) -> dict:
    """The k x k minors {(R, C): det(mat[R, C])} of the square matrix ``mat``
    over all k-subsets R, C, held on the chart per point under ``key``, so
    each minor is derived once per point."""
    return chart._memo(p, key, lambda: {
        (R, C): det([[mat[r][c] for c in C] for r in R])
        for R in anti_indices(len(mat), k) for C in anti_indices(len(mat), k)})


def _gram_pair(minors, val: dict, A) -> object:
    """<multivector value, eps_A> under the metric pairing: the sum of
    val^B det(g[B, A]), each minor read from the table ``minors``."""
    total = 0
    for B, c in _incr_items(val):
        if len(B) != len(A):
            continue
        dv = minors[(B, A)]
        if dv != 0:
            total += c * dv
    return total


def _edag_contraction(field: Field, p, pair, pair_den) -> FiberEndo:
    """v box alpha |-> v_(1) box Edag_{nabla_{v_(2)} field} alpha, the signed
    contraction of :func:`_edag_fiber` with ``pair(value, KL)`` pairing the
    value numerators of nabla_{v_(2)} field against eps_{KL}, a numerator
    over the value's denominator times ``pair_den``.  Its row per
    (v_(2), K) holds the pairs of that contraction, pairings included."""
    r = len(field.slots)

    def row(BK):
        B, K = BK
        val, den = cd._nabla_num(field, B, p)
        return (list(_edag_fiber(pair, val, r, K)) if val else []), den * pair_den

    def act(out, A, B, K, c, row):
        for K2, v in row:
            out._add((A, K2), v * c)

    return _sweedler_lift(lambda A, B, K: (B, K), row, act, p)


def _perp_conjugate(chart: ChartConnection, endo: FiberEndo, sign, p,
                    inverse=False) -> FiberEndo:
    """sign(k) perp o endo o perp^{-1} on each term of exterior degree k;
    with ``inverse``, sign(k) perp^{-1} o endo o perp."""
    perp = op_perp(chart, p)
    perp_inv = op_perp(chart, p, inverse=True)
    outer, inner = (perp_inv, perp) if inverse else (perp, perp_inv)

    def fn(x: TensorExtElement) -> TensorExtElement:
        out = TensorExtElement(x.n, x.d)
        for (w, K), c in x.coeffs.items():
            sgn = sign(len(K))
            res = outer(endo(inner(TensorExtElement(x.n, x.d, {(w, K): c}))))
            for (w2, K2), c2 in res.coeffs.items():
                out.add_term(w2, K2, sgn * c2)
        return out

    return FiberEndo(fn)


def op_Edag(X: Field, p, route="contract") -> FiberEndo:
    """Adjoint of op_E for a fiber multivector field X (metric required).

    ``route='contract'``: Edag_X(v box alpha) = v_(1) box Edag_{nabla_{v_(2)} X} alpha
    with the explicit signed contraction against the metric pairing.
    ``route='conjugate'``: (-1)^{r(k+r)} perp o E_X o perp^{-1}, degreewise.
    Both routes must agree; each is exercised against the other in tests.
    """
    if not (set(X.slots) <= {FU}):
        raise ValueError("op_Edag takes a fiber multivector field")
    chart = X.chart
    chart.require_metric()
    r = len(X.slots)
    if route == "conjugate":
        return _perp_conjugate(chart, op_E(X, p), lambda k: (-1) ** (r * (k + r)), p)
    minors = _minors(chart, p, ("g-minors", r), chart.metric_value(p), r)
    minors, den = (minors, 1) if p.mode == FLOAT else _ratios(minors)
    return _edag_contraction(X, p, lambda val, KL: _gram_pair(minors, val, KL), den)


def op_Edag_theta(theta: Field, p) -> FiberEndo:
    """Koszul-style adjoint with a covector-field argument (metric-free):
    the contraction pairing theta_p(alpha_{L_r}) replaces <X(p), alpha_{L_r}>."""
    if not (set(theta.slots) <= {FD}):
        raise ValueError("op_Edag_theta takes a fiber form field")
    return _edag_contraction(theta, p, lambda val, KL: val.get(KL, 0), 1)


# ---------------------------------------------------------------------------
# Adjoint of covariant differentiation.

def divergence_field(X: Field, p, budget) -> Field:
    """div X = trace of nabla X, as a jet-backed scalar field at p."""
    chart = X.chart
    chart.require_metric()
    total = None
    for i in range(chart.n):
        jets = cd.nabla_word_jets(X, (i,), p, budget)
        jet = jets.get((i,))
        if jet is not None:
            total = jet if total is None else total + jet
    if total is None:
        total = Jet.zero(JetSpace(chart.n, budget), p.mode)
    return cd.jet_field(chart, (), {(): total}, p, budget)


def op_Ddag(X, p, budget) -> FiberEndo:
    """Adjoint of covariant differentiation.

    Vector case: Ddag_X = -div(X)_corner - D_X.  Tensor case, recursively:
    Ddag_{X tensor Y} = Ddag_X o Ddag_Y - Ddag_{X_(1') nabla_{X_(2')} Y},
    where the primed Sweedler factors omit the X tensor 1 term (for a
    vector first factor the correction argument is nabla_X Y).
    """
    parts = cd.as_field_list(X)
    chart = parts[0].chart
    orders = {len(f.slots) for f in parts}
    if orders <= {0}:
        # order-0 tensor: plain function, Ddag_f = f_corner adjoint-free path
        return f_lrcorner(parts[0], p)
    if orders == {1}:
        return _endo_sum((f_lrcorner(divergence_field(f, p, budget), p).scaled(-1)
                          + op_D(f, p).scaled(-1) for f in parts), chart.n, chart.d)

    tails = {}  # w[1:] -> (e_{w[1:]}, its adjoint), built once per call

    def terms():
        # higher order: decompose each component word, attaching the scalar
        # coefficient to the leading vector factor
        for f in parts:
            for w in f.comps:
                if f.jet_backed:
                    head = cd.jet_field(chart, (TU,), {(w[0],): f.comps[w]}, p, f.budget)
                else:
                    head = Field(chart, (TU,), {(w[0],): f.comps[w]})
                d_head = op_Ddag(head, p, budget)
                tail = tails.get(w[1:])
                if tail is None:
                    rest = cd.coordinate_tensor_field(chart, w[1:])
                    tail = tails[w[1:]] = (rest, op_Ddag(rest, p, budget))
                rest, d_rest = tail
                # correction: Ddag_{nabla_head rest}
                corr_jets = cd.covderiv(head, rest, p, budget)
                term = d_head.compose(d_rest)
                if corr_jets:
                    # the correction is jet-backed at this level's budget, so the
                    # recursive divergence runs one order lower
                    corr_parts = cd.mixed_tensor_fields(chart, corr_jets, p, budget)
                    term = term + op_Ddag(corr_parts, p, budget - 1).scaled(-1)
                yield term

    return _endo_sum(terms(), chart.n, chart.d)


# ---------------------------------------------------------------------------
# The smash-type product and the combined actions.

class SharpElement:
    """A point germ of tensor(TM) box wedge(E): coefficient jets over
    (word, anti-index) keys at ``point``, with enough jet budget for the
    nabla contractions of the product."""

    __slots__ = ("chart", "point", "budget", "coeffs")

    def __init__(self, chart, point, budget, coeffs=None):
        self.chart = chart
        self.point = point
        self.budget = budget
        self.coeffs = dict(coeffs or {})

    @staticmethod
    def from_fields(tensor_part: Field, ext_part: Field, p, budget):
        coeffs = {}
        for w in tensor_part.comps:
            jw = tensor_part.comp_jet(w, p, budget)
            for K in ext_part.comps:
                if all(K[i] < K[i + 1] for i in range(len(K) - 1)):
                    jk = ext_part.comp_jet(K, p, budget)
                    coeffs[(w, K)] = jw * jk
        return SharpElement(tensor_part.chart, p, budget, coeffs)


def unit_sharp(chart, p, budget) -> SharpElement:
    one = Jet.const(JetSpace(chart.n, budget), p.mode, 1)
    return SharpElement(chart, p, budget, {((), ()): one})


def sharp(a: SharpElement, b: SharpElement) -> SharpElement:
    """(v box alpha) sharp (w box beta) = (w_(1) (.) v) box (nabla_{w_(2)} alpha) wedge beta.

    The result loses jet budget: top tensor order of b plus one covers the
    covariant product and nabla contractions.  Each covariant product
    e_{w1} (.) f e_{wa} is derived once per call and freed as soon as no
    later term of b reads the left word w1.
    """
    chart, p = a.chart, a.point
    top_b = max((len(w) for (w, _K) in b.coeffs), default=0)
    out_budget = min(a.budget, b.budget) - top_b
    if out_budget < 0:
        raise ValueError("insufficient jet budget for sharp product")
    out = SharpElement(chart, p, out_budget)
    # per-call memos: one jet-backed head f e_{wa} per key of a, at the budget
    # of the longest w1, so every covariant product for that key shares its
    # nabla memo (truncation is a prefix, so no product changes); the
    # k-vector eps_{Ka}; and, per left word w1, the frame tensor e_{w1} and
    # its covariant products, which do not depend on the term of b: they
    # live until the last b-term whose deshuffles read w1 is done
    head_budget = out_budget + top_b
    heads = {akey: cd.mixed_tensor_fields(chart, {akey[0]: fjet.truncate(head_budget)}, p,
                                          head_budget)
             for akey, fjet in a.coeffs.items()}
    kvecs = {Ka: cd.kvector_field(chart, len(Ka), {Ka: 1}) for (_wa, Ka) in a.coeffs}
    # the loop runs on jets of the result's order (den 1), or at budget 0 on
    # value pairs (numerators, den) at p: zero nabla values left out, the
    # products summed per denominator and wrapped into order-0 jets
    if out_budget:
        def low(jets):
            return {k: jet.truncate(out_budget) for k, jet in jets.items()}, 1

        def nabla_at(field, w):
            return cd.nabla_word_jets(field, w, p, out_budget), 1
    else:
        low = common_values

        def nabla_at(field, w):
            return cd._nabla_num(field, w, p)
    gvals, gden = low(b.coeffs)
    last = {w1: bi for bi, (wb, _Kb) in enumerate(gvals) for (w1, _w2) in tensor_coproduct(wb)}
    frames, prods = {}, {}  # w1 -> e_{w1}; w1 -> {a-key: covariant product}
    sinks = {}  # den -> {key: sum of products over den}
    for bi, ((wb, Kb), g0) in enumerate(gvals.items()):
        gprods = {}  # g * prod per (w1, a-key), shared by deshuffles repeating w1
        deshuffles = tensor_coproduct(wb)
        for (w1, w2) in deshuffles:
            w1prods = prods.setdefault(w1, {})
            for akey in a.coeffs:
                # tensor part: g * (e_{w1} (.) f e_{wa})
                prod = w1prods.get(akey)
                if prod is None:
                    ew1 = frames.get(w1)
                    if ew1 is None:
                        ew1 = frames[w1] = cd.coordinate_tensor_field(chart, w1)
                    prod = w1prods[akey] = cd.covariant_product(
                        ew1, heads[akey], p, out_budget)
                # exterior part: (nabla_{e_{w2}} eps_{Ka}) wedge eps_{Kb}
                nb, nden = nabla_at(kvecs[akey[1]], w2)
                gprod = gprods.get((w1, akey))
                for KX in list(nb):
                    if not all(KX[i] < KX[i + 1] for i in range(len(KX) - 1)):
                        continue
                    s, merged = wedge_merge(KX, Kb)
                    if not s:
                        continue
                    wedge = nb[KX] if s == 1 else -nb[KX]
                    if gprod is None:
                        pvals, pden = low(prod)
                        gprod = gprods[(w1, akey)] = (
                            [(wkey, g0 * pj) for wkey, pj in pvals.items()], gden * pden)
                    terms, tden = gprod
                    sink = sinks.get(tden * nden)
                    if sink is None:
                        sink = sinks[tden * nden] = {}
                    for wkey, gpj in terms:
                        cd._add_product(sink, (wkey, merged), gpj, wedge)
        # after the whole b-term, which may repeat w1 among its deshuffles
        for (w1, _w2) in deshuffles:
            if last[w1] == bi:
                frames.pop(w1, None)
                prods.pop(w1, None)
    if len(sinks) == 1:
        (den, vals), = sinks.items()
    else:
        vals, den = _combine([(1, (sink, d)) for d, sink in sinks.items()])
    if out_budget:
        out.coeffs = vals
    else:
        space = JetSpace(chart.n, 0)
        out.coeffs = {key: Jet.const(space, p.mode, v, den) for key, v in vals.items()}
    return out


def _sum_D_compose(chart: ChartConnection, pairs, p) -> FiberEndo:
    """sum over (Y, L) in ``pairs`` of D_Y o L, folded left in order; each
    lower lift L is op_E, op_Edag or op_Edag_theta of a field, and one L may
    serve several pairs."""
    return _endo_sum((op_D(Y, p).compose(low) for Y, low in pairs), chart.n, chart.d)


def _sharp_pairs(a: SharpElement, lower):
    """(v, lower(eps_K)) per key (w, K) of a: the tensor part with its jet,
    and the lower lift of the constant k-vector field eps_K, built once per
    distinct exterior key K, so the keys sharing K share its rows."""
    lowers = {}
    for (w, K), jet in a.coeffs.items():
        low = lowers.get(K)
        if low is None:
            low = lowers[K] = lower(cd.kvector_field(a.chart, len(K), {K: 1}), a.point)
        yield cd.mixed_tensor_fields(a.chart, {w: jet}, a.point, a.budget), low


def op_DE(a: SharpElement) -> FiberEndo:
    """DE_{v box alpha} = D_v o E_alpha, extended linearly over the keys of a,
    with one op_E per exterior key."""
    return _sum_D_compose(a.chart, _sharp_pairs(a, op_E), a.point)


def op_DEdag(a: SharpElement) -> FiberEndo:
    """DEdag_{v box alpha} = D_v o Edag_alpha (metric route on the exterior
    part), with one op_Edag per exterior key."""
    return _sum_D_compose(a.chart, _sharp_pairs(a, op_Edag), a.point)


# ---------------------------------------------------------------------------
# Boundary operator.

def resolve_functional(chart, p, r, k, eval_fn) -> at.AtomicCurrent:
    """PBW coordinates of a functional given by probe evaluations, by the
    triangular probe solve that to_pbw also runs.

    ``eval_fn(probe, T, L)`` receives both the probe field (built on this
    chart) and its label, so evaluators tied to a different connection can
    rebuild the same monomial form on their own chart.
    """
    return at._pbw_solve(chart, p, r, k, eval_fn)


def boundary(chart: ChartConnection, T: at.AtomicCurrent) -> at.AtomicCurrent:
    """The boundary, normatively defined by duality: (dT)(omega) = T(d omega).

    Probes of order r+1 and degree k-1 are evaluated against the exterior
    derivative and the PBW coordinates re-solved.  The differentiated
    probes are cached per point for the running check
    (:func:`atomcur.atomic.probe_differential`), so later boundaries at p
    in that check derive no covariant derivative again.
    Degree-0 input returns the zero functional.
    """
    if T.k == 0:
        return at.AtomicCurrent(T.point, T.r + 1, 0, chart.d)
    p = T.point
    terms = at.phi_terms(T)

    def eval_fn(_probe, mono, L):
        dpr = at.probe_differential(chart, p, mono, L, T.r)
        return at.phi_apply(T, dpr, p, terms)

    return resolve_functional(chart, p, T.r + 1, T.k - 1, eval_fn)


def coframe_field(chart: ChartConnection, i) -> Field:
    """The coordinate co-frame covector e^i as a constant-component form field."""
    return cd.form_field(chart, 1, {(i,): 1})


def frame_field(chart: ChartConnection, i) -> Field:
    return cd.vector_field(chart, {i: 1})


def trace_DEdag_endo(chart: ChartConnection, p, frame=None, coframe=None) -> FiberEndo:
    """The lift tr(DEdag) = sum_i D_{F_i} o Edag_theta_{F^i} over a frame and
    its dual coframe (coordinate frame by default; the trace is frame
    independent and metric-free in this Koszul form)."""
    pairs = ((frame[i] if frame else frame_field(chart, i),
              op_Edag_theta(coframe[i] if coframe else coframe_field(chart, i), p))
             for i in range(chart.n))
    return _sum_D_compose(chart, pairs, p)


def boundary_via_trace(chart: ChartConnection, T: at.AtomicCurrent) -> at.AtomicCurrent:
    """Boundary through the trace lift: apply tr(DEdag) to the current (its
    own lift on PBW words) and re-project.  Must agree with the duality
    route."""
    if T.k == 0:
        return at.AtomicCurrent(T.point, T.r + 1, 0, chart.d)
    p = T.point
    out = trace_DEdag_endo(chart, p)(T)
    return at.to_pbw(chart, out, p, r=T.r + 1, k=T.k - 1)


# ---------------------------------------------------------------------------
# Hodge star on form fields, codifferential, adjoint involution.

def raise_form_jets(omega: Field, p, budget) -> dict:
    """Jets of a k-form raised by the metric, on increasing keys:

    (omega^sharp)^A = sum_K omega_K det(g^{-1}[A, K]).

    Components of an expression-backed ``omega`` whose jet vanishes are
    skipped; the result maps each anti-index A reached to its jet.  The
    minors of g^{-1} are held per point on the chart (:func:`_minors`)."""
    chart = omega.chart
    chart.require_metric()
    n = chart.n
    k = len(omega.slots)
    ginv = chart._metric_inverse_jets(p, budget)[0]
    minors = _minors(chart, p, ("ginv-minors", k, budget), ginv, k)
    comps = {}
    for K in anti_indices(n, k):
        if omega.jet_backed:
            w = omega.comps.get(K)
        else:
            w = omega.comp_jet(K, p, budget)
            if not w:
                w = None
        if w is not None:
            comps[K] = w.truncate(budget)
    out = {}
    for A in anti_indices(n, k):
        acc = None
        for K, w in comps.items():
            term = w * minors[(A, K)]
            acc = term if acc is None else acc + term
        if acc is not None:
            out[A] = acc
    return out


def star_form_jets(omega: Field, p, budget, inverse=False) -> Field:
    """Pointwise-varying Hodge star of a form field, as jets at p.

    Uses alpha wedge star(beta) = <alpha, beta>_g vol: the star is the
    raised form times sqrt(det g) and a sign,
    (star omega)_L = sgn(L^c, L) sqrt(det g) (omega^sharp)^{L^c}.
    ``inverse`` applies star^{-1} = (-1)^{k(n-k)} star on degree-k input
    (Riemannian signature assumed).  Requires a positive metric determinant.
    """
    chart = omega.chart
    n = chart.n
    k = len(omega.slots)
    raised = raise_form_jets(omega, p, budget)
    sqrtg = chart._memo(p, ("sqrt-det", budget),
                        lambda: _sqrt_det(chart._metric_inverse_jets(p, budget)[1]))
    flip = -1 if inverse and k * (n - k) % 2 else 1
    comps = {}
    for L in itertools.combinations(range(n), n - k):
        Lc = tuple(i for i in range(n) if i not in L)
        acc = raised.get(Lc)
        if acc is not None:
            jet = sqrtg * acc
            comps[L] = jet if merge_sign(Lc, L) * flip == 1 else -jet
    return cd.jet_field(chart, (FD,) * (n - k), cd.antisymmetrize(comps, Jet.__neg__),
                        p, budget)


def _sqrt_det(detg):
    """sqrt(det g) as a jet; exact when det g is a constant rational square,
    otherwise through the float series (ExactModeError in rational mode).
    Both stars read it, so this one guard rejects det g <= 0 for both."""
    if detg.value <= 0:
        raise EvalDomainError("the Hodge star needs a positive metric determinant")
    if detg.is_constant():
        folded = ex.ex_sqrt(ex.Const(detg.value))
        if isinstance(folded, ex.Const):
            return Jet.const(detg.space, detg.mode, folded.value)
    return apply_elementary("sqrt", detg)


def codifferential_form(omega: Field, p, budget) -> Field:
    """delta omega = (-1)^k star^{-1} d star omega, as a jet-backed field at p."""
    k = len(omega.slots)
    st = star_form_jets(omega, p, budget + 1)
    dst = cd.exterior_derivative(st, p, out_order=budget)
    out = star_form_jets(dst, p, budget, inverse=True)
    if k % 2 == 1:
        out = cd.jet_field(out.chart, out.slots, {i: -j for i, j in out.comps.items()}, p, budget)
    return out


def trace_DE_endo(chart: ChartConnection, p) -> FiberEndo:
    """tr(DE) = sum_i D_{e_i} o E_{e^i} on the dual-fiber picture (E = T*M),
    where e^i is the coordinate co-frame seen as a section of E."""
    if chart.fiber_is_tangent:
        raise ValueError("trace_DE_endo expects the dual-fiber chart")
    pairs = ((frame_field(chart, i), op_E(cd.kvector_field(chart, 1, {(i,): 1}), p))
             for i in range(chart.n))
    return _sum_D_compose(chart, pairs, p)


def adjoint_of_Edag(chart: ChartConnection, endo: FiberEndo, r: int, p) -> FiberEndo:
    """Adjoint of a degree-lowering (Edag-type) endomorphism:
    on exterior degree m, (-1)^{r(n-m+r)} perp^{-1} o endo o perp."""
    n = chart.n
    return _perp_conjugate(chart, endo, lambda m: (-1) ** (r * (n - m + r)), p,
                           inverse=True)


def delta_commutation_residual(image, key):
    """Residual of the co-derivation law
    Delta(endo x) = (endo tensor id)(Delta x) + (-1)^{k1} (id tensor endo)(Delta x)
    on the basis element x at ``key``, with k1 the exterior degree of the left
    factor of each summand.  ``image(key)`` is endo of the basis element at
    key, so a caller that memoizes it applies endo once per key."""
    out = image(key)
    rhs = []
    for (kl, kr), c in _delta_nums(TensorExtElement(out.n, out.d, {key: 1})).items():
        left = image(kl)
        rhs.append((1, ({(key1, kr): c * c1 for key1, c1 in left.nums.items()}, left.den)))
        s = (-1) ** len(kl[1])
        right = image(kr)
        rhs.append((1, ({(kl, key2): s * c * c2 for key2, c2 in right.nums.items()},
                        right.den)))
    return cd._pair_residual((_delta_nums(out), out.den), _combine(rhs))


def probe_annihilation_residual(chart, el: TensorExtElement, p, r_probe, k_probe):
    """Worst probe evaluation of Phi(el) over monomial probes of order <=
    r_probe and degree k_probe."""
    worst = 0
    terms = at.phi_terms(el)
    for _T, _L, probe in at.monomial_probes(chart, p, r_probe, k_probe):
        worst = max(worst, abs(at.phi_apply(el, probe, p, terms)))
    return worst


def trace_DEdag_lift_check(chart: ChartConnection, p, r: int, k: int):
    """Report on the trace lift tr(DEdag) = sum_i D_{e_i} o Edag_theta_{e^i}:

    (a) it preserves ker Phi (each kernel-basis element is annihilated on
        all probes after applying the lift), so it descends to currents;
    (b) it satisfies the co-derivation law with Delta_otimes;
    (c) it raises tensor order by at most one and drops exterior degree by one.

    (b) and (c) read one image of the lift per basis key.
    """
    endo = trace_DEdag_endo(chart, p)
    images = {}

    def image(key):
        out = images.get(key)
        if out is None:
            out = images[key] = endo(TensorExtElement(chart.n, chart.d, {key: 1}))
        return out

    report = {"kernel_preservation": 0, "delta_commutation": 0,
              "order_degree_ok": True}
    for _label, kel in at.kernel_basis(chart, p, r, k):
        out = endo(kel)
        res = probe_annihilation_residual(chart, out, p, r + 1, k - 1)
        report["kernel_preservation"] = max(report["kernel_preservation"], res)
    for w in all_words(chart.n, r):
        for K in anti_indices(chart.d, k):
            report["delta_commutation"] = max(
                report["delta_commutation"], delta_commutation_residual(image, (w, K)))
            out = image((w, K))
            if out.max_order() > len(w) + 1 or any(len(K2) != k - 1
                                                   for (_w, K2) in out.nums):
                report["order_degree_ok"] = False
    return report


def gamma_gamma_local_frame(chart: ChartConnection, p, w, K):
    """Local-frame expansion of tr(DEdag) restricted to genuine symbol
    products (nonempty Sweedler words on both factors),

        (-1)^{j+1} Gamma^r_{I_(1), i} Gamma^s_{I_(2), i} <e_r, e_j>
            e_{I_(3)} tensor e_s box eps_{K minus j}.

    Returns the resulting element; on a flat orthonormal chart every term
    carries a symbol with nonempty word, so the result vanishes, while the
    boundary operator itself does not.  The duality route is normative.
    """
    chart.require_metric()
    g = chart.metric_value(p)
    out = TensorExtElement(chart.n, chart.d)
    for i in range(chart.n):
        for (I1, I2, I3) in iterated_tensor_coproduct(tuple(w), 3):
            if not I1 or not I2:
                continue  # strict reading: only genuine higher-order symbols
            G1 = chart.higher_gamma(I1, i, p)
            G2 = chart.higher_gamma(I2, i, p)
            for pos in range(len(K)):
                j = K[pos]
                rest = K[:pos] + K[pos + 1:]
                sgn = (-1) ** (pos + 2)  # (-1)^{j+1} with 1-based position
                for rr in range(chart.n):
                    if G1[rr] == 0:
                        continue
                    for ss in range(chart.n):
                        c = G1[rr] * G2[ss] * g[rr][j]
                        if c != 0:
                            out.add_term(I3 + (ss,), rest, sgn * c)
    return out
