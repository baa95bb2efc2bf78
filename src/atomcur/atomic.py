"""The fiber of point-supported currents: quotient map, PBW and kernel bases.

The surjection Phi sends an element of tensor(T_p M) box wedge^k(E_p) to
the functional

    omega |-> (nabla_{e_I} omega)_p (eps_K),

extended linearly over the coefficient map.  Its image has the PBW basis
indexed by nondecreasing words I and increasing k-subsets K; coordinates
in that basis are extracted by probing with the monomial forms
(e - p)^T / T! * d eps^L and back-substituting in descending total degree
(the probe matrix is unit-triangular by the monomial lemma).  The kernel
has an explicit basis of curvature-corrected commutators, validated here
by probe annihilation.
"""

from __future__ import annotations

import math

from . import covderiv as cd
from . import expr as ex
from .connection import ChartConnection
from .covderiv import TU, Field
from .jets import Jet, as_scalar
from .multialg import (TensorExtElement, all_words, anti_indices, delta_coproduct, det,
                       iterated_tensor_coproduct, sort_sign, sorted_word,
                       sorted_words, word_multidegree)


class AtomicCurrent(TensorExtElement):
    """A point-supported current in PBW coordinates: the fiber element on
    nondecreasing words that Phi at ``point`` maps to the current.

    The coefficient of (word I, increasing subset K) is that of the
    functional omega |-> (nabla_{e_I} omega)_point(eps_K); ``r`` bounds the
    word length and ``k`` is the exterior degree.
    """

    __slots__ = ("point", "r", "k")

    def __init__(self, point, r: int, k: int, d: int):
        super().__init__(len(point), d)
        self.point, self.r, self.k = point, r, k

    def _like(self) -> "AtomicCurrent":
        return AtomicCurrent(self.point, self.r, self.k, self.d)


def pbw_keys(n: int, d: int, r: int, k: int):
    """All PBW keys (sorted word, k-subset) in graded-lex order."""
    return [(I, K) for I in sorted_words(n, r) for K in anti_indices(d, k)]


def pbw_dimension(n: int, d: int, r: int, k: int) -> int:
    return math.comb(n + r, n) * math.comb(d, k)


# ---------------------------------------------------------------------------
# Probe forms and Phi.

def probe_form(chart: ChartConnection, p, T, L) -> Field:
    """The monomial probe (e - p)^T / T! * d eps^L as a form field on E.

    Probe fields are cached per point on the chart so repeated PBW
    resolutions share their covariant-derivative caches.
    """
    return chart._memo(p, ("probe", tuple(T), tuple(L)), lambda: cd.form_field(
        chart, len(L), {tuple(L): ex.monomial_form(p, T, chart.names)}))


def probe_differential(chart: ChartConnection, p, T, L, out_order) -> Field:
    """d of the monomial probe (T, L) at p, with jets of order ``out_order``.

    Cached beside :func:`probe_form`, so every boundary evaluated at p
    shares one jet-backed field per probe, and with it that field's
    covariant-derivative memo.
    """
    return chart._memo(p, ("dprobe", tuple(T), tuple(L), out_order),
                       lambda: cd.exterior_derivative(probe_form(chart, p, T, L), p,
                                                      out_order=out_order))


def monomial_probes(chart: ChartConnection, p, r, k, descending=False):
    """The monomial probes of total degree <= r and exterior degree k at p, as
    (T, L, probe form) triples: by total degree, ascending or descending,
    then multi-indices in PBW word order, then k-subsets in order."""
    multis = _multi_indices(chart.n, r)
    subsets = anti_indices(chart.d, k)
    for g in (range(r, -1, -1) if descending else range(r + 1)):
        for T in multis[g]:
            for L in subsets:
                yield T, L, probe_form(chart, p, T, L)


def phi_apply(x: TensorExtElement, omega: Field, p):
    """Phi_p(x) evaluated on a form field: the sum over the terms of x, in
    PBW key order, of c_{w,K} (nabla_{e_w} omega)_p(eps_K), nabla of omega's chart."""
    degs = x.degrees()
    if len(degs) > 1:
        raise ValueError("phi_apply needs a homogeneous exterior degree")
    if degs and degs[0] != len(omega.slots):
        raise ValueError("degree mismatch between element and form")
    total = 0
    for (w, K), c in x.items():
        if c == 0:
            continue
        v = cd.nabla_value(omega, w, p).get(K, 0)
        if v != 0:
            total += c * v
    return total


# ---------------------------------------------------------------------------
# PBW resolution.

def to_pbw(chart: ChartConnection, x: TensorExtElement, p, r: int, k: int) -> AtomicCurrent:
    """PBW coordinates of Phi_p(x), by descending-degree back-substitution.

    The probe matrix is unit-triangular: a PBW functional of word length
    |I| kills every probe of degree > |I| except the matching monomial
    (the Kronecker-delta lemma), so no general inversion is needed.
    """
    if x.max_order() > r:
        raise ValueError(f"element has tensor order {x.max_order()} > r={r}")
    # pure sorted-word elements are their own PBW coordinates
    if all(w == tuple(sorted(w)) for (w, _K) in x.coeffs):
        cur = AtomicCurrent(p, r, k, chart.d)
        cur.coeffs = dict(x.coeffs)
        return cur
    return _pbw_solve(chart, p, r, k, lambda probe, _T, _L: phi_apply(x, probe, p))


def _pbw_solve(chart: ChartConnection, p, r, k, eval_fn) -> AtomicCurrent:
    """PBW coordinates of the functional whose value on the monomial probe
    (T, L) is ``eval_fn(probe, T, L)``.

    Probes run in descending total degree; each coordinate is the probe
    value minus what the coordinates already found (all of higher word
    length) contribute on that probe.
    """
    cur = AtomicCurrent(p, r, k, chart.d)
    for T, L, probe in monomial_probes(chart, p, r, k, descending=True):
        g = sum(T)
        y = eval_fn(probe, T, L)
        corr = 0
        for (I, K), c in cur.coeffs.items():
            if len(I) <= g or c == 0:
                continue
            gval = cd.nabla_value(probe, I, p).get(K, 0)
            if gval != 0:
                corr += c * gval
        cur._add((sorted_word(T), L), y - corr)
    return cur


def _multi_indices(n, r):
    out = {g: [] for g in range(r + 1)}
    for I in sorted_words(n, r):
        out[len(I)].append(word_multidegree(I, n))
    return out


# ---------------------------------------------------------------------------
# Kernel basis.

def _apply_end_to_kvector(M, kdict):
    """Derivation action of a fiber endomorphism on a k-vector coefficient
    map over increasing keys."""
    out = {}
    for K, c in kdict.items():
        if c == 0:
            continue
        for pos in range(len(K)):
            a = K[pos]
            for b in range(len(M)):
                coef = M[b][a]
                if coef == 0:
                    continue
                repl = K[:pos] + (b,) + K[pos + 1:]
                s = sort_sign(repl)
                if s == 0:
                    continue
                key = tuple(sorted(repl))
                out[key] = out.get(key, 0) + s * coef * c
    return {K: v for K, v in out.items() if v != 0}


def kernel_element(chart: ChartConnection, p, I, i, j, J, K) -> TensorExtElement:
    """The kernel basis element E_{I,i,j,J,K}: three summand groups
    (antisymmetrized commutator with Sweedler factors, fiber-curvature
    correction, base-curvature correction)."""
    n, d = chart.n, chart.d
    I, J, K = tuple(I), tuple(J), tuple(K)
    out = TensorExtElement(n, d)
    eJ = cd.coordinate_tensor_field(chart, J) if J else None
    ei = cd.coordinate_tensor_field(chart, (i,))
    ej = cd.coordinate_tensor_field(chart, (j,))

    def nvec(fieldv, S):
        # value of nabla_{e_S} of a coordinate vector field, as a dict idx -> scalar
        return cd.nabla_value(fieldv, S, p)

    def ntens(S):
        # value of nabla_{e_S} e_J; for empty J the 0-tensor 1
        if J:
            return cd.nabla_value(eJ, S, p)
        return {(): 1} if not S else {}

    def ab_value(S, T):
        # value of nabla_{e_S} e_i (x) nabla_{e_T} e_j, as a dict (u, v) -> scalar
        vi, vj = nvec(ei, S), nvec(ej, T)
        ab = {}
        for (u,), cu in vi.items():
            for (v,), cv in vj.items():
                ab[(u, v)] = ab.get((u, v), 0) + cu * cv
        return ab

    # group 1: e_{I1} (x) [nabla_{I2} e_i (x) nabla_{I3} e_j - (i <-> j)]
    #          (x) nabla_{I4} e_J  box eps_K
    for (I1, I2, I3, I4) in iterated_tensor_coproduct(I, 4):
        vi, vj = nvec(ei, I2), nvec(ej, I3)
        wi, wj = nvec(ej, I2), nvec(ei, I3)
        tJ = ntens(I4)
        if not tJ:
            continue
        for sgn, left, right in ((1, vi, vj), (-1, wi, wj)):
            for (a,), ca in left.items():
                for (b,), cb in right.items():
                    for wJ, cJ in tJ.items():
                        out.add_term(I1 + (a, b) + wJ, K, sgn * (ca * cb * cJ))

    # group 2: e_{I1} (x) nabla_{I2} e_J box (nabla_{I3} R^E)_{nabla_{I4} e_i (x) nabla_{I5} e_j}(eps_K)
    for (I1, I2, I3, I4, I5) in iterated_tensor_coproduct(I, 5):
        tJ = ntens(I2)
        if not tJ:
            continue
        ab = ab_value(I4, I5)
        if not ab:
            continue
        fiber_end = cd.curvature_endomorphism(chart, I3, ab, p, fiber=True)
        acted = _apply_end_to_kvector(fiber_end, {K: 1})
        for Kp, cK in acted.items():
            for wJ, cJ in tJ.items():
                out.add_term(I1 + wJ, Kp, cJ * cK)

    # group 3: e_{I1} (x) (nabla_{I2} R^TM)_{nabla_{I3} e_i (x) nabla_{I4} e_j}(nabla_{I5} e_J) box eps_K
    for (I1, I2, I3, I4, I5) in iterated_tensor_coproduct(I, 5):
        tJ = ntens(I5)
        if not tJ:
            continue
        ab = ab_value(I3, I4)
        if not ab:
            continue
        base_end = cd.curvature_endomorphism(chart, I2, ab, p)
        acted = cd.apply_endomorphism_derivation(base_end, None, tJ, (TU,) * len(J))
        for wJ, cJ in acted.items():
            out.add_term(I1 + wJ, K, cJ)
    return out


def kernel_basis(chart: ChartConnection, p, r: int, k: int):
    """A basis of the kernel of Phi_p in tensor order <= r and exterior degree
    k: the E_{I,i,j,J,K} with i < j and |I| + |J| + 2 <= r whose word
    I j i J has its first descent at (j, i), that is I nondecreasing with
    I[-1] <= j, with their labels.

    Every word of length m with a descent has exactly one first descent, so
    there are as many labels as words outside the PBW set,
    :func:`kernel_basis_count` in all.  Without the condition on I the
    elements still span the kernel, but above r = 2 they are dependent (the
    Jacobi identity relates the commutators of three distinct indices)."""
    n, d = chart.n, chart.d
    out = []
    for I in sorted_words(n, max(r - 2, 0)):
        for J in all_words(n, max(r - 2 - len(I), 0)):
            if len(I) + len(J) + 2 > r:
                continue
            for i in range(n):
                for j in range(max(i + 1, I[-1] if I else 0), n):
                    for K in anti_indices(d, k):
                        el = kernel_element(chart, p, I, i, j, J, K)
                        out.append(((I, i, j, J, K), el))
    return out


def kernel_basis_count(n: int, d: int, r: int, k: int) -> int:
    """dim tensor^{<=r} - dim S^{<=r}, times C(d, k)."""
    tensor_dim = sum(n ** m for m in range(r + 1))
    sym_dim = math.comb(n + r, n)
    return (tensor_dim - sym_dim) * math.comb(d, k)


# ---------------------------------------------------------------------------
# Co-algebra structure on currents.

def counit(T: AtomicCurrent):
    """epsilon(T) = T(1): the coefficient of the Dirac mass, zero unless k = 0."""
    return T.coeffs.get(((), ()), 0)


def coproduct_pair_evaluate(T: AtomicCurrent, omega: Field, eta: Field):
    """(omega tensor eta)(Delta T), evaluated through PBW functionals.

    Sorted-word PBW lifts stay sorted under the deshuffle coproducts, so
    the summands of :func:`~atomcur.multialg.delta_coproduct` are already
    PBW keys of the two factors."""
    pairs = delta_coproduct(T)
    p = T.point
    total = 0
    for ((Il, Kl), (Ir, Kr)), c in pairs.items():
        if len(Kl) != len(omega.slots) or len(Kr) != len(eta.slots):
            continue
        a = cd.nabla_value(omega, Il, p).get(Kl, 0)
        if a == 0:
            continue
        b = cd.nabla_value(eta, Ir, p).get(Kr, 0)
        if b == 0:
            continue
        total += c * a * b
    return total


# ---------------------------------------------------------------------------
# Chart transitions.

def transition_matrix(chartA: ChartConnection, chartB: ChartConnection,
                      change, p, r: int, k: int):
    """PBW transition matrix between tangent-bundle charts at a shared point.

    ``change`` gives the B-coordinates as expressions of the A-coordinates.
    Entry [(I, K)][(J, L)] is the coefficient a^{J,L} with

        a^{J,L} = [ d^{|I|}/dx^I ( (1/J!) (y(x) - y(p))^J  M^L_K(x) ) ]_p,

    where M^L_K is the minor of the Jacobian dy/dx over rows L, columns K.
    Coordinates of a current transform by c_B[(J,L)] = sum c_A[(I,K)] a^{J,L}.
    """
    n = chartA.n
    if chartB.n != n or not (chartA.fiber_is_tangent and chartB.fiber_is_tangent):
        raise ValueError("transition matrices are for tangent-bundle charts of equal dimension")
    chartA.check_point(p)
    change = [ex.parse(c, chartA.names) if isinstance(c, str) else c for c in change]
    if len(change) != n:
        raise ValueError("chart change needs one expression per coordinate")
    yjets_hi = [ex.eval_jet(c, p, r + 1, p.mode) for c in change]
    q = tuple(j.value for j in yjets_hi)
    chartB.check_point(q)
    ybar = [j.truncate(r) - j.value for j in yjets_hi]
    jac = [[yjets_hi[l].derivative(m) for m in range(n)] for l in range(n)]

    minors = {}
    for L in anti_indices(n, k):
        for K in anti_indices(n, k):
            # the empty minor (k = 0) is the unit jet, so entries stay jets
            minors[(L, K)] = det([[jac[l][m] for m in K] for l in L]) if k else \
                Jet.const(ybar[0].space, p.mode, 1)

    out = {}
    multis = _multi_indices(n, r)
    for g in range(r + 1):
        for T in multis[g]:
            Jw = sorted_word(T)
            fact = 1
            for t in T:
                fact *= math.factorial(t)
            mono = None
            for i, t in enumerate(T):
                for _ in range(t):
                    mono = ybar[i] if mono is None else mono * ybar[i]
            for L in anti_indices(n, k):
                for K in anti_indices(n, k):
                    entry = minors[(L, K)]
                    if mono is not None:
                        entry = mono * entry
                    entry = entry.scale(as_scalar(1, p.mode) / fact)
                    for Iw in sorted_words(n, r):
                        a = entry.partial(word_multidegree(Iw, n))
                        if a != 0:
                            out.setdefault((Iw, K), {})[(Jw, L)] = a
    return out


def compose_transitions(g2, g1):
    """Matrix of applying g1 then g2 on PBW coordinates."""
    out = {}
    for key0, row in g1.items():
        acc = {}
        for mid, a in row.items():
            row2 = g2.get(mid)
            if row2 is None:
                continue
            for key2, b in row2.items():
                acc[key2] = acc.get(key2, 0) + a * b
        out[key0] = {kk: vv for kk, vv in acc.items() if vv != 0}
    return out


def transition_residual(ga, gb):
    """Max absolute entry difference between two transition matrices."""
    return max((cd._dict_residual(ga.get(key, {}), gb.get(key, {}))
                for key in set(ga) | set(gb)), default=0)
