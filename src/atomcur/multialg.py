"""Pointwise graded multilinear algebra over a finite-dimensional fiber.

Words (tuples of 0-based indices) index tensor-algebra basis elements;
strictly increasing tuples ("anti-indices") index exterior-algebra basis
elements.  Coefficient maps are plain dictionaries from keys to scalars,
with absent keys meaning zero.  The key order used everywhere (and in
particular for the PBW basis) is graded-lexicographic: sort by length,
then lexicographically.

Exact maps are held as rational jets are: a ``(nums, den)`` pair of
Python-int numerators over one positive denominator, so sums and products
are integer arithmetic with one gcd per result.  A float map is the pair
(values, 1), so the same loops run on it unchanged (a sum kept per
denominator, such as Phi's, is one running float sum over den 1).  The
private helpers below align, reduce and read such pairs.

Deshuffle coproducts and the pointwise linear algebra shared by every
layer (a ring-generic determinant and one Gauss-Jordan elimination) live
here; everything is a pure function of immutable values.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm


# ---------------------------------------------------------------------------
# Maps of numerators over one denominator.

def _reduced(nums: dict, den: int):
    """The pair (nums, den) in canonical form, gcd(den, *nums) == 1 (an
    empty map gets den 1), by one gcd over the map; den 1 is returned as
    it is, so float maps pass through."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
    return nums, den


def _aligned(pairs):
    """The numerator maps of ``(nums, den)`` pairs over their least common
    denominator, as (list of maps, lcm), in the order given.  A map already
    over the lcm is returned as it is, so float pairs pass through."""
    den = lcm(*(d for _nums, d in pairs))
    out = []
    for nums, d in pairs:
        if d != den:
            f = den // d
            nums = {k: c * f for k, c in nums.items()}
        out.append(nums)
    return out, den


def _combine(parts):
    """The sum of s * nums/den over ``parts`` of (s, (nums, den)), with s a
    factor of its own (an int, or a float in float mode), as one (nums, den)
    pair over the lcm of the dens.  Every key is summed in the order of the
    parts, so a float sum keeps its order; keys whose sum is zero stay."""
    maps, den = _aligned([pair for _s, pair in parts])
    out = {}
    for (s, _pair), nums in zip(parts, maps):
        for k, c in nums.items():
            out[k] = out.get(k, 0) + s * c
    return out, den


def _scales(dens):
    """The lcm L of some denominators, and the map {den: L // den}."""
    dens = set(dens)
    den = lcm(*dens)
    return den, {d: den // d for d in dens}


def _ratio_sum(sums: dict):
    """The sum of num/den over a map {den: num}, as (num, lcm of the dens)."""
    den = lcm(*sums)
    return sum(num * (den // d) for d, num in sums.items()), den


def _fractions(nums: dict, den: int) -> dict:
    """The map of Fractions that a pair (nums, den) stands for."""
    return {k: Fraction(c, den) for k, c in nums.items()}


def _value(num, den):
    """The scalar num/den: a Fraction, or num itself when den is 1."""
    return num if den == 1 else Fraction(num, den)


def _ratios(values: dict):
    """A map of ints and Fractions as a (nums, den) pair over the lcm of
    their denominators."""
    den = lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


# ---------------------------------------------------------------------------
# Words, subsets, signs.

def check_word(w, n: int):
    if any(not (0 <= i < n) for i in w):
        raise ValueError(f"word {w!r} has letters outside 0..{n - 1}")
    return tuple(w)


def check_anti_index(K, d: int):
    K = tuple(K)
    if any(not (0 <= i < d) for i in K):
        raise ValueError(f"anti-index {K!r} outside 0..{d - 1}")
    if any(K[i] >= K[i + 1] for i in range(len(K) - 1)):
        raise ValueError(f"anti-index {K!r} is not strictly increasing")
    return K


def word_multidegree(w, n: int) -> tuple:
    """Multi-index <w> counting occurrences of each letter."""
    out = [0] * n
    for i in w:
        out[i] += 1
    return tuple(out)


def sorted_word(T) -> tuple:
    """The nondecreasing word with multidegree T (0-based letters)."""
    out = []
    for i, t in enumerate(T):
        out.extend([i] * t)
    return tuple(out)


def gradlex_key(key):
    """Sort key: by length first, then lexicographic."""
    return (len(key), key)


def _term_key(term):
    """Sort key of a term ((word, anti-index), c) in PBW key order."""
    return gradlex_key(term[0][0]), gradlex_key(term[0][1])


def sort_sign(seq) -> int:
    """Sign of the permutation sorting ``seq``; 0 on repeated entries."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def merge_sign(A, B) -> int:
    """Koszul sign merging disjoint increasing tuples A and B; 0 if they meet."""
    return sort_sign(tuple(A) + tuple(B))


@functools.lru_cache(maxsize=4096)
def wedge_merge(A: tuple, B: tuple):
    """(sign, sorted union) of two increasing tuples, or (0, ()) if they meet.
    Memoized: the operator layer merges the same few pairs many times."""
    s = merge_sign(A, B)
    if s == 0:
        return 0, ()
    return s, tuple(sorted(A + B))


# ---------------------------------------------------------------------------
# Coproducts.

def tensor_coproduct(w):
    """Deshuffle coproduct of a word: all order-preserving splits.

    Returns a fresh list of (left, right) word pairs; each subset of
    positions contributes once, so a length-m word yields 2^m summands (with
    unit coefficient).  Order is fixed by the position-subset bitmask.
    """
    return list(_deshuffles(tuple(w)))


@functools.lru_cache(maxsize=4096)
def _deshuffles(w: tuple) -> tuple:
    m = len(w)
    return tuple((tuple(w[i] for i in range(m) if mask >> i & 1),
                  tuple(w[i] for i in range(m) if not mask >> i & 1))
                 for mask in range(1 << m))


def iterated_tensor_coproduct(w, parts: int):
    """All order-preserving splits of a word into ``parts`` subwords."""
    w = tuple(w)
    if parts == 1:
        return [(w,)]
    out = []
    for left, right in tensor_coproduct(w):
        for rest in iterated_tensor_coproduct(right, parts - 1):
            out.append((left,) + rest)
    return out


def wedge_coproduct(K):
    """Signed deshuffle coproduct on the exterior algebra.

    Returns a list of (A, B, sign) with K = A union B (the splittings of
    :func:`_deshuffles`, in its order) and the Koszul shuffle sign: the
    parity of the inversions across the split.
    """
    return [(A, B, -1 if sum(a > b for a in A for b in B) & 1 else 1)
            for A, B in _deshuffles(tuple(K))]


# ---------------------------------------------------------------------------
# Determinant and elimination.

def det(rows):
    """Determinant by Laplace expansion along the first row; fine at fiber
    dimensions <= 4.

    Ring-generic: entries may be numbers, Fractions or jets.  Numeric zero
    entries are skipped; the first surviving term starts the sum, so jet
    determinants carry no added zero.  The empty matrix gives the integer 1.
    """
    m = len(rows)
    if m == 0:
        return 1
    if m == 1:
        return rows[0][0]
    total = None
    for j in range(m):
        a = rows[0][j]
        if a == 0:
            continue
        term = a * det([r[:j] + r[j + 1:] for r in rows[1:]])
        if total is None:
            total = -term if j % 2 else term
        else:
            total = total - term if j % 2 else total + term
    return 0 if total is None else total


def row_reduce(rows):
    """Gauss-Jordan elimination with partial pivoting (largest |entry|).

    Entries must come from a field (floats or Fractions).  Returns the
    reduced rows and the pivot columns: each pivot row is scaled to a
    leading 1 and its column cleared in every other row, so the rank is the
    number of pivots.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        if top == m:
            break
        piv = max(range(top, m), key=lambda r: abs(rows[r][c]))
        if rows[piv][c] == 0:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        pv = rows[top][c]
        rows[top] = [a / pv for a in rows[top]]
        for r in range(m):
            if r != top and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(c)
    return rows, pivots


# ---------------------------------------------------------------------------
# Elements of the pointwise algebra tensor(T_p M) box wedge(E_p).

class TensorExtElement:
    """Finitely supported coefficient map over (word, anti-index) pairs.

    Mixed word lengths and exterior degrees are allowed; degree/order
    homogeneity is asserted only by operations that need it.

    The map is stored as ``nums`` over ``den``, as a rational jet is: in
    rational mode Python-int numerators over one positive denominator, kept
    canonical (gcd(den, *nums) == 1, so the zero element has den 1); in
    float mode the coefficients themselves over den 1.  Read coefficients
    through ``coeffs``, ``items`` or ``to_json`` (Fractions in rational
    mode).
    """

    __slots__ = ("n", "d", "nums", "den")

    def __init__(self, n: int, d: int, coeffs=None):
        self.n = n
        self.d = d
        self.nums = {}
        self.den = 1
        if coeffs:
            for (w, K), c in coeffs.items():
                self.add_term(w, K, c)

    def add_term(self, w, K, c):
        """Accumulate c (an int, Fraction or float) on the checked key
        (w, K); for keys and scalars from outside."""
        if c == 0:
            return
        self._add_value((check_word(w, self.n), check_anti_index(K, self.d)), c)
        self._reduce()

    def _add_value(self, key, c):
        """Accumulate the scalar c (an int, Fraction or float) on a valid
        key; the caller restores the canonical form (``_reduce``)."""
        if isinstance(c, float):
            if self.den != 1:
                raise ValueError("float coefficient on a rational element")
            self._add(key, c)
        else:
            self._add_ratio(key, c.numerator, c.denominator)

    def _add(self, key, c):
        """Accumulate the numerator c (over ``den``) on a (word, anti-index)
        tuple key that is already valid, e.g. built by a coproduct or a
        wedge merge of checked keys."""
        if c == 0:
            return
        cur = self.nums.get(key, 0)
        new = cur + c
        if new == 0:
            self.nums.pop(key, None)
        else:
            self.nums[key] = new

    def _add_ratio(self, key, num, den):
        """Accumulate num/den on a valid key, first raising ``den`` to a
        multiple of den; the caller restores the canonical form
        (``_reduce``) once it has added every term."""
        if den != self.den:
            if self.den % den:
                f = den // gcd(self.den, den)
                self.nums = {k: c * f for k, c in self.nums.items()}
                self.den *= f
            num *= self.den // den
        self._add(key, num)

    def _reduce(self):
        self.nums, self.den = _reduced(self.nums, self.den)

    def _like(self) -> "TensorExtElement":
        """An empty element of the same kind, so that a subclass keeps its
        own data through ``scale``, ``+`` and ``-``."""
        return TensorExtElement(self.n, self.d)

    @property
    def coeffs(self) -> dict:
        """The coefficient map {(word, anti-index): scalar}, read-only:
        Fractions over a denominator other than 1, else the stored numbers."""
        return self.nums if self.den == 1 else _fractions(self.nums, self.den)

    def items(self):
        return sorted(self.coeffs.items(), key=_term_key)

    def scale(self, a) -> "TensorExtElement":
        out = self._like()
        if a != 0:
            num, den = (a.numerator, a.denominator) if isinstance(a, Fraction) else (a, 1)
            nums = out.nums
            for key, c in self.nums.items():
                nums[key] = num * c
            out.den = self.den * den
            if out.den != 1:
                out._reduce()
        return out

    def __add__(self, other: "TensorExtElement") -> "TensorExtElement":
        out = self._like()
        if self.den == other.den:
            mine, theirs, out.den = self.nums, other.nums, self.den
        else:
            (mine, theirs), out.den = _aligned([(self.nums, self.den), (other.nums, other.den)])
        out.nums = dict(mine)
        for key, c in theirs.items():
            out._add(key, c)
        if out.den != 1:
            out._reduce()
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def max_order(self) -> int:
        return max((len(w) for (w, _K) in self.nums), default=0)

    def degrees(self):
        return sorted({len(K) for (_w, K) in self.nums})

    def max_abs(self):
        return _value(max((abs(c) for c in self.nums.values()), default=0), self.den)

    def __repr__(self):
        parts = [f"{c!r}*[{','.join(map(str, w))}|{','.join(map(str, K))}]"
                 for (w, K), c in self.items()]
        return "TensorExt(" + " + ".join(parts or ["0"]) + ")"

    # JSON keys use "i,j,...|a,b,..." for (word, anti-index); exact
    # coefficients are strings, so no numerator is rounded
    def to_json(self) -> dict:
        out = {}
        for (w, K), c in self.items():
            key = ",".join(map(str, w)) + "|" + ",".join(map(str, K))
            out[key] = float(c) if isinstance(c, float) else str(c)
        return out

    @staticmethod
    def from_json(n: int, d: int, data: dict) -> "TensorExtElement":
        el = TensorExtElement(n, d)
        for key, c in data.items():
            ws, ks = key.split("|")
            w = tuple(int(x) for x in ws.split(",") if x != "")
            K = tuple(int(x) for x in ks.split(",") if x != "")
            el.add_term(w, K, Fraction(c) if isinstance(c, str) else c)
        return el


def basis_element(n, d, w, K, c=1) -> TensorExtElement:
    el = TensorExtElement(n, d)
    el.add_term(w, K, c)
    return el


def delta_coproduct(x: TensorExtElement) -> dict:
    """Coproduct dual to wedge product on tensor(T_p) box wedge(E_p):
    deshuffle both factors, with Koszul signs on the wedge side.

    Returns the merged map {((wL, KL), (wR, KR)): coeff}.  Summands are
    added in the insertion order of ``x.nums``, and keys whose sum is zero
    are dropped.  The operation is combinatorial and exact in both scalar
    modes.
    """
    nums = _delta_nums(x)
    return nums if x.den == 1 else _fractions(nums, x.den)


def _delta_nums(x: TensorExtElement) -> dict:
    """:func:`delta_coproduct` of x as numerators over ``x.den``."""
    out = {}
    for (w, K), c in x.nums.items():
        for (wl, wr) in tensor_coproduct(w):
            for (Kl, Kr, s) in wedge_coproduct(K):
                key = ((wl, Kl), (wr, Kr))
                cur = out.get(key, 0) + s * c
                if cur == 0:
                    out.pop(key, None)
                else:
                    out[key] = cur
    return out


def all_words(n: int, max_len: int):
    """All words over 0..n-1 of length <= max_len, in graded-lex order."""
    out = [()]
    for ell in range(1, max_len + 1):
        out.extend(itertools.product(range(n), repeat=ell))
    return out


def sorted_words(n: int, max_len: int):
    """Nondecreasing words of length <= max_len (the PBW word set)."""
    return [w for w in all_words(n, max_len) if all(w[i] <= w[i + 1] for i in range(len(w) - 1))]


def anti_indices(d: int, k: int):
    """Strictly increasing k-tuples from 0..d-1, lexicographic."""
    return list(itertools.combinations(range(d), k))
