"""Pointwise graded multilinear algebra over a finite-dimensional fiber.

Words (tuples of 0-based indices) index tensor-algebra basis elements;
strictly increasing tuples ("anti-indices") index exterior-algebra basis
elements.  Coefficient maps are plain dictionaries from keys to scalars,
with absent keys meaning zero.  The key order used everywhere (and in
particular for the PBW basis) is graded-lexicographic: sort by length,
then lexicographically.

Deshuffle coproducts and the pointwise linear algebra shared by every
layer (a ring-generic determinant and one Gauss-Jordan elimination) live
here; everything is a pure function of immutable values.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


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


def wedge_merge(A, B):
    """(sign, sorted union) of two increasing tuples, or (0, ()) if they meet."""
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

    Returns a list of (A, B, sign) with K = A union B (ordered splittings)
    and the Koszul shuffle sign.
    """
    K = tuple(K)
    m = len(K)
    out = []
    for mask in range(1 << m):
        A = tuple(K[i] for i in range(m) if mask >> i & 1)
        B = tuple(K[i] for i in range(m) if not mask >> i & 1)
        # sign of un-riffling K into (A, B): count inversions across the split
        inv = sum(1 for a in A for b in B if a > b)
        out.append((A, B, -1 if inv & 1 else 1))
    return out


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
    """

    __slots__ = ("n", "d", "coeffs")

    def __init__(self, n: int, d: int, coeffs=None):
        self.n = n
        self.d = d
        self.coeffs = {}
        if coeffs:
            for (w, K), c in coeffs.items():
                self.add_term(w, K, c)

    def add_term(self, w, K, c):
        """Accumulate c on the checked key (w, K); for keys from outside."""
        if c == 0:
            return
        self._add((check_word(w, self.n), check_anti_index(K, self.d)), c)

    def _add(self, key, c):
        """Accumulate c on a (word, anti-index) tuple key that is already
        valid, e.g. built by a coproduct or a wedge merge of checked keys."""
        if c == 0:
            return
        cur = self.coeffs.get(key, 0)
        new = cur + c
        if new == 0:
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = new

    def _like(self) -> "TensorExtElement":
        """An empty element of the same kind, so that a subclass keeps its
        own data through ``scale``, ``+`` and ``-``."""
        return TensorExtElement(self.n, self.d)

    def items(self):
        return sorted(self.coeffs.items(),
                      key=lambda kv: (gradlex_key(kv[0][0]), gradlex_key(kv[0][1])))

    def scale(self, a) -> "TensorExtElement":
        out = self._like()
        if a != 0:
            for (w, K), c in self.coeffs.items():
                out.coeffs[(w, K)] = a * c
        return out

    def __add__(self, other: "TensorExtElement") -> "TensorExtElement":
        out = self._like()
        out.coeffs = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out._add(key, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def max_order(self) -> int:
        return max((len(w) for (w, _K) in self.coeffs), default=0)

    def degrees(self):
        return sorted({len(K) for (_w, K) in self.coeffs})

    def max_abs(self):
        return max((abs(c) for c in self.coeffs.values()), default=0)

    def __repr__(self):
        parts = [f"{c!r}*[{','.join(map(str, w))}|{','.join(map(str, K))}]"
                 for (w, K), c in self.items()]
        return "TensorExt(" + " + ".join(parts or ["0"]) + ")"

    # JSON keys use "i,j,...|a,b,..." for (word, anti-index).
    def to_json(self) -> dict:
        out = {}
        for (w, K), c in self.items():
            key = ",".join(map(str, w)) + "|" + ",".join(map(str, K))
            out[key] = float(c) if not isinstance(c, Fraction) else str(c)
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
    added in the insertion order of ``x.coeffs``, and keys whose sum is zero
    are dropped.  The operation is combinatorial and exact in both scalar
    modes.
    """
    out = {}
    for (w, K), c in x.coeffs.items():
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
