"""Slow, independent references for the mixed-characteristic engine.

The library computes every mixed characteristic polynomial, and every
conditional polynomial of a greedy walk, with the exterior-power engine in
``interlace.mixedchar``.  The references here compute the same things
other ways:

* the truncated multi-affine ring (z_i^2 = 0) and a memoized minor
  expansion of det(xI + sum z_i A_i) in it, then inclusion-exclusion over
  variable subsets (:func:`ring_mixed_char`);
* conditional expected polynomials by enumerating every outcome of the
  remaining random vectors (:func:`conditional_expected_poly`);
* the greedy walk with enumerated children (:func:`enumeration_walk`).
"""

import numpy as np

from interlace import AssignmentState, DEFAULT_BUDGET, Polynomial, SymMatrix, \
    kth_largest_root, mixed_char
from interlace.matrices import _validate_psd_list
from interlace.mixedchar import _expected_char_with_base


class TruncatedMultiAffine:
    """Elements sum_S c_S(x) * prod_{i in S} z_i with every z_i-degree <= 1.

    ``terms`` maps frozensets of variable indices to coefficient
    polynomials.  Multiplication drops any product whose variable sets
    intersect, implementing z_i^2 = 0.  That truncation is exactly what
    survives taking each partial derivative at most once and then
    setting z = 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for s, p in terms.items():
                if not p.is_zero:
                    self.terms[frozenset(s)] = p

    @classmethod
    def zero(cls) -> "TruncatedMultiAffine":
        return cls()

    @classmethod
    def constant(cls, p: Polynomial) -> "TruncatedMultiAffine":
        return cls({frozenset(): p})

    def __add__(self, other):
        out = dict(self.terms)
        for s, p in other.terms.items():
            q = out.get(s)
            out[s] = p if q is None else q + p
        return TruncatedMultiAffine(out)

    def __neg__(self):
        return TruncatedMultiAffine({s: -p for s, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for s1, p1 in self.terms.items():
            for s2, p2 in other.terms.items():
                if s1 & s2:
                    continue  # z_i^2 = 0
                s = s1 | s2
                prod = p1 * p2
                q = out.get(s)
                out[s] = prod if q is None else q + prod
        return TruncatedMultiAffine(out)

    def coefficient(self, s) -> Polynomial:
        return self.terms.get(frozenset(s), Polynomial.zero())

    def __repr__(self):
        return f"TruncatedMultiAffine({len(self.terms)} terms)"


def det_truncated(mats, exact: bool) -> TruncatedMultiAffine:
    """det(xI + sum z_i A_i) in the truncated ring, by memoized minor expansion."""
    d = mats[0].n
    x_poly = Polynomial([0, 1]) if exact else Polynomial([0.0, 1.0])
    arrays = [m.a if exact else m.a.astype(float) for m in mats]

    def entry(r: int, c: int) -> TruncatedMultiAffine:
        terms = {}
        if r == c:
            terms[frozenset()] = x_poly
        for i, a in enumerate(arrays):
            val = a[r, c]
            if val != 0:
                terms[frozenset({i})] = terms.get(frozenset({i}), Polynomial.zero()) \
                    + Polynomial([val])
        return TruncatedMultiAffine(terms)

    cache = {}

    def minor(cols: frozenset) -> TruncatedMultiAffine:
        if not cols:
            return TruncatedMultiAffine.constant(Polynomial.one())
        hit = cache.get(cols)
        if hit is not None:
            return hit
        row = d - len(cols)
        acc = TruncatedMultiAffine.zero()
        for pos, c in enumerate(sorted(cols)):
            e = entry(row, c)
            if not e.terms:
                continue
            term = e * minor(cols - {c})
            acc = acc + term if pos % 2 == 0 else acc - term
        cache[cols] = acc
        return acc

    return minor(frozenset(range(d)))


def ring_mixed_char(matrices) -> Polynomial:
    """mu[A_1..A_m] as sum_S (-1)^|S| c_S(x) over the ring's coefficients."""
    mats = _validate_psd_list(matrices)
    exact = all(mat.is_exact for mat in mats)
    acc = Polynomial.zero()
    for s, c_s in det_truncated(mats, exact).terms.items():
        acc = acc + c_s if len(s) % 2 == 0 else acc - c_s
    return acc


def _base(fixed, dim: int, exact: bool) -> np.ndarray:
    acc = np.zeros((dim, dim), dtype=object if exact else float)
    for v in fixed:
        a = np.asarray(v).astype(object if exact else float)
        acc = acc + np.outer(a, a)
    return acc


def conditional_expected_poly(state: AssignmentState, budget: int = DEFAULT_BUDGET,
                              cross_check: bool = False) -> Polynomial:
    """E over the remaining randomness of char_poly(sum fixed + sum remaining).

    Enumerates every remaining outcome tuple, exact in exact mode.  With
    ``cross_check`` the result is compared with the engine's mixed
    characteristic polynomial of the fixed rank-one matrices and the
    covariances; a disagreement raises RuntimeError.
    """
    exact = state.is_exact
    out = _expected_char_with_base(_base(state.fixed, state.dim, exact),
                                   state.remaining, budget, exact)
    if cross_check:
        mats = [SymMatrix.outer(v) for v in state.fixed] \
            + [r.covariance() for r in state.remaining]
        alt = mixed_char(mats)
        agree = out == alt if (out.is_exact and alt.is_exact) \
            else out.allclose(alt, 1e-8)
        if not agree:
            raise RuntimeError("enumeration and engine disagree")
    return out


def enumeration_walk(state: AssignmentState, budget: int = DEFAULT_BUDGET):
    """The greedy walk with every child enumerated: (choices, levels, pledged).

    Ties go to the lowest support index, as in ``greedy_walk``.
    """
    exact = state.is_exact
    k = state.k
    maximize = state.direction == "maximize"
    base = _base(state.fixed, state.dim, exact)
    remaining = list(state.remaining)
    pledged = kth_largest_root(_expected_char_with_base(base, remaining, budget, exact), k)
    choices, levels = [], []
    for lvl, rv in enumerate(remaining):
        vals = []
        for _, vec in rv.support:
            v = np.asarray(vec).astype(object if exact else float)
            child = _expected_char_with_base(base + np.outer(v, v), remaining[lvl + 1:],
                                             budget, exact)
            vals.append(kth_largest_root(child, k))
        best = 0
        for j in range(1, len(vals)):
            if (vals[j] > vals[best]) if maximize else (vals[j] < vals[best]):
                best = j
        v = np.asarray(rv.support[best][1]).astype(object if exact else float)
        base = base + np.outer(v, v)
        choices.append(best)
        levels.append(vals[best])
    return choices, levels, pledged
