"""Mixed characteristic polynomials and expected characteristic polynomials.

The mixed characteristic polynomial of PSD matrices ``A_1..A_m`` is

    mu[A_1..A_m](x) = prod_i (1 - d/dz_i) det(xI + sum_i z_i A_i) | z=0.

For independent random vectors ``r_i`` with covariances ``A_i = E r_i r_i^T``,
it equals ``E char_poly(sum_i r_i r_i^T)`` - an identity special to rank
one, checked here by brute-force enumeration of finitely supported
distributions (and known to fail already for rank-2 summands; see the
negative test in the suite).  For PSD inputs the mixed characteristic
polynomial is real-rooted, and when the A_i sum to the identity with
traces at most eps, its largest root is at most ``(1 + sqrt(eps))^2``.

The differential formula is evaluated without symbolic calculus: since
each variable is differentiated at most once before setting z = 0, only
the multi-affine part of the determinant matters.  ``TruncatedMultiAffine``
implements exactly that quotient ring (z_i^2 = 0): elements are maps
from subsets S of variables to coefficient polynomials in x, and
products drop any term where supports collide.  The determinant is
expanded by minors, memoized on column subsets; this stays division-free,
which matters because the truncated ring has zero divisors and Gaussian
elimination would divide by them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .poly import Polynomial, is_real_rooted
from .matrices import SymMatrix, charpoly_batch, charpoly_batch_exact, _validate_psd_list

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "MAX_VARIABLES",
    "MAX_DIMENSION",
    "DiscreteRandomVector",
    "TruncatedMultiAffine",
    "mixed_char",
    "expected_char_poly",
    "mixed_identity_check",
    "mixed_char_root_bound",
]

DEFAULT_BUDGET = 1 << 20
MAX_VARIABLES = 16
MAX_DIMENSION = 10


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured outcome budget."""


# ----------------------------------------------------------------------
# Random vectors with finite support
# ----------------------------------------------------------------------


def _coerce_vector(v):
    vec = np.asarray(v)
    if vec.ndim != 1:
        raise ValueError("support vectors must be one-dimensional")
    if vec.dtype == object or np.issubdtype(vec.dtype, np.integer):
        return np.array(vec, dtype=object)
    return np.array(vec, dtype=float)


class DiscreteRandomVector:
    """A random vector supported on finitely many (probability, vector) pairs."""

    __slots__ = ("support",)

    def __init__(self, support):
        items = []
        for prob, vec in support:
            if isinstance(prob, float):
                p = prob
            else:
                p = Fraction(prob)
            if p <= 0:
                raise ValueError("probabilities must be positive")
            items.append((p, _coerce_vector(vec)))
        if not items:
            raise ValueError("support must be nonempty")
        d = len(items[0][1])
        if any(len(v) != d for _, v in items):
            raise ValueError("support vectors must share a dimension")
        total = sum(p for p, _ in items)
        if isinstance(total, float) or any(isinstance(p, float) for p, _ in items):
            if abs(float(total) - 1.0) > 1e-12:
                raise ValueError(f"probabilities sum to {float(total)}, not 1")
        elif total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.support = tuple(items)

    @property
    def dim(self) -> int:
        return len(self.support[0][1])

    @property
    def is_exact(self) -> bool:
        return all(not isinstance(p, float) and v.dtype == object
                   for p, v in self.support)

    @classmethod
    def deterministic(cls, v) -> "DiscreteRandomVector":
        vec = _coerce_vector(v)
        one = 1 if vec.dtype == object else 1.0
        return cls([(one, vec)])

    @classmethod
    def two_point(cls, v, w, p=None) -> "DiscreteRandomVector":
        """Takes value v with probability p and w with probability 1-p (default 1/2)."""
        vv, ww = _coerce_vector(v), _coerce_vector(w)
        if p is None:
            p = Fraction(1, 2) if (vv.dtype == object and ww.dtype == object) else 0.5
        q = (1 - p) if not isinstance(p, float) else 1.0 - p
        return cls([(p, vv), (q, ww)])

    def covariance(self) -> SymMatrix:
        """E[v v^T] over the support."""
        acc = None
        for p, v in self.support:
            term = p * np.outer(v, v)
            acc = term if acc is None else acc + term
        return SymMatrix(acc)

    def __repr__(self):
        return f"DiscreteRandomVector({len(self.support)} outcomes, dim {self.dim})"


# ----------------------------------------------------------------------
# The truncated multi-affine carrier ring
# ----------------------------------------------------------------------


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


def _det_truncated(mats: list[SymMatrix], exact: bool) -> TruncatedMultiAffine:
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

    cache: dict[frozenset, TruncatedMultiAffine] = {}

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
            sub = minor(cols - {c})
            term = e * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        cache[cols] = acc
        return acc

    return minor(frozenset(range(d)))


def mixed_char(matrices, check_real_rooted: bool = False) -> Polynomial:
    """Mixed characteristic polynomial of PSD matrices A_1..A_m.

    Expands ``prod(1 - d/dz_i) det(xI + sum z_i A_i)|_{z=0}`` by
    inclusion-exclusion over variable subsets: the result is
    ``sum_S (-1)^{|S|} c_S(x)`` where c_S is the coefficient of
    ``prod_{i in S} z_i`` in the determinant.  Monic of degree d; exact
    for exact inputs.  With ``check_real_rooted`` the result is verified
    real-rooted before being returned (always true for PSD inputs).
    """
    mats = _validate_psd_list(matrices)
    m = len(mats)
    d = mats[0].n
    if m > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} matrices supported, got {m}")
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension capped at {MAX_DIMENSION}, got {d}")
    exact = all(mat.is_exact for mat in mats)
    det = _det_truncated(mats, exact)
    acc = Polynomial.zero()
    for s, c_s in det.terms.items():
        acc = acc + c_s if len(s) % 2 == 0 else acc - c_s
    if check_real_rooted and not is_real_rooted(acc):
        raise AssertionError("mixed characteristic polynomial failed real-rootedness")
    return acc


# ----------------------------------------------------------------------
# Brute-force expectations
# ----------------------------------------------------------------------


def _outcome_count(rvs) -> int:
    return math.prod(len(r.support) for r in rvs)


def expected_char_poly(rvs, budget: int = DEFAULT_BUDGET) -> Polynomial:
    """``E char_poly(sum_i r_i r_i^T)`` by exhaustive outcome enumeration.

    Exact when every random vector is exact.  Raises
    :class:`BudgetExceededError` if the product of support sizes exceeds
    ``budget``; nothing is ever sampled.
    """
    rvs = list(rvs)
    if not rvs:
        raise ValueError("need at least one random vector")
    d = rvs[0].dim
    if any(r.dim != d for r in rvs):
        raise ValueError("random vectors must share a dimension")
    exact = all(r.is_exact for r in rvs)
    base = np.zeros((d, d), dtype=object) if exact else np.zeros((d, d))
    return _expected_char_with_base(base, rvs, budget, exact)


def _expected_char_with_base(base: np.ndarray, rvs, budget: int,
                             exact: bool) -> Polynomial:
    """E char_poly(base + sum r_i r_i^T); base is a plain (d, d) array.

    Outcomes are enumerated in chunks; each chunk's matrices go through
    one kernel call, exact (object dtype) or float.
    """
    d = base.shape[0]
    total = _outcome_count(rvs)
    if total > budget:
        raise BudgetExceededError(
            f"{total} outcomes exceed the budget of {budget}")
    dtype, kernel = (object, charpoly_batch_exact) if exact else (float, charpoly_batch)
    outers = [np.stack([np.outer(v, v).astype(dtype) for _, v in r.support])
              for r in rvs]
    probs = [np.array([p if exact else float(p) for p, _ in r.support], dtype=dtype)
             for r in rvs]
    base = base.astype(dtype)
    acc = np.zeros(d + 1, dtype=dtype)
    chunk = 8192
    ranges = itertools.product(*[range(len(r.support)) for r in rvs])
    while True:
        block = list(itertools.islice(ranges, chunk))
        if not block:
            break
        idx = np.array(block)
        mats = np.broadcast_to(base, (len(block), d, d)).copy()
        w = np.ones(len(block), dtype=dtype)
        for i in range(len(rvs)):
            mats += outers[i][idx[:, i]]
            w *= probs[i][idx[:, i]]
        acc = acc + w @ kernel(mats)
    return Polynomial(acc)


def mixed_identity_check(rvs, budget: int = DEFAULT_BUDGET,
                         rtol: float = 1e-8) -> bool:
    """Whether E char_poly(sum r_i r_i^T) equals mixed_char of the covariances.

    Exact inputs are compared coefficient-for-coefficient with no
    tolerance; float inputs within ``rtol`` relative to the largest
    coefficient magnitude.
    """
    rvs = list(rvs)
    expected = expected_char_poly(rvs, budget)
    mixed = mixed_char([r.covariance() for r in rvs])
    if expected.is_exact and mixed.is_exact:
        return expected == mixed
    return expected.allclose(mixed, rtol)


def mixed_char_root_bound(matrices, tol: float = 1e-8) -> float:
    """The bound (1 + sqrt(eps))^2, eps = max trace, for families summing to I.

    Raises if ``sum A_i`` differs from the identity by more than ``tol``
    in spectral norm.  The largest root of the family's mixed
    characteristic polynomial is guaranteed to be at most this value.
    """
    mats = _validate_psd_list(matrices)
    d = mats[0].n
    total = np.zeros((d, d))
    for m in mats:
        total += m.a.astype(float)
    dev = np.linalg.eigvalsh(total - np.eye(d))
    if np.max(np.abs(dev)) > tol:
        raise ValueError("matrices do not sum to the identity")
    eps = max(float(m.a.astype(float).trace()) for m in mats)
    return float((1.0 + math.sqrt(eps)) ** 2)
