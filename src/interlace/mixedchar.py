"""Mixed characteristic polynomials and expected characteristic polynomials.

The mixed characteristic polynomial of PSD matrices ``A_1..A_m`` is

    mu[A_1..A_m](x) = prod_i (1 - d/dz_i) det(xI + sum_i z_i A_i) | z=0.

For independent random vectors ``r_i`` with covariances ``A_i = E r_i r_i^T``
and a fixed ``B = sum_j u_j u_j^T``, ``E char_poly(B + sum_i r_i r_i^T)``
equals mu of the rank-one parts ``u_j u_j^T`` together with the A_i (MSS,
Interlacing Families II, Sec. 4) - an identity special to rank one,
checked here against brute-force enumeration of finitely supported
distributions (and known to fail already for rank-2 summands; see the
negative test in the suite).  For PSD inputs the mixed characteristic
polynomial is real-rooted, and when the A_i sum to the identity with
traces at most eps, its largest root is at most ``(1 + sqrt(eps))^2``.

Each variable is differentiated at most once before z is set to 0, so only
the multi-affine part of the determinant matters, and applying the
operators evaluates that part at z = -1.  The engine carries it as tables
on exterior powers: W_k[I, J] is the multi-affine part of the k x k minor
det Z[I, J] of Z = sum_i z_i A_i, at z = 1, and mu(x) = sum_k (-1)^k
x^(n-k) tr W_k.  Adding a variable whose matrix is sum_j w_j u_j u_j^T
adds sum_j w_j L_k(u_j) W_(k-1) L_k(u_j)^T to every W_k, where L_k(u) is
the C(n, k) x C(n, k-1) map with L_k(u)[I, I - a] = (-1)^pos(a, I) u_a
(:func:`fold_terms`).  That is division-free and linear in the number of
variables; exact tables hold integers after one common scaling
(:class:`TableArithmetic`), in int64 under a proven magnitude bound.
:func:`mixed_char` runs on it, and so does the greedy walk of
:mod:`interlace.select` wherever it is cheaper than enumeration.
:func:`expected_char_poly` enumerates outcomes under a budget; it is the
independent oracle the identity is checked against, and its kernel is
the greedy walk's other route.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .poly import Polynomial
from .matrices import SymMatrix, charpoly_batch, charpoly_batch_exact, _validate_psd_list

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "MAX_VARIABLES",
    "MAX_DIMENSION",
    "DiscreteRandomVector",
    "TableArithmetic",
    "fold_terms",
    "mixed_char",
    "expected_char_poly",
    "mixed_identity_check",
    "mixed_char_root_bound",
]

# Outcomes for expected_char_poly, and signing DP states for lift.
DEFAULT_BUDGET = 1 << 20
MAX_VARIABLES = 16
MAX_DIMENSION = 10


class BudgetExceededError(RuntimeError):
    """A computation would exceed its configured budget."""


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
# The exterior-power engine
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _subset_index(n: int) -> tuple:
    """Per k = 1..n, ``(elem, sub, sign)`` describing L_k on k-subsets of range(n).

    The k-subsets are numbered in lexicographic order.  Row I of the
    (C(n, k), k) arrays ``elem`` and ``sub`` lists, for p = 0..k-1, the
    element a = I[p] and the number of the (k-1)-subset I - a, and
    ``sign[p]`` is (-1)^p, so L_k(u)[I, sub[I, p]] = sign[p] u[elem[I, p]].
    """
    out = [None]
    number = {(): 0}
    for k in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        sub = [[number[s[:p] + s[p + 1:]] for p in range(k)] for s in subsets]
        out.append((np.array(subsets, dtype=np.intp), np.array(sub, dtype=np.intp),
                    np.resize(np.array([1, -1], dtype=np.int64), k)))
        number = {s: i for i, s in enumerate(subsets)}
    return tuple(out)


def fold_terms(tables: list, weights, vecs) -> list:
    """The tables with one more variable, the matrix sum_j w_j u_j u_j^T.

    W_k gains sum_j w_j L_k(u_j) W_(k-1) L_k(u_j)^T for k = n down to 1,
    every term read from the old W_(k-1), so each new product carries the
    new variable exactly once.  Only ring operations occur, so the tables
    keep their dtype (int64, object or float64).  ``tables[k]`` may carry
    a leading batch axis, (B, C(n,k), C(n,k)): every table of the batch
    gets the same variable.  Returns new tables; the old ones are not
    modified and can be shared.
    """
    n = len(tables) - 1
    index = _subset_index(n)
    out = [tables[0]]
    for k in range(1, n + 1):
        elem, sub, sign = index[k]
        gathered = tables[k - 1][..., sub, :]  # (..., C(n,k), k, C(n,k-1))
        acc = tables[k]
        for w, u in zip(weights, vecs):
            coef = u[elem] * sign  # the nonzeros of L_k(u), row by row
            left = np.einsum("ip,...ipj->...ij", coef, gathered)  # L_k(u) W_(k-1)
            acc = acc + w * np.einsum("...ijq,jq->...ij", left[..., sub], coef)  # ... L_k(u)^T
        out.append(acc)
    return out


class TableArithmetic:
    """How the exterior-power tables of one family of rank-one terms are held.

    The tables are W_k, k = 0..n, of size C(n, k) x C(n, k): W_k[I, J] is
    the multi-affine part of the k x k minor det Z[I, J], Z = sum_i z_i A_i,
    at z = 1.  Since applying prod_i (1 - d/dz_i) at z = 0 evaluates the
    multi-affine part at z = -1, mu(x) = sum_k (-1)^k x^(n-k) tr W_k.

    Float terms give float64 tables.  Exact terms (ints, Fractions) are all
    scaled by one common L, so that every L w u u^T is an integer weight
    times the outer product of an integer vector and the tables hold
    integers.  Since mu[L A](x) = L^n mu[A](x / L), the coefficient of
    x^j is divided by L^(n-j) at the end.

    Integer tables run in int64 when nothing can overflow.  With the terms
    folded so far, W_k[I, J] = sum_T prod_(t in T) w_t det U_T[I]
    det U_T[J] over the k-sets T of terms with at most one from each
    variable, U_T having the u_t as columns.  Cauchy-Schwarz over T and
    Cauchy-Binet give |W_k[I, J]| <= max_I det P[I, I] <= D^k (Hadamard),
    where P = sum_t |w_t| u_t u_t^T over every term the family may use and
    D is its largest diagonal entry.  Integer w_t != 0 and u_t give
    u_t[a]^2 <= |w_t| u_t[a]^2 <= D.  In one step, an entry of
    L_k(u) W_(k-1) is a sum of k products u_a W_(k-1)[.], each at most
    D^k; an entry of L_k(u) W_(k-1) L_k(u)^T is a sum of k^2 products
    u_a u_b W_(k-1)[.], at most k^2 D^k before and after scaling by w; and
    summed over the terms of one variable, sum_j |w_j u_ja u_jb| <= D
    (Cauchy-Schwarz) keeps the new W_k within D^k + k^2 D^k.  So every
    intermediate is at most (n^2 + 1) D^n, and int64 is safe when that is
    below 2^63: 16 sign vectors in dimension 10 give D = 16 and stay
    int64.  Otherwise the tables hold Python ints (object dtype).  Traces
    are summed as Python ints either way.
    """

    def __init__(self, n: int, pairs, exact: bool):
        """``pairs`` are all the (w, u) the family's polynomials may use,
        each with the largest weight it will be folded with."""
        self.n = n
        if not exact:
            self.scale, self.dtype = None, np.float64
            return
        pairs = [_reduced_term(w, u) for w, u in pairs]
        self.scale = math.lcm(1, *(w.denominator for w, _ in pairs))
        diag = [0] * n
        for w, u in pairs:
            w = abs(int(w * self.scale))
            for a, x in enumerate(u):
                diag[a] += w * x * x
        top = max(diag, default=0)
        self.dtype = np.int64 if (n * n + 1) * top ** n < 2 ** 63 else object

    def encode(self, pairs) -> tuple:
        """Weights and a (terms, n) vector array, ready for :func:`fold_terms`.

        Exact terms with u = 0 add nothing and are dropped: the bound
        above does not cover their weights.
        """
        if self.scale is None:
            return ([float(w) for w, _ in pairs],
                    np.array([u for _, u in pairs], dtype=float).reshape(-1, self.n))
        ints = [(int(w * self.scale), u) for w, u in
                (_reduced_term(w, u) for w, u in pairs) if any(u)]
        return ([w for w, _ in ints],
                np.array([u for _, u in ints], dtype=self.dtype).reshape(-1, self.n))

    def empty(self) -> list:
        """The tables of no variables: W_0 = [1], every other W_k zero."""
        return [np.ones((1, 1), dtype=self.dtype)] + [
            np.zeros((c, c), dtype=self.dtype)
            for c in (math.comb(self.n, k) for k in range(1, self.n + 1))]

    def poly(self, tables: list) -> Polynomial:
        """mu(x) = sum_k (-1)^k x^(n-k) tr W_k, with the scaling undone."""
        n = self.n
        co = [0] * (n + 1)
        for k, table in enumerate(tables):
            trace = sum(table.diagonal().tolist())
            co[n - k] = -trace if k % 2 else trace
        if self.scale not in (None, 1):
            co = [Fraction(c, self.scale ** (n - j)) for j, c in enumerate(co)]
        return Polynomial(co)


def _reduced_term(w, u) -> tuple:
    """w u u^T as (w / q^2, q u) with q u an integer vector (a list of ints)."""
    u = [Fraction(x) for x in u]
    q = math.lcm(1, *(x.denominator for x in u))
    return Fraction(w) / (q * q), [int(x * q) for x in u]


def _rank_one_terms(mat: SymMatrix, exact: bool) -> list:
    """Pairs (w, u) with sum w u u^T = A.

    Float input gives all d eigenpairs of ``eigh``.  Exact input gives an
    exact LDL^T: a zero pivot is skipped, and what a zero pivot with a
    nonzero row leaves (only an indefinite input within the PSD check's
    slack has one) is split entrywise, by
    e_i e_j^T + e_j e_i^T = ((e_i + e_j)(e_i + e_j)^T - (e_i - e_j)(e_i - e_j)^T) / 2.
    """
    if not exact:
        w, u = np.linalg.eigh(mat.a.astype(float))
        return list(zip(w.tolist(), u.T))
    a = np.array([[Fraction(x) for x in row] for row in mat.a.tolist()], dtype=object)
    d = mat.n
    terms = []
    for k in range(d):
        p = a[k, k]
        if p != 0:
            u = a[:, k] / p
            terms.append((p, u))
            a = a - p * np.outer(u, u)
    unit = np.eye(d, dtype=int).astype(object)
    for i in range(d):
        if a[i, i] != 0:
            terms.append((a[i, i], unit[i]))
        for j in range(i + 1, d):
            if a[i, j] != 0:
                terms += [(a[i, j] / 2, unit[i] + unit[j]), (-a[i, j] / 2, unit[i] - unit[j])]
    return terms


def mixed_char(matrices) -> Polynomial:
    """Mixed characteristic polynomial of PSD matrices A_1..A_m.

    Each A_i is split into rank-one terms (``eigh`` for float input, an
    exact LDL^T for exact input) and folded into the exterior-power tables
    as one variable (:func:`fold_terms`); the cost is linear in m.  Monic
    of degree d; exact for exact inputs.
    """
    mats = _validate_psd_list(matrices)
    m = len(mats)
    d = mats[0].n
    if m > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} matrices supported, got {m}")
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension capped at {MAX_DIMENSION}, got {d}")
    exact = all(mat.is_exact for mat in mats)
    groups = [_rank_one_terms(mat, exact) for mat in mats]
    arith = TableArithmetic(d, [t for g in groups for t in g], exact)
    tables = arith.empty()
    for g in groups:
        if g:
            tables = fold_terms(tables, *arith.encode(g))
    return arith.poly(tables)


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
