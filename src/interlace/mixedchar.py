"""Mixed characteristic polynomials and expected characteristic polynomials.

The mixed characteristic polynomial of PSD matrices ``A_1..A_m`` is

    mu[A_1..A_m](x) = prod_i (1 - d/dz_i) det(xI + sum_i z_i A_i) | z=0.

For independent random vectors ``r_i`` with covariances ``A_i = E r_i r_i^T``
and a fixed ``B = sum_j u_j u_j^T``, ``E char_poly(B + sum_i r_i r_i^T)``
equals mu of the rank-one parts ``u_j u_j^T`` together with the A_i (MSS,
Interlacing Families II, Sec. 4) - an identity special to rank one,
which the tests check against enumeration of finitely supported
distributions (and which fails already for rank-2 summands; see the
negative test in the suite).  For PSD inputs the mixed characteristic
polynomial is real-rooted, and when the A_i sum to the identity with
traces at most eps, its largest root is at most ``(1 + sqrt(eps))^2``
(checked in ``tests/paper.py``).

Each variable is differentiated at most once before z is set to 0, so only
the multi-affine part of the determinant matters, and applying the
operators evaluates that part at z = -1.  When every A_i = v_i v_i^T has
rank at most one, the determinant is already affine in each z_i: by
Cauchy-Binet each minor of sum_i z_i v_i v_i^T is a sum over sets of
distinct i, each i at most once.  So the operators evaluate it at z = -1
as it stands, and mu[v_1 v_1^T, ..., v_m v_m^T] = chi(sum_i v_i v_i^T)
(MSS, Interlacing Families II).  Exact matrices are decided once each by
fraction-free elimination (:func:`_rank_one_terms`), which gives PSD,
rank and rank-one terms with integer vectors together; an exact family
of ranks at most one takes chi of its sum from one exact kernel call.
Float matrices are decided PSD by the one ``eigh`` that splits each into
rank-one terms.

Every other family runs on an engine that carries the multi-affine part
as tables on exterior powers: W_k[I, J] is the multi-affine part of the
k x k minor det Z[I, J] of Z = sum_i z_i A_i, at z = 1, and mu(x) =
sum_k (-1)^k x^(n-k) tr W_k.  Adding a variable whose matrix is sum_j
w_j u_j u_j^T adds sum_j w_j L_k(u_j) W_(k-1) L_k(u_j)^T to every W_k,
where L_k(u) is the C(n, k) x C(n, k-1) map with L_k(u)[I, I - a] =
(-1)^pos(a, I) u_a (:func:`fold_terms`).  That is division-free and
linear in the number of variables.  Exact tables hold integers after one
common scaling of the weights (:class:`TableArithmetic`), in int64 under
a proven magnitude bound.  :func:`mixed_char` runs on it for those
families, and so does weaver's greedy walk in :mod:`interlace.select`
wherever it is cheaper than enumeration.  The fold adds to W_k terms
read from W_(k-1) alone, so one ascending pass takes a variable back out
(:func:`peel_terms`); the walk peels each level's variable off one parent
table, and each child is the peeled table plus one term read off it.
:func:`_enumerated_char` enumerates the outcomes of independent rows,
each a list of (probability, vector) pairs; it is the walk's other
route, priced with it before the walk starts.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .poly import Polynomial
from .matrices import SymMatrix, char_poly, charpoly_batch, charpoly_batch_exact, \
    _cleared, _validate_matrix_list
from .tolerances import PSD_TOL

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "MAX_VARIABLES",
    "MAX_DIMENSION",
    "TableArithmetic",
    "fold_terms",
    "peel_terms",
    "mixed_char",
]

# The default cap on lift's signing walks: a walk's DP states plus its
# leaf matrix entries (SigningEngine.walk_entries).
DEFAULT_BUDGET = 1 << 20
MAX_VARIABLES = 16
MAX_DIMENSION = 10


class BudgetExceededError(RuntimeError):
    """A computation would exceed its configured budget."""


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
    keep their dtype (int64, object or float64).  Returns new tables; the
    old ones are not modified and can be shared.
    """
    n = len(tables) - 1
    index = _subset_index(n)
    out = [tables[0]]
    for k in range(1, n + 1):
        elem, sub, sign = index[k]
        gathered = tables[k - 1][sub]  # (C(n,k), k, C(n,k-1))
        acc = tables[k]
        for w, u in zip(weights, vecs):
            acc = acc + w * _sandwich(gathered, u[elem] * sign, sub)
        out.append(acc)
    return out


def peel_terms(tables: list, weights, vecs) -> tuple:
    """The tables without one variable, the matrix sum_j w_j u_j u_j^T.

    The inverse of :func:`fold_terms`.  A fold adds to W_k terms read
    from W_(k-1) alone, so it is unipotent and one ascending pass undoes
    it: T_0 = W_0 and, for k = 1..n, X_jk = L_k(u_j) T_(k-1) L_k(u_j)^T
    and T_k = W_k - sum_j w_j X_jk.  Returns (T, X): the tables T
    without the variable, and per term j its parts X[j] = [0, X_j1, ..,
    X_jn], so that T + c X[j], grade by grade, is ``fold_terms(T, [c],
    [u_j])``.  It costs as many table updates as the fold, and the
    dtypes are kept; in int64 every intermediate is T_k plus some of the
    w_j X_jk, within the bound the fold's are (:class:`TableArithmetic`).
    """
    n = len(tables) - 1
    index = _subset_index(n)
    peeled = [tables[0]]
    parts = [[np.zeros_like(tables[0])] for _ in weights]
    for k in range(1, n + 1):
        elem, sub, sign = index[k]
        gathered = peeled[k - 1][sub]
        acc = tables[k]
        for w, u, part in zip(weights, vecs, parts):
            part.append(_sandwich(gathered, u[elem] * sign, sub))
            acc = acc - w * part[-1]
        peeled.append(acc)
    return peeled, parts


def _sandwich(gathered, coef, sub):
    """L_k(u) W L_k(u)^T, from ``gathered`` = W[sub] and ``coef``, the
    nonzeros of L_k(u) row by row, u[elem] sign."""
    left = np.einsum("ip,ipj->ij", coef, gathered)  # L_k(u) W
    return np.einsum("ijq,jq->ij", left[:, sub], coef)  # ... L_k(u)^T


class TableArithmetic:
    """How the exterior-power tables of one family of rank-one terms are held.

    The tables are W_k, k = 0..n, of size C(n, k) x C(n, k): W_k[I, J] is
    the multi-affine part of the k x k minor det Z[I, J], Z = sum_i z_i A_i,
    at z = 1.  Since applying prod_i (1 - d/dz_i) at z = 0 evaluates the
    multi-affine part at z = -1, mu(x) = sum_k (-1)^k x^(n-k) tr W_k.

    Float terms give float64 tables.  Exact terms (ints, Fractions) are all
    scaled by one common L, so that every L w u u^T is an integer weight
    times the outer product of an integer vector and the tables hold
    integers: vectors of ints, such as the primitive ones of
    :func:`_rank_one_terms`, are taken as they are, others are cleared of
    their denominators first, and L is the lcm of the weights'
    denominators (1 for sign vectors), applied in integer arithmetic.
    Since mu[L A](x) = L^n mu[A](x / L), the coefficient of x^j is
    divided by L^(n-j) at the end.

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
    below 2^63: in dimension 10, the identity and 15 outer products of
    sign vectors have unit pivots, so L = 1, and give D = 16 and stay
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
            w = abs(self._integer(w))
            for a, x in enumerate(u):
                diag[a] += w * x * x
        top = max(diag, default=0)
        self.dtype = np.int64 if (n * n + 1) * top ** n < 2 ** 63 else object

    def encode(self, pairs) -> tuple:
        """Weights and a (terms, n) vector array, ready for :func:`fold_terms`.

        One term per pair, in order.  Exact terms with u = 0 add nothing
        and get weight 0: the bound above does not cover their weights.
        """
        if self.scale is None:
            return ([float(w) for w, _ in pairs],
                    np.array([u for _, u in pairs], dtype=float).reshape(-1, self.n))
        ints = [(self._integer(w) if any(u) else 0, u) for w, u in
                (_reduced_term(w, u) for w, u in pairs)]
        return ([w for w, _ in ints],
                np.array([u for _, u in ints], dtype=self.dtype).reshape(-1, self.n))

    def _integer(self, w) -> int:
        """L w for a weight w (an int or a Fraction), in integer arithmetic."""
        return w.numerator * (self.scale // w.denominator)

    def empty(self) -> list:
        """The tables of no variables: W_0 = [1], every other W_k zero."""
        return [np.ones((1, 1), dtype=self.dtype)] + [
            np.zeros((c, c), dtype=self.dtype)
            for c in (math.comb(self.n, k) for k in range(1, self.n + 1))]

    def poly(self, tables: list) -> Polynomial:
        """mu(x) = sum_k (-1)^k x^(n-k) tr W_k, with the scaling undone."""
        return self.from_traces(self.traces(tables))

    @staticmethod
    def traces(tables: list) -> list:
        """tr W_k, k = 0..n, summed as Python scalars: an int64 table's
        entries fit, but their sum need not."""
        return [sum(t.diagonal().tolist()) for t in tables]

    def from_traces(self, traces: list) -> Polynomial:
        """:meth:`poly` from the traces tr W_k, k = 0..n, alone."""
        n = self.n
        co = [0] * (n + 1)
        for k, trace in enumerate(traces):
            co[n - k] = -trace if k % 2 else trace
        if self.scale not in (None, 1):
            co = [Fraction(c, self.scale ** (n - j)) for j, c in enumerate(co)]
        return Polynomial(co)


def _reduced_term(w, u) -> tuple:
    """w u u^T as (w / q^2, q u) with q u an integer vector (a list of ints).

    A vector of ints passes through untouched, q = 1.
    """
    q, ints = _cleared(list(u))
    return (w, ints) if q == 1 else (Fraction(w) / (q * q), ints)


def _ratio(num: int, den: int):
    """num / den, den > 0, as an int when den divides num and as a Fraction otherwise."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return num if den == 1 else Fraction(num, den)


def _rank_one_terms(mat: SymMatrix, exact: bool, name: str = "matrix") -> list:
    """Pairs (w, u) with sum w u u^T = A.

    Float input gives all d eigenpairs of ``eigh``, which decides PSD
    too: the bottom eigenvalue must be at least ``-PSD_TOL * max(1,
    |tr A|)``, else ValueError, "<name> is not positive semidefinite".
    Exact input is cleared once, B = qA with q the lcm of its
    denominators, and reduced by fraction-free (Bareiss) elimination in
    Python ints: with pivot p, the previous pivot p_ and the pivot's
    column f of the current matrix M (which is p_ times the Schur
    complement of B), the term is
    f f^T / (q p_ p), and M becomes (p M - f f^T) / p_, an exact division.
    Each term is taken as (g^2 / (q p_ p), f / g), g = gcd(f), so the
    vectors are primitive and the weights ints wherever they can be.  A
    zero pivot is skipped.  The elimination decides PSD exactly: A is PSD
    if and only if no pivot is negative and nothing is left at the end
    (a zero pivot of a PSD matrix has a zero row).  Otherwise ValueError
    is raised, "<name> is not positive semidefinite", also for input
    within the float rule's slack.
    """
    if not exact:
        a = mat.a.astype(float)
        w, u = np.linalg.eigh(a)
        if w.size and not w[0] >= -PSD_TOL * max(1.0, abs(float(a.trace()))):
            raise ValueError(f"{name} is not positive semidefinite")
        return list(zip(w.tolist(), u.T))
    d = mat.n
    q, flat = _cleared(mat.a.ravel().tolist())
    m = [flat[i * d:(i + 1) * d] for i in range(d)]
    terms = []
    prev = 1
    for k in range(d):
        p = m[k][k]
        if p < 0:
            raise ValueError(f"{name} is not positive semidefinite")
        if p:
            f = [row[k] for row in m]
            g = math.gcd(*f)
            terms.append((_ratio(g * g, q * prev * p), [x // g for x in f]))
            m = [[(p * x - fi * fj) // prev for x, fj in zip(row, f)]
                 for row, fi in zip(m, f)]
            prev = p
    if any(any(row) for row in m):
        raise ValueError(f"{name} is not positive semidefinite")
    return terms


def mixed_char(matrices) -> Polynomial:
    """Mixed characteristic polynomial of PSD matrices A_1..A_m.

    Monic of degree d; exact for exact inputs.  Each matrix is decided
    once, by :func:`_rank_one_terms`, which gives PSD (ValueError naming
    the first matrix that is not) and rank-one terms together: exact
    matrices by fraction-free elimination, which gives their rank too,
    float ones by the ``eigh`` that splits them.  When the A_i are exact
    and of rank at most one, each z_i enters det(xI + sum z_i A_i)
    affinely, so applying the operators evaluates the determinant at
    z = -1 and mu = chi(sum A_i): one exact :func:`char_poly` call,
    with no tables.  Every other family's rank-one terms are folded into
    the exterior-power tables one variable at a time
    (:func:`fold_terms`); the cost is linear in m.  The dimension cap is
    checked before any matrix is split, in either arithmetic.  The cap
    on m guards the tables only, so it is checked once the route is
    known, before any fold.  A float fold that
    overflows leaves infinite or NaN coefficients, with no
    RuntimeWarning; the root routines refuse them.
    """
    mats = _validate_matrix_list(matrices)
    exact = all(mat.is_exact for mat in mats)
    m = len(mats)
    d = mats[0].n
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension capped at {MAX_DIMENSION}, got {d}")
    groups = [_rank_one_terms(mat, exact, f"matrix {i}") for i, mat in enumerate(mats)]
    if exact and all(len(g) <= 1 for g in groups):
        return char_poly(SymMatrix(sum(mat.a for mat in mats)))
    if m > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} matrices supported, got {m}")
    arith = TableArithmetic(d, [t for g in groups for t in g], exact)
    tables = arith.empty()
    with np.errstate(over="ignore", invalid="ignore"):
        for g in groups:
            if g:
                tables = fold_terms(tables, *arith.encode(g))
        return arith.poly(tables)


# ----------------------------------------------------------------------
# Outcome enumeration
# ----------------------------------------------------------------------


def _enumerated_char(base: np.ndarray, rows: list, exact: bool) -> Polynomial:
    """E char_poly(base + sum r_i r_i^T); base is a plain (d, d) array, and
    each row r_i is independent, a list of (probability, vector) pairs.

    Outcomes are enumerated in chunks; each chunk's matrices go through
    one kernel call, exact (object dtype) or float.  The caller has
    checked the outcomes' count against its budget.
    """
    d = base.shape[0]
    dtype, kernel = (object, charpoly_batch_exact) if exact else (float, charpoly_batch)
    outers = [np.stack([np.outer(v, v).astype(dtype) for _, v in row]) for row in rows]
    probs = [np.array([p if exact else float(p) for p, _ in row], dtype=dtype)
             for row in rows]
    base = base.astype(dtype)
    acc = np.zeros(d + 1, dtype=dtype)
    chunk = 8192
    ranges = itertools.product(*[range(len(row)) for row in rows])
    while True:
        block = list(itertools.islice(ranges, chunk))
        if not block:
            break
        idx = np.array(block)
        mats = np.broadcast_to(base, (len(block), d, d)).copy()
        w = np.ones(len(block), dtype=dtype)
        for i in range(len(rows)):
            mats += outers[i][idx[:, i]]
            w *= probs[i][idx[:, i]]
        acc = acc + w @ kernel(mats)
    return Polynomial(acc)
