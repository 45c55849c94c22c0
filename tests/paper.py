"""The paper's identities and bounds, as checks on the library.

The commands run interlacing-family walks, mixed characteristic
polynomials and restricted invertibility; the identities and bounds
that make them sound are checked here, on the library's polynomials,
by the tests and the acceptance suite.  No command calls them.
"""

import math
from fractions import Fraction

import numpy as np

from interlace.graphs import Graph, squared_roots
from interlace.matrices import SymMatrix, charpoly_batch_exact, _coerce_array
from interlace.poly import Polynomial, ZeroPolynomialError, NotRealRootedError, \
    real_roots, root_clusters, roots_above, _float_roots, _normalize_scalar, \
    _primitive, _pseudo_divmod, _root_bound
from interlace.tolerances import ISO_TOL
from fixtures import psd_list

# Relative slack when float roots of two polynomials are compared for
# interlacing: the chain allows equal roots, and a float double root is
# only good to about sqrt(eps) = 1.5e-8.
ROOT_TOL = 1e-7

MATCHING_CAP = 24
GG_EDGE_CAP = 20


# ----------------------------------------------------------------------
# Polynomials: the shift operator, Sturm counts, interlacing
# ----------------------------------------------------------------------


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Canonical Sturm sequence ``p, p', -rem(...), ...`` of exact ``p``.

    Each element is taken up to a positive factor, which leaves every
    sign count unchanged: the sequence runs in integers, each element
    primitive, each remainder a pseudo-remainder.  It ends at
    gcd(p, p'), up to a constant.  Sturm sequences are the checker of
    real-rootedness, and a float one certifies nothing, so float input
    raises ``TypeError``.
    """
    if p.is_zero:
        raise ZeroPolynomialError("Sturm sequence of the zero polynomial")
    if not p.is_exact:
        raise TypeError("Sturm sequences are taken of exact polynomials only")
    den = math.lcm(*(c.denominator for c in p.coeffs))
    seq = [_primitive([(c * den).numerator for c in p.coeffs])]
    if len(seq[0]) > 1:
        seq.append(_primitive([i * c for i, c in enumerate(seq[0])][1:]))
    while len(seq[-1]) > 1:
        r = _pseudo_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append([-c for c in _primitive(r)])
    return [Polynomial(q) for q in seq]


def _sign_changes(seq: list[Polynomial], x) -> int:
    signs = [v > 0 for v in (q(x) for q in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_certifies_real_roots(p: Polynomial) -> bool:
    """Whether every root of exact, nonconstant ``p`` is real, by one Sturm sequence.

    The sequence ends at g = gcd(p, p'), so p has deg p - deg g distinct
    roots; every one of them is real exactly when that many lie in
    (-B, B] for the root bound B.
    """
    seq = sturm_sequence(p)
    bound = int(max(_root_bound(list(seq[0].coeffs)), 1))  # an integer, for speed
    distinct = p.degree - seq[-1].degree
    return _sign_changes(seq, -bound) - _sign_changes(seq, bound) == distinct


def _require_real_roots(p: Polynomial) -> None:
    if not _sturm_certifies_real_roots(p):
        raise NotRealRootedError(
            "complex root (a Sturm count falls short of the distinct roots)")


def exact_real_roots(p: Polynomial) -> np.ndarray:
    """All roots of exact ``p`` with multiplicity, descending, as floats.

    ``p`` is first certified real-rooted by one Sturm sequence, or
    :class:`NotRealRootedError` is raised; its roots then come from
    ``root_clusters``, each within a few ulp and inside a bracket
    certified by exact counts.  A constant has no roots.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has every number as a root")
    if p.degree == 0:
        return np.empty(0)
    _require_real_roots(p)
    return np.array([c.root for c in root_clusters(p) for _ in range(c.mult)])


def all_roots(p: Polynomial) -> np.ndarray:
    """``exact_real_roots`` for exact ``p``, ``real_roots`` for float ``p``."""
    return exact_real_roots(p) if p.is_exact else real_roots(p)


def apply_shift_operator(p: Polynomial, c) -> Polynomial:
    """Apply ``1 - c*d/dx`` to ``p``.

    For real-rooted ``p`` and ``c >= 0`` the result is again real-rooted
    (it is a nonnegative combination in the sense of polynomial
    convolution); for ``c < 0`` no such guarantee exists and the roots
    may leave the real axis.
    """
    if p.is_zero:
        return p
    c = _normalize_scalar(c)
    return p - c * p.derivative()


def taylor_shift(p: Polynomial, c) -> Polynomial:
    """Return ``p(x + c)``, by Horner's scheme in place."""
    c = _normalize_scalar(c)
    cs = list(p.coeffs)
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] = cs[j] + c * cs[j + 1]
    return Polynomial(cs)


def top_root(p: Polynomial):
    """The largest root of exact, real-rooted ``p``: the first of ``root_clusters``.

    Real-rootedness is not checked.  No value is returned without its
    bracket certified: no root lies above ``hi``, and ``mult`` lie above
    ``lo``.
    """
    return next(root_clusters(p))


def laguerre_transform(n: int, k: int) -> Polynomial:
    """Return ``(1 - d/dx)^n`` applied to ``x**k``, with exact integer coefficients."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    p = Polynomial((0,) * k + (1,))
    for _ in range(n):
        p = p - p.derivative()
    return p


def diagram_identity_check(n: int, k: int) -> bool:
    """Verify ``(1 - D)^k x^n == x^(n-k) * ((1 - D)^n x^k)`` exactly.

    Both sides are computed independently in integer arithmetic.
    Requires ``k <= n`` so the left side keeps degree ``n``.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    lhs = Polynomial((0,) * n + (1,))
    for _ in range(k):
        lhs = lhs - lhs.derivative()
    rhs = Polynomial((0,) * (n - k) + (1,)) * laguerre_transform(n, k)
    return lhs == rhs


def sturm_root_count(p: Polynomial, a, b) -> int:
    """Number of distinct real roots of exact ``p`` in the half-open interval (a, b].

    Works without square-free reduction: the Sturm sequence terminates at
    g = gcd(p, p') and the sign-change count sees each root once
    regardless of multiplicity.  The endpoints are taken exactly, float
    ones too.  At a root of p the count equals the one just above it, so
    a root at b is counted and one at a is not; where g vanishes as well,
    the count is taken on the sequence divided by g, a Sturm sequence of
    the square-free part.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root count of the zero polynomial")
    if a > b:
        raise ValueError("need a <= b")
    seq = sturm_sequence(p)
    g = list(seq[-1].coeffs)

    def changes(x):
        x = Fraction(x)
        if seq[-1](x) == 0:
            return _sign_changes([Polynomial(_pseudo_divmod(list(q.coeffs), g)[0])
                                  for q in seq], x)
        return _sign_changes(seq, x)
    return changes(a) - changes(b)


def is_real_rooted(p: Polynomial) -> bool:
    """Whether every complex root of ``p`` is real.

    Exact polynomials get an exact yes/no from one Sturm sequence: the
    number of distinct roots in (-B, B], for the root bound B, must be
    deg p - deg gcd(p, p').  Float polynomials get the answer of
    ``real_roots``: yes when it finds every root in its brackets, up
    to the backward error ``tolerances.BACKWARD_TOL``.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial is not classified")
    if p.degree == 0:
        return True
    if p.is_exact:
        return _sturm_certifies_real_roots(p)
    try:
        _float_roots(p)
    except NotRealRootedError:
        return False
    return True


def kth_largest_root(p: Polynomial, k: int) -> float:
    """The k-th largest real root, 1-indexed with multiplicity.

    Exact ``p`` is certified real-rooted as in ``exact_real_roots``, and
    its clusters are then taken from the top only until k roots are in
    hand.  Float ``p`` goes through ``poly._float_roots``.
    """
    if not 1 <= k <= p.degree:
        raise ValueError(f"k={k} out of range for {p.degree} roots")
    if not p.is_exact:
        return _float_roots(p)[k - 1]
    _require_real_roots(p)
    for cluster in root_clusters(p):
        k -= cluster.mult
        if k <= 0:
            return cluster.root


def _leq(x: float, y: float) -> bool:
    """``x <= y`` slackened by ``ROOT_TOL * (1 + max(|x|, |y|))``."""
    return x <= y + ROOT_TOL * (1.0 + max(abs(x), abs(y)))


def interlaces(g: Polynomial, f: Polynomial) -> bool:
    """Whether ``g`` interlaces ``f``.

    With roots of f being a_1 >= ... >= a_n and roots of g being
    b_1 >= ... >= b_m, requires m in {n-1, n} and the alternating chain
    b_i <= a_i and a_(i+1) <= b_i, each inequality slackened by
    ``ROOT_TOL * (1 + |value|)``.  When m = n - 1 the smallest-root condition
    is vacuous.  Both polynomials must be real-rooted.
    """
    ra = all_roots(f)
    rb = all_roots(g)
    n, m = len(ra), len(rb)
    if m not in (n - 1, n) or n == 0:
        return False
    return all(_leq(rb[i], ra[i]) for i in range(m)) and \
        all(_leq(ra[i + 1], rb[i]) for i in range(min(m, n - 1)))


def have_common_interlacing(polys) -> bool:
    """Whether same-degree real-rooted polynomials have a common interlacer.

    For each j, the max over the family of the (j+1)-st largest root must
    not exceed the min of the j-th largest (within ``ROOT_TOL``).  With
    leading coefficients of one sign this is equivalent to every convex
    combination being real-rooted (Dedieu; Chudnovsky-Seymour).
    """
    polys = list(polys)
    if not polys:
        raise ValueError("empty family")
    degs = {p.degree for p in polys}
    if len(degs) != 1:
        return False
    n = degs.pop()
    if n == 0:
        return True
    leads = [float(p.leading()) for p in polys]
    if not (all(l > 0 for l in leads) or all(l < 0 for l in leads)):
        return False
    allroots = [all_roots(p) for p in polys]
    return all(_leq(max(r[j + 1] for r in allroots), min(r[j] for r in allroots))
               for j in range(n - 1))


# ----------------------------------------------------------------------
# Graphs: matchings, Godsil-Gutman, Heilmann-Lieb, Laplacians
# ----------------------------------------------------------------------


def _matching_counts(g: Graph) -> list[int]:
    """m_i = number of i-edge matchings, by direct enumeration."""
    edges = g.edges
    m = len(edges)
    counts = [0] * (g.n // 2 + 1)
    counts[0] = 1

    def rec(start: int, used: int, size: int):
        for i in range(start, m):
            a, b = edges[i]
            if used >> a & 1 or used >> b & 1:
                continue
            counts[size + 1] += 1
            rec(i + 1, used | 1 << a | 1 << b, size + 1)

    rec(0, 0, 0)
    return counts


def matching_poly(g: Graph) -> Polynomial:
    """The matching polynomial ``sum_i (-1)^i m_i x^(n-2i)``, exact, by
    enumerating the matchings.  Graphs of more than ``MATCHING_CAP``
    vertices are refused."""
    if g.n > MATCHING_CAP:
        raise ValueError(f"matching polynomial capped at {MATCHING_CAP} vertices, got {g.n}")
    coeffs = [0] * (g.n + 1)
    for i, mi in enumerate(_matching_counts(g)):
        if g.n - 2 * i >= 0:
            coeffs[g.n - 2 * i] = (-1) ** i * mi
    return Polynomial(coeffs)


def _charpoly_sum_over_signings(g: Graph, prefix=()) -> list[int]:
    """Sum of char_poly(A_s) coefficients, exact ints, over the signings s
    whose first signs are ``prefix``: all 2^m of them by default."""
    n, m, f = g.n, g.m, len(prefix)
    basis = np.zeros((m, n, n), dtype=np.int64)
    for i, (u, v) in enumerate(g.edges):
        basis[i, u, v] = 1
        basis[i, v, u] = 1
    fixed = np.asarray(prefix, dtype=np.int64)
    total = np.zeros(n + 1, dtype=object)
    chunk = 4096
    for start in range(0, 1 << (m - f), chunk):
        codes = np.arange(start, min(start + chunk, 1 << (m - f)), dtype=np.int64)
        signs = np.hstack([np.broadcast_to(fixed, (len(codes), f)),
                           1 - 2 * ((codes[:, None] >> np.arange(m - f)) & 1)])
        mats = np.einsum("bm,mij->bij", signs, basis)
        total += charpoly_batch_exact(mats).sum(axis=0, dtype=object)
    return total.tolist()


def godsil_gutman_check(g: Graph) -> bool:
    """Whether the exact signing-average of char polys equals the matching polynomial.

    Compares ``sum_s char_poly(A_s) == 2^m * mu_G`` in integer
    arithmetic, so no division and no tolerance is involved.
    """
    if g.m > GG_EDGE_CAP:
        raise ValueError(f"signing average capped at {GG_EDGE_CAP} edges, got {g.m}")
    total = _charpoly_sum_over_signings(g)
    mu = matching_poly(g)
    scale = 1 << g.m
    mu_c = list(mu.coeffs) + [0] * (g.n + 1 - len(mu.coeffs))
    return all(total[j] == scale * mu_c[j] for j in range(g.n + 1))


def heilmann_lieb_check(g: Graph) -> bool:
    """Whether every matching-polynomial root is at most 2 sqrt(d-1) in modulus, exactly.

    mu_G is real-rooted and of the form x^e q(x^2) (``squared_roots``),
    so the bound holds when q has no root above the integer 4(d-1).
    """
    d = max(g.degree_sequence(), default=0)
    if d < 2:
        raise ValueError("maximum degree must be at least 2")
    return roots_above(squared_roots(matching_poly(g)), 4 * (d - 1)) == 0


def laplacian(g: Graph, weights=None) -> SymMatrix:
    """Sum over edges of w * (e_a - e_b)(e_a - e_b)^T, ``weights`` one per
    edge in ``g.edges`` order (1 each by default); exact for exact weights."""
    if weights is None:
        weights = [1] * g.m
    if len(weights) != g.m:
        raise ValueError("one weight per edge required")
    exact = all(not isinstance(w, float) for w in weights)
    l = np.zeros((g.n, g.n), dtype=object if exact else float)
    for (u, v), w in zip(g.edges, weights):
        if not exact:
            w = float(w)
        l[u, u] += w
        l[v, v] += w
        l[u, v] -= w
        l[v, u] -= w
    return SymMatrix(l)


def spectral_approx_factors(h: Graph, g: Graph, h_weights=None,
                            g_weights=None) -> tuple[float, float]:
    """(kappa1, kappa2) with kappa1 L_H <= L_G <= kappa2 L_H on ones-complement.

    Each Laplacian takes its graph's weights, unit ones by default.
    Both graphs must be connected on the same vertex set so the
    Laplacian null spaces coincide (span of the all-ones vector); the
    factors are the extreme generalized eigenvalues of (L_G, L_H)
    restricted to the complement.  With Q an orthonormal basis of that
    complement, Q^T L_H Q is positive definite because H is connected;
    its Cholesky factor L = chol(Q^T L_H Q) reduces the pencil to the
    ordinary symmetric eigenproblem of L^{-1} (Q^T L_G Q) L^{-T}.
    """
    if h.n != g.n:
        raise ValueError("graphs must share a vertex set")
    if not (h.is_connected() and g.is_connected()):
        raise ValueError("null-space mismatch: both graphs must be connected")
    n = g.n
    lg = laplacian(g, g_weights).a.astype(float)
    lh = laplacian(h, h_weights).a.astype(float)
    center = np.eye(n) - np.ones((n, n)) / n
    u, sv, _ = np.linalg.svd(center)
    q = u[:, : n - 1]
    low = np.linalg.cholesky(q.T @ lh @ q)
    half = np.linalg.solve(low, q.T @ lg @ q)
    w = np.linalg.eigvalsh(np.linalg.solve(low, half.T))
    return (float(w[0]), float(w[-1]))


# ----------------------------------------------------------------------
# Decompositions of the identity and signing vectors
# ----------------------------------------------------------------------


def covariance(row) -> SymMatrix:
    """E[r r^T] of a random vector r given as (probability, vector) pairs."""
    acc = 0
    for p, v in row:
        v = _coerce_array(v)
        acc = acc + p * np.outer(v, v)
    return SymMatrix(acc)


def mixed_char_root_bound(matrices) -> float:
    """The bound (1 + sqrt(eps))^2, eps = max trace, for families summing to I.

    Raises unless ``sum A_i`` is the identity: exactly for an exact family,
    and for a float one within ``ISO_TOL`` in spectral norm.  The largest
    root of the family's mixed characteristic polynomial is guaranteed to
    be at most this value.
    """
    mats = psd_list(matrices)
    d = mats[0].n
    total = SymMatrix(sum(m.a for m in mats))
    if all(m.is_exact for m in mats):
        is_identity = total == SymMatrix.identity(d, exact=True)
    else:
        dev = np.linalg.eigvalsh(total.a.astype(float) - np.eye(d))
        is_identity = np.max(np.abs(dev)) <= ISO_TOL
    if not is_identity:
        raise ValueError("matrices do not sum to the identity")
    eps = max(float(m.a.astype(float).trace()) for m in mats)
    return float((1.0 + math.sqrt(eps)) ** 2)


def signing_vectors(g: Graph, exact: bool = True) -> list:
    """Per edge (a,b): e_a + e_b or e_a - e_b with probability 1/2 each, as
    a list of (probability, vector) pairs, exact or float.

    Their outer-product sum is A_s + dI for d-regular graphs, and the
    covariances sum to d times the identity.
    """
    dtype, half = (object, Fraction(1, 2)) if exact else (float, 0.5)
    out = []
    for a, b in g.edges:
        plus = np.zeros(g.n, dtype=dtype)
        plus[a] = plus[b] = 1
        minus = plus.copy()
        minus[b] = -1
        out.append([(half, plus), (half, minus)])
    return out
