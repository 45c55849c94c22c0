"""Slow, independent references for the mixed-characteristic engine.

The library computes every mixed characteristic polynomial, and every
conditional polynomial of a greedy walk, with the exterior-power engine in
``interlace.mixedchar``.  The references here compute the same things
other ways:

* the truncated multi-affine ring (z_i^2 = 0) and a memoized minor
  expansion of det(xI + sum z_i A_i) in it, then inclusion-exclusion over
  variable subsets (:func:`ring_mixed_char`);
* conditional expected polynomials by enumerating every outcome of the
  remaining random vectors, each outcome's characteristic polynomial by
  Berkowitz's recurrence on Python ints, float input taken at its exact
  value and the sum rounded once (:func:`conditional_expected_poly`),
  against the library's enumeration by power traces or eigenvalues;
* the greedy walk with enumerated children (:func:`enumeration_walk`);
* the restricted-invertibility walk that scores every row at every
  level and keeps the best (:func:`argmax_ri_walk`), against the
  library's walk that keeps the first row meeting its parent, with the
  pledge by k shifts of x^n (:func:`ri_pledge`) in place of one folded
  into level 0;
* the expected characteristic polynomial of a partial signing by a
  forward dict DP over the random edges and n x n leaf matrices, one DP
  per call (:func:`forward_signed_chars`), against the library's one
  backward DP per walk with leaves on the fixed edges' vertices;
* common interlacing as real-rootedness of convex combinations
  (:func:`convex_combinations_real_rooted`), against the library's
  root-interval criterion;
* exact characteristic polynomials by Berkowitz's division-free
  recurrence (:func:`berkowitz_charpoly`), against the library's power
  traces and Newton's identities;
* the exact order of two top roots, by stripping their common factors
  and halving both brackets (:func:`compare_top_roots`), against the
  library's level rule ``select._meets`` at k = 1.

It also holds the fixtures several test modules share: the cube graph
(:data:`CUBE`) and a graph relabelled as the signing walk takes it
(:func:`in_walk_order`).

A random vector here is a plain list of (probability, vector) pairs, a
row, as weaver's walk takes its lifts.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from interlace import DEFAULT_BUDGET, Graph, Polynomial, SymMatrix, char_poly, \
    float_top_root, mixed_char
from interlace.graphs import LEAF_ENTRIES, frontier_order
from interlace.matrices import _coerce_array, charpoly_batch_exact
from interlace.mixedchar import BudgetExceededError
from interlace.select import _kth_cluster, _ri_scores
from interlace.poly import TopRoot, _count_above, _integer_coeffs, _primitive, \
    _pseudo_divmod, shift_chain
from fixtures import allclose, psd_list
from paper import apply_shift_operator, covariance, exact_real_roots, is_real_rooted, \
    top_root


# The 3-cube Q_3: K_{4,4} minus a perfect matching.
CUBE = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])


def in_walk_order(g: Graph) -> Graph:
    """``g`` relabelled in frontier order, as the signing walk takes it."""
    label = {v: i for i, v in enumerate(frontier_order(g))}
    return Graph(g.n, [(label[a], label[b]) for a, b in g.edges])


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
        return self.terms.get(frozenset(s), Polynomial(()))

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
                terms[frozenset({i})] = terms.get(frozenset({i}), Polynomial(())) \
                    + Polynomial([val])
        return TruncatedMultiAffine(terms)

    cache = {}

    def minor(cols: frozenset) -> TruncatedMultiAffine:
        if not cols:
            return TruncatedMultiAffine.constant(Polynomial((1,)))
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
    mats = psd_list(matrices)
    exact = all(mat.is_exact for mat in mats)
    acc = Polynomial(())
    for s, c_s in det_truncated(mats, exact).terms.items():
        acc = acc + c_s if len(s) % 2 == 0 else acc - c_s
    return acc


def convex_combinations_real_rooted(polys) -> bool:
    """Whether t p + (1 - t) q is real-rooted for every pair of ``polys``
    and t = 0, 1/10, ..., 1.

    For real-rooted polynomials of one degree whose leading coefficients
    share a sign, every convex combination is real-rooted exactly when
    the family has a common interlacer (Dedieu; Chudnovsky-Seymour);
    the eleven points are a computable sample of "every".
    """
    polys = list(polys)
    exact = all(p.is_exact for p in polys)
    ts = [Fraction(i, 10) if exact else i / 10 for i in range(11)]
    return all(is_real_rooted(t * p + (1 - t) * q)
               for i, p in enumerate(polys) for q in polys[i + 1:] for t in ts)


def _arrays(rows, fixed):
    """(rows, fixed, exact) with every vector an array: exact (object)
    unless a probability or a component is a float, float otherwise."""
    rows = [[(p, _coerce_array(v)) for p, v in row] for row in rows]
    fixed = [_coerce_array(v) for v in fixed]
    exact = all(v.dtype == object for v in fixed) and all(
        not isinstance(p, float) and v.dtype == object for row in rows for p, v in row)
    dtype = object if exact else float
    return ([[(p, v.astype(dtype)) for p, v in row] for row in rows],
            [v.astype(dtype) for v in fixed], exact)


def _integral(rows, fixed):
    """(rows, fixed, scale): every vector times ``scale``, the least common
    denominator of all their components, as an object array of Python
    ints, and every probability a Fraction.  Each float is taken at its
    exact value."""
    rows = [[(Fraction(p), [Fraction(x) for x in v]) for p, v in row] for row in rows]
    fixed = [[Fraction(x) for x in v] for v in fixed]
    vecs = fixed + [v for row in rows for _, v in row]
    scale = math.lcm(*(x.denominator for v in vecs for x in v))

    def ints(v):
        return np.array([x.numerator * (scale // x.denominator) for x in v], dtype=object)

    return [[(p, ints(v)) for p, v in row] for row in rows], [ints(v) for v in fixed], scale


def _base(rows, fixed) -> np.ndarray:
    dim = len(fixed[0]) if fixed else len(rows[0][0][1])
    acc = np.zeros((dim, dim), dtype=object)
    for v in fixed:
        acc = acc + np.outer(v, v)
    return acc


def _enumerate(base: np.ndarray, rows, budget: int, scale: int, exact: bool) -> Polynomial:
    """E chi(base + sum r_i r_i^T) / scale^2 over every outcome of the
    independent ``rows``, integral as :func:`_integral` makes them: the
    outcomes by ``itertools.product``, each weighted by the product of its
    probabilities, and their chi by :func:`berkowitz_charpoly` on one
    stack of Python ints.  The sum is exact; unless ``exact``, its
    coefficients are rounded to float at the end, and nothing before.
    Refused with :class:`BudgetExceededError` when the outcomes outnumber
    ``budget``."""
    total = math.prod(len(row) for row in rows)
    if total > budget:
        raise BudgetExceededError(f"{total} outcomes exceed the budget of {budget}")
    outcomes = list(itertools.product(*rows))
    d = base.shape[0]
    probs = [math.prod(p for p, _ in o) for o in outcomes]
    den = math.lcm(*(p.denominator for p in probs))
    weights = np.array([p.numerator * (den // p.denominator) for p in probs], dtype=object)
    vecs = np.array([[v for _, v in o] for o in outcomes], dtype=object).reshape(total, len(rows), d)
    sums = weights @ berkowitz_charpoly(base + np.matmul(vecs.transpose(0, 2, 1), vecs))
    # chi(s^2 A) has x^k coefficient s^(2(d - k)) times that of chi(A)
    coeffs = [Fraction(c, den * scale ** (2 * (d - k))) for k, c in enumerate(sums)]
    return Polynomial(coeffs if exact else [float(c) for c in coeffs])


def conditional_expected_poly(rows, fixed=(), budget: int = DEFAULT_BUDGET,
                              cross_check: bool = False) -> Polynomial:
    """E over the random ``rows`` of char_poly(sum fixed + sum rows).

    Enumerates every outcome tuple, exact in exact mode.  With
    ``cross_check`` the result is compared with the engine's mixed
    characteristic polynomial of the fixed rank-one matrices and the
    covariances; a disagreement raises RuntimeError.
    """
    rows, fixed, exact = _arrays(rows, fixed)
    irows, ifixed, scale = _integral(rows, fixed)
    out = _enumerate(_base(irows, ifixed), irows, budget, scale, exact)
    if cross_check:
        mats = [SymMatrix(np.outer(v, v)) for v in fixed] + [covariance(r) for r in rows]
        alt = mixed_char(mats)
        agree = out == alt if (out.is_exact and alt.is_exact) \
            else allclose(out, alt)
        if not agree:
            raise RuntimeError("enumeration and engine disagree")
    return out


def enumeration_walk(rows, fixed=(), budget: int = DEFAULT_BUDGET):
    """The greedy walk minimizing lambda_1 with every child enumerated:
    (choices, levels, pledged).

    Every level keeps its best child, ties going to the lowest index.
    Weaver's walk keeps the first child that meets its parent, exact or
    float, which on two-point rows is the same child.  The polynomials
    come from this module's own exact enumeration, rounded to float for
    float rows, and their roots from that walk's kernels,
    ``select._kth_cluster`` for exact polynomials and ``float_top_root``
    for float ones: this checks the walk's route to its polynomials and
    its choices, and the kernels are checked against 50-digit references
    in the tests of ``interlace.poly``.
    """
    rows, fixed, exact = _arrays(rows, fixed)
    rows, fixed, scale = _integral(rows, fixed)
    base = _base(rows, fixed)

    def top(p):
        return _kth_cluster(p, 1).root if exact else float_top_root(p)

    pledged = top(_enumerate(base, rows, budget, scale, exact))
    choices, levels = [], []
    for lvl, row in enumerate(rows):
        vals = [top(_enumerate(base + np.outer(v, v), rows[lvl + 1:], budget, scale, exact))
                for _, v in row]
        best = vals.index(min(vals))
        base = base + np.outer(row[best][1], row[best][1])
        choices.append(best)
        levels.append(vals[best])
    return choices, levels, pledged


def ri_pledge(n: int, m: int, k: int) -> float:
    """lambda_k of (1 - D/m)^k x^n, by k one-step shifts of x^n in root space."""
    roots, zeros = np.empty((1, 0)), n
    for _ in range(k):
        roots, zeros = shift_chain(roots, zeros, 1.0 / m, 1)
    return float(roots[0, -1])


def ri_level_scores(system, chosen: list, k: int) -> np.ndarray:
    """Every row's score at the level after ``chosen``, chosen rows included.

    Float rows take the float walk's own kernel.  Exact rows' children
    are formed in coefficients, (1 - D/m)^(k-l-1) char_poly(B + v v^T)
    with B the chosen rows' Gram sum, each checked real-rooted by a
    Sturm sequence and rooted by ``root_clusters``.
    """
    if not system.is_exact:
        return _ri_scores(system.vectors, chosen, list(range(system.m)), k)
    vecs = system.vectors
    m, n = vecs.shape
    base = sum((np.outer(vecs[j], vecs[j]) for j in chosen), np.zeros((n, n), dtype=object))
    scores = []
    for v in vecs:
        child = char_poly(SymMatrix(base + np.outer(v, v)))
        for _ in range(k - len(chosen) - 1):
            child = apply_shift_operator(child, Fraction(1, m))
        scores.append(exact_real_roots(child)[k - 1])
    return np.array(scores)


def argmax_ri_walk(system, k: int):
    """The ri walk that scores all m rows at every level and keeps the best,
    ties going to the lowest index: (chosen, levels, pledged).

    A chosen row scores 0 (its child has rank below k), so with a
    positive pledge the best row is never a repeat.
    """
    chosen, levels = [], []
    for _ in range(k):
        vals = ri_level_scores(system, chosen, k)
        best = int(np.argmax(vals))
        chosen.append(best)
        levels.append(float(vals[best]))
    return chosen, levels, ri_pledge(system.dim, system.m, k)


def forward_signed_chars(g: Graph, prefixes,
                         budget: int = DEFAULT_BUDGET) -> list[Polynomial]:
    """``E_R det(xI - A_s)`` for each row of fixed signs, as exact integer polynomials.

    Each row of ``prefixes`` signs the first f edges of ``g.edges`` (the
    set F); the other edges R get independent uniform signs.  Expanding
    the determinant over permutations, a random sign survives the
    expectation only on a transposition, so

        Phi_F = sum over matchings M of R of (-1)^|M| chi(A_F[V - V(M)]),

    the generalised Godsil-Gutman identity Phi_F(G) = Phi_F(G - e) -
    Phi_F(G - a - b) for e = (a, b) in R unrolled; with F empty it is the
    matching polynomial.  A dict DP over the R edges counts the matchings
    by state (matched vertices that still matter, |M|): a vertex outside
    V(F) leaves the state after its last R edge, so only the matched
    vertices of V(F) remain at the end.  The leaves are grouped by
    S = V(M) & V(F): chi(A_F[V - V(M)]) is chi of A_F with the rows and
    columns of S zeroed, divided by x^(2|M|), and the stacks of those
    matrices, for every row, go through :func:`charpoly_batch_exact`
    about ``LEAF_ENTRIES`` matrix entries at a time.  All rows share the
    DP, since it depends on F only through V(F).

    The DP's states, summed over its steps, are counted against
    ``budget``; :class:`BudgetExceededError` is raised as soon as the
    count passes it.
    """
    prefixes = np.array(prefixes, dtype=np.int64, ndmin=2)
    rows, f = prefixes.shape
    n = g.n
    if f > g.m:
        raise ValueError(f"{f} signs given for {g.m} edges")
    if not np.isin(prefixes, (-1, 1)).all():
        raise ValueError("signs must be +1 or -1")
    fixed, rest = g.edges[:f], g.edges[f:]
    in_f = 0
    for a, b in fixed:
        in_f |= 1 << a | 1 << b
    last = {}
    for t, (a, b) in enumerate(rest):
        last[a] = last[b] = t
    states = {(0, 0): 1}
    seen = 1
    for t, (a, b) in enumerate(rest):
        pair = 1 << a | 1 << b
        # a vertex outside V(F) leaves the key after its last R edge
        keep = ~sum(1 << v for v in (a, b) if last[v] == t and not in_f >> v & 1)
        nxt: dict = {}
        for (mask, k), c in states.items():
            key = (mask & keep, k)
            nxt[key] = nxt.get(key, 0) + c
            if not mask & pair:
                key = ((mask | pair) & keep, k + 1)
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
        seen += len(states)
        if seen > budget:
            raise BudgetExceededError(
                f"signing DP passed {budget} states with {len(rest) - t - 1} "
                f"of {len(rest)} random edges left")
    groups = {}
    for mask, _ in states:
        groups.setdefault(mask, len(groups))
    half = n // 2
    weights = np.zeros((len(groups), half + 1), dtype=object)
    for (mask, k), c in states.items():
        weights[groups[mask], k] = -c if k & 1 else c
    signed = np.zeros((rows, n, n), dtype=np.int64)
    for i, (a, b) in enumerate(fixed):
        signed[:, a, b] = signed[:, b, a] = prefixes[:, i]
    live = np.ones((len(groups), n), dtype=np.int64)
    for mask, gi in groups.items():
        live[gi, [v for v in range(n) if mask >> v & 1]] = 0
    total = np.zeros((rows, n + 1), dtype=object)
    chunk = max(1, LEAF_ENTRIES // max(1, rows * n * n))
    for lo in range(0, len(groups), chunk):
        keep = live[lo:lo + chunk]
        stack = signed[None] * (keep[:, None, :, None] * keep[:, None, None, :])
        chars = charpoly_batch_exact(stack.reshape(-1, n, n))
        chars = chars.reshape(len(keep), rows, n + 1).astype(object)
        for k in range(half + 1):
            total[:, :n + 1 - 2 * k] += np.tensordot(
                weights[lo:lo + chunk, k], chars[:, :, 2 * k:], 1)
    return [Polynomial(row.tolist()) for row in total]


def berkowitz_charpoly(mats: np.ndarray) -> np.ndarray:
    """det(xI - A) of each matrix of a (B, n, n) stack, lowest-first, in its dtype.

    Berkowitz's division-free recurrence, batched over the stack.  With
    ``v`` the characteristic polynomial of the leading i x i block A_i
    (highest degree first), the next block's is the full convolution of
    ``v`` with the Toeplitz column ``t = [1, -a, -R C, -R A_i C, ...,
    -R A_i^(i-1) C]``, truncated to length i + 2, where ``a``, ``R`` and
    ``C`` are the new diagonal entry, row and column.  Only ring
    operations occur, so an object stack of Python ints is exact.
    """
    b, n, _ = mats.shape
    v = np.ones((b, 1), dtype=mats.dtype)
    for i in range(n):
        a_i = mats[:, :i, :i]
        row = mats[:, i, :i]
        w = mats[:, :i, i]
        t = np.empty((b, i + 2), dtype=mats.dtype)
        t[:, 0] = 1
        t[:, 1] = -mats[:, i, i]
        for q in range(2, i + 2):
            if q > 2:
                w = np.matmul(a_i, w[:, :, None])[:, :, 0]
            t[:, q] = -(row * w).sum(axis=1)
        new = np.zeros((b, i + 2), dtype=mats.dtype)
        for j in range(i + 1):
            new[:, j:] += v[:, j:j + 1] * t[:, :i + 2 - j]
        v = new
    return v[:, ::-1].copy()


def _drop_common_roots(a: list[int], b: list[int]) -> list[int]:
    """``a`` divided by every factor it shares with ``b``: roots(a) minus roots(b)."""
    while True:
        g, h = a, b     # Euclid, each remainder made primitive
        while h:
            g, h = h, _pseudo_divmod(g, h)[1]
            h = _primitive(h) if h else h
        if len(g) == 1:
            return a
        a = _primitive(_pseudo_divmod(a, g)[0])


def _refine(a: list[int], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Halve a bracket (lo, hi] of the top root of ``a``."""
    mid = (lo + hi) / 2
    return (mid, hi) if _count_above(a, mid) else (lo, mid)


def compare_top_roots(p: Polynomial, q: Polynomial,
                      tp: TopRoot | None = None, tq: TopRoot | None = None) -> int:
    """The sign of top(p) - top(q), exactly, for exact real-rooted ``p`` and ``q``.

    Disjoint brackets (from ``top_root``, or passed in) decide at once.
    Otherwise top(p) > top(q) exactly when p has a root above top(q), and
    such a root is not a root of q; so with v = p stripped of every factor
    shared with q, top(p) > top(q) iff v is not constant and top(v) >
    top(q).  Those two are distinct algebraic numbers, so halving both
    brackets by exact counts separates them.  The same with p and q
    swapped; if neither holds, the top roots are equal.  A reference
    for the library's level rule, ``select._meets``, at k = 1.
    """
    tp = tp or top_root(p)
    tq = tq or top_root(q)
    if tp.hi <= tq.lo:
        return -1
    if tq.hi <= tp.lo:
        return 1
    for sign, f, g, tg in ((1, p, q, tq), (-1, q, p, tp)):
        ag = _integer_coeffs(g)
        av = _drop_common_roots(_integer_coeffs(f), ag)
        if len(av) == 1:
            continue
        tv = top_root(Polynomial(av))
        vlo, vhi, glo, ghi = tv.lo, tv.hi, tg.lo, tg.hi
        while vlo < ghi and glo < vhi:
            vlo, vhi = _refine(av, vlo, vhi)
            glo, ghi = _refine(ag, glo, ghi)
        if vlo >= ghi:
            return sign
    return 0
