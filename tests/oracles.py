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
* the frontier order by set differences taken inside its ``min`` key,
  every start walked to the end (:func:`set_frontier_order`), against
  the library's counts kept per vertex, with starts dropped early;
* the same polynomial off the library's DP tables with full-size
  leaves by Berkowitz's recurrence in Python ints
  (:func:`full_leaf_chars`), against the library's Gram leaves on a
  bipartite graph, and against the forward DP on any graph;
* the polynomial of a signing in y = x^2 read off its full-degree
  chi(A_s) = x^e q(x^2) (:func:`squared_roots`), against the library's
  chi of the half-size Gram B_s B_s^T (``graphs.signed_gram``), the
  signing walk's ``final_poly``;
* a signing walk's work in the unit of ``lift --budget``, summed over
  an engine's finished tables (:func:`walk_entries`), against the
  library's count as its DP grows;
* the signing walk on any regular graph, bipartite or not, on the
  forward DP's Phi_F, keeping the first child whose top root
  :func:`compare_top_roots` puts at or below its parent's
  (:func:`oracle_signing_walk`), against the library's walk, which takes
  bipartite graphs only;
* ``shift_chain``'s solver with fresh arrays every step, its rows
  compacted as they finish and every pass's update formed for every
  entry (:func:`reference_shift_chain`, :func:`reference_secular_step`),
  against the library's chain, which keeps its buffers per chain and
  forms an update only while an entry is live, bit for bit;
* common interlacing as real-rootedness of convex combinations
  (:func:`convex_combinations_real_rooted`), against the library's
  root-interval criterion;
* exact characteristic polynomials by Berkowitz's division-free
  recurrence (:func:`berkowitz_charpoly`), against the library's power
  traces and Newton's identities;
* the exact order of two top roots, by stripping their common factors
  and halving both brackets (:func:`compare_top_roots`), against the
  library's level rule ``select._meets``;
* weaver's engine route with the lift's algebra left unused
  (:func:`fold_peel_route`): the parent table built by folding both
  points of every lift, and each level's row peeled off it grade by
  grade (:func:`peel_terms`), one einsum sandwich per term and grade,
  against the library's pair tables, built by leg products and their
  transposes, each level from one leg product on [Phi, Phi^T].

It also holds the fixtures several test modules share: the cube graph
(:data:`CUBE`) and a graph relabelled as the signing walk takes it
(:func:`in_walk_order`).

A random vector here is a plain list of (probability, vector) pairs, a
row, as weaver's walk takes its lifts.
"""

import functools
import itertools
import math
import types
from fractions import Fraction

import numpy as np

from interlace import DEFAULT_BUDGET, Graph, Polynomial, SymMatrix, char_poly, \
    float_top_root, mixed_char, signed_adjacency
from interlace.graphs import LEAF_ENTRIES, frontier_order
from interlace.matrices import _coerce_array, charpoly_batch_exact
from interlace.mixedchar import BudgetExceededError, TableArithmetic
from interlace.select import _ri_scores, _top_cluster
from interlace.poly import EIG_START_POLES, TopRoot, _count_above, _integer_coeffs, \
    _pole_masks, _primitive, _pseudo_divmod, shift_chain
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
    ``select._top_cluster`` for exact polynomials and ``float_top_root``
    for float ones: this checks the walk's route to its polynomials and
    its choices, and the kernels are checked against 50-digit references
    in the tests of ``interlace.poly``.
    """
    rows, fixed, exact = _arrays(rows, fixed)
    rows, fixed, scale = _integral(rows, fixed)
    base = _base(rows, fixed)

    def top(p):
        return _top_cluster(p).root if exact else float_top_root(p)

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

    Float rows take the float walk's own kernel, whose scores are minus
    lambda_k, negated back.  Exact rows' children
    are formed in coefficients, (1 - D/m)^(k-l-1) char_poly(B + v v^T)
    with B the chosen rows' Gram sum, each checked real-rooted by a
    Sturm sequence and rooted by ``root_clusters``.
    """
    if not system.is_exact:
        return -_ri_scores(system.vectors, chosen, list(range(system.m)), k)
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


def full_leaves(g: Graph, tables, signs) -> np.ndarray:
    """Level f's full-size leaves, f = len(signs), off the DP ``tables``
    of :func:`interlace.graphs._matching_tables`: for each leaf group, the
    |V(F)| x |V(F)| A_F over the sorted V(F) with the group's vertices
    zeroed, a (groups, |V(F)|, |V(F)|) stack of Python ints."""
    masks = tables[len(signs)][0]
    fixed = g.edges[:len(signs)]
    verts = sorted({v for e in fixed for v in e})
    pos = {v: i for i, v in enumerate(verts)}
    nf = len(verts)
    signed = np.zeros((nf, nf), dtype=object)
    for s, (a, b) in zip(signs, fixed):
        signed[pos[a], pos[b]] = signed[pos[b], pos[a]] = int(s)
    keep = np.array([[not (mask >> v) & 1 for v in verts] for mask in masks.tolist()],
                    dtype=object).reshape(len(masks), nf)
    return signed * (keep[:, :, None] * keep[:, None, :])


def full_leaf_chars(g: Graph, tables, signs) -> Polynomial:
    """Phi_F off the DP ``tables`` of g, with every leaf the full
    |V(F)| x |V(F)| masked A_F (:func:`full_leaves`) and its
    characteristic polynomial by :func:`berkowitz_charpoly`, on any
    graph: for checking the library's Gram leaves on a bipartite one and
    its tables on any other, without the library's kernel."""
    leaves = full_leaves(g, tables, signs)
    nf = leaves.shape[1]
    total = [0] * (g.n + 1)
    for chi, row in zip(berkowitz_charpoly(leaves).tolist(), tables[len(signs)][1].tolist()):
        for k, w in enumerate(row):
            # times x^(n - nf) / x^(2k)
            for j, c in enumerate(chi):
                if w and c:
                    total[j + g.n - nf - 2 * k] += int(w) * c
    return Polynomial(total)


def squared_roots(chi: Polynomial) -> Polynomial:
    """q with ``chi(x) = x^e q(x^2)``, e the parity of chi's degree.

    The characteristic polynomial of a bipartite (signed) graph and every
    matching polynomial have this form, and q's roots are the squares of
    chi's roots, one per pair +-lambda.  With chi exact and real-rooted,
    ``roots_above(q, b^2)`` counts the pairs with |lambda| > b exactly.
    Raises ValueError if chi has a term of the other parity.
    """
    e = chi.degree % 2
    if any(chi.coeffs[1 - e::2]):
        raise ValueError("polynomial is neither even nor odd")
    return Polynomial(chi.coeffs[e::2])


def walk_entries(engine) -> int:
    """A signing walk's work on a :class:`interlace.SigningEngine`, the
    unit of ``lift --budget``: the DP's states plus, at every level the
    walk forms, the leaf matrix entries of one row, groups x p^2, p the
    smaller colour class of V(F).  The walk forms level 0 and each level
    whose last edge closes a cycle among the edges before it
    (:meth:`Graph.forest_edges`).  Read off the engine's finished tables;
    the library counts the same sum while its DP grows."""
    g, total, verts = engine.g, 0, set()
    formed = [True] + [not joins for joins in g.forest_edges()]
    for f, (masks, _) in enumerate(engine.tables):
        p = len(engine._sides(verts)[0])
        total += len(masks) * (1 + formed[f] * p * p)
        verts.update(g.edges[f] if f < g.m else ())
    return total


def oracle_signing_walk(g: Graph):
    """The signing walk of ``interlace.signing_select`` on any regular
    graph, bipartite or not, in x: neither the library's engine nor its
    walk is called.

    The edges are taken as the library takes them, g relabelled in
    frontier order (:func:`in_walk_order`).  Each level forms both
    children by :func:`forward_signed_chars` and keeps the first, +1 then
    -1, whose top root :func:`compare_top_roots` puts at or below its
    parent's; the children average to the parent and interlace, so one
    does.  The last kept Phi_F must be chi(A_s) (AssertionError if not).
    Returns a namespace: ``signs`` in g's edge order, ``choices`` (0 for
    +1, 1 for -1) and ``pairs``, each level's (plus, minus), in walk
    order, ``levels`` the kept children's top roots, ``pledged`` the
    matching polynomial's, ``achieved`` the last level's, ``final_poly``
    chi(A_s), and ``valid``, whether its top root is at most the pledge's.
    """
    walk = in_walk_order(g)
    parent = pledge = forward_signed_chars(walk, [[]])[0]
    signs, choices, pairs, levels = [], [], [], []
    for _ in walk.edges:
        pair = forward_signed_chars(walk, [signs + [1], signs + [-1]])
        keep = next(j for j, child in enumerate(pair) if compare_top_roots(child, parent) <= 0)
        parent = pair[keep]
        signs.append(1 - 2 * keep)
        choices.append(keep)
        pairs.append(tuple(pair))
        levels.append(top_root(parent).root)
    if char_poly(signed_adjacency(walk, signs)) != parent:
        raise AssertionError("chi(A_s) is not the walk's last polynomial")
    label = {v: i for i, v in enumerate(frontier_order(g))}
    at = {e: j for j, e in enumerate(walk.edges)}
    g_signs = [signs[at[tuple(sorted((label[a], label[b])))]] for a, b in g.edges]
    return types.SimpleNamespace(
        signs=g_signs, choices=choices, pairs=pairs, levels=levels,
        pledged=top_root(pledge).root, achieved=levels[-1], final_poly=parent,
        valid=compare_top_roots(parent, pledge) <= 0)


def set_frontier_order(g: Graph) -> list[int]:
    """:func:`interlace.graphs.frontier_order`'s rule by sets: from each
    start, the next vertex is the frontier vertex with the fewest
    neighbours neither placed nor on the frontier (ties: most placed
    neighbours, then lowest label), or, with the frontier empty, the
    unplaced vertex by the same key; the order with the least sum over
    proper prefixes of 2^|frontier| wins, ties to the lowest start."""
    adj = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    best = None
    for start in range(g.n):
        order, placed, front, cost = [start], {start}, set(adj[start]), 0
        while len(order) < g.n:
            cost += 1 << len(front)
            pool = front or set(range(g.n)) - placed
            v = min(pool, key=lambda u: (len(adj[u] - placed - front),
                                         -len(adj[u] & placed), u))
            order.append(v)
            placed.add(v)
            front = (front | adj[v]) - placed
        if best is None or cost < best[0]:
            best = (cost, order)
    return best[1] if best else []


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
    for the library's level rule, ``select._meets``.
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


# ----------------------------------------------------------------------
# Weaver's engine route by folds and peels
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _grade_index(n: int) -> tuple:
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


def _sandwich(gathered, coef, sub):
    """L_k(u) W L_k(u)^T, from ``gathered`` = W[sub] and ``coef``, the
    nonzeros of L_k(u) row by row, u[elem] sign."""
    left = np.einsum("ip,ipj->ij", coef, gathered)  # L_k(u) W
    return np.einsum("ijq,jq->ij", left[:, sub], coef)  # ... L_k(u)^T


def einsum_fold(tables: list, weights, vecs) -> list:
    """``mixedchar.fold_terms`` grade by grade, one einsum sandwich per
    term: W_k gains sum_j w_j L_k(u_j) W_(k-1) L_k(u_j)^T, every term
    read from the old W_(k-1)."""
    index = _grade_index(len(tables) - 1)
    out = [tables[0]]
    for k in range(1, len(tables)):
        elem, sub, sign = index[k]
        gathered = tables[k - 1][sub]
        acc = tables[k]
        for w, u in zip(weights, vecs):
            acc = acc + w * _sandwich(gathered, u[elem] * sign, sub)
        out.append(acc)
    return out


def peel_terms(tables: list, weights, vecs) -> tuple:
    """The tables without one variable, the matrix sum_j w_j u_j u_j^T.

    The inverse of a fold.  A fold adds to W_k terms read from W_(k-1)
    alone, so it is unipotent and one ascending pass undoes it: T_0 = W_0
    and, for k = 1..n, X_jk = L_k(u_j) T_(k-1) L_k(u_j)^T and T_k = W_k -
    sum_j w_j X_jk.  Returns (T, X): the tables T without the variable,
    and per term j its parts X[j] = [0, X_j1, .., X_jn], so that T + c
    X[j], grade by grade, is the fold of [c] and [u_j] into T.  The
    dtypes are kept.
    """
    index = _grade_index(len(tables) - 1)
    peeled = [tables[0]]
    parts = [[np.zeros_like(tables[0])] for _ in weights]
    for k in range(1, len(tables)):
        elem, sub, sign = index[k]
        gathered = peeled[k - 1][sub]
        acc = tables[k]
        for w, u, part in zip(weights, vecs, parts):
            part.append(_sandwich(gathered, u[elem] * sign, sub))
            acc = acc - w * part[-1]
        peeled.append(acc)
    return peeled, parts


def fold_peel_route(fixed: np.ndarray, rows: list, exact: bool, choices: list):
    """Yields the pledge and each level's children, as
    ``select._engine_route`` does on the same lifted ``rows``, by 4m + 1
    einsum passes: the fixed vector and both points of every row folded
    into one parent table (:func:`einsum_fold`), then at each level the
    row peeled off the parent (:func:`peel_terms`), which leaves the
    table T of everything else and, for each point v, the part X with
    which v v^T folds in; that child is T + X, and the kept child is the
    next parent.  The table arithmetic is the library's
    :class:`TableArithmetic`, so exact polynomials compare equal.
    """
    every = [(1, fixed)] + [t for row in rows for p, v in row for t in ((p, v), (1, v))]
    arith = TableArithmetic(len(fixed), every, exact)
    parent = einsum_fold(arith.empty(), *arith.encode([(1, fixed)]))
    for row in rows:
        parent = einsum_fold(parent, *arith.encode(row))
    yield arith.poly(parent)
    for row in rows:
        peeled, parts = peel_terms(parent, *arith.encode(row))
        units, _ = arith.encode([(1, v) for _, v in row])
        base = arith.traces(peeled)
        yield [arith.from_traces([t + w * x for t, x in zip(base, arith.traces(part))])
               for w, part in zip(units, parts)]
        parent = [t + units[choices[-1]] * x for t, x in zip(peeled, parts[choices[-1]])]


def reference_shift_chain(roots, zeros: int, c: float, steps: int):
    """``shift_chain(roots, zeros, c, steps)`` for c > 0 and steps >= 1, one
    :func:`reference_secular_step` per factor on freshly built poles."""
    roots = np.asarray(roots, dtype=float)
    nrows = roots.shape[0]
    every_row = np.arange(nrows)[:, None]
    for step in range(steps):
        d = roots.shape[1]
        npoles = d + (zeros > 0)
        if npoles == 0:
            return np.empty((nrows, 0)), 0
        mu, w = roots, np.ones((nrows, npoles))
        if zeros:
            mu = np.concatenate([roots, np.zeros((nrows, 1))], axis=1)
            w[:, -1] = zeros
        if step == 0 or (zeros and not (roots[:, -1] >= 0).all()):
            order = np.argsort(-mu, axis=1, kind="stable")
            mu, w = mu[every_row, order], w[every_row, order]
        roots = reference_secular_step(mu, w, c, (d + zeros) * c)
        zeros = max(zeros - 1, 0)
    return roots, zeros


def reference_secular_step(mu, w, c: float, top_width: float) -> np.ndarray:
    """The roots of sum_j w_j / (x - mu_j) = 1/c for poles ``mu`` (rows
    sorted descending), by the library's start, update and stop, with
    every pass forming the update for every entry."""
    nrows, npoles = mu.shape
    inv_c = 1.0 / c
    eps = np.finfo(float).eps
    lo = mu
    hi = np.empty_like(mu)
    hi[:, 0] = mu[:, 0] + top_width
    hi[:, 1:] = mu[:, :-1]
    idx = np.arange(npoles)
    masks = _pole_masks(npoles)
    x = 0.5 * (lo + hi)
    x[:, 0] = hi[:, 0]
    active = (x > lo) & ((x < hi) | (idx == 0))
    x = np.where(active, x, lo)
    down, up = lo.copy(), hi.copy()
    out = x.copy()
    rows = np.arange(nrows)
    scratch = np.empty((2, rows.size, npoles, npoles))
    if npoles <= EIG_START_POLES:
        mat = scratch[0]
        s = np.sqrt(w)
        np.multiply(c * s[:, :, None], s[:, None, :], out=mat)
        mat.reshape(rows.size, -1)[:, ::npoles + 1] += mu
        ev = np.linalg.eigvalsh(mat)[:, ::-1]
        x = np.where(active & (ev > lo) & (ev < hi), ev, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            live_scratch = scratch[:, :rows.size]
            diff = np.subtract(x[:, :, None], mu[:, None, :], out=live_scratch[0])
            terms = np.divide(w[:, None, :], diff, out=live_scratch[1])
            np.divide(terms, diff, out=diff)
            (dphi, dpsi), (phi, psi) = np.einsum("sbij,tij->stbi", live_scratch, masks)
            g = phi + psi - inv_c
            bound = (npoles + 3) * eps * (phi - psi + inv_c)
            rising = g > 0
            down_next = np.where(rising, x, down)
            up_next = np.where(rising, up, x)
            dlo = x - lo
            dhi = x - hi
            dhi[:, 0] = 1.0
            big_a = dphi * dlo * dlo
            big_b = dpsi * dhi * dhi
            t = inv_c - (phi - big_a / dlo) - (psi - big_b / dhi)
            h = hi - lo
            lin = t * h + big_a + big_b
            sq = np.sqrt((t * h - big_a + big_b) ** 2 + 4.0 * big_a * big_b)
            u = np.where(lin > 0, 2.0 * big_a * h / (lin + sq),
                         (lin - sq) / (2.0 * t))
            y = lo + u
            mid = 0.5 * (down_next + up_next)
            active &= ~((np.abs(g) <= bound) | (y == x)
                        | (mid == down_next) | (mid == up_next))
            y = np.where((y > down_next) & (y < up_next), y, mid)
            x = np.where(active, y, x)
            down = np.where(active, down_next, down)
            up = np.where(active, up_next, up)
            live = active.any(axis=1)
            if not live.all():
                out[rows] = x
                if not live.any():
                    break
                rows, lo, hi, mu, w = rows[live], lo[live], hi[live], mu[live], w[live]
                x, down, up, active = x[live], down[live], up[live], active[live]
    return out
