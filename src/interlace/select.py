"""Greedy selection by conditional expected characteristic polynomials.

Given independent finitely supported random vectors ``r_1..r_m``, the
expected characteristic polynomial of ``sum r_i r_i^T`` has the property
that its largest root is always attained or beaten by some actual
outcome: at every level of the outcome tree the children's conditional
expected polynomials share a common interlacing, so some child's largest
root is at most their average's, the parent's.  Every walk here fixes
one vector at a time and minimizes a top root, and one rule decides each
of its levels: :func:`_keep`, which states it, keeps the first child in
index order whose top root is at most its parent's, exact walks by exact
root counts and float walks by float roots.  At a level whose children
are equal by a symmetry each child is the parent, so such a level
yields the parent alone, and the rule keeps it, rooting nothing.  So
every walk lands on a realization no worse than the root pledge, up to
the float walks' rounding.  One loop, :func:`_walk`, runs every walk: it
applies the rule at each level a walk's level generator yields, records
the kept index and the kept child, counts the levels that fall back,
and reads the walk's :class:`SelectionCertificate` off it by
:func:`_certificate`:
the pledge, the per-level trace, the last kept child, which an exact
walk checks equal to chi of what it realized, and that realized matrix.
Each walk below keeps only its level generator and its read-back into
the problem's units.

Weaver's walk (:func:`_weaver_walk`) has two routes to the same
polynomials.  Outcome enumeration costs 2^r outcomes for a polynomial
with r two-point vectors still random.  For independent rank-one random
vectors each conditional polynomial is also a mixed characteristic
polynomial, which the exterior-power engine of :mod:`interlace.mixedchar`
computes at a cost linear in the number of vectors but exponential in
the dimension, each level forming both children from one parent table.  The
walk takes the route :func:`_walk_costs` estimates cheaper, and the
whole walk's estimate is checked against its budget before the first
step.

Three instantiations, each a level generator and a read-back:

* ``restricted_invertibility_select``: pick k of m isotropic vectors with
  lambda_k of the chosen Gram sum at least ``(1 - sqrt(k/n))^2 * n/m``.
  The i.i.d. uniform sampling model admits the closed form
  ``(1 - (1/m) d/dx)^(k-l) char_poly(fixed sum)`` for the conditional
  polynomials, from bordered Gram matrices, a batch of candidates at a
  time in index order as :func:`_keep` reads them: float ones in root
  space, exact ones in integer coefficients.  lambda_k of V^T V is minus
  the top root of the degree-k cofactor of chi(-V V^T), so the walk runs
  on the negated Gram and reads its results back once certified,
  negated and reflected.
* ``weaver_partition``: split an isotropic system into two halves, each
  of spectral norm at most ``(1 + sqrt(2 alpha))^2 / 2`` with alpha the
  largest squared norm, by :func:`_weaver_walk` over two-point block
  lifts in dimension 2d, whose first level, vector 0's, the block swap
  decides.
* ``signing_select``: choose edge signs of a d-regular graph so the
  signed adjacency matrix has largest eigenvalue at most the largest
  root of the matching polynomial (whence at most ``2 sqrt(d-1)``).
  Its conditional polynomials are exact and closed-form, every level's
  read off one backward matching DP (:class:`SigningEngine`), so it
  enumerates no outcomes; on its bipartite graphs Phi_F(x) = x^e
  q_F(x^2), and it walks q_F, at half the degree.
  Its spanning-forest levels are decided by symmetry, each yielding its
  parent alone, and :func:`_keep` decides the others, the -1 child,
  formed only when +1 misses, by exact root counts like every exact
  child.  Its last polynomial is checked equal to chi(B_s B_s^T),
  B_s the signed biadjacency, and the read-back takes square roots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .poly import Polynomial, TopRoot, float_top_root, _squarefree, \
    root_clusters, roots_above, shift_chain, EIG_START_POLES
from .matrices import SymMatrix, _cleared, _coerce_array, _refuse_nonfinite, _vieta, \
    char_poly, charpoly_batch_exact
from .mixedchar import BudgetExceededError, TableArithmetic, _enumerated_char, _pair_traces, \
    _sandwiches
from .graphs import DEFAULT_BUDGET, Graph, SigningEngine, frontier_order, signed_gram
from .tolerances import CERT_TOL, ISO_TOL

__all__ = [
    "VectorSystem",
    "SelectionCertificate",
    "WALK_BUDGET",
    "restricted_invertibility_select",
    "restricted_invertibility_bound",
    "weaver_partition",
    "weaver_bound",
    "signing_select",
]

# The default cap on weaver's walk's work, in _walk_costs' unit.
WALK_BUDGET = 1 << 30

# The most rows restricted_invertibility_select scores at once.  A level
# nearly always keeps a row of its first batch.  Up to EIG_START_POLES
# poles every shift starts from a per-row eigvalsh, and a chain call has
# a large fixed part: on an ri bench pass, 8 rows cost 1.5-2.2 times one
# row (quartiles).  So there batches hold RI_BATCH rows; with 2-row first
# batches that pass, where 38% of the kept rows sit at free index 2 or
# more, ran ~1.04x slower.  Past that cut each row pays ~npoles^2 a solver
# pass, so a level starts with 2 rows and doubles up to RI_BATCH: float
# n = 256, k = 128 then scores 404 rows instead of 1040 (numpy on a
# 2-vCPU x86 host).
RI_BATCH = 8


class VectorSystem:
    """A finite list of vectors in R^n, stored as the rows of an (m, n) array.

    Float components must be finite: ValueError names the first that is
    not, before any arithmetic on the rows.
    """

    __slots__ = ("vectors", "_gram")

    def __init__(self, vectors):
        arr = np.asarray(vectors)
        if arr.ndim != 2:
            arr = np.array([np.asarray(v) for v in vectors])
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError("need a nonempty list of equal-length, nonempty vectors")
        self.vectors = _coerce_array(arr)
        _refuse_nonfinite(self.vectors, "vector component")
        self.vectors.setflags(write=False)
        self._gram = None

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def is_exact(self) -> bool:
        return self.vectors.dtype == object

    def gram_sum(self) -> SymMatrix:
        """sum_i v_i v_i^T, the one Gram sum: exact for exact vectors, and
        summed in row order by ``einsum`` for float ones, where an overflow
        raises ValueError, with no RuntimeWarning.  Formed on the first call
        and shared by later ones; its entries are read-only.  Exact vectors
        are cleared to one denominator q, so the products are of Python
        ints and one division by q^2 ends it."""
        if self._gram is not None:
            return self._gram
        if self.is_exact:
            q, ints = _cleared(self.vectors.ravel().tolist())
            v = np.array(ints, dtype=object).reshape(self.vectors.shape)
            self._gram = SymMatrix(v.T @ v / Fraction(q * q))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                g = np.einsum("mi,mj->ij", self.vectors, self.vectors)
            if not np.isfinite(g).all():
                raise ValueError("the Gram sum of the vectors overflows")
            self._gram = SymMatrix(g)
        return self._gram

    def isotropy_defect(self) -> float:
        """Spectral-norm distance of the Gram sum from the identity, inf
        when an exact Gram sum has an entry past the floats."""
        try:
            g = self.gram_sum().a.astype(float)
        except OverflowError:
            return math.inf
        return float(np.max(np.abs(np.linalg.eigvalsh(g - np.eye(self.dim)))))

    def is_isotropic(self, tol: float = ISO_TOL) -> bool:
        """Whether the Gram sum is I: exactly for exact vectors, and for
        float ones within ``tol`` in spectral norm."""
        if self.is_exact:
            return self.gram_sum() == SymMatrix.identity(self.dim, exact=True)
        return self.isotropy_defect() <= tol

    def max_norm_sq(self) -> float:
        v = self.vectors.astype(float)
        return float(np.max(np.sum(v * v, axis=1)))


@dataclass
class SelectionCertificate:
    """The audit trail of one greedy walk, read off the one walk loop,
    :func:`_walk`, by :func:`_certificate`.

    Every walk minimizes a top root.  ``choices`` is the index the walk
    kept at each level, ``pledged`` the top root of the root expected
    polynomial, ``levels`` the top root of the child :func:`_keep` kept
    after each fixing, ``realized`` the matrix the walk
    realized (a Gram sum for weaver, the k x k Gram V V^T of the k chosen
    rows for ri, whose Gram sum V^T V has the same nonzero spectrum, and
    B_s B_s^T for signings), ``final_poly`` its characteristic polynomial
    and ``achieved`` its top eigenvalue; the keep rule makes achieved <=
    pledged, and ``valid`` records that check.  On exact walks
    ``final_poly`` is the last kept child up to a positive factor,
    ``achieved`` is ``levels[-1]``, and ``valid`` is decided by
    :func:`_meets` against the pledge; on float walks ``achieved`` comes
    from ``eigvalsh`` and ``valid`` allows ``CERT_TOL``.  ``fallbacks``
    counts the float levels at which :func:`_keep` fell back, as the loop
    counts them; ``scored``, the children
    :func:`restricted_invertibility_select` formed per level in its
    batches, stays empty for other walks.

    Each walk reads its results back into the problem's units once the
    loop has certified it.  ri walks -V V^T: its ``pledged``, ``levels``
    and ``achieved`` are negated back to lambda_k values, so achieved >=
    pledged, its ``final_poly`` is reflected back to chi(V V^T), and
    ``realized`` is V V^T (:func:`restricted_invertibility_select`).  A
    signing walk's ``realized`` and ``final_poly`` are in y = x^2
    (:func:`signing_select`), its ``levels``, ``pledged`` and ``achieved``
    in adjacency units, the square roots of their y roots.  Weaver's
    ``choices`` and ``levels`` start with vector 0's, 0 and the pledge,
    a level the block swap decides (:func:`_weaver_walk`).
    """

    choices: list
    final_poly: Polynomial
    achieved: float
    pledged: float
    valid: bool
    levels: list = field(default_factory=list)
    scored: list = field(default_factory=list)
    fallbacks: int = 0
    realized: SymMatrix | None = None


def _meets(child: Polynomial, parent: Polynomial, bracket: TopRoot) -> bool:
    """Whether the top root of ``child`` is at most the parent's, by exact
    root counts: the one level rule of exact walks.

    Both are real-rooted, which is not checked.  ``bracket`` is the top
    cluster of ``root_clusters(parent)``, so its top root r is in (lo,
    hi].  A root of ``child`` above hi puts its top root above r, and none
    above lo puts it below; otherwise both are in (lo, hi].  Then (lo,
    hi] is halved by a count of each until the two part or it holds one
    distinct root of child x parent (:func:`_squarefree`), which both then
    are.  A tie meets, so the rule always ends.  A child proportional to
    the parent has the parent's roots, so no count parts the two, and it
    meets, at once when the cluster holds one distinct root.
    """
    lo, hi = bracket.lo, bracket.hi
    if roots_above(child, hi):
        return False
    if not roots_above(child, lo):
        return True
    distinct = _squarefree(child * parent)
    while roots_above(distinct, lo) - roots_above(distinct, hi) > 1:
        mid = (lo + hi) / 2
        above = roots_above(child, mid) > 0
        if above != (roots_above(parent, mid) > 0):
            return not above
        lo, hi = (mid, hi) if above else (lo, mid)
    return True


def _keep(children, parent):
    """The keep rule, which decides every level of every walk, called by
    the one walk loop, :func:`_walk`, alone: (index, new parent,
    fell_back) of the first child, in index order, that meets its
    parent, its top root at most the parent's.  A level's children
    average to the parent and share a common interlacing, so one meets,
    and the kept child is the next level's parent.  ``children`` is read
    only up to the kept one, so a walk may form and root them as they are
    read.

    Exact walks pass polynomials and ``parent`` as a (polynomial,
    cluster) pair, the cluster of :func:`_top_cluster`, and the kept child
    comes back as one.  A child equal to the parent meets, and the parent
    pair itself is kept, nothing rooted: this decides every exact level
    whose children are equal by a symmetry, which yields the parent alone
    (``lift``'s forest edges, exact weaver's vector 0).  :func:`_meets`
    decides the others by exact root counts, a tie meeting, only the kept
    one is rooted, and :class:`AssertionError` is raised if none meets.
    Float walks pass float top roots: the first child at most the
    parent's is kept, the parent's own root too (float weaver's vector
    0), and if rounding leaves none the lowest one, ties to the lowest
    index, with fell_back set.
    """
    if isinstance(parent, tuple):
        poly, cluster = parent
        for j, child in enumerate(children):
            if child == poly:
                return j, parent, False
            if _meets(child, poly, cluster):
                return j, (child, _top_cluster(child)), False
        raise AssertionError("no child meets its parent")
    vals = []
    for j, val in enumerate(children):
        if val <= parent:
            return j, val, False
        vals.append(val)
    j = int(np.argmin(vals))
    return j, vals[j], True


def _walk(pledge, levels, choices: list, kept: list, realize) -> SelectionCertificate:
    """The one walk loop: :func:`_keep` decides each level that ``levels``
    yields, and :func:`_certificate` reads the walk once they end.

    ``pledge`` is the root expected polynomial's float top root, or the
    exact polynomial itself, rooted here at its top cluster.  It goes
    first into ``kept``.  A level is an iterable of its children in index
    order, which the rule reads only up to the kept one, so a walk forms
    them as they are read.  A level decided by symmetry, whose children
    are equal, yields the parent alone, float top root or polynomial,
    which the rule keeps, forming and rooting nothing.  Each level's
    kept index goes into ``choices`` and its kept child into ``kept``
    (float top roots, or (polynomial, cluster) pairs on exact walks)
    before the next level is asked for, so ``kept[-1]`` is always the
    parent, and ``levels`` may read both lists to form the next level;
    ri's also turns each kept index, a position among its free rows, into
    the row's own index.  ``realize()``, called once the levels end,
    gives the matrix the walk realized, and the float levels at which the
    rule fell back are counted in the certificate's ``fallbacks``.
    """
    kept.append((pledge, _top_cluster(pledge)) if isinstance(pledge, Polynomial) else pledge)
    fallbacks = 0
    for children in levels:
        keep, parent, fell_back = _keep(children, kept[-1])
        fallbacks += fell_back
        choices.append(keep)
        kept.append(parent)
    return _certificate(choices, kept, realize(), fallbacks)


def _certificate(choices: list, kept: list, realized: SymMatrix,
                 fallbacks: int) -> SelectionCertificate:
    """The certificate of a walk (:func:`_walk`), from its kept parents,
    the pledge first and the last kept child last, and the Gram matrix it
    realized (-V V^T of the chosen rows for ri, whose walk drops the
    factor x^(n-k), and B_s B_s^T for signings, whose walk is in y).

    An exact walk's parents are (polynomial, cluster) pairs, the
    clusters it rooted on the way: chi of ``realized`` must be the last
    kept child up to a positive factor (:class:`AssertionError` if not),
    the clusters' roots are ``pledged``, ``levels`` and ``achieved``, so
    no root is taken here, and :func:`_meets` decides ``valid``.  A float
    walk's parents are float top roots, and one ``eigvalsh`` of
    ``realized`` gives ``final_poly`` (by Vieta, the eigenvalues
    multiplied out in descending order) and ``achieved``, its top
    eigenvalue, valid within ``CERT_TOL`` of the pledge; ``fallbacks`` is
    the loop's count of its levels that fell back.
    """
    pledge, last = kept[0], kept[-1]
    if not realized.is_exact:
        w = np.linalg.eigvalsh(realized.a)
        achieved = float(w[-1])
        return SelectionCertificate(choices, Polynomial(_vieta(w[None, ::-1])[0]), achieved,
                                    pledge, achieved <= pledge + CERT_TOL, kept[1:],
                                    fallbacks=fallbacks, realized=realized)
    final = char_poly(realized)
    if final.monic() != last[0].monic() or final.leading() * last[0].leading() <= 0:
        raise AssertionError("chi of what the walk realized is not its last kept polynomial")
    return SelectionCertificate(choices, final, float(last[1].root), float(pledge[1].root),
                                _meets(final, *pledge), [p[1].root for p in kept[1:]],
                                realized=realized)


def _walk_costs(dim: int, levels: int) -> dict:
    """Estimated work of :func:`_weaver_walk` by each route, in entries,
    for one fixed vector in R^dim and ``levels`` two-point levels.

    ``"enumerate"`` builds and expands one dim x dim matrix per outcome of
    every polynomial, dim^2 entries each: 2^r outcomes for the pledge and,
    at level l, two children of 2^(r-l-1) each, 3 2^r - 2 in all.
    ``"engine"`` counts 2r + 1 leg products (:func:`_engine_route`): one
    per level to fold its lift into the parent table, one for the fixed
    vector's kept side, and one per level that forms both children; the
    fold of the fixed vector's own lift into the unit table is not
    counted.  It counts each as C(2 dim, dim) entries, the lifted tables'
    size, though the pair tables hold C(dim, dim/2)^2 of them, 2.3 times
    fewer at dim 6 and 3.2 at dim 12.  Per estimated entry (float, 20
    vectors in R^6, dim = 12, on a 2-vCPU x86 host) the engine takes
    0.0043 us and enumeration 0.066 us, so near the crossover the smaller
    estimate can pick enumeration where the engine would be faster.  That
    does not hold one dimension up: on 12 vectors in R^7 (dim = 14, float)
    the estimate picks enumeration, 0.11 s and 44 MB peak, and the engine,
    forced, takes 9.7-10.4 s and 973 MB, about 85 times as long.  So the
    per-entry times differ by dimension, and a re-pricing must be made
    per dimension.
    Exact engine walks take 2.2-2.8 times as long per entry as float ones
    in R^3 (12-27 vectors, int64 tables), 14 times in R^4 (16, Python
    ints).
    """
    return {"enumerate": (3 * 2 ** levels - 2) * dim * dim,
            "engine": (2 * levels + 1) * math.comb(2 * dim, dim)}


def _weaver_walk(first: np.ndarray, rest, budget: int = WALK_BUDGET) -> SelectionCertificate:
    """The greedy walk of :func:`weaver_partition`, minimizing lambda_1.

    (first, 0) is fixed, and each vector v of ``rest`` is lifted to the
    two-point random vector [(1/2, (v, 0)), (1/2, (0, v))] in R^2d; level
    l + 1 fixes one point of the lift of ``rest[l]``.  Level 0 is
    ``first``'s, decided by the block swap (:func:`weaver_partition`): its
    one child is the pledge, float top root or polynomial, which the rule
    keeps, so ``choices`` starts with 0 and ``levels`` with the pledge.
    The walk is exact when ``first`` is (an object array), and then so is
    ``rest``.
    The route's pledge and levels go to :func:`_walk`, whose rule reads
    each level's two children in order: an exact walk hands it their
    polynomials, and only the kept child is rooted (:func:`_top_cluster`);
    a float walk roots each child as the rule reads it, by
    :func:`float_top_root`, Laguerre's method from above, which raises
    :class:`NotRealRootedError` on a breakdown.  So the second child
    stays unformed and unrooted when the first meets (the routes form
    each child as it is read, from the kept indices the loop has
    recorded).  The two children's lambda_1 straddle the parent's, so the
    first that meets is the best.  The walk realizes the Gram sum of
    (first, 0) and the points kept from level 1 on.

    The conditional polynomials come from one of two routes, outcome
    enumeration (:func:`_enumeration_route`) or the exterior-power engine
    (:func:`_engine_route`); the walk takes the one :func:`_walk_costs`
    estimates cheaper, the engine on a tie.  Both give the same
    polynomials, exact for exact rows.  ``budget`` caps that route's
    estimate for the whole walk; it is checked before the first step,
    and :class:`BudgetExceededError` is raised if over.
    """
    exact, zero = first.dtype == object, np.zeros(len(first), dtype=first.dtype)
    half, fixed = Fraction(1, 2) if exact else 0.5, np.concatenate([first, zero])
    rows = [[(half, np.concatenate([v, zero])), (half, np.concatenate([zero, v]))]
            for v in rest]
    costs = _walk_costs(len(fixed), len(rows))
    route = "engine" if costs["engine"] <= costs["enumerate"] else "enumerate"
    if costs[route] > budget:
        raise BudgetExceededError(
            f"the walk's {route} route costs {costs[route]} entries, over the "
            f"budget of {budget}")
    choices = []
    walk = _engine_route if route == "engine" else _enumeration_route
    steps = walk(fixed, rows, exact, choices)
    p = next(steps)
    if not exact:
        p, steps = float_top_root(p), (map(float_top_root, children) for children in steps)
    return _walk(p, itertools.chain([(p,)], steps), choices, [], lambda: VectorSystem(
        [fixed] + [row[j][1] for row, j in zip(rows, choices[1:])]).gram_sum())


def _top_cluster(p: Polynomial) -> TopRoot:
    """The top :func:`root_clusters` cluster of exact ``p``, real-rooted by
    theorem and not checked."""
    return next(root_clusters(p))


def _enumeration_route(fixed: np.ndarray, rows: list, exact: bool, choices: list):
    """Yields the pledge, then each level's children, resuming once the
    walk has appended the kept index to ``choices``.  A level's children
    come as a ``map`` over arguments bound when it is made, so each is
    formed only when :func:`_keep` reads it.

    Every polynomial is the average of char_poly over its outcomes.
    """
    base = np.zeros((len(fixed),) * 2, dtype=fixed.dtype) + np.outer(fixed, fixed)
    # _weaver_walk has checked the whole walk's cost against its budget
    yield _enumerated_char(base, rows, exact)
    for lvl, row in enumerate(rows):
        outers = [np.outer(v, v) for _, v in row]
        yield map(_enumerated_char, [base + o for o in outers], [rows[lvl + 1:]] * 2,
                  [exact] * 2)
        base = base + outers[choices[-1]]


def _engine_route(fixed: np.ndarray, rows: list, exact: bool, choices: list):
    """Yields the pledge and each level's children, as :func:`_enumeration_route` does.

    With the fixed vector (u, 0) and the independent rows r_l of
    covariances A_l, the conditional polynomial E char_poly((u, 0)(u, 0)^T
    + sum r_l r_l^T) is the mixed characteristic polynomial of the lifted
    family, computed by the exterior-power engine of
    :mod:`interlace.mixedchar` on its pair tables Phi (:func:`_pair_plan`):
    Phi[(j, S, S'), (i, R, R')] = W_(j+i)[S + R, S' + R'], S, S' in the
    top block and R, R' in the bottom one, which holds every entry that
    is not zero.  The block swap sigma is Phi -> Phi^T.  A lift, points a
    = (v, 0) and b = (0, v) of weight w = 1/2, folds into the tables T of
    the rest as T + w (S_a + S_b)(T), S_x(W) = L(x) W L(x)^T, and S_b(Phi)
    = S_a(Phi^T)^T (:func:`_sandwiches` forms w S_a).  The walk starts
    from the unit table, W_0 = 1 alone, which sigma leaves alone, and
    each lift, u's first, folds in by Y + Y^T, Y = w S_a(Phi), which
    keeps it so.  The tables of every lift are the pledge: u's two
    children are each other's sigma image, so their polynomials are
    equal, and they average to it.  S_x S_x = 0 and S_a
    S_b = S_b S_a, so a lift's children T + S_a(T), T + S_b(T) are Phi +-
    D, D = w (S_a - S_b)(Phi).  u's child (u, 0) is Phi + Y - Y^T.  At a
    level, D comes from one :func:`_sandwiches` call on [Phi, Phi^T]; the
    children's traces are tr Phi +- tr D, and the kept child is the next
    Phi, whose traces are read from it again, not carried.  A walk on m
    rows makes 2m + 2 leg products, and holds a few tables at a time.
    """
    d = len(fixed) // 2
    half = Fraction(1, 2) if exact else 0.5
    every = [(1, fixed), (half, np.roll(fixed, d))] + [t for row in rows for p, v in row
                                                       for t in ((p, v), (1, v))]
    arith = TableArithmetic(2 * d, every, exact)
    (w0,), u = arith.encode([(half, fixed)])
    size = math.comb(2 * d, d)
    phi = np.zeros((size, size), dtype=arith.dtype)
    phi[0, 0] = 1
    terms = [arith.encode(row[:1]) for row in rows]
    for (w,), a in [((w0,), u)] + terms:
        y = _sandwiches(phi, w, a[0, :d])
        phi = phi + y + y.T
    yield arith.from_traces(_pair_traces(phi, d))
    y = _sandwiches(phi, w0, u[0, :d])
    phi = phi + y - y.T
    for (w,), a in terms:
        z = _sandwiches(np.hstack([phi, phi.T]), w, a[0, :d])
        diff = z[:, :size] - z[:, size:].T
        base, step = _pair_traces(phi, d), _pair_traces(diff, d)
        yield map(arith.from_traces, [[t + s * x for t, x in zip(base, step)] for s in (1, -1)])
        phi = (np.subtract if choices[-1] else np.add)(phi, diff)


# ----------------------------------------------------------------------
# Restricted invertibility
# ----------------------------------------------------------------------


def restricted_invertibility_bound(n: int, m: int, k: int) -> float:
    """The pledge ``(1 - sqrt(k/n))^2 * n / m``."""
    return float((1.0 - math.sqrt(k / n)) ** 2 * n / m)


def restricted_invertibility_select(system: VectorSystem, k: int,
                                    tol: float = ISO_TOL):
    """Choose k of m isotropic vectors with a large k-th Gram eigenvalue.

    The sampling model is k i.i.d. draws uniform over the m columns; the
    conditional expected polynomial after fixing l vectors summing to B
    is exactly ``(1 - (1/m) d/dx)^(k-l) char_poly(B)``.  A candidate v_j
    at level l is scored by the k-th largest root of its child
    ``(1 - (1/m) d/dx)^(k-l-1) char_poly(B + v_j v_j^T)``.  The parent is
    the average of its m children, which have a common interlacing, so
    some child's score is at least its parent's.

    With S the l chosen rows, ``char_poly(S^T S + v_j v_j^T) =
    x^(n-l-1) det(x - G_j)`` where G_j is the (l+1) x (l+1) Gram matrix
    of S and v_j (:func:`_bordered_gram`), so every polynomial of the walk
    is x^(n-k) times a cofactor of degree k, whose roots are its top k,
    all >= 0, and whose smallest root is lambda_k.  The walk runs on the
    negated Gram -G_j, where every walk minimizes a top root: negating
    reflects the cofactor, x -> -x, and turns ``1 - (1/m) d/dx`` into
    ``1 + (1/m) d/dx``, so lambda_k is minus the top root of the reflected
    cofactor, and the walk minimizes -lambda_k.  :func:`_ri_levels`
    yields the pledge first, which this walk takes by ``next`` and hands
    to :func:`_walk`, and then at level l the children of the
    not-yet-chosen rows, in index order, which the loop's rule
    :func:`_keep` decides (the parent is the pledge at level 0, then the
    previous level's kept child).  :func:`_ri_level` forms them a batch
    at a time, a batch only once the rule reads past the one before, so
    a walk costs about one batch per level, not m candidates; a float
    level that falls back has scored every free row.  Every kept score
    stays at or above the pledge up to those fallbacks.  Batches hold
    ``RI_BATCH`` rows while a level's float shifts start from eigenvalues
    (k <= ``EIG_START_POLES``); past that a level's batches hold 2, 4,
    then ``RI_BATCH`` rows, exact walks alike.

    Skipping the chosen rows loses no child that could meet the parent:
    a repeated row's B + v_j v_j^T has rank l, so after k - l - 1 shifts
    its child has at most k - 1 nonzero roots and a k-th largest root of
    0, below the positive parent.  The walk raises
    :class:`AssertionError` unless every kept score is positive, which
    is what that argument needs, before the next level forms.

    Float stacks G_j take one batched ``eigvalsh``, and one
    :func:`shift_chain` call applies the k - l - 1 factors ``1 - (1/m)
    d/dx`` in root space; a score is minus the smallest of the k roots it
    tracks (:func:`_ri_scores`).  The float pledge, lambda_k of ``(1 -
    (1/m) d/dx)^k x^n = (1 - (1/m) d/dx)^(k-1) x^(n-1) (x - n/m)``, has
    the shape of a level-0 child, so it rides in level 0's first batch as
    one more row ``[n/m]``, in the same :func:`shift_chain` call, and is
    never offered to the rule.  Exact children are the reflected cofactors
    themselves, formed in integer coefficients from one kernel call on
    the stack -q^2 G_j (:func:`_ri_children`, :func:`_ri_shifted`), and
    the exact pledge is ``(m + d/dx)^k x^n`` less its x^(n-k); each is
    rooted at its top cluster alone.  Both arithmetics certify on -V V^T,
    V the chosen rows, whose chi is the reflection of chi(V V^T), x^(n-k)
    less than that of their Gram sum V^T V: an exact walk checks it equal
    to its last kept child, and a float walk takes ``achieved`` and
    ``final_poly`` from its ``eigvalsh``.  Once certified, ``pledged``,
    ``levels`` and ``achieved`` are negated back to lambda_k values,
    ``final_poly`` is reflected back to chi(V V^T), and ``realized`` is
    V V^T.

    ``tol`` is the isotropy tolerance of float systems
    (:meth:`VectorSystem.is_isotropic`).  Returns (chosen index list,
    certificate).
    """
    if not system.is_isotropic(tol):
        raise ValueError(
            f"system is not isotropic (defect {system.isotropy_defect():.3g})")
    m, n = system.vectors.shape
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    chosen, kept, scored = [], [], []
    levels = _ri_levels(system, k, chosen, kept, scored)
    cert = _walk(next(levels), levels, chosen, kept,
                 lambda: SymMatrix(-VectorSystem(system.vectors[chosen].T).gram_sum().a))
    cert.pledged, cert.achieved = -cert.pledged, -cert.achieved
    cert.levels = [-level for level in cert.levels]
    cert.final_poly, cert.realized = _reflected(cert.final_poly), SymMatrix(-cert.realized.a)
    cert.scored = scored
    return chosen, cert


def _ri_levels(system: VectorSystem, k: int, chosen: list, kept: list, scored: list):
    """The pledge, then the levels of :func:`restricted_invertibility_select`,
    for :func:`_walk`.  The exact pledge is ``(m + d/dx)^k x^n`` less its
    x^(n-k); the float one leads level 0's children, shifted with their
    first batch (:func:`_ri_level`), and is taken from them before the
    level is yielded.  Level l yields the children of the free rows in
    index order, rows cleared to one denominator q for an exact walk, as
    ``gram_sum`` does.  Once the level's child is kept, its score is
    checked positive, :class:`AssertionError` if not, and the kept index,
    a position among the free rows, is turned into the row's own index in
    ``chosen``, the walk's choices."""
    (m, n), vecs, q = system.vectors.shape, system.vectors, None
    if system.is_exact:
        q, ints = _cleared(vecs.ravel().tolist())
        vecs = np.array(ints, dtype=object).reshape(vecs.shape)
        yield _ri_shifted([1], n, m, k)
    free = list(range(m))
    for _ in range(k):
        scored.append(0)
        pledge = q is None and not chosen
        children = _ri_level(vecs, q, chosen, free, k, scored, pledge)
        if pledge:
            yield next(children)
        yield children
        level = kept[-1] if q is None else kept[-1][1].root
        if not level < 0:
            raise AssertionError(f"kept score {-level} is not positive")
        chosen[-1] = free.pop(chosen[-1])


def _ri_level(vecs: np.ndarray, q, chosen: list, free: list, k: int, scored: list, pledge: bool):
    """Yields the children of rows ``free`` in index order, a batch at a
    time as :func:`_keep` reads them, adding each batch's rows to
    ``scored[-1]``: exact polynomials (:func:`_ri_children`) of rows
    cleared to the denominator ``q``, or float scores (:func:`_ri_scores`)
    if ``q`` is None, led, with ``pledge``, by the pledge shifted in the
    first batch."""
    size, start = (RI_BATCH if k <= EIG_START_POLES else 2), 0
    while start < len(free):
        rows = free[start:start + size]
        batch = (_ri_scores(vecs, chosen, rows, k, pledge).tolist() if q is None
                 else _ri_children(vecs, q, chosen, rows, k))
        if pledge:
            pledge = False
            yield batch.pop()
        scored[-1] += len(rows)
        yield from batch
        start, size = start + size, min(2 * size, RI_BATCH)


def _bordered_gram(vecs: np.ndarray, chosen: list, cand: list) -> np.ndarray:
    """The (len(cand), l+1, l+1) stack G_j of the Gram matrices of the l
    rows ``chosen``, S, bordered by each row v_j of ``cand``: S S^T formed
    once, the cross terms S v_j and the squared norms |v_j|^2.  Float rows
    take the norms by ``einsum``; exact rows, integers cleared to one
    denominator, stay Python ints."""
    lvl = len(chosen)
    s, v = vecs[chosen], vecs[cand]
    cross = v @ s.T
    gram = np.empty((len(cand), lvl + 1, lvl + 1), dtype=vecs.dtype)
    gram[:, :lvl, :lvl] = s @ s.T
    gram[:, :lvl, lvl] = cross
    gram[:, lvl, :lvl] = cross
    gram[:, lvl, lvl] = (v * v).sum(axis=1) if vecs.dtype == object \
        else np.einsum("ij,ij->i", v, v)
    return gram


def _ri_scores(vecs: np.ndarray, chosen: list, cand: list, k: int,
               pledge: bool = False) -> np.ndarray:
    """The float level scores of rows ``cand``, minus the lambda_k of their
    children, from the spectra of their bordered Gram stack.  With
    ``pledge``, at level 0 only, the row ``[n/m]`` is shifted along and
    the pledge returned as the last score.
    """
    m, n = vecs.shape
    lvl = len(chosen)
    roots = np.linalg.eigvalsh(_bordered_gram(vecs, chosen, cand))
    if pledge:
        roots = np.concatenate([roots, [[n / m]]])
    roots, _ = shift_chain(roots, n - lvl - 1, 1.0 / m, k - lvl - 1)
    return -np.min(roots, axis=1)


def _ri_children(ints: np.ndarray, q: int, chosen: list, cand: list,
                 k: int) -> list[Polynomial]:
    """The exact children of rows ``cand`` cleared to the denominator q,
    ``(m + d/dx)^(k-l-1) x^(n-l-1) chi(-G_j)`` times q^(2(l+1)), each less
    its factor x^(n-k) (:func:`_ri_shifted`), so of degree k: their
    negated bordered Gram stack -q^2 G_j (:func:`_bordered_gram`) takes
    one :func:`charpoly_batch_exact` call, and the coefficient of x^i of
    chi(-q^2 G_j), times q^(2i), is that of q^(2(l+1)) chi(-G_j)."""
    m, n = ints.shape
    lvl = len(chosen)
    chis = charpoly_batch_exact(-_bordered_gram(ints, chosen, cand)).tolist()
    return [_ri_shifted([c * q ** (2 * i) for i, c in enumerate(chi)], n - lvl - 1, m,
                        k - lvl - 1) for chi in chis]


def _ri_shifted(co: list, zeros: int, m: int, steps: int) -> Polynomial:
    """h with ``(m + d/dx)^steps (x^zeros g) = x^(zeros - steps) h``, g the
    integer coefficients ``co``, lowest first, and steps <= zeros: a step
    takes x^z g to x^(z-1) (m x g + z g + x g'), so h_i = m g_(i-1) + (z +
    i) g_i, and z falls by one.  Every polynomial of an exact ri walk is
    x^(n-k) times such an h of degree k, the reflection of the cofactor
    that ``(m - d/dx)^steps`` makes of x^zeros times the reflection of g."""
    for z in range(zeros, zeros - steps, -1):
        co = [m * c + (z + i) * d for i, (c, d) in enumerate(zip([0] + co, co + [0]))]
    return Polynomial(co)


def _reflected(p: Polynomial) -> Polynomial:
    """(-1)^deg p p(-x): the roots of ``p`` negated, its leading coefficient kept."""
    d = p.degree
    return Polynomial([-c if (d - i) % 2 else c for i, c in enumerate(p.coeffs)])


# ----------------------------------------------------------------------
# Weaver partitions
# ----------------------------------------------------------------------


def weaver_partition(system: VectorSystem, budget: int = WALK_BUDGET, tol: float = ISO_TOL):
    """Partition an isotropic system into halves of small spectral norm.

    Each vector v is lifted to the two-point random vector taking values
    (v, 0) and (0, v) in R^{2d} with probability 1/2 each; a greedy walk
    minimizing lambda_1 of the lifted Gram sum assigns every vector to a
    side.  The realized maximum of the two block norms is at most
    :func:`weaver_bound` of alpha = max ||v_i||^2, which the walk never
    reads.  Swapping the two blocks maps every lift onto itself with its
    two values exchanged, so it maps vector 0's two children onto each
    other: their polynomials are equal, and each is the pledge.  So the
    walk's first level, vector 0's, yields the pledge alone, which
    :func:`_keep` keeps: the walk fixes (v_0, 0), its certificate's
    ``choices[0]`` is 0 and ``levels[0]`` the pledge, and vector 0 is
    always on side one.
    ``budget`` is :func:`_weaver_walk`'s cap on the whole walk's work, in
    :func:`_walk_costs`' unit, and ``tol`` the isotropy tolerance of float
    systems (:meth:`VectorSystem.is_isotropic`).  Returns (side-one
    indices, side-two indices, certificate).
    """
    if not system.is_isotropic(tol):
        raise ValueError(
            f"system is not isotropic (defect {system.isotropy_defect():.3g})")
    first, *rest = system.vectors
    cert = _weaver_walk(first, rest, budget)
    s1 = [i for i, choice in enumerate(cert.choices) if choice == 0]
    s2 = [i for i, choice in enumerate(cert.choices) if choice == 1]
    return s1, s2, cert


def weaver_bound(alpha) -> float:
    """The half-square bound (1 + sqrt(2 alpha))^2 / 2."""
    return float((1.0 + math.sqrt(2.0 * float(alpha))) ** 2 / 2.0)


# ----------------------------------------------------------------------
# Adjacency signings
# ----------------------------------------------------------------------


def signing_select(g: Graph, budget: int = DEFAULT_BUDGET):
    """Pick edge signs minimizing the top eigenvalue of the signed adjacency.

    Walks the edges with the vertices relabelled in
    :func:`frontier_order`, in the relabelled graph's sorted edge order,
    which keeps the engine's leaf groups small whatever the input's
    vertex numbering.  With the first edges' signs fixed, the expected
    characteristic polynomial of a uniformly random signing is the exact
    integer polynomial Phi_F, and on a bipartite g (ValueError for any
    other) Phi_F(x) = x^e q_F(x^2): the walk takes q_F from one
    :class:`SigningEngine`, its backward DP run once, and as y = x^2
    increases on the nonnegative top roots, each level decides as on
    Phi_F.  Level 0, nothing fixed, is q of the matching polynomial
    mu_G, whose top root is the pledge.
    An edge that joins two components of the edges before it
    (:meth:`Graph.forest_edges`) forms no child: switching every vertex
    on one side of it flips its sign and no fixed sign, and maps the
    uniform signs of the rest onto themselves, so its two children are
    equal (Bilu-Linial) and each is the parent.  So its level yields the
    parent alone, which :func:`_keep` keeps: +1, and the parent with its
    top root, nothing formed or rooted.  At every other level the
    +1 child is formed and, only if it does not meet, the -1 child,
    2 parent - plus exactly (:func:`_signing_children`), and
    :func:`_keep` decides between them, +1 first, as it decides every
    exact level: the children straddle the parent's top root, so exact
    counts at the ends of the parent's bracket nearly always decide, the
    -1 child's too, which is not assumed to meet by theorem, and the kept
    child alone is rooted (a top root in a bracket certified by exact
    root counts).  Every Phi_F is real-rooted and the children interlace
    by theorem; the tests, not this walk, check it.  The kept child is
    the next level's parent, and its largest root never exceeds its
    parent's, so the final signing's top eigenvalue is at most the
    pledge.  The last kept child, every sign fixed, is q of chi(A_s)
    whatever the labels, which is chi of the n/2 x n/2 Gram B_s B_s^T on
    g's own labels (:func:`signed_gram`): :func:`_certificate` checks
    the two equal exactly (:class:`AssertionError` if not).
    Returns (signs, certificate).  ``signs`` is a signing of g, a +-1 per
    edge of ``g.edges`` in order (see :mod:`interlace.graphs`), each
    walk sign put back at its edge's position in ``g.edges``.  The
    certificate's roots are adjacency values, its ``realized`` B_s B_s^T
    and its ``final_poly`` chi(B_s B_s^T) in y, its ``valid`` decided in y
    against q of mu_G, and ``choices`` is 0 for +1 and 1 for -1, in walk
    order.
    ``budget`` bounds the walk's work, as :class:`SigningEngine` counts
    it: the states of its backward DP plus, at every level the walk
    forms, groups x p^2 entries of the p x p Gram leaves.  The DP counts
    it as its tables grow and raises :class:`BudgetExceededError` as
    soon as it passes ``budget``, before the first choice.
    """
    if g.regularity() is None:
        raise ValueError("graph is not regular")
    if g.m == 0:
        raise ValueError("graph has no edges")
    label = {v: i for i, v in enumerate(frontier_order(g))}
    relabelled = [tuple(sorted((label[a], label[b]))) for a, b in g.edges]
    walk = Graph(g.n, relabelled)
    engine = SigningEngine(walk, budget)
    at = {e: j for j, e in enumerate(walk.edges)}
    choices, kept = [], []

    def g_signs():
        return [(1, -1)[choices[at[e]]] for e in relabelled]

    levels = ((kept[-1][0],) if joins else _signing_children(engine, choices, kept[-1][0])
              for joins in walk.forest_edges())
    cert = _walk(engine.chars([]), levels, choices, kept, lambda: signed_gram(g, g_signs()))
    cert.levels = [math.sqrt(level) for level in cert.levels]
    cert.pledged, cert.achieved = math.sqrt(cert.pledged), math.sqrt(cert.achieved)
    return g_signs(), cert


def _signing_children(engine: SigningEngine, choices: list, parent: Polynomial):
    """The children of a signing level whose edge closes a cycle, +1 then
    -1, as :func:`_keep` reads them, the signs before it fixed by
    ``choices``, 0 for +1 and 1 for -1: the +1 child is the engine's q_F,
    and the -1 child, ``2 parent - plus`` exactly, is formed only if +1
    does not meet."""
    plus = engine.chars([(1, -1)[c] for c in choices] + [1])
    yield plus
    yield 2 * parent - plus
