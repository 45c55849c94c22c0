"""Greedy selection by conditional expected characteristic polynomials.

Given independent finitely supported random vectors ``r_1..r_m``, the
expected characteristic polynomial of ``sum r_i r_i^T`` has the property
that its k-th largest root is always attained or beaten by some actual
outcome: at every level of the outcome tree the children's conditional
expected polynomials share a common interlacing, so the best child is at
least as good as their average.  Walking the tree greedily - fix one
vector at a time, always choosing the support element whose conditional
expected polynomial has the best lambda_k - therefore lands on a
realization no worse than the root pledge.  Each walk returns a
:class:`SelectionCertificate` recording the pledge, the per-level trace,
and the achieved value, with the invariant checked numerically.

:func:`greedy_walk` has two routes to the same polynomials.  Outcome
enumeration costs the product of the support sizes per polynomial.  For
independent rank-one random vectors each conditional polynomial is also
a mixed characteristic polynomial, which the exterior-power engine of
:mod:`interlace.mixedchar` computes at a cost linear in the number of
vectors but exponential in the dimension, with tail tables shared by
every level.  Each walk takes the route :func:`walk_costs` estimates
cheaper, and the whole walk's estimate is checked against its budget
before the first step.

Three instantiations:

* ``restricted_invertibility_select``: pick k of m isotropic vectors with
  lambda_k of the chosen Gram sum at least ``(1 - sqrt(k/n))^2 * n/m``.
  The i.i.d. uniform sampling model admits the closed form
  ``(1 - (1/m) d/dx)^(k-l) char_poly(fixed sum)`` for the conditional
  polynomials, evaluated in root space: bordered Gram spectra (float or
  exact), then :func:`shift_roots`.
* ``weaver_partition``: split an isotropic system into two halves, each
  of spectral norm at most ``(1 + sqrt(2 alpha))^2 / 2``, by a
  :func:`greedy_walk` over two-point block lifts in dimension 2d.
* ``signing_select``: choose edge signs of a d-regular graph so the
  signed adjacency matrix has largest eigenvalue at most the largest
  root of the matching polynomial (whence at most ``2 sqrt(d-1)``).
  Its conditional polynomials are exact and closed-form
  (:func:`expected_signed_chars`), so it enumerates no outcomes and does
  not go through :func:`greedy_walk`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial, kth_largest_root, root_clusters, top_root, \
    compare_top_roots, shift_roots
from .matrices import SymMatrix, char_poly, charpoly_batch_exact
from .mixedchar import DiscreteRandomVector, BudgetExceededError, DEFAULT_BUDGET, \
    TableArithmetic, fold_terms, _expected_char_with_base
from .graphs import Graph, Signing, expected_signed_chars, frontier_order, \
    signed_adjacency

__all__ = [
    "VectorSystem",
    "AssignmentState",
    "SelectionCertificate",
    "WALK_BUDGET",
    "greedy_walk",
    "walk_costs",
    "restricted_invertibility_select",
    "restricted_invertibility_bound",
    "weaver_partition",
    "weaver_bound",
    "signing_select",
    "signing_vectors",
]

CERT_TOL = 1e-7
ISO_TOL = 1e-8
# The default cap on one greedy walk's work, in walk_costs' unit.
WALK_BUDGET = 1 << 30


class VectorSystem:
    """A finite list of vectors in R^n, stored as the rows of an (m, n) array."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        arr = np.asarray(vectors)
        if arr.ndim != 2:
            arr = np.array([np.asarray(v) for v in vectors])
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("need a nonempty list of equal-length vectors")
        if arr.dtype == object or np.issubdtype(arr.dtype, np.integer):
            arr = np.array(arr, dtype=object)
        else:
            arr = np.array(arr, dtype=float)
        self.vectors = arr
        self.vectors.setflags(write=False)

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
        """sum_i v_i v_i^T."""
        v = self.vectors
        if self.is_exact:
            acc = np.zeros((self.dim, self.dim), dtype=object)
            for row in v:
                acc = acc + np.outer(row, row)
            return SymMatrix(acc)
        return SymMatrix(v.T @ v)

    def isotropy_defect(self) -> float:
        """Spectral-norm distance of the Gram sum from the identity."""
        g = self.gram_sum().a.astype(float)
        return float(np.max(np.abs(np.linalg.eigvalsh(g - np.eye(self.dim)))))

    def is_isotropic(self, tol: float = ISO_TOL) -> bool:
        return self.isotropy_defect() <= tol

    def max_norm_sq(self) -> float:
        v = self.vectors.astype(float)
        return float(np.max(np.sum(v * v, axis=1)))

    @classmethod
    def random_isotropic(cls, n: int, m: int, rng) -> "VectorSystem":
        """m >= n rows whose outer products sum exactly (numerically) to I_n."""
        if m < n:
            raise ValueError("need at least n vectors for isotropy")
        g = rng.standard_normal((m, n))
        # Whiten: rows of G (G^T G)^(-1/2) have Gram sum exactly I.
        sym = g.T @ g
        w, u = np.linalg.eigh(sym)
        inv_half = u @ np.diag(1.0 / np.sqrt(w)) @ u.T
        return cls(g @ inv_half)


@dataclass
class AssignmentState:
    """A node of the outcome tree: fixed choices plus remaining randomness."""

    fixed: list
    remaining: list
    k: int
    direction: str = "maximize"

    def __post_init__(self):
        if self.direction not in ("maximize", "minimize"):
            raise ValueError("direction must be 'maximize' or 'minimize'")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        dims = {len(np.asarray(v)) for v in self.fixed} \
            | {r.dim for r in self.remaining}
        if len(dims) > 1:
            raise ValueError("fixed vectors and random vectors must share a dimension")
        if not dims:
            raise ValueError("state carries no vectors at all")
        d = dims.pop()
        if self.k > d:
            raise ValueError(f"k={self.k} exceeds the ambient dimension {d}")

    @property
    def dim(self) -> int:
        if self.fixed:
            return len(np.asarray(self.fixed[0]))
        return self.remaining[0].dim

    @property
    def is_exact(self) -> bool:
        def vec_exact(v):
            a = np.asarray(v)
            return a.dtype == object or np.issubdtype(a.dtype, np.integer)
        return all(vec_exact(v) for v in self.fixed) \
            and all(r.is_exact for r in self.remaining)


def _vector(v, exact: bool) -> np.ndarray:
    a = np.asarray(v)
    if exact:
        return a if a.dtype == object else a.astype(object)
    return a.astype(float)


@dataclass
class SelectionCertificate:
    """The audit trail of one greedy walk.

    ``pledged`` is lambda_k of the root expected polynomial, ``achieved``
    is lambda_k of the realized sum, ``levels`` the lambda_k of the
    chosen conditional polynomial after each fixing.  The walk guarantees
    achieved >= pledged (maximize) resp. <= (minimize) up to tolerance.
    """

    choices: list
    final_poly: Polynomial
    achieved: float
    pledged: float
    k: int
    direction: str
    levels: list = field(default_factory=list)

    def valid(self, tol: float = CERT_TOL) -> bool:
        if self.direction == "maximize":
            return self.achieved >= self.pledged - tol
        return self.achieved <= self.pledged + tol

    def to_json(self) -> dict:
        return {
            "choices": [int(c) for c in self.choices],
            "achieved": float(self.achieved),
            "pledged": float(self.pledged),
            "k": int(self.k),
            "direction": self.direction,
            "levels": [float(v) for v in self.levels],
            "final_poly": [float(c) for c in self.final_poly.coeffs],
            "valid": self.valid(),
        }


def _lambda_k_of_matrix(a: np.ndarray, k: int) -> float:
    w = np.linalg.eigvalsh(a.astype(float))
    return float(w[-k])


def walk_costs(dim: int, fixed: int, sizes) -> dict:
    """Estimated work of one :func:`greedy_walk` by each route, in entries.

    ``sizes`` are the support sizes of the remaining random vectors.
    ``"enumerate"`` builds and expands one dim x dim matrix per outcome of
    every polynomial, dim^2 entries each: prod(sizes) outcomes for the
    pledge and, at level l, sizes[l] children of prod(sizes[l+1:]) each.
    ``"engine"`` makes rank-one table updates of C(2 dim, dim) entries
    each: one per support point to build the tail tables, each fixed
    vector into all m + 1 of them, one per child, and each choice into
    the m - l tails left.  Both routes take about the same time per
    entry, within a factor of three (exact walks 10-20 times as long as
    float ones, on either route), so the smaller estimate picks the
    faster route except near the crossover.
    """
    m = len(sizes)
    outcomes = tail = math.prod(sizes)
    for s in sizes:
        tail //= s
        outcomes += s * tail
    updates = 2 * sum(sizes) + fixed * (m + 1) + m * (m + 1) // 2
    return {"enumerate": outcomes * dim * dim,
            "engine": updates * math.comb(2 * dim, dim)}


def greedy_walk(state: AssignmentState, budget: int = WALK_BUDGET,
                route: str = "auto") -> SelectionCertificate:
    """Walk the outcome tree, fixing the best support element at each level.

    "Best" means the largest (or smallest, per direction) k-th largest
    root of the child's conditional expected polynomial; ties go to the
    lowest support index, so runs are deterministic.

    The conditional polynomials come from one of two routes, ``"enumerate"``
    (:func:`_enumeration_route`) or ``"engine"`` (:func:`_engine_route`);
    ``"auto"`` takes the one :func:`walk_costs` estimates cheaper, the
    engine on a tie.  Both give the same polynomials, exact for exact
    states.  ``budget`` caps the chosen route's estimate for the whole
    walk; it is checked before the first step, and
    :class:`BudgetExceededError` is raised if over.
    """
    exact = state.is_exact
    d = state.dim
    k = state.k
    maximize = state.direction == "maximize"
    fixed = [_vector(v, exact) for v in state.fixed]
    costs = walk_costs(d, len(fixed), [len(r.support) for r in state.remaining])
    if route == "auto":
        route = "engine" if costs["engine"] <= costs["enumerate"] else "enumerate"
    if route not in costs:
        raise ValueError(f"unknown route {route!r}")
    if costs[route] > budget:
        raise BudgetExceededError(
            f"the walk's {route} route costs {costs[route]} entries, over the "
            f"budget of {budget}")
    choices: list[int] = []
    levels: list[float] = []

    def choose(cand_polys: list) -> int:
        cand_vals = [kth_largest_root(p, k) for p in cand_polys]
        best = 0
        for j in range(1, len(cand_vals)):
            if (cand_vals[j] > cand_vals[best]) if maximize \
                    else (cand_vals[j] < cand_vals[best]):
                best = j
        choices.append(best)
        levels.append(cand_vals[best])
        return best

    walk = _engine_route if route == "engine" else _enumeration_route
    pledged = kth_largest_root(walk(d, fixed, state.remaining, exact, choose), k)
    base = np.zeros((d, d), dtype=object if exact else float)
    for v in fixed + [_vector(r.support[j][1], exact)
                      for r, j in zip(state.remaining, choices)]:
        base = base + np.outer(v, v)
    achieved = _lambda_k_of_matrix(base, k)
    cert = SelectionCertificate(choices=choices,
                                final_poly=char_poly(SymMatrix(base)),
                                achieved=achieved, pledged=pledged,
                                k=k, direction=state.direction, levels=levels)
    return cert


def _enumeration_route(d: int, fixed: list, remaining: list, exact: bool,
                       choose) -> Polynomial:
    """The pledge; at each level, ``choose`` gets the children and returns one.

    Every polynomial is the average of char_poly over its outcomes.
    """
    base = np.zeros((d, d), dtype=object if exact else float)
    for v in fixed:
        base = base + np.outer(v, v)
    # greedy_walk has checked the whole walk's cost against its budget
    pledge = _expected_char_with_base(base, remaining, math.inf, exact)
    for lvl, rv in enumerate(remaining):
        outers = [np.outer(v, v) for v in (_vector(v, exact) for _, v in rv.support)]
        best = choose([_expected_char_with_base(base + o, remaining[lvl + 1:],
                                                math.inf, exact) for o in outers])
        base = base + outers[best]
    return pledge


def _engine_route(d: int, fixed: list, remaining: list, exact: bool,
                  choose) -> Polynomial:
    """The pledge; at each level, ``choose`` gets the children and returns one.

    With the fixed vectors u and the independent remaining r_i of
    covariances A_i, the conditional polynomial E char_poly(sum u u^T +
    sum r_i r_i^T) is the mixed characteristic polynomial mu[u u^T...,
    A_1..A_m], computed by the exterior-power engine of
    :mod:`interlace.mixedchar`.  The tables of the tails r_t.. are built
    once, backward, each r_t folded in as one variable whose terms come
    straight from its support (p v v^T), into one stack.  The fixed
    vectors are folded into the whole stack as rank-one steps, one batched
    step per vector, so at level l the table of r_(l+1).. already holds
    the vectors fixed so far, and a child is one more rank-one step: its
    candidate.  That is O(m^2) table updates in O(m) batched calls.
    """
    supports = [[(p, _vector(v, exact)) for p, v in rv.support] for rv in remaining]
    every = [(1, v) for v in fixed] + [t for s in supports for p, v in s
                                       for t in ((p, v), (1, v))]
    arith = TableArithmetic(d, every, exact)
    # tails[k][i] is W_k of r_i.., filled backward from the empty tail i = m;
    # at level l it is W_k of r_(l+i).. and the vectors fixed so far
    table = arith.empty()
    tails = [np.zeros((len(supports) + 1,) + t.shape, dtype=t.dtype) for t in table]
    for i in range(len(supports), -1, -1):
        if i < len(supports):
            table = fold_terms(table, *arith.encode(supports[i]))
        for stack, t in zip(tails, table):
            stack[i] = t
    for v in fixed:
        tails = fold_terms(tails, *arith.encode([(1, v)]))
    pledge = arith.poly([t[0] for t in tails])
    for support in supports:
        shared = [t[1] for t in tails]
        points = [arith.encode([(1, v)]) for _, v in support]
        best = choose([arith.poly(fold_terms(shared, *pt)) for pt in points])
        tails = fold_terms([t[1:] for t in tails], *points[best])
    return pledge


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
    is exactly ``(1 - (1/m) d/dx)^(k-l) char_poly(B)``.  Level l scores
    every candidate v_j by the k-th largest root of
    ``(1 - (1/m) d/dx)^(k-l-1) char_poly(B + v_j v_j^T)`` and keeps the
    best, ties going to the lowest index.

    Levels are scored in root space, the same way in both modes.  With S
    the l chosen rows, ``char_poly(S^T S + v_j v_j^T) = x^(n-l-1)
    det(x - G_j)`` where G_j is the (l+1) x (l+1) Gram matrix of S and
    v_j, so the spectra of the (m, l+1, l+1) stack give every candidate's
    roots and the zero root's multiplicity n - l - 1 comes from the rank.
    Float stacks take one batched ``eigvalsh``; exact stacks take one
    exact Berkowitz call and the :func:`root_clusters` of each small
    polynomial, real-rooted as the characteristic polynomial of a
    symmetric matrix, so no Sturm check runs.  :func:`shift_roots`
    then applies each ``1 - (1/m) d/dx``, and the k-th largest root is
    the smallest of the k roots it tracks.  A level costs O(m l^3) for
    the spectra plus O(m k^2) per shift and solver step, against m
    characteristic polynomials of size n and their roots.  The pledge,
    lambda_k of ``(1 - (1/m) d/dx)^k x^n``, is computed the same way.

    Repeated indices exist in the outcome tree but are provably never
    selected while the pledge is positive - this is asserted, not
    assumed.  Returns (chosen index list, certificate).
    """
    if not system.is_isotropic(tol):
        raise ValueError(
            f"system is not isotropic (defect {system.isotropy_defect():.3g})")
    n = system.dim
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    m = system.m
    roots, zeros = np.empty((1, 0)), n
    for _ in range(k):
        roots, zeros = shift_roots(roots, zeros, 1.0 / m)
    pledged = float(roots[0, -1])
    vecs = system.vectors
    base = np.zeros((n, n), dtype=vecs.dtype)
    chosen: list[int] = []
    levels: list[float] = []
    for _ in range(k):
        vals = _ri_scores(vecs, chosen, k)
        best_j = int(np.argmax(vals))
        base = base + np.outer(vecs[best_j], vecs[best_j])
        chosen.append(best_j)
        levels.append(float(vals[best_j]))
    if len(set(chosen)) != k:
        raise RuntimeError("a column was selected twice; the positive pledge "
                           "should make this impossible")
    achieved = _lambda_k_of_matrix(base, k)
    cert = SelectionCertificate(choices=chosen,
                                final_poly=char_poly(SymMatrix(base)),
                                achieved=achieved, pledged=pledged,
                                k=k, direction="maximize", levels=levels)
    return chosen, cert


def _ri_scores(vecs: np.ndarray, chosen: list, k: int) -> np.ndarray:
    """Every row's level score, from the spectra of the bordered Gram matrices.

    The (m, l+1, l+1) stack keeps the dtype of ``vecs``: float spectra come
    from ``eigvalsh``, exact ones from exact Berkowitz and
    :func:`root_clusters`.
    """
    m, n = vecs.shape
    lvl = len(chosen)
    s = vecs[chosen]
    cross = vecs @ s.T
    gram = np.empty((m, lvl + 1, lvl + 1), dtype=vecs.dtype)
    gram[:, :lvl, :lvl] = s @ s.T
    gram[:, :lvl, lvl] = cross
    gram[:, lvl, :lvl] = cross
    gram[:, lvl, lvl] = np.einsum("ij,ij->i", vecs, vecs)
    if vecs.dtype == object:
        roots = np.array([[c.root for c in root_clusters(Polynomial(row))
                           for _ in range(c.mult)]
                          for row in charpoly_batch_exact(gram)])
    else:
        roots = np.linalg.eigvalsh(gram)
    zeros = n - lvl - 1
    for _ in range(k - lvl - 1):
        roots, zeros = shift_roots(roots, zeros, 1.0 / m)
    return np.min(roots, axis=1)


# ----------------------------------------------------------------------
# Weaver partitions
# ----------------------------------------------------------------------


def weaver_partition(system: VectorSystem, alpha,
                     budget: int = WALK_BUDGET, tol: float = ISO_TOL):
    """Partition an isotropic system into halves of small spectral norm.

    Each vector v is lifted to the two-point random vector taking values
    (v, 0) and (0, v) in R^{2d} with probability 1/2 each; a greedy walk
    minimizing lambda_1 of the lifted Gram sum assigns every vector to a
    side.  The realized maximum of the two block norms is at most
    ``(1 + sqrt(2 alpha))^2 / 2`` whenever ``alpha >= max ||v_i||^2``.
    ``budget`` is :func:`greedy_walk`'s cap on the whole walk's work, in
    :func:`walk_costs`' unit.  Returns (side-one indices, side-two indices, certificate).
    """
    if not system.is_isotropic(tol):
        raise ValueError(
            f"system is not isotropic (defect {system.isotropy_defect():.3g})")
    alpha = float(alpha)
    mx = system.max_norm_sq()
    if alpha < mx - 1e-12:
        raise ValueError(f"alpha={alpha} is below the largest squared norm {mx}")
    d = system.dim
    exact = system.is_exact
    rvs = []
    for row in system.vectors:
        zero = np.zeros(d, dtype=object if exact else float)
        up = np.concatenate([np.asarray(row), zero])
        down = np.concatenate([zero, np.asarray(row)])
        rvs.append(DiscreteRandomVector.two_point(up, down))
    state = AssignmentState(fixed=[], remaining=rvs, k=1, direction="minimize")
    cert = greedy_walk(state, budget=budget)
    s1 = [i for i, choice in enumerate(cert.choices) if choice == 0]
    s2 = [i for i, choice in enumerate(cert.choices) if choice == 1]
    return s1, s2, cert


def weaver_bound(alpha) -> float:
    """The half-square bound (1 + sqrt(2 alpha))^2 / 2."""
    return float((1.0 + math.sqrt(2.0 * float(alpha))) ** 2 / 2.0)


# ----------------------------------------------------------------------
# Adjacency signings
# ----------------------------------------------------------------------


def signing_vectors(g: Graph, exact: bool = True) -> list[DiscreteRandomVector]:
    """Per edge (a,b): e_a + e_b or e_a - e_b with probability 1/2 each.

    Their outer-product sum is A_s + dI for d-regular graphs, and the
    covariances sum to d times the identity.
    """
    out = []
    for a, b in g.edges:
        plus = np.zeros(g.n, dtype=object if exact else float)
        minus = np.zeros(g.n, dtype=object if exact else float)
        one = 1 if exact else 1.0
        plus[a] = one
        plus[b] = one
        minus[a] = one
        minus[b] = -one
        out.append(DiscreteRandomVector.two_point(plus, minus))
    return out


def signing_select(g: Graph, budget: int = DEFAULT_BUDGET):
    """Pick edge signs minimizing the top eigenvalue of the signed adjacency.

    Walks the edges with the vertices relabelled in
    :func:`frontier_order`, in the relabelled graph's sorted edge order,
    which keeps the engine's leaf sets small whatever the input's vertex
    numbering.  With the first edges' signs fixed, the expected
    characteristic polynomial of a uniformly random signing is the exact
    integer polynomial Phi_F of :func:`expected_signed_chars`; at each
    edge both children come out of one engine call.  With nothing fixed
    it is the matching polynomial mu_G, whose top root is the pledge; by
    linearity it is the average of the first edge's two children, so it
    costs no call of its own.  Every Phi_F is real-rooted by theorem, so
    the children are ranked by :func:`top_root` (a top root in a bracket
    certified by exact root counts) and :func:`compare_top_roots` (exact,
    also when the brackets overlap), not by the full exact root pipeline;
    the tests, not this walk, check the real-rootedness.  The child with
    the smaller largest root is kept, ties going to +1.  Identical
    children both equal their parent, whose top root is reused.  The
    children are an interlacing family, so the kept one's largest root
    never exceeds its parent's, and the final signing's top eigenvalue is
    at most the pledge.  Returns (signing,
    certificate); the certificate's values are in Gram coordinates (the
    signed adjacency plus dI, the Gram sum of :func:`signing_vectors`), so
    ``choices`` is 0 for +1 and 1 for -1, in walk order, and every value
    is shifted by d.  ``budget`` bounds the engine's DP states per call.
    """
    d = g.regularity()
    if d is None:
        raise ValueError("graph is not regular")
    if g.m == 0:
        raise ValueError("graph has no edges")
    order = frontier_order(g)
    label = {v: i for i, v in enumerate(order)}
    walk = Graph(g.n, [(label[a], label[b]) for a, b in g.edges])
    signs: list[int] = []
    levels: list[float] = []
    parent = None
    for _ in walk.edges:
        plus, minus = expected_signed_chars(walk, [signs + [1], signs + [-1]], budget)
        if parent is None:
            # mu_G is the average of the first edge's two children
            total = plus + minus
            if any(c % 2 for c in total.coeffs):
                raise AssertionError("the children's sum has an odd coefficient")
            parent = top_root(Polynomial([c // 2 for c in total.coeffs]))
            pledged = parent.root + d
        if plus == minus:
            # each child is then their average, the parent
            sign, best = 1, parent
        else:
            top_plus, top_minus = top_root(plus), top_root(minus)
            lower = compare_top_roots(minus, plus, top_minus, top_plus) < 0
            sign, best = (-1, top_minus) if lower else (1, top_plus)
        signs.append(sign)
        levels.append(best.root + d)
        parent = best
    signing = Signing({(order[a], order[b]): s for (a, b), s in zip(walk.edges, signs)})
    gram = signed_adjacency(g, signing).a + d * np.eye(g.n, dtype=int)
    achieved = _lambda_k_of_matrix(gram, 1)
    if abs(achieved - levels[-1]) > 1e-8:
        raise AssertionError("signed adjacency spectrum inconsistent with walk")
    cert = SelectionCertificate(choices=[0 if s == 1 else 1 for s in signs],
                                final_poly=char_poly(SymMatrix(gram)),
                                achieved=achieved, pledged=pledged, k=1,
                                direction="minimize", levels=levels)
    return signing, cert
