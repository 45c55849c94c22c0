"""Graphs, signings, expected characteristic polynomials of partial
signings, 2-lifts, and Ramanujan certificates.

Graphs are simple (no loops, no parallel edges) and unweighted,
vertices are integers ``0..n-1``, and edges are stored as sorted pairs.
A signing of g is a +-1 per edge of ``g.edges``, in order: a sequence
of ``g.m`` signs.  :func:`signed_adjacency`, :func:`signed_gram` and
:func:`two_lift` take one, :meth:`SigningEngine.chars` takes a prefix of
one, and each checks it by :func:`_sign_prefix`.

The spectral story: a signing flips adjacency entries to -1 on chosen
edges.  Averaging the characteristic polynomial over all 2^{|E|}
signings gives exactly the matching polynomial (Godsil-Gutman), whose
largest root is at most ``2 sqrt(d-1)`` for maximum degree d
(Heilmann-Lieb); ``tests/paper.py`` checks both.  With the signs of some edges fixed, the average over
the rest is still closed-form, a sum over matchings of the random edges
of characteristic polynomials of fixed-signed induced subgraphs.
:class:`SigningEngine` computes it exactly for every prefix of the
edges of a bipartite graph, without enumerating signings: one backward
DP over the edges holds every level's matchings, grouped by their
vertices among the fixed edges', and each group's leaf is a Gram matrix
on one colour class of those vertices.  There the average is Phi_F(x) =
x^e q_F(x^2), e the parity of n, and each :meth:`SigningEngine.chars`
call forms one level's q_F for one sign prefix; the signing walk in
``select`` runs on one engine, taking the edges in :func:`frontier_order`
so the cost does not depend on how the vertices are numbered.  A signing whose
signed adjacency meets the bound produces a 2-lift whose new eigenvalues
are precisely the signed spectrum, which is how bipartite Ramanujan
graphs of every degree are built by repeated lifting.  The walk's
certificate and :func:`is_ramanujan_bipartite` take chi at half degree
too, of the n/2 x n/2 Gram of a signed biadjacency (:func:`signed_gram`).
"""

from __future__ import annotations

import numpy as np

from .poly import Polynomial, roots_above
from .matrices import SymMatrix, char_poly, charpoly_batch_exact
from .mixedchar import BudgetExceededError

__all__ = [
    "DEFAULT_BUDGET",
    "Graph",
    "signed_adjacency",
    "signed_gram",
    "SigningEngine",
    "frontier_order",
    "two_lift",
    "is_ramanujan_bipartite",
]

# The default cap on lift's signing walks, in DP states and leaf matrix
# entries (SigningEngine).
DEFAULT_BUDGET = 1 << 20

# Matrix entries per exact-kernel call in SigningEngine.chars: a call
# takes LEAF_ENTRIES // p^2 p x p Gram leaf groups, and at least one, so
# that its (groups, p, p) stack and the kernel's baby steps, about ten
# copies of it, stay bounded at every p.  Up to p = 32 a call takes at
# least 256 groups.
LEAF_ENTRIES = 1 << 18


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = []
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            norm.append((min(a, b), max(a, b)))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edges are not allowed")
        self.edges = tuple(sorted(norm))
        self.n = n

    @classmethod
    def from_edge_list(cls, text: str) -> "Graph":
        """Parse the `u v` per-line format, 0-indexed; n = max vertex + 1."""
        edges = []
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {ln}: expected 'u v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as e:
                raise ValueError(f"line {ln}: bad vertex in {raw!r}") from e
            edges.append((u, v))
        if not edges:
            raise ValueError("empty edge list")
        n = max(max(e) for e in edges) + 1
        return cls(n, edges)

    # -- structure queries --------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def regularity(self):
        """The common degree d if regular, else None."""
        degs = set(self.degree_sequence())
        if len(degs) == 1:
            return degs.pop()
        return None

    def forest_edges(self) -> list[bool]:
        """Per edge, in order: does it join two components of the edges
        before it?  One union-find; the marked edges span a forest."""
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        joins = []
        for a, b in self.edges:
            ra, rb = find(a), find(b)
            joins.append(ra != rb)
            parent[ra] = rb
        return joins

    def is_connected(self) -> bool:
        """A spanning tree among the edges; vacuously true for n <= 1."""
        return self.n <= 1 or sum(self.forest_edges()) == self.n - 1

    def bipartition(self):
        """A 2-coloring (set of 'left' vertices) if bipartite, else None."""
        color = [-1] * self.n
        adj = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        return None
        return {v for v in range(self.n) if color[v] == 0}

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)


# ----------------------------------------------------------------------
# Matrices of a graph
# ----------------------------------------------------------------------


def _sign_prefix(g: Graph, signs, whole: bool = False) -> np.ndarray:
    """``signs`` as a 1-D int64 array of +-1 signing a prefix of
    ``g.edges``, all of them if ``whole``: the one check of a signing."""
    signs = np.array(signs, dtype=np.int64, ndmin=1)
    if signs.ndim != 1:
        raise ValueError("one sign prefix is taken at a time")
    if len(signs) > g.m or whole and len(signs) < g.m:
        raise ValueError(f"{len(signs)} signs given for {g.m} edges")
    if not (np.abs(signs) == 1).all():
        raise ValueError("signs must be +1 or -1")
    return signs


def signed_adjacency(g: Graph, signs) -> SymMatrix:
    """Adjacency with entries flipped to -1 on negatively signed edges;
    ``signs`` is a signing of g (see the module docstring).

    For a d-regular graph it equals
    ``sum_e (e_a + s_e e_b)(e_a + s_e e_b)^T - d I``: the signing vectors
    e_a + s_e e_b have Gram sum ``A_s + d I``.
    """
    signs = _sign_prefix(g, signs, whole=True)
    a = np.zeros((g.n, g.n), dtype=int)
    for (u, v), s in zip(g.edges, signs):
        a[u, v] = a[v, u] = s
    return SymMatrix(a)


def signed_gram(g: Graph, signs) -> SymMatrix:
    """B_s B_s^T for a signing of bipartite g (ValueError if not), B_s
    the rows of :func:`signed_adjacency` on the side
    :meth:`Graph.bipartition` returns, its columns on the other, both
    sorted.  On equal sides, as of every d-regular g with d >= 1, A_s is
    [[0, B_s], [B_s^T, 0]] up to the vertex order, so chi(A_s)(x) =
    chi(B_s B_s^T)(x^2): its roots are A_s's eigenvalues squared."""
    left = g.bipartition()
    if left is None:
        raise ValueError("graph is not bipartite")
    right = sorted(set(range(g.n)) - left)
    b = signed_adjacency(g, signs).a[np.ix_(sorted(left), right)].astype(np.int64)
    return SymMatrix(b @ b.T)


# ----------------------------------------------------------------------
# Expected characteristic polynomials of partial signings
# ----------------------------------------------------------------------


def _matching_tables(g: Graph, budget: int, leaf: list) -> list:
    """The backward matching DP: level f's leaf groups and weights, f = 0..m.

    Takes the edges last to first.  A state is the set of matched
    vertices that still have an edge earlier in the order, as a bit mask,
    and its value is a vector over the matching size k holding
    (-1)^k times the number of matchings of the edges taken so far with
    that state.  A vertex leaves the key at its first edge, so after
    edges m-1 .. f the keys are exactly the sets S = V(M) & V(F) of the
    matchings M of R = edges f.., F = edges ..f-1, which is what level f
    needs.  Entry f of the result is (masks, weights) with one row of
    weights per mask.  The suffix's matchings, at most
    2^(edges taken), bound every entry, so the weights leave int64 only
    past 62 edges.  Each level costs its states times 1 + ``leaf[f]``,
    the leaf entries of one of its groups, and the cost of the levels
    built so far is counted against ``budget`` as the tables grow:
    :class:`BudgetExceededError` is raised as soon as it passes.
    """
    m, half = g.m, g.n // 2
    first: dict = {}
    for t, (a, b) in enumerate(g.edges):
        first.setdefault(a, t)
        first.setdefault(b, t)
    masks = np.zeros(1, dtype=np.int64 if g.n < 63 else object)
    weights = np.ones((1, 1), dtype=np.int64)
    tables = [(masks, weights)]
    cost = 1 + leaf[m]
    for t in range(m - 1, -1, -1):
        a, b = g.edges[t]
        pair = 1 << a | 1 << b
        keep = ~sum(1 << v for v in (a, b) if first[v] == t)
        if m - t == 63:
            weights = weights.astype(object)
        free = (masks & pair) == 0
        width = min(weights.shape[1] + 1, half + 1)
        cand = np.concatenate([masks, masks[free] | pair]) & keep
        vals = np.zeros((len(cand), width), dtype=weights.dtype)
        vals[:len(masks), :weights.shape[1]] = weights
        vals[len(masks):, 1:] = -weights[free, :width - 1]
        order = np.argsort(cand, kind="stable")
        cand = cand[order]
        starts = np.flatnonzero(np.concatenate([[True], cand[1:] != cand[:-1]]))
        masks = cand[starts]
        weights = np.add.reduceat(vals[order], starts, axis=0)
        tables.append((masks, weights))
        cost += len(masks) * (1 + leaf[t])
        if cost > budget:
            raise BudgetExceededError(
                f"the signing walk passed the budget of {budget} DP states and leaf entries "
                f"with {t} of {m} edges left")
    tables.reverse()
    return tables


class SigningEngine:
    """Exact q_F, Phi_F(x) = x^e q_F(x^2), of every prefix F of the edges
    of a bipartite ``g``, from one backward DP.

    With the first f edges' signs fixed (the set F) and the other edges R
    signed independently and uniformly, expanding ``E_R det(xI - A_s)``
    over permutations leaves a random sign only on a transposition, so

        Phi_F = sum over matchings M of R of (-1)^|M| chi(A_F[V - V(M)]),

    the generalised Godsil-Gutman identity Phi_F(G) = Phi_F(G - e) -
    Phi_F(G - a - b) for e = (a, b) in R unrolled; with F empty it is the
    matching polynomial.  The construction runs the DP of
    :func:`_matching_tables` once, so every level reads its leaf groups
    S = V(M) & V(F) and their weights off one table.  A vertex outside
    V(F) is isolated in A_F, so each leaf is chi(A_F[V(F)] with S zeroed)
    times x^(n - |V(F)|), divided by x^(2|M|).

    ``g`` must be bipartite, as every graph ``lift`` walks is
    (ValueError "graph is not bipartite" otherwise).  V(F) splits into
    its colour classes, p <= q vertices, and A_F[V(F)] = [[0, B], [B^T,
    0]] for the p x q signed biadjacency B, so chi(A_F[V(F)]) = x^(q - p)
    chi(B B^T)(x^2).  A leaf with |M| = k is then x^(n - 2p - 2k) chi(B
    B^T)(x^2) for the masked B, and n - 2p - 2k = e + 2(n // 2 - p - k):
    its p x p Gram B B^T's chi lands in q_F at y-degree n // 2 - p - k.
    The exact kernel (:func:`charpoly_batch_exact`) takes ``LEAF_ENTRIES
    // p^2`` groups at a time and at least one, so that a call's stacks
    hold about ``LEAF_ENTRIES`` entries at every p.  It runs in int64 on
    every leaf for which k times its k-th coefficient provably fits and
    in Python ints on the others (see :func:`charpoly_batch_exact`).  In
    a Gram leaf of a cubic graph a row has absolute sum at most 9 and
    squares summing to at most 27: the diagonal entry is a degree, at
    most 3, and the others, |(B B^T)_ij| at most the common neighbours of
    i and j, sum to at most 3 x 2.  So it fits with up to 23 nonzero
    rows, every leaf with |V(F)| < 48 among them.

    ``budget`` caps a walk's work, which the DP counts as it grows: its
    states plus one row's leaf entries, groups x p^2, at every level the
    walk forms, level 0 and each whose last edge closes a cycle
    (:meth:`Graph.forest_edges`).  So :class:`BudgetExceededError` comes
    before the tables hold every level and before any level is formed.
    """

    def __init__(self, g: Graph, budget: int = DEFAULT_BUDGET):
        self.left = g.bipartition()
        if self.left is None:
            raise ValueError("graph is not bipartite")
        self.g = g
        verts, leaf = set(), []
        for f, formed in enumerate([True] + [not joins for joins in g.forest_edges()]):
            leaf.append(formed * len(self._sides(verts)[0]) ** 2)
            verts.update(g.edges[f] if f < g.m else ())
        self.tables = _matching_tables(g, budget, leaf)

    def _sides(self, verts) -> list:
        """The colour classes of ``verts``, each sorted, the smaller first:
        the rows and columns of V(F)'s biadjacency B."""
        verts = sorted(verts)
        return sorted(([v for v in verts if v in self.left],
                       [v for v in verts if v not in self.left]), key=len)

    def chars(self, signs) -> Polynomial:
        """q_F, of degree n // 2, for the prefix F of ``g.edges`` that
        ``signs`` sign: ``signs`` is a prefix of a signing of g (see the
        module docstring)."""
        signs = _sign_prefix(self.g, signs)
        f, half = len(signs), self.g.n // 2
        masks, weights = self.tables[f]
        fixed = self.g.edges[:f]
        rows, cols = self._sides({v for e in fixed for v in e})
        p = len(rows)
        pos = {v: i for i, v in enumerate(rows + cols)}
        signed = np.zeros((p, len(cols)), dtype=np.int64)
        for s, (a, b) in zip(signs, fixed):
            i, j = sorted((pos[a], pos[b]))
            signed[i, j - p] = s
        bits = np.array([1 << v for v in rows + cols], dtype=masks.dtype)
        live = ((masks[:, None] & bits[None, :]) == 0).astype(np.int64)
        total = np.zeros(half + 1, dtype=object)
        chunk = max(1, LEAF_ENTRIES // max(1, p * p))
        for lo in range(0, len(masks), chunk):
            keep, w = live[lo:lo + chunk], weights[lo:lo + chunk]
            b = signed * (keep[:, :p, None] * keep[:, None, p:])
            chars = charpoly_batch_exact(np.matmul(b, b.transpose(0, 2, 1)))
            if object in (chars.dtype, w.dtype) or \
                    int(np.abs(w).sum()) * int(np.abs(chars).max()) >= 1 << 63:
                chars, w = chars.astype(object), w.astype(object)
            for k, part in enumerate(w.T @ chars):
                # at y-degree half - p - k; the coefficients below y^0 are zero
                off = half - p - k
                total[max(off, 0):off + p + 1] += part[max(-off, 0):]
        return Polynomial(total.tolist())


def frontier_order(g: Graph) -> list[int]:
    """A vertex order whose prefixes have small frontiers.

    The frontier of a prefix P is the set of vertices outside P with a
    neighbour in P.  With the vertices renumbered in this order, a prefix
    of the sorted edges is every edge at a prefix P of the vertices plus
    some edges of the next vertex v, so the vertices touching both fixed
    and random edges, over which the leaf groups of
    :class:`SigningEngine` range, lie in the frontier of P plus v.
    From each start vertex the order grows greedily: the next vertex is
    the frontier vertex adding the fewest new ones (ties: most placed
    neighbours, then lowest label); once a component is done the same
    rule picks among all unplaced vertices.  Both counts are kept per
    vertex and updated as each vertex is placed: ``fresh[u]``, its
    neighbours neither placed nor on the frontier, and ``seen[u]``, its
    placed ones.  The order with the least sum over prefixes of
    2^|frontier| is returned, ties to the lowest start, so the cost
    follows the graph's shape rather than its numbering; a start is
    dropped once its sum reaches the best one's.
    """
    adj = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    best = None
    for start in range(g.n):
        fresh, seen = [len(nb) for nb in adj], [0] * g.n
        order, front, rest, cost = [], set(), set(range(g.n)), 0
        v = start
        while True:
            order.append(v)
            rest.discard(v)
            if v in front:
                front.discard(v)
            else:
                for u in adj[v]:
                    fresh[u] -= 1
            for u in adj[v]:
                seen[u] += 1
                if u in rest and u not in front:
                    front.add(u)
                    for w in adj[u]:
                        fresh[w] -= 1
            if not rest:
                break
            cost += 1 << len(front)
            if best is not None and cost >= best[0]:
                break
            v = min(front or rest, key=lambda u: (fresh[u], -seen[u], u))
        if not rest and (best is None or cost < best[0]):
            best = (cost, order)
    return best[1] if best else []


# ----------------------------------------------------------------------
# 2-lifts and Ramanujan certification
# ----------------------------------------------------------------------


def two_lift(g: Graph, signs) -> Graph:
    """The 2-cover determined by a signing of g (see the module docstring).

    Vertex (v, layer) becomes ``v + layer*n``.  A +1 edge keeps both
    copies parallel, a -1 edge crosses layers.  In the basis of the sums
    and differences of the two copies the lift's adjacency splits into A
    and A_s, so its spectrum is the multiset union of spec(A) and
    spec(A_s) (Bilu-Linial) and chi(lift) = chi(A) chi(A_s).
    """
    signs = _sign_prefix(g, signs, whole=True)
    n = g.n
    edges = []
    for (a, b), s in zip(g.edges, signs):
        if s == 1:
            edges.extend([(a, b), (a + n, b + n)])
        else:
            edges.extend([(a, b + n), (b, a + n)])
    return Graph(2 * n, edges)


def is_ramanujan_bipartite(g: Graph) -> bool:
    """Certify |lambda| <= 2 sqrt(d-1) for all nontrivial adjacency eigenvalues, exactly.

    Requires a connected, d-regular, bipartite graph; one eigenvalue at
    +d and one at -d are the trivial pair and are excluded.  Its sides
    have n/2 vertices each, and chi(A)(x) = q(x^2) for q the chi of the
    n/2 x n/2 Gram :func:`signed_gram` with every sign +1, taken in
    integers: q(d^2) = 0 is the trivial pair, and the graph is Ramanujan
    when no other root of q lies above 4(d-1).  d^2 itself lies above it
    except at d = 2, where d^2 = 4(d-1).
    """
    if not g.is_connected():
        raise ValueError("graph is not connected")
    d = g.regularity()
    if d is None:
        raise ValueError("graph is not regular")
    q = char_poly(signed_gram(g, [1] * g.m))
    if q(d * d) != 0:
        raise AssertionError("connected regular bipartite graph missing trivial eigenvalues")
    return roots_above(q, 4 * (d - 1)) == int(d != 2)
