"""Graphs, matching polynomials, signings, 2-lifts, and spectral checks."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from interlace import graphs
from interlace import (
    Graph,
    signed_adjacency,
    signed_gram,
    frontier_order,
    two_lift,
    is_ramanujan_bipartite,
    DEFAULT_BUDGET,
    Polynomial,
    char_poly,
    charpoly_batch_exact,
    real_roots,
    roots_above,
    BudgetExceededError,
    SigningEngine,
    signing_select,
)
from fixtures import adjacency, complete, complete_bipartite, cycle, path, petersen, \
    walked_cover24
from oracles import CUBE, forward_signed_chars, full_leaf_chars, in_walk_order, \
    set_frontier_order, squared_roots, walk_entries
from test_acceptance import bounded_degree_graphs, signing_average_graphs
from paper import godsil_gutman_check, heilmann_lieb_check, laplacian, matching_poly, \
    spectral_approx_factors, _charpoly_sum_over_signings


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------


def test_graph_normalizes_edges():
    g = Graph(3, [(2, 1), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.m == 2
    assert g.degree_sequence() == [1, 2, 1]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])  # self-loop
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate after normalization
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])  # out of range


def test_named_graphs():
    k4 = complete(4)
    assert k4.m == 6
    assert k4.regularity() == 3
    k33 = complete_bipartite(3, 3)
    assert k33.m == 9
    assert k33.regularity() == 3
    assert k33.bipartition() is not None
    c5 = cycle(5)
    assert c5.m == 5 and c5.regularity() == 2
    assert c5.bipartition() is None  # odd cycle
    p4 = path(4)
    assert p4.m == 3 and p4.regularity() is None
    pete = petersen()
    assert pete.n == 10 and pete.m == 15 and pete.regularity() == 3


def test_petersen_spectrum():
    # eigenvalues 3 (x1), 1 (x5), -2 (x4) -- the classical strongly
    # regular spectrum, asserted against eigvalsh
    w = np.sort(adjacency(petersen()).eigenvalues())
    expect = np.sort([3] + [1] * 5 + [-2] * 4)
    assert np.allclose(w, expect, atol=1e-8)


def test_connectivity_and_bipartition():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    assert path(4).is_connected()
    left = complete_bipartite(2, 3).bipartition()
    assert left == {0, 1}
    assert complete(3).bipartition() is None


def test_edge_list_round_trip():
    g = Graph(4, [(0, 1), (1, 2), (3, 2)])
    text = "".join(f"{a} {b}\n" for a, b in g.edges)
    back = Graph.from_edge_list(text)
    assert back == g


def test_edge_list_parsing():
    g = Graph.from_edge_list("# comment line\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    assert g.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        Graph.from_edge_list("0 1 2\n")  # graphs are unweighted
    with pytest.raises(ValueError):
        Graph.from_edge_list("0 1 2 3\n")
    with pytest.raises(ValueError):
        Graph.from_edge_list("0 x\n")


def test_adjacency_and_laplacian():
    g = complete(3)
    a = adjacency(g)
    assert a.a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    l = laplacian(g)
    w = np.sort(l.eigenvalues())
    assert np.allclose(w, [0, 3, 3])
    # weighted laplacian row sums vanish
    lw = laplacian(Graph(3, [(0, 1), (1, 2)]), [Fraction(1, 2), 2])
    assert all(sum(row) == 0 for row in lw.a.tolist())
    assert lw.is_exact


def test_laplacian_complete_graph_eigenvalues():
    for n in (2, 3, 5, 8):
        w = np.sort(laplacian(complete(n)).eigenvalues())
        assert np.allclose(w, [0] + [n] * (n - 1))


# ----------------------------------------------------------------------
# Signings
# ----------------------------------------------------------------------


def test_signing_basics():
    g = cycle(4)
    s = [1] * g.m
    assert all(signed_adjacency(g, s).a[e] == 1 for e in g.edges)
    assert signed_adjacency(g, s) == adjacency(g)
    flip = [-1 if i == 0 else 1 for i in range(g.m)]
    m = signed_adjacency(g, flip)
    assert m.a[0, 1] == -1 and m.a[1, 0] == -1


def test_signing_validation():
    # one check for every taker of a signing: +-1 entries, one per edge
    # (a prefix for the engine), and one sequence
    g = cycle(4)
    engine = SigningEngine(g)
    for take, lengths in ((lambda s: signed_adjacency(g, s), (3, 5)),
                          (lambda s: two_lift(g, s), (3, 5)),
                          (engine.chars, (5,))):
        with pytest.raises(ValueError, match="must be"):
            take([1, 2, 1, 1])  # not a sign
        with pytest.raises(ValueError, match="must be"):
            take([1, 0, 1, 1])
        for length in lengths:
            with pytest.raises(ValueError, match="signs given"):
                take([1] * length)  # wrong length
        with pytest.raises(ValueError, match="at a time"):
            take(np.ones((2, 2), dtype=int))  # 2-D


def test_all_minus_signing_negates_bipartite_spectrum():
    g = complete_bipartite(2, 2)
    s = [-1] * g.m
    w1 = np.sort(adjacency(g).eigenvalues())
    w2 = np.sort(signed_adjacency(g, s).eigenvalues())
    assert np.allclose(w1, w2)  # flipping every edge is a similarity here


# ----------------------------------------------------------------------
# Matching polynomials
# ----------------------------------------------------------------------


def test_matching_poly_small_closed_forms():
    # path P3: matchings of size 0 (1 way) and 1 (2 ways): x^3 - 2x
    assert matching_poly(path(3)) == Polynomial([0, -2, 0, 1])
    # K4: m_0=1, m_1=6, m_2=3: x^4 - 6x^2 + 3
    assert matching_poly(complete(4)) == Polynomial([3, 0, -6, 0, 1])
    # C4: m_1 = 4, m_2 = 2: x^4 - 4x^2 + 2
    assert matching_poly(cycle(4)) == Polynomial([2, 0, -4, 0, 1])
    # edgeless
    assert matching_poly(Graph(3, [])) == Polynomial([0, 0, 0, 1])


def test_matching_poly_forest_equals_char_poly():
    # for forests the matching polynomial IS the characteristic polynomial
    for g in (path(2), path(5), Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4)])):
        assert matching_poly(g) == char_poly(adjacency(g))


def test_matching_poly_coefficients_count_matchings():
    # K33 matching numbers: 1, 9, 18, 6
    p = matching_poly(complete_bipartite(3, 3))
    assert p == Polynomial([-6, 0, 18, 0, -9, 0, 1])


def _dense_random_graphs():
    rng = np.random.default_rng(47)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        density = rng.uniform(0.2, 0.9)
        yield Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                        if rng.random() < density])


def _sparse_random_graphs():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        yield Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                        if rng.random() < 0.4])


def test_matching_poly_is_real_rooted_randomized():
    for g in _dense_random_graphs():
        r = real_roots(Polynomial([float(c) for c in matching_poly(g).coeffs]))
        assert len(r) == g.n  # real-rooted of full degree


def test_matching_poly_cap():
    with pytest.raises(ValueError):
        matching_poly(complete(25))


def test_godsil_gutman_named_graphs():
    for g in (path(4), cycle(5), complete(4),
              complete_bipartite(2, 3), petersen()):
        assert godsil_gutman_check(g)


def test_godsil_gutman_average_is_exact_integer_identity():
    # brute-force the 2^m signings of C4 by hand and compare
    g = cycle(4)
    total = Polynomial(())
    for bits in itertools.product([1, -1], repeat=g.m):
        s = list(bits)
        total = total + char_poly(signed_adjacency(g, s))
    assert total == 2 ** g.m * matching_poly(g)


def test_godsil_gutman_edge_cap():
    with pytest.raises(ValueError):
        godsil_gutman_check(complete(7))  # 21 edges > cap


def test_heilmann_lieb_named_graphs():
    assert heilmann_lieb_check(cycle(6))       # d=2: bound 2
    assert heilmann_lieb_check(complete(4))    # d=3: bound 2 sqrt 2
    assert heilmann_lieb_check(petersen())     # d=3
    assert heilmann_lieb_check(complete_bipartite(3, 3))


def test_heilmann_lieb_requires_degree_two():
    with pytest.raises(ValueError):
        heilmann_lieb_check(path(2))  # max degree 1


def test_heilmann_lieb_randomized():
    for g in _sparse_random_graphs():
        if max(g.degree_sequence(), default=0) >= 2:
            assert heilmann_lieb_check(g)


# ----------------------------------------------------------------------
# Expected characteristic polynomials of partial signings
# ----------------------------------------------------------------------


def test_expected_signed_chars_match_exhaustive_average():
    # the engine's q_F against the exhaustive sum read in y on bipartite
    # graphs, and the forward oracle's Phi_F against it on K4 and
    # Petersen, which the engine refuses
    rng = np.random.default_rng(59)
    for g in (complete_bipartite(3, 3), complete(4), petersen(), CUBE):
        bipartite = g.bipartition() is not None
        engine = SigningEngine(g) if bipartite else None
        for f in (0, 3, min(7, g.m - 2), g.m - 1):
            for prefix in rng.choice([-1, 1], (3, f)):
                total = Polynomial(_charpoly_sum_over_signings(g, prefix))
                if bipartite:
                    phi, total = engine.chars(prefix), squared_roots(total)
                else:
                    phi = forward_signed_chars(g, [prefix])[0]
                assert all(isinstance(c, int) for c in phi.coeffs)
                assert total == (1 << (g.m - f)) * phi, (g, prefix)


def test_expected_signed_chars_leaf_chunks_add_up(monkeypatch):
    g = CUBE
    engine = SigningEngine(g)
    prefixes = np.random.default_rng(67).choice([-1, 1], (2, 6))
    whole = [engine.chars(prefix) for prefix in prefixes]
    monkeypatch.setattr(graphs, "LEAF_ENTRIES", 1)
    assert [engine.chars(prefix) for prefix in prefixes] == whole


@pytest.mark.parametrize("cap", [10, 200])
def test_expected_signed_chars_leaf_stacks_bounded_in_entries(monkeypatch, cap):
    # a kernel call takes cap // p^2 Gram leaf groups and at least one, so
    # its stack holds at most cap entries, or one leaf past that; level 20
    # of the 24-vertex cover has 232 groups of side 9
    g = in_walk_order(walked_cover24())
    engine = SigningEngine(g)
    prefix = np.random.default_rng(71).choice([-1, 1], 20)
    whole = engine.chars(prefix)
    shapes, kernel = [], graphs.charpoly_batch_exact
    monkeypatch.setattr(graphs, "charpoly_batch_exact",
                        lambda mats: shapes.append(mats.shape) or kernel(mats))
    monkeypatch.setattr(graphs, "LEAF_ENTRIES", cap)
    assert engine.chars(prefix) == whole
    assert len(shapes) > 1
    assert all(b * n * n <= cap or b == 1 for b, n, _ in shapes)


def test_expected_signed_chars_fully_signed_is_char_poly():
    g = CUBE
    signs = np.random.default_rng(61).choice([-1, 1], g.m)
    phi = SigningEngine(g).chars(signs)
    assert phi == squared_roots(char_poly(signed_adjacency(g, signs)))


def test_expected_signed_chars_empty_prefix_is_matching_poly():
    # the matching polynomial two ways, enumeration and the engine's
    # deletion-contraction DP, on every graph whose matching polynomial
    # the tests and the acceptance suite take: read in y against the
    # engine's q on a bipartite graph, and on any other, which the engine
    # refuses, against its DP tables with the oracle's full-size leaves
    named = [path(2), path(3), path(4), path(5), cycle(4),
             cycle(5), cycle(6), complete(4), complete(5),
             complete_bipartite(2, 3), complete_bipartite(3, 3),
             petersen(), CUBE, Graph(3, []),
             Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4)])]
    for g in itertools.chain(named, _dense_random_graphs(), _sparse_random_graphs(),
                             signing_average_graphs(), bounded_degree_graphs()):
        mu = matching_poly(g)
        if g.bipartition() is None:
            tables = graphs._matching_tables(g, DEFAULT_BUDGET, [0] * (g.m + 1))
            assert full_leaf_chars(g, tables, []) == mu
        else:
            assert SigningEngine(g).chars([]) == squared_roots(mu)


def test_expected_signed_chars_budget_and_validation():
    g = complete_bipartite(3, 3)
    with pytest.raises(BudgetExceededError):
        SigningEngine(g, budget=8)
    engine = SigningEngine(g)
    with pytest.raises(ValueError):
        engine.chars([1] * 10)
    with pytest.raises(ValueError):
        engine.chars([1, 0])
    with pytest.raises(ValueError):
        engine.chars([[1], [1]])


ENGINE_GRAPHS = [CUBE, petersen(), complete_bipartite(4, 4),
                 in_walk_order(walked_cover24())]


def _engine_levels(g):
    """(chars, read): each prefix's level polynomial and the map taking
    the forward oracle's Phi_F to it.  On a bipartite g they are the
    engine's q_F and :func:`squared_roots`; on any other, which the
    engine refuses, Phi_F off the engine's DP tables with the oracle's
    full-size leaves, and the identity."""
    if g.bipartition() is not None:
        return SigningEngine(g).chars, squared_roots
    tables = graphs._matching_tables(g, DEFAULT_BUDGET, [0] * (g.m + 1))
    return (lambda signs: full_leaf_chars(g, tables, signs)), (lambda phi: phi)


@pytest.mark.parametrize("g", ENGINE_GRAPHS, ids=["cube", "petersen", "K44", "cover24"])
def test_signing_engine_matches_forward_oracle_at_every_level(g):
    rng = np.random.default_rng(71)
    chars, read = _engine_levels(g)
    for f in range(g.m + 1):
        prefixes = rng.choice([-1, 1], (2, f))
        assert [chars(p) for p in prefixes] == \
            [read(phi) for phi in forward_signed_chars(g, prefixes)], f


@pytest.mark.parametrize("g", ENGINE_GRAPHS, ids=["cube", "petersen", "K44", "cover24"])
def test_signing_engine_minus_child_from_parent_matches_oracle(g):
    rng = np.random.default_rng(73)
    chars, read = _engine_levels(g)
    for f in range(g.m):
        signs = rng.choice([-1, 1], f).tolist()
        plus, minus = map(read, forward_signed_chars(g, [signs + [1], signs + [-1]]))
        parent, child = chars(signs), chars(signs + [1])
        assert child == plus and 2 * parent - child == minus, f


# The 48-vertex cover of K_{3,3} that lift --iterations 4 walks last, in
# walk order, and its walk's DP states and leaf entries: over the default
# budget, which its DP's 109,825 states alone fit.
COVER48_WALK = 9_845_340


def _walked_cover48() -> Graph:
    g = walked_cover24()
    return in_walk_order(two_lift(g, signing_select(g)[0]))


@pytest.mark.parametrize("name", ["cube", "K33", "K44", "cover24", "cover48"])
def test_gram_leaves_match_full_leaves_by_berkowitz(name):
    # the engine's leaves are p x p Grams B B^T; the oracle takes the same
    # tables with full |V(F)| x |V(F)| leaves by Berkowitz in Python ints,
    # its Phi_F read in y.  The 48-vertex cover's middle levels hold
    # thousands of groups on 20 vertices and more, so it takes its first
    # and last levels, on the budget its walk needs
    named = {"cube": CUBE, "K33": complete_bipartite(3, 3), "K44": complete_bipartite(4, 4)}
    if name == "cover24":
        named[name] = in_walk_order(walked_cover24())
    elif name == "cover48":
        named[name] = _walked_cover48()
    g = named[name]
    engine = SigningEngine(g, COVER48_WALK if name == "cover48" else DEFAULT_BUDGET)
    left = engine.left
    assert left is not None
    levels = range(g.m + 1) if g.m <= 36 else [0, 3, 6, 9, 12, 15, 66, 69, 72]
    rng = np.random.default_rng(89)
    sides = set()
    for f in levels:
        verts = {v for e in g.edges[:f] for v in e}
        sides.add(tuple(sorted((len(verts & left), len(verts - left)))))
        prefix = rng.choice([-1, 1], f)
        assert engine.chars(prefix) == squared_roots(full_leaf_chars(g, engine.tables, prefix)), \
            (f, prefix)
    # the empty prefix (p = 0), a lopsided V(F) (p != q) and the full signing
    assert (0, 0) in sides and any(p != q for p, q in sides)
    assert levels[-1] == g.m


def test_signing_engine_and_walk_refuse_a_graph_that_is_not_bipartite():
    # q_F with Phi_F(x) = x^e q_F(x^2) needs a bipartite graph; the DP
    # tables of any graph are checked above through the oracle's leaves
    for g in (complete(4), petersen()):
        assert g.regularity() == 3
        with pytest.raises(ValueError, match="not bipartite"):
            SigningEngine(g)
        with pytest.raises(ValueError, match="not bipartite"):
            signing_select(g)


def test_signing_engine_leaf_stacks_have_side_v_f(monkeypatch):
    # the leaves over V(F): the p x p Gram B B^T of the p x q signed
    # biadjacency, p <= q the sizes of V(F)'s colour classes
    sides = []

    def recorded(mats):
        sides.append(mats.shape)
        return charpoly_batch_exact(mats)

    monkeypatch.setattr(graphs, "charpoly_batch_exact", recorded)
    rng = np.random.default_rng(79)
    for g in (in_walk_order(walked_cover24()), CUBE):
        engine = SigningEngine(g)
        left = g.bipartition()
        # a walk forms level 0 and each level whose edge closes a cycle
        formed = [True] + [not joins for joins in g.forest_edges()]
        entries = 0
        for f in range(g.m + 1):
            sides.clear()
            for prefix in rng.choice([-1, 1], (3, f)):
                engine.chars(prefix)
            verts = {v for e in g.edges[:f] for v in e}
            width = min(len(verts & left), len(verts - left))
            groups = len(engine.tables[f][0])
            assert [s[1:] for s in sides] == [(width, width)] * len(sides)
            assert sum(s[0] for s in sides) == 3 * groups
            entries += formed[f] * sum(s[0] * s[1] * s[2] for s in sides)
        # a walk's work: the DP's states and one row's leaf entries per
        # level it forms
        states = sum(len(m) for m, _ in engine.tables)
        assert 3 * (walk_entries(engine) - states) == entries


def test_signing_engine_refuses_the_48_vertex_walk_while_its_dp_grows(monkeypatch):
    # the DP's states fit the default budget, but with the leaf entries of
    # the levels the walk forms the count passes it while the DP grows:
    # _matching_tables raises before its tables hold every level
    g = _walked_cover48()
    returned = []
    tables = graphs._matching_tables

    def recorded(*args):
        returned.append(tables(*args))
        return returned[-1]

    monkeypatch.setattr(graphs, "_matching_tables", recorded)
    with pytest.raises(BudgetExceededError, match="DP states and leaf entries") as refused:
        SigningEngine(g)
    assert returned == []
    left = int(re.search(r"with (\d+) of 72 edges left", str(refused.value)).group(1))
    assert 0 < left < g.m
    # on the budget its walk needs, the same count, read off the tables
    engine = SigningEngine(g, COVER48_WALK)
    states = sum(len(m) for m, _ in engine.tables)
    assert states == 109_825 <= DEFAULT_BUDGET < walk_entries(engine) == COVER48_WALK
    with pytest.raises(BudgetExceededError):
        SigningEngine(g, COVER48_WALK - 1)


def test_signing_engine_past_62_vertices_and_edges():
    # masks of 70 vertices and weights past 62 edges leave int64; every
    # signing of a forest has the matching polynomial as its char poly,
    # and the path's is mu_n = x mu_(n-1) - mu_(n-2), read in y
    g = path(70)
    mu = [Polynomial([1]), Polynomial([0, 1])]
    while len(mu) <= g.n:
        mu.append(Polynomial([0, 1]) * mu[-1] - mu[-2])
    engine = SigningEngine(g)
    assert engine.tables[0][0].dtype == object and engine.tables[0][1].dtype == object
    rng = np.random.default_rng(83)
    for f in (0, 1, 35, g.m):
        for prefix in rng.choice([-1, 1], (2, f)):
            assert engine.chars(prefix) == squared_roots(mu[g.n])


def test_signing_engine_levels_and_budget():
    g = CUBE
    engine = SigningEngine(g)
    assert len(engine.tables) == g.m + 1
    # no edge is taken at level m and no vertex is matched yet at level 0
    assert [len(m) for m, _ in (engine.tables[0], engine.tables[-1])] == [1, 1]
    # the budget counts every level's states and the leaf entries of the
    # levels a walk forms, all before the first level is formed
    work = walk_entries(engine)
    assert work > sum(len(m) for m, _ in engine.tables)
    with pytest.raises(BudgetExceededError):
        SigningEngine(g, budget=work - 1)
    SigningEngine(g, budget=work)
    with pytest.raises(ValueError):
        engine.chars([1] * (g.m + 1))
    with pytest.raises(ValueError):
        engine.chars([1, 2])


def _frontier_sizes(g, order):
    """|frontier| of each proper prefix of ``order``."""
    adj = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    placed, out = set(), []
    for v in order[:-1]:
        placed.add(v)
        out.append(len({u for p in placed for u in adj[p]} - placed))
    return out


def _relabelled(g, rng):
    perm = rng.permutation(g.n)
    return Graph(g.n, [(int(perm[a]), int(perm[b])) for a, b in g.edges])


def test_frontier_order_is_a_permutation_with_small_frontiers():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g, width in ((path(6), 1), (cycle(7), 2), (CUBE, 4),
                     (petersen(), 5), (two_triangles, 2), (Graph(3, []), 0)):
        order = frontier_order(g)
        assert sorted(order) == list(range(g.n))
        assert max(_frontier_sizes(g, order)) == width
    assert frontier_order(Graph(0, [])) == []


def _cover24():
    """A connected 24-vertex cubic Ramanujan double cover of K_{3,3}."""
    k33 = complete_bipartite(3, 3)
    g = two_lift(k33, [-1 if i in (0, 4) else 1 for i in range(k33.m)])
    return two_lift(g, [-1 if i % 5 == 0 else 1 for i in range(g.m)])


def test_frontier_order_does_not_depend_on_the_numbering():
    # Under random numberings of the 24-vertex cover the sorted-edge order
    # leaves frontiers of 10-15 vertices, the frontier order 6 every time.
    g = _cover24()
    assert g.n == 24 and g.is_connected() and is_ramanujan_bipartite(g)
    rng = np.random.default_rng(3)
    for _ in range(6):
        h = _relabelled(g, rng)
        assert max(_frontier_sizes(h, list(range(h.n)))) >= 10
        assert max(_frontier_sizes(h, frontier_order(h))) == 6


def test_frontier_order_equals_the_set_rule():
    # the counts kept per vertex, with starts dropped once their sum
    # reaches the best, pick the order the set differences pick, ties
    # included: on random dense and sparse graphs, disconnected and not
    # bipartite among them, on named graphs and on relabelled covers
    rng = np.random.default_rng(101)
    named = [path(6), cycle(7), CUBE, petersen(), complete(5), Graph(3, []), Graph(1, []),
             Graph(8, [(0, 1), (1, 2), (0, 2), (4, 5), (6, 7)]),
             _cover24(), _relabelled(_cover24(), rng)]
    cases = list(itertools.chain(named, _dense_random_graphs(), _sparse_random_graphs()))
    assert any(not g.is_connected() for g in cases)
    assert any(g.bipartition() is None for g in cases)
    for g in cases:
        assert frontier_order(g) == set_frontier_order(g), g


# ----------------------------------------------------------------------
# 2-lifts
# ----------------------------------------------------------------------


def test_two_lift_all_ones_is_disjoint_double():
    g = cycle(4)
    lift = two_lift(g, [1] * g.m)
    assert lift.n == 8 and lift.m == 8
    assert not lift.is_connected()  # two parallel copies


def test_two_lift_all_minus_on_cycle_gives_big_cycle():
    g = cycle(3)
    s = [-1] * g.m
    lift = two_lift(g, s)
    assert lift.n == 6 and lift.m == 6
    assert lift.is_connected()
    assert lift.regularity() == 2  # C6
    w = np.sort(adjacency(lift).eigenvalues())
    expect = np.sort([2 * math.cos(2 * math.pi * k / 6) for k in range(6)])
    assert np.allclose(w, expect, atol=1e-8)


def test_two_lift_spectrum_is_union():
    rng = np.random.default_rng(59)
    g = petersen()
    for _ in range(10):
        s = [int(rng.choice([-1, 1])) for _ in g.edges]
        lift = two_lift(g, s)
        w_lift = np.sort(adjacency(lift).eigenvalues())
        w_union = np.sort(np.concatenate([
            adjacency(g).eigenvalues(),
            signed_adjacency(g, s).eigenvalues(),
        ]))
        assert np.allclose(w_lift, w_union, atol=1e-8)


def _exact_char(g, s=None):
    return char_poly(adjacency(g) if s is None else signed_adjacency(g, s))


def _random_signings(rng, g, count):
    return [[int(rng.choice([-1, 1])) for _ in g.edges] for _ in range(count)]


def test_signed_adjacency_is_its_rank_one_form():
    # A_s = sum_e (e_a + s_e e_b)(e_a + s_e e_b)^T - d I on d-regular graphs
    rng = np.random.default_rng(61)
    for g in (petersen(), complete_bipartite(4, 4), _cover24()):
        d = g.regularity()
        for s in _random_signings(rng, g, 4):
            gram = np.zeros((g.n, g.n), dtype=int)
            for (a, b), sign in zip(g.edges, s):
                vec = np.zeros(g.n, dtype=int)
                vec[a], vec[b] = 1, sign
                gram += np.outer(vec, vec)
            assert np.array_equal(gram - d * np.eye(g.n, dtype=int), signed_adjacency(g, s).a)


def test_two_lift_char_poly_is_the_product_exactly():
    # chi(lift) = chi(A) chi(A_s) in integers (Bilu-Linial), beside the
    # float spectrum-union test above
    rng = np.random.default_rng(67)
    for g in (petersen(), complete_bipartite(4, 4), _cover24()):
        chi = _exact_char(g)
        for s in _random_signings(rng, g, 3):
            assert _exact_char(two_lift(g, s)) == chi * _exact_char(g, s)


def test_signed_bound_is_exact_at_equality():
    # the all-+1 cycle has top eigenvalue 2 = 2 sqrt(d - 1) exactly at d = 2;
    # the all-+1 K_{3,3} has 3 > 2 sqrt(2)
    c8, k33 = cycle(8), complete_bipartite(3, 3)
    assert roots_above(squared_roots(_exact_char(c8, [1] * c8.m)), 4) == 0
    assert roots_above(squared_roots(_exact_char(k33, [1] * k33.m)), 8) == 1


@pytest.mark.parametrize("g", [CUBE, complete_bipartite(4, 4), cycle(8), walked_cover24()],
                         ids=["cube", "K44", "C8", "cover24"])
def test_signed_gram_is_chi_of_a_s_at_half_degree(g):
    # on equal sides chi(A_s)(x) = chi(B_s B_s^T)(x^2), whatever the labels
    rng = np.random.default_rng(67)
    perm = rng.permutation(g.n)
    h = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
    for s in _random_signings(rng, h, 3):
        gram = signed_gram(h, s)
        assert gram.n == h.n // 2
        assert char_poly(gram) == squared_roots(_exact_char(h, s))
    with pytest.raises(ValueError, match="not bipartite"):
        signed_gram(complete(4), [1] * 6)


def test_squared_roots_splits_even_and_odd_polynomials():
    assert squared_roots(Polynomial([-1, 0, 1])) == Polynomial([-1, 1])       # x^2 - 1
    assert squared_roots(Polynomial([0, -3, 0, 1])) == Polynomial([-3, 1])    # x^3 - 3x
    assert squared_roots(matching_poly(cycle(4))) == Polynomial([2, -4, 1])
    with pytest.raises(ValueError):
        squared_roots(Polynomial([1, 1, 1]))


def test_is_ramanujan_bipartite():
    assert is_ramanujan_bipartite(complete_bipartite(3, 3))
    assert is_ramanujan_bipartite(cycle(4))
    with pytest.raises(ValueError):
        is_ramanujan_bipartite(complete(4))  # not bipartite
    with pytest.raises(ValueError):
        is_ramanujan_bipartite(path(4))  # not regular
    with pytest.raises(ValueError):
        is_ramanujan_bipartite(Graph(4, [(0, 1), (2, 3)]))  # disconnected


def test_even_cycles_are_ramanujan_at_equality():
    # d = 2: the bound 2 sqrt(d - 1) = 2 = d, so the trivial pair sits on it
    # and every nontrivial eigenvalue 2 cos(2 pi k / n) is within it
    for n in (4, 6, 8, 10, 16):
        assert is_ramanujan_bipartite(cycle(n))
    assert is_ramanujan_bipartite(complete_bipartite(1, 1))


def test_prism_graph_is_not_ramanujan():
    # C16 x K2: 3-regular, bipartite, connected, eigenvalues
    # 2cos(2 pi k/16) +- 1.  The largest nontrivial one is
    # 2cos(pi/8) + 1 = 2.8478 > 2 sqrt 2 = 2.8284, so not Ramanujan.
    n = 16
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))                    # outer cycle
        edges.append((n + i, n + (i + 1) % n))            # inner cycle
        edges.append((i, n + i))                          # rungs
    g = Graph(2 * n, edges)
    assert g.regularity() == 3
    assert g.bipartition() is not None
    w = np.sort(adjacency(g).eigenvalues())
    assert np.max(np.abs(w[1:-1])) == pytest.approx(2 * math.cos(math.pi / 8) + 1)
    assert not is_ramanujan_bipartite(g)


# ----------------------------------------------------------------------
# Laplacian spectral approximation
# ----------------------------------------------------------------------


def test_spectral_approx_factors_self():
    g = complete(4)
    k1, k2 = spectral_approx_factors(g, g)
    assert k1 == pytest.approx(1) and k2 == pytest.approx(1)


def test_spectral_approx_factors_scaling():
    g = complete(4)
    k1, k2 = spectral_approx_factors(g, g, g_weights=[2.0] * g.m)
    assert k1 == pytest.approx(2) and k2 == pytest.approx(2)


def test_spectral_approx_factors_cycle_vs_complete():
    # L_C4 vs L_K4: generalized eigenvalues computed independently
    c4, k4 = cycle(4), complete(4)
    k1, k2 = spectral_approx_factors(c4, k4)
    # K4 laplacian has eigenvalue 4 (x3); C4 has 2, 2, 4 on the complement;
    # ratios 4/2, 4/2, 4/4 -> extremes 1 and 2
    assert k1 == pytest.approx(1, abs=1e-9)
    assert k2 == pytest.approx(2, abs=1e-9)


def test_spectral_approx_factors_sandwich_randomized():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, all_edges)  # complete
        keep = [e for e in all_edges if rng.random() < 0.7]
        h = Graph(n, keep)
        if not h.is_connected():
            continue
        k1, k2 = spectral_approx_factors(h, g)
        lg = laplacian(g).a.astype(float)
        lh = laplacian(h).a.astype(float)
        # verify kappa1 L_H <= L_G <= kappa2 L_H on random vectors orthogonal to ones
        for _ in range(20):
            v = rng.standard_normal(n)
            v -= v.mean()
            qg = v @ lg @ v
            qh = v @ lh @ v
            assert k1 * qh <= qg + 1e-7 * abs(qg)
            assert qg <= k2 * qh + 1e-7 * abs(qg)


def test_spectral_approx_factors_match_general_eigensolve():
    # the Cholesky reduction against the eigenvalues of B^{-1} A, with A
    # and B the Laplacians projected onto the complement of the ones vector
    rng = np.random.default_rng(113)
    checked = 0
    while checked < 10:
        n = int(rng.integers(4, 10))
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        h = Graph(n, [e for e in all_edges if rng.random() < 0.6])
        g_edges = [e for e in all_edges if rng.random() < 0.6]
        g = Graph(n, g_edges)
        weights = rng.uniform(0.5, 2.0, len(g_edges)).tolist()
        if not (h.is_connected() and g.is_connected()):
            continue
        q = np.linalg.svd(np.eye(n) - np.ones((n, n)) / n)[0][:, : n - 1]
        a = q.T @ laplacian(g, weights).a.astype(float) @ q
        b = q.T @ laplacian(h).a.astype(float) @ q
        w = np.sort(np.linalg.eigvals(np.linalg.solve(b, a)).real)
        k1, k2 = spectral_approx_factors(h, g, g_weights=weights)
        assert k1 == pytest.approx(w[0], rel=1e-9)
        assert k2 == pytest.approx(w[-1], rel=1e-9)
        checked += 1


def test_spectral_approx_factors_requires_connected():
    with pytest.raises(ValueError):
        spectral_approx_factors(Graph(4, [(0, 1), (2, 3)]), complete(4))
    with pytest.raises(ValueError):
        spectral_approx_factors(complete(4), complete(5))
