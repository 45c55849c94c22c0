"""Greedy conditional-expectation walks and their three instantiations.

Small instances are audited against exhaustive enumeration of the whole
outcome tree; the certificates' pledged-vs-achieved invariant is the
load-bearing assertion throughout.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from interlace import (
    Polynomial,
    SymMatrix,
    char_poly,
    charpoly_batch,
    apply_shift_operator,
    shift_roots,
    kth_largest_root,
    real_roots,
    is_real_rooted,
    have_common_interlacing,
    roots_above,
    sturm_root_count,
    top_root,
    compare_top_roots,
    matching_poly,
    DiscreteRandomVector,
    VectorSystem,
    AssignmentState,
    SelectionCertificate,
    BudgetExceededError,
    greedy_walk,
    walk_costs,
    restricted_invertibility_bound,
    restricted_invertibility_select,
    weaver_partition,
    weaver_bound,
    signing_vectors,
    signing_select,
    Graph,
    Signing,
    signed_adjacency,
    frontier_order,
)
import interlace.select as select_module
from oracles import conditional_expected_poly, enumeration_walk


# ----------------------------------------------------------------------
# VectorSystem
# ----------------------------------------------------------------------


def test_vector_system_basics():
    vs = VectorSystem([[1, 0], [0, 1]])
    assert vs.m == 2 and vs.dim == 2
    assert vs.is_exact
    assert vs.is_isotropic()
    assert vs.max_norm_sq() == pytest.approx(1.0)
    assert vs.gram_sum() == SymMatrix.identity(2, exact=True)


def test_vector_system_isotropy_defect():
    vs = VectorSystem([[2.0, 0.0], [0.0, 1.0]])
    assert vs.isotropy_defect() == pytest.approx(3.0)  # ||diag(4,1) - I||
    assert not vs.is_isotropic()


def test_random_isotropic_systems_are_isotropic():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 2 * n + 4))
        vs = VectorSystem.random_isotropic(n, m, rng)
        assert vs.is_isotropic(1e-8)


# ----------------------------------------------------------------------
# AssignmentState and conditional expectations
# ----------------------------------------------------------------------


def test_assignment_state_validation():
    r = DiscreteRandomVector.two_point([1, 0], [0, 1])
    with pytest.raises(ValueError):
        AssignmentState(fixed=[], remaining=[r], k=1, direction="sideways")
    with pytest.raises(ValueError):
        AssignmentState(fixed=[], remaining=[r], k=0)
    with pytest.raises(ValueError):
        AssignmentState(fixed=[], remaining=[r], k=3)  # k > dim
    with pytest.raises(ValueError):
        AssignmentState(fixed=[[1, 0, 0]], remaining=[r], k=1)  # dim clash
    with pytest.raises(ValueError):
        AssignmentState(fixed=[], remaining=[], k=1)


def test_conditional_expected_poly_no_randomness():
    st = AssignmentState(fixed=[[1, 0], [0, 1]], remaining=[], k=1)
    # nothing left to average: just char_poly of the fixed Gram sum = I
    assert conditional_expected_poly(st) == Polynomial([1, -2, 1])


def test_conditional_expected_poly_exact_average():
    r = DiscreteRandomVector.two_point([1, 0], [0, 1])
    st = AssignmentState(fixed=[], remaining=[r], k=1)
    # (char(e1e1^T) + char(e2e2^T))/2 = x(x-1)
    assert conditional_expected_poly(st) == Polynomial([0, -1, 1])


def test_conditional_expected_poly_cross_check_agrees():
    rng = np.random.default_rng(71)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        fixed = [rng.standard_normal(d) for _ in range(int(rng.integers(0, 3)))]
        rvs = [DiscreteRandomVector.two_point(rng.standard_normal(d).tolist(),
                                              rng.standard_normal(d).tolist())
               for _ in range(int(rng.integers(1, 4)))]
        st = AssignmentState(fixed=fixed, remaining=rvs, k=1)
        conditional_expected_poly(st, cross_check=True)  # must not raise


# ----------------------------------------------------------------------
# greedy_walk
# ----------------------------------------------------------------------


def _all_leaf_values(rvs, k):
    """lambda_k of every full outcome, by brute force."""
    vals = []
    for combo in itertools.product(*[r.support for r in rvs]):
        acc = np.zeros((len(np.asarray(combo[0][1])),) * 2)
        for _, v in combo:
            a = np.asarray(v, dtype=float)
            acc += np.outer(a, a)
        w = np.linalg.eigvalsh(acc)
        vals.append(float(w[-k]))
    return vals


def test_greedy_walk_certificate_maximize():
    rng = np.random.default_rng(73)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        rvs = [DiscreteRandomVector.two_point(rng.standard_normal(d).tolist(),
                                              rng.standard_normal(d).tolist())
               for _ in range(m)]
        k = int(rng.integers(1, d + 1))
        st = AssignmentState(fixed=[], remaining=rvs, k=k, direction="maximize")
        cert = greedy_walk(st)
        assert cert.valid()
        assert len(cert.choices) == m
        assert len(cert.levels) == m
        # the pledge must lie between the extreme leaves
        leaves = _all_leaf_values(rvs, k)
        assert min(leaves) - 1e-7 <= cert.pledged <= max(leaves) + 1e-7
        # the achieved value is a genuine leaf of the outcome tree
        assert any(abs(cert.achieved - lv) < 1e-7 for lv in leaves)


def test_greedy_walk_certificate_minimize():
    rng = np.random.default_rng(79)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        rvs = [DiscreteRandomVector.two_point(rng.standard_normal(d).tolist(),
                                              rng.standard_normal(d).tolist())
               for _ in range(m)]
        st = AssignmentState(fixed=[], remaining=rvs, k=1, direction="minimize")
        cert = greedy_walk(st)
        assert cert.valid()
        leaves = _all_leaf_values(rvs, 1)
        assert cert.achieved >= min(leaves) - 1e-7  # no better than the best leaf
        assert cert.achieved <= cert.pledged + 1e-7


def test_greedy_walk_levels_are_monotone_toward_target():
    # in the maximize direction each fixing can only improve (or keep)
    # the conditional value relative to the pledge; the final level must
    # equal the achieved value up to root-finding error
    rng = np.random.default_rng(83)
    d, m = 3, 4
    rvs = [DiscreteRandomVector.two_point(rng.standard_normal(d).tolist(),
                                          rng.standard_normal(d).tolist())
           for _ in range(m)]
    st = AssignmentState(fixed=[], remaining=rvs, k=1, direction="maximize")
    cert = greedy_walk(st)
    seq = [cert.pledged] + list(cert.levels)
    for a, b in zip(seq, seq[1:]):
        assert b >= a - 1e-7
    assert cert.levels[-1] == pytest.approx(cert.achieved, abs=1e-6)


def test_greedy_walk_interlacing_check_passes():
    rng = np.random.default_rng(89)
    d, m = 3, 3
    rvs = [DiscreteRandomVector.two_point(rng.standard_normal(d).tolist(),
                                          rng.standard_normal(d).tolist())
           for _ in range(m)]
    st = AssignmentState(fixed=[], remaining=rvs, k=2, direction="maximize")
    cert = greedy_walk(st)
    assert cert.valid()
    # every visited sibling family has a common interlacing, the fact
    # that makes greedy sound; children by enumeration, independently
    fixed = []
    for level, choice in enumerate(cert.choices):
        children = [conditional_expected_poly(AssignmentState(
            fixed=fixed + [v], remaining=rvs[level + 1:], k=2))
            for _, v in rvs[level].support]
        assert have_common_interlacing(children)
        fixed.append(rvs[level].support[choice][1])


def test_certificate_json_round_trip():
    cert = SelectionCertificate(
        choices=[0, 1], final_poly=Polynomial([0.0, -1.0, 1.0]),
        achieved=1.0, pledged=0.5, k=1, direction="maximize", levels=[0.7, 1.0])
    payload = cert.to_json()
    assert payload["valid"] is True
    assert payload["choices"] == [0, 1]
    assert payload["final_poly"] == [0.0, -1.0, 1.0]


def test_certificate_invariant_direction():
    bad = SelectionCertificate(choices=[], final_poly=Polynomial([1]),
                               achieved=0.3, pledged=0.5, k=1,
                               direction="maximize")
    assert not bad.valid()
    good = SelectionCertificate(choices=[], final_poly=Polynomial([1]),
                                achieved=0.3, pledged=0.5, k=1,
                                direction="minimize")
    assert good.valid()


# ----------------------------------------------------------------------
# Restricted invertibility
# ----------------------------------------------------------------------


def test_ri_bound_formula():
    assert restricted_invertibility_bound(4, 8, 1) == pytest.approx((1 - 0.5) ** 2 / 2)
    assert restricted_invertibility_bound(9, 9, 4) == pytest.approx((1 - 2 / 3) ** 2)


def test_ri_orthonormal_basis():
    vs = VectorSystem([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    chosen, cert = restricted_invertibility_select(vs, 2)
    assert len(chosen) == len(set(chosen)) == 2
    assert cert.valid()
    assert cert.achieved == pytest.approx(1.0)  # distinct basis vectors
    assert cert.pledged >= restricted_invertibility_bound(3, 3, 2) - 1e-9


def test_ri_duplicated_basis_exact():
    # four half-scaled copies of each basis vector: isotropic with
    # Fraction entries, so the level loop runs on exact polynomials
    n = 3
    vecs = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1, 2)
        vecs.extend([e] * 4)
    vs = VectorSystem(vecs)
    assert vs.is_exact and vs.is_isotropic()
    chosen, cert = restricted_invertibility_select(vs, 2)
    assert cert.valid()
    # picking two distinct directions gives lambda_2 = 1/4
    assert cert.achieved == pytest.approx(0.25)
    assert cert.achieved >= restricted_invertibility_bound(n, 4 * n, 2) - 1e-7


def test_ri_random_isotropic():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(n + 1, 2 * n + 3))
        k = int(rng.integers(1, n))
        vs = VectorSystem.random_isotropic(n, m, rng)
        chosen, cert = restricted_invertibility_select(vs, k)
        assert len(set(chosen)) == k
        assert cert.valid()
        assert cert.achieved >= restricted_invertibility_bound(n, m, k) - 1e-7
        # certificate matches a direct eigenvalue computation
        sub = np.array([np.asarray(vs.vectors[i], dtype=float) for i in chosen])
        gram = sub.T @ sub
        w = np.linalg.eigvalsh(gram)
        assert cert.achieved == pytest.approx(float(w[-k]), abs=1e-9)


def _coefficient_walk(system, k):
    """The float ri walk through monomial coefficients, as the reference.

    Each level forms every candidate's characteristic polynomial with
    ``charpoly_batch``, applies the shift operator to its coefficients and
    takes companion roots.  Returns (chosen, per-level candidate scores).
    """
    vecs = np.asarray(system.vectors, dtype=float)
    m, n = vecs.shape
    outers = vecs[:, :, None] * vecs[:, None, :]
    base = np.zeros((n, n))
    chosen, scores = [], []
    for lvl in range(k):
        vals = []
        for row in charpoly_batch(base + outers):
            q = Polynomial(row)
            for _ in range(k - lvl - 1):
                q = apply_shift_operator(q, 1.0 / m)
            vals.append(kth_largest_root(q, k))
        best = int(np.argmax(vals))
        base = base + outers[best]
        chosen.append(best)
        scores.append(vals)
    return chosen, scores


def test_ri_float_walk_matches_coefficient_walk():
    rng = np.random.default_rng(20261018)
    sizes = [(4, 6, 2), (5, 9, 3), (6, 10, 3), (8, 16, 4), (10, 20, 5),
             (12, 30, 6), (16, 48, 8), (16, 40, 10)]
    for n, m, k in sizes:
        vs = VectorSystem.random_isotropic(n, m, rng)
        chosen, cert = restricted_invertibility_select(vs, k)
        ref_chosen, ref_scores = _coefficient_walk(vs, k)
        for lvl, (j, j_ref) in enumerate(zip(chosen, ref_chosen)):
            vals = ref_scores[lvl]
            if j != j_ref:
                # only a tie may send the walks apart
                assert abs(vals[j] - vals[j_ref]) < 1e-12
                break
            assert cert.levels[lvl] == pytest.approx(vals[j], rel=1e-9)


def test_ri_basis_levels_are_exact():
    # the last level is lambda_k of a Gram sum of distinct basis vectors;
    # companion roots of its repeated eigenvalue missed it by up to ~2e-6
    _, cert = restricted_invertibility_select(VectorSystem(np.eye(4)), 3)
    assert cert.levels[-1] == pytest.approx(1.0, abs=1e-12)
    halves = [row * math.sqrt(0.5) for row in np.eye(4) for _ in range(2)]
    _, cert = restricted_invertibility_select(VectorSystem(halves), 3)
    assert cert.levels[-1] == pytest.approx(0.5, abs=1e-12)
    # exact systems: the exact Gram polynomials have the repeated roots
    _, cert = restricted_invertibility_select(VectorSystem(np.eye(4, dtype=int)), 3)
    assert cert.levels[-1] == pytest.approx(1.0, abs=1e-12)
    quarters = [row * Fraction(1, 2) for row in np.eye(4, dtype=int) for _ in range(4)]
    _, cert = restricted_invertibility_select(VectorSystem(quarters), 3)
    assert cert.levels[-1] == pytest.approx(0.25, abs=1e-12)


def _laguerre_pledge_roots(n, m, k):
    """Roots of (1 - D/m)^k x^n other than 0, by Golub-Welsch."""
    return np.sort(scipy.special.roots_genlaguerre(k, n - k)[0])[::-1] / m


@pytest.mark.parametrize("n,m,k", [(16, 48, 8), (40, 80, 20), (128, 256, 64)])
def test_ri_pledge_matches_laguerre_roots(n, m, k):
    roots, zeros = np.empty((1, 0)), n
    for _ in range(k):
        roots, zeros = shift_roots(roots, zeros, 1.0 / m)
    assert zeros == n - k
    ref = _laguerre_pledge_roots(n, m, k)
    assert np.max(np.abs(roots[0] - ref) / ref) <= 1e-12
    assert roots[0, -1] >= restricted_invertibility_bound(n, m, k)


@pytest.mark.parametrize("seed", [0, 1])
def test_ri_n40_gate(seed):
    # the coefficient walk stops here with NotRealRootedError
    n, m, k = 40, 80, 20
    vs = VectorSystem.random_isotropic(n, m, np.random.default_rng(seed))
    chosen, cert = restricted_invertibility_select(vs, k)
    assert len(chosen) == len(set(chosen)) == k
    assert cert.valid()
    assert cert.achieved >= restricted_invertibility_bound(n, m, k) - 1e-7
    assert cert.pledged == pytest.approx(_laguerre_pledge_roots(n, m, k)[-1], rel=1e-12)


def test_ri_rejects_bad_inputs():
    aniso = VectorSystem([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        restricted_invertibility_select(aniso, 1)
    vs = VectorSystem([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        restricted_invertibility_select(vs, 2)  # k must stay below n
    with pytest.raises(ValueError):
        restricted_invertibility_select(vs, 0)


# ----------------------------------------------------------------------
# Weaver partitions
# ----------------------------------------------------------------------


def test_weaver_bound_formula():
    assert weaver_bound(0.5) == pytest.approx((1 + 1.0) ** 2 / 2)
    assert weaver_bound(2) == pytest.approx((1 + 2.0) ** 2 / 2)


def test_weaver_duplicated_basis():
    # two half-norm copies of each basis direction; the balanced split
    # puts one copy on each side, giving block norms exactly 1/2
    n = 3
    vecs = []
    for i in range(n):
        e = [0.0] * n
        e[i] = math.sqrt(0.5)
        vecs.extend([e, e])
    vs = VectorSystem(vecs)
    s1, s2, cert = weaver_partition(vs, 0.5)
    assert sorted(s1 + s2) == list(range(2 * n))
    assert cert.valid()
    g1 = sum(np.outer(vs.vectors[i], vs.vectors[i]) for i in s1)
    g2 = sum(np.outer(vs.vectors[i], vs.vectors[i]) for i in s2)
    bound = weaver_bound(0.5)
    assert np.linalg.eigvalsh(g1)[-1] <= bound + 1e-7
    assert np.linalg.eigvalsh(g2)[-1] <= bound + 1e-7


def test_weaver_exhaustive_oracle_small():
    rng = np.random.default_rng(101)
    vs = VectorSystem.random_isotropic(3, 8, rng)
    alpha = vs.max_norm_sq()
    s1, s2, cert = weaver_partition(vs, alpha)
    assert cert.valid()
    realized = max(
        np.linalg.eigvalsh(sum(np.outer(vs.vectors[i], vs.vectors[i])
                               for i in side) if side else np.zeros((3, 3)))[-1]
        for side in (s1, s2))
    # brute force over all 2^8 partitions: the greedy result cannot beat
    # the true optimum, and must meet the pledged bound
    best = math.inf
    arrs = [np.asarray(v, dtype=float) for v in vs.vectors]
    for mask in range(2 ** 8):
        a = np.zeros((3, 3))
        b = np.zeros((3, 3))
        for i in range(8):
            block = a if (mask >> i) & 1 else b
            block += np.outer(arrs[i], arrs[i])
        val = max(np.linalg.eigvalsh(a)[-1], np.linalg.eigvalsh(b)[-1])
        best = min(best, val)
    assert best - 1e-9 <= realized <= cert.pledged + 1e-7
    assert realized <= weaver_bound(alpha) + 1e-7


def test_weaver_rejects_alpha_below_max_norm():
    vs = VectorSystem([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        weaver_partition(vs, 0.5)


# ----------------------------------------------------------------------
# Adjacency signings
# ----------------------------------------------------------------------


def test_signing_vectors_gram_identity():
    # sum over edges of the outer products equals A_s + dI
    g = Graph.complete(4)
    rvs = signing_vectors(g, exact=True)
    assert len(rvs) == g.m
    d = g.regularity()
    for bits in itertools.product([0, 1], repeat=g.m):
        acc = np.zeros((g.n, g.n), dtype=object)
        for r, b in zip(rvs, bits):
            _, v = r.support[b]
            a = np.asarray(v)
            acc = acc + np.outer(a, a)
        s = Signing({e: 1 if b == 0 else -1 for e, b in zip(g.edges, bits)})
        expect = signed_adjacency(g, s).a + d * np.eye(g.n, dtype=int)
        assert (acc == expect).all()


def test_signing_select_k4_matches_exhaustive_oracle():
    g = Graph.complete(4)
    d = 3
    signing, cert = signing_select(g)
    assert cert.valid()
    lam = float(np.max(signed_adjacency(g, signing).eigenvalues()))
    # theory: the greedy signed spectral radius stays below the top root
    # of the matching polynomial (here sqrt(3 + sqrt 6))
    top_matching = real_roots(matching_poly(g).to_float())[0]
    assert top_matching == pytest.approx(math.sqrt(3 + math.sqrt(6)))
    assert lam <= top_matching + 1e-7
    assert cert.pledged == pytest.approx(top_matching + d, abs=1e-9)
    # exhaustive check over all 64 signings: greedy cannot beat the optimum
    best = math.inf
    for bits in itertools.product([1, -1], repeat=g.m):
        s = Signing(dict(zip(g.edges, bits)))
        best = min(best, float(np.max(signed_adjacency(g, s).eigenvalues())))
    assert lam >= best - 1e-9


def test_signing_select_k33():
    g = Graph.complete_bipartite(3, 3)
    signing, cert = signing_select(g)
    assert cert.valid()
    lam = float(np.max(signed_adjacency(g, signing).eigenvalues()))
    assert lam <= 2 * math.sqrt(2) + 1e-7  # Ramanujan threshold for d=3


def test_signing_select_matches_exact_enumeration_walk():
    # Reference: the exact-mode greedy walk over the rank-one signing vectors,
    # by its cheaper route (every remaining signing enumerated, or exact mixed
    # characteristic polynomials from the exterior-power engine), in the same
    # edge order (the graph relabelled by frontier_order).
    cube = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])
    for g in (Graph.complete(4), Graph.complete_bipartite(3, 3), Graph.complete(5), cube):
        d = g.regularity()
        order = frontier_order(g)
        label = {v: i for i, v in enumerate(order)}
        walk = Graph(g.n, [(label[a], label[b]) for a, b in g.edges])
        state = AssignmentState(fixed=[], remaining=signing_vectors(walk, exact=True),
                                k=1, direction="minimize")
        ref = greedy_walk(state)
        signing, cert = signing_select(g)
        assert cert.choices == ref.choices
        assert [signing[(order[a], order[b])] for a, b in walk.edges] \
            == [1 - 2 * c for c in ref.choices]
        assert abs(cert.pledged - (real_roots(matching_poly(g))[0] + d)) <= 1e-12
        assert cert.valid()
        assert cert.levels[-1] <= cert.pledged + 1e-12
        assert cert.achieved == pytest.approx(ref.achieved, abs=1e-9)


def _recorded_signing_walk(monkeypatch, g):
    """signing_select on g, recording each level's children and every top_root call."""
    pairs, ranked = [], []
    chars, top = select_module.expected_signed_chars, select_module.top_root

    def recorded_chars(*args, **kwargs):
        out = chars(*args, **kwargs)
        pairs.append(out)
        return out

    def recorded_top(p):
        ranked.append(p)
        return top(p)

    monkeypatch.setattr(select_module, "expected_signed_chars", recorded_chars)
    monkeypatch.setattr(select_module, "top_root", recorded_top)
    _, cert = signing_select(g)
    return cert, pairs, ranked


def _random_cubic_bipartite(half: int, seed: int) -> Graph:
    """A simple union of three random perfect matchings between two halves."""
    rng = np.random.default_rng(seed)
    while True:
        edges = {(i, half + int(j)) for _ in range(3)
                 for i, j in enumerate(rng.permutation(half))}
        if len(edges) == 3 * half:
            return Graph(2 * half, sorted(edges))


CUBE = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])


@pytest.mark.parametrize("g", [Graph.complete(4), Graph.complete_bipartite(3, 3), CUBE,
                               Graph.petersen(), _random_cubic_bipartite(5, 3)],
                         ids=["K4", "K33", "cube", "petersen", "cubic10"])
def test_signing_walk_children_are_real_rooted_and_certified(monkeypatch, g):
    # top_root counts roots by Descartes' rule, exact only for real-rooted
    # input; the walk relies on Phi_F being real-rooted by theorem and does
    # not check it, so every Phi_F it evaluates is checked here, exactly.
    cert, pairs, _ = _recorded_signing_walk(monkeypatch, g)
    assert len(pairs) == g.m and cert.valid()
    for p in {q for pair in pairs for q in pair}:
        assert is_real_rooted(p)
        t = top_root(p)
        assert t.lo < t.root <= t.hi
        assert roots_above(p, t.hi) == 0 and roots_above(p, t.lo) == t.mult >= 1
        assert sturm_root_count(p, t.lo, t.hi) == 1
        assert abs(t.root - real_roots(p)[0]) <= 1e-12 * (1 + abs(t.root))


def test_signing_walk_ranks_every_polynomial_once(monkeypatch):
    cert, pairs, ranked = _recorded_signing_walk(monkeypatch, CUBE)
    # one edge closes no cycle, so the first children agree, and their
    # average, the pledge's mu_G, is the only polynomial ranked for them
    assert pairs[0][0] == pairs[0][1]
    assert ranked[0] == matching_poly(CUBE)
    assert cert.pledged == top_root(matching_poly(CUBE)).root + 3
    # identical children reuse their parent's top root; distinct ones are
    # ranked once each
    distinct = sum(plus != minus for plus, minus in pairs)
    assert 0 < distinct < len(pairs)
    assert len(ranked) == 1 + 2 * distinct


def test_signing_walk_sends_distinct_children_with_equal_top_roots_to_plus(monkeypatch):
    # On two disjoint copies of K4 every Phi_F factors into the two
    # copies' parts, so distinct children can share the other part's top root.
    k4 = Graph.complete(4)
    g = Graph(8, list(k4.edges) + [(a + 4, b + 4) for a, b in k4.edges])
    cert, pairs, _ = _recorded_signing_walk(monkeypatch, g)
    ties = [level for level, (plus, minus) in enumerate(pairs) if plus != minus
            and abs(real_roots(plus)[0] - real_roots(minus)[0]) <= 1e-9]
    assert ties
    for level in ties:
        plus, minus = pairs[level]
        assert compare_top_roots(plus, minus) == 0
        assert cert.choices[level] == 0
    assert cert.valid()


def test_signing_select_requires_regular():
    with pytest.raises(ValueError):
        signing_select(Graph.path(3))
    with pytest.raises(ValueError):
        signing_select(Graph(2, []))


# ----------------------------------------------------------------------
# Engine walks against enumeration walks
# ----------------------------------------------------------------------


def _lifted_state(vs: VectorSystem) -> AssignmentState:
    """weaver_partition's walk: each v is (v, 0) or (0, v) with probability 1/2."""
    d = vs.dim
    zero = np.zeros(d, dtype=object if vs.is_exact else float)
    rvs = [DiscreteRandomVector.two_point(np.concatenate([row, zero]),
                                          np.concatenate([zero, row]))
           for row in vs.vectors]
    return AssignmentState(fixed=[], remaining=rvs, k=1, direction="minimize")


def _rational_isotropic(d: int, weights, order) -> VectorSystem:
    """Rows of w Q for rational rotations Q, with the w^2 summing to one,
    permuted by ``order``."""
    rows = []
    for t, w in enumerate(weights):
        q = np.eye(d, dtype=object)
        for i in range(d - 1):  # Givens rotations by Pythagorean triples
            c, s = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
                    (Fraction(8, 17), Fraction(15, 17))][(i + t) % 3]
            g = np.eye(d, dtype=object)
            g[i, i], g[i, i + 1], g[i + 1, i], g[i + 1, i + 1] = c, -s, s, c
            q = q.dot(g)
        rows.extend(w * q)
    return VectorSystem(np.array([rows[i] for i in order], dtype=object))


def test_exact_weaver_choices_equal_enumeration_walk():
    half, three, four = Fraction(1, 2), Fraction(3, 5), Fraction(4, 5)
    systems = [_rational_isotropic(2, [half] * 4, [5, 0, 3, 6, 1, 7, 2, 4]),
               _rational_isotropic(2, [three * three, three * four, four], [4, 1, 5, 0, 2, 3]),
               _rational_isotropic(3, [three, four], [3, 0, 4, 1, 5, 2]),
               _rational_isotropic(2, [three, four], [0, 1, 2, 3])]
    for vs in systems:
        assert vs.is_exact and vs.gram_sum() == SymMatrix.identity(vs.dim, exact=True)
        assert vs.m <= 8
        state = _lifted_state(vs)
        choices, levels, pledged = enumeration_walk(state)
        for route in ("engine", "enumerate"):
            cert = greedy_walk(state, route=route)
            assert cert.choices == choices
            assert cert.levels == levels
            assert cert.pledged == pledged
            assert cert.valid()
        s1, s2, via_weaver = weaver_partition(vs, vs.max_norm_sq())
        assert via_weaver.choices == choices


def test_float_weaver_levels_match_enumeration_walk():
    rng = np.random.default_rng(241)
    for m in (10, 12, 14):
        vs = VectorSystem.random_isotropic(3, m, rng)
        state = _lifted_state(vs)
        choices, levels, pledged = enumeration_walk(state)
        cert = greedy_walk(state, route="engine")
        assert abs(cert.pledged - pledged) <= 1e-10
        assert max(abs(a - b) for a, b in zip(cert.levels, levels)) <= 1e-10
        # the two level-0 children are equal in exact arithmetic, so rounding
        # may break the tie the other way and mirror the whole walk
        assert cert.choices in (choices, [1 - c for c in choices])


def test_weaver_m64_certifies():
    rng = np.random.default_rng(251)
    vs = VectorSystem.random_isotropic(3, 64, rng)
    alpha = vs.max_norm_sq()
    s1, s2, cert = weaver_partition(vs, alpha)
    assert sorted(s1 + s2) == list(range(64))
    assert cert.valid()
    for side in (s1, s2):
        block = vs.vectors[side].T @ vs.vectors[side]
        assert np.linalg.eigvalsh(block)[-1] <= weaver_bound(alpha) + 1e-7


def test_exact_walk_with_a_zero_vector_and_a_large_common_scale():
    # the common scale is 2 * 10^20; the zero vector's weight would be that
    # large too, past int64, but a zero vector adds nothing to the tables
    big = 10 ** 10
    r = DiscreteRandomVector.two_point(np.array([Fraction(1, big), 0], dtype=object),
                                       np.array([0, Fraction(2, big)], dtype=object))
    state = AssignmentState(fixed=[np.array([0, 0], dtype=object)], remaining=[r, r], k=1)
    choices, levels, pledged = enumeration_walk(state)
    cert = greedy_walk(state, route="engine")
    assert (cert.choices, cert.levels, cert.pledged) == (choices, levels, pledged)


def test_greedy_walk_budget_is_checked_before_the_first_step():
    rng = np.random.default_rng(257)
    vs = VectorSystem.random_isotropic(3, 25, rng)
    cost = walk_costs(6, 0, [2] * 25)["engine"]
    assert cost == (100 + 325) * math.comb(12, 6)
    with pytest.raises(BudgetExceededError):
        weaver_partition(vs, vs.max_norm_sq(), budget=cost - 1)
    s1, s2, cert = weaver_partition(vs, vs.max_norm_sq(), budget=cost)
    assert cert.valid()
    with pytest.raises(BudgetExceededError):  # a forced route has no fallback
        greedy_walk(_lifted_state(vs), route="enumerate")
    with pytest.raises(ValueError):
        greedy_walk(_lifted_state(vs), route="ring")


def test_walk_costs_pick_enumeration_in_high_dimension():
    # two-point lifts: 2^m + 2 (2^m - 1) outcomes, n^2 entries each, against
    # 4m + m(m+1)/2 rank-one updates of C(2n, n) entries
    assert walk_costs(12, 0, [2] * 6) == {"enumerate": 190 * 144,
                                          "engine": 45 * math.comb(24, 12)}
    assert walk_costs(6, 0, [2] * 12)["engine"] < walk_costs(6, 0, [2] * 12)["enumerate"]
    assert walk_costs(4, 1, [3]) == {"enumerate": 6 * 16, "engine": 9 * math.comb(8, 4)}


def test_weaver_dimension_7_certifies_at_the_default_budget():
    # the engine alone would cost 45 x C(28, 14), about 1.8e9 entries, over the
    # default budget; enumeration costs 190 x 196 and certifies
    rng = np.random.default_rng(269)
    vs = VectorSystem.random_isotropic(7, 7, rng)
    alpha = vs.max_norm_sq()
    s1, s2, cert = weaver_partition(vs, alpha)
    assert sorted(s1 + s2) == list(range(7))
    assert cert.valid()
    choices, levels, pledged = enumeration_walk(_lifted_state(vs))
    assert cert.choices == choices and cert.levels == levels
    for side in (s1, s2):
        block = vs.vectors[side].T @ vs.vectors[side]
        assert np.linalg.eigvalsh(block)[-1] <= weaver_bound(alpha) + 1e-7


def test_routes_agree_on_a_walk_with_fixed_vectors_and_three_point_supports():
    rng = np.random.default_rng(271)
    fixed = [rng.integers(-2, 3, size=3).astype(object) for _ in range(2)]
    rvs = [DiscreteRandomVector([(Fraction(1, 3), rng.integers(-2, 3, size=3)),
                                 (Fraction(1, 6), rng.integers(-2, 3, size=3)),
                                 (Fraction(1, 2), rng.integers(-2, 3, size=3))])
           for _ in range(4)]
    for k, direction in ((1, "minimize"), (2, "maximize")):
        state = AssignmentState(fixed=fixed, remaining=rvs, k=k, direction=direction)
        a = greedy_walk(state, route="engine")
        b = greedy_walk(state, route="enumerate")
        assert (a.choices, a.levels, a.pledged) == (b.choices, b.levels, b.pledged)
        assert a.final_poly == b.final_poly and a.valid()
