"""Greedy conditional-expectation walks and their three instantiations.

Small instances are audited against exhaustive enumeration of the whole
outcome tree; the certificates' pledged-vs-achieved invariant is the
load-bearing assertion throughout.
"""

import inspect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from interlace import (
    Polynomial,
    SymMatrix,
    char_poly,
    charpoly_batch,
    charpoly_batch_exact,
    real_roots,
    roots_above,
    shift_chain,
    TopRoot,
    VectorSystem,
    SelectionCertificate,
    BudgetExceededError,
    restricted_invertibility_bound,
    restricted_invertibility_select,
    weaver_partition,
    weaver_bound,
    signing_select,
    two_lift,
    Graph,
    SigningEngine,
    signed_adjacency,
    frontier_order,
)
import interlace.graphs as graphs_module
import interlace.poly as poly_module
import interlace.select as select_module
from interlace.mixedchar import TableArithmetic, fold_terms
from interlace.poly import EIG_START_POLES
from interlace.tolerances import CERT_TOL
from fixtures import adjacency, complete, complete_bipartite, from_roots, path, petersen, \
    random_isotropic, two_point, walked_cover24
from oracles import CUBE, argmax_ri_walk, compare_top_roots, conditional_expected_poly, \
    convex_combinations_real_rooted, enumeration_walk, fold_peel_route, forward_signed_chars, \
    in_walk_order, oracle_signing_walk, ri_level_scores, squared_roots, walk_entries
from paper import apply_shift_operator, exact_real_roots, have_common_interlacing, \
    is_real_rooted, kth_largest_root, matching_poly, signing_vectors, sturm_root_count, \
    taylor_shift, top_root


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


def test_vector_system_forms_its_gram_sum_once():
    vs = VectorSystem([[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]])
    gram = vs.gram_sum()
    assert vs.is_isotropic() and vs.gram_sum() is gram
    with pytest.raises(ValueError):
        gram.a[0, 0] = 2
    # an overflowing float sum is refused on every call
    huge = VectorSystem([[1e200, 0.0], [0.0, 1.0]])
    for _ in range(2):
        with pytest.raises(ValueError, match="overflows"):
            huge.gram_sum()


def test_float_gram_sum_matches_the_outer_product_loop():
    # the loop the float Gram sum replaced, outer products added in row
    # order, is kept here as its reference, within the rounding of m
    # additions; some rows have a zero half, as weaver's lifted rows do
    rng = np.random.default_rng(41)
    for m, n in ((8, 4), (21, 6), (80, 40)):
        v = rng.standard_normal((m, n))
        v[::3, : n // 2] = 0.0
        loop = sum((np.outer(row, row) for row in v), np.zeros((n, n)))
        got = VectorSystem(v).gram_sum().a
        assert np.allclose(got, loop, rtol=0, atol=m * np.finfo(float).eps * np.abs(loop).max())


def test_float_vector_components_must_be_finite():
    # refused as such, not as a Gram sum that overflows
    with pytest.raises(ValueError, match=r"vector component \(0, 0\) is inf, not finite"):
        VectorSystem([[math.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"vector component \(1, 1\) is nan, not finite"):
        VectorSystem([[1.0, 0.0], [0.0, math.nan]])


def test_vector_system_isotropy_defect():
    vs = VectorSystem([[2.0, 0.0], [0.0, 1.0]])
    assert vs.isotropy_defect() == pytest.approx(3.0)  # ||diag(4,1) - I||
    assert not vs.is_isotropic()


def test_random_isotropic_systems_are_isotropic():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 2 * n + 4))
        vs = random_isotropic(n, m, rng)
        assert vs.is_isotropic(1e-8)


# ----------------------------------------------------------------------
# Conditional expectations and the greedy walk
# ----------------------------------------------------------------------


def test_conditional_expected_poly_no_randomness():
    # nothing left to average: just char_poly of the fixed Gram sum = I
    assert conditional_expected_poly([], fixed=[[1, 0], [0, 1]]) == Polynomial([1, -2, 1])


def test_conditional_expected_poly_exact_average():
    # (char(e1e1^T) + char(e2e2^T))/2 = x(x-1)
    assert conditional_expected_poly([two_point([1, 0], [0, 1])]) == Polynomial([0, -1, 1])


def test_conditional_expected_poly_cross_check_agrees():
    rng = np.random.default_rng(71)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        fixed = [rng.standard_normal(d) for _ in range(int(rng.integers(0, 3)))]
        rows = [two_point(rng.standard_normal(d).tolist(), rng.standard_normal(d).tolist())
                for _ in range(int(rng.integers(1, 4)))]
        conditional_expected_poly(rows, fixed, cross_check=True)  # must not raise


def _all_leaf_values(rows, fixed):
    """lambda_1 of every full outcome, by brute force."""
    return [float(np.linalg.eigvalsh(np.outer(fixed, fixed)
                                     + sum(np.outer(v, v) for _, v in combo))[-1])
            for combo in itertools.product(*rows)]


def test_greedy_walk_certificate_minimize():
    # weaver's walk on the lifts of any vectors, from any fixed one
    rng = np.random.default_rng(79)
    for _ in range(15):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 6))
        first, rest = rng.standard_normal(d), rng.standard_normal((m, d))
        cert = select_module._weaver_walk(first, rest)
        assert cert.valid
        assert len(cert.choices) == len(cert.levels) == m
        leaves = _all_leaf_values(*_lifts(first, rest))
        # the pledge lies between the extreme leaves, and the achieved
        # value is a genuine leaf of the outcome tree
        assert min(leaves) - 1e-7 <= cert.pledged <= max(leaves) + 1e-7
        assert any(abs(cert.achieved - lv) < 1e-7 for lv in leaves)
        assert cert.achieved <= cert.pledged + 1e-7


def test_greedy_walk_levels_are_monotone_toward_target():
    # each fixing can only lower (or keep) the conditional value, from
    # the pledge on; the final level equals the achieved value up to
    # root-finding error
    rng = np.random.default_rng(83)
    cert = select_module._weaver_walk(rng.standard_normal(3), rng.standard_normal((4, 3)))
    seq = [cert.pledged] + list(cert.levels)
    for a, b in zip(seq, seq[1:]):
        assert b <= a + 1e-7
    assert cert.levels[-1] == pytest.approx(cert.achieved, abs=1e-6)


def test_greedy_walk_interlacing_check_passes():
    rng = np.random.default_rng(89)
    first, rest = rng.standard_normal(3), rng.standard_normal((3, 3))
    cert = select_module._weaver_walk(first, rest)
    assert cert.valid
    # every visited sibling family has a common interlacing, the fact
    # that makes greedy sound; children by enumeration, independently
    rows, lifted = _lifts(first, rest)
    fixed = [lifted]
    for level, choice in enumerate(cert.choices):
        children = [conditional_expected_poly(rows[level + 1:], fixed + [v])
                    for _, v in rows[level]]
        assert have_common_interlacing(children)
        assert convex_combinations_real_rooted(children)
        fixed.append(rows[level][choice][1])


def test_certificate_invariant_direction():
    # a float certificate is valid while its top eigenvalue stays within
    # CERT_TOL above the pledge, and no further
    realized = SymMatrix(np.diag([0.25, 0.5]))
    for pledge, valid in ((0.75, True), (0.5, True), (0.5 - CERT_TOL / 2, True),
                          (0.5 - 2 * CERT_TOL, False), (0.25, False)):
        cert = select_module._certificate([], [], pledge, None, realized)
        assert isinstance(cert, SelectionCertificate)
        assert cert.achieved == 0.5 and cert.valid is valid, pledge


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
    assert cert.valid
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
    assert cert.valid
    # picking two distinct directions gives lambda_2 = 1/4
    assert cert.achieved == pytest.approx(0.25)
    assert cert.achieved >= restricted_invertibility_bound(n, 4 * n, 2) - 1e-7


def test_ri_random_isotropic():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(n + 1, 2 * n + 3))
        k = int(rng.integers(1, n))
        vs = random_isotropic(n, m, rng)
        chosen, cert = restricted_invertibility_select(vs, k)
        assert len(set(chosen)) == k
        assert cert.valid
        assert cert.achieved >= restricted_invertibility_bound(n, m, k) - 1e-7
        # certificate matches a direct eigenvalue computation
        sub = np.array([np.asarray(vs.vectors[i], dtype=float) for i in chosen])
        gram = sub.T @ sub
        w = np.linalg.eigvalsh(gram)
        assert cert.achieved == pytest.approx(float(w[-k]), abs=1e-9)


def _coefficient_walk(system, k):
    """The float ri walk through monomial coefficients, as the reference.

    Each candidate's characteristic polynomial comes from
    ``charpoly_batch``; the shift operator is applied to its coefficients
    and the roots taken of the float result, and the pledge is lambda_k of
    ``(1 - D/m)^k x^n`` the same way.  Each level scores the unchosen rows
    in index order and keeps the first whose score is at least its
    parent's, or the best if none is.  Returns (chosen, pledged, per-level
    dicts of the scores computed, by row).
    """
    vecs = np.asarray(system.vectors, dtype=float)
    m, n = vecs.shape

    def score(coeffs, shifts):
        q = Polynomial(coeffs)
        for _ in range(shifts):
            q = apply_shift_operator(q, 1.0 / m)
        return kth_largest_root(q, k)

    pledged = parent = score([0.0] * n + [1.0], k)
    base = np.zeros((n, n))
    chosen, scores = [], []
    for lvl in range(k):
        vals = {}
        for j in (j for j in range(m) if j not in chosen):
            row = charpoly_batch((base + np.outer(vecs[j], vecs[j]))[None])[0]
            vals[j] = score(row, k - lvl - 1)
            if vals[j] >= parent:
                break
        keep = next((j for j, v in vals.items() if v >= parent), None)
        if keep is None:
            keep = max(vals, key=vals.get)
        base = base + np.outer(vecs[keep], vecs[keep])
        chosen.append(keep)
        scores.append(vals)
        parent = vals[keep]
    return chosen, pledged, scores


def test_ri_float_walk_matches_coefficient_walk():
    rng = np.random.default_rng(20261018)
    sizes = [(4, 6, 2), (5, 9, 3), (6, 10, 3), (8, 16, 4), (10, 20, 5),
             (12, 30, 6), (16, 48, 8), (16, 40, 10)]
    for n, m, k in sizes:
        vs = random_isotropic(n, m, rng)
        chosen, cert = restricted_invertibility_select(vs, k)
        ref_chosen, parent, ref_scores = _coefficient_walk(vs, k)
        assert cert.pledged == pytest.approx(parent, rel=1e-9)
        for lvl, (j, j_ref) in enumerate(zip(chosen, ref_chosen)):
            vals = ref_scores[lvl]
            if j != j_ref:
                # both walks scored the lower row, and they read it on the
                # two sides of its parent: only a near-tie sends them apart
                assert vals[min(j, j_ref)] == pytest.approx(parent, rel=1e-9)
                break
            assert cert.levels[lvl] == pytest.approx(vals[j], rel=1e-9)
            parent = vals[j]


def _rows_scored(k, free, pos):
    """Rows an ri level has scored once its batch holding free row ``pos``
    is done: batches of ``RI_BATCH`` while the level's shifts start from
    eigenvalues (k <= EIG_START_POLES poles), else 2 rows doubling up to
    ``RI_BATCH``."""
    size = select_module.RI_BATCH if k <= EIG_START_POLES else 2
    end = size
    while end <= pos:
        size = min(2 * size, select_module.RI_BATCH)
        end += size
    return min(len(free), end)


def _assert_walk_follows_scores(vs, k, chosen, cert):
    """Each level of an ri walk kept the lowest free row whose oracle score
    is >= its parent, or the best scored row when none is."""
    parent, fallbacks = cert.pledged, 0
    for lvl, j in enumerate(chosen):
        vals = ri_level_scores(vs, chosen[:lvl], k)
        free = [i for i in range(vs.m) if i not in chosen[:lvl]]
        meets = [i for i in free if vals[i] >= parent]
        if meets:
            assert j == meets[0]
            assert cert.scored[lvl] == _rows_scored(k, free, free.index(j))
        else:
            fallbacks += 1
            assert j == max(free, key=lambda i: (vals[i], -i))
            assert cert.scored[lvl] == len(free)
        assert cert.levels[lvl] == vals[j] >= parent - 1e-12
        parent = vals[j]
    assert cert.fallbacks == fallbacks


def test_ri_keeps_the_lowest_free_row_meeting_its_parent():
    rng = np.random.default_rng(20261019)
    systems = [random_isotropic(n, m, rng)
               for n, m in [(4, 7), (6, 12), (9, 20), (12, 40), (16, 32)]]
    # exact systems of rational rotations, their rows shuffled
    for d, weights in [(4, [Fraction(3, 5), Fraction(4, 5)]), (5, [Fraction(1, 2)] * 4),
                       (6, [Fraction(3, 5), Fraction(4, 5)])]:
        order = rng.permutation(d * len(weights))
        systems.append(_rational_isotropic(d, weights, order))
    for vs in systems:
        n, m = vs.dim, vs.m
        for k in sorted({1, n // 2, n - 1}):
            chosen, cert = restricted_invertibility_select(vs, k)
            ref_chosen, ref_levels, ref_pledged = argmax_ri_walk(vs, k)
            assert cert.pledged == pytest.approx(ref_pledged, rel=1e-12)
            _assert_walk_follows_scores(vs, k, chosen, cert)
            assert cert.valid and cert.achieved >= cert.pledged - 1e-12
            assert cert.achieved >= restricted_invertibility_bound(n, m, k) - 1e-12
            # the best-child walk certifies too; the first-child walk can
            # only end at or below it at level 0
            assert ref_levels[-1] >= ref_pledged - 1e-12
            assert cert.levels[0] <= ref_levels[0]


def test_ri_fallback_keeps_the_best_scored_row(monkeypatch):
    # seven copies of each e_i / sqrt(7): every level-0 child scores the
    # pledge up to rounding, so rounding alone decides whether a child
    # meets it or the level falls back; either way each level follows the
    # oracle's scores
    sevenths = VectorSystem([row * math.sqrt(1 / 7) for row in np.eye(4) for _ in range(7)])
    chosen, cert = restricted_invertibility_select(sevenths, 3)
    _assert_walk_follows_scores(sevenths, 3, chosen, cert)
    assert cert.valid and abs(cert.pledged - cert.levels[0]) <= 1e-15
    # every child of the orthonormal basis equals its parent at level 0;
    # with the pledge one ulp higher none meets it, and the level keeps
    # the best scored row, the lowest index of the tie
    scores = select_module._ri_scores

    def raised_pledge(vecs, chosen, cand, k, pledge=False):
        # scores are -lambda_k: the pledge's lambda_k one ulp higher
        out = scores(vecs, chosen, cand, k, pledge)
        if pledge:
            out[-1] = np.nextafter(out[-1], -np.inf)
        return out

    _, cert = restricted_invertibility_select(VectorSystem(np.eye(4)), 3)
    assert cert.fallbacks == 0 and cert.levels[0] == cert.pledged
    monkeypatch.setattr(select_module, "_ri_scores", raised_pledge)
    chosen, cert = restricted_invertibility_select(VectorSystem(np.eye(4)), 3)
    assert cert.fallbacks == 1 and cert.scored == [4, 3, 2]
    assert chosen == [0, 1, 2] and cert.valid


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


def _cayley_quaternion(a: int, b: int, c: int) -> np.ndarray:
    """The Cayley transform (I + S)^(-1) (I - S) of the skew 4 x 4 matrix S
    of left multiplication by the quaternion a i + b j + c k.  S^2 = -s I,
    s = a^2 + b^2 + c^2, so it is ((1 - s) I - 2 S) / (1 + s), rational
    and orthogonal."""
    units = [np.array(u, dtype=object) for u in (
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])]
    skew = a * units[0] + b * units[1] + c * units[2]
    s = a * a + b * b + c * c
    assert (skew.dot(skew) == -s * np.eye(4, dtype=int)).all()
    q = ((1 - s) * np.eye(4, dtype=int) - 2 * skew) * Fraction(1, 1 + s)
    assert (q.dot(q.T) == np.eye(4, dtype=int)).all()
    return q


@pytest.mark.parametrize("frame", ["quarters", "cayley"])
def test_ri_exact_equal_norm_frame_ties_its_pledge(monkeypatch, frame):
    # 16 rows of squared norm 1/4 summing to I_4: every level-0 child of
    # k = 2 is (1 - D/16) x^3 (x - 1/4), the pledge (1 - D/16)^2 x^4 up
    # to a factor, whose lambda_2 is 1/8.  Each is rooted exactly, and
    # level 0 keeps row 0 through the rule's tie, not through its counts
    if frame == "quarters":
        rows = [row * Fraction(1, 2) for row in np.eye(4, dtype=int) for _ in range(4)]
    else:
        rows = [row * Fraction(1, 2) for abc in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0)]
                for row in _cayley_quaternion(*abc)]
    vs = VectorSystem(rows)
    assert vs.is_exact and vs.is_isotropic()
    calls, meets = [], select_module._meets

    def recorded(child, parent, bracket):
        calls.append((child, parent, bracket, meets(child, parent, bracket)))
        return calls[-1][-1]

    monkeypatch.setattr(select_module, "_meets", recorded)
    chosen, cert = restricted_invertibility_select(vs, 2)
    assert cert.pledged == 0.125 and cert.levels[0] == 0.125
    assert chosen[0] == 0 and cert.scored[0] == select_module.RI_BATCH
    child, parent, bracket, met = calls[0]
    assert met and child != parent and child.monic() == parent.monic()
    assert roots_above(child, bracket.hi) == 0 < roots_above(child, bracket.lo)
    assert cert.fallbacks == 0 and cert.valid and calls[-1][-1]
    assert cert.achieved == cert.levels[-1] >= restricted_invertibility_bound(4, 16, 2)
    # final_poly is chi of the 2 x 2 Gram V V^T; x^2 of it is chi of the 4 x 4 sum
    assert Polynomial([0] * 2 + list(cert.final_poly.coeffs)) \
        == char_poly(VectorSystem(vs.vectors[chosen]).gram_sum())


EPS = Fraction(1, 2 ** 60)
# (child, parent, top(child) - top(parent) sign, inside); the parent's
# bracket is its certified top cluster, a few ulp wide, and children marked
# inside have their top root within it, 2^-60 from the parent's or equal to it
RULE_CASES = [
    (from_roots([1 + EPS]), from_roots([1, -1]), 1, True),
    (from_roots([1 - EPS, -3]), from_roots([1, -1]), -1, True),
    (from_roots([5]), from_roots([1, -1]), 1, False),
    (from_roots([0, 0]), from_roots([1, -1]), -1, False),
    (3 * from_roots([1, -1]), from_roots([1, -1]), 0, True),
    (from_roots([1, 0]), from_roots([1, -1]), 0, True),
    (from_roots([3 + EPS, 1, -2]), from_roots([3, 1, -2]), 1, True),
    (from_roots([3 - EPS, 2, 0]), from_roots([3, 1, -2]), -1, True),
    (from_roots([3, 1]), from_roots([3, 1, -2]), 0, True),
    (from_roots([3, 3, 0]), from_roots([3, 1, -2]), 0, True),
    (from_roots([4, 4, 4]), from_roots([3, 1, -2]), 1, False),
]


def _rule_errors(rule) -> list:
    """The cases of RULE_CASES that ``rule`` gets wrong: a child meets
    exactly when its top root is at most the parent's."""
    return [i for i, (child, parent, sign, _) in enumerate(RULE_CASES)
            if rule(child, parent, select_module._top_cluster(parent)) != (sign <= 0)]


def test_meets_decides_by_counts_halving_and_ties():
    for child, parent, sign, inside in RULE_CASES:
        bracket = select_module._top_cluster(parent)
        # the cases marked inside straddle the bracket, and the rule halves it
        straddle = roots_above(child, bracket.hi) == 0 < roots_above(child, bracket.lo)
        assert straddle == inside
        if sign == 0:
            assert exact_real_roots(child)[0] == pytest.approx(exact_real_roots(parent)[0])
    assert not _rule_errors(select_module._meets)
    # a bracket widened to (0, 4], still certified for the top root 1 of
    # (x - 1)(x + 1), sends a child at 2 and one at 1/2 through the halving
    parent = from_roots([1, -1])
    wide = TopRoot(1.0, 1, Fraction(0), Fraction(4))
    for root, above in ((2, True), (Fraction(1, 2), False)):
        child = from_roots([root])
        assert select_module._meets(child, parent, wide) == (not above)


def test_meets_mutant_deciding_at_the_wrong_ends_fails():
    # the rule with its two ends swapped, a root above lo missing and none
    # above hi meeting, drops every child whose top root lies in the
    # parent's bracket, the ones below the parent's and the ties
    source = inspect.getsource(select_module._meets)
    right = ("    if roots_above(child, hi):\n        return False\n"
             "    if not roots_above(child, lo):\n        return True\n")
    swapped = ("    if roots_above(child, lo):\n        return False\n"
               "    if not roots_above(child, hi):\n        return True\n")
    assert source.count(right) == 1
    scope = dict(vars(select_module))
    exec(source.replace(right, swapped), scope)
    wrong = _rule_errors(scope["_meets"])
    assert {RULE_CASES[i][2] for i in wrong} == {-1, 0}


def test_keep_float_keeps_the_first_child_that_meets():
    # at most the parent's top root, ties included, in index order
    keep = select_module._keep
    assert keep([2.0, 1.0, 0.5, 1.5], 1.0) == (1, 1.0, False)
    assert keep([1.5, 0.25, 0.5], 1.0) == (1, 0.25, False)


def test_keep_float_falls_back_to_the_best_child_ties_to_the_lowest_index():
    # rounding can leave no child meeting its parent; the level then keeps
    # the best child, the first of equal ones, and is flagged
    keep = select_module._keep
    assert keep([2.0, 1.5, 3.0, 1.5], 1.0) == (1, 1.5, True)


def test_keep_exact_child_equal_to_its_parent_keeps_the_parent_cluster(monkeypatch):
    # a child above the parent's bracket misses it by counts alone; the
    # next child, equal to the parent, meets and keeps the parent's
    # cluster, and nothing is rooted
    parent = from_roots([1, -1])
    cluster = select_module._top_cluster(parent)

    def refuse(p):
        raise AssertionError("a polynomial was rooted")

    monkeypatch.setattr(select_module, "root_clusters", refuse)
    children = [from_roots([2, -1]), from_roots([1, -1]),
                from_roots([0])]
    got = select_module._keep(children, (parent, cluster))
    assert got == (1, (parent, cluster), False) and got[1][1] is cluster


def test_keep_exact_raises_when_no_child_meets():
    parent = from_roots([1, -1])
    pair = (parent, select_module._top_cluster(parent))
    misses = [from_roots([2]), from_roots([3, 0]), from_roots([1 + EPS, -1])]
    with pytest.raises(AssertionError, match="no child meets"):
        select_module._keep(misses, pair)


def test_keep_reads_the_children_only_up_to_the_kept_one():
    # walks form and root children lazily, as the rule reads them
    def upto(kept, children):
        for j, child in enumerate(children):
            if j > kept:
                raise RuntimeError("read past the kept child")
            yield child

    keep = select_module._keep
    assert keep(upto(1, [2.0, 0.5, 1.5]), 1.0) == (1, 0.5, False)
    assert keep(upto(0, [0.5, 1.5]), 1.0) == (0, 0.5, False)
    parent = from_roots([1, -1])
    pair = (parent, select_module._top_cluster(parent))
    below = from_roots([Fraction(1, 2), -1])
    children = [from_roots([2, -1]), below, parent]
    assert keep(upto(1, children), pair) == \
        (1, (below, select_module._top_cluster(below)), False)


def test_signing_select_raises_when_no_child_meets(monkeypatch):
    # the -1 child, like every exact child, is kept only once exact counts
    # say it meets its parent, not by theorem: with a rule that refuses
    # every child, the first level whose children differ stops the walk
    monkeypatch.setattr(select_module, "_meets", lambda *args: False)
    with pytest.raises(AssertionError, match="no child meets"):
        signing_select(CUBE)


def _laguerre_pledge_roots(n, m, k):
    """Roots of (1 - D/m)^k x^n other than 0, by Golub-Welsch.

    They are the roots of the generalized Laguerre polynomial L_k^(a),
    a = n - k, scaled by 1/m: the eigenvalues of its Jacobi matrix, with
    diagonal 2i + a + 1 (i = 0..k-1) and off-diagonal sqrt(i (i + a))
    (i = 1..k-1).
    """
    a = n - k
    i = np.arange(1, k)
    off = np.sqrt(i * (i + a))
    jacobi = np.diag(2.0 * np.arange(k) + a + 1) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(jacobi)[::-1] / m


@pytest.mark.parametrize("n,m,k", [(16, 48, 8), (40, 80, 20), (128, 256, 64)])
def test_ri_pledge_matches_laguerre_roots(n, m, k):
    roots, zeros = np.empty((1, 0)), n
    for _ in range(k):
        roots, zeros = shift_chain(roots, zeros, 1.0 / m, 1)
    assert zeros == n - k
    ref = _laguerre_pledge_roots(n, m, k)
    assert np.max(np.abs(roots[0] - ref) / ref) <= 1e-12
    assert roots[0, -1] >= restricted_invertibility_bound(n, m, k)


def test_ri_past_the_eigenvalue_start_scores_from_two_rows(monkeypatch):
    # k = 41 > EIG_START_POLES: each level starts with 2 rows and doubles
    # (one level here keeps free row 7, in its third batch); forced to
    # 8-row batches, as at k <= 40, the walk keeps the same rows
    n, m, k = 42, 84, 41
    vs = random_isotropic(n, m, np.random.default_rng(1))
    chosen, cert = restricted_invertibility_select(vs, k)
    assert cert.valid and cert.fallbacks == 0
    kept_at = []
    for lvl, j in enumerate(chosen):
        free = [i for i in range(m) if i not in chosen[:lvl]]
        kept_at.append(free.index(j))
        assert cert.scored[lvl] == _rows_scored(k, free, kept_at[-1])
    assert max(kept_at) == 7
    monkeypatch.setattr(select_module, "EIG_START_POLES", k)
    eights, cert8 = restricted_invertibility_select(vs, k)
    assert eights == chosen and cert8.achieved == cert.achieved
    assert np.allclose(cert8.levels, cert.levels, rtol=1e-13, atol=0)
    assert sum(cert8.scored) > sum(cert.scored)


@pytest.mark.parametrize("seed", [0, 1])
def test_ri_n40_gate(seed):
    # the coefficient walk stops here with NotRealRootedError
    n, m, k = 40, 80, 20
    vs = random_isotropic(n, m, np.random.default_rng(seed))
    chosen, cert = restricted_invertibility_select(vs, k)
    assert len(chosen) == len(set(chosen)) == k
    assert cert.valid
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
    s1, s2, cert = weaver_partition(vs)
    assert sorted(s1 + s2) == list(range(2 * n))
    assert cert.valid
    g1 = sum(np.outer(vs.vectors[i], vs.vectors[i]) for i in s1)
    g2 = sum(np.outer(vs.vectors[i], vs.vectors[i]) for i in s2)
    bound = weaver_bound(0.5)
    assert np.linalg.eigvalsh(g1)[-1] <= bound + 1e-7
    assert np.linalg.eigvalsh(g2)[-1] <= bound + 1e-7


def test_weaver_exhaustive_oracle_small():
    rng = np.random.default_rng(101)
    vs = random_isotropic(3, 8, rng)
    alpha = vs.max_norm_sq()
    s1, s2, cert = weaver_partition(vs)
    assert cert.valid
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


# ----------------------------------------------------------------------
# Adjacency signings
# ----------------------------------------------------------------------


def test_signing_vectors_gram_identity():
    # sum over edges of the outer products equals A_s + dI
    g = complete(4)
    rvs = signing_vectors(g, exact=True)
    assert len(rvs) == g.m
    d = g.regularity()
    for bits in itertools.product([0, 1], repeat=g.m):
        acc = np.zeros((g.n, g.n), dtype=object)
        for r, b in zip(rvs, bits):
            _, v = r[b]
            acc = acc + np.outer(v, v)
        s = [1 if b == 0 else -1 for b in bits]
        expect = signed_adjacency(g, s).a + d * np.eye(g.n, dtype=int)
        assert (acc == expect).all()


def test_signing_select_cube_matches_exhaustive_oracle():
    # K4's signing meets the exhaustive 2^6 search in acceptance criterion
    # 10, through the test-side walk: the library walks bipartite graphs only
    g = CUBE
    signing, cert = signing_select(g)
    assert cert.valid
    lam = float(np.max(signed_adjacency(g, signing).eigenvalues()))
    # theory: the greedy signed spectral radius stays below the top root
    # of the matching polynomial
    top_matching = real_roots(Polynomial([float(c) for c in matching_poly(g).coeffs]))[0]
    assert top_matching == pytest.approx(exact_real_roots(matching_poly(g))[0])
    assert lam <= top_matching + 1e-7
    assert cert.pledged == pytest.approx(top_matching, abs=1e-9)
    # exhaustive check over all 4096 signings: greedy cannot beat the optimum
    best = math.inf
    for bits in itertools.product([1, -1], repeat=g.m):
        s = list(bits)
        best = min(best, float(np.max(signed_adjacency(g, s).eigenvalues())))
    assert lam >= best - 1e-9


def test_signing_select_k33():
    g = complete_bipartite(3, 3)
    signing, cert = signing_select(g)
    assert cert.valid
    lam = float(np.max(signed_adjacency(g, signing).eigenvalues()))
    assert lam <= 2 * math.sqrt(2) + 1e-7  # Ramanujan threshold for d=3


def _assert_matches_exact_enumeration_walk(g, signing, cert, valid):
    """A signing walk's result on g against the exact walk over the
    rank-one signing vectors with every remaining signing enumerated, in
    the same edge order (the graph relabelled by frontier_order).  Its
    values are in Gram coordinates, A_s + dI, and the signing walk's in
    adjacency ones."""
    d = g.regularity()
    order = frontier_order(g)
    walk = in_walk_order(g)
    choices, levels, pledged = enumeration_walk(signing_vectors(walk, exact=True))
    assert cert.choices == choices
    sign = dict(zip(g.edges, signing))
    assert [sign[tuple(sorted((order[a], order[b])))] for a, b in walk.edges] \
        == [1 - 2 * c for c in choices]
    assert abs(cert.pledged - exact_real_roots(matching_poly(g))[0]) <= 1e-12
    assert valid
    assert cert.levels[-1] <= cert.pledged + 1e-12
    assert cert.achieved + d == pytest.approx(levels[-1], abs=1e-9)
    assert pledged == pytest.approx(cert.pledged + d, abs=1e-9)


def test_signing_select_matches_exact_enumeration_walk():
    for g in (complete_bipartite(3, 3), CUBE):
        signing, cert = signing_select(g)
        _assert_matches_exact_enumeration_walk(g, signing, cert, cert.valid)


def test_oracle_signing_walk_matches_exact_enumeration_walk():
    # K4 and K5 are not bipartite, so the library refuses them; the
    # test-side walk that criteria 10 and 11 run on them makes the
    # enumeration walk's choices
    for g in (complete(4), complete(5)):
        walk = oracle_signing_walk(g)
        _assert_matches_exact_enumeration_walk(g, walk.signs, walk, walk.valid)


def _recorded_signing_walk(monkeypatch, g):
    """signing_select on g, recording each level's children and every
    polynomial it roots, each a ``_top_cluster`` call.

    The walk forms Phi of the empty prefix and then, at each level whose
    edge closes a cycle, the +1 child with ``SigningEngine.chars``; the
    -1 child is 2 parent - plus.  A level whose edge joins two components
    forms no child, and both its children are recorded as its parent.
    """
    formed, ranked = [], []
    chars, cluster = SigningEngine.chars, select_module._top_cluster

    def recorded_chars(self, signs):
        out = chars(self, signs)
        formed.append((len(signs), out))
        return out

    def recorded_cluster(p):
        ranked.append(p)
        return cluster(p)

    monkeypatch.setattr(SigningEngine, "chars", recorded_chars)
    monkeypatch.setattr(select_module, "_top_cluster", recorded_cluster)
    _, cert = signing_select(g)
    levels = dict(formed)
    assert len(levels) == len(formed)
    parent = levels.pop(0)
    assert parent == squared_roots(matching_poly(g))
    pairs = []
    for f, choice in enumerate(cert.choices):
        plus = levels.get(f + 1, parent)
        pairs.append((plus, 2 * parent - plus))
        parent = pairs[-1][choice]
    return cert, pairs, ranked


def _random_cubic_bipartite(half: int, seed: int) -> Graph:
    """A simple union of three random perfect matchings between two halves."""
    rng = np.random.default_rng(seed)
    while True:
        edges = {(i, half + int(j)) for _ in range(3)
                 for i, j in enumerate(rng.permutation(half))}
        if len(edges) == 3 * half:
            return Graph(2 * half, sorted(edges))


@pytest.mark.parametrize("g", [CUBE, complete_bipartite(3, 3), complete_bipartite(4, 4)],
                         ids=["cube", "K33", "K44"])
def test_signing_select_final_poly_is_chi_of_the_signed_gram(g):
    # the walk takes final_poly from chi(B_s B_s^T), checked equal to its
    # last q, which is chi(A_s) read in y; chi(A_s) shifted by -d is chi
    # of the signing vectors' Gram sum A_s + dI.  achieved is the last
    # level, its top root
    signing, cert = signing_select(g)
    d = g.regularity()
    chi = char_poly(signed_adjacency(g, signing))
    gram = signed_adjacency(g, signing).a + d * np.eye(g.n, dtype=int)
    assert cert.final_poly == squared_roots(chi)
    assert taylor_shift(chi, -d) == char_poly(SymMatrix(gram))
    assert cert.achieved == cert.levels[-1]


def test_signing_select_raises_when_chi_of_a_s_is_not_its_last_polynomial(monkeypatch):
    # a chi of the realization (B_s B_s^T, or the Gram sum of exact ri and
    # weaver walks) off by one in its constant coefficient; the exact check of the
    # one certificate builder sees a change of any coefficient, not just of
    # the top root, and a factor of -1
    def off_by_one(a):
        chi = char_poly(a)
        return Polynomial([chi.coeffs[0] + 1] + list(chi.coeffs[1:]))

    vs = _rational_isotropic(3, [Fraction(3, 5), Fraction(4, 5)], [3, 0, 4, 1, 5, 2])
    walks = [lambda g=g: signing_select(g) for g in
             (CUBE, complete_bipartite(3, 3), complete_bipartite(4, 4))]
    walks += [lambda: restricted_invertibility_select(vs, 2)]
    walks += [lambda route=route: _walk_by(route, vs.vectors[0], vs.vectors[1:])
              for route in ("engine", "enumerate")]
    for walk in walks:
        walk()
        for wrong in (off_by_one, lambda a: -char_poly(a)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(select_module, "char_poly", wrong)
                with pytest.raises(AssertionError):
                    walk()


@pytest.mark.parametrize("walk", ["ri", "engine", "enumerate"])
def test_exact_walks_root_the_pledge_and_each_kept_child_once(monkeypatch, walk):
    # the certificate reads its levels off the walk: root_clusters runs once
    # for the pledge and once per kept child that differs from its parent,
    # whose cluster a child equal to it keeps, and never for final_poly,
    # which is the last kept child up to a positive factor
    rooted, differ = [], []
    clusters, keep = select_module.root_clusters, select_module._keep

    def recorded(p):
        rooted.append(p)
        return clusters(p)

    def recorded_keep(children, parent):
        out = keep(children, parent)
        differ.append(out[1] is not parent)
        return out

    vs = _rational_isotropic(3, [Fraction(3, 5), Fraction(4, 5)], [3, 0, 4, 1, 5, 2])
    monkeypatch.setattr(select_module, "root_clusters", recorded)
    monkeypatch.setattr(select_module, "_keep", recorded_keep)
    if walk == "ri":
        _, cert = restricted_invertibility_select(vs, 2)
    else:
        # vector 0 lifted too, from a zero fixed vector: its children are equal
        cert = _walk_by(walk, 0 * vs.vectors[0], vs.vectors)
    assert cert.valid and cert.achieved == cert.levels[-1]
    assert len(differ) == len(cert.levels) and (walk == "ri" or not all(differ))
    assert len(rooted) == 1 + sum(differ)
    # ri walks the reflections x -> -x of its polynomials and reads its
    # results back: negated roots, and final_poly reflected
    sign, final = (-1, select_module._reflected(cert.final_poly)) if walk == "ri" \
        else (1, cert.final_poly)
    assert next(clusters(rooted[0])).root == sign * cert.pledged
    assert rooted[-1].monic() == final and rooted[-1].leading() > 0


@pytest.mark.parametrize("g", [complete(4), complete_bipartite(3, 3), CUBE,
                               petersen(), _random_cubic_bipartite(5, 3)],
                         ids=["K4", "K33", "cube", "petersen", "cubic10"])
def test_signing_walk_children_are_real_rooted_and_certified(monkeypatch, g):
    # top_root counts roots by Descartes' rule, exact only for real-rooted
    # input; the walk relies on Phi_F being real-rooted by theorem and does
    # not check it, so every polynomial it evaluates is checked here,
    # exactly: the library's q_F, whose roots, Phi_F's squared, must also
    # be nonnegative, and on K4 and Petersen, which it refuses, the
    # test-side walk's Phi_F
    bipartite = g.bipartition() is not None
    if bipartite:
        cert, pairs, _ = _recorded_signing_walk(monkeypatch, g)
        valid = cert.valid
    else:
        walk = oracle_signing_walk(g)
        pairs, valid = walk.pairs, walk.valid
    assert len(pairs) == g.m and valid
    for p in {q for pair in pairs for q in pair}:
        assert is_real_rooted(p)
        zeros = next(i for i, c in enumerate(p.coeffs) if c)
        assert not bipartite or roots_above(p, 0) + zeros == p.degree
        t = top_root(p)
        assert t.lo < t.root <= t.hi
        assert roots_above(p, t.hi) == 0 and roots_above(p, t.lo) == t.mult >= 1
        assert sturm_root_count(p, t.lo, t.hi) == 1
        assert abs(t.root - exact_real_roots(p)[0]) <= 1e-12 * (1 + abs(t.root))


def test_signing_walk_ranks_every_polynomial_once(monkeypatch):
    cert, pairs, ranked = _recorded_signing_walk(monkeypatch, CUBE)
    # the pledge's mu_G is ranked first; one edge closes no cycle, so the
    # first children agree and reuse its top root
    assert pairs[0][0] == pairs[0][1]
    assert ranked[0] == squared_roots(matching_poly(CUBE))
    assert cert.pledged == math.sqrt(top_root(ranked[0]).root)
    assert cert.pledged == pytest.approx(top_root(matching_poly(CUBE)).root, rel=1e-15)
    # identical children reuse their parent's top root; of distinct ones,
    # exact counts at the parent's bracket pick one, and only it is ranked
    kept = [pair[c] for pair, c in zip(pairs, cert.choices) if pair[0] != pair[1]]
    assert 0 < len(kept) < len(pairs)
    assert ranked[1:] == kept


def test_signing_walk_sends_distinct_children_with_equal_top_roots_to_plus(monkeypatch):
    # On two disjoint copies of the cube every q_F factors into the two
    # copies' parts, so distinct children can share the other part's top root.
    g = Graph(16, list(CUBE.edges) + [(a + 8, b + 8) for a, b in CUBE.edges])
    cert, pairs, _ = _recorded_signing_walk(monkeypatch, g)
    ties = [level for level, (plus, minus) in enumerate(pairs) if plus != minus
            and abs(exact_real_roots(plus)[0] - exact_real_roots(minus)[0]) <= 1e-9]
    assert ties
    for level in ties:
        plus, minus = pairs[level]
        assert compare_top_roots(plus, minus) == 0
        assert cert.choices[level] == 0
    assert cert.valid


@pytest.mark.parametrize("g", [CUBE, complete_bipartite(3, 3), complete_bipartite(4, 4),
                               _random_cubic_bipartite(5, 3)],
                         ids=["cube", "K33", "K44", "cubic10"])
def test_signing_walk_children_match_forward_oracle(monkeypatch, g):
    # the walk forms only the +1 child and takes the -1 child from its
    # parent; both must be the oracle's children, read in y
    cert, pairs, _ = _recorded_signing_walk(monkeypatch, g)
    walk = in_walk_order(g)
    signs = [1 - 2 * c for c in cert.choices]
    assert len(pairs) == g.m
    for f, pair in enumerate(pairs):
        prefix = signs[:f]
        children = forward_signed_chars(walk, [prefix + [1], prefix + [-1]])
        assert pair == tuple(map(squared_roots, children)), f


def test_signing_walk_runs_one_backward_pass_and_one_row_per_level(monkeypatch):
    passes, prefixes = [], []
    tables, chars = graphs_module._matching_tables, SigningEngine.chars

    def counted(g, budget, leaf):
        passes.append(budget)
        return tables(g, budget, leaf)

    def recorded(self, signs):
        prefixes.append(len(signs))
        return chars(self, signs)

    monkeypatch.setattr(graphs_module, "_matching_tables", counted)
    monkeypatch.setattr(SigningEngine, "chars", recorded)
    _, cert = signing_select(CUBE)
    assert cert.valid
    assert passes == [select_module.DEFAULT_BUDGET]
    # one prefix for the pledge and one per level whose edge closes a
    # cycle, its +1 child; the other levels form none
    forest = in_walk_order(CUBE).forest_edges()
    assert prefixes == [0] + [f + 1 for f, joins in enumerate(forest) if not joins]
    assert len(prefixes) == 1 + CUBE.m - (CUBE.n - 1)


SYMMETRY_GRAPHS = [CUBE, petersen(), walked_cover24()]


def _level_chars(walk: Graph):
    """Each prefix's level polynomial on ``walk``: the engine's q_F, or
    on a graph that is not bipartite, which the engine refuses, the
    forward oracle's Phi_F."""
    if walk.bipartition() is None:
        return lambda prefix: forward_signed_chars(walk, [prefix])[0]
    return SigningEngine(walk).chars


@pytest.mark.parametrize("g", [CUBE, SYMMETRY_GRAPHS[2]], ids=["cube", "cover24"])
def test_signing_walk_forms_the_minus_child_only_when_plus_misses(monkeypatch, g):
    # the -1 child, 2 parent - plus, is formed only when the keep rule reads
    # it, at the levels whose +1 child does not meet its parent: one
    # subtraction of a +1 child per level that keeps -1, and some levels
    # keep +1 without forming -1
    pluses, minuses, kept = [], [], []
    chars, sub, keep = SigningEngine.chars, Polynomial.__sub__, select_module._keep

    def recorded_chars(self, signs):
        pluses.append(chars(self, signs))
        return pluses[-1]

    def recorded_sub(self, other):
        if any(other is plus for plus in pluses):
            minuses.append(other)
        return sub(self, other)

    def recorded_keep(children, parent):
        out = keep(children, parent)
        kept.append(out[0])
        return out

    monkeypatch.setattr(SigningEngine, "chars", recorded_chars)
    monkeypatch.setattr(Polynomial, "__sub__", recorded_sub)
    monkeypatch.setattr(select_module, "_keep", recorded_keep)
    _, cert = signing_select(g)
    assert len(kept) == g.m - (g.n - 1)  # one keep per level closing a cycle
    assert len(minuses) == kept.count(1) == sum(cert.choices) > 0
    assert kept.count(0) > 0


@pytest.mark.parametrize("g", [CUBE, complete_bipartite(3, 3),
                               complete_bipartite(4, 4)], ids=["cube", "K33", "K44"])
def test_signing_select_returns_signs_in_edge_order(g):
    # chi(lift) = chi(A) chi(A_s) exactly (Bilu-Linial), all three even and
    # read in y with chi(A_s) the walk's final_poly, only if each sign sits
    # on the edge of g it was chosen for: on relabelled copies the walk's
    # order is not g.edges'
    rng = np.random.default_rng(97)
    for _ in range(4):
        perm = rng.permutation(g.n)
        h = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
        signs, cert = signing_select(h)
        assert len(signs) == h.m and set(signs) <= {1, -1}
        assert squared_roots(char_poly(adjacency(two_lift(h, signs)))) == \
            squared_roots(char_poly(adjacency(h))) * cert.final_poly


@pytest.mark.parametrize("g", SYMMETRY_GRAPHS, ids=["cube", "petersen", "cover24"])
def test_signing_forest_levels_equal_their_parent(g):
    # an edge that joins two components of the edges before it is flipped,
    # alone among the fixed edges, by switching one side of it, so both
    # children equal the parent whatever the prefix; every other level has
    # children that differ for some prefix, so marking one more edge as
    # forest fails here
    walk = in_walk_order(g)
    chars = _level_chars(walk)
    rng = np.random.default_rng(83)
    forest = walk.forest_edges()
    assert sum(forest) == g.n - 1
    for f, joins in enumerate(forest):
        differ = []
        for prefix in rng.choice([-1, 1], (2, f)).tolist():
            plus = chars(prefix + [1])
            differ.append(plus != chars(prefix))
        assert not any(differ) if joins else any(differ), f


@pytest.mark.parametrize("g", SYMMETRY_GRAPHS, ids=["cube", "petersen", "cover24"])
def test_signing_level_counts_decide_as_compare_top_roots(monkeypatch, g):
    # at every level, after a random prefix, the keep rule, handed the +1
    # and -1 children, keeps the one compare_top_roots ranks lower (ties
    # to +1) and roots only it; a bracket widened past every root (none of
    # a cubic graph's Phi_F lies above 3, nor its q_F above 9) leaves the
    # +1 child's counts straddling whenever its top root is the larger, and the halving
    # makes the same choice.  Identical children, as at every forest
    # level, keep +1 and the parent's bracket
    walk = in_walk_order(g)
    chars = _level_chars(walk)
    reach = 3 if walk.bipartition() is None else 9
    rng = np.random.default_rng(89)
    halved, ranked = [], []
    squarefree = select_module._squarefree

    def recorded_squarefree(p):
        halved.append(p)
        return squarefree(p)

    def recorded_cluster(p):
        ranked.append(p)
        return top_root(p)

    monkeypatch.setattr(select_module, "_squarefree", recorded_squarefree)
    monkeypatch.setattr(select_module, "_top_cluster", recorded_cluster)
    halvings, ties = {True: 0, False: 0}, 0
    for f, joins in enumerate(walk.forest_edges()):
        prefix = rng.choice([-1, 1], f).tolist()
        phi, plus = chars(prefix), chars(prefix + [1])
        minus = 2 * phi - plus
        assert plus == minus or not joins
        order = compare_top_roots(minus, plus)
        ties += plus != minus and order == 0
        sign = -1 if order < 0 else 1
        kept = minus if sign < 0 else plus
        parent = top_root(phi)
        for bracket in (parent, parent._replace(hi=parent.hi + reach)):
            halved.clear()
            ranked.clear()
            got = select_module._keep([plus, minus], (phi, bracket))
            if plus == minus:
                assert got == (0, (phi, bracket), False) and not ranked and not halved
                continue
            assert got == ((1 - sign) // 2, (kept, top_root(kept)), False) and ranked == [kept]
            halvings[bracket is parent] += bool(halved)
    # with the true bracket, only children with equal top roots straddle it
    assert halvings[True] == ties and halvings[False] > 0


def test_float_engine_walk_makes_two_folds_per_vector_and_no_companion_roots(monkeypatch):
    # the pair tables start as the unit table, and one leg product per
    # lift, vector 0's among them, builds them, its other point by the
    # transpose; one forms vector 0's kept child, and one per level forms
    # both children on [Phi, Phi^T]; the children come from traces, and
    # their top roots from Laguerre's method, not real_roots
    calls = []
    inner = select_module._sandwiches

    def refuse(p):
        raise AssertionError("real_roots was reached")

    monkeypatch.setattr(select_module, "_sandwiches",
                        lambda *args: calls.append(args[0].shape) or inner(*args))
    monkeypatch.setattr(poly_module, "real_roots", refuse)
    m, size = 12, math.comb(6, 3)
    vs = random_isotropic(3, m, np.random.default_rng(283))
    _, _, cert = weaver_partition(vs)
    assert cert.valid and len(cert.choices) == m
    # the tables each _sandwiches call reads
    assert calls == [(size, size)] * (m + 1) + [(size, 2 * size)] * (m - 1)


@pytest.mark.parametrize("d, m, seed, route", [(7, 12, 712, "enumerate"), (3, 12, 283, "engine")])
def test_weaver_forms_a_second_child_only_when_the_first_misses(monkeypatch, d, m, seed, route):
    # each route hands _keep a level's children as it reads them: the
    # pledge and every level's first child are formed, and the second only
    # where the first does not meet, which keeps the second or falls back.
    # 12 vectors in R^7 enumerate, and 12 in R^3 take the engine, whose
    # pledge and children all come from traces
    costs = select_module._walk_costs(2 * d, m - 1)
    assert (costs["engine"] <= costs["enumerate"]) == (route == "engine")
    formed = []
    owner, name = ((select_module, "_enumerated_char") if route == "enumerate"
                   else (TableArithmetic, "from_traces"))
    inner = getattr(owner, name)

    def counted(*args):
        formed.append(1)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    _, _, cert = weaver_partition(random_isotropic(d, m, np.random.default_rng(seed)))
    choices = cert.choices[1:]  # vector 0 is fixed, not walked
    assert cert.valid
    firsts = 1 + len(choices)
    assert firsts + sum(choices) <= len(formed) <= firsts + sum(choices) + cert.fallbacks \
        < firsts + len(choices)


def test_signing_select_budget_is_checked_before_any_kernel_call(monkeypatch):
    calls = []

    def recorded(mats):
        calls.append(mats.shape)
        return charpoly_batch_exact(mats)

    monkeypatch.setattr(graphs_module, "charpoly_batch_exact", recorded)
    k33 = complete_bipartite(3, 3)
    # the walk's tables are K_{3,3}'s in frontier order
    label = {v: i for i, v in enumerate(frontier_order(k33))}
    walk = Graph(6, [(label[a], label[b]) for a, b in k33.edges])
    engine = SigningEngine(walk)
    states = sum(len(m) for m, _ in engine.tables)
    work = walk_entries(engine)
    assert work > states
    # the DP's count of states and leaf entries passes each as it grows
    for budget in (8, states - 1, states, work - 1):
        with pytest.raises(BudgetExceededError):
            signing_select(k33, budget=budget)
        assert calls == []
    signing_select(k33, budget=work)
    assert calls


@pytest.mark.parametrize("name", ["K33", "cube", "K44", "cover24"])
def test_signing_walk_is_refused_exactly_past_the_oracle_work(name):
    # the library counts a walk's work as its DP grows; the oracle sums it
    # over the finished tables of the graph in walk order, and the walk
    # runs on exactly that budget and is refused one below it
    g = walked_cover24() if name == "cover24" else \
        {"K33": complete_bipartite(3, 3), "cube": CUBE, "K44": complete_bipartite(4, 4)}[name]
    work = walk_entries(SigningEngine(in_walk_order(g), 1 << 30))
    with pytest.raises(BudgetExceededError, match="DP states and leaf entries"):
        signing_select(g, budget=work - 1)
    _, cert = signing_select(g, budget=work)
    assert cert.valid


def test_signing_select_requires_regular():
    with pytest.raises(ValueError):
        signing_select(path(3))
    with pytest.raises(ValueError):
        signing_select(Graph(2, []))


# ----------------------------------------------------------------------
# Engine walks against enumeration walks
# ----------------------------------------------------------------------


def _walk_by(route: str, first: np.ndarray, rest) -> SelectionCertificate:
    """Weaver's walk with ``route`` made the cheaper one by its cost estimate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(select_module, "_walk_costs",
                   lambda *args: {"enumerate": 1, "engine": 1, route: 0})
        return select_module._weaver_walk(first, rest)


def _lifts(first: np.ndarray, rest) -> tuple:
    """_weaver_walk's lifted walk, (rows, fixed): (first, 0) is fixed, and
    each v of ``rest`` is (v, 0) or (0, v) with probability 1/2."""
    zero = np.zeros(len(first), dtype=first.dtype)
    return ([two_point(np.concatenate([v, zero]), np.concatenate([zero, v])) for v in rest],
            np.concatenate([first, zero]))


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
        rows, first = _lifts(vs.vectors[0], vs.vectors[1:])
        choices, levels, pledged = enumeration_walk(rows, [first])
        for route in ("engine", "enumerate"):
            cert = _walk_by(route, vs.vectors[0], vs.vectors[1:])
            assert cert.choices == choices
            assert cert.levels == levels
            assert cert.pledged == pledged
            assert cert.valid
        s1, s2, via_weaver = weaver_partition(vs)
        assert via_weaver.choices == [0] + choices


def test_float_walk_roots_only_the_children_it_tests(monkeypatch):
    # a level roots its children in support order up to the first that
    # meets its parent: one when side one is kept, two when side two is,
    # and the pledge once; the certificate takes eigvalsh, not a root
    rooted = []
    top = select_module.float_top_root
    monkeypatch.setattr(select_module, "float_top_root", lambda p: rooted.append(p) or top(p))
    vs = random_isotropic(3, 12, np.random.default_rng(283))
    _, _, cert = weaver_partition(vs)
    assert cert.valid and cert.fallbacks == 0
    assert 0 < sum(cert.choices) < len(cert.choices) - 1
    assert len(rooted) == 1 + sum(1 + c for c in cert.choices[1:])


def test_float_weaver_levels_match_enumeration_walk():
    rng = np.random.default_rng(241)
    for m in (10, 12, 14):
        vs = random_isotropic(3, m, rng)
        rows, first = _lifts(vs.vectors[0], vs.vectors[1:])
        choices, levels, pledged = enumeration_walk(rows, [first])
        _, _, cert = weaver_partition(vs)
        assert abs(cert.pledged - pledged) <= 1e-10
        assert max(abs(a - b) for a, b in zip(cert.levels[1:], levels)) <= 1e-10
        assert cert.choices == [0] + choices
        # weaver_partition takes the engine here; the enumeration route too
        cert = _walk_by("enumerate", vs.vectors[0], vs.vectors[1:])
        assert abs(cert.pledged - pledged) <= 1e-10
        assert max(abs(a - b) for a, b in zip(cert.levels, levels)) <= 1e-10
        assert cert.choices == choices


def test_float_weaver_d4_m400_rereads_each_parents_traces():
    # 400 rows in R^4 (CI's generator): the late levels' roots cluster,
    # and traces carried from level to level as parent +- tr D drift enough
    # to raise NotRealRootedError; each kept child's traces are read from
    # its tables, and the walk certifies
    g = np.random.default_rng(400).standard_normal((400, 4))
    w, u = np.linalg.eigh(g.T @ g)
    vs = VectorSystem(g @ (u / np.sqrt(w)) @ u.T)
    s1, s2, cert = weaver_partition(vs)
    assert sorted(s1 + s2) == list(range(400))
    assert cert.valid and cert.achieved <= cert.pledged
    for side in (s1, s2):
        block = vs.vectors[side].T @ vs.vectors[side]
        assert np.linalg.eigvalsh(block)[-1] <= weaver_bound(vs.max_norm_sq()) + 1e-7


def test_weaver_m64_certifies():
    rng = np.random.default_rng(251)
    vs = random_isotropic(3, 64, rng)
    alpha = vs.max_norm_sq()
    s1, s2, cert = weaver_partition(vs)
    assert sorted(s1 + s2) == list(range(64))
    assert cert.valid
    for side in (s1, s2):
        block = vs.vectors[side].T @ vs.vectors[side]
        assert np.linalg.eigvalsh(block)[-1] <= weaver_bound(alpha) + 1e-7


@pytest.mark.parametrize("route", ["enumerate", "engine"])
def test_float_walk_on_zero_supports_pledges_and_achieves_zero(route):
    # every polynomial of the walk is x^2, its linear coefficient 0.0 or
    # -0.0, whose top root 0 the float route must return
    cert = _walk_by(route, np.zeros(1), np.zeros((2, 1)))
    assert cert.valid
    assert cert.pledged == cert.achieved == 0.0 and cert.levels == [0.0, 0.0]


def test_exact_walk_with_a_zero_vector_and_a_large_common_scale():
    # the common scale is 2 * 10^20; the zero vectors' weights would be that
    # large too, past int64, but a zero vector adds nothing to the tables
    big = 10 ** 10
    v = np.array([Fraction(1, big), Fraction(2, big)], dtype=object)
    zero = np.array([0, 0], dtype=object)
    for first, rest in ((zero, [v, v]), (zero, [v, zero, v]), (v, [zero, v])):
        rows, fixed = _lifts(first, rest)
        choices, levels, pledged = enumeration_walk(rows, [fixed])
        cert = _walk_by("engine", first, rest)
        assert (cert.choices, cert.levels, cert.pledged) == (choices, levels, pledged)


def _route_polys(route, first, rest, picks) -> list:
    """The pledge and each level's children that ``route`` yields on the
    lifts of ``rest`` from (first, 0), keeping side ``picks[l]`` at level l."""
    rows, fixed = _lifts(first, rest)
    choices = []
    steps = route(fixed, rows, first.dtype == object, choices)
    out = [[next(steps)]]
    for pick, children in zip(picks, steps):
        out.append(list(children))
        choices.append(pick)
    return out


def _rational_lifts(rng, d: int, m: int, exact: bool = True) -> tuple:
    """(first, rest): m random rational vectors in R^d, small numerators
    over denominators up to 12, one of them zero past m = 3."""
    vecs = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))) for _ in range(d)]
            for _ in range(m)]
    if m > 3:
        vecs[int(rng.integers(1, m))] = [0] * d
    arr = np.array(vecs, dtype=object)
    if not exact:
        arr = arr.astype(float)
    return arr[0], arr[1:]


# (d, m) pairs with d = 2..5 and m = 2..10, the larger d at smaller m
ROUTE_CASES = [(2, 2), (2, 10), (3, 6), (3, 10), (4, 4), (4, 7), (5, 2), (5, 3)]


def test_engine_route_equals_the_fold_peel_oracle():
    # exact polynomials, pledge and children alike, equal to the oracle's
    # folds and peels on random rational lifts and random sides kept,
    # zero vectors and a large common scale included
    rng = np.random.default_rng(313)
    big = np.array([Fraction(1, 10 ** 10), Fraction(3, 10 ** 10)], dtype=object)
    cases = [_rational_lifts(rng, d, m) for d, m in ROUTE_CASES]
    cases += [(0 * big, np.array([big, 0 * big, 2 * big], dtype=object)),
              (big, np.array([big, [1, 0]], dtype=object))]
    for first, rest in cases:
        picks = rng.integers(0, 2, size=len(rest)).tolist()
        got = _route_polys(select_module._engine_route, first, rest, picks)
        want = _route_polys(fold_peel_route, first, rest, picks)
        assert len(got) == len(rest) + 1
        assert all(p.is_exact for level in got for p in level)
        assert got == want


def test_float_engine_route_is_within_1e_12_of_the_fold_peel_oracle():
    rng = np.random.default_rng(317)
    for d, m in ROUTE_CASES:
        first, rest = _rational_lifts(rng, d, m, exact=False)
        first = first + rng.standard_normal(d)
        picks = rng.integers(0, 2, size=len(rest)).tolist()
        got = _route_polys(select_module._engine_route, first, rest, picks)
        want = _route_polys(fold_peel_route, first, rest, picks)
        for ours, theirs in zip(got, want):
            for p, q in zip(ours, theirs, strict=True):
                scale = max(abs(c) for c in q.coeffs)
                assert not p.is_exact and len(p.coeffs) == len(q.coeffs)
                assert max(abs(a - b) for a, b in zip(p.coeffs, q.coeffs)) <= 1e-12 * scale


def _lifted_tables(phi: np.ndarray, d: int) -> list:
    """Weaver's pair tables read back into the lifted layout: W_k, k =
    0..2d, on the k-subsets of range(2d) in lexicographic order, with
    W_(j+i)[S + R, S' + R'] = Phi[(j, S, S'), (i, R, R')] for the top
    pairs (j, S, S') and the bottom pairs (i, R, R'), numbered alike, and
    every other entry zero."""
    pairs = [(s, t) for j in range(d + 1) for s in itertools.combinations(range(d), j)
             for t in itertools.combinations(range(d), j)]
    number = [{s: i for i, s in enumerate(itertools.combinations(range(2 * d), k))}
              for k in range(2 * d + 1)]
    tables = [np.zeros((len(n), len(n)), dtype=phi.dtype) for n in number]
    for row, (s, t) in zip(phi, pairs):
        for x, (r, q) in zip(row, pairs):
            k = len(s) + len(r)
            tables[k][number[k][s + tuple(a + d for a in r)],
                      number[k][t + tuple(a + d for a in q)]] = x
    return tables


def test_lift_build_equals_fold_terms():
    # the build folds each lift into the pair tables by one leg product and
    # its transpose; read back into the lifted layout they equal fold_terms
    # of both points, exactly, at every step, which leaves every entry off
    # the blocks zero, and they stay invariant under the block swap, Phi = Phi^T
    rng = np.random.default_rng(331)
    for d, m in ROUTE_CASES:
        _, rest = _rational_lifts(rng, d, m)
        rows, _ = _lifts(np.zeros(d, dtype=object), rest)
        arith = TableArithmetic(2 * d, [t for row in rows for t in row], True)
        size = math.comb(2 * d, d)
        ours = np.zeros((size, size), dtype=arith.dtype)
        ours[0, 0] = 1
        theirs = arith.empty()
        for row in rows:
            (w,), a = arith.encode(row[:1])
            y = select_module._sandwiches(ours, w, a[0, :d])
            ours = ours + y + y.T
            theirs = fold_terms(theirs, *arith.encode(row))
            assert (ours == ours.T).all()
            assert all((a == b).all() for a, b in zip(_lifted_tables(ours, d), theirs,
                                                      strict=True))


def test_lifted_family_between_the_int64_thresholds_agrees_with_python_ints(monkeypatch):
    # integer lifts in R^3: the common scale is 2, from the weight 1/2, and
    # the walk's terms are (first, 0) at weight 1 and both points of every
    # lift at weights 1/2 and 1, so D = max_a 2 first_a^2 + 3 sum_v v_a^2 =
    # 752 and (n^2 + 1) D^n < 2^63 <= (2 n^2 + 1) D^n for n = 6: the tables hold
    # Python ints where the fold-only bound would have chosen int64.
    # Forced into int64, the walk's polynomials (builds of Y + sigma Y,
    # levels of M + M^T) are the same
    rng = np.random.default_rng(337)
    rest = np.array([[5] + rng.integers(-4, 5, size=2).tolist() for _ in range(10)],
                    dtype=object)
    first = np.array([1, -2, 3], dtype=object)
    top = max(2 * first[a] ** 2 + 3 * sum(v[a] ** 2 for v in rest) for a in range(3))
    assert top == 752
    assert 37 * top ** 6 < 2 ** 63 <= 73 * top ** 6
    rows, fixed = _lifts(first, rest)
    every = [(1, fixed)] + [t for row in rows for p, v in row for t in ((p, v), (1, v))]
    assert TableArithmetic(6, every, True).dtype is object
    picks = rng.integers(0, 2, size=len(rest)).tolist()
    as_objects = _route_polys(select_module._engine_route, first, rest, picks)

    class Int64Tables(TableArithmetic):
        def __init__(self, *args):
            super().__init__(*args)
            self.dtype = np.int64

    monkeypatch.setattr(select_module, "TableArithmetic", Int64Tables)
    assert _route_polys(select_module._engine_route, first, rest, picks) == as_objects


def test_greedy_walk_budget_is_checked_before_the_first_step():
    rng = np.random.default_rng(257)
    vs = random_isotropic(3, 25, rng)
    # vector 0 is fixed, and each of the other 24 takes one kernel call to
    # fold its lift into the parent and one at its level
    cost = select_module._walk_costs(6, 24)["engine"]
    assert cost == (48 + 1) * math.comb(12, 6)
    with pytest.raises(BudgetExceededError):
        weaver_partition(vs, budget=cost - 1)
    s1, s2, cert = weaver_partition(vs, budget=cost)
    assert cert.valid


def test_walk_costs_pick_enumeration_in_high_dimension():
    # r two-point levels: 2^r + 2 (2^r - 1) outcomes, n^2 entries each,
    # against 2r + 1 table sandwiches of C(2n, n) entries
    costs = select_module._walk_costs
    for n, r in ((4, 1), (6, 12), (12, 6)):
        outcomes = 2 ** r + sum(2 * 2 ** (r - lvl - 1) for lvl in range(r))
        assert costs(n, r) == {"enumerate": outcomes * n * n,
                               "engine": (2 * r + 1) * math.comb(2 * n, n)}
    assert costs(6, 12)["engine"] < costs(6, 12)["enumerate"]


def test_weaver_dimension_7_certifies_at_the_default_budget():
    # with vector 0 fixed, the engine would cost 13 x C(28, 14), about 5.2e8
    # entries, and enumeration 190 x 196, which the walk takes
    rng = np.random.default_rng(269)
    vs = random_isotropic(7, 7, rng)
    alpha = vs.max_norm_sq()
    s1, s2, cert = weaver_partition(vs)
    assert sorted(s1 + s2) == list(range(7))
    assert cert.valid
    # seven isotropic rows in R^7 are an orthonormal basis: every outcome's
    # top eigenvalue is 1, and so is, to 1e-7, the top root of the exact
    # expected polynomial of the walk's float rows, at every level
    rows, first = _lifts(vs.vectors[0], vs.vectors[1:])
    _, levels, pledged = enumeration_walk(rows, [first])
    assert max(abs(r - 1) for r in [pledged] + levels) <= 1e-7
    for side in (s1, s2):
        block = vs.vectors[side].T @ vs.vectors[side]
        assert np.linalg.eigvalsh(block)[-1] <= weaver_bound(alpha) + 1e-7


@pytest.mark.xfail(strict=True, reason="float weaver's pledge on a top root of multiplicity 7 "
                   "reads 1.0189 against the exact 1.0000000000000155: the float expected "
                   "polynomial's summation error moves the cluster (CHANGES.md, FOUND)")
def test_weaver_dimension_7_pledges_the_exact_expected_top_root():
    # the input of the test above, whose exact pledge and levels are 1 to 1e-7.
    # The pledge's reference roots the exact expected polynomial of the
    # rows at their dyadic values, not its rounded coefficients
    vs = random_isotropic(7, 7, np.random.default_rng(269))
    _, _, cert = weaver_partition(vs)
    rows, first = _lifts(vs.vectors[0], vs.vectors[1:])

    def dyadic(v):
        return np.array([Fraction(x) for x in v.tolist()], dtype=object)

    exact = conditional_expected_poly([[(Fraction(p), dyadic(v)) for p, v in row] for row in rows],
                                      [dyadic(first)])
    assert exact.is_exact
    assert abs(cert.pledged - select_module._top_cluster(exact).root) <= 1e-10
    _, levels, pledged = enumeration_walk(rows, [first])
    assert max(abs(a - b) for a, b in zip(cert.levels, [pledged] + levels)) <= 1e-10
