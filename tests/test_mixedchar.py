"""Mixed characteristic polynomials and the expectation identity.

``mixed_char`` runs on the exterior-power engine; the truncated
multi-affine ring of ``tests/oracles.py`` computes det(xI + sum z_i A_i)
modulo z_i^2, and inclusion-exclusion over the z-gradient yields the same
polynomial independently.  Expected characteristic polynomials of
independent finite-support random rank-one sums are computed by direct
enumeration and must agree.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from interlace import (
    Polynomial,
    SymMatrix,
    char_poly,
    DiscreteRandomVector,
    BudgetExceededError,
    mixed_char,
    expected_char_poly,
    mixed_identity_check,
    mixed_char_root_bound,
    is_real_rooted,
    real_roots,
)
from interlace.mixedchar import TableArithmetic, _rank_one_terms, fold_terms
from oracles import TruncatedMultiAffine, ring_mixed_char


# ----------------------------------------------------------------------
# Random vectors
# ----------------------------------------------------------------------


def test_discrete_random_vector_basic():
    r = DiscreteRandomVector.two_point([1, 0], [0, 1])
    assert r.dim == 2
    assert r.is_exact
    cov = r.covariance()
    assert cov.a[0, 0] == Fraction(1, 2)
    assert cov.a[1, 1] == Fraction(1, 2)
    assert cov.a[0, 1] == 0


def test_deterministic_vector():
    r = DiscreteRandomVector.deterministic([2.0, 0.0])
    assert not r.is_exact
    assert r.covariance().a[0, 0] == pytest.approx(4.0)


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        DiscreteRandomVector([(0.6, [1.0]), (0.6, [2.0])])
    with pytest.raises(ValueError):
        DiscreteRandomVector([(Fraction(1, 3), [1]), (Fraction(1, 3), [2])])
    # float roundoff within 1e-12 is fine
    DiscreteRandomVector([(0.1, [1.0])] * 10)


# ----------------------------------------------------------------------
# Truncated multi-affine ring
# ----------------------------------------------------------------------


def test_truncated_ring_squares_vanish():
    x = TruncatedMultiAffine({frozenset({0}): Polynomial([1])})
    assert (x * x).terms == {}
    one = TruncatedMultiAffine.constant(Polynomial([1]))
    prod = (one + x) * (one + x)
    # (1 + z0)^2 = 1 + 2 z0 mod z0^2
    assert prod.coefficient(frozenset()) == Polynomial([1])
    assert prod.coefficient(frozenset({0})) == Polynomial([2])


def test_truncated_ring_distinct_variables_multiply():
    z0 = TruncatedMultiAffine({frozenset({0}): Polynomial([1])})
    z1 = TruncatedMultiAffine({frozenset({1}): Polynomial([1])})
    prod = z0 * z1
    assert prod.coefficient(frozenset({0, 1})) == Polynomial([1])
    assert (z0 * z1 - z1 * z0).terms == {}


# ----------------------------------------------------------------------
# mixed_char
# ----------------------------------------------------------------------


def test_mixed_char_single_matrix():
    # For one matrix, mu[A] = x^d - x^(d-1) tr(A): the expectation over a
    # single rank-one vector with covariance A.
    a = SymMatrix([[2, 1], [1, 2]])
    assert mixed_char([a]) == Polynomial([0, -4, 1])
    # for a rank-one matrix this coincides with its characteristic polynomial
    vv = SymMatrix.outer(np.array([1, 2]))
    assert mixed_char([vv]) == char_poly(vv)


def test_mixed_char_identity_halves():
    # A_1 = A_2 = I/2 in dim 2: mu = x^2 - 2x + ... work it out by the
    # enumeration identity with deterministic vectors instead; here just
    # pin the exact coefficients computed by an independent symbolic
    # expansion: det(xI + z1 I/2 + z2 I/2) = (x + z1/2 + z2/2)^2 and
    # applying (1-d/dz1)(1-d/dz2) at z=0 gives x^2 - 2*(1/2)*... = x^2 - 2x + 1/2.
    half = SymMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    p = mixed_char([half, half])
    assert p == Polynomial([Fraction(1, 2), -2, 1])


def test_mixed_char_rank_one_diagonal():
    # e1e1^T and e2e2^T: det(xI + z1 e1e1^T + z2 e2e2^T) = (x+z1)(x+z2);
    # inclusion-exclusion gives (x-1)(x-1)... i.e. mu = x^2 - 2x + 1.
    e1 = SymMatrix([[1, 0], [0, 0]])
    e2 = SymMatrix([[0, 0], [0, 1]])
    assert mixed_char([e1, e2]) == Polynomial([1, -2, 1])


def test_mixed_char_is_monic_of_full_degree():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        mats = []
        for _ in range(m):
            b = rng.standard_normal((d, d))
            mats.append(b @ b.T)
        p = mixed_char(mats)
        assert p.degree == d
        assert p.coeffs[-1] == pytest.approx(1.0)


def test_mixed_char_real_rooted_flag():
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        mats = []
        for _ in range(int(rng.integers(1, 5))):
            b = rng.standard_normal((d, d))
            mats.append(b @ b.T)
        # mixed characteristic polynomials of PSD families are always
        # real-rooted
        assert is_real_rooted(mixed_char(mats))


def test_mixed_char_rejects_non_psd():
    with pytest.raises(ValueError):
        mixed_char([np.array([[-1.0, 0.0], [0.0, 1.0]])])


def test_mixed_char_caps():
    with pytest.raises(ValueError):
        mixed_char([np.eye(11)])
    with pytest.raises(ValueError):
        mixed_char([np.eye(2)] * 17)


# ----------------------------------------------------------------------
# expected_char_poly and the expectation identity
# ----------------------------------------------------------------------


def test_expected_char_poly_deterministic_case():
    r1 = DiscreteRandomVector.deterministic([1, 0])
    r2 = DiscreteRandomVector.deterministic([0, 1])
    p = expected_char_poly([r1, r2])
    assert p == Polynomial([1, -2, 1])  # char poly of I_2


def test_expected_char_poly_exact_two_point():
    # r = (1,0) or (0,1) with prob 1/2 each, a single vector:
    # E det(xI - rr^T) = x(x-1) exactly.
    r = DiscreteRandomVector.two_point([1, 0], [0, 1])
    assert expected_char_poly([r]) == Polynomial([0, -1, 1])


def test_expected_char_poly_averages_correctly():
    # two signed copies: E over 4 outcomes; cross-check by hand enumeration
    r1 = DiscreteRandomVector.two_point([1, 1], [1, -1])
    r2 = DiscreteRandomVector.two_point([2, 0], [0, 2])
    got = expected_char_poly([r1, r2])
    acc = Polynomial.zero()
    for v1 in ([1, 1], [1, -1]):
        for v2 in ([2, 0], [0, 2]):
            a = np.outer(v1, v1) + np.outer(v2, v2)
            acc = acc + Fraction(1, 4) * char_poly(SymMatrix(a.tolist()))
    assert got == acc


def test_expectation_identity_exact():
    r1 = DiscreteRandomVector.two_point([1, 0], [0, 1])
    r2 = DiscreteRandomVector.two_point([1, 1], [1, -1])
    assert mixed_identity_check([r1, r2])


def test_expectation_identity_float_randomized():
    rng = np.random.default_rng(37)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        rvs = []
        for _ in range(m):
            v = rng.standard_normal(d)
            w = rng.standard_normal(d)
            rvs.append(DiscreteRandomVector.two_point(v.tolist(), w.tolist()))
        assert mixed_identity_check(rvs)


def test_expectation_identity_fails_for_rank_two():
    # The identity is genuinely rank-one-only.  A random matrix that is
    # 2I or 0 with prob 1/2 has expectation I, but
    # E char_poly = ((x-2)^2 + x^2)/2 = x^2 - 2x + 2 has complex roots,
    # whereas mu[I] = x^2 - 2x is real-rooted -- so they cannot agree.
    outcomes = [
        (Fraction(1, 2), SymMatrix([[2, 0], [0, 2]])),
        (Fraction(1, 2), SymMatrix.zeros(2, exact=True)),
    ]
    avg = Polynomial.zero()
    for p, mat in outcomes:
        avg = avg + p * char_poly(mat)
    assert avg == Polynomial([2, -2, 1])
    assert not is_real_rooted(avg)
    mu = mixed_char([SymMatrix.identity(2, exact=True)])
    assert mu == Polynomial([0, -2, 1])
    assert mu != avg


def test_expected_char_poly_budget():
    rvs = [DiscreteRandomVector.two_point([1.0, 0.0], [0.0, 1.0])] * 4
    with pytest.raises(BudgetExceededError):
        expected_char_poly(rvs, budget=8)  # 2^4 = 16 outcomes > 8
    expected_char_poly(rvs, budget=16)  # exactly at the budget is fine


def test_mixed_char_roots_real_on_random_two_point_systems():
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        rvs = []
        for _ in range(m):
            rvs.append(DiscreteRandomVector.two_point(
                rng.standard_normal(d).tolist(), rng.standard_normal(d).tolist()))
        p = expected_char_poly(rvs)
        assert is_real_rooted(p, tol=1e-7)


# ----------------------------------------------------------------------
# Root bound for decompositions of the identity
# ----------------------------------------------------------------------


def test_mixed_char_root_bound_formula():
    # m copies of I/m in dim 1: eps = 1/m, bound = (1 + 1/sqrt(m))^2
    for m in (1, 4, 9):
        mats = [SymMatrix([[Fraction(1, m)]]) for _ in range(m)]
        assert mixed_char_root_bound(mats) == pytest.approx((1 + 1 / math.sqrt(m)) ** 2)


def test_mixed_char_root_bound_requires_identity_sum():
    with pytest.raises(ValueError):
        mixed_char_root_bound([SymMatrix([[Fraction(1, 2)]])])


def test_mixed_char_root_bound_holds_randomized():
    rng = np.random.default_rng(43)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        parts = [rng.standard_normal((d, d)) for _ in range(m)]
        psd = [b @ b.T for b in parts]
        total = sum(psd)
        w, u = np.linalg.eigh(total)
        inv_half = u @ np.diag(1 / np.sqrt(w)) @ u.T
        mats = [inv_half @ p @ inv_half for p in psd]
        bound = mixed_char_root_bound(mats)
        top = real_roots(mixed_char(mats))[0]
        assert top <= bound + 1e-7


# ----------------------------------------------------------------------
# The exterior-power engine against the truncated ring
# ----------------------------------------------------------------------


def _random_family(rng, d, m, kinds=("rank1", "full", "mixed"), denominators=(1,)):
    """m PSD integer (or rational) matrices B B^T of mixed rank."""
    mats = []
    for _ in range(m):
        kind = kinds[int(rng.integers(len(kinds)))]
        r = {"rank1": 1, "full": d, "mixed": int(rng.integers(1, d + 1))}[kind]
        b = rng.integers(-2, 3, size=(d, r))
        q = int(rng.choice(denominators))
        mats.append(SymMatrix(np.array([[Fraction(int(x), q) for x in row]
                                        for row in b @ b.T], dtype=object)))
    return mats


def test_engine_matches_ring_exact():
    rng = np.random.default_rng(211)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        mats = _random_family(rng, d, m)
        got = mixed_char(mats)
        assert got.is_exact
        assert got == ring_mixed_char(mats)


def test_engine_matches_ring_rational_inputs():
    # one common scale L makes the tables integral; undoing it must be exact
    rng = np.random.default_rng(223)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        mats = _random_family(rng, d, m, denominators=(1, 2, 3, 7, 10))
        got = mixed_char(mats)
        assert got == ring_mixed_char(mats)
    third = SymMatrix(np.array([[Fraction(1, 3), Fraction(1, 3)],
                                [Fraction(1, 3), Fraction(1, 3)]], dtype=object))
    seventh = SymMatrix(np.array([[Fraction(2, 7), 0], [0, Fraction(1, 7)]], dtype=object))
    # det(xI + z1 A + z2 B) by hand: mu = x^2 - (2/3 + 3/7) x + (1/3 * 1/7 + 1/3 * 2/7)
    assert mixed_char([third, seventh]) == \
        Polynomial([Fraction(1, 7), -Fraction(23, 21), 1])


def test_engine_matches_ring_float():
    rng = np.random.default_rng(227)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        mats = []
        for _ in range(m):
            b = rng.standard_normal((d, int(rng.integers(1, d + 1))))
            mats.append(b @ b.T)
        got = mixed_char(mats)
        want = ring_mixed_char(mats)
        scale = max(abs(c) for c in want.coeffs)
        assert len(got.coeffs) == len(want.coeffs)
        assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) <= 1e-12 * scale


def _engine_poly(mats, dtype=None):
    """mixed_char's route through the engine, optionally forcing the table dtype."""
    exact = all(mat.is_exact for mat in mats)
    groups = [_rank_one_terms(mat, exact) for mat in mats]
    arith = TableArithmetic(mats[0].n, [t for g in groups for t in g], exact)
    chosen = arith.dtype
    if dtype is not None:
        arith.dtype = dtype
    tables = arith.empty()
    for g in groups:
        tables = fold_terms(tables, *arith.encode(g))
    return arith.poly(tables), chosen


def test_engine_int64_for_sign_vectors_in_dimension_10():
    rng = np.random.default_rng(229)
    mats = [SymMatrix.outer(v) for v in rng.choice([-1, 1], size=(16, 10))]
    _, chosen = _engine_poly(mats[:1])
    assert chosen is np.int64
    small = mats[:3]
    as_int64, chosen = _engine_poly(small)
    assert chosen is np.int64
    as_objects, _ = _engine_poly(small, dtype=object)
    assert as_int64 == as_objects


def test_engine_python_ints_for_large_entries():
    # entries near 10^6: the int64 bound fails, so the tables hold Python
    # ints; int64 tables would overflow and disagree with the ring
    rng = np.random.default_rng(233)
    for _ in range(3):
        mats = []
        for r in (1, 2, 4, 3):
            b = rng.integers(-10 ** 3, 10 ** 3, size=(4, r))
            mats.append(SymMatrix((b @ b.T).astype(object)))
        got, chosen = _engine_poly(mats)
        assert chosen is object
        assert got == ring_mixed_char(mats)
        assert got == mixed_char(mats)


def test_mixed_char_d10_m16_exact_is_fast_and_equals_char_poly_of_sum():
    rng = np.random.default_rng(239)
    vecs = rng.choice([-1, 1], size=(16, 10))
    mats = [SymMatrix.outer(v) for v in vecs]
    t0 = time.perf_counter()
    got = mixed_char(mats)
    elapsed = time.perf_counter() - t0
    total = SymMatrix(sum(np.outer(v, v) for v in vecs).astype(object))
    assert got == char_poly(total)
    assert elapsed < 2.0


def test_mixed_char_ldl_handles_a_zero_pivot_with_a_nonzero_row():
    # indefinite by 1e-12, inside the PSD check's slack: the LDL^T skips
    # the zero pivot and splits what is left entrywise
    eps = Fraction(1, 10 ** 6)
    a = SymMatrix(np.array([[0, eps], [eps, 1]], dtype=object))
    b = SymMatrix(np.array([[1, 0], [0, 2]], dtype=object))
    assert mixed_char([a, b]) == ring_mixed_char([a, b])


def test_fold_terms_batch_equals_one_table_at_a_time():
    # each table of a batch must come out as if folded alone
    rng = np.random.default_rng(263)
    n = 10
    stack = [np.ones((7, 1, 1), dtype=np.int64)] + [
        rng.integers(-3, 4, size=(7, math.comb(n, k), math.comb(n, k)))
        for k in range(1, n + 1)]
    weights, vecs = [2, -1], rng.integers(-2, 3, size=(2, n))
    batched = fold_terms(stack, weights, vecs)
    for b in range(7):
        alone = fold_terms([t[b] for t in stack], weights, vecs)
        assert all((x[b] == y).all() for x, y in zip(batched, alone))
