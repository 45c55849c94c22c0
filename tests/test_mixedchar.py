"""Mixed characteristic polynomials and the expectation identity.

``mixed_char`` runs on the exterior-power engine; the truncated
multi-affine ring of ``tests/oracles.py`` computes det(xI + sum z_i A_i)
modulo z_i^2, and inclusion-exclusion over the z-gradient yields the same
polynomial independently.  Expected characteristic polynomials of
independent finite-support random rank-one sums are computed by direct
enumeration and must agree.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from interlace import (
    Polynomial,
    SymMatrix,
    char_poly,
    BudgetExceededError,
    mixed_char,
    real_roots,
)
from interlace.mixedchar import TableArithmetic, _rank_one_terms, fold_terms, peel_terms
from interlace.tolerances import COEFF_TOL
from fixtures import allclose, two_point
from oracles import TruncatedMultiAffine, conditional_expected_poly, ring_mixed_char
from paper import covariance, is_real_rooted, mixed_char_root_bound


# ----------------------------------------------------------------------
# Random vectors
# ----------------------------------------------------------------------


def test_discrete_random_vector_basic():
    # a random vector is a list of (probability, vector) pairs
    cov = covariance(two_point([1, 0], [0, 1]))
    assert cov == SymMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]) and cov.is_exact


def test_deterministic_vector():
    cov = covariance([(1.0, [2.0, 0.0])])
    assert not cov.is_exact
    assert cov.a[0, 0] == pytest.approx(4.0)


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
    vv = SymMatrix(np.outer([1, 2], [1, 2]))
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
# Expected characteristic polynomials and the expectation identity
# ----------------------------------------------------------------------


def test_expected_char_poly_deterministic_case():
    r1 = [(1, [1, 0])]
    r2 = [(1, [0, 1])]
    p = conditional_expected_poly([r1, r2])
    assert p == Polynomial([1, -2, 1])  # char poly of I_2


def test_expected_char_poly_exact_two_point():
    # r = (1,0) or (0,1) with prob 1/2 each, a single vector:
    # E det(xI - rr^T) = x(x-1) exactly.
    r = two_point([1, 0], [0, 1])
    assert conditional_expected_poly([r]) == Polynomial([0, -1, 1])


def test_expected_char_poly_averages_correctly():
    # two signed copies: E over 4 outcomes; cross-check by hand enumeration
    r1 = two_point([1, 1], [1, -1])
    r2 = two_point([2, 0], [0, 2])
    got = conditional_expected_poly([r1, r2])
    acc = Polynomial(())
    for v1 in ([1, 1], [1, -1]):
        for v2 in ([2, 0], [0, 2]):
            a = np.outer(v1, v1) + np.outer(v2, v2)
            acc = acc + Fraction(1, 4) * char_poly(SymMatrix(a.tolist()))
    assert got == acc


def test_expectation_identity_exact():
    r1 = two_point([1, 0], [0, 1])
    r2 = two_point([1, 1], [1, -1])
    # exact: equal coefficient for coefficient, or RuntimeError
    conditional_expected_poly([r1, r2], cross_check=True)


def test_expectation_identity_float_randomized():
    rng = np.random.default_rng(37)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        rvs = []
        for _ in range(m):
            v = rng.standard_normal(d)
            w = rng.standard_normal(d)
            rvs.append(two_point(v.tolist(), w.tolist()))
        conditional_expected_poly(rvs, cross_check=True)


def test_expectation_identity_fails_for_rank_two():
    # The identity is genuinely rank-one-only.  A random matrix that is
    # 2I or 0 with prob 1/2 has expectation I, but
    # E char_poly = ((x-2)^2 + x^2)/2 = x^2 - 2x + 2 has complex roots,
    # whereas mu[I] = x^2 - 2x is real-rooted -- so they cannot agree.
    outcomes = [
        (Fraction(1, 2), SymMatrix([[2, 0], [0, 2]])),
        (Fraction(1, 2), SymMatrix(np.zeros((2, 2), dtype=int))),
    ]
    avg = Polynomial(())
    for p, mat in outcomes:
        avg = avg + p * char_poly(mat)
    assert avg == Polynomial([2, -2, 1])
    assert not is_real_rooted(avg)
    mu = mixed_char([SymMatrix.identity(2, exact=True)])
    assert mu == Polynomial([0, -2, 1])
    assert mu != avg


def test_expected_char_poly_budget():
    rvs = [two_point([1.0, 0.0], [0.0, 1.0])] * 4
    with pytest.raises(BudgetExceededError):
        conditional_expected_poly(rvs, budget=8)  # 2^4 = 16 outcomes > 8
    conditional_expected_poly(rvs, budget=16)  # exactly at the budget is fine


def test_mixed_char_roots_real_on_random_two_point_systems():
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        rvs = []
        for _ in range(m):
            rvs.append(two_point(
                rng.standard_normal(d).tolist(), rng.standard_normal(d).tolist()))
        p = conditional_expected_poly(rvs)
        assert is_real_rooted(p)


@pytest.mark.parametrize("d", [4, 6, 10])
def test_float_mixed_char_of_rotated_projections_has_roots_one(d):
    # the projections onto the columns of an orthogonal Q sum to I, so
    # mu = (x - 1)^d; the float table's rounding leaves a d-fold cluster,
    # which the derivative chain takes back to its mean 1
    q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((d, d)))
    p = mixed_char([np.outer(q[:, i], q[:, i]) for i in range(d)])
    assert not p.is_exact
    assert np.max(np.abs(real_roots(p) - 1.0)) <= 1e-12


def test_float_mixed_char_of_rank_deficient_families_is_real_rooted():
    # sums of low-rank PSD matrices and pieces of rotated projectors:
    # zero roots, and clusters at 1, from float tables
    rng = np.random.default_rng(43)
    for i in range(200):
        d = int(rng.integers(3, 9))
        if i % 2:
            mats = [b @ b.T for b in (rng.standard_normal((d, int(rng.integers(1, d))))
                                      for _ in range(int(rng.integers(1, d + 2))))]
        else:
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            mats = [np.outer(q[:, j], q[:, j]) for j in range(int(rng.integers(1, d)))]
        roots = real_roots(mixed_char(mats))
        assert len(roots) == d and np.all(np.diff(roots) <= 0)


@pytest.mark.parametrize("d", [5, 8, 10])
def test_float_mixed_char_roots_match_50_digit_references(d):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(d)
    for _ in range(3):
        p = mixed_char([np.outer(v, v) for v in rng.standard_normal((min(2 * d, 16), d))])
        with mpmath.workdps(50):
            coeffs = [mpmath.mpf(c) for c in reversed(p.coeffs)]
            want = sorted((mpmath.re(r) for r in mpmath.polyroots(
                coeffs, maxsteps=400, extraprec=400)), reverse=True)
            for got, ref in zip(real_roots(p), want):
                assert abs(got - ref) <= 1e-10 * abs(ref)


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


def test_mixed_char_root_bound_compares_an_exact_sum_with_i_exactly():
    # the sum misses I by 1e-10, inside ISO_TOL: an exact family is refused
    # by the exact comparison, and a float one still passes within ISO_TOL
    with pytest.raises(ValueError, match="sum to the identity"):
        mixed_char_root_bound([SymMatrix([[Fraction(1, 2) + Fraction(1, 10**10)]]),
                               SymMatrix([[Fraction(1, 2)]])])
    bound = mixed_char_root_bound([SymMatrix([[0.5 + 1e-10]]), SymMatrix([[0.5]])])
    assert bound == pytest.approx((1 + math.sqrt(0.5)) ** 2)


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
    mats = [SymMatrix(np.outer(v, v)) for v in rng.choice([-1, 1], size=(16, 10))]
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
    mats = [SymMatrix(np.outer(v, v)) for v in vecs]
    t0 = time.perf_counter()
    got = mixed_char(mats)
    elapsed = time.perf_counter() - t0
    total = SymMatrix(sum(np.outer(v, v) for v in vecs).astype(object))
    assert got == char_poly(total)
    assert elapsed < 2.0
    # mixed_char takes chi of the sum by the same kernel as char_poly here;
    # the tables fold every variable and check that identity independently
    assert got == _engine_poly(mats)[0]


def test_mixed_char_ldl_handles_a_zero_pivot_with_a_nonzero_row():
    # indefinite by 1e-12, inside the float PSD check's slack: a zero pivot
    # with a nonzero row leaves a residue, so the elimination refuses it
    eps = Fraction(1, 10 ** 6)
    a = SymMatrix(np.array([[0, eps], [eps, 1]], dtype=object))
    b = SymMatrix(np.array([[1, 0], [0, 2]], dtype=object))
    with pytest.raises(ValueError, match="positive semidefinite"):
        mixed_char([a, b])
    for a in ([[0, eps, 0], [eps, 1, 0], [0, 0, 1]],  # the same in dimension 3
              [[1, 2], [2, 1]]):  # a negative pivot
        with pytest.raises(ValueError, match="positive semidefinite"):
            _rank_one_terms(SymMatrix(np.array(a, dtype=object)), True)


def test_peel_terms_undo_fold_terms_and_give_each_child():
    # on float, int64 and object tables, peeling a variable off gives back
    # the tables it was folded into, exactly or within COEFF_TOL of the
    # folded tables, and the
    # peeled tables plus a support point's part give that point's child:
    # the same polynomial as the point folded into the tables afresh
    rng = np.random.default_rng(281)
    n = 4
    dtypes = set()
    for exact, size in ((False, None), (True, 3), (True, 10 ** 6)):
        if exact:
            terms = [(Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4))),
                      [int(x) for x in rng.integers(-size, size + 1, size=n)])
                     for _ in range(9)]
            terms.append((Fraction(1, 3), [0] * n))  # encode gives it weight 0
        else:
            terms = [(float(rng.uniform(0.1, 2.0)), rng.standard_normal(n)) for _ in range(10)]
        arith = TableArithmetic(n, terms + [(1, u) for _, u in terms], exact)
        dtypes.add(arith.dtype)
        tables = arith.empty()
        # a variable of two terms, then a fixed vector
        for group in (terms[:2], [(1, terms[2][1])]):
            tables = fold_terms(tables, *arith.encode(group))
        # three-point, two-point and one-point supports; the last point of the
        # last is a zero vector in exact arithmetic
        for support in (terms[3:6], terms[6:8], terms[8:]):
            weights, vecs = arith.encode(support)
            folded = fold_terms(tables, weights, vecs)
            peeled, parts = peel_terms(folded, weights, vecs)
            assert len(parts) == len(support)
            # a float peel cancels what the fold added, and a grade's rounding
            # feeds the next, so errors are relative to the largest folded entry
            scale = max(np.abs(t).max() for t in folded)
            for got, want in zip(peeled, tables):
                assert got.dtype == want.dtype
                if exact:
                    assert (got == want).all()
                else:
                    assert np.abs(got - want).max() <= COEFF_TOL * scale
            units, _ = arith.encode([(1, u) for _, u in support])
            for (_, u), w, part in zip(support, units, parts):
                child = [t + w * x for t, x in zip(peeled, part)]
                want = arith.poly(fold_terms(tables, *arith.encode([(1, u)])))
                got = arith.from_traces(arith.traces(child))
                if exact:
                    assert got == want
                    if not any(u):  # the zero vector's child is the peeled tables
                        assert w == 0 and all((c == t).all() for c, t in zip(child, peeled))
                else:
                    assert allclose(got, want)
    assert dtypes == {np.float64, np.int64, object}


def _psd_family(rng, d, m, denominators):
    """m PSD matrices B B^T / q, B integer of random rank, q from ``denominators``."""
    mats = []
    for _ in range(m):
        b = rng.integers(-2, 3, size=(d, int(rng.integers(1, d + 1))))
        q = int(rng.choice(denominators))
        mats.append(SymMatrix(np.array([[Fraction(int(x), q) for x in row]
                                        for row in b @ b.T], dtype=object)))
    return mats


def _zero_pivot_family():
    # a zero pivot, a zero pivot after a cancelling elimination step, and
    # the zero matrix
    return [SymMatrix(np.array(a, dtype=object)) for a in (
        [[0, 0, 0], [0, 2, 1], [0, 1, 3]],
        [[1, 1, 2], [1, 1, 2], [2, 2, 5]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    )]


def _terms_sum(terms, d):
    total = np.zeros((d, d), dtype=object)
    for w, u in terms:
        total = total + w * np.outer(np.array(u, dtype=object), np.array(u, dtype=object))
    return total


@pytest.mark.parametrize("family", ["integer", "rational", "zero-pivot"])
def test_rank_one_terms_sum_back_and_mixed_char_equals_ring(family):
    rng = np.random.default_rng(271)
    if family == "zero-pivot":
        families = [_zero_pivot_family()]
    else:
        denominators = [1] if family == "integer" else [1, 2, 3, 7, 10]
        families = [_psd_family(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5)),
                                denominators) for _ in range(12)]
    for mats in families:
        for mat in mats:
            terms = _rank_one_terms(mat, True)
            assert (_terms_sum(terms, mat.n) == mat.a).all()
            assert all(type(x) is int for _, u in terms for x in u)
            assert all(isinstance(w, (int, Fraction)) for w, _ in terms)
        assert mixed_char(mats) == ring_mixed_char(mats)


def test_rank_one_terms_of_integer_input_stay_on_ints():
    # JSON integers reach the engine as ints: the weights of an integer
    # family with unit pivots are ints, the vectors always are
    rng = np.random.default_rng(277)
    for v in rng.choice([-1, 1], size=(6, 5)):
        mat = SymMatrix(np.outer(v, v).astype(object))
        terms = _rank_one_terms(mat, True)
        assert len(terms) == 1
        w, u = terms[0]
        assert type(w) is int and all(type(x) is int for x in u)
    mat = SymMatrix(np.array([[2, 1], [1, 2]], dtype=object))
    terms = _rank_one_terms(mat, True)
    assert all(type(x) is int for _, u in terms for x in u)
    assert [w for w, _ in terms] == [Fraction(1, 2), Fraction(3, 2)]


# ----------------------------------------------------------------------
# The rank-one route: mu[v_1 v_1^T, ...] = chi(sum v_i v_i^T)
# ----------------------------------------------------------------------


def _outers(vecs):
    return [SymMatrix(np.outer(np.array(v, dtype=object), np.array(v, dtype=object)))
            for v in vecs]


def _rank_at_most_one_families(kind):
    """Seeded exact families in which every matrix has rank 0 or 1."""
    rng = np.random.default_rng(283)
    if kind == "integer":
        return [_outers(rng.integers(-3, 4, size=(int(rng.integers(1, 7)), d)).tolist())
                for d in (2, 3, 4, 5) for _ in range(3)]
    if kind == "rational":
        out = []
        for d in (2, 3, 4):
            for q in (2, 3, 7, 10):
                vecs = rng.integers(-4, 5, size=(int(rng.integers(1, 6)), d))
                out.append(_outers([[Fraction(int(x), q) for x in v] for v in vecs]))
        return out
    if kind == "zero":
        zero = SymMatrix(np.zeros((3, 3), dtype=int))
        return [[zero], [zero, zero],
                [zero] + _outers([[1, -1, 2]]) + [zero] + _outers([[0, 3, 1]])]
    if kind == "d1":
        return [_outers([[x] for x in rng.integers(-5, 6, size=m).tolist()])
                for m in (1, 2, 5, 16)] + [_outers([[Fraction(2, 3)], [Fraction(-1, 7)]])]
    if kind == "repeated-parallel":
        v, w = [1, -2, 0, 3], [2, 1, 1, -1]
        return [_outers([v, v, v]),
                _outers([v, [2 * x for x in v], [Fraction(-1, 3) * x for x in v], w]),
                _outers([v, w, v, w, [-x for x in w]])]
    if kind == "m1":
        return [_outers([v]) for v in ([5], [1, 2], [0, 0, 0], [Fraction(1, 2), -3, 4])]
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["integer", "rational", "zero", "d1",
                                  "repeated-parallel", "m1"])
def test_rank_one_route_equals_engine_and_ring(kind):
    # the tables always fold and the ring expands det(xI + sum z_i A_i):
    # neither goes through chi of the sum
    for mats in _rank_at_most_one_families(kind):
        assert all(len(_rank_one_terms(mat, True)) <= 1 for mat in mats)
        got = mixed_char(mats)
        assert got.is_exact and got.degree == mats[0].n
        assert got == _engine_poly(mats)[0]
        assert got == ring_mixed_char(mats)


def test_rank_one_route_on_sixteen_sign_vectors_in_dimension_10():
    rng = np.random.default_rng(293)
    for m in (16, 9):
        mats = _outers(rng.choice([-1, 1], size=(m, 10)).tolist())
        assert mixed_char(mats) == _engine_poly(mats)[0]
    mats = _outers(rng.choice([-1, 1], size=(3, 10)).tolist())
    assert mixed_char(mats) == ring_mixed_char(mats)


def _counting(monkeypatch, name):
    """Count the calls mixed_char makes to ``mixedchar.<name>``."""
    import interlace.mixedchar as mc

    calls = []
    inner = getattr(mc, name)
    monkeypatch.setattr(mc, name, lambda *a: calls.append(1) or inner(*a))
    return calls


def test_rank_one_family_builds_no_tables_and_a_rank_two_matrix_folds(monkeypatch):
    folds = _counting(monkeypatch, "fold_terms")
    sums = _counting(monkeypatch, "char_poly")
    rank_one = _outers([[1, 2, -1], [0, 1, 1], [Fraction(1, 2), 0, 3]])
    mixed_char(rank_one)
    assert (len(folds), len(sums)) == (0, 1)
    # one rank-2 matrix among rank-one ones: the whole family folds, and mu
    # is not chi of the sum
    rank_two = SymMatrix(np.array([[2, 1, 0], [1, 2, 0], [0, 0, 0]], dtype=object))
    for mats in (rank_one + [rank_two], [rank_two] + rank_one):
        got = mixed_char(mats)
        assert got == ring_mixed_char(mats)
        assert got != char_poly(SymMatrix(sum(mat.a for mat in mats)))
    assert (len(folds), len(sums)) == (8, 1)


def test_float_rank_one_family_keeps_the_tables(monkeypatch):
    # deciding a float matrix's rank would need a tolerance
    folds = _counting(monkeypatch, "fold_terms")
    sums = _counting(monkeypatch, "char_poly")
    rng = np.random.default_rng(307)
    mats = [np.outer(v, v) for v in rng.standard_normal((4, 3))]
    got = mixed_char(mats)
    assert not got.is_exact and allclose(got, ring_mixed_char(mats))
    assert (len(folds), len(sums)) == (4, 0)


def test_exact_psd_is_decided_by_the_elimination_alone():
    # the float rule passes this matrix, within its slack; the elimination
    # refuses it and names it, on both routes
    tiny = SymMatrix(np.array([[Fraction(-1, 10 ** 12), 0], [0, 0]], dtype=object))
    assert mixed_char([SymMatrix(tiny.a.astype(float))]).degree == 2
    ones = SymMatrix(np.array([[1, 1], [1, 1]], dtype=object))
    full = SymMatrix(np.array([[2, 1], [1, 2]], dtype=object))
    for mats in ([ones, tiny], [full, tiny]):
        with pytest.raises(ValueError, match="^matrix 1 is not positive semidefinite$"):
            mixed_char(mats)
    # entries past the float range have no float check to overflow in
    rank_one = SymMatrix(np.array([[10 ** 400, 10 ** 200], [10 ** 200, 1]], dtype=object))
    huge = SymMatrix(np.array([[10 ** 400, 0], [0, 1]], dtype=object))
    for mats in ([rank_one, ones], [huge, full]):
        assert mixed_char(mats) == _engine_poly(mats)[0]
    with pytest.raises(ValueError, match="^matrix 0 is not positive semidefinite$"):
        mixed_char([SymMatrix(np.array([[10 ** 400, 0], [0, -1]], dtype=object))])


def test_exact_caps_come_before_any_elimination(monkeypatch):
    import interlace.mixedchar as mc

    def refuse(*args):
        raise AssertionError("eliminated past a cap")

    monkeypatch.setattr(mc, "_rank_one_terms", refuse)
    with pytest.raises(ValueError, match="dimension capped at 10"):
        mixed_char([SymMatrix.identity(11, exact=True)])


def test_variable_cap_guards_the_tables_only(monkeypatch):
    # the cap on m prices the tables: exact rank-one families take chi of
    # their sum at any m, and every other family over the cap is refused
    # before any fold
    import interlace.mixedchar as mc

    def refuse(*args):
        raise AssertionError("folded past the cap")

    monkeypatch.setattr(mc, "fold_terms", refuse)
    vs = np.random.default_rng(17).choice([-1, 1], size=(17, 10))
    mats = [SymMatrix(np.outer(v, v).astype(object)) for v in vs]
    assert mixed_char(mats) == char_poly(SymMatrix(sum(m.a for m in mats)))
    for mats in ([SymMatrix.identity(2, exact=True)] * 17, [np.eye(2)] * 17,
                 [np.outer(v, v).astype(float) for v in vs]):
        with pytest.raises(ValueError, match="^at most 16 matrices supported, got 17$"):
            mixed_char(mats)


# ----------------------------------------------------------------------
# Metamorphic identities of exact mixed_char
# ----------------------------------------------------------------------


def _cayley_orthogonal(rng, n):
    """Rational orthogonal Q = (I + S)^(-1) (I - S), S skew with entries in
    {-1, 0, 1}; I + S is invertible for every real skew S."""
    upper = np.triu(rng.integers(-1, 2, size=(n, n)), 1)
    s = upper - upper.T
    a = [[Fraction(int(i == j) + int(s[i, j])) for j in range(n)] for i in range(n)]
    b = [[Fraction(int(i == j) - int(s[i, j])) for j in range(n)] for i in range(n)]
    for c in range(n):  # Gauss-Jordan on [I + S | I - S]
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
        inv = 1 / a[c][c]
        a[c], b[c] = [x * inv for x in a[c]], [x * inv for x in b[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                b[r] = [x - f * y for x, y in zip(b[r], b[c])]
    return np.array(b, dtype=object)


@pytest.mark.parametrize("kind", ["rank1", "mixed"])
def test_exact_mixed_char_is_invariant_under_permutation_and_rotation(kind):
    # mu[A_1..A_m] is symmetric in the A_i, and det(xI + sum z_i Q A_i Q^T)
    # = det(xI + sum z_i A_i) for orthogonal Q
    rng = np.random.default_rng(311 if kind == "rank1" else 313)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        ranks = [1] * m if kind == "rank1" else [d] + [int(r) for r in
                                                      rng.integers(1, d + 1, size=m - 1)]
        mats = []
        for r in ranks:
            b = rng.integers(-2, 3, size=(d, r))
            while r > 1 and np.linalg.matrix_rank(b) < 2:
                b = rng.integers(-2, 3, size=(d, r))
            mats.append(SymMatrix((b @ b.T).astype(object)))
        want = mixed_char(mats)
        q = _cayley_orthogonal(rng, d)
        assert (q @ q.T == np.eye(d, dtype=int)).all()
        rotated = [SymMatrix(q @ mat.a @ q.T) for mat in mats]
        assert mixed_char(rotated) == want
        order = rng.permutation(m)
        assert mixed_char([mats[i] for i in order]) == want
        assert mixed_char([rotated[i] for i in order[::-1]]) == want
