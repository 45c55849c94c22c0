"""Polynomial arithmetic, root machinery, and interlacing tests.

Expected values here are either hand-derivable (small quadratics and
cubics) or cross-checked against numpy's polynomial routines inside the
test itself.
"""

import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from interlace import (
    Polynomial,
    ZeroPolynomialError,
    NotRealRootedError,
    shift_chain,
    real_roots,
    float_top_root,
    roots_above,
    root_clusters,
    mixed_char,
    SymMatrix,
    char_poly,
    VectorSystem,
    restricted_invertibility_select,
    signing_select,
    weaver_partition,
)
import interlace.poly as poly_module
import interlace.select as select_module
from fixtures import complete_bipartite, from_roots, random_isotropic
from oracles import compare_top_roots, convex_combinations_real_rooted, \
    reference_shift_chain
from paper import apply_shift_operator, diagram_identity_check, exact_real_roots, \
    have_common_interlacing, interlaces, is_real_rooted, kth_largest_root, \
    laguerre_transform, sturm_root_count, sturm_sequence, taylor_shift, top_root

MAX_FLOAT = sys.float_info.max


def _cauchy_bound(p):
    """Cauchy's bound: every root of exact ``p`` has modulus below it."""
    lead = Fraction(p.leading())
    return 1 + max(abs(c / lead) for c in p.coeffs[:-1])


def test_construction_strips_leading_zeros():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Polynomial([]).is_zero
    assert Polynomial([0, 0]).is_zero


def test_zero_polynomial_has_no_degree():
    with pytest.raises(ZeroPolynomialError):
        _ = Polynomial([]).degree


def test_exactness_detection():
    assert Polynomial([1, Fraction(1, 2)]).is_exact
    assert not Polynomial([1.0, 2]).is_exact
    assert Polynomial([float(c) for c in Polynomial([1, 2]).coeffs]).coeffs == (1.0, 2.0)


def test_arithmetic_and_eval():
    p = Polynomial([7, -5, 1])  # x^2 - 5x + 7
    assert p(2) == 1
    assert p(Fraction(1, 2)) == Fraction(19, 4)
    q = Polynomial([1, 1])
    assert (p + q).coeffs == (8, -4, 1)
    assert (p - p).is_zero
    assert (q * q).coeffs == (1, 2, 1)
    assert (2 * q).coeffs == (2, 2)
    assert (-q).coeffs == (-1, -1)
    assert p.derivative().coeffs == (-5, 2)


def test_from_roots_and_monic():
    p = from_roots([1, 2, 3])
    assert p.coeffs == (-6, 11, -6, 1)
    q = Polynomial([2, 4]).monic()
    assert q.coeffs == (Fraction(1, 2), 1)


def test_taylor_shift():
    p = Polynomial([2, 0, 1])  # x^2 + 2
    assert taylor_shift(p, 1).coeffs == (3, 2, 1)  # (x+1)^2 + 2
    r = from_roots([5, -1])
    shifted = taylor_shift(r, 2)  # roots move to 3 and -3
    assert sorted(np.round(exact_real_roots(shifted), 9)) == [-3.0, 3.0]


# ----------------------------------------------------------------------
# Shift operator and Laguerre transforms
# ----------------------------------------------------------------------


def test_shift_operator_basic():
    # (1 - D) x^2 = x^2 - 2x
    assert apply_shift_operator(Polynomial([0, 0, 1]), 1).coeffs == (0, -2, 1)
    # c = 0 is the identity
    p = Polynomial([3, 1, 4])
    assert apply_shift_operator(p, 0) == p


def test_shift_operator_preserves_real_roots():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        deg = int(rng.integers(1, 9))
        p = from_roots(rng.uniform(-4, 4, deg).tolist())
        c = float(rng.uniform(0, 3))
        assert is_real_rooted(apply_shift_operator(p, c))


def test_shift_operator_negative_c_can_break_real_rootedness():
    # (1 + D)... applied repeatedly to (x^2 - 1) eventually produces
    # complex roots for c chosen adversarially; witness a concrete case:
    p = Polynomial([1, -1, 1]) * Polynomial([1, 1])  # has complex factor already
    assert not is_real_rooted(p)


def _sorted_multiset(roots, zeros):
    return np.sort(np.concatenate([roots, np.zeros(zeros)]))[::-1]


# The shift_roots tests check one-step shift_chain calls.


def test_shift_roots_zero_shift_is_identity():
    roots = np.array([[0.5, 2.0, -1.0], [3.0, 3.0, 0.0]])
    out, zeros = shift_chain(roots, 4, 0, 1)
    assert zeros == 4
    assert (out == -np.sort(-roots, axis=1)).all()


def test_shift_roots_repeated_poles():
    # p = (x-2)^3 (x-1): p - p'/2 = (x-2)^2 (x^2 - 5x + 9/2), so the
    # triple root keeps two copies and the rest solve the quadratic
    out, zeros = shift_chain(np.array([[2.0, 1.0, 2.0, 2.0]]), 0, 0.5, 1)
    assert zeros == 0
    assert list(out[0, 1:3]) == [2.0, 2.0]
    r7 = math.sqrt(7.0)
    assert out[0, 0] == pytest.approx((5 + r7) / 2, rel=1e-15)
    assert out[0, 3] == pytest.approx((5 - r7) / 2, rel=1e-15)
    # a zero root of multiplicity s keeps s - 1 copies
    out, zeros = shift_chain(np.empty((1, 0)), 3, 0.25, 1)
    assert zeros == 2 and out[0, 0] == pytest.approx(0.75, rel=1e-15)


def test_shift_roots_interlace_their_input():
    rng = np.random.default_rng(20261018)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        zeros = int(rng.integers(0, 4))
        roots = rng.uniform(-3, 3, (5, d))
        roots[:, -1] = roots[:, 0]  # one repeated root per row
        c = float(rng.uniform(0.01, 2))
        out, z2 = shift_chain(roots, zeros, c, 1)
        assert z2 == max(zeros - 1, 0)
        for row_in, row_out in zip(roots, out):
            before = _sorted_multiset(row_in, zeros)
            after = _sorted_multiset(row_out, z2)
            assert len(after) == len(before)
            assert before[0] < after[0] <= before[0] + len(before) * c
            for i in range(1, len(before)):
                assert before[i] <= after[i] <= before[i - 1]


def test_shift_roots_rational_inputs_against_sturm():
    # every kernel root must have a root of the exact polynomial
    # (1 - cD)[x^s prod (x - r)] within 1e-9, by exact Sturm counts
    cases = [
        ([Fraction(3), Fraction(1, 2), Fraction(5, 4), Fraction(-2, 3)], 2, Fraction(1, 3)),
        ([Fraction(7, 5), Fraction(7, 5), Fraction(1, 10)], 1, Fraction(2, 9)),
        ([Fraction(-1), Fraction(4), Fraction(9, 7)], 0, Fraction(5, 2)),
    ]
    for roots, zeros, c in cases:
        p = from_roots(roots + [0] * zeros)
        q = apply_shift_operator(p, c)
        out, z2 = shift_chain(np.array([[float(r) for r in roots]]), zeros, float(c), 1)
        assert len(out[0]) + z2 == q.degree
        delta = Fraction(1, 10 ** 9)
        for r in out[0]:
            r = Fraction(float(r))
            assert sturm_root_count(q, r - delta, r + delta) == 1
        if z2:
            assert q.coeffs[:z2] == (0,) * z2 and q.coeffs[z2] != 0


def test_shift_roots_rejects_bad_arguments():
    with pytest.raises(ValueError):
        shift_chain(np.array([1.0, 2.0]), 0, 1.0, 1)  # not a batch
    with pytest.raises(ValueError):
        shift_chain(np.array([[1.0]]), -1, 1.0, 1)
    with pytest.raises(ValueError):
        shift_chain(np.array([[1.0]]), 0, -0.5, 1)


def _reference_shift_roots(row, zeros, c, got, mpmath):
    """The roots of (1 - cD)[x^zeros prod (x - row)] above each distinct
    pole, descending, to 50 digits: two Newton steps on the secular
    equation sum_j w_j / (x - mu_j) = 1/c from ``got``, the float roots
    there, each result certified by a sign change of the secular function
    within 1e-30 of it, inside its gap.  The function rises across a gap,
    so each gap holds one root."""
    mult = Counter(float(r) for r in row)
    if zeros:
        mult[0.0] += zeros
    with mpmath.workdps(50):
        poles = [mpmath.mpf(p) for p in sorted(mult, reverse=True)]
        weights = [mult[float(p)] for p in poles]
        inv_c = 1 / mpmath.mpf(c)

        def secular(x):
            terms = [w / (x - p) for w, p in zip(weights, poles)]
            return inv_c - mpmath.fsum(terms), terms

        top = poles[0] + sum(weights) * mpmath.mpf(c)
        refs = []
        for i, start in enumerate(got):
            lo, hi = poles[i], poles[i - 1] if i else top
            x = mpmath.mpf(float(start))
            for _ in range(2):
                g, terms = secular(x)
                x -= g / mpmath.fsum(t * t / w for t, w in zip(terms, weights))
            delta = mpmath.mpf(10) ** -30 * max(1, abs(x))
            assert lo < x - delta and x + delta < hi
            assert secular(x - delta)[0] < 0 < secular(x + delta)[0]
            refs.append(x)
        return refs


def _residual_stop(row, zeros, c, x):
    """How far from x the stop of shift_chain's loop, |g| <= (npoles + 3)
    eps (phi - psi + 1/c) on the secular residual g, lets an unknown rest:
    twice that bound over the slope of g at x, plus one ulp of x (a
    bracket with no float inside also stops it)."""
    poles = np.append(row, 0.0) if zeros else np.asarray(row)
    weights = np.ones(poles.size)
    if zeros:
        weights[-1] = zeros
    terms = weights / (x - poles)
    size = np.abs(terms).sum() + 1 / c
    slope = (terms * terms / weights).sum()
    return 2 * (poles.size + 3) * np.finfo(float).eps * size / slope + math.ulp(x)


def test_shift_roots_to_50_digit_references():
    # random batches with and without the zero pole, their pole counts on
    # both sides of the size above which shift_chain starts from gap
    # midpoints instead of the eigenvalues of diag(mu) + c s s^T, every
    # fifth with its poles within 0.3 of each other.  Each root is within
    # 2e-15 relative, or within its loop's residual stop: unstarted, a top
    # root far above many poles may stop ~1e-14 off
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    for batch in range(40):
        npoles = [5, 9, 21, 33, 40, 41, 44, 49][batch % 8]
        zeros = int(rng.integers(1, 80)) if batch % 2 else 0
        c = [1 / 48, 1 / 96, 0.3][batch % 3]
        spread = (-0.1, 0.2) if batch % 5 == 0 else (-1, 2)
        roots = rng.uniform(*spread, (2, npoles - (zeros > 0)))
        out, z2 = shift_chain(roots, zeros, c, 1)
        assert out.shape == (2, npoles) and z2 == max(zeros - 1, 0)
        for row, got in zip(roots, out):
            for g, ref in zip(got, _reference_shift_roots(row, zeros, c, got, mpmath)):
                slack = max(2e-15 * max(1, abs(float(ref))), _residual_stop(row, zeros, c, float(ref)))
                assert abs(mpmath.mpf(g) - ref) <= slack


def test_shift_roots_keep_a_repeated_pole_their_start_cannot_reach():
    # the gaps between three copies of a pole are empty: the eigenvalues
    # of diag(mu) + c s s^T there are the pole up to rounding, and no
    # rounding puts them inside, so those unknowns keep the pole exactly;
    # the others meet their references
    mpmath = pytest.importorskip("mpmath")
    row, zeros, c = [0.5, -0.25, 0.5, 0.5, 0.125], 2, 0.3
    mu = np.array(sorted(row + [0.0], reverse=True))
    s = np.sqrt(np.where(mu == 0, zeros, 1.0))
    start = np.linalg.eigvalsh(np.diag(mu) + c * np.outer(s, s))[::-1]
    assert np.abs(start[1:3] - 0.5).max() <= 4 * np.finfo(float).eps
    out, z2 = shift_chain(np.array([row]), zeros, c, 1)
    assert z2 == 1 and list(out[0, 1:3]) == [0.5, 0.5]
    got = np.delete(out[0], [1, 2])
    for g, ref in zip(got, _reference_shift_roots(row, zeros, c, got, mpmath)):
        assert abs(mpmath.mpf(g) - ref) <= 2e-15 * max(1, abs(ref))


def _successive_shifts(roots, zeros, c, steps):
    for _ in range(steps):
        roots, zeros = shift_chain(roots, zeros, c, 1)
    return roots, zeros


def test_shift_chain_is_successive_shift_roots_bit_for_bit():
    # negative roots put the zero pole among the others, and the second
    # batch's exact zero roots sit beside it; rows 0 and 2 of the first
    # shift stop after one pass and rows 1 and 3 after two; the 38-root
    # rows with two zeros cross the 40-pole start cut on their second
    # shift; rows with no roots and no zeros have no poles
    rng = np.random.default_rng(20261019)
    small = np.array([[2.0, 1.0, -0.5, 0.0, 0.0],
                      [1.0 + 1e-9, 1.0, 1.0 - 1e-9, 0.3, -2.0],
                      [3.0, 3.0, 3.0, -1.0, -1.0],
                      [0.5, 0.25, 0.125, -0.125, -0.25]])
    big = rng.uniform(-1, 2, (3, 38))
    big[1, :6] = 1 + 1e-10 * np.arange(6)
    cases = [(small, 3, 0.3), (np.abs(small), 3, 0.3), (small, 0, 0.3),
             (big, 2, 1 / 96), (small, 3, 0.0), (np.empty((2, 0)), 4, 0.25),
             (np.empty((2, 0)), 0, 0.25)]
    for roots, zeros, c in cases:
        for steps in range(7):
            got, got_zeros = shift_chain(roots, zeros, c, steps)
            want, want_zeros = _successive_shifts(roots, zeros, c, steps)
            assert got_zeros == want_zeros
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        shift_chain(small, 3, 0.3, -1)


def test_shift_chain_is_the_reference_kernel_bit_for_bit():
    # random batches on both sides of the 40-pole eigenvalue start, with
    # and without the zero pole, some rows with a pole repeated three
    # times (two empty gaps), some with exact zero and negative roots
    # beside the zero pole, against the kernel that forms every update
    # for every entry and compacts its rows as they finish
    rng = np.random.default_rng(20261020)
    for batch in range(48):
        npoles = [3, 9, 21, 39, 40, 41, 47, 57][batch % 8]
        zeros = int(rng.integers(1, 80)) if batch % 2 else 0
        c = [1 / 48, 1 / 96, 0.3][batch % 3]
        roots = rng.uniform(-1, 2, (int(rng.integers(1, 9)), npoles - (zeros > 0)))
        if batch % 3 == 0:
            roots[0, 1:3] = roots[0, 0]
        if batch % 4 == 1:
            roots[-1, :2] = 0.0
        steps = int(rng.integers(1, 4))
        got, got_zeros = shift_chain(roots, zeros, c, steps)
        want, want_zeros = reference_shift_chain(roots, zeros, c, steps)
        assert got_zeros == want_zeros
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("roots, zeros, c", [
    ([[4.0, 2.0, 1.0]], 1, 0.5),
    ([[1.0, 0.5], [2.0, 1.5]], 2, 0.125),
])
def test_a_step_whose_start_every_entry_accepts_forms_no_update(roots, zeros, c, monkeypatch):
    # every root comes out as the eigenvalue of diag(mu) + c s s^T that
    # started it: the pole sums are evaluated once, to stop every entry,
    # and no two-pole update is formed
    calls = Counter()

    def counted(name):
        kernel = getattr(poly_module, name)

        def call(*args):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(poly_module, name, call)
    counted("_pole_sums")
    counted("_two_pole_root")
    out, _ = shift_chain(np.array(roots), zeros, c, 1)
    assert calls == {"_pole_sums": 1}
    for row, got in zip(roots, out):
        mu = np.array(sorted(row + [0.0], reverse=True))
        s = np.sqrt(np.where(mu == 0, zeros, 1.0))
        assert (got == np.linalg.eigvalsh(np.diag(mu) + c * np.outer(s, s))[::-1]).all()


def test_laguerre_transform_values():
    # (1 - D)^2 x^2 = x^2 - 4x + 2
    assert laguerre_transform(2, 2).coeffs == (2, -4, 1)
    # (1 - D)^4 x = x - 4
    assert laguerre_transform(4, 1).coeffs == (-4, 1)
    assert laguerre_transform(0, 3).coeffs == (0, 0, 0, 1)
    assert laguerre_transform(3, 0).coeffs == (1,)
    assert laguerre_transform(5, 2).is_exact


def test_laguerre_roots_2_2():
    r = exact_real_roots(laguerre_transform(2, 2))
    assert np.allclose(sorted(r), [2 - math.sqrt(2), 2 + math.sqrt(2)])


def test_diagram_identity():
    # (1-D)^k x^n == x^(n-k) (1-D)^n x^k, checked in integers
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert diagram_identity_check(n, k)
    with pytest.raises(ValueError):
        diagram_identity_check(3, 5)


# ----------------------------------------------------------------------
# Sturm counts and real-rootedness
# ----------------------------------------------------------------------


def test_sturm_root_count_simple():
    p = from_roots([1, 2, 3])
    assert sturm_root_count(p, 0, 4) == 3
    assert sturm_root_count(p, Fraction(3, 2), 3) == 2
    assert sturm_root_count(p, 4, 10) == 0


def test_sturm_root_count_at_roots_is_half_open():
    p = from_roots([1, 2, 3])
    assert sturm_root_count(p, 1, 3) == 2
    assert sturm_root_count(p, 2, 2) == 0
    # at a multiple root every element of the sequence vanishes
    q = from_roots([1, 1, 1, 2, 2])
    assert sturm_root_count(q, 1, 2) == 1
    assert sturm_root_count(q, 0, 1) == 1
    assert sturm_root_count(q, Fraction(1, 2), Fraction(3, 2)) == 1


def test_sturm_counts_distinct_roots_only():
    cube = from_roots([3, 3, 3])
    assert sturm_root_count(cube, 0, 5) == 1
    mixed = from_roots([1, 1, 4])
    assert sturm_root_count(mixed, 0, 5) == 2


def _sturm_count_above(p: Polynomial, b) -> int:
    """Roots of exact ``p`` above b, with multiplicity, by Sturm counts
    alone: the distinct roots in (b, B] of p, of g = gcd(p, p'), of
    gcd(g, g'), and so on, B past every root; a root of multiplicity r
    is counted in the first r of them."""
    total = 0
    while p.degree > 0:
        total += sturm_root_count(p, b, max(_cauchy_bound(p), Fraction(b)))
        p = sturm_sequence(p)[-1]
    return total


def _even_or_odd(e: int, pairs, lead=1) -> Polynomial:
    """lead x^e prod (x^2 - r)^mult over ``pairs`` of (r, mult)."""
    p = Polynomial((0,) * e + (lead,))
    for r, mult in pairs:
        for _ in range(mult):
            p = p * Polynomial((-r, 0, 1))
    return p


@pytest.mark.parametrize("e, pairs, lead", [
    (1, [], 1), (1, [], 5), (2, [], 1), (0, [(4, 1)], 1), (0, [(2, 1)], 3),
    (0, [(1, 1), (4, 1), (9, 1)], 1), (1, [(1, 1), (4, 1), (9, 1)], 2),
    (0, [(1, 3), (4, 2)], 1), (1, [(4, 2), (Fraction(9, 4), 1)], 4),
    (2, [(1, 1), (9, 2)], 1), (3, [(2, 1), (4, 3)], 1), (4, [(Fraction(1, 4), 2)], 16),
    (0, [(0, 1), (1, 2)], 1),
])
def test_count_above_even_and_odd_against_sturm(e, pairs, lead):
    # x^e q(x^2) counts q's roots above b^2 for b > 0, and takes the generic
    # shift for b <= 0: multiple roots, zero roots of either parity, b at a
    # root (1, 3/2, 2, 3, 1/2) and degrees 1 and 2 among them
    p = _even_or_odd(e, pairs, lead)
    assert not any(p.coeffs[1 - p.degree % 2::2])
    for b in (-10, -3, -2, Fraction(-3, 2), -1, Fraction(-1, 2), 0, Fraction(1, 3),
              Fraction(1, 2), 1, Fraction(3, 2), Fraction(7, 5), 2, Fraction(5, 2), 3, 10):
        assert roots_above(p, b) == _sturm_count_above(p, b), b


def test_sturm_on_float_coefficients():
    # a float Sturm sequence certifies nothing, so none is taken
    p = from_roots([0.5, 1.5, 2.5])
    with pytest.raises(TypeError):
        sturm_root_count(p, 0.0, 3.0)
    with pytest.raises(TypeError):
        sturm_sequence(p)


def test_is_real_rooted_exact():
    assert is_real_rooted(from_roots([1, 2, 3]))
    assert is_real_rooted(from_roots([3, 3, 3]))
    assert not is_real_rooted(Polynomial([7, -5, 1]))  # roots 2.5 +- i sqrt(3)/2... complex
    assert not is_real_rooted(Polynomial([1, 0, 0, 1]))  # x^3 + 1 has two complex roots
    assert is_real_rooted(Polynomial([5]))  # constants are vacuously fine


def test_is_real_rooted_float():
    assert is_real_rooted(from_roots([1.0, 2.5, -3.0]))
    assert is_real_rooted(from_roots([3.0, 3.0, 3.0]))
    assert not is_real_rooted(Polynomial([7.0, -5.0, 1.0]))
    assert not is_real_rooted(Polynomial([1.0, 0.1, 0.1, 1.0]))


def test_float_pair_near_one_is_not_taken_for_a_multiple_root():
    # x^2 - 2x + 1.0001 has roots 1 +- 0.01i, which leave p a miss of
    # about 1e-4 |p''/2| near 1, far beyond a backward error of 1e-12
    p = Polynomial([1.0001, -2.0, 1.0]) * from_roots([3.0, 2.0, -1.0])
    assert not is_real_rooted(p)
    with pytest.raises(NotRealRootedError):
        real_roots(p)


def test_float_close_complex_pair_is_not_real():
    # 0.5 +- 1.5e-5 i: a miss of 2.25e-10 at 0.5
    assert not is_real_rooted(Polynomial([0.25 + 1.5e-5 ** 2, -1.0, 1.0]))


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_float_complex_pair_is_rejected_at_every_scale(scale):
    # 0.3 +- 0.01i beside -0.8 and 0.9, all times scale: the roots are
    # solved at their own power-of-two scale, so the verdict is the same
    # at each; the same pair made real passes
    rest = from_roots([-0.8 * scale, 0.9 * scale])
    pair = Polynomial([(0.3 ** 2 + 0.01 ** 2) * scale ** 2, -0.6 * scale, 1.0])
    assert not is_real_rooted(pair * rest)
    real = from_roots([0.31 * scale, 0.29 * scale]) * rest
    assert is_real_rooted(real)
    assert np.allclose(real_roots(real), np.array([0.9, 0.31, 0.29, -0.8]) * scale,
                       rtol=1e-14, atol=0)


def test_float_roots_at_1e_minus_200_and_1e200():
    # the scale comes from the coefficients' binary exponents, so nothing
    # is squared out of range, and the interval's pad is relative to it
    assert real_roots(Polynomial([0.0, -2e-200, 1.0])).tolist() == [2e-200, 0.0]
    assert real_roots(Polynomial([0.0, -2e200, 1.0])).tolist() == [2e200, 0.0]


def _scaled_coeffs(p, j):
    """The coefficients of p(x / 2^j) 2^(j n), or None where one leaves the
    normal floats, so that scaling it back would not be exact."""
    n = p.degree
    out = []
    for i, c in enumerate(p.coeffs):
        if c and not -1021 <= math.frexp(c)[1] + j * (n - i) <= 1024:
            return None
        out.append(math.ldexp(c, j * (n - i)))
    return out


def test_float_roots_scale_exactly_by_powers_of_two():
    bases = [
        Polynomial([0.0, 0.0, 0.0, -0.7, 1.0]),
        from_roots([0.9, 0.31, 0.29, -0.8]),
        from_roots([1.0, 1.0, 0.5, -0.25]),
        Polynomial((0, 0, 1)) * from_roots([0.3, 0.3, -1.5]),
        char_poly(SymMatrix(np.eye(5))),
    ]
    reached = set()
    for p in bases:
        want = real_roots(p)
        for j in range(-600, 601, 25):
            coeffs = _scaled_coeffs(p, j)
            if coeffs is None:
                continue
            reached.add(j)
            got = real_roots(Polynomial(coeffs))
            assert got.tolist() == [math.ldexp(r, j) for r in want]
    assert -600 in reached and 600 in reached


@pytest.mark.parametrize("n", [8, 10, 16, 32])
def test_float_char_poly_of_the_identity_has_roots_one(n):
    # the n-fold root 1: each level of the derivative chain misses its
    # sign change at 1, so every bracket takes 1 itself
    p = char_poly(SymMatrix(np.eye(n)))
    assert np.max(np.abs(real_roots(p) - 1.0)) <= 1e-12


def test_float_roots_multiple_and_zero():
    # exact zeros come out exactly, multiple roots to full precision
    p = Polynomial((0, 0, 0, 1)) * from_roots([2.0, 2.0, -1.5, 0.25])
    assert real_roots(p).tolist() == [2.0, 2.0, 0.25, 0.0, 0.0, 0.0, -1.5]
    assert kth_largest_root(p, 3) == 0.25


def test_is_real_rooted_exact_high_multiplicity():
    p = from_roots([2] * 5 + [-1] * 3)
    assert is_real_rooted(p)
    q = p * Polynomial([1, 0, 1])  # multiply in x^2 + 1
    assert not is_real_rooted(q)


def test_real_roots_basic():
    r = exact_real_roots(from_roots([1, 2, 3]))
    assert r.shape == (3,)
    assert np.allclose(r, [3, 2, 1])  # descending
    assert exact_real_roots(Polynomial([5])).shape == (0,)


def test_real_roots_multiplicity_and_zeros():
    # x^3 (x - 2)^2: three exact zeros plus a double root at 2
    p = Polynomial((0, 0, 0, 1)) * from_roots([2, 2])
    r = exact_real_roots(p)
    assert len(r) == 5
    assert np.sum(np.abs(r) < 1e-12) == 3  # stripped zeros are exact
    assert np.allclose(r[:2], 2, atol=1e-6)


@pytest.mark.parametrize("roots", [
    [2] * 5 + [-1] * 3,
    [Fraction(16, 25)] * 3 + [Fraction(9, 25)] * 2 + [0] * 2,
    [1] * 12,
])
def test_real_roots_exact_multiple_roots(roots):
    # float starts at an r-fold root are off by about eps**(1/r); the
    # exact kernel polishes on the (r-1)-th derivative, where it is simple
    got = exact_real_roots(from_roots(roots))
    want = sorted((float(r) for r in roots), reverse=True)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_real_roots_raises_on_complex():
    with pytest.raises(NotRealRootedError):
        real_roots(Polynomial([7.0, -5.0, 1.0]))
    # exact input meets the Sturm checker of the tests
    with pytest.raises(NotRealRootedError):
        exact_real_roots(Polynomial([7, -5, 1]))
    for roots in (real_roots, exact_real_roots):
        with pytest.raises(ZeroPolynomialError):
            roots(Polynomial([]))


def test_real_roots_refuse_exact_input():
    # exact roots come from root_clusters, for polynomials real-rooted by
    # theorem, or from the tests' checked exact_real_roots
    with pytest.raises(TypeError, match="root_clusters"):
        real_roots(Polynomial([7, -5, 1]))
    with pytest.raises(TypeError, match="root_clusters"):
        real_roots(from_roots([1, 2, 3]))
    assert real_roots(Polynomial([5])).shape == (0,)


def test_real_roots_matches_numpy_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        deg = int(rng.integers(1, 13))
        roots = np.sort(rng.uniform(-10, 10, deg))[::-1]
        p = from_roots(roots.tolist())
        got = real_roots(p)
        assert got.shape == (deg,)
        assert np.all(np.diff(got) <= 1e-12)
        # well-separated roots recovered to high accuracy
        if deg > 1 and np.min(-np.diff(roots)) > 1e-2:
            assert np.allclose(got, roots, atol=1e-7 * (1 + np.abs(roots).max()))


def test_kth_largest_root():
    p = from_roots([1, 2, 3])
    assert kth_largest_root(p, 1) == pytest.approx(3)
    assert kth_largest_root(p, 3) == pytest.approx(1)
    with pytest.raises(ValueError):
        kth_largest_root(p, 4)
    with pytest.raises(ValueError):
        kth_largest_root(p, 0)


# ----------------------------------------------------------------------
# Certified top roots of real-rooted polynomials
# ----------------------------------------------------------------------


DEGREE_24_FOURFOLD = Polynomial([256, 0, -5120, 0, 40704, 0, -162816, 0, 344416, 0,
                                 -386688, 0, 255440, 0, -106368, 0, 28833, 0, -5092,
                                 0, 566, 0, -36, 0, 1])


def _top_multiplicity(p):
    """Multiplicity of the top root, from the exact roots."""
    roots = exact_real_roots(p)
    return int(np.sum(np.abs(roots - roots[0]) <= 1e-9 * (1 + abs(roots[0]))))


@pytest.mark.parametrize("p", [
    Polynomial([-3, 0, 1]) * Polynomial([-3, 0, 1]) * Polynomial([-3, 0, 1])
    * Polynomial([-3, 0, 1]),
    from_roots([1] * 12),
    Polynomial([0, 0, 0, 0, 0, -5, 0, 1]),
    from_roots([4, -1, 2]) * -3,
    Polynomial([Fraction(1, 6), Fraction(-5, 6), 1]),
    from_roots([Fraction(7, 3), Fraction(7, 3), Fraction(-1, 2)], Fraction(2, 5)),
    DEGREE_24_FOURFOLD,
], ids=["(x2-3)^4", "(x-1)^12", "x5(x2-5)", "negative lead", "rational",
        "rational double", "degree 24"])
def test_top_root_matches_exact_roots_and_certifies_its_bracket(p):
    got = top_root(p)
    want = exact_real_roots(p)[0]
    assert abs(got.root - want) <= 1e-12 * (1 + abs(want))
    assert got.lo < got.root <= got.hi
    assert got.mult == _top_multiplicity(p)
    # the bracket's two counts, by Descartes and independently by Sturm
    assert roots_above(p, got.hi) == 0
    assert roots_above(p, got.lo) == got.mult
    assert sturm_root_count(p, got.hi, _cauchy_bound(p)) == 0
    assert sturm_root_count(p, got.lo, got.hi) == 1


def test_top_root_degree_24_fourfold_root_to_the_ulp():
    got = top_root(DEGREE_24_FOURFOLD)
    assert got.mult == 4
    # the bracket is a few ulp wide around the root
    assert got.hi - got.lo <= 4 * Fraction(math.ulp(got.root))
    assert got.root == pytest.approx(2.3429230827771703, rel=1e-15)


def test_top_root_of_all_zero_roots_and_of_a_linear_polynomial():
    got = top_root(Polynomial((0, 0, 0, 0, 0, 3)))
    assert (got.root, got.mult) == (0.0, 5)
    assert got.lo < 0 < got.hi
    assert top_root(Polynomial([1, 1])).root == -1.0


def test_top_root_rejects_constants_zero_and_float_polynomials():
    with pytest.raises(ZeroPolynomialError):
        top_root(Polynomial(()))
    with pytest.raises(ValueError):
        top_root(Polynomial([5]))
    with pytest.raises(TypeError):
        top_root(Polynomial([-2.0, 1.0]))


def _no_starts(monkeypatch):
    """Make every float start of root_clusters NaN, as a broken-down copy would."""
    monkeypatch.setattr(poly_module, "_laguerre", lambda q, lo, hi, s: (math.nan, lo, hi, False))


def _counted_bisections(monkeypatch) -> list:
    """Record the ``done`` of each :func:`poly._bisect` call."""
    calls, bisect = [], poly_module._bisect

    def counted(a, done, lo, hi):
        calls.append(done)
        return bisect(a, done, lo, hi)
    monkeypatch.setattr(poly_module, "_bisect", counted)
    return calls


def test_top_root_bisection_fallback_certifies_the_same_root(monkeypatch):
    _no_starts(monkeypatch)
    for p in (DEGREE_24_FOURFOLD, from_roots([Fraction(1, 3), 2, 2, -5])):
        got = top_root(p)
        want = exact_real_roots(p)[0]
        assert abs(got.root - want) <= 1e-12 * (1 + abs(want))
        assert got.lo < got.root <= got.hi
        assert roots_above(p, got.hi) == 0 and roots_above(p, got.lo) >= 1


def test_top_root_bisection_stops_relative_to_the_root(monkeypatch):
    # a small root under a large root bound: the bracket is still a few
    # ulp of the root wide
    _no_starts(monkeypatch)
    want = Fraction(-119, 1000)
    p = from_roots([want, Fraction(-3, 7), -1500, -2000])
    got = top_root(p)
    ulp = Fraction(math.ulp(got.root))
    assert got.lo < want <= got.hi
    assert got.hi - got.lo <= 4 * ulp
    assert abs(Fraction(got.root) - want) <= 4 * ulp


def _certified(p, clusters) -> None:
    """Each bracket holds exactly its cluster's roots, by two exact counts."""
    done = 0
    for c in clusters:
        assert roots_above(p, c.hi) == done
        done += c.mult
        assert roots_above(p, c.lo) == done
    assert done == p.degree


@pytest.mark.parametrize("p", [DEGREE_24_FOURFOLD, from_roots([Fraction(1, 3), 2, 2, -5]),
                               from_roots([Fraction(-119, 1000), Fraction(-3, 7), -1500, -2000])],
                         ids=["degree 24", "double", "small under large"])
def test_root_clusters_without_any_start_bisect_every_cluster(p, monkeypatch):
    # with no float start at all, every cluster, not only the top one,
    # comes out of _bisect with the same roots in each certified bracket
    started = list(root_clusters(p))
    _no_starts(monkeypatch)
    calls = _counted_bisections(monkeypatch)
    bisected = list(root_clusters(p))
    assert calls == [sum(c.mult for c in started[:i]) for i in range(len(started))]
    assert [c.mult for c in bisected] == [c.mult for c in started]
    _certified(p, bisected)
    for b, c in zip(bisected, started):
        assert b.lo < c.hi and c.lo < b.hi
        assert abs(b.root - c.root) <= 4 * math.ulp(c.root)


@pytest.mark.parametrize("roots, want, calls", [
    ([-10 ** 401, -10 ** 400, 3], [3.0, -math.inf], [0, 1]),
    ([1, Fraction(1, 10 ** 400), -1], [1.0, 0.0, -1.0], [2]),
], ids=["copy overflows", "root polished to 0"])
def test_root_clusters_without_a_float_copy_bisect_what_is_left(roots, want, calls, monkeypatch):
    # a float copy past the float range starts no cluster, and a cluster
    # whose root rounds to 0 cannot be divided out, so none below it starts
    bisections = _counted_bisections(monkeypatch)
    p = from_roots(roots)
    clusters = list(root_clusters(p))
    assert [c.root for c in clusters] == want
    assert bisections == calls
    _certified(p, clusters)


def test_root_clusters_start_every_cluster_of_the_n48_ri_pledge_without_bisection(monkeypatch):
    # each start comes from the float copy with the clusters above divided
    # out, close enough for the exact polish on every one of the 25
    calls = _counted_bisections(monkeypatch)
    pledge = select_module._reflected(select_module._ri_shifted([1], 48, 96, 24))
    p = Polynomial([0] * 24 + list(pledge.coeffs))
    clusters = list(root_clusters(p))
    assert len(clusters) == 25 and calls == []
    _certified(p, clusters)
    assert clusters[23].root == 0.06511615086013002


def test_root_clusters_bisect_four_clusters_of_the_n64_ri_pledge(monkeypatch):
    # the float copy of (128 - D)^32 x^64 loses its top roots, and starts
    # land up to 3.5e-3 off; Newton steps until they stop shrinking, six
    # at most, polish all but four of its 33 clusters
    calls = _counted_bisections(monkeypatch)
    pledge = select_module._reflected(select_module._ri_shifted([1], 64, 128, 32))
    p = Polynomial([0] * 32 + list(pledge.coeffs))
    clusters = list(root_clusters(p))
    assert len(clusters) == 33 and len(calls) == 4
    _certified(p, clusters)


def _stress_roots(rng):
    """Rational roots with multiplicities up to 6, some with a near-duplicate."""
    roots = []
    for _ in range(int(rng.integers(1, 4))):
        r = Fraction(int(rng.integers(-200, 200)), int(rng.integers(1, 20)))
        roots += [r] * int(rng.integers(1, 7))
        if rng.random() < 0.5:
            gap = Fraction(1, 10 ** int(rng.integers(8, 26)))
            roots.append(r + gap * max(1, abs(r)))
    return roots


def test_root_clusters_certify_every_root_to_a_few_ulp():
    rng = np.random.default_rng(20261018)
    for _ in range(400):
        roots = _stress_roots(rng)
        p = from_roots(roots, lead=int(rng.choice([-3, 1, 2])))
        clusters = list(root_clusters(p))
        assert sum(c.mult for c in clusters) == len(roots)
        for prev, c in zip([None] + clusters, clusters):
            assert c.lo < c.root <= c.hi
            assert prev is None or c.hi <= prev.lo
            inside = [r for r in roots if c.lo < r <= c.hi]
            assert len(inside) == c.mult
            for r in inside:
                assert abs(Fraction(c.root) - r) <= 4 * Fraction(math.ulp(float(r)))
            # the bracket's content, by Sturm, independently of Descartes
            assert sturm_root_count(p, c.lo, c.hi) == len(set(inside))


@pytest.mark.parametrize("roots, want", [
    ([-10 ** 400], [-math.inf]),
    ([-2 * int(MAX_FLOAT), 1], [1.0, -math.inf]),
    ([-10 ** 401, -10 ** 400, 3], [3.0, -math.inf]),
    ([-int(MAX_FLOAT)], [-MAX_FLOAT]),
    ([int(MAX_FLOAT)], [MAX_FLOAT]),
    ([-int(MAX_FLOAT), -int(MAX_FLOAT), 2, 0], [2.0, 0.0, -MAX_FLOAT]),
], ids=["-1e400", "-3.6e308", "two-below", "-max", "max", "double-max"])
def test_root_clusters_below_the_float_range(roots, want):
    # a root below minus the largest float has no float: it comes as
    # -inf, and minus the largest float itself as that float, each with
    # its bracket still certified by two exact counts
    p = from_roots(roots)
    clusters = list(root_clusters(p))
    assert [c.root for c in clusters] == want
    _certified(p, clusters)
    for c in clusters:
        assert len([r for r in roots if c.lo < r <= c.hi]) == c.mult


def test_mixed_char_sign_vectors_roots_to_two_ulp():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    p = mixed_char([np.outer(v, v) for v in rng.choice([-1, 1], size=(16, 10))])
    assert p.degree == 10 and sturm_sequence(p)[-1].degree == 0  # square-free
    mpmath.mp.dps = 50
    coeffs = [mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
              for c in reversed(p.coeffs)]
    want = sorted((mpmath.re(r) for r in mpmath.polyroots(coeffs, maxsteps=400,
                                                          extraprec=400)), reverse=True)
    for got, ref in zip(exact_real_roots(p), want):
        assert abs(mpmath.mpf(got) - ref) <= 2 * math.ulp(float(ref))


def _reference_top_root(p, mpmath) -> tuple:
    """The top root of float ``p``'s own coefficients to 50 digits, and the
    multiplicity r of its cluster."""
    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(c) for c in reversed(p.coeffs)]
        roots = sorted(mpmath.polyroots(coeffs, maxsteps=800, extraprec=800),
                       key=lambda z: -mpmath.re(z))
        # rounding scatters a double or triple root of these by under 1e-4
        return mpmath.re(roots[0]), sum(1 for z in roots if abs(z - roots[0]) < 1e-3)


def _check_float_top_root(p, ref, r, mpmath) -> None:
    """float_top_root(p) against the reference top root ``ref`` of multiplicity r.

    Laguerre's loop stops at x once |p(x)| is within 2 (n + 1) eps sum
    |c_i| |x|^i, its bound on the evaluation's rounding; near an r-fold
    root p(x) ~ c_r (x - root)^r, so x lies within (slack / |c_r|)^(1/r)
    of it, up to a factor of 2 for the slack's value at x.
    """
    got = float_top_root(p)
    with mpmath.workdps(50):
        ref = mpmath.mpf(ref)
        coeffs = [mpmath.mpf(c) for c in reversed(p.coeffs)]
        size = sum(abs(c) * abs(ref) ** i for i, c in enumerate(p.coeffs))
        slack = 2 * (p.degree + 1) * size * np.finfo(float).eps
        c_r = abs(mpmath.diff(lambda t: mpmath.polyval(coeffs, t), ref, r)) / math.factorial(r)
        assert abs(got - ref) <= 2 * (slack / c_r) ** (mpmath.mpf(1) / r)


def _weaver_children(vs, monkeypatch) -> list:
    """Every float polynomial a weaver walk on ``vs`` can form, by either
    route: the pledge and both children of each level, each level's
    formed here whether or not the walk reads its second."""
    seen = []

    def recorded(route):
        def walk(*args):
            steps = route(*args)
            seen.append(next(steps))
            yield seen[-1]
            for children in steps:
                children = list(children)
                seen.extend(children)
                yield children
        return walk

    for name in ("_engine_route", "_enumeration_route"):
        monkeypatch.setattr(select_module, name, recorded(getattr(select_module, name)))
    weaver_partition(vs)
    return seen


def test_float_top_root_of_weaver_children_to_50_digit_references(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    vs = random_isotropic(3, 8, np.random.default_rng(17))
    children = _weaver_children(vs, monkeypatch)
    # the pledge and two children at each level but the first, where
    # vector 0 is fixed
    assert len(children) == 2 * (8 - 1) + 1
    for p in children:
        _check_float_top_root(p, *_reference_top_root(p, mpmath), mpmath)


def test_float_top_root_at_double_and_triple_top_roots(monkeypatch):
    # two half-norm copies of each basis direction (the duplicated-basis
    # system): its walk's float children have double and triple top roots,
    # which rounding splits by about 1e-7 and 1e-5
    mpmath = pytest.importorskip("mpmath")
    half = math.sqrt(0.5)
    vs = VectorSystem([[half if j == i else 0.0 for j in range(3)]
                       for i in range(3) for _ in range(2)])
    mults = set()
    for p in _weaver_children(vs, monkeypatch):
        ref, r = _reference_top_root(p, mpmath)
        _check_float_top_root(p, ref, r, mpmath)
        mults.add(r)
    assert {1, 2, 3} <= mults


def test_float_top_root_at_the_laguerre_samuelson_equality_case():
    # all roots but the top one equal: the Laguerre-Samuelson bound is the
    # top root itself, so the loop starts just above it.  Dyadic roots give
    # float coefficients with no rounding, so the roots are the references.
    mpmath = pytest.importorskip("mpmath")
    for roots in ([3.0] + [1.0] * 5, [0.25] + [-1.5] * 3, [0.75] * 6):
        p = Polynomial([float(c) for c in np.polynomial.polynomial.polyfromroots(roots)])
        assert p == from_roots([Fraction(x) for x in roots])
        _check_float_top_root(p, roots[0], roots.count(roots[0]), mpmath)


def test_float_top_root_raises_on_a_complex_top_pair():
    cases = [([1.01, -2.0, 1.0], [-1.0, 0.5]),  # 1 +- i/10
             ([5.0, -4.0, 1.0], [-1.0, 0.5]),  # 2 +- i
             ([1.0, 0.0, 1.0], [-1.0, 0.5]),  # +- i
             # 1 +- i/8: a step jumps the pair, and only n h - g^2 < 0
             # tells the root 0.75 below it from the top root
             ([65 / 64, -2.0, 1.0], [0.5, 0.75])]
    for pair, below in cases:
        p = Polynomial(pair) * from_roots(below)
        assert not p.is_exact
        with pytest.raises(NotRealRootedError):
            float_top_root(p)
    with pytest.raises(ValueError):
        float_top_root(Polynomial([2.0]))


def test_float_top_root_at_a_top_root_of_zero():
    # at 0 the rounding bound sum |c_i| |x|^i eps vanishes with c_0 = 0, so
    # the loop's stop never fires there; the zero roots are split off first
    for coeffs in ([0.0, 0.0, 1.0],             # x^2
                   [0.0, 0.0, 1.0, 1.0],        # x^2 (x + 1)
                   [0.0, 2.0, 3.0, 1.0],        # x (x + 1) (x + 2)
                   [0.0, -0.0, 1.0]):           # x^2, as a float walk forms it
        got = float_top_root(Polynomial(coeffs))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0, coeffs
    # a positive root of the rest is the top root
    assert float_top_root(Polynomial([0.0, 0.0, -2.0, 1.0])) == 2.0


def test_float_top_root_of_tiny_roots():
    # the interval's pad is relative: one of 1e-9 above a root of 2e-12
    # would make the first step cancel beyond the evaluation's rounding
    assert float_top_root(Polynomial([0.0, -2e-12, 1.0])) == 2e-12
    # scaled to its roots, no value near roots of 1e-150 underflows: the
    # exact kernel on the same coefficients is the reference
    for r in (2e-12, 1e-100, 1e-150):
        p = from_roots([r, -r / 2, r / 3])
        want = top_root(Polynomial([Fraction(c) for c in p.coeffs])).root
        assert abs(float_top_root(p) - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("coeffs", [[math.nan, 0.0, 1.0], [math.inf, -1.0, 1.0],
                                    [1.0, -math.inf, 1.0], [2.0, -3.0, math.nan]],
                         ids=["nan-x^2", "inf-double", "-inf-linear", "nan-lead"])
def test_float_roots_refuse_non_finite_coefficients(coeffs):
    # the derivative chain would bracket nan or a finite "root" of an
    # infinite polynomial; a non-finite coefficient has no real roots to give
    p = Polynomial(coeffs)
    assert not is_real_rooted(p)
    with pytest.raises(NotRealRootedError):
        real_roots(p)
    with pytest.raises(NotRealRootedError):
        kth_largest_root(p, 1)
    with pytest.raises(NotRealRootedError):
        float_top_root(p)


def _rational_isotropic(rng, n):
    """2n rational rows with Gram sum I_n: (3/5) H1 over (4/5) H2, H Householder reflections."""
    rows = []
    for w in (Fraction(3, 5), Fraction(4, 5)):
        v = rng.integers(-3, 4, size=n).astype(object)
        v[0] = 4
        h = np.eye(n, dtype=int).astype(object) - Fraction(2, int(v @ v)) * np.outer(v, v)
        rows.extend(w * h)
    return VectorSystem(rows)


def test_walks_on_constructions_take_no_sturm_sequence(monkeypatch):
    import paper

    def refuse(p):
        raise AssertionError("a Sturm sequence was taken")
    monkeypatch.setattr(paper, "sturm_sequence", refuse)
    vs = _rational_isotropic(np.random.default_rng(6), 6)
    assert vs.is_exact and vs.is_isotropic()
    chosen, cert = restricted_invertibility_select(vs, 3)
    assert len(set(chosen)) == 3 and cert.valid
    signing, cert = signing_select(complete_bipartite(3, 3))
    assert len(signing) == 9 and cert.valid
    # outside input still meets the checker
    with pytest.raises(AssertionError):
        exact_real_roots(Polynomial([7, -5, 1]))


def test_compare_top_roots_disjoint_equal_and_overlapping():
    a = from_roots([3, 1, -2])
    b = from_roots([2, 2, 0])
    assert compare_top_roots(a, b) == 1 and compare_top_roots(b, a) == -1
    # distinct polynomials sharing their top root, with other multiplicities
    c = from_roots([3, 3, 0])
    assert compare_top_roots(a, c) == 0 and compare_top_roots(c, a) == 0
    assert compare_top_roots(a, a) == 0
    # top roots 1 and 1 + 2^-70: their first brackets overlap
    one = Polynomial([-1, 1])
    near = Polynomial([-(2 ** 70 + 1), 2 ** 70]) * from_roots([-4, 0])
    t_one, t_near = top_root(one), top_root(near)
    assert t_one.lo < t_near.hi and t_near.lo < t_one.hi
    assert compare_top_roots(one, near) == -1
    assert compare_top_roots(near, one, t_near, t_one) == 1
    # the level rule orders the same pairs, ties meeting
    for p, q in [(a, b), (b, a), (a, c), (c, a), (a, a), (one, near), (near, one)]:
        order = compare_top_roots(p, q)
        assert select_module._meets(p, q, top_root(q)) == (order <= 0)


# ----------------------------------------------------------------------
# Interlacing
# ----------------------------------------------------------------------


def test_interlaces_degree_offset():
    f = from_roots([1, 3, 5])
    assert interlaces(from_roots([2, 4]), f)
    assert interlaces(from_roots([0, 2, 4]), f)
    assert not interlaces(from_roots([2, 6]), f)
    # sharing roots is allowed (weak inequalities)
    assert interlaces(from_roots([1, 3]), f)
    # degree gap of two is not interlacing
    assert not interlaces(from_roots([2]), f)


def test_derivative_interlaces():
    rng = np.random.default_rng(99)
    for _ in range(50):
        deg = int(rng.integers(2, 10))
        f = from_roots(rng.uniform(-5, 5, deg).tolist())
        assert interlaces(f.derivative(), f)


def test_largest_root_belongs_to_f():
    f = from_roots([0, 4])
    g = from_roots([5])  # root beyond f's largest
    assert not interlaces(g, f)


def test_common_interlacing_positive_case():
    fs = [from_roots([1, 3]), from_roots([2, 4]),
          from_roots([1.5, 3.2])]
    assert have_common_interlacing(fs)


def test_common_interlacing_negative_case():
    # (x-1)(x-2) and (x-3)(x-4): their average is x^2 - 5x + 7 with
    # complex roots 5/2 +- sqrt(3)/2 i, so no common interlacing exists.
    a = from_roots([1, 2])
    b = from_roots([3, 4])
    assert not have_common_interlacing([a, b])
    avg = Fraction(1, 2) * a + Fraction(1, 2) * b
    assert avg == Polynomial([7, -5, 1])
    assert not is_real_rooted(avg)


def test_common_interlacing_detects_root_interval_overlap():
    fs = [from_roots([0, 10]), from_roots([4, 6])]
    # intervals [0,10] vs [4,6]: (the j-th largest vs (j+1)-st condition holds);
    # convex combinations of two real-rooted quadratics with overlapping
    # root intervals stay real-rooted here
    assert have_common_interlacing(fs)


def test_common_interlacing_rank_one_updates():
    # Characteristic polynomials of A + v v^T for varying v share the
    # common interlacer det(xI - A), by Cauchy interlacing.  The
    # criterion must accept every such family.
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        b = rng.standard_normal((n, n))
        a = b + b.T
        fam = []
        for _ in range(4):
            v = rng.standard_normal(n)
            w = np.linalg.eigvalsh(a + np.outer(v, v))
            fam.append(from_roots(w.tolist()))
        assert have_common_interlacing(fam)


def test_common_interlacing_agrees_with_convex_combinations():
    # the production criterion against the check it replaced.  Both ways
    # on exact families with integer roots, whose violations are whole
    # units: the eleven-point sample caught each one in 1000 trial
    # families, while real-valued roots leave some complex windows of t
    # between its points.  One way on float families threaded through a
    # common interlacer, and on their perturbations.
    rng = np.random.default_rng(17)
    verdicts = set()
    for _ in range(150):
        n = int(rng.integers(2, 6))
        fam = [from_roots(rng.integers(-6, 7, n).tolist())
               for _ in range(int(rng.integers(2, 4)))]
        verdict = have_common_interlacing(fam)
        assert verdict == convex_combinations_real_rooted(fam), fam
        verdicts.add(verdict)
    assert verdicts == {True, False}
    for _ in range(100):
        n = int(rng.integers(2, 6))
        edges = np.concatenate([[-7.0], np.sort(rng.uniform(-5, 5, n - 1)), [7.0]])
        fam = [from_roots(rng.uniform(edges[:-1], edges[1:]).tolist())
               for _ in range(3)]
        assert have_common_interlacing(fam) and convex_combinations_real_rooted(fam)
        fam = [from_roots((np.array(real_roots(p)) + rng.normal(0, 1, n)).tolist())
               for p in fam]
        assert convex_combinations_real_rooted(fam) or not have_common_interlacing(fam)


def test_common_interlacing_rejects_mismatched_degrees():
    assert not have_common_interlacing([
        from_roots([1, 2]),
        from_roots([1, 2, 3]),
    ])
    with pytest.raises(ValueError):
        have_common_interlacing([])
