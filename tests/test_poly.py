"""Polynomial arithmetic, root machinery, and interlacing tests.

Expected values here are either hand-derivable (small quadratics and
cubics) or cross-checked against numpy's polynomial routines inside the
test itself.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from interlace import (
    Polynomial,
    ZeroPolynomialError,
    NotRealRootedError,
    apply_shift_operator,
    shift_roots,
    laguerre_transform,
    diagram_identity_check,
    sturm_sequence,
    sturm_root_count,
    is_real_rooted,
    real_roots,
    kth_largest_root,
    roots_above,
    root_clusters,
    top_root,
    compare_top_roots,
    interlaces,
    have_common_interlacing,
    mixed_char,
    Graph,
    VectorSystem,
    restricted_invertibility_select,
    signing_select,
)
import interlace.poly as poly_module


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
    assert Polynomial([1, 2]).to_float().coeffs == (1.0, 2.0)


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
    p = Polynomial.from_roots([1, 2, 3])
    assert p.coeffs == (-6, 11, -6, 1)
    q = Polynomial([2, 4]).monic()
    assert q.coeffs == (Fraction(1, 2), 1)


def test_taylor_shift():
    p = Polynomial([2, 0, 1])  # x^2 + 2
    assert p.taylor_shift(1).coeffs == (3, 2, 1)  # (x+1)^2 + 2
    r = Polynomial.from_roots([5, -1])
    shifted = r.taylor_shift(2)  # roots move to 3 and -3
    assert sorted(np.round(real_roots(shifted), 9)) == [-3.0, 3.0]


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
        p = Polynomial.from_roots(rng.uniform(-4, 4, deg).tolist())
        c = float(rng.uniform(0, 3))
        assert is_real_rooted(apply_shift_operator(p, c))


def test_shift_operator_negative_c_can_break_real_rootedness():
    # (1 + D)... applied repeatedly to (x^2 - 1) eventually produces
    # complex roots for c chosen adversarially; witness a concrete case:
    p = Polynomial([1, -1, 1]) * Polynomial([1, 1])  # has complex factor already
    assert not is_real_rooted(p)


def _sorted_multiset(roots, zeros):
    return np.sort(np.concatenate([roots, np.zeros(zeros)]))[::-1]


def test_shift_roots_zero_shift_is_identity():
    roots = np.array([[0.5, 2.0, -1.0], [3.0, 3.0, 0.0]])
    out, zeros = shift_roots(roots, 4, 0)
    assert zeros == 4
    assert (out == -np.sort(-roots, axis=1)).all()


def test_shift_roots_repeated_poles():
    # p = (x-2)^3 (x-1): p - p'/2 = (x-2)^2 (x^2 - 5x + 9/2), so the
    # triple root keeps two copies and the rest solve the quadratic
    out, zeros = shift_roots(np.array([[2.0, 1.0, 2.0, 2.0]]), 0, 0.5)
    assert zeros == 0
    assert list(out[0, 1:3]) == [2.0, 2.0]
    r7 = math.sqrt(7.0)
    assert out[0, 0] == pytest.approx((5 + r7) / 2, rel=1e-15)
    assert out[0, 3] == pytest.approx((5 - r7) / 2, rel=1e-15)
    # a zero root of multiplicity s keeps s - 1 copies
    out, zeros = shift_roots(np.empty((1, 0)), 3, 0.25)
    assert zeros == 2 and out[0, 0] == pytest.approx(0.75, rel=1e-15)


def test_shift_roots_interlace_their_input():
    rng = np.random.default_rng(20261018)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        zeros = int(rng.integers(0, 4))
        roots = rng.uniform(-3, 3, (5, d))
        roots[:, -1] = roots[:, 0]  # one repeated root per row
        c = float(rng.uniform(0.01, 2))
        out, z2 = shift_roots(roots, zeros, c)
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
        p = Polynomial.from_roots(roots + [0] * zeros)
        q = apply_shift_operator(p, c)
        out, z2 = shift_roots(np.array([[float(r) for r in roots]]), zeros, float(c))
        assert len(out[0]) + z2 == q.degree
        delta = Fraction(1, 10 ** 9)
        for r in out[0]:
            r = Fraction(float(r))
            assert sturm_root_count(q, r - delta, r + delta) == 1
        if z2:
            assert q.coeffs[:z2] == (0,) * z2 and q.coeffs[z2] != 0


def test_shift_roots_rejects_bad_arguments():
    with pytest.raises(ValueError):
        shift_roots(np.array([1.0, 2.0]), 0, 1.0)  # not a batch
    with pytest.raises(ValueError):
        shift_roots(np.array([[1.0]]), -1, 1.0)
    with pytest.raises(ValueError):
        shift_roots(np.array([[1.0]]), 0, -0.5)


def test_laguerre_transform_values():
    # (1 - D)^2 x^2 = x^2 - 4x + 2
    assert laguerre_transform(2, 2).coeffs == (2, -4, 1)
    # (1 - D)^4 x = x - 4
    assert laguerre_transform(4, 1).coeffs == (-4, 1)
    assert laguerre_transform(0, 3).coeffs == (0, 0, 0, 1)
    assert laguerre_transform(3, 0).coeffs == (1,)
    assert laguerre_transform(5, 2).is_exact


def test_laguerre_roots_2_2():
    r = real_roots(laguerre_transform(2, 2))
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
    p = Polynomial.from_roots([1, 2, 3])
    assert sturm_root_count(p, 0, 4) == 3
    assert sturm_root_count(p, Fraction(3, 2), 3) == 2
    assert sturm_root_count(p, 4, 10) == 0


def test_sturm_root_count_at_roots_is_half_open():
    p = Polynomial.from_roots([1, 2, 3])
    assert sturm_root_count(p, 1, 3) == 2
    assert sturm_root_count(p, 2, 2) == 0
    # at a multiple root every element of the sequence vanishes
    q = Polynomial.from_roots([1, 1, 1, 2, 2])
    assert sturm_root_count(q, 1, 2) == 1
    assert sturm_root_count(q, 0, 1) == 1
    assert sturm_root_count(q, Fraction(1, 2), Fraction(3, 2)) == 1


def test_sturm_counts_distinct_roots_only():
    cube = Polynomial.from_roots([3, 3, 3])
    assert sturm_root_count(cube, 0, 5) == 1
    mixed = Polynomial.from_roots([1, 1, 4])
    assert sturm_root_count(mixed, 0, 5) == 2


def test_sturm_on_float_coefficients():
    # a float Sturm sequence certifies nothing, so none is taken
    p = Polynomial.from_roots([0.5, 1.5, 2.5])
    with pytest.raises(TypeError):
        sturm_root_count(p, 0.0, 3.0)
    with pytest.raises(TypeError):
        sturm_sequence(p)


def test_is_real_rooted_exact():
    assert is_real_rooted(Polynomial.from_roots([1, 2, 3]))
    assert is_real_rooted(Polynomial.from_roots([3, 3, 3]))
    assert not is_real_rooted(Polynomial([7, -5, 1]))  # roots 2.5 +- i sqrt(3)/2... complex
    assert not is_real_rooted(Polynomial([1, 0, 0, 1]))  # x^3 + 1 has two complex roots
    assert is_real_rooted(Polynomial([5]))  # constants are vacuously fine


def test_is_real_rooted_float():
    assert is_real_rooted(Polynomial.from_roots([1.0, 2.5, -3.0]))
    assert is_real_rooted(Polynomial.from_roots([3.0, 3.0, 3.0]))
    assert not is_real_rooted(Polynomial([7.0, -5.0, 1.0]))
    assert not is_real_rooted(Polynomial([1.0, 0.1, 0.1, 1.0]))


def test_is_real_rooted_exact_high_multiplicity():
    p = Polynomial.from_roots([2] * 5 + [-1] * 3)
    assert is_real_rooted(p)
    q = p * Polynomial([1, 0, 1])  # multiply in x^2 + 1
    assert not is_real_rooted(q)


def test_real_roots_basic():
    r = real_roots(Polynomial.from_roots([1, 2, 3]))
    assert r.shape == (3,)
    assert np.allclose(r, [3, 2, 1])  # descending
    assert real_roots(Polynomial([5])).shape == (0,)


def test_real_roots_multiplicity_and_zeros():
    # x^3 (x - 2)^2: three exact zeros plus a double root at 2
    p = Polynomial.monomial(3) * Polynomial.from_roots([2, 2])
    r = real_roots(p)
    assert len(r) == 5
    assert np.sum(np.abs(r) < 1e-12) == 3  # stripped zeros are exact
    assert np.allclose(r[:2], 2, atol=1e-6)


@pytest.mark.parametrize("roots", [
    [2] * 5 + [-1] * 3,
    [Fraction(16, 25)] * 3 + [Fraction(9, 25)] * 2 + [0] * 2,
    [1] * 12,
])
def test_real_roots_exact_multiple_roots(roots):
    # companion eigenvalues of an r-fold root scatter by eps**(1/r); the
    # exact kernel polishes on the (r-1)-th derivative, where it is simple
    got = real_roots(Polynomial.from_roots(roots))
    want = sorted((float(r) for r in roots), reverse=True)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_real_roots_raises_on_complex():
    for p in (Polynomial([7.0, -5.0, 1.0]), Polynomial([7, -5, 1])):
        with pytest.raises(NotRealRootedError):
            real_roots(p)
    with pytest.raises(ZeroPolynomialError):
        real_roots(Polynomial([]))


def test_real_roots_matches_numpy_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        deg = int(rng.integers(1, 13))
        roots = np.sort(rng.uniform(-10, 10, deg))[::-1]
        p = Polynomial.from_roots(roots.tolist())
        got = real_roots(p)
        assert got.shape == (deg,)
        assert np.all(np.diff(got) <= 1e-12)
        # well-separated roots recovered to high accuracy
        if deg > 1 and np.min(-np.diff(roots)) > 1e-2:
            assert np.allclose(got, roots, atol=1e-7 * (1 + np.abs(roots).max()))


def test_kth_largest_root():
    p = Polynomial.from_roots([1, 2, 3])
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
    roots = real_roots(p)
    return int(np.sum(np.abs(roots - roots[0]) <= 1e-9 * (1 + abs(roots[0]))))


@pytest.mark.parametrize("p", [
    Polynomial([-3, 0, 1]) * Polynomial([-3, 0, 1]) * Polynomial([-3, 0, 1])
    * Polynomial([-3, 0, 1]),
    Polynomial.from_roots([1] * 12),
    Polynomial([0, 0, 0, 0, 0, -5, 0, 1]),
    Polynomial.from_roots([4, -1, 2]) * -3,
    Polynomial([Fraction(1, 6), Fraction(-5, 6), 1]),
    Polynomial.from_roots([Fraction(7, 3), Fraction(7, 3), Fraction(-1, 2)], Fraction(2, 5)),
    DEGREE_24_FOURFOLD,
], ids=["(x2-3)^4", "(x-1)^12", "x5(x2-5)", "negative lead", "rational",
        "rational double", "degree 24"])
def test_top_root_matches_exact_roots_and_certifies_its_bracket(p):
    got = top_root(p)
    want = real_roots(p)[0]
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
    got = top_root(Polynomial.monomial(5, 3))
    assert (got.root, got.mult) == (0.0, 5)
    assert got.lo < 0 < got.hi
    assert top_root(Polynomial([1, 1])).root == -1.0


def test_top_root_rejects_constants_zero_and_float_polynomials():
    with pytest.raises(ZeroPolynomialError):
        top_root(Polynomial.zero())
    with pytest.raises(ValueError):
        top_root(Polynomial([5]))
    with pytest.raises(TypeError):
        top_root(Polynomial([-2.0, 1.0]))


def test_top_root_bisection_fallback_certifies_the_same_root(monkeypatch):
    import interlace.poly as poly_module
    monkeypatch.setattr(poly_module, "_float_start", lambda a: math.nan)
    for p in (DEGREE_24_FOURFOLD, Polynomial.from_roots([Fraction(1, 3), 2, 2, -5])):
        got = top_root(p)
        want = real_roots(p)[0]
        assert abs(got.root - want) <= 1e-12 * (1 + abs(want))
        assert got.lo < got.root <= got.hi
        assert roots_above(p, got.hi) == 0 and roots_above(p, got.lo) >= 1


def test_top_root_bisection_stops_relative_to_the_root(monkeypatch):
    # a small root under a large root bound: the bracket is still a few
    # ulp of the root wide
    monkeypatch.setattr(poly_module, "_float_start", lambda a: math.nan)
    want = Fraction(-119, 1000)
    p = Polynomial.from_roots([want, Fraction(-3, 7), -1500, -2000])
    got = top_root(p)
    ulp = Fraction(math.ulp(got.root))
    assert got.lo < want <= got.hi
    assert got.hi - got.lo <= 4 * ulp
    assert abs(Fraction(got.root) - want) <= 4 * ulp


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
        p = Polynomial.from_roots(roots, lead=int(rng.choice([-3, 1, 2])))
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
    for got, ref in zip(real_roots(p), want):
        assert abs(mpmath.mpf(got) - ref) <= 2 * math.ulp(float(ref))


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
    def refuse(p):
        raise AssertionError("a Sturm sequence was taken")
    monkeypatch.setattr(poly_module, "sturm_sequence", refuse)
    vs = _rational_isotropic(np.random.default_rng(6), 6)
    assert vs.is_exact and vs.is_isotropic()
    chosen, cert = restricted_invertibility_select(vs, 3)
    assert len(set(chosen)) == 3 and cert.valid()
    signing, cert = signing_select(Graph.complete_bipartite(3, 3))
    assert len(signing.signs) == 9 and cert.valid()
    # outside input still meets the checker
    with pytest.raises(AssertionError):
        real_roots(Polynomial([7, -5, 1]))


def test_compare_top_roots_disjoint_equal_and_overlapping():
    a = Polynomial.from_roots([3, 1, -2])
    b = Polynomial.from_roots([2, 2, 0])
    assert compare_top_roots(a, b) == 1 and compare_top_roots(b, a) == -1
    # distinct polynomials sharing their top root, with other multiplicities
    c = Polynomial.from_roots([3, 3, 0])
    assert compare_top_roots(a, c) == 0 and compare_top_roots(c, a) == 0
    assert compare_top_roots(a, a) == 0
    # top roots 1 and 1 + 2^-70: their first brackets overlap
    one = Polynomial([-1, 1])
    near = Polynomial([-(2 ** 70 + 1), 2 ** 70]) * Polynomial.from_roots([-4, 0])
    t_one, t_near = top_root(one), top_root(near)
    assert t_one.lo < t_near.hi and t_near.lo < t_one.hi
    assert compare_top_roots(one, near) == -1
    assert compare_top_roots(near, one, t_near, t_one) == 1


# ----------------------------------------------------------------------
# Interlacing
# ----------------------------------------------------------------------


def test_interlaces_degree_offset():
    f = Polynomial.from_roots([1, 3, 5])
    assert interlaces(Polynomial.from_roots([2, 4]), f)
    assert interlaces(Polynomial.from_roots([0, 2, 4]), f)
    assert not interlaces(Polynomial.from_roots([2, 6]), f)
    # sharing roots is allowed (weak inequalities)
    assert interlaces(Polynomial.from_roots([1, 3]), f)
    # degree gap of two is not interlacing
    assert not interlaces(Polynomial.from_roots([2]), f)


def test_derivative_interlaces():
    rng = np.random.default_rng(99)
    for _ in range(50):
        deg = int(rng.integers(2, 10))
        f = Polynomial.from_roots(rng.uniform(-5, 5, deg).tolist())
        assert interlaces(f.derivative(), f)


def test_largest_root_belongs_to_f():
    f = Polynomial.from_roots([0, 4])
    g = Polynomial.from_roots([5])  # root beyond f's largest
    assert not interlaces(g, f)


def test_common_interlacing_positive_case():
    fs = [Polynomial.from_roots([1, 3]), Polynomial.from_roots([2, 4]),
          Polynomial.from_roots([1.5, 3.2])]
    assert have_common_interlacing(fs)


def test_common_interlacing_negative_case():
    # (x-1)(x-2) and (x-3)(x-4): their average is x^2 - 5x + 7 with
    # complex roots 5/2 +- sqrt(3)/2 i, so no common interlacing exists.
    a = Polynomial.from_roots([1, 2])
    b = Polynomial.from_roots([3, 4])
    assert not have_common_interlacing([a, b])
    avg = Fraction(1, 2) * a + Fraction(1, 2) * b
    assert avg == Polynomial([7, -5, 1])
    assert not is_real_rooted(avg)


def test_common_interlacing_detects_root_interval_overlap():
    fs = [Polynomial.from_roots([0, 10]), Polynomial.from_roots([4, 6])]
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
            fam.append(Polynomial.from_roots(w.tolist()))
        assert have_common_interlacing(fam)


def test_common_interlacing_rejects_mismatched_degrees():
    assert not have_common_interlacing([
        Polynomial.from_roots([1, 2]),
        Polynomial.from_roots([1, 2, 3]),
    ])
    with pytest.raises(ValueError):
        have_common_interlacing([])
