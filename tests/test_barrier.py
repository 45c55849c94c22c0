"""Barrier functions, soft spectral edges, and shift-operator edge bounds,
of ``tests/barrier.py``."""

import math

import numpy as np
import pytest

from interlace import Polynomial, real_roots
from barrier import DetPolyFamily, laguerre_root_bounds, lower_barrier, \
    lower_shift_check, multivariate_barrier, smax, smin, upper_barrier, upper_shift_check
from fixtures import from_roots
from paper import apply_shift_operator, laguerre_transform


def test_lower_barrier_values():
    # f = (x-1)(x-2): Phi_f(b) = 1/(1-b) + 1/(2-b)
    f = from_roots([1.0, 2.0])
    assert lower_barrier(f, 0.0) == pytest.approx(1.0 + 0.5)
    assert lower_barrier(f, -1.0) == pytest.approx(1 / 2 + 1 / 3)


def test_upper_barrier_values():
    f = from_roots([1.0, 2.0])
    assert upper_barrier(f, 3.0) == pytest.approx(1 / 2 + 1 / 1)
    assert upper_barrier(f, 4.0) == pytest.approx(1 / 3 + 1 / 2)


def test_barrier_side_validation():
    f = from_roots([1.0, 2.0])
    with pytest.raises(ValueError):
        lower_barrier(f, 1.5)  # not below all roots
    with pytest.raises(ValueError):
        upper_barrier(f, 1.5)  # not above all roots


def test_barriers_are_monotone():
    rng = np.random.default_rng(42)
    for _ in range(50):
        deg = int(rng.integers(1, 8))
        f = from_roots(rng.uniform(-3, 3, deg).tolist())
        lo = float(real_roots(f).min())
        hi = float(real_roots(f).max())
        b1, b2 = lo - 2.0, lo - 1.0
        assert lower_barrier(f, b1) < lower_barrier(f, b2)
        assert upper_barrier(f, hi + 1.0) > upper_barrier(f, hi + 2.0)


def test_smin_phi_closed_form_single_root():
    # f = x^k has Phi_f(b) = k/(0 - b)... = -k/b, so smin_phi solves
    # -k/b = phi  =>  b = -k/phi.
    for k in (1, 2, 5):
        f = Polynomial((0,) * k + (1,))
        for phi in (0.5, 1.0, 2.0):
            assert smin(f, phi) == pytest.approx(-k / phi, abs=1e-9)
            assert smax(f, phi) == pytest.approx(k / phi, abs=1e-9)


def test_soft_edges_bracket_true_edges():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        deg = int(rng.integers(1, 9))
        f = from_roots(rng.uniform(-5, 5, deg).tolist())
        r = real_roots(f)
        phi = float(rng.uniform(0.2, 3.0))
        lo = smin(f, phi)
        hi = smax(f, phi)
        assert lo <= r.min() + 1e-9
        assert hi >= r.max() - 1e-9
        # barrier value at the soft edge equals phi
        assert lower_barrier(f, lo) == pytest.approx(phi, rel=1e-6)
        assert upper_barrier(f, hi) == pytest.approx(phi, rel=1e-6)


def test_soft_edges_monotone_in_phi():
    f = from_roots([0.0, 1.0, 4.0])
    assert smin(f, 0.5) < smin(f, 2.0)  # larger phi, closer to roots
    assert smax(f, 0.5) > smax(f, 2.0)


def test_soft_edges_converge_to_extreme_roots():
    f = from_roots([-2.0, 1.0, 4.0])
    assert smin(f, 1e6) == pytest.approx(-2.0, abs=1e-4)
    assert smax(f, 1e6) == pytest.approx(4.0, abs=1e-4)


def test_soft_edges_match_50_digit_references():
    # smax is the top root of f - f'/phi and smin the bottom root of
    # f + f'/phi, both taken from f's float coefficients to 50 digits
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(59)
    for _ in range(40):
        f = from_roots(rng.uniform(-5.0, 5.0, int(rng.integers(1, 11))).tolist())
        phi = float(rng.uniform(0.05, 4.0))
        with mpmath.workdps(50):
            c = [mpmath.mpf(x) for x in f.coeffs]
            dc = [(i + 1) * x / phi for i, x in enumerate(c[1:])] + [0]
            for sign, edge, pick in ((-1, smax, max), (1, smin, min)):
                shifted = [a + sign * b for a, b in zip(c, dc)]
                roots = mpmath.polyroots(shifted[::-1], maxsteps=400, extraprec=400)
                assert abs(edge(f, phi) - pick(mpmath.re(r) for r in roots)) <= 1e-11


def test_lower_shift_check_deterministic():
    f = from_roots([0.0, 1.0, 3.0])
    g = apply_shift_operator(f, 1)
    for phi in (0.5, 1.0, 2.5):
        assert lower_shift_check(f, phi)
        # the inequality it certifies, re-derived directly
        assert smin(g, phi) >= smin(f, phi) + 1 / (1 + phi) - 1e-7


def test_upper_shift_check_deterministic():
    f = from_roots([0.0, 1.0, 3.0])
    g = apply_shift_operator(f, 1)
    for phi in (0.3, 0.7, 0.95):
        assert upper_shift_check(f, phi)
        assert smax(g, phi) <= smax(f, phi) + 1 / (1 - phi) + 1e-7


def test_upper_shift_check_requires_phi_below_one():
    f = from_roots([0.0, 1.0])
    with pytest.raises(ValueError):
        upper_shift_check(f, 1.0)
    with pytest.raises(ValueError):
        lower_shift_check(f, 0.0)


def test_shift_checks_randomized():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        deg = int(rng.integers(1, 11))
        f = from_roots(rng.uniform(-4, 4, deg).tolist())
        phi = float(rng.uniform(0.05, 4.0))
        assert lower_shift_check(f, phi)
        phi_u = float(rng.uniform(0.05, 0.95))
        assert upper_shift_check(f, phi_u)


def test_laguerre_root_bounds_formula():
    lo, hi = laguerre_root_bounds(4, 1)
    assert lo == pytest.approx(4 * (1 - 0.5) ** 2)
    assert hi == pytest.approx(4 * (1 + 0.5) ** 2)
    assert isinstance(lo, float) and isinstance(hi, float)


def test_laguerre_bounds_contain_roots_small():
    for n in range(1, 13):
        for k in range(1, n + 1):
            p = laguerre_transform(n, k)
            r = real_roots(Polynomial([float(c) for c in p.coeffs]))
            lo, hi = laguerre_root_bounds(n, k)
            assert r.min() >= lo - 1e-6
            assert r.max() <= hi + 1e-6


# ----------------------------------------------------------------------
# Multivariate barrier for determinantal families
# ----------------------------------------------------------------------


def test_det_poly_family_validation():
    a1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    fam = DetPolyFamily([a1, a2])
    assert fam.m == 2 and fam.dimension == 2
    with pytest.raises(ValueError):
        DetPolyFamily([a1, np.eye(3)])  # dimension mismatch
    with pytest.raises(ValueError):
        DetPolyFamily([np.array([[-1.0, 0.0], [0.0, 0.0]])])  # not PSD


def test_multivariate_barrier_rank_one_closed_form():
    # With A_0 = e1 e1^T, A_1 = e2 e2^T the determinant is
    # (x + z0)(x + z1), so d/dz_j log det at (x, z0, z1) is 1/(x + z_j).
    a1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    fam = DetPolyFamily([a1, a2])
    val = multivariate_barrier(fam, 0, (0.0, 2.0, 5.0))
    assert val == pytest.approx(1 / 2)
    val2 = multivariate_barrier(fam, 1, (0.0, 2.0, 5.0))
    assert val2 == pytest.approx(1 / 5)


def test_multivariate_barrier_matches_finite_difference():
    rng = np.random.default_rng(31337)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        mats = []
        for _ in range(m):
            b = rng.standard_normal((d, d))
            mats.append(b @ b.T)
        fam = DetPolyFamily(mats)
        # pick a point safely inside the positive-definite region
        point = (float(rng.uniform(0.5, 2.0)),) + tuple(rng.uniform(0.5, 2.0, m))

        def detval(pt):
            acc = pt[0] * np.eye(d)
            for j in range(m):
                acc = acc + pt[j + 1] * mats[j]
            return float(np.linalg.det(acc))

        h = 1e-6
        for j in range(m):
            up = list(point)
            dn = list(point)
            up[j + 1] += h
            dn[j + 1] -= h
            fd = (math.log(detval(up)) - math.log(detval(dn))) / (2 * h)
            assert multivariate_barrier(fam, j, point) == pytest.approx(fd, rel=1e-4)


def test_multivariate_barrier_rejects_singular_point():
    fam = DetPolyFamily([np.eye(2)])
    with pytest.raises(ValueError):
        multivariate_barrier(fam, 0, (0.0, 0.0))  # xI + 0*A = 0, singular
    with pytest.raises(ValueError):
        multivariate_barrier(fam, 0, (-1.0, 0.5))  # xI + 0.5 A = -0.5 I, indefinite
    with pytest.raises(ValueError):
        multivariate_barrier(fam, 0, (1.0,))  # wrong point length
    with pytest.raises(ValueError):
        multivariate_barrier(fam, 1, (1.0, 1.0))  # index out of range
