import math
from fractions import Fraction

import numpy as np
import pytest

from interlace import SymMatrix, char_poly, charpoly_batch, charpoly_batch_exact
from interlace.matrices import _berkowitz
from interlace.poly import Polynomial, real_roots


def test_construction_and_dtype_regimes():
    a = SymMatrix([[2, 1], [1, 2]])
    assert a.is_exact
    assert a.n == 2
    b = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    assert not b.is_exact
    c = SymMatrix([[Fraction(1, 3), 0], [0, 1]])
    assert c.is_exact


def test_exact_matrices_must_be_exactly_symmetric():
    with pytest.raises(ValueError):
        SymMatrix([[1, 2], [3, 1]])


def test_float_matrices_tolerate_roundoff_asymmetry():
    base = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    m = SymMatrix(base)
    assert m.a[0, 1] == m.a[1, 0]
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 0.5], [0.7, 1.0]]))


def test_constructors_and_arithmetic():
    i3 = SymMatrix.identity(3)
    z = SymMatrix.zeros(3)
    assert (i3 + z) == i3
    assert (i3 - i3) == z
    assert (2 * i3).trace() == 6
    v = np.array([1, 2])
    vv = SymMatrix.outer(v)
    assert vv.a[0, 1] == 2 and vv.a[1, 1] == 4
    assert vv.trace() == 5


def test_eigenvalues_and_psd():
    a = SymMatrix([[2, 1], [1, 2]])
    w = a.eigenvalues()
    assert np.allclose(w, [1, 3])
    assert a.is_psd()
    assert not SymMatrix([[1, 0], [0, -1]]).is_psd()
    # tiny negative eigenvalues from roundoff still count as PSD
    eps = -1e-12
    assert SymMatrix(np.array([[eps, 0.0], [0.0, 1.0]])).is_psd()


def test_norm2():
    assert SymMatrix([[3, 0], [0, -4]]).norm2() == pytest.approx(4)


def test_char_poly_exact_small_cases():
    # det(xI - [[2,1],[1,2]]) = x^2 - 4x + 3
    p = char_poly(SymMatrix([[2, 1], [1, 2]]))
    assert p.coeffs == (3, -4, 1)
    assert p.is_exact
    q = char_poly(SymMatrix([[0, 1], [1, 0]]))
    assert q.coeffs == (-1, 0, 1)


def test_char_poly_exact_fraction_entries():
    a = SymMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 4)]])
    p = char_poly(a)
    # trace = 3/4, det = 1/8 - 1/9 = 1/72
    assert p.coeffs == (Fraction(1, 72), Fraction(-3, 4), 1)


def test_char_poly_matches_numpy_on_random_exact_matrices():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        b = rng.integers(-5, 6, (n, n))
        a = b + b.T
        p = char_poly(SymMatrix(a))
        expect = np.poly(a.astype(float))[::-1]  # lowest-first
        assert np.allclose([float(c) for c in p.coeffs], expect, rtol=1e-10)


def test_char_poly_float_roots_are_eigenvalues():
    rng = np.random.default_rng(13)
    b = rng.standard_normal((5, 5))
    a = (b + b.T) / 2
    p = char_poly(SymMatrix(a))
    assert not p.is_exact
    w = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.allclose(real_roots(p), w, atol=1e-8 * (1 + np.abs(w).max()))


def test_charpoly_batch_matches_single():
    rng = np.random.default_rng(17)
    mats = []
    for _ in range(8):
        b = rng.standard_normal((4, 4))
        mats.append((b + b.T) / 2)
    stack = np.array(mats)
    co = charpoly_batch(stack)
    assert co.shape == (8, 5)
    for i, m in enumerate(mats):
        expect = np.poly(m)[::-1]  # flip to the lowest-first layout
        assert np.allclose(co[i], expect, rtol=1e-9, atol=1e-9)


def faddeev_leverrier(a) -> list:
    """Reference det(xI - A), lowest-first, by Faddeev-LeVerrier over Fractions.

    c_k = -tr(M_k)/k with M_1 = A and M_(k+1) = A (M_k + c_k I); independent
    of the Berkowitz recurrence inside the library.
    """
    a = [[Fraction(x) for x in row] for row in np.asarray(a).tolist()]
    n = len(a)
    out = [Fraction(0)] * n + [Fraction(1)]
    m = a
    for k in range(1, n + 1):
        c = -sum(m[i][i] for i in range(n)) / k
        out[n - k] = c
        shifted = [[m[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
        m = [[sum(a[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
             for i in range(n)]
    return out


def test_charpoly_batch_exact_integer_inputs():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        stack = rng.integers(-3, 4, (3, n, n))
        stack = stack + np.transpose(stack, (0, 2, 1))
        ints = charpoly_batch_exact(stack)
        objs = charpoly_batch_exact(stack.astype(object))
        floats = charpoly_batch(stack.astype(float))
        for b in range(3):
            ref = faddeev_leverrier(stack[b])
            assert list(ints[b]) == ref and list(objs[b]) == ref
            assert all(isinstance(c, int) for c in objs[b])
            assert np.allclose(floats[b], [float(c) for c in ref], rtol=1e-9, atol=1e-9)


def test_charpoly_batch_exact_large_entries_leave_int64():
    # (2 n max|a|)^n far exceeds 2^63 here, and int64 arithmetic would wrap.
    rng = np.random.default_rng(23)
    stack = rng.integers(10**6 - 100, 10**6 + 100, (3, 8, 8)) \
        * rng.choice([-1, 1], (3, 8, 8))
    co = charpoly_batch_exact(stack)
    for b in range(3):
        assert list(co[b]) == faddeev_leverrier(stack[b])


def test_charpoly_batch_exact_signed_n12_stays_int64_and_exact():
    rng = np.random.default_rng(29)
    stack = np.triu(rng.choice([-1, 1], (4, 12, 12)), 1)
    stack = stack + np.transpose(stack, (0, 2, 1))
    co = charpoly_batch_exact(stack)
    assert co.dtype == np.int64
    for b in range(4):
        assert list(co[b]) == faddeev_leverrier(stack[b])


def test_charpoly_batch_exact_signed_cubic_n24_stays_int64():
    # Row sums of 3 give (2 * 3)^24 < 2^63, so signed cubic graphs stay int64
    # up to n = 24 (the bound n max|a| would give 48^24).
    rng = np.random.default_rng(31)
    n = 24
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
    stack = np.zeros((3, n, n), dtype=np.int64)
    for a, b in edges:
        stack[:, a, b] = stack[:, b, a] = rng.choice([-1, 1], 3)
    co = charpoly_batch_exact(stack)
    assert co.dtype == np.int64
    ref = charpoly_batch_exact(stack.astype(object))
    assert ref.dtype == object
    assert (co == ref).all()


def test_charpoly_batch_exact_fraction_inputs():
    a = np.empty((1, 2, 2), dtype=object)
    a[0] = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    co = charpoly_batch_exact(a)
    assert co[0][2] == 1
    assert co[0][1] == Fraction(-5, 6)
    assert co[0][0] == Fraction(1, 6)


def test_charpoly_batch_exact_signed_cubic_n32_runs_int64():
    # (2 * 3)^32 passes 2^63, so the old intermediate bound would leave
    # int64; the coefficients themselves stay below C(32, k) 3^(k/2), and
    # int64 left to wrap is exact for a ring recurrence whose results fit.
    rng = np.random.default_rng(37)
    n = 32
    assert (2 * 3) ** n >= 2 ** 63
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
    stack = np.zeros((4, n, n), dtype=np.int64)
    for a, b in edges:
        stack[:, a, b] = stack[:, b, a] = rng.choice([-1, 1], 4)
    co = charpoly_batch_exact(stack)
    assert co.dtype == np.int64
    # the same recurrence on Python ints, which cannot wrap
    ref = _berkowitz(stack.astype(object))
    assert ref.dtype == object
    assert (co == ref).all()
    assert (charpoly_batch_exact(stack.astype(object)) == ref).all()


def test_charpoly_batch_exact_rational_stacks_match_faddeev_leverrier():
    # object stacks are cleared matrix by matrix, each by its own
    # denominator, and the coefficients scaled back
    rng = np.random.default_rng(41)
    for _ in range(12):
        n = int(rng.integers(1, 7))
        stack = np.empty((3, n, n), dtype=object)
        for b in range(3):
            for i in range(n):
                for j in range(i, n):
                    x = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 11)))
                    stack[b, i, j] = stack[b, j, i] = x
        co = charpoly_batch_exact(stack)
        assert co.dtype == object
        for b in range(3):
            assert list(co[b]) == faddeev_leverrier(stack[b])
