import math
from fractions import Fraction

import numpy as np
import pytest

from interlace import Graph, SigningEngine, SymMatrix, VectorSystem, char_poly, \
    charpoly_batch, charpoly_batch_exact, frontier_order, graphs, mixed_char, two_lift
from interlace.poly import real_roots
from fixtures import complete_bipartite, petersen
from oracles import berkowitz_charpoly


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_entries_must_be_finite(bad):
    # checked before the symmetry test, whose difference of two infinite
    # entries would be nan with a RuntimeWarning, and before eigvalsh,
    # which takes a nan entry for a PSD matrix
    with pytest.raises(ValueError, match=rf"matrix entry \(0, 0\) is {bad}, not finite"):
        SymMatrix([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=rf"matrix entry \(1, 0\) is {bad}, not finite"):
        SymMatrix([[1.0, 0.0], [bad, 1.0]])
    with pytest.raises(ValueError, match="not finite"):
        mixed_char([[[bad, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_entries_among_exact_ones_must_be_finite(bad):
    # a Fraction makes an object array, read exactly: a float inf there
    # reached Fraction arithmetic (OverflowError), and a nan the symmetry
    # test ("not symmetric")
    with pytest.raises(ValueError, match=rf"matrix entry \(1, 1\) is {bad}, not finite"):
        SymMatrix([[Fraction(1, 2), 0], [0, bad]])
    with pytest.raises(ValueError, match=rf"vector component \(0, 1\) is {bad}, not finite"):
        VectorSystem([[Fraction(1, 2), bad], [0, 1]]).gram_sum()
    assert SymMatrix([[Fraction(1, 2), 0.5], [0.5, 1]]).a[0, 1] == Fraction(1, 2)


def test_constructors_and_arithmetic():
    i3 = SymMatrix.identity(3)
    z = SymMatrix(np.zeros((3, 3)))
    assert SymMatrix(i3.a + z.a) == i3
    assert SymMatrix(i3.a - i3.a) == z
    assert SymMatrix(2 * i3.a).trace() == 6
    v = np.array([1, 2])
    vv = SymMatrix(np.outer(v, v))
    assert vv.a[0, 1] == 2 and vv.a[1, 1] == 4
    assert vv.trace() == 5


def test_eigenvalues_and_psd():
    a = SymMatrix([[2, 1], [1, 2]])
    w = a.eigenvalues()
    assert np.allclose(w, [1, 3])
    # mixed_char decides PSD, exact and float alike
    for mat in (a, SymMatrix(a.a.astype(float))):
        assert mixed_char([mat]).degree == 2
    indefinite = SymMatrix([[1, 0], [0, -1]])
    for mat in (indefinite, SymMatrix(indefinite.a.astype(float))):
        with pytest.raises(ValueError, match="^matrix 0 is not positive semidefinite$"):
            mixed_char([mat])
    # tiny negative eigenvalues from roundoff still count as PSD
    eps = -1e-12
    assert mixed_char([SymMatrix(np.array([[eps, 0.0], [0.0, 1.0]]))]).degree == 2


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
    """Reference det(xI - A), lowest-first, by Faddeev-LeVerrier over exact rationals.

    c_k = -tr(M_k)/k with M_1 = A and M_(k+1) = A (M_k + c_k I), in Python
    ints while the entries and coefficients are integers.  It shares
    Newton's identities with the library's kernel but forms no power of A,
    runs one matrix at a time over exact rationals, and cannot wrap.
    """
    a = [[x if type(x) is int else Fraction(x) for x in row] for row in np.asarray(a).tolist()]
    n = len(a)
    out = [Fraction(0)] * n + [Fraction(1)]
    m = a
    for k in range(1, n + 1):
        c = Fraction(-sum(m[i][i] for i in range(n)), k)
        # integer matrices keep every M_k and c_k integral: stay in ints
        c = c.numerator if c.denominator == 1 else c
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
    # Berkowitz's recurrence on Python ints, which cannot wrap
    ref = berkowitz_charpoly(stack.astype(object))
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


def _assert_matches_oracles(stack, co, rows=None):
    """``co`` is Berkowitz's recurrence on ``stack`` in Python ints or
    Fractions, and Faddeev-LeVerrier's on each matrix in ``rows`` (all
    by default)."""
    assert (co == berkowitz_charpoly(stack.astype(object))).all()
    for b in range(len(stack)) if rows is None else rows:
        assert list(co[b]) == faddeev_leverrier(stack[b])


@pytest.mark.parametrize("batch", [1, 5])
def test_charpoly_batch_exact_matches_berkowitz_and_faddeev_leverrier(batch):
    # n = 0 is the (B, 0, 0) stack of a signing walk's level 0
    rng = np.random.default_rng(43 + batch)
    for n in range(13):
        ints = rng.integers(-2, 3, (batch, n, n))
        ints = ints + np.transpose(ints, (0, 2, 1))
        co = charpoly_batch_exact(ints)
        assert co.shape == (batch, n + 1)
        objs = charpoly_batch_exact(ints.astype(object))
        assert objs.dtype == object and (objs == co).all()
        _assert_matches_oracles(ints, co)
        fracs = np.empty((batch, n, n), dtype=object)
        for b in range(batch):
            for i in range(n):
                for j in range(i, n):
                    x = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                    fracs[b, i, j] = fracs[b, j, i] = x
        co = charpoly_batch_exact(fracs)
        assert co.shape == (batch, n + 1) and co.dtype == object
        _assert_matches_oracles(fracs, co)


def _leaf_graph(name):
    if name == "cube":
        return Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])
    if name == "petersen":
        return petersen()
    # a connected 24-vertex cubic Ramanujan double cover of K_{3,3}, in
    # the frontier order a signing walk takes it in
    k33 = complete_bipartite(3, 3)
    g = two_lift(k33, [-1 if i in (0, 4) else 1 for i in range(k33.m)])
    g = two_lift(g, [-1 if i % 5 == 0 else 1 for i in range(g.m)])
    label = {v: i for i, v in enumerate(frontier_order(g))}
    return Graph(g.n, [(label[a], label[b]) for a, b in g.edges])


@pytest.mark.parametrize("name", ["cube", "petersen", "cover24"])
def test_charpoly_batch_exact_on_signing_engine_leaf_stacks(monkeypatch, name):
    g = _leaf_graph(name)
    stacks = []

    def recorded(mats):
        stacks.append(mats)
        return charpoly_batch_exact(mats)

    monkeypatch.setattr(graphs, "charpoly_batch_exact", recorded)
    engine = SigningEngine(g)
    rng = np.random.default_rng(83)
    for f in range(g.m + 1):
        engine.chars(rng.choice([-1, 1], f))
    assert stacks[0].shape[1:] == (0, 0)
    assert max(s.shape[1] for s in stacks) == g.n
    for stack in stacks:
        co = charpoly_batch_exact(stack)
        assert co.dtype == np.int64
        assert (charpoly_batch_exact(stack.astype(object)) == co).all()
        # Faddeev-LeVerrier, one matrix at a time, on both ends of the stack
        _assert_matches_oracles(stack, co, rows={0, len(stack) - 1})


def _signed_cubic(n, batch, rng):
    """Random signings of the cycle C_n with chords i ~ i + n // 2: cubic
    for even n, one vertex of degree two for odd n."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
    stack = np.zeros((batch, n, n), dtype=np.int64)
    for a, b in edges:
        stack[:, a, b] = stack[:, b, a] = rng.choice([-1, 1], batch)
    return stack


def test_charpoly_batch_exact_int64_bound_carries_the_factor_k():
    # chi(8 I_20) = (x - 8)^20: every coefficient fits in int64, but
    # Newton's identities form 20 c_20 = 20 * 2^60, which wraps, so the
    # stack must run on Python ints
    n = 20
    stack = 8 * np.eye(n, dtype=np.int64)[None]
    r2n = min(n * 8 ** 2 * n, 8 ** 2 * n)
    assert all(math.comb(n, k) ** 2 * r2n ** k < 2 ** 126 * n ** k for k in range(1, n + 1))
    assert n * 8 ** n >= 2 ** 63
    co = charpoly_batch_exact(stack)
    assert co.dtype == object
    assert list(co[0]) == [math.comb(n, j) * (-8) ** (n - j) for j in range(n + 1)]
    _assert_matches_oracles(stack, co)


@pytest.mark.parametrize("n", [42, 43, 44, 45, 46])
def test_charpoly_batch_exact_signed_cubic_past_40_vertices(n):
    # signed cubic stacks fit the bound with the factor k up to n = 42;
    # from 43 vertices they may run on Python ints, and must agree
    co = charpoly_batch_exact(stack := _signed_cubic(n, 2, np.random.default_rng(n)))
    if n == 42:
        assert co.dtype == np.int64
    elif n % 2 == 0:
        assert co.dtype == object
    assert (charpoly_batch_exact(stack.astype(object)) == co).all()
    _assert_matches_oracles(stack, co)


def test_charpoly_batch_exact_runs_each_matrix_in_the_dtype_its_bound_allows():
    # a 46-vertex signed cubic matrix fails the bound; with four vertices
    # zeroed it has 42 nonzero rows and at most 42 nonzero eigenvalues,
    # and passes.  In one stack each runs in its own dtype, and the
    # stack returns object.
    full = _signed_cubic(46, 1, np.random.default_rng(89))
    zeroed = full.copy()
    zeroed[:, :4, :] = zeroed[:, :, :4] = 0
    assert charpoly_batch_exact(full).dtype == object
    assert charpoly_batch_exact(zeroed).dtype == np.int64
    stack = np.concatenate([zeroed, full, zeroed[:, :, ::-1][:, ::-1]])
    co = charpoly_batch_exact(stack)
    assert co.dtype == object and all(type(c) is int for c in co.ravel())
    assert (co[0] == co[2]).all() and (co[0] == charpoly_batch_exact(zeroed)[0]).all()
    _assert_matches_oracles(stack, co, rows={0})
