"""Real symmetric matrices and characteristic polynomials.

``SymMatrix`` wraps a numpy array in one of two regimes: float64, or an
exact regime (integer dtype, or object dtype holding ints/Fractions).
Characteristic polynomials follow the convention ``det(xI - A)``, always
monic, lowest degree first.  There is one kernel per arithmetic, both
batched over a (B, n, n) stack: ``charpoly_batch_exact`` runs Berkowitz's
division-free recurrence on integers, each rational matrix cleared of its
denominators first, in int64 left to wrap when a bound proves that the
final coefficients fit and in Python ints otherwise, and
``charpoly_batch`` takes float64 eigenvalues (``eigvalsh``) and multiplies
them out with a vectorized Vieta recurrence.  ``char_poly`` is a one-row
call of the kernel that matches the matrix's regime.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .poly import Polynomial
from .tolerances import PSD_TOL, SYM_TOL

__all__ = ["SymMatrix", "char_poly", "charpoly_batch", "charpoly_batch_exact"]


def _coerce_array(a):
    arr = np.asarray(a)
    if arr.dtype == object or np.issubdtype(arr.dtype, np.integer):
        return np.array(arr, dtype=object)
    return np.array(arr, dtype=float)


class SymMatrix:
    """A real symmetric matrix.

    Exact entries (ints, Fractions) must be symmetric entry-for-entry.
    Float entries may deviate by up to ``SYM_TOL`` relative to the largest
    magnitude - products of symmetric factors routinely do - and are
    symmetrized to ``(A + A.T)/2`` on construction.
    """

    __slots__ = ("a",)

    def __init__(self, a):
        arr = _coerce_array(a)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.dtype == object:
            if not (arr == arr.T).all():
                raise ValueError("matrix is not symmetric")
        elif arr.size:
            scale = max(1.0, float(np.max(np.abs(arr))))
            if float(np.max(np.abs(arr - arr.T))) > SYM_TOL * scale:
                raise ValueError("matrix is not symmetric")
            arr = (arr + arr.T) / 2.0
        self.a = arr
        self.a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def is_exact(self) -> bool:
        return self.a.dtype == object

    @classmethod
    def zeros(cls, n: int, exact: bool = False) -> "SymMatrix":
        if exact:
            return cls(np.zeros((n, n), dtype=int))
        return cls(np.zeros((n, n)))

    @classmethod
    def identity(cls, n: int, exact: bool = False) -> "SymMatrix":
        if exact:
            return cls(np.eye(n, dtype=int))
        return cls(np.eye(n))

    @classmethod
    def outer(cls, v) -> "SymMatrix":
        """Rank-one matrix v v^T."""
        vec = np.asarray(v)
        if vec.dtype != object and not np.issubdtype(vec.dtype, np.floating):
            vec = np.array(vec, dtype=object)
        return cls(np.outer(vec, vec))

    def to_float(self) -> "SymMatrix":
        return SymMatrix(self.a.astype(float))

    def __add__(self, other):
        if isinstance(other, SymMatrix):
            return SymMatrix(self.a + other.a)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SymMatrix):
            return SymMatrix(self.a - other.a)
        return NotImplemented

    def __mul__(self, c):
        return SymMatrix(self.a * c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.a.shape == other.a.shape and bool((self.a == other.a).all())

    def __repr__(self):
        return f"SymMatrix({self.a.tolist()!r})"

    def trace(self):
        return self.a.trace()

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues ascending, computed in float64."""
        return np.linalg.eigvalsh(self.a.astype(float))

    def norm2(self) -> float:
        """Spectral norm."""
        if self.n == 0:
            return 0.0
        return float(np.max(np.abs(self.eigenvalues())))

    def is_psd(self) -> bool:
        """Positive semidefinite up to ``-PSD_TOL * max(1, trace)`` on the
        bottom eigenvalue."""
        if self.n == 0:
            return True
        w = self.eigenvalues()
        scale = max(1.0, abs(float(self.a.astype(float).trace())))
        return bool(w[0] >= -PSD_TOL * scale)


def char_poly(m: SymMatrix) -> Polynomial:
    """Monic characteristic polynomial ``det(xI - A)``.

    A one-matrix call of :func:`charpoly_batch_exact` for exact matrices
    (the result is exact) or of :func:`charpoly_batch` for float ones
    (the coefficients carry the usual O(n eps ||A||) error).
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    if m.n == 0:
        return Polynomial.one()
    kernel = charpoly_batch_exact if m.is_exact else charpoly_batch
    return Polynomial(kernel(m.a[None])[0])


def charpoly_batch(mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a (B, n, n) float stack.

    Returns coefficients lowest-first, shape (B, n+1), via batched
    ``eigvalsh`` followed by a vectorized Vieta recurrence.
    """
    mats = np.asarray(mats, dtype=float)
    b, n, _ = mats.shape
    w = np.linalg.eigvalsh(mats)
    # Build monic coefficients highest-degree-first by multiplying out
    # (x - w_j) across the batch, then flip to lowest-first.
    co = np.zeros((b, n + 1))
    co[:, 0] = 1.0
    for j in range(n):
        co[:, 1:j + 2] = co[:, 1:j + 2] - w[:, j:j + 1] * co[:, 0:j + 1]
    return co[:, ::-1].copy()


def charpoly_batch_exact(mats: np.ndarray) -> np.ndarray:
    """Exact characteristic polynomials of a (B, n, n) stack, lowest-first.

    Berkowitz's division-free recurrence, batched over the stack.  With
    ``v`` the characteristic polynomial of the leading i x i block A_i
    (highest degree first), the next block's is the full convolution of
    ``v`` with the Toeplitz column ``t = [1, -a, -R C, -R A_i C, ...,
    -R A_i^(i-1) C]``, truncated to length i + 2, where ``a``, ``R`` and
    ``C`` are the new diagonal entry, row and column.

    The recurrence runs on integers only.  An object stack (ints,
    Fractions) is cleared matrix by matrix: with q the lcm of A's entry
    denominators, chi(A)(x) = q^(-n) chi(qA)(qx), so the coefficient of
    x^j is that of qA divided by q^(n-j).  Only ring operations occur, so
    int64 arithmetic left to wrap modulo 2^64 is exact whenever the final
    coefficients fit (:func:`_fits_int64`); the stack then runs in int64,
    and in Python ints otherwise.  An integer-dtype stack returns int64
    or object; anything else is read as exact rationals and returns
    object.
    """
    mats = np.asarray(mats)
    b, n, _ = mats.shape
    if np.issubdtype(mats.dtype, np.integer):
        return _berkowitz(mats.astype(np.int64) if _fits_int64(mats) else mats.astype(object))
    scales, rows = [], []
    for entries in mats.reshape(b, n * n).tolist():
        q, ints = _cleared(entries)
        scales.append(q)
        rows.append(ints)
    ints = np.array(rows, dtype=object).reshape(b, n, n)
    co = _berkowitz(ints.astype(np.int64) if _fits_int64(ints) else ints).astype(object)
    for row, q in zip(co, scales):
        if q != 1:
            row[:] = [Fraction(c, q ** (n - j)) for j, c in enumerate(row.tolist())]
    return co


def _berkowitz(mats: np.ndarray) -> np.ndarray:
    """The recurrence of :func:`charpoly_batch_exact`, in the dtype of ``mats``."""
    b, n, _ = mats.shape
    v = np.ones((b, 1), dtype=mats.dtype)
    for i in range(n):
        a_i = mats[:, :i, :i]
        row = mats[:, i, :i]
        w = mats[:, :i, i]
        t = np.empty((b, i + 2), dtype=mats.dtype)
        t[:, 0] = 1
        t[:, 1] = -mats[:, i, i]
        for q in range(2, i + 2):
            if q > 2:
                w = np.matmul(a_i, w[:, :, None])[:, :, 0]
            t[:, q] = -(row * w).sum(axis=1)
        new = np.zeros((b, i + 2), dtype=mats.dtype)
        for j in range(i + 1):
            new[:, j:] += v[:, j:j + 1] * t[:, :i + 2 - j]
        v = new
    return v[:, ::-1].copy()


def _fits_int64(mats: np.ndarray) -> bool:
    """Whether every coefficient of every chi(A) in an integer stack lies in int64.

    With lambda the eigenvalues of A, |c_(n-k)| = |e_k(lambda)| <=
    e_k(|lambda|) <= C(n, k) r^k, where r is either bound on the mean of
    |lambda|: the largest absolute row sum N (Gershgorin), or ||A||_F /
    sqrt(n) (Maclaurin's inequality, the power mean and Schur's
    sum |lambda|^2 <= ||A||_F^2).  The test runs on squares in Python
    ints, n r^2 = min(n N^2, ||A||_F^2) taken over the stack.  Entries
    with n max|a| >= 2^31 go to Python ints untested, so that the row
    sums and squares below cannot overflow.  A signed adjacency stack of
    a cubic graph (N = 3, ||A||_F^2 = 3n) fits up to n = 45.
    """
    n = mats.shape[-1]
    top = max(int(mats.max(initial=0)), -int(mats.min(initial=0)))
    if n * top >= 2 ** 31:
        return False
    a = mats.astype(np.int64)
    rows = int(np.abs(a).sum(axis=-1).max(initial=0))
    frobenius = int(np.einsum("bij,bij->b", a, a).max(initial=0))
    r2n = min(n * rows * rows, frobenius)
    return all(math.comb(n, k) ** 2 * r2n ** k < 2 ** 126 * n ** k for k in range(1, n + 1))


def _cleared(entries: list) -> tuple:
    """(q, [q x for x in entries]): q is the lcm of the entries'
    denominators (ints, Fractions, other rationals), the rest plain ints."""
    if all(type(x) is int for x in entries):
        return 1, entries
    entries = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in entries]
    q = math.lcm(1, *(x.denominator for x in entries))
    return q, [x.numerator * (q // x.denominator) for x in entries]


def _validate_psd_list(matrices) -> list[SymMatrix]:
    """The inputs as PSD ``SymMatrix`` objects of one shared dimension."""
    mats = [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].n
    if any(m.n != d for m in mats):
        raise ValueError("matrices must share a dimension")
    for i, m in enumerate(mats):
        if not m.is_psd():
            raise ValueError(f"matrix {i} is not positive semidefinite")
    return mats
