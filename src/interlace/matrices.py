"""Real symmetric matrices and characteristic polynomials.

``SymMatrix`` wraps a numpy array in one of two regimes: float64, or an
exact regime, an object array holding ints and Fractions, to which an
integer array is converted.
Characteristic polynomials follow the convention ``det(xI - A)``, always
monic, lowest degree first.  There is one kernel per arithmetic, both
batched over a (B, n, n) stack.  ``charpoly_batch_exact`` takes the
power traces tr A^k from O(sqrt n) batched matrix products and solves
Newton's identities for the coefficients, on integers, each rational
matrix cleared of its denominators first; it runs in int64, left to
wrap, on each matrix for which a bound proves that k times its k-th
coefficient fits, and in Python ints on the others.  ``charpoly_batch``
takes float64 eigenvalues (``eigvalsh``) and multiplies them out with a
vectorized Vieta recurrence, ``_vieta``, which also serves callers that
hold the eigenvalues already.  ``char_poly`` is a one-row call of the
kernel that matches the matrix's regime.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .poly import Polynomial
from .tolerances import SYM_TOL

__all__ = ["SymMatrix", "char_poly", "charpoly_batch", "charpoly_batch_exact"]


def _coerce_array(a):
    arr = np.asarray(a)
    if arr.dtype == object or np.issubdtype(arr.dtype, np.integer):
        return np.array(arr, dtype=object)
    return np.array(arr, dtype=float)


def _refuse_nonfinite(arr: np.ndarray, what: str) -> None:
    """ValueError naming the first non-finite float entry of an array,
    "<what> <index> is <value>, not finite": any entry of a float array,
    and a float among the ints and Fractions of an exact (object) one."""
    if arr.dtype == object:
        bad = [i for i, x in enumerate(arr.ravel().tolist())
               if isinstance(x, float) and not math.isfinite(x)]
    else:
        bad = np.flatnonzero(~np.isfinite(arr))
    if len(bad):
        at = tuple(int(i) for i in np.unravel_index(bad[0], arr.shape))
        raise ValueError(f"{what} {at[0] if len(at) == 1 else at} is {arr[at]}, not finite")


class SymMatrix:
    """A real symmetric matrix.

    Exact entries (ints, Fractions) must be symmetric entry-for-entry.
    Float entries must be finite, which is checked before any arithmetic
    (ValueError naming the first that is not).  They may deviate by up
    to ``SYM_TOL`` relative to the largest magnitude - products of
    symmetric factors routinely do - and are symmetrized to
    ``A/2 + (A/2).T`` on construction; both the test and the sum take the
    halves, so that entries near the top of the float range cannot
    overflow.
    """

    __slots__ = ("a",)

    def __init__(self, a):
        arr = _coerce_array(a)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        _refuse_nonfinite(arr, "matrix entry")
        if arr.dtype == object:
            if not (arr == arr.T).all():
                raise ValueError("matrix is not symmetric")
        elif arr.size:
            scale = max(1.0, float(np.max(np.abs(arr))))
            half = arr / 2.0
            if float(np.max(np.abs(half - half.T))) > SYM_TOL * scale / 2.0:
                raise ValueError("matrix is not symmetric")
            arr = half + half.T
        self.a = arr
        self.a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def is_exact(self) -> bool:
        return self.a.dtype == object

    @classmethod
    def identity(cls, n: int, exact: bool = False) -> "SymMatrix":
        if exact:
            return cls(np.eye(n, dtype=int))
        return cls(np.eye(n))

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


def char_poly(m: SymMatrix) -> Polynomial:
    """Monic characteristic polynomial ``det(xI - A)``.

    A one-matrix call of :func:`charpoly_batch_exact` for exact matrices
    (the result is exact) or of :func:`charpoly_batch` for float ones
    (the coefficients carry the usual O(n eps ||A||) error).
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    if m.n == 0:
        return Polynomial((1,))
    kernel = charpoly_batch_exact if m.is_exact else charpoly_batch
    return Polynomial(kernel(m.a[None])[0])


def charpoly_batch(mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a (B, n, n) float stack.

    Returns coefficients lowest-first, shape (B, n+1), via batched
    ``eigvalsh`` followed by a vectorized Vieta recurrence.
    """
    return _vieta(np.linalg.eigvalsh(np.asarray(mats, dtype=float)))


def _vieta(w: np.ndarray) -> np.ndarray:
    """Monic coefficients, lowest-first, of prod_j (x - w_j) for each row
    of a (B, n) float stack of roots."""
    b, n = w.shape
    # Build monic coefficients highest-degree-first by multiplying out
    # (x - w_j) across the batch, then flip to lowest-first.
    co = np.zeros((b, n + 1))
    co[:, 0] = 1.0
    for j in range(n):
        co[:, 1:j + 2] = co[:, 1:j + 2] - w[:, j:j + 1] * co[:, 0:j + 1]
    return co[:, ::-1].copy()


def charpoly_batch_exact(mats: np.ndarray) -> np.ndarray:
    """Exact characteristic polynomials of a (B, n, n) stack, lowest-first.

    Le Verrier's method with the products of Paterson and Stockmeyer,
    batched over the stack.  With s = ceil(sqrt n), the baby steps A^1 ..
    A^s and the giant steps I, A^s, A^(2s), ... cost about 2 sqrt(n)
    matrix products, and every power sum p_k = tr A^k, k <= n, is the
    trace of one giant step times one baby step, read by one batched
    einsum per giant step.
    Newton's identities then give the coefficients c_k of x^(n-k):
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1), with one exact
    division by k each.

    The kernel runs on integers only.  An object stack (ints,
    Fractions) is cleared matrix by matrix: with q the lcm of A's entry
    denominators, chi(A)(x) = q^(-n) chi(qA)(qx), so the coefficient of
    x^j is that of qA divided by q^(n-j).  Every step before the division
    by k is a ring operation, so int64 arithmetic left to wrap modulo 2^64
    yields k c_k modulo 2^64, which is k c_k itself whenever |k c_k| <
    2^63 (:func:`_fits_int64`); the matrices for which that is proven
    run in int64, the others in Python ints.  An integer-dtype stack
    returns int64 if all of it ran in int64 and object otherwise;
    anything else is read as exact rationals and returns object.
    """
    mats = np.asarray(mats)
    b, n, _ = mats.shape
    if np.issubdtype(mats.dtype, np.integer):
        return _integer_charpolys(mats)
    scales, rows = [], []
    for entries in mats.reshape(b, n * n).tolist():
        q, ints = _cleared(entries)
        scales.append(q)
        rows.append(ints)
    co = _integer_charpolys(np.array(rows, dtype=object).reshape(b, n, n)).astype(object)
    for row, q in zip(co, scales):
        if q != 1:
            row[:] = [Fraction(c, q ** (n - j)) for j, c in enumerate(row.tolist())]
    return co


def _integer_charpolys(mats: np.ndarray) -> np.ndarray:
    """The kernel on an integer stack: in int64 on the matrices that
    :func:`_fits_int64` passes, in Python ints on the others; int64 if
    all pass, object otherwise."""
    fit = _fits_int64(mats)
    if fit.all():
        return _newton_traces(mats.astype(np.int64))
    co = np.empty((len(mats), mats.shape[-1] + 1), dtype=object)
    for part, dtype in ((fit, np.int64), (~fit, object)):
        if part.any():
            co[part] = _newton_traces(mats[part].astype(dtype))
    return co


def _newton_traces(mats: np.ndarray) -> np.ndarray:
    """The kernel of :func:`charpoly_batch_exact`, in the dtype of ``mats``."""
    b, n, _ = mats.shape
    c = np.zeros((b, n + 1), dtype=mats.dtype)
    c[:, 0] = 1
    if n == 0:
        return c
    s = math.isqrt(n - 1) + 1
    baby = np.empty((b, s, n, n), dtype=mats.dtype)
    baby[:, 0] = mats
    for j in range(1, s):
        baby[:, j] = np.matmul(baby[:, j - 1], mats)
    # p[:, g s + j] = tr(A^(g s) A^(j + 1)) = p_(g s + j + 1); each giant
    # step is formed, read and dropped in turn
    p = [np.trace(baby, axis1=2, axis2=3)]
    giant = baby[:, -1]
    for g in range(1, -(-n // s)):
        if g > 1:
            giant = np.matmul(giant, baby[:, -1])
        p.append(np.einsum("bij,bhji->bh", giant, baby))
    p = np.concatenate(p, axis=1)
    for k in range(1, n + 1):
        # k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1)
        c[:, k] = -(c[:, :k] * p[:, k - 1::-1]).sum(axis=1) // k
    return c[:, ::-1].copy()


def _fits_int64(mats: np.ndarray) -> np.ndarray:
    """Per matrix of an integer stack, whether k c_k lies in int64 for
    every coefficient c_k of x^(n-k) of its chi(A).

    Newton's identities yield k c_k before their division by k, so that
    product, not c_k alone, must fit.  With lambda the eigenvalues of A,
    of which at most n' are nonzero, n' the number of nonzero rows,
    |c_k| = |e_k(lambda)| <= C(n', k) r^k, where r is either bound on
    the mean of |lambda| over n' of them: the largest absolute row sum N
    (Gershgorin), or ||A||_F / sqrt(n') (Maclaurin's inequality, the
    power mean and Schur's sum |lambda|^2 <= ||A||_F^2).  The test runs
    on squares in Python ints, k^2 C(n', k)^2 (n' r^2)^k < 2^126 n'^k
    with n' r^2 = min(n' N^2, ||A||_F^2), once for the whole stack with
    n' = n and the largest N and ||A||_F, and only if that fails matrix
    by matrix.  Stacks with n max|a| >= 2^31 go to Python ints untested,
    so that the row sums and squares below cannot overflow.  A signed
    adjacency matrix of a cubic graph (N = 3, ||A||_F^2 = 3n) fits up to
    n = 42, and with rows zeroed out, up to 42 nonzero rows.
    """
    b, n = len(mats), mats.shape[-1]
    top = max(int(mats.max(initial=0)), -int(mats.min(initial=0)))
    if n * top >= 2 ** 31:
        return np.zeros(b, dtype=bool)
    a = mats.astype(np.int64)
    rows = np.abs(a).sum(axis=-1).max(axis=-1, initial=0).tolist()
    frobenius = np.einsum("bij,bij->b", a, a).tolist()
    if _bound_holds(n, min(n * max(rows, default=0) ** 2, max(frobenius, default=0))):
        return np.ones(b, dtype=bool)
    live = (a != 0).any(axis=-1).sum(axis=-1).tolist()
    return np.array([_bound_holds(m, min(m * r * r, f))
                     for m, r, f in zip(live, rows, frobenius)], dtype=bool)


@functools.lru_cache(maxsize=1024)
def _bound_holds(n: int, r2n: int) -> bool:
    """k^2 C(n, k)^2 r2n^k < 2^126 n^k for k = 1..n: see :func:`_fits_int64`."""
    return all(k * k * math.comb(n, k) ** 2 * r2n ** k < 2 ** 126 * n ** k
               for k in range(1, n + 1))


def _cleared(entries: list) -> tuple:
    """(q, [q x for x in entries]): q is the lcm of the entries'
    denominators (ints, Fractions, other rationals), the rest plain ints."""
    if all(type(x) is int for x in entries):
        return 1, entries
    entries = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in entries]
    q = math.lcm(1, *(x.denominator for x in entries))
    return q, [x.numerator * (q // x.denominator) for x in entries]


def _validate_matrix_list(matrices) -> list[SymMatrix]:
    """The inputs as ``SymMatrix`` objects of one shared dimension."""
    mats = [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].n
    if any(m.n != d for m in mats):
        raise ValueError("matrices must share a dimension")
    return mats
