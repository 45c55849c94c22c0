"""Barrier functions and soft spectral edges for real-rooted polynomials.

For a real-rooted ``f`` with roots ``l_1 >= ... >= l_n``:

* lower barrier   ``Phi_f(b)  = -f'(b)/f(b) = sum 1/(l_i - b)``  for b below all roots,
* upper barrier   ``Phi^f(b)  =  f'(b)/f(b) = sum 1/(b - l_i)``  for b above all roots.

Both are positive, monotone, and convex on their side.  The soft edges
``smin_phi`` / ``smax_phi`` are the unique points where the barrier
equals ``phi``; they bracket the extreme roots and tighten onto them as
``phi -> inf``.  The shift checks validate how the operator ``1 - d/dx``
moves these soft edges: the lower edge advances by at least
``1/(1+phi)`` and the upper edge by at most ``1/(1-phi)`` (the latter
needs ``phi < 1``).

All of it works on the roots of ``f``: ``root_clusters``' for exact
``f``, which must be real-rooted, and ``real_roots``' for float ``f``.
The barriers are sums over the roots, ``smax_phi`` is the top root of
``f - f'/phi`` from one ``shift_chain`` step, ``smin_phi(f) =
-smax_phi(f(-x))``, and the shift checks take the roots of ``(1 - D) f``
from one step too.

``multivariate_barrier`` is the several-variables analogue for
``f = det(xI + sum z_i A_i)``: the logarithmic derivative in ``z_j``,
computed as ``trace(M^{-1} A_j)`` at a point where ``M`` is positive
definite; it is the tool behind the (1 + sqrt(eps))^2 root bound of
``paper.mixed_char_root_bound`` (MSS, Interlacing Families II).

No command runs any of it, so it lives beside ``tests/paper.py``; the
acceptance suite's first two criteria and ``tests/test_barrier.py``
check it.
"""

import numpy as np

from interlace import Polynomial, real_roots, root_clusters, shift_chain
from interlace.tolerances import SHIFT_TOL
from fixtures import psd_list


class DetPolyFamily:
    """A list of PSD matrices of one dimension, defining det(xI + sum z_i A_i)."""

    def __init__(self, matrices):
        self.matrices = psd_list(matrices)
        self.dimension = self.matrices[0].n

    @property
    def m(self) -> int:
        return len(self.matrices)


def _roots(p: Polynomial) -> np.ndarray:
    """The roots of ``p``, descending: ``root_clusters``' for exact ``p``,
    ``real_roots``' for float ``p``."""
    if p.degree == 0:
        raise ValueError("constant polynomial has no barrier")
    if p.is_exact:
        return np.array([c.root for c in root_clusters(p) for _ in range(c.mult)])
    return real_roots(p)


def lower_barrier(p: Polynomial, b) -> float:
    """``-p'(b)/p(b) = sum_i 1/(l_i - b)`` for ``b`` strictly below every root of ``p``."""
    roots = _roots(p)
    if not float(b) < roots[-1]:
        raise ValueError(f"b={b} is not strictly below the smallest root {roots[-1]}")
    return float(np.sum(1.0 / (roots - float(b))))


def upper_barrier(p: Polynomial, b) -> float:
    """``p'(b)/p(b) = sum_i 1/(b - l_i)`` for ``b`` strictly above every root of ``p``."""
    roots = _roots(p)
    if not float(b) > roots[0]:
        raise ValueError(f"b={b} is not strictly above the largest root {roots[0]}")
    return float(np.sum(1.0 / (float(b) - roots)))


def _phi(phi) -> float:
    phi = float(phi)
    if phi <= 0:
        raise ValueError("phi must be positive")
    return phi


def _edge(roots: np.ndarray, phi: float) -> float:
    """The soft upper edge of the polynomial with these roots: the top root of p - p'/phi."""
    return float(shift_chain(roots[None, :], 0, 1.0 / phi, 1)[0][0, 0])


def smin(p: Polynomial, phi) -> float:
    """Soft lower edge: the unique ``b < lambda_min`` with lower barrier == phi,
    ``-smax(p(-x), phi)``."""
    return -_edge(-_roots(p), _phi(phi))


def smax(p: Polynomial, phi) -> float:
    """Soft upper edge: the unique ``b > lambda_max`` with upper barrier == phi,
    the top root of ``p - p'/phi``."""
    return _edge(_roots(p), _phi(phi))


def lower_shift_check(p: Polynomial, phi) -> bool:
    """Whether ``smin_phi((1-D)p) >= smin_phi(p) + 1/(1+phi) - SHIFT_TOL``.

    This is the quantitative content of the lower soft edge moving right
    under ``1 - d/dx``; it holds for every real-rooted ``p`` and phi > 0.
    """
    phi = _phi(phi)
    roots = _roots(p)
    shifted = shift_chain(roots[None, :], 0, 1.0, 1)[0][0]  # the roots of (1 - D) p
    return -_edge(-shifted, phi) >= -_edge(-roots, phi) + 1.0 / (1.0 + phi) - SHIFT_TOL


def upper_shift_check(p: Polynomial, phi) -> bool:
    """Whether ``smax_phi((1-D)p) <= smax_phi(p) + 1/(1-phi) + SHIFT_TOL``.

    Requires ``0 < phi < 1``; at phi >= 1 the bound degenerates.
    """
    phi = float(phi)
    if not 0 < phi < 1:
        raise ValueError("phi must lie in (0, 1)")
    roots = _roots(p)
    shifted = shift_chain(roots[None, :], 0, 1.0, 1)[0][0]  # the roots of (1 - D) p
    return _edge(shifted, phi) <= _edge(roots, phi) + 1.0 / (1.0 - phi) + SHIFT_TOL


def laguerre_root_bounds(n: int, k: int) -> tuple[float, float]:
    """Two-sided bound ``[n(1-sqrt(k/n))^2, n(1+sqrt(k/n))^2]`` for roots of (1-D)^n x^k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    s = np.sqrt(k / n)
    return (float(n * (1.0 - s) ** 2), float(n * (1.0 + s) ** 2))


def multivariate_barrier(fam: DetPolyFamily, j: int, point) -> float:
    """Logarithmic derivative of det(xI + sum z_i A_i) in direction z_j.

    ``point`` is ``(x, z_1, ..., z_m)``.  Requires ``M = xI + sum z_i A_i``
    positive definite at the point (i.e. the point lies above the roots
    in the positive orthant sense); then the derivative is
    ``trace(M^{-1} A_j)``, by Jacobi's formula.  The Cholesky factor
    ``M = L L^T`` both checks positive definiteness (a point where it
    fails raises ``ValueError``) and gives the trace through two solves
    with the factor, ``M^{-1} A_j = L^{-T} (L^{-1} A_j)``.
    """
    point = [float(t) for t in point]
    if len(point) != fam.m + 1:
        raise ValueError(f"point must have {fam.m + 1} coordinates (x first)")
    if not 0 <= j < fam.m:
        raise ValueError(f"j={j} out of range for a family of {fam.m} matrices")
    d = fam.dimension
    m_at = point[0] * np.eye(d)
    for z, a in zip(point[1:], fam.matrices):
        m_at = m_at + z * a.a.astype(float)
    try:
        low = np.linalg.cholesky(m_at)
    except np.linalg.LinAlgError as e:
        raise ValueError("matrix at query point is not positive definite") from e
    aj = fam.matrices[j].a.astype(float)
    return float(np.trace(np.linalg.solve(low.T, np.linalg.solve(low, aj))))
