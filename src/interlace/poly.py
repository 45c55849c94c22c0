"""Univariate polynomials with exact and floating-point root machinery.

Coefficients are stored lowest-degree first.  A polynomial whose
coefficients are all ``int`` or ``fractions.Fraction`` is *exact*: every
arithmetic operation on it is carried out in rational arithmetic and the
answer has no rounding error.  As soon as a ``float`` enters, the
polynomial silently becomes a float polynomial and all downstream work
happens in double precision.  The two regimes share one API; functions
dispatch on ``Polynomial.is_exact``.

Exact roots come from one kernel, ``root_clusters``, and exact input is
checked real-rooted by one checker.  The kernel is valid for exact
polynomials that are real-rooted, and does not test that: for them
Descartes' rule of signs is exact, so the sign changes of p(b + y), one
Taylor shift in integers, count the roots above b with multiplicity.  It
walks the roots from the top down, estimating each cluster in floats,
polishing the estimate by Newton steps with exact values, and
certifying a bracket of dyadic ends around it by two such counts.
``top_root`` is its first cluster and ``compare_top_roots`` orders two
top roots exactly.  Production paths whose polynomials are real-rooted
by theorem call the kernel directly.  Everything else goes through the
checker first: ``real_roots``, ``kth_largest_root`` and
``is_real_rooted`` certify exact input real-rooted with one Sturm
sequence and raise :class:`NotRealRootedError` (or answer no) when it
is not.

A float polynomial gets companion eigenvalues, accepted as real by an
imaginary-part tolerance (``IM_TOL``) or a backward-error rescue, then
Newton steps.  ``real_roots`` always returns floats.  ``shift_roots``
skips coefficients altogether: it applies the shift operator to batches
of real roots by bracketed secular-equation solves, so its output is
real-rooted by construction.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np
import numpy.polynomial.polynomial as npoly

__all__ = [
    "Polynomial",
    "ZeroPolynomialError",
    "NotRealRootedError",
    "apply_shift_operator",
    "shift_roots",
    "laguerre_transform",
    "diagram_identity_check",
    "sturm_sequence",
    "sturm_root_count",
    "is_real_rooted",
    "real_roots",
    "kth_largest_root",
    "TopRoot",
    "roots_above",
    "root_clusters",
    "top_root",
    "compare_top_roots",
    "interlaces",
    "have_common_interlacing",
]

# Relative tolerance used when comparing roots of float polynomials.
ROOT_TOL = 1e-7

# Companion eigenvalues of a real-rooted float polynomial leave the real
# axis through rounding: by about eps * cond at a simple root and by
# eps**(1/r) at an r-fold root (1.5e-8 for r = 2, 6e-6 for r = 3).
# Imaginary parts up to IM_TOL * (1 + |root|) pass as real, which covers
# simple and double roots; higher multiplicities fall to the
# backward-error rescue in ``_companion_roots``.
IM_TOL = 1e-6

_EPS = np.finfo(float).eps


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no degree and no roots."""


class NotRealRootedError(ValueError):
    """Raised when a real-rooted polynomial was required but not supplied."""


def _is_exact_scalar(c) -> bool:
    return isinstance(c, (int, np.integer, Fraction)) and not isinstance(c, bool)


def _normalize_scalar(c):
    """Map numpy scalars onto plain Python ints/floats; pass Fractions through."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (bool, np.bool_)):
        raise TypeError("boolean coefficients are not supported")
    if isinstance(c, (int, np.integer)):
        return int(c)
    if isinstance(c, (float, np.floating)):
        return float(c)
    if isinstance(c, numbers.Rational):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type: {type(c).__name__}")


class Polynomial:
    """Immutable univariate polynomial, coefficients lowest-degree first.

    ``Polynomial([2, 0, 1])`` is ``x**2 + 2``.  Trailing (highest-degree)
    zeros are stripped on construction, so ``coeffs[-1]`` is always nonzero
    for a nonzero polynomial.  The zero polynomial has ``coeffs == ()``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if isinstance(coeffs, Polynomial):
            cs = list(coeffs.coeffs)
        elif isinstance(coeffs, np.ndarray):
            cs = [_normalize_scalar(c) for c in coeffs.tolist()] if coeffs.dtype == object \
                else [_normalize_scalar(c) for c in coeffs]
        else:
            cs = [_normalize_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, lead=1) -> "Polynomial":
        """``lead * x**k``."""
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * k + (lead,))

    @classmethod
    def from_roots(cls, roots, lead=1) -> "Polynomial":
        """Monic-up-to-``lead`` polynomial with the given roots."""
        p = cls((lead,))
        for r in roots:
            p = p * cls((-_normalize_scalar(r), 1))
        return p

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return all(_is_exact_scalar(c) for c in self.coeffs)

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        c = _normalize_scalar(other)
        return Polynomial([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        lead = self.leading()
        if lead == 1:
            return self
        if self.is_exact:
            inv = Fraction(1) / Fraction(lead)
        else:
            inv = 1.0 / lead
        return Polynomial([c * inv for c in self.coeffs])

    def taylor_shift(self, c) -> "Polynomial":
        """Return ``p(x + c)``."""
        c = _normalize_scalar(c)
        cs = list(self.coeffs)
        n = len(cs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                cs[j] = cs[j] + c * cs[j + 1]
        return Polynomial(cs)

    def to_float(self) -> "Polynomial":
        return Polynomial([float(c) for c in self.coeffs])

    def allclose(self, other: "Polynomial", tol: float = 1e-9) -> bool:
        """Coefficientwise agreement, relative to the larger polynomial's size."""
        a = [float(c) for c in self.coeffs]
        b = [float(c) for c in other.coeffs]
        while len(a) < len(b):
            a.append(0.0)
        while len(b) < len(a):
            b.append(0.0)
        scale = max([1.0] + [abs(c) for c in a + b])
        return all(abs(x - y) <= tol * scale for x, y in zip(a, b))


# ----------------------------------------------------------------------
# Differential operators
# ----------------------------------------------------------------------


def apply_shift_operator(p: Polynomial, c) -> Polynomial:
    """Apply ``1 - c*d/dx`` to ``p``.

    For real-rooted ``p`` and ``c >= 0`` the result is again real-rooted
    (it is a nonnegative combination in the sense of polynomial
    convolution); for ``c < 0`` no such guarantee exists and the roots
    may leave the real axis.
    """
    if p.is_zero:
        return p
    c = _normalize_scalar(c)
    return p - c * p.derivative()


def shift_roots(roots, zeros: int, c):
    """Apply ``1 - c*d/dx`` in root space, batched over rows.

    Row b of ``roots`` (shape (B, d)) and ``zeros`` stand for the monic
    polynomial ``p_b = x**zeros * prod_i (x - roots[b, i])``.  Returns
    ``(out, zeros')`` with ``p_b - c p_b' = x**zeros' * prod_i (x - out[b, i])``,
    each row of ``out`` sorted descending: ``zeros' = zeros - 1`` and
    ``out`` has d + 1 columns when ``zeros > 0``, otherwise ``zeros' = 0``
    and d columns.  ``c = 0`` returns the input, sorted.

    A root of ``p - c p'`` solves ``p'/p = sum_j w_j / (x - mu_j) = 1/c``,
    where the poles ``mu_j`` (sorted descending) are the given roots with
    weight 1 and, if ``zeros > 0``, the origin with weight ``zeros``.
    The left side falls from +inf to -inf between neighbouring poles and
    from +inf to 0 above the top pole, so for ``c > 0`` there is exactly
    one root in each gap and one in ``(mu_0, mu_0 + W c]``, ``W = d + zeros``
    (there ``p'/p <= W/(x - mu_0)``): the result is real-rooted and
    interlaces the input by construction.  A root of multiplicity r keeps
    r - 1 copies in place, which is why a zero-width gap returns its pole.

    Each gap is solved by Gragg-style two-pole rational steps: the poles
    below the iterate are modelled by ``a + A/(x - lo)``, those above by
    ``a' + B/(x - hi)``, with A, B matched to the derivatives, and the
    model's one root in the gap is the next iterate.  A step that leaves
    the current sign-change bracket is replaced by its midpoint.  An entry
    stops once the residual is within the rounding error of evaluating the
    sum, or once the bracket holds no float between its ends.
    """
    roots = np.asarray(roots, dtype=float)
    if roots.ndim != 2:
        raise ValueError("roots must be a (B, d) array")
    if zeros < 0:
        raise ValueError("the zero multiplicity must be nonnegative")
    c = float(c)
    if c < 0:
        raise ValueError("the shift 1 - cD keeps real roots only for c >= 0")
    if c == 0:
        return -np.sort(-roots, axis=1), zeros
    nrows, d = roots.shape
    weights = np.ones((nrows, d + (zeros > 0)))
    poles = roots
    if zeros:
        poles = np.concatenate([roots, np.zeros((nrows, 1))], axis=1)
        weights[:, -1] = zeros
    order = np.argsort(-poles, axis=1, kind="stable")
    mu = np.take_along_axis(poles, order, axis=1)
    w = np.take_along_axis(weights, order, axis=1)
    npoles = mu.shape[1]
    if npoles == 0:
        return np.empty((nrows, 0)), 0
    inv_c = 1.0 / c
    eps = np.finfo(float).eps
    # Unknown i lives in (mu_i, mu_(i-1)); unknown 0 in (mu_0, mu_0 + W c].
    lo = mu
    hi = np.empty_like(mu)
    hi[:, 0] = mu[:, 0] + (d + zeros) * c
    hi[:, 1:] = mu[:, :-1]
    idx = np.arange(npoles)
    below = (idx[None, :] >= idx[:, None]).astype(float)  # [unknown, pole]
    above = 1.0 - below
    x = 0.5 * (lo + hi)
    x[:, 0] = hi[:, 0]
    active = (x > lo) & ((x < hi) | (idx == 0))
    x = np.where(active, x, lo)
    down, up = lo.copy(), hi.copy()
    out = x.copy()
    rows = np.flatnonzero(active.any(axis=1))
    lo, hi, mu, w = lo[rows], hi[rows], mu[rows], w[rows]
    x, down, up, active = x[rows], down[rows], up[rows], active[rows]
    # Scratch for the (rows, unknown, pole) terms; fresh arrays this size
    # cost more in page faults than the arithmetic on them.
    scratch = np.empty((2, rows.size, npoles, npoles))
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            # Finished entries ride along, masked out by ``active``.
            live_scratch = scratch[:, :rows.size]
            diff = np.subtract(x[:, :, None], mu[:, None, :], out=live_scratch[0])
            terms = np.divide(w[:, None, :], diff, out=live_scratch[1])
            dterms = np.divide(terms, diff, out=diff)
            phi = np.einsum("bij,ij->bi", terms, below)
            psi = np.einsum("bij,ij->bi", terms, above)
            g = phi + psi - inv_c
            # Rounding error of g: three roundings per term, one per sum.
            bound = (npoles + 3) * eps * (phi - psi + inv_c)
            down_next = np.where(g > 0, x, down)
            up_next = np.where(g > 0, up, x)
            # Two-pole model C + A/(y - lo) + B/(y - hi) = 1/c; B = 0 for
            # the top root, whose upper end is not a pole.
            dphi = np.einsum("bij,ij->bi", dterms, below)
            dpsi = np.einsum("bij,ij->bi", dterms, above)
            dlo = x - lo
            dhi = x - hi
            dhi[:, 0] = 1.0
            big_a = dphi * dlo * dlo
            big_b = dpsi * dhi * dhi
            t = inv_c - (phi - big_a / dlo) - (psi - big_b / dhi)
            # Its root in the gap is y = lo + u, 0 < u < h, where
            # t u^2 - lin u + A h = 0; the discriminant is written as a sum
            # of squares and each branch avoids cancellation.
            h = hi - lo
            lin = t * h + big_a + big_b
            sq = np.sqrt((t * h - big_a + big_b) ** 2 + 4.0 * big_a * big_b)
            u = np.where(lin > 0, 2.0 * big_a * h / (lin + sq),
                         (lin - sq) / (2.0 * t))
            y = lo + u
            mid = 0.5 * (down_next + up_next)
            active &= ~((np.abs(g) <= bound) | (y == x)
                        | (mid == down_next) | (mid == up_next))
            y = np.where((y > down_next) & (y < up_next), y, mid)
            x = np.where(active, y, x)
            down = np.where(active, down_next, down)
            up = np.where(active, up_next, up)
            live = active.any(axis=1)
            if not live.all():
                out[rows] = x
                rows, lo, hi, mu, w = rows[live], lo[live], hi[live], mu[live], w[live]
                x, down, up, active = x[live], down[live], up[live], active[live]
    return out, max(zeros - 1, 0)


def laguerre_transform(n: int, k: int) -> Polynomial:
    """Return ``(1 - d/dx)^n`` applied to ``x**k``, with exact integer coefficients."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    p = Polynomial.monomial(k)
    for _ in range(n):
        p = p - p.derivative()
    return p


def diagram_identity_check(n: int, k: int) -> bool:
    """Verify ``(1 - D)^k x^n == x^(n-k) * ((1 - D)^n x^k)`` exactly.

    Both sides are computed independently in integer arithmetic.
    Requires ``k <= n`` so the left side keeps degree ``n``.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    lhs = Polynomial.monomial(n)
    for _ in range(k):
        lhs = lhs - lhs.derivative()
    rhs = Polynomial.monomial(n - k) * laguerre_transform(n, k)
    return lhs == rhs


# ----------------------------------------------------------------------
# Sturm machinery
# ----------------------------------------------------------------------


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _pseudo_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """``(q, r)`` with c f = q g + r, deg r < deg g, for some integer c > 0.

    Pseudo-division in integers: each step scales the remainder by
    |lead g| before cancelling its leading term, so q and r are positive
    multiples of the true quotient and remainder.  r drops its
    high zeros; ``[]`` is the zero remainder.
    """
    scale, sign, dg = abs(g[-1]), (1 if g[-1] > 0 else -1), len(g) - 1
    q, r = [0] * max(len(f) - dg, 0), list(f)
    while len(r) > dg:
        c, shift = sign * r[-1], len(r) - 1 - dg
        q = [scale * x for x in q]
        q[shift] += c
        r = [scale * x for x in r]
        for i, y in enumerate(g):
            r[shift + i] -= c * y
        while r and not r[-1]:
            r.pop()
    return q, r


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Canonical Sturm sequence ``p, p', -rem(...), ...`` of exact ``p``.

    Each element is taken up to a positive factor, which leaves every
    sign count unchanged: the sequence runs in integers, each element
    primitive, each remainder a pseudo-remainder.  It ends at
    gcd(p, p'), up to a constant.  Sturm sequences are the checker of
    real-rootedness, and a float one certifies nothing, so float input
    raises ``TypeError``.
    """
    if p.is_zero:
        raise ZeroPolynomialError("Sturm sequence of the zero polynomial")
    if not p.is_exact:
        raise TypeError("Sturm sequences are taken of exact polynomials only")
    den = math.lcm(*(c.denominator for c in p.coeffs))
    seq = [_primitive([(c * den).numerator for c in p.coeffs])]
    if len(seq[0]) > 1:
        seq.append(_primitive([i * c for i, c in enumerate(seq[0])][1:]))
    while len(seq[-1]) > 1:
        r = _pseudo_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append([-c for c in _primitive(r)])
    return [Polynomial(q) for q in seq]


def _sign_changes(seq: list[Polynomial], x) -> int:
    signs = [v > 0 for v in (q(x) for q in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_root_count(p: Polynomial, a, b) -> int:
    """Number of distinct real roots of exact ``p`` in the half-open interval (a, b].

    Works without square-free reduction: the Sturm sequence terminates at
    g = gcd(p, p') and the sign-change count sees each root once
    regardless of multiplicity.  The endpoints are taken exactly, float
    ones too.  At a root of p the count equals the one just above it, so
    a root at b is counted and one at a is not; where g vanishes as well,
    the count is taken on the sequence divided by g, a Sturm sequence of
    the square-free part.
    """
    if p.is_zero:
        raise ZeroPolynomialError("root count of the zero polynomial")
    if a > b:
        raise ValueError("need a <= b")
    seq = sturm_sequence(p)
    g = list(seq[-1].coeffs)
    def changes(x):
        x = Fraction(x)
        if seq[-1](x) == 0:
            return _sign_changes([Polynomial(_pseudo_divmod(list(q.coeffs), g)[0])
                                  for q in seq], x)
        return _sign_changes(seq, x)
    return changes(a) - changes(b)


# ----------------------------------------------------------------------
# Real-rootedness and root extraction
# ----------------------------------------------------------------------


def _sturm_certifies_real_roots(p: Polynomial) -> bool:
    """Whether every root of exact, nonconstant ``p`` is real, by one Sturm sequence.

    The sequence ends at g = gcd(p, p'), so p has deg p - deg g distinct
    roots; every one of them is real exactly when that many lie in
    (-B, B] for the root bound B.
    """
    seq = sturm_sequence(p)
    bound = int(max(_root_bound(list(seq[0].coeffs)), 1))  # an integer, for speed
    distinct = p.degree - seq[-1].degree
    return _sign_changes(seq, -bound) - _sign_changes(seq, bound) == distinct


def _require_real_roots(p: Polynomial) -> None:
    if not _sturm_certifies_real_roots(p):
        raise NotRealRootedError(
            "complex root (a Sturm count falls short of the distinct roots)")


def is_real_rooted(p: Polynomial, tol: float = IM_TOL) -> bool:
    """Whether every complex root of ``p`` is real.

    Exact polynomials get an exact yes/no from one Sturm sequence: the
    number of distinct roots in (-B, B], for the root bound B, must be
    deg p - deg gcd(p, p').  Float polynomials use companion-matrix
    eigenvalues and accept imaginary parts up to ``tol * (1 + |root|)``,
    or failing that a backward-error test, so nearby conjugate pairs are
    treated as a real multiple root.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial is not classified")
    if p.degree == 0:
        return True
    if p.is_exact:
        return _sturm_certifies_real_roots(p)
    q, _ = _strip_zero_roots(p)
    return q.degree == 0 or _companion_roots(q, tol)[1]


def _companion_roots(q: Polynomial, tol: float) -> tuple[np.ndarray, bool]:
    """Companion eigenvalues of float ``q`` and whether they pass as real."""
    coeffs = np.array(q.to_float().coeffs, dtype=float)
    coeffs = coeffs / np.abs(coeffs).max()
    roots = npoly.polyroots(coeffs)
    if np.all(np.abs(roots.imag) <= tol * (1.0 + np.abs(roots))):
        return roots, True
    # Companion eigenvalues of an m-fold root scatter by about eps**(1/m)
    # into the complex plane, so the imaginary-part test alone rejects
    # honest multiple roots.  Rescue clause: project the roots onto the
    # real axis and accept if the reconstructed polynomial matches the
    # input coefficientwise within sqrt(tol); that is a backward-error
    # criterion, never applied to accept a pair the first test passed on.
    recon = npoly.polyfromroots(np.sort(roots.real))
    monic = coeffs / coeffs[-1]
    scale = max(1.0, float(np.max(np.abs(recon))), float(np.max(np.abs(monic))))
    return roots, bool(np.max(np.abs(recon - monic)) <= math.sqrt(tol) * scale)


def _strip_zero_roots(p: Polynomial) -> tuple[Polynomial, int]:
    """Split ``p = x**s q`` where the s lowest coefficients are exactly zero.

    Polynomials built by shift operators often carry an exact power of x;
    splitting it off keeps the companion matrix well conditioned and
    reports those roots as exact zeros.
    """
    s = 0
    while s < len(p.coeffs) and p.coeffs[s] == 0:
        s += 1
    return Polynomial(p.coeffs[s:]), s


def real_roots(p: Polynomial) -> np.ndarray:
    """All real roots of ``p`` with multiplicity, sorted descending, as floats.

    An exact polynomial is first certified real-rooted by one Sturm
    sequence (as in :func:`is_real_rooted`); its roots then come from
    :func:`root_clusters`, each within a few ulp and inside a bracket
    certified by exact counts.  A float polynomial has its exact zero
    roots split off, then gets its companion eigenvalues, accepted as
    real by the imaginary-part test or the backward-error rescue, then up
    to four Newton steps per root.  Raises :class:`NotRealRootedError` if
    a complex root is found.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has every number as a root")
    if p.degree == 0:
        return np.empty(0)
    if p.is_exact:
        _require_real_roots(p)
        return np.array([c.root for c in root_clusters(p) for _ in range(c.mult)])
    q, zeros = _strip_zero_roots(p)
    roots = []
    if q.degree > 0:
        eig, real = _companion_roots(q, IM_TOL)
        if not real:
            bad = eig[np.abs(eig.imag) > IM_TOL * (1.0 + np.abs(eig))]
            worst = bad[np.argmax(np.abs(bad.imag))]
            raise NotRealRootedError(
                f"complex root {worst:.6g} (imag part beyond tolerance)")
        roots = _newton_polish(q.to_float(), eig.real)
    return np.array(sorted([0.0] * zeros + roots, reverse=True), dtype=float)


def _newton_polish(qf: Polynomial, starts, steps: int = 4) -> list[float]:
    """Up to ``steps`` Newton steps on float ``qf`` from each start, ascending."""
    dq = qf.derivative()
    out = []
    for r in np.sort(starts):
        r = float(r)
        for _ in range(steps):
            fr = qf(r)
            dr = dq(r)
            if dr == 0:
                break
            nxt = r - fr / dr
            if not math.isfinite(nxt) or abs(qf(nxt)) >= abs(fr):
                break
            r = nxt
        out.append(r)
    return out


def kth_largest_root(p: Polynomial, k: int) -> float:
    """The k-th largest real root, 1-indexed with multiplicity.

    Exact ``p`` is certified real-rooted as in :func:`real_roots`, and
    its clusters are then taken from the top only until k roots are in
    hand.  Float ``p`` goes through :func:`real_roots`.
    """
    if not 1 <= k <= p.degree:
        raise ValueError(f"k={k} out of range for {p.degree} roots")
    if not p.is_exact:
        return float(real_roots(p)[k - 1])
    _require_real_roots(p)
    for cluster in root_clusters(p):
        k -= cluster.mult
        if k <= 0:
            return cluster.root


# ----------------------------------------------------------------------
# The exact root kernel, for real-rooted polynomials
# ----------------------------------------------------------------------


class TopRoot(NamedTuple):
    """One cluster of roots of a real-rooted polynomial, and its certificate.

    ``lo`` and ``hi`` are dyadic rationals.  Above ``hi`` lie only the
    roots of the clusters before this one (none, for the top cluster),
    and above ``lo`` lie exactly ``mult`` more, counted with
    multiplicity; the float ``root`` lies in (lo, hi] too.  ``mult`` is
    one root's multiplicity unless several roots share the bracket.
    """

    root: float
    mult: int
    lo: Fraction
    hi: Fraction


def _integer_coeffs(p: Polynomial) -> list[int]:
    """Coefficients of a positive integer multiple of ``p``, made to lead positive."""
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no roots to count")
    if not p.is_exact:
        raise TypeError("roots are certified for exact polynomials only")
    if p.degree == 0:
        raise ValueError("a nonzero constant has no roots")
    den = math.lcm(*(c.denominator for c in p.coeffs))
    a = [(c * den).numerator for c in p.coeffs]
    return a if a[-1] > 0 else [-c for c in a]


def _count_above(a: list[int], b: Fraction) -> int:
    """Roots above b of the real-rooted integer polynomial ``a``, with multiplicity.

    With b = m/d, the coefficients of d^n p((m + z)/d) come from one Taylor
    shift in integers; their sign changes count its positive roots
    (Descartes), exactly so since every root is real.
    """
    m, d = b.numerator, b.denominator
    n = len(a) - 1
    cs = [c * d ** (n - i) for i, c in enumerate(a)] if d != 1 else list(a)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            cs[j] += m * cs[j + 1]
    signs = [c > 0 for c in cs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def roots_above(p: Polynomial, b) -> int:
    """Roots of exact, real-rooted ``p`` above the rational ``b``, with multiplicity.

    Descartes' rule of signs on p(b + y).  The count is exact only when
    every root of ``p`` is real, which this does not check: call it on
    polynomials real-rooted by construction, or after :func:`is_real_rooted`.
    """
    return _count_above(_integer_coeffs(p), Fraction(b))


def _root_bound(a: list[int]) -> Fraction:
    """A power of two B with every root of ``a`` in (-B, B).

    Fujiwara's bound 2 max_k |a_(n-k)/a_n|^(1/k), doubled, with each
    |a_(n-k)/a_n| rounded up to a power of two through bit lengths, so it
    stays within a small factor of the largest root modulus.
    """
    n = len(a) - 1
    lead = a[-1].bit_length()
    exps = [-((lead - 1 - c.bit_length()) // (n - i))
            for i, c in enumerate(a[:-1]) if c]
    return Fraction(2) ** (2 + max(exps, default=0))


def _derivative_value(a: list[int], k: int, x: float) -> tuple[int, int]:
    """``(num, e)`` with the k-th derivative of ``a`` at x equal to num / 2^(e deg)."""
    m, den = x.as_integer_ratio()
    e = den.bit_length() - 1
    coeffs = [math.perm(i, k) * c for i, c in enumerate(a)][k:]
    acc = 0
    for j, c in enumerate(reversed(coeffs)):
        acc = acc * m + (c << (e * j))
    return acc, e


def _float_start(a: list[int]) -> float:
    """A float point at or just above the top root of real-rooted ``a``.

    Laguerre's method from above on a real-rooted polynomial falls
    monotonically to its top root, cubically at a simple one.  It starts
    at the Laguerre-Samuelson bound mean + sqrt((n - 1)/n) * spread, an
    upper bound on the roots of any real-rooted polynomial, and stops once
    p(x) is within the rounding error of its evaluation, before noise can
    carry it below the root.
    """
    n = len(a) - 1
    try:
        c = [x / a[-1] for x in a]
    except OverflowError:
        return math.nan
    mean = -c[-2] / n
    spread = (c[-2] * c[-2] - 2 * c[-3] - n * mean * mean) if n > 1 else 0.0
    x = mean + math.sqrt(max(spread, 0.0) * (n - 1) / n)
    x += 1e-9 * (1.0 + abs(x))
    for _ in range(100):
        f = df = ddf = size = 0.0
        for coef in reversed(c):
            ddf = ddf * x + 2 * df
            df = df * x + f
            f = f * x + coef
            size = size * abs(x) + abs(coef)
        if not (f > 2 * (n + 1) * size * _EPS and df > 0):
            break
        g = df / f
        h = g * g - ddf / f
        nxt = x - n / (g + math.sqrt(max((n - 1) * (n * h - g * g), 0.0)))
        if not nxt < x:
            break
        x = nxt
    return x


def _newton(a: list[int], x: float, k: int, steps: int = 4) -> tuple[float, list]:
    """Newton steps on the k-th derivative of ``a``, values exact at each float x.

    Returns the last iterate and the steps taken; stops early once a step
    no longer moves x.
    """
    taken = []
    for _ in range(steps):
        num, e = _derivative_value(a, k, x)
        den, _ = _derivative_value(a, k + 1, x)
        try:
            step = num / (den << e)
        except (ZeroDivisionError, OverflowError):
            break
        if x - step == x or not math.isfinite(x - step):
            break
        x -= step
        taken.append(step)
    return x, taken


def root_clusters(p: Polynomial) -> Iterator[TopRoot]:
    """The roots of exact ``p`` as clusters from the top down, each certified.

    ``p`` must be real-rooted, which is not checked: Descartes' rule of
    signs, which :func:`roots_above` applies, counts the roots above a
    point exactly only then.  Each :class:`TopRoot` comes with its
    bracket certified by two exact counts.  Exact zero roots are split
    off first and come as one cluster at 0.0 with the bracket (-g, g],
    g the reciprocal of the root bound of the reversed polynomial, so
    that no other root lies in it.

    The top cluster starts from float Laguerre steps from above
    (:func:`_float_start`); later ones from the companion eigenvalues of
    the float copy, computed once, when a second cluster is asked for.
    Each start is polished and certified by :func:`_polish`.
    """
    a = _integer_coeffs(p)
    zeros = next(i for i, c in enumerate(a) if c)
    a = a[zeros:]
    n = len(a) - 1
    bound = _root_bound(a)
    # the zero cluster comes once the positive roots are done
    positive = _count_above(a, Fraction(0)) if zeros else None
    hi, done, starts = bound, 0, None
    while True:
        if done == positive:
            gap = 1 / _root_bound(a[::-1])
            yield TopRoot(0.0, zeros, -gap, gap)
            hi = -gap
        if done == n:
            return
        if done == 0:
            x = _float_start(a)
        else:
            if starts is None:
                top = max(map(abs, a))
                starts = sorted(npoly.polyroots([c / top for c in a]).real.tolist(),
                                reverse=True)
            x = starts[done] if done < len(starts) else math.nan
        cluster = _polish(a, x, done, -bound, hi)
        yield cluster
        done += cluster.mult
        hi = cluster.lo


def _polish(a: list[int], x: float, done: int, lo: Fraction, hi: Fraction) -> TopRoot:
    """The next cluster of ``a`` below the ``done`` roots above ``hi``, from start x.

    Exact Newton steps on ``a``, with values exact at each float iterate,
    shrink by (r - 1)/r each at an r-fold root, which gives a guess of r;
    more of them on the (r-1)-th derivative, whose root there is simple,
    polish x to a float.  It is accepted once the roots above x + 2 ulp
    are just the ``done`` ones and more lie above x - 2 ulp.  Otherwise
    the counts taken narrow (lo, hi] for :func:`_bisect`.
    """
    if not math.isfinite(x):
        return _bisect(a, done, lo, hi)
    x, taken = _newton(a, x, 0)
    ratio = taken[-1] / taken[-2] if len(taken) > 1 else 0.0
    r = max(1, min(len(a) - 1, round(1.0 / (1.0 - ratio)))) if 0 < ratio < 1 else 1
    if r > 1:
        x = _newton(a, x, r - 1)[0]
    if not x <= hi:
        return _bisect(a, done, lo, hi)
    w = 2 * math.ulp(x)
    below, above = Fraction(x - w), min(Fraction(x + w), hi)
    if above < hi and _count_above(a, above) > done:
        return _bisect(a, done, above, hi)
    mult = _count_above(a, below) - done
    if mult:
        return TopRoot(x, mult, below, above)
    return _bisect(a, done, lo, below)


def _bisect(a: list[int], done: int, lo: Fraction, hi: Fraction) -> TopRoot:
    """Halve (lo, hi], with ``done`` roots above hi and more above lo, to adjacent floats.

    The stop is relative to the root, which is not 0 (zero roots are
    stripped beforehand): the bracket ends one ulp of the root wide.
    """
    while True:
        mid = Fraction(float((lo + hi) / 2))
        if not lo < mid < hi:
            return TopRoot(float(hi), _count_above(a, lo) - done, lo, hi)
        if _count_above(a, mid) > done:
            lo = mid
        else:
            hi = mid


def top_root(p: Polynomial) -> TopRoot:
    """The largest root of exact, real-rooted ``p``: the first of :func:`root_clusters`.

    Real-rootedness is not checked.  No value is returned without its
    bracket certified: no root lies above ``hi``, and ``mult`` lie above
    ``lo``.
    """
    return next(root_clusters(p))


def _drop_common_roots(a: list[int], b: list[int]) -> list[int]:
    """``a`` divided by every factor it shares with ``b``: roots(a) minus roots(b)."""
    while True:
        g, h = a, b     # Euclid, each remainder made primitive
        while h:
            g, h = h, _pseudo_divmod(g, h)[1]
            h = _primitive(h) if h else h
        if len(g) == 1:
            return a
        a = _primitive(_pseudo_divmod(a, g)[0])


def _refine(a: list[int], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Halve a bracket (lo, hi] of the top root of ``a``."""
    mid = (lo + hi) / 2
    return (mid, hi) if _count_above(a, mid) else (lo, mid)


def compare_top_roots(p: Polynomial, q: Polynomial,
                      tp: TopRoot | None = None, tq: TopRoot | None = None) -> int:
    """The sign of top(p) - top(q), exactly, for exact real-rooted ``p`` and ``q``.

    Disjoint brackets (from :func:`top_root`, or passed in) decide at once.
    Otherwise top(p) > top(q) exactly when p has a root above top(q), and
    such a root is not a root of q; so with v = p stripped of every factor
    shared with q, top(p) > top(q) iff v is not constant and top(v) >
    top(q).  Those two are distinct algebraic numbers, so halving both
    brackets by exact counts separates them.  The same with p and q
    swapped; if neither holds, the top roots are equal.
    """
    tp = tp or top_root(p)
    tq = tq or top_root(q)
    if tp.hi <= tq.lo:
        return -1
    if tq.hi <= tp.lo:
        return 1
    for sign, f, g, tg in ((1, p, q, tq), (-1, q, p, tp)):
        ag = _integer_coeffs(g)
        av = _drop_common_roots(_integer_coeffs(f), ag)
        if len(av) == 1:
            continue
        tv = top_root(Polynomial(av))
        vlo, vhi, glo, ghi = tv.lo, tv.hi, tg.lo, tg.hi
        while vlo < ghi and glo < vhi:
            vlo, vhi = _refine(av, vlo, vhi)
            glo, ghi = _refine(ag, glo, ghi)
        if vlo >= ghi:
            return sign
    return 0


# ----------------------------------------------------------------------
# Interlacing
# ----------------------------------------------------------------------


def interlaces(g: Polynomial, f: Polynomial, tol: float = ROOT_TOL) -> bool:
    """Whether ``g`` interlaces ``f``.

    With roots of f being a_1 >= ... >= a_n and roots of g being
    b_1 >= ... >= b_m, requires m in {n-1, n} and the alternating chain
    b_i <= a_i and a_(i+1) <= b_i, each inequality slackened by
    ``tol * (1 + |value|)``.  When m = n - 1 the smallest-root condition
    is vacuous.  Both polynomials must be real-rooted.
    """
    ra = real_roots(f)
    rb = real_roots(g)
    n, m = len(ra), len(rb)
    if m not in (n - 1, n) or n == 0:
        return False
    def leq(x, y):
        return x <= y + tol * (1.0 + max(abs(x), abs(y)))
    for i in range(m):
        if not leq(rb[i], ra[i]):
            return False
    for i in range(min(m, n - 1)):
        if not leq(ra[i + 1], rb[i]):
            return False
    return True


def have_common_interlacing(polys, tol: float = ROOT_TOL, grid: int = 11) -> bool:
    """Test whether a family of same-degree polynomials has a common interlacer.

    Two certificates are combined, both necessary, their conjunction the
    working criterion:

    * interval test: for each j, max over the family of the (j+1)-st
      largest root must not exceed the min of the j-th largest (within
      tolerance); a common interlacer can then be threaded through.
    * convex-combination test: every pairwise combination
      ``t*p + (1-t)*q`` on a ``grid``-point t-lattice in [0, 1] must be
      real-rooted, the computable surrogate for the equivalence between
      common interlacing and real-rootedness of all convex combinations.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("empty family")
    degs = {p.degree for p in polys}
    if len(degs) != 1:
        return False
    n = degs.pop()
    if n == 0:
        return True
    leads = [float(p.leading()) for p in polys]
    if not (all(l > 0 for l in leads) or all(l < 0 for l in leads)):
        return False
    allroots = [real_roots(p) for p in polys]
    for j in range(n - 1):
        upper = min(r[j] for r in allroots)
        lower = max(r[j + 1] for r in allroots)
        if lower > upper + tol * (1.0 + max(abs(lower), abs(upper))):
            return False
    exact = all(p.is_exact for p in polys)
    if exact:
        ts = [Fraction(i, grid - 1) for i in range(grid)]
    else:
        ts = [i / (grid - 1) for i in range(grid)]
        polys = [p.to_float() for p in polys]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            for t in ts:
                comb = t * polys[i] + (1 - t) * polys[j]
                if comb.is_zero or comb.degree < n:
                    continue
                if not is_real_rooted(comb):
                    return False
    return True
