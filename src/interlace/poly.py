"""Univariate polynomials with exact and floating-point root machinery.

Coefficients are stored lowest-degree first.  A polynomial whose
coefficients are all ``int`` or ``fractions.Fraction`` is *exact*: every
arithmetic operation on it is carried out in rational arithmetic and the
answer has no rounding error.  As soon as a ``float`` enters, the
polynomial silently becomes a float polynomial and all downstream work
happens in double precision.  The two regimes share one API; functions
dispatch on ``Polynomial.is_exact``.

Each arithmetic has one root entry point.  Exact roots come from one
kernel, ``root_clusters``, valid for exact polynomials that are
real-rooted, which it does not test: for them Descartes' rule of signs
is exact, so the sign changes of p(b + y), one Taylor shift in
integers, count the roots above b with multiplicity.  It walks the
roots from the top down, estimating each cluster in floats, polishing
the estimate by Newton steps with exact values, and certifying a
bracket of dyadic ends around it by two such counts.  ``_squarefree``
keeps each distinct root once, to tell a tie of two roots from two
close ones.  Every command's exact polynomials are real-rooted by
theorem and go to the kernel directly.
The Sturm checker of real-rootedness, with the tests' interlacing and
Sturm-count checks, which no command runs, lives in ``tests/paper.py``.

Float polynomials take ``real_roots``, real-rooted by construction:
the derivative chain solved from the linear end up, each level's roots
cutting the next level's sign-change brackets, a missing sign change a
multiple root up to ``tolerances.BACKWARD_TOL`` and beyond it
:class:`NotRealRootedError`.  It refuses exact input.  A
float walk polynomial, real-rooted by theorem, whose top root alone is
ranked (the float ``weaver`` children) takes ``float_top_root``
instead: Laguerre's method from above the Laguerre-Samuelson bound.  It
stops within its evaluation's rounding of the root and raises
:class:`NotRealRootedError` where the loop breaks down, which no
real-rooted polynomial makes it do.  One Laguerre loop does all three
float jobs: it starts every cluster of the exact kernel, roots weaver's
children, and opens every bracket of the derivative chain.  One Newton
polish, with values exact at each float iterate, finishes the roots of
both the exact kernel and the chain.
``shift_chain`` skips coefficients altogether: it applies a power of
the shift operator to batches of real roots, one bracketed
secular-equation solve per factor, so its output is real-rooted by
construction.  Up to ``EIG_START_POLES`` (40) poles a row, the solves
start from the eigenvalues of the diagonal-plus-rank-one matrix whose
characteristic polynomial the shift produces, and most stop there;
above that the eigenvalues cost more than the steps they save.  A chain
checks its arguments once and keeps its buffers, so j shifts cost one
call.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .tolerances import BACKWARD_TOL, LAGUERRE_TOL, START_OFFSET

__all__ = [
    "Polynomial",
    "ZeroPolynomialError",
    "NotRealRootedError",
    "shift_chain",
    "real_roots",
    "float_top_root",
    "TopRoot",
    "roots_above",
    "root_clusters",
]

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
                return Polynomial(())
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


# ----------------------------------------------------------------------
# Differential operators
# ----------------------------------------------------------------------


# The most poles a row may have for the shift to start from eigenvalues
# (see shift_chain).  The cut is the measured crossover: on the 8-row
# steps of a float ri walk at n = 128, a started step took 0.7-0.85x the
# time of an unstarted one at 22-32 poles, 0.94-1.0x at 33-39, 1.04x at
# 40-45 and 1.05-1.2x from 46 poles up (2-vCPU x86 host, numpy with
# OpenBLAS).
EIG_START_POLES = 40


def shift_chain(roots, zeros: int, c, steps: int):
    """Apply ``(1 - c*d/dx)**steps`` in root space, batched over rows.

    Row b of ``roots`` (shape (B, d)) and ``zeros`` stand for the monic
    polynomial ``p_b = x**zeros * prod_i (x - roots[b, i])``.  Returns
    ``(out, zeros')`` with ``(1 - c D)**steps p_b = x**zeros' * prod_i (x -
    out[b, i])``, each row of ``out`` sorted descending.  One step takes
    ``zeros`` to ``zeros - 1`` and adds a column while ``zeros > 0``, and
    otherwise keeps both.  ``c = 0`` returns the input, sorted, and
    ``steps = 0`` the input as it is.

    A root of one step's ``p - c p'`` solves ``p'/p = sum_j w_j / (x -
    mu_j) = 1/c``, where the poles ``mu_j`` (sorted descending) are the
    given roots with weight 1 and, if ``zeros > 0``, the origin with
    weight ``zeros``.  The left side falls from +inf to -inf between
    neighbouring poles and from +inf to 0 above the top pole, so for
    ``c > 0`` there is exactly one root in each gap and one in ``(mu_0,
    mu_0 + W c]``, ``W = d + zeros`` (there ``p'/p <= W/(x - mu_0)``): the
    result is real-rooted and interlaces the input by construction.  A
    root of multiplicity r keeps r - 1 copies in place, which is why a
    zero-width gap returns its pole.

    With s_j = sqrt(w_j), ``p - c p'`` is ``x**zeros'`` times the
    characteristic polynomial of diag(mu) + c s s^T, the secular equation
    of a rank-one update (Golub 1973; Bunch, Nielsen and Sorensen 1978).
    So one batched ``eigvalsh`` of that stack starts every unknown within
    about eps |M| of its root.  An eigenvalue outside its unknown's open
    bracket (an empty gap, or rounding) is not used: that unknown starts
    from the bracket's midpoint, the top one from its upper end.  The
    eigenvalues cost O(npoles^3) a row against O(npoles^2) a step, so
    above ``EIG_START_POLES`` (40) poles, where they cost more than the
    steps they save, every unknown starts from there.

    Each solver pass evaluates the pole sums at every unknown and stops
    one once its residual is within the rounding error of the sum, or its
    sign-change bracket holds no float inside; only while some unknown is
    left does it form the update, a two-pole step (:func:`_two_pole_root`)
    or the bracket's midpoint.  The brackets and the stop do not depend on
    the start, so the output is real-rooted and interlacing whichever
    start an unknown took.  A started step takes about two passes, the
    second forming no update, and one from gap midpoints about seven.  The
    chain keeps its poles, weights, iterates and scratch in buffers sized
    once, and past the first step sorts the poles only when a negative
    root puts the zero pole among them: bit for bit as many one-step calls.
    """
    roots = np.asarray(roots, dtype=float)
    if roots.ndim != 2:
        raise ValueError("roots must be a (B, d) array")
    if zeros < 0:
        raise ValueError("the zero multiplicity must be nonnegative")
    if steps < 0:
        raise ValueError("the number of shifts must be nonnegative")
    c = float(c)
    if c < 0:
        raise ValueError("the shift 1 - cD keeps real roots only for c >= 0")
    if steps == 0:
        return roots, zeros
    nrows, d = roots.shape
    if c == 0 or not d + zeros:
        return -np.sort(-roots, axis=1), zeros
    width = d + min(zeros, steps)  # the last step's poles, the output's columns
    # Column 0 of the poles holds the upper end of the top root's bracket.
    poles, iterate = np.empty((2, nrows, width + 1))
    weights = np.empty((nrows, width))
    # the (rows, unknown, pole) terms; fresh arrays cost more in page faults
    scratch = np.empty(2 * nrows * width * width)
    poles[:, 1:d + 1] = roots
    for step in range(steps):
        npoles = d + (zeros > 0)
        mu, w = poles[:, 1:npoles + 1], weights[:, :npoles]
        w.fill(1.0)
        if zeros:
            mu[:, d] = 0.0
            w[:, d] = zeros
        # Past the first step each row is sorted descending, so a zero
        # pole below every root already sits where a stable sort puts it.
        if step == 0 or (zeros and not (mu[:, d - 1] >= 0).all()):
            order = np.argsort(-mu, axis=1, kind="stable")
            mu[:] = np.take_along_axis(mu, order, axis=1)
            w[:] = np.take_along_axis(w, order, axis=1)
        _secular_step(poles[:, :npoles + 1], w, c, (d + zeros) * c,
                      iterate[:, 1:npoles + 1], scratch)
        poles, iterate = iterate, poles
        d, zeros = npoles, max(zeros - 1, 0)
    return poles[:, 1:].copy(), zeros


# _pole_masks of up to EIG_START_POLES poles, built once.  Past that a
# step's arithmetic dwarfs building them, and keeping every size up to P
# would hold about 16 P^3 / 3 bytes, 11 MB at the 128 poles of n = 256.
_SMALL_MASKS: dict = {}


def _pole_masks(npoles: int) -> np.ndarray:
    """(2, unknown, pole) masks of the poles below unknown i (index >= i)
    and above it; read-only."""
    masks = _SMALL_MASKS.get(npoles)
    if masks is None:
        idx = np.arange(npoles)
        below = (idx[None, :] >= idx[:, None]).astype(float)
        masks = np.stack([below, 1.0 - below])
        masks.setflags(write=False)
        if npoles <= EIG_START_POLES:
            _SMALL_MASKS[npoles] = masks
    return masks


def _secular_step(ends, w, c: float, top_width: float, x, scratch) -> None:
    """One step of :func:`shift_chain` on poles mu = ``ends[:, 1:]``, rows
    sorted descending, of weights ``w``: writes into ``x`` the roots of
    sum_j w_j / (x - mu_j) = 1/c, one per gap and one in (mu_0, mu_0 +
    top_width], and that end into ``ends[:, 0]``."""
    # Unknown i lives in (mu_i, mu_(i-1)); unknown 0 in (mu_0, mu_0 + W c].
    np.add(ends[:, 1], top_width, out=ends[:, 0])
    mu = lo = ends[:, 1:]
    hi = ends[:, :-1]
    nrows, npoles = mu.shape
    inv_c = 1.0 / c
    np.multiply(0.5, lo + hi, out=x)
    x[:, 0] = hi[:, 0]
    active = x > lo
    active[:, 1:] &= x[:, 1:] < hi[:, 1:]
    np.copyto(x, lo, where=~active)
    terms = scratch[:2 * nrows * npoles * npoles].reshape(2, nrows, npoles, npoles)
    # Start from the eigenvalues of diag(mu) + c s s^T (see shift_chain):
    # about 2 passes a step on the ri bench instead of 6.8.
    if npoles <= EIG_START_POLES:
        s = np.sqrt(w)
        mat = np.multiply(c * s[:, :, None], s[:, None, :], out=terms[0])
        mat.reshape(nrows, -1)[:, ::npoles + 1] += mu  # the diagonals; a view
        ev = np.linalg.eigvalsh(mat)[:, ::-1]
        np.copyto(x, ev, where=active & (ev > lo) & (ev < hi))
    masks = _pole_masks(npoles)
    down, up, h = lo.copy(), hi.copy(), hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            sums = _pole_sums(x, mu, w, masks, terms)
            phi, psi = sums[1]
            g = phi + psi - inv_c
            # Rounding error of g: three roundings per term, one per sum.
            active &= ~(np.abs(g) <= (npoles + 3) * _EPS * (phi - psi + inv_c))
            if not active.any():
                return
            # Every bracket keeps its sign change, stopped entries' unread.
            rising = g > 0
            np.copyto(down, x, where=rising)
            np.copyto(up, x, where=~rising)
            mid = 0.5 * (down + up)
            y = _two_pole_root(x, lo, hi, h, sums, inv_c)
            active &= (y != x) & (mid != down) & (mid != up)
            np.copyto(x, np.where((y > down) & (y < up), y, mid), where=active)
            if not active.any():
                return


def _pole_sums(x, mu, w, masks, terms) -> np.ndarray:
    """[[dphi, dpsi], [phi, psi]]: the sums of w_j / (x - mu_j)^2 and of
    w_j / (x - mu_j) over the poles below each x and above it."""
    diff = np.subtract(x[:, :, None], mu[:, None, :], out=terms[0])
    np.divide(w[:, None, :], diff, out=terms[1])
    np.divide(terms[1], diff, out=diff)
    return np.einsum("sbij,tij->stbi", terms, masks)


def _two_pole_root(x, lo, hi, h, sums, inv_c: float) -> np.ndarray:
    """The root in each gap (lo, hi), h wide, of Gragg's model C + A/(y - lo)
    + B/(y - hi) = 1/c, A and B matched to the derivatives of the sums
    below and above x (B = 0 at the top root, whose end is no pole): y =
    lo + u, t u^2 - lin u + A h = 0, each branch free of cancellation."""
    (dphi, dpsi), (phi, psi) = sums
    dlo = x - lo
    dhi = x - hi
    dhi[:, 0] = 1.0
    big_a = dphi * dlo * dlo
    big_b = dpsi * dhi * dhi
    t = inv_c - (phi - big_a / dlo) - (psi - big_b / dhi)
    th = t * h
    lin = th + big_a + big_b
    sq = np.sqrt((th - big_a + big_b) ** 2 + 4.0 * big_a * big_b)
    u = np.where(lin > 0, 2.0 * big_a * h / (lin + sq), (lin - sq) / (2.0 * t))
    return lo + u


# ----------------------------------------------------------------------
# Float roots
# ----------------------------------------------------------------------


def real_roots(p: Polynomial) -> np.ndarray:
    """All roots of float ``p`` with multiplicity, sorted descending.

    They are real by construction (:func:`_float_roots`), and
    :class:`NotRealRootedError` is raised on a complex root beyond
    ``BACKWARD_TOL``.  A constant has no roots.  Exact input raises
    ``TypeError``: its roots come certified from :func:`root_clusters`,
    which requires it real-rooted.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has every number as a root")
    if p.degree == 0:
        return np.empty(0)
    if p.is_exact:
        raise TypeError("real_roots takes float polynomials; exact ones take root_clusters")
    return np.array(_float_roots(p))


def _horner(c: list[float], x: float) -> tuple[float, float, float, float]:
    """``(p(x), p'(x), p''(x)/2, bound)`` for float ``c``, lowest degree first,
    ``bound`` = 2 (n + 1) eps sum |c_i| |x|^i on the rounding error of p(x)."""
    f = df = hf = size = 0.0
    ax = abs(x)
    for coef in reversed(c):
        hf = hf * x + df
        df = df * x + f
        f = f * x + coef
        size = size * ax + abs(coef)
    return f, df, hf, 2 * len(c) * size * _EPS


def _samuelson_interval(c: list[float]) -> tuple[float, float]:
    """mean -+ sqrt((n - 1)/n * s), s the roots' sum of squared deviations,
    for monic float ``c``, padded by ``START_OFFSET`` times its larger
    end in magnitude: the Laguerre-Samuelson interval, which holds the
    roots of a real-rooted polynomial."""
    n = len(c) - 1
    mean = -c[-2] / n
    spread = (c[-2] * c[-2] - 2 * c[-3] - n * mean * mean) if n > 1 else 0.0
    radius = math.sqrt(max(spread, 0.0) * (n - 1) / n)
    lo, hi = mean - radius, mean + radius
    pad = START_OFFSET * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def _scaled_monic(c: list[float]) -> tuple[list[float], int]:
    """``(q, scale)``: q is p(2^scale y) / 2^(scale n) made monic, for float ``c``.

    scale is the least integer with e_i - e_n <= scale (n - i) for every
    nonzero c_i, e_i its binary exponent: each coefficient of q is below 2
    in magnitude, so nothing the Laguerre-Samuelson interval squares, and
    no value of q near its roots, overflows or underflows.  Powers of two
    scale exactly, so the roots of q are those of p times 2^-scale, and a
    backward error relative to max |q_i| is the same at any scale.
    """
    n = len(c) - 1
    lead = math.frexp(c[n])[1]
    scale = max((-((lead - math.frexp(x)[1]) // (n - i)) for i, x in enumerate(c[:-1]) if x),
                default=0)
    return [math.ldexp(x, scale * (i - n)) / c[n] for i, x in enumerate(c)], scale


def _float_roots(p: Polynomial) -> list[float]:
    """The roots of float ``p``, descending, real by construction.

    p is real-rooted exactly when p' is and p changes sign across the
    brackets that the roots of p' cut out of the Laguerre-Samuelson
    interval, which holds the roots of p and of its derivatives; each
    bracket then holds one root.  So the chain p, p', p'', ..., each made
    monic and scaled to its roots, is solved from the linear one up, each
    bracket by :func:`_bracket_root` on the level's coefficients and on
    the same read exactly, as integers over one power of two (floats are
    dyadic), and on the level's value at the bracket's top end, which the
    sign check has evaluated.  Where a level q keeps its sign, up to its
    evaluation's rounding, at a root e of q', e is a multiple root and
    both brackets at e take it; exact zero roots come out so.  A miss
    beyond ``BACKWARD_TOL`` max |q_i| sum_j |e|^j, any at the interval's
    ends, or a coefficient that is not finite raises :class:`NotRealRootedError`.
    """
    if not all(math.isfinite(x) for x in p.coeffs):
        raise NotRealRootedError("p has a coefficient that is not finite")
    c, scale = _scaled_monic([float(x) for x in p.coeffs])
    n = len(c) - 1
    bottom, top = _samuelson_interval(c)
    roots: list[float] = []
    for k in range(1, n + 1):
        q = [c[i] * math.comb(i, n - k) / math.comb(n, k) for i in range(n - k, n + 1)]
        ratios = [x.as_integer_ratio() for x in q]
        den = max(d for _, d in ratios)
        a = [m * (den // d) for m, d in ratios]
        ends = [top] + roots + [bottom]
        at = [_horner(q, e) for e in ends]
        multiple = []   # ends[j] is a root of q, which should have the sign (-1)^j there
        for j, (e, (f, _, _, slack)) in enumerate(zip(ends, at)):
            v = -f if j % 2 else f
            inner = 0 < j < k
            if v < -slack and (not inner or -v > BACKWARD_TOL * max(map(abs, q))
                               * sum(abs(e) ** i for i in range(k + 1))):
                raise NotRealRootedError(
                    f"the derivative chain of p misses a sign change near {math.ldexp(e, scale):.6g}")
            multiple.append(inner and v <= slack)
        roots = [ends[j - 1] if multiple[j - 1] else ends[j] if multiple[j]
                 else _bracket_root(q, a, ends[j], ends[j - 1], 1.0 if j % 2 else -1.0,
                                    at[j - 1]) for j in range(1, k + 1)]
    return [math.ldexp(r, scale) for r in roots]


def _laguerre(q: list[float], lo: float, hi: float, s: float,
              at_hi: tuple | None = None) -> tuple[float, float, float, bool]:
    """Laguerre steps on monic float ``q`` from ``hi`` down to a root in
    [lo, hi]: ``(x, lo, hi, sound)``.

    s q is positive at ``hi``.  Each iterate becomes the end of the
    bracket on its side of the root, by the sign of s q, and a step that
    leaves the narrowed bracket is replaced by its midpoint.  The steps stop once q(x) is within the
    rounding error of its evaluation, or after 100 steps.  From above
    the roots of a real-rooted polynomial they fall monotonically to the
    top root, cubically at a simple one, and stop before noise can carry
    them below it.  ``sound`` is false on a breakdown, which no
    real-rooted q reaches from above all its roots: an iterate where s q
    is negative beyond its rounding, or s q' is not positive while s q is
    positive beyond it (a non-finite iterate or bound included); a step
    not strictly inside (lo, hi), so one that does not descend; no stop
    within 100 steps; or (n - 1)(n h - g^2), which is nonnegative by
    Cauchy-Schwarz for real roots, below -``LAGUERRE_TOL`` n g^2.  The
    iterates do not depend on it.  ``at_hi``, if given, is
    :func:`_horner`'s tuple for q at ``hi``, which the first step then
    takes in place of evaluating it again.
    """
    n = len(q) - 1
    x, sound = hi, True
    for _ in range(100):
        f, df, hf, slack = at_hi or _horner(q, x)
        f, df, hf = s * f, s * df, s * hf
        at_hi = None
        if abs(f) <= slack:
            return x, lo, hi, sound and slack < math.inf
        sound = sound and f > slack and df > 0
        if f > 0:
            hi = x
        else:
            lo = x
        g = df / f
        disc = (n - 1) * (n * (g * g - 2 * hf / f) - g * g)
        sound = sound and disc >= -LAGUERRE_TOL * n * g * g
        root = math.sqrt(max(disc, 0.0))
        den = g + root if f > 0 else g - root
        nxt = x - n / den if den else x
        if not lo < nxt < hi:
            sound = False
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        x = nxt
    return x, lo, hi, False


def _bracket_root(q: list[float], a: list[int], lo: float, hi: float, s: float,
                  at_hi: tuple) -> float:
    """The root of monic float ``q`` in [lo, hi], across which s q rises from - to +.

    :func:`_laguerre` from the top end, handed ``at_hi``, q's evaluation
    there, its breakdown flag unread (the ends are roots of q', not points
    above every root); then :func:`_newton` on ``a``, q's coefficients
    times one power of two, with values exact at each float iterate,
    which reaches the root of the float coefficients to an ulp.
    Laguerre's iterate stays if Newton's leaves the narrowed bracket.
    """
    x, lo, hi, _ = _laguerre(q, lo, hi, s, at_hi)
    y = _newton(a, x, 0)[0]
    return y if lo <= y <= hi else x


# ----------------------------------------------------------------------
# The exact root kernel, for real-rooted polynomials
# ----------------------------------------------------------------------


class TopRoot(NamedTuple):
    """One cluster of roots of a real-rooted polynomial, and its certificate.

    ``lo`` and ``hi`` are dyadic rationals.  Above ``hi`` lie only the
    roots of the clusters before this one (none, for the top cluster),
    and above ``lo`` lie exactly ``mult`` more, counted with
    multiplicity; the float ``root`` lies in (lo, hi] too, except that a
    cluster above the largest float has the root inf, and one below
    minus it the root -inf.  ``mult`` is one root's multiplicity unless
    several roots share the bracket.
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
    polynomials real-rooted by construction, or after a Sturm check.
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


def _derivative_value(a: list[int], x: float) -> tuple[int, int, int]:
    """``(num, dnum, e)``: the integer polynomial ``a`` at x is num / 2^(e deg)
    and its derivative dnum / 2^(e (deg - 1)), by one Horner pass in integers."""
    m, den = x.as_integer_ratio()
    e = den.bit_length() - 1
    acc = dacc = shift = 0
    for c in reversed(a):
        dacc = dacc * m + acc
        acc = acc * m + (c << shift)
        shift += e
    return acc, dacc, e


def float_top_root(p: Polynomial) -> float:
    """The largest root of float ``p``, real-rooted by theorem, taken from above.

    Exact zero roots are split off first, as in :func:`root_clusters`:
    with any, the answer is 0.0 when what is left is constant or has its
    top root below 0.  Otherwise it is :func:`_laguerre`, the loop that
    starts the exact kernel, on the rest made monic and scaled to its
    roots (:func:`_scaled_monic`), from the top of its
    Laguerre-Samuelson interval.  Its end x has |p(x)| within the
    rounding bound of its evaluation, 2 (n + 1) eps sum |c_i| |x|^i, so
    at a simple root it is within that bound over |p'| of the root, and
    at an r-fold one within its r-th root (over |p^(r)/r!|).  Raises
    :class:`NotRealRootedError` on a breakdown.
    """
    if p.degree < 1:
        raise ValueError("a constant has no top root")
    zeros = next(i for i, c in enumerate(p.coeffs) if c)
    if zeros == p.degree:
        return 0.0
    c, scale = _scaled_monic([float(x) for x in p.coeffs[zeros:]])
    x, _, _, sound = _laguerre(c, *_samuelson_interval(c), 1.0)
    x = math.ldexp(x, scale)
    if not sound:
        raise NotRealRootedError(
            f"Laguerre's method from above broke down near {x:.6g}")
    return x if x > 0 or not zeros else 0.0


def _newton(a: list[int], x: float, k: int) -> tuple[float, list]:
    """Newton steps on the k-th derivative of the integer polynomial ``a``,
    values exact at each float x by :func:`_derivative_value`, the
    derivatives' coefficients formed once.  It polishes the exact kernel's
    clusters and the float derivative chain's roots alike.

    Returns the last iterate and the steps taken: at most six, up to the
    first that no longer moves x or no longer shrinks.  Six polish all but
    4 of the 33 clusters of the n = 64 ``ri`` pledge; four, all but 13.
    """
    for _ in range(k):
        a = [i * c for i, c in enumerate(a)][1:]
    taken = []
    for _ in range(6):
        num, den, e = _derivative_value(a, x)
        try:
            step = num / (den << e)
        except (ZeroDivisionError, OverflowError):
            break
        nxt = x - step
        if nxt == x or not math.isfinite(nxt) or taken and abs(step) >= abs(taken[-1]):
            break
        x = nxt
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

    Each cluster starts from :func:`_laguerre` from the top of a monic
    float copy of ``p``, divided by (x - root)^mult of each cluster above
    (:func:`_deflate`), and is polished and certified by :func:`_polish`.
    Without a copy, past the float range or once a root of 0 or inf is
    divided out, the clusters left are bisected.  A root above the
    largest float comes as inf, and one below minus it as -inf
    (:func:`_bisect`).
    """
    a = _integer_coeffs(p)
    zeros = next(i for i, c in enumerate(a) if c)
    a = a[zeros:]
    n = len(a) - 1
    bound = _root_bound(a)
    try:
        c = [x / a[-1] for x in a]
    except OverflowError:
        c = None
    # the zero cluster comes once the positive roots are done
    positive = _count_above(a, Fraction(0)) if zeros else None
    hi, done = bound, 0
    while True:
        if done == positive:
            gap = 1 / _root_bound(a[::-1])
            yield TopRoot(0.0, zeros, -gap, gap)
            hi = -gap
        if done == n:
            return
        x = _laguerre(c, *_samuelson_interval(c), 1.0)[0] if c else math.nan
        cluster = _polish(a, x, done, -bound, hi)
        yield cluster
        done += cluster.mult
        hi = cluster.lo
        c = _deflate(c, cluster.root, cluster.mult)


def _deflate(c: list[float] | None, root: float, mult: int) -> list[float] | None:
    """Monic float ``c`` over (x - root)^mult, monic again, or None for no c,
    a root of 0 or past the float range, or an overflow: synthetic division
    from the constant end, stable with the largest roots out first
    (Wilkinson 1963)."""
    if not (c and root and math.isfinite(root)):
        return None
    for _ in range(mult):
        q = [0.0]
        for coef in c[:-1]:
            q.append((q[-1] - coef) / root)
        c = q[1:]
    if not c[-1]:
        return None
    c = [x / c[-1] for x in c]
    return c if all(map(math.isfinite, c)) else None


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
    w = 2 * math.ulp(x)
    # at the edge of the float range x +- w overflows, and bisection takes over
    if not (x <= hi and math.isfinite(abs(x) + w)):
        return _bisect(a, done, lo, hi)
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
    stripped beforehand): the bracket ends one ulp of the root wide, and
    the root is its upper end.  Past the float range the halving stops
    at the largest float: a root above it comes as inf, and one below
    minus it as -inf, unless it is exactly minus the largest float (an
    exact value of ``a`` there tells), each with its bracket still
    certified.
    """
    top = sys.float_info.max
    while True:
        try:
            mid = Fraction(float((lo + hi) / 2))
        except OverflowError:
            mid = Fraction(top if lo + hi > 0 else -top)
        if not lo < mid < hi:
            if hi > top:
                root = math.inf
            elif lo >= -top:
                root = float(hi)
            elif hi == -top and not _derivative_value(a, -top)[0]:
                root = -top     # a root at exactly minus the largest float
            else:               # every root of the bracket is below it
                root = -math.inf
            return TopRoot(root, _count_above(a, lo) - done, lo, hi)
        if _count_above(a, mid) > done:
            lo = mid
        else:
            hi = mid


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


def _squarefree(p: Polynomial) -> Polynomial:
    """Each distinct root of exact ``p`` once: p / gcd(p, p') in integers,
    by Euclid's algorithm with each remainder made primitive."""
    a = _integer_coeffs(p)
    g, h = a, [i * c for i, c in enumerate(a)][1:]
    while h:
        g, h = h, _pseudo_divmod(g, h)[1]
        h = _primitive(h) if h else h
    return Polynomial(_primitive(_pseudo_divmod(a, g)[0]))
