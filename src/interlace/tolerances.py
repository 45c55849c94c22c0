"""Every float tolerance of the library, each named once with its reason.

The certificates are exact root inequalities that interlacing guarantees,
so every slack granted here weakens one.  Each is granted only where
float rounding forces it and no exact identity can be checked instead:
on float input.  Exact walks decide their choices and certificates by
exact root counts.  No other module of the
package holds a float literal below 1e-3 (``tests/test_tolerances.py``
checks this).  Callers set none of them, save one default: ``ISO_TOL``
of the isotropy ``tol`` that ``--tol`` sets.  Two serve the tests'
checks alone and stay here with the rest: ``COEFF_TOL`` and
``SHIFT_TOL``.
"""

# Normwise backward error, relative to the largest coefficient once the
# roots are scaled to about 1, within which ``poly._float_roots`` takes a
# missing sign change of a level q of the derivative chain, at a root e
# of q', for a multiple root rather than a complex pair.  A pair a +- ib
# apart from the other roots leaves a miss of about b^2 |q''(a)| / 2, so
# it is rejected once b exceeds about 1e-6 of the root scale.  On 4960
# float mu, characteristic and enumerated expected polynomials with
# multiple roots (d <= 10) no miss exceeded the evaluation's rounding.
BACKWARD_TOL = 1e-12

# Slack on a float walk's achieved >= pledged (<= when minimizing): the
# achieved value is an ``eigvalsh`` eigenvalue and the pledge a float root
# of another polynomial, and a walk may meet its pledge with equality.
CERT_TOL = 1e-7

# Spectral-norm distance of a float Gram sum from I at which a vector
# system still counts as isotropic, the default of ``--tol``: the Gram
# sum of whitened float vectors misses I by rounding alone, about n eps.
# The root bound for decompositions of the identity in ``tests/paper.py``
# puts the same condition on covariances summing to I.
ISO_TOL = 1e-8

# Relative slack, times max(1, |trace|), on the bottom eigenvalue when
# ``mixedchar._rank_one_terms`` decides a float matrix PSD from the
# ``eigh`` that splits it: ``eigh`` returns a singular PSD matrix's zero
# eigenvalue only to within about eps times its norm.  Exact input is
# decided by the fraction-free elimination there.
PSD_TOL = 1e-9

# Relative asymmetry a float matrix may carry into ``SymMatrix``: products
# of symmetric float factors are symmetric only up to rounding.
SYM_TOL = 1e-12

# Relative coefficientwise agreement of two float polynomials computed by
# independent routes (outcome enumeration and the mixed characteristic
# ring), each a sum of many rounded terms, up to 2^20 outcomes.
COEFF_TOL = 1e-8

# Slack on the soft-edge inequalities of the shift checks of
# ``tests/barrier.py``, which no command runs: both sides are
# ``shift_chain`` solves, each within a few ulp of its secular equation's
# root, on the float roots of p, which are only as good as p's own
# rounding lets them be: an r-fold root of a float p moves by about
# eps^(1/r) under it, and the inequality may hold with equality.
SHIFT_TOL = 1e-7

# Relative offset that pads ``poly._samuelson_interval``, the
# Laguerre-Samuelson bounds, which are attained when all roots but one
# coincide and whose float values may then round inside the roots;
# Laguerre's steps fall monotonically to the root only from above.  It
# is relative to the interval's larger end in magnitude, with no absolute
# part: a pad of 1e-9 above a root of 2e-12 makes the first step cancel
# beyond the evaluation's rounding bound, which reads as a breakdown.
START_OFFSET = 1e-9

# Rounding slack of the breakdown test of ``poly._laguerre``, the one
# Laguerre loop of ``poly``, relative to n g^2; ``float_top_root`` raises
# on a breakdown.  At a point above the roots of a real-rooted polynomial,
# (n - 1)(n h - g^2) is nonnegative (Cauchy-Schwarz) and zero only at an
# n-fold root, where rounding may tip it either way; on float
# polynomials with clustered and multiple top roots, and on the bench's
# weaver children, it stayed above 0.028 n g^2 at every step.  A complex
# top pair drives it to about -n g^2 as the iterates pass the pair.
LAGUERRE_TOL = 1e-6
