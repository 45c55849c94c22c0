"""Test fixtures built from the library's own value types.

Named graphs and their adjacency matrices, a walked 24-vertex cover of
K_{3,3}, polynomials from their
roots, coefficientwise closeness of two polynomials, lists of PSD
matrices, random isotropic vector systems and two-point random
vectors.  No command needs them, so they
live here rather than in ``src``.
"""

import functools
from fractions import Fraction

import numpy as np

from interlace import Graph, Polynomial, SymMatrix, VectorSystem, signed_adjacency, \
    signing_select, two_lift
from interlace.matrices import _validate_matrix_list
from interlace.mixedchar import _rank_one_terms
from interlace.tolerances import COEFF_TOL


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


@functools.cache
def walked_cover24() -> Graph:
    """A 24-vertex cubic bipartite Ramanujan graph: two walked 2-lifts of
    K_{3,3}, each signed by ``signing_select``."""
    g = complete_bipartite(3, 3)
    for _ in range(2):
        g = two_lift(g, signing_select(g)[0])
    return g


def adjacency(g: Graph) -> SymMatrix:
    """The adjacency matrix: the signed adjacency of the all-+1 signing."""
    return signed_adjacency(g, [1] * g.m)


# ----------------------------------------------------------------------
# Polynomials
# ----------------------------------------------------------------------


def from_roots(roots, lead=1) -> Polynomial:
    """Monic-up-to-``lead`` polynomial with the given roots."""
    p = Polynomial((lead,))
    for r in roots:
        p = p * Polynomial((-r, 1))
    return p


def allclose(p: Polynomial, q: Polynomial) -> bool:
    """Coefficientwise agreement within ``COEFF_TOL``, relative to the
    larger polynomial's size."""
    a = [float(c) for c in p.coeffs]
    b = [float(c) for c in q.coeffs]
    while len(a) < len(b):
        a.append(0.0)
    while len(b) < len(a):
        b.append(0.0)
    scale = max([1.0] + [abs(c) for c in a + b])
    return all(abs(x - y) <= COEFF_TOL * scale for x, y in zip(a, b))


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------


def psd_list(matrices) -> list[SymMatrix]:
    """The inputs as ``SymMatrix`` objects of one shared dimension, each
    PSD by the float rule of ``mixed_char`` (``_rank_one_terms`` on its
    float copy), exact ones too; ValueError naming the first matrix that
    is not."""
    mats = _validate_matrix_list(matrices)
    for i, m in enumerate(mats):
        _rank_one_terms(m, False, f"matrix {i}")
    return mats


# ----------------------------------------------------------------------
# Vector systems
# ----------------------------------------------------------------------


def random_isotropic(n: int, m: int, rng) -> VectorSystem:
    """m >= n rows whose outer products sum exactly (numerically) to I_n."""
    if m < n:
        raise ValueError("need at least n vectors for isotropy")
    g = rng.standard_normal((m, n))
    # Whiten: rows of G (G^T G)^(-1/2) have Gram sum exactly I.
    sym = g.T @ g
    w, u = np.linalg.eigh(sym)
    inv_half = u @ np.diag(1.0 / np.sqrt(w)) @ u.T
    return VectorSystem(g @ inv_half)


def two_point(v, w) -> list:
    """The random vector v or w, each with probability 1/2, as a list of
    (probability, vector) pairs: exactly 1/2 unless a component is a float."""
    exact = not any(isinstance(x, float) for x in [*np.ravel(v), *np.ravel(w)])
    half = Fraction(1, 2) if exact else 0.5
    return [(half, v), (half, w)]
