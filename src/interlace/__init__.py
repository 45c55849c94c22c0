"""Interlacing families: real-rooted polynomials, mixed characteristic
polynomials, and greedy spectral selection with certificates.

The package holds what the four commands run, functions and class
members alike, and imports numpy and the standard library only.  Each
walk serves one command: weaver's walk builds its own two-point lifts
as plain (probability, vector) lists, and no general walk over random
vectors is exported.  What
no command enters stays for the bench's tracer: the empty module
:mod:`interlace.barrier`, imported by name, and
``Polynomial.derivative``, patched by name.  The paper's other
identities and bounds are checks in ``tests/paper.py``, the soft-edge
barriers are in ``tests/barrier.py``, and the tests' fixtures (named
graphs, polynomials from their roots, PSD matrix lists, random
isotropic systems) are in ``tests/fixtures.py``."""

from .poly import (
    Polynomial,
    ZeroPolynomialError,
    NotRealRootedError,
    shift_chain,
    real_roots,
    float_top_root,
    TopRoot,
    roots_above,
    root_clusters,
)
from .matrices import SymMatrix, char_poly, charpoly_batch, charpoly_batch_exact
from .mixedchar import (
    BudgetExceededError,
    mixed_char,
)
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    signed_adjacency,
    signed_gram,
    SigningEngine,
    frontier_order,
    two_lift,
    is_ramanujan_bipartite,
)
from .select import (
    VectorSystem,
    SelectionCertificate,
    WALK_BUDGET,
    restricted_invertibility_select,
    restricted_invertibility_bound,
    weaver_partition,
    weaver_bound,
    signing_select,
)

__version__ = "0.1.0"
