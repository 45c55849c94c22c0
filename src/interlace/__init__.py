"""Interlacing families: real-rooted polynomials, barriers, mixed
characteristic polynomials, and greedy spectral selection with
certificates."""

from .poly import (
    Polynomial,
    ZeroPolynomialError,
    NotRealRootedError,
    apply_shift_operator,
    shift_roots,
    laguerre_transform,
    diagram_identity_check,
    sturm_sequence,
    sturm_root_count,
    is_real_rooted,
    real_roots,
    kth_largest_root,
    float_top_root,
    TopRoot,
    roots_above,
    root_clusters,
    top_root,
    compare_top_roots,
    interlaces,
    have_common_interlacing,
)
from .matrices import SymMatrix, char_poly, charpoly_batch, charpoly_batch_exact
from .barrier import (
    DetPolyFamily,
    lower_barrier,
    upper_barrier,
    smin,
    smax,
    lower_shift_check,
    upper_shift_check,
    laguerre_root_bounds,
    multivariate_barrier,
)
from .mixedchar import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    DiscreteRandomVector,
    mixed_char,
    expected_char_poly,
    mixed_identity_check,
    mixed_char_root_bound,
)
from .graphs import (
    Graph,
    Signing,
    adjacency,
    laplacian,
    signed_adjacency,
    matching_poly,
    SigningEngine,
    frontier_order,
    godsil_gutman_check,
    heilmann_lieb_check,
    squared_roots,
    two_lift,
    is_ramanujan_bipartite,
    spectral_approx_factors,
)
from .select import (
    VectorSystem,
    AssignmentState,
    SelectionCertificate,
    WALK_BUDGET,
    greedy_walk,
    walk_costs,
    restricted_invertibility_select,
    restricted_invertibility_bound,
    weaver_partition,
    weaver_bound,
    signing_select,
    signing_vectors,
)

__version__ = "0.1.0"
