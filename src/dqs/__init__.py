"""Discrete quad surfaces: complex weights, calculus, periods, divisors.

The package implements the linear theory of discrete Riemann surfaces on
bipartite quad decompositions: exterior calculus on the medial graph,
harmonic and holomorphic differentials with their period matrices,
Abelian differentials of all three kinds, divisor dimension counts with
the index identity, branched coverings with the genus relation, and
discrete Abel-Jacobi maps.
"""

from .errors import (
    AmbiguityError,
    AmbiguousGluingError,
    ChartConstructionError,
    DqsError,
    MalformedSurfaceError,
    NonDelaunayError,
    NotClosedError,
    ParseError,
    SolveError,
    SurfaceError,
)
from .surface import (
    BLACK,
    WHITE,
    MedialGraph,
    Obstruction,
    QuadChart,
    QuadComplex,
    RhombicRealization,
    ValidationReport,
    VertexChart,
    genus,
    intersection_angle,
    medial_graph,
    quad_chart,
    realize_rhombic,
    require_surface,
    subdivide3,
    subdivide3_with_provenance,
    validate,
    vertex_chart,
    vertex_fan,
)
from .generators import (
    delaunay_voronoi,
    gen_cube,
    gen_torus,
    randomize_rho,
    tetrahedron_mesh,
)
from .calculus import (
    DiamondForm,
    OneForm,
    TwoForm,
    check_liouville,
    closedness_residual,
    cr_residuals,
    d_function,
    d_one_form,
    decompose_all,
    decompose_quad,
    derivation_rule_check,
    derivatives_quad,
    dirichlet_energy,
    dual_derivatives,
    from_coefficients,
    hodge_star,
    is_holomorphic,
    laplacian,
    laplacian_matrix,
    multiply_vertex,
    scalar_product,
    wedge,
)
from .homology import (
    BlackWhiteChains,
    Cycle,
    GraphPath,
    HomologyBasis,
    PeriodReport,
    black_white,
    build_basis,
    graph_path,
    homology_basis,
    integrate_cycle,
    integrate_graph_path,
    intersection_number,
    periods,
    standard_torus_basis,
    verify_rbi,
)
from .differentials import (
    AbelianDifferential,
    HolomorphicBasis,
    PeriodMatrices,
    abelian_basis,
    abelian_second,
    abelian_third,
    b_period_average,
    canonical_bases,
    harmonic_with_periods,
    holomorphic_with_a_periods,
    nullity_harmonic,
    nullity_holomorphic,
    period_matrices,
    residue,
    residues,
    transform_periods,
)
from .riemann_roch import (
    DimensionReport,
    Divisor,
    check_riemann_roch,
    degree,
    function_divisor,
    gen_one_pole_surface,
    i_dim,
    i_dim_basis_route,
    l_dim,
    torus_pole_test,
    torus_single_pole_search,
)
from .coverings import (
    BranchReport,
    CoveringMap,
    branch_vertex,
    check_riemann_hurwitz,
    double_cover,
    gen_cube_double_cover,
    gen_torus_unbranched_cover,
    sheet_count,
    validate_map,
)
from .jacobian import (
    AJValue,
    Jacobian,
    abel_jacobi_black,
    abel_jacobi_quad,
    abel_jacobi_white,
    jacobians,
)

__version__ = "0.1.0"
