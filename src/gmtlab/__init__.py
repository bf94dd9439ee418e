"""gmtlab: boundary-measure estimation and inequality verification on grids."""

__version__ = "0.1.0"

from .domains import (  # noqa: F401
    BoundaryCloud,
    GridDomain,
    dilate,
    domain_from_spec,
    extract_boundary,
    make_annulus,
    make_ball,
    make_box,
    rasterize_polygon,
    volume,
)
from .hausdorff import (  # noqa: F401
    Partition,
    build_partition,
    estimate_hm,
    estimate_hm_detail,
    partition_defect,
    unit_ball_volume,
)
from .calculus import (  # noqa: F401
    GridFunction,
    abs_value,
    boundary_integral,
    constant_function,
    from_expression,
    grad_l1,
    grad_l2_squared,
    indicator_function,
    interior_region,
    lq_norm,
    minkowski_steiner,
    mollify,
    pointwise_min,
    restrict_to_domain,
    shell_mass,
    shell_mass_limit,
    total_variation,
    truncate,
)
from .expressions import Expression  # noqa: F401
from .inequalities import (  # noqa: F401
    Report,
    TraceReport,
    check_brunn_minkowski,
    check_bv_bound,
    check_extended_sobolev,
    check_isoperimetric,
    check_mazya,
    check_mazya_l2,
    check_perimeter_iso,
    check_sobolev,
    iso_constant,
    paper_boundary_factor,
    proof_trace,
    quotient_search,
)
from .suite import emit, parse_suite, run_suite  # noqa: F401
