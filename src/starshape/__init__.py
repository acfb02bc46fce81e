"""starshape: exact symbolic-power initial ideals of point configurations
and their limiting staircase shapes."""

from .errors import (
    DegenerateConfigurationError,
    GenericityError,
    SchemeFormatError,
    StarshapeError,
    UnboundedRegionError,
)
from .gin import (
    FileGinCache,
    GinCache,
    GinResult,
    compute_gin,
    gin_degree,
    hf_symbolic,
    verify_green,
)
from .invariants import (
    InvariantReport,
    InvariantRow,
    alpha,
    asreg_estimate,
    custom_report,
    regularity,
    verify_theorem,
    waldschmidt_estimate,
)
from .linalg import (
    RatMatrix,
    nullspace,
    random_invertible_matrix,
    rank,
    rref_with_column_order,
)
from .lp import lp_feasible
from .monomial import MonomialIdeal, monomials_of_degree, revlex_cmp
from .rng import SeededRng
from .scheme import (
    FatPointScheme,
    StarConfiguration,
    build_star,
    conditions_matrix,
    load_points,
    symbolic_basis,
)
from .shape import (
    AxisSimplex,
    Shape,
    avoids_interior,
    axis_intercept,
    contains,
    q_area_2d,
    q_volume_estimate,
    scaled,
    shape_of,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSimplex",
    "DegenerateConfigurationError",
    "FatPointScheme",
    "FileGinCache",
    "GenericityError",
    "GinCache",
    "GinResult",
    "InvariantReport",
    "InvariantRow",
    "MonomialIdeal",
    "RatMatrix",
    "SchemeFormatError",
    "SeededRng",
    "Shape",
    "StarConfiguration",
    "StarshapeError",
    "UnboundedRegionError",
    "alpha",
    "asreg_estimate",
    "avoids_interior",
    "axis_intercept",
    "build_star",
    "compute_gin",
    "conditions_matrix",
    "contains",
    "custom_report",
    "gin_degree",
    "hf_symbolic",
    "load_points",
    "lp_feasible",
    "monomials_of_degree",
    "nullspace",
    "q_area_2d",
    "q_volume_estimate",
    "random_invertible_matrix",
    "rank",
    "regularity",
    "revlex_cmp",
    "rref_with_column_order",
    "scaled",
    "shape_of",
    "symbolic_basis",
    "verify_green",
    "verify_theorem",
    "waldschmidt_estimate",
]
