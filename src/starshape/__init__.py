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
)
from .invariants import (
    InvariantReport,
    custom_report,
    verify_theorem,
)
from .linalg import random_invertible_matrix
from .monomial import MonomialIdeal, monomials_of_degree
from .rng import SeededRng
from .scheme import (
    FatPointScheme,
    StarConfiguration,
    build_star,
    load_points,
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
    "MonomialIdeal",
    "SchemeFormatError",
    "SeededRng",
    "Shape",
    "StarConfiguration",
    "StarshapeError",
    "UnboundedRegionError",
    "avoids_interior",
    "axis_intercept",
    "build_star",
    "compute_gin",
    "contains",
    "custom_report",
    "load_points",
    "monomials_of_degree",
    "q_area_2d",
    "q_volume_estimate",
    "random_invertible_matrix",
    "scaled",
    "shape_of",
    "verify_theorem",
]
