"""Hardy-Littlewood-Sobolev apparatus on the Heisenberg group."""

from .group import (
    GroupPoint,
    ball_volume,
    dilate,
    distance,
    homogeneous_dimension,
    identity,
    inverse,
    multiply,
    norm,
)
from .constants import (
    DEFAULT_LIEB_VARIANT,
    HlsParams,
    derive_conjugates,
    diagonal_params,
    frank_lieb_constant,
    lieb_diagonal_constant,
    lieb_loss_upper_bound,
    log_gamma,
    theorem2_upper_bound,
)
from .grids import CylGridFunction, GridSpec, ball_indicator, lp_norm, normalized, sample
from .quadrature import (
    bilinear_energy,
    fractional_integral,
    fractional_integral_grid,
    hls_quotient,
)
from .montecarlo import mc_bilinear_energy
from .extremal import (
    ConvergenceTrace,
    IterationControls,
    align,
    euler_lagrange_step,
    extremal_H,
    maximize,
    renormalize_concentration,
)
from .concentration import (
    DiscreteMeasure,
    TrichotomyVerdict,
    brezis_lieb_defect,
    classify_trichotomy,
    dichotomy_split,
    levy_concentration,
    strict_subadditivity_gap,
)

__all__ = [
    "GroupPoint",
    "ball_volume",
    "dilate",
    "distance",
    "homogeneous_dimension",
    "identity",
    "inverse",
    "multiply",
    "norm",
    "DEFAULT_LIEB_VARIANT",
    "HlsParams",
    "derive_conjugates",
    "diagonal_params",
    "frank_lieb_constant",
    "lieb_diagonal_constant",
    "lieb_loss_upper_bound",
    "log_gamma",
    "theorem2_upper_bound",
    "CylGridFunction",
    "GridSpec",
    "ball_indicator",
    "lp_norm",
    "normalized",
    "sample",
    "bilinear_energy",
    "fractional_integral",
    "fractional_integral_grid",
    "hls_quotient",
    "mc_bilinear_energy",
    "ConvergenceTrace",
    "IterationControls",
    "align",
    "euler_lagrange_step",
    "extremal_H",
    "maximize",
    "renormalize_concentration",
    "DiscreteMeasure",
    "TrichotomyVerdict",
    "brezis_lieb_defect",
    "classify_trichotomy",
    "dichotomy_split",
    "levy_concentration",
    "strict_subadditivity_gap",
]

__version__ = "0.1.0"
