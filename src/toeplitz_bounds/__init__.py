"""Sharp Toeplitz determinant bounds |T2(2)| and |T3(1)| for the
starlike/convex families driven by a target function phi, together with
the extremal functions attaining them and a brute-force oracle that
verifies every bound over the exact attainable coefficient region."""

from .bounds import (
    BoundFragment,
    BoundReport,
    ClassKind,
    a2_bound,
    fekete_szego,
    full_report,
    t22_bound,
    t31_bound,
)
from .catalog import (
    PhiSpec,
    alpha_exponential,
    b_coeffs,
    custom,
    janowski,
    order_alpha,
    phi_series,
    validate,
)
from .extremal import ExtremalFunction, h_phi, k_phi, residual
from .oracle import (
    OracleConfig,
    OracleResult,
    SchwarzPoint,
    maximize,
)

__all__ = [
    "BoundFragment",
    "BoundReport",
    "ClassKind",
    "ExtremalFunction",
    "OracleConfig",
    "OracleResult",
    "PhiSpec",
    "SchwarzPoint",
    "a2_bound",
    "alpha_exponential",
    "b_coeffs",
    "custom",
    "fekete_szego",
    "full_report",
    "h_phi",
    "janowski",
    "k_phi",
    "maximize",
    "order_alpha",
    "phi_series",
    "residual",
    "t22_bound",
    "t31_bound",
    "validate",
]
