"""Dimension estimators for finite positive subsystems of SL(3) acting projectively.

The package computes, at desk scale: the affinity dimension (zero of a
finite-depth pressure over singular-value weights), Lyapunov exponents and
the Lyapunov dimension, and an empirical dimension of plane projections of
the stationary measure, together with the Rauzy-gasket pipeline tying them
together through positivized subsystems.
"""

__version__ = "0.1.0"

from .cover import CoverReport, box_dimension_estimate, cone_constant, svd_cover_upper
from .ergodic import (
    LyapunovStats,
    dyadic_entropy,
    empirical_delta,
    furstenberg_plane_sample,
    lyapunov_dimension,
    lyapunov_exponents,
    shannon_entropy,
)
from .linalg import (
    Matrix3,
    SvTriple,
    exterior_square,
    mat_mul,
    operator_norm,
    singular_values,
    svf,
    svf_via_norms,
)
from .pressure import (
    DimensionEstimate,
    PressureEstimate,
    affinity_dimension,
    partition_sum,
    pressure_estimate,
    rauzy_dimension,
    rauzy_gamma_system,
    zeta_truncated,
)
from .projective import (
    PlaneFrame,
    PointCloud,
    attractor_points,
    frame_for_plane,
    lft_apply,
    plane_frame_orthonormal,
    project_measure_samples,
    rescale_decompose,
    xi_partition,
)
from .semigroup import (
    SystemSpec,
    Word,
    WordSet,
    diophantine_check,
    irreducibility_probe,
    lie_algebra_dimension,
    positivity_report,
    stopping_partition_psi,
)
from .systems import (
    gamma_letter,
    load_system,
    positivizing_conjugator,
    rauzy_alphabet,
    rauzy_curve_derivatives,
    rauzy_system,
    save_system,
    triple9_system,
)

__all__ = [name for name in dir() if not name.startswith("_")]
