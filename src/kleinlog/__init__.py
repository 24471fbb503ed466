"""Single-valued polylogarithms and their Poincare series over Schottky groups."""

from .elliptic import ConvergenceRegimeError, EllipticParams, elliptic_d2
from .moebius import (
    INF,
    FixedPointData,
    MoebiusMap,
    NotLoxodromicError,
    PoleError,
    SpherePoint,
    as_sphere_point,
    chordal,
    from_fixed_points_multiplier,
)
from .poincare import (
    BLOCH_WIGNER_INTEGRAND,
    BersResult,
    ConvergenceReport,
    DomainError,
    IntegrandBoundError,
    SeriesEvaluation,
    SeriesIntegrand,
    automorphy_residual,
    bers_integral,
    convergence_report,
    evaluate,
)
from .polylog import (
    D_GLOBAL_BOUND,
    PolylogResult,
    SingularArgumentError,
    bloch_wigner,
    bloch_wigner_many,
    li,
    ramakrishnan_D,
    ramakrishnan_L,
)
from .psmeasure import (
    ConformalityReport,
    MeasureError,
    NayataniDensity,
    PSMeasure,
    SingularEvaluationError,
    build_ps,
    conformality_report,
    quasi_invariance_residual,
    read_measure_csv,
    write_measure_csv,
)
from .schottky import (
    Circle,
    DeltaEstimate,
    EstimationError,
    SchottkyError,
    SchottkyGroup,
    ShellOverflowError,
    ValidationFailure,
    ValidationReport,
    Word,
    estimate_delta,
    fundamental_domain_samples,
    limit_set,
    nielsen,
    pairing_map,
    reduce_to_fundamental_domain,
)

__version__ = "0.1.0"
