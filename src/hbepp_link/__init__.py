"""Click statistics, CHSH values, and BBM92 key rates for a bright
entangled-pair source distributed over asymmetric lossy channels to
threshold detectors."""

from .analytic import (
    QCoefficients,
    outcome_probabilities,
    q_function,
    vacuum_set_probability,
)
from .fock import (
    JointPhotonDistribution,
    TruncatedPairState,
    apply_loss,
    build_state,
    click_probabilities,
    oracle_probabilities,
    photon_number_distribution,
    rotate_modes,
    truncation_error_bound,
)
from .keyrate import (
    KeyRateReport,
    OptimizationResult,
    PassivePerformanceSweep,
    PassivePoint,
    binary_entropy,
    key_rate_report,
    optimize_gain,
    passive_performance,
    qber_and_sift,
    secure_rate,
)
from .params import (
    ChannelParams,
    MeasurementAngles,
    SourceParams,
    db_from_transmittance,
    gain_from_mean_photon,
    transmittance_from_db,
)
from .patterns import (
    CANONICAL_PATTERNS,
    ClickPattern,
    ProbabilityConsistencyError,
    ProbabilityTable,
    pattern_index,
)
from .postprocess import (
    TSIRELSON_BOUND,
    CoincidenceCounts,
    PostprocessingModel,
    chsh,
    coincidences,
    correlation,
    discard_coincidences,
    squash_coincidences,
)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_PATTERNS",
    "ChannelParams",
    "ClickPattern",
    "CoincidenceCounts",
    "JointPhotonDistribution",
    "KeyRateReport",
    "MeasurementAngles",
    "OptimizationResult",
    "PassivePerformanceSweep",
    "PassivePoint",
    "PostprocessingModel",
    "ProbabilityConsistencyError",
    "ProbabilityTable",
    "QCoefficients",
    "SourceParams",
    "TSIRELSON_BOUND",
    "TruncatedPairState",
    "apply_loss",
    "binary_entropy",
    "build_state",
    "chsh",
    "click_probabilities",
    "coincidences",
    "correlation",
    "db_from_transmittance",
    "discard_coincidences",
    "gain_from_mean_photon",
    "key_rate_report",
    "optimize_gain",
    "oracle_probabilities",
    "outcome_probabilities",
    "passive_performance",
    "pattern_index",
    "photon_number_distribution",
    "q_function",
    "qber_and_sift",
    "rotate_modes",
    "secure_rate",
    "squash_coincidences",
    "transmittance_from_db",
    "truncation_error_bound",
    "vacuum_set_probability",
]
