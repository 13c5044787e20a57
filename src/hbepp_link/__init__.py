"""Click statistics, CHSH values, and BBM92 key rates for a bright
entangled-pair source distributed over asymmetric lossy channels to
threshold detectors.

The root exports the twelve names README's "Library use" lists; everything
else is imported from its module, ``hbepp_link.<module>``.
"""

from .analytic import outcome_probabilities
from .fock import oracle_probabilities, truncation_error_bound
from .keyrate import optimize_gain, qber_and_sift
from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import ProbabilityTable
from .postprocess import TSIRELSON_BOUND, PostprocessingModel, chsh

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "MeasurementAngles",
    "PostprocessingModel",
    "ProbabilityTable",
    "SourceParams",
    "TSIRELSON_BOUND",
    "chsh",
    "optimize_gain",
    "oracle_probabilities",
    "outcome_probabilities",
    "qber_and_sift",
    "truncation_error_bound",
]
