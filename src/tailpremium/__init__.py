"""Heavy-tail estimation and excess-of-loss premiums under right censoring.

The package estimates the tail index of a loss distribution observed
through random right censoring, extrapolates its survival function beyond
the data, and prices the layer above a retention with the proportional
hazard transform.  Parametric Burr and Pareto models, the normal limit of
the premium estimator, a data-driven threshold choice, and a reproducible
Monte Carlo study round out the toolkit.
"""

from .asymptotics import (
    AsymptoticParams,
    NormalLimit,
    asym_mean,
    asym_variance,
    confidence_interval,
    gaussian_quantile,
    normalization_factor,
)
from .errors import (
    DomainError,
    FileFormatError,
    TailPremiumError,
    ValidationError,
)
from .estimators import (
    PremiumEstimate,
    TailEstimates,
    censored_hill,
    hill_estimator,
    kaplan_meier_survival,
    km_survival_at_threshold,
    php_estimate,
    uncensored_proportion,
    weissman_tail,
)
from .models import (
    BurrModel,
    CensoringScheme,
    ParetoModel,
    burr_scheme,
    gamma2_from_p,
    h_threshold,
    karamata_premium,
    theoretical_premium,
)
from .samples import (
    THRESHOLD,
    EstimationSettings,
    SortedCensoredSample,
    validate_settings,
)
from .study import (
    ReplicateResult,
    StudyCell,
    StudyConfig,
    StudyRow,
    aggregate,
    replicate_stream,
    run_matched_replicates,
    run_replicate,
    run_study,
    study_cells,
)
from .threshold import ThresholdChoice, reiss_thomas_k, tail_index_path

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams",
    "BurrModel",
    "CensoringScheme",
    "DomainError",
    "EstimationSettings",
    "FileFormatError",
    "NormalLimit",
    "ParetoModel",
    "PremiumEstimate",
    "ReplicateResult",
    "SortedCensoredSample",
    "StudyCell",
    "StudyConfig",
    "StudyRow",
    "THRESHOLD",
    "TailEstimates",
    "TailPremiumError",
    "ThresholdChoice",
    "ValidationError",
    "aggregate",
    "asym_mean",
    "asym_variance",
    "burr_scheme",
    "censored_hill",
    "confidence_interval",
    "gamma2_from_p",
    "gaussian_quantile",
    "h_threshold",
    "hill_estimator",
    "kaplan_meier_survival",
    "karamata_premium",
    "km_survival_at_threshold",
    "normalization_factor",
    "php_estimate",
    "reiss_thomas_k",
    "replicate_stream",
    "run_matched_replicates",
    "run_replicate",
    "run_study",
    "study_cells",
    "tail_index_path",
    "theoretical_premium",
    "uncensored_proportion",
    "validate_settings",
    "weissman_tail",
]
