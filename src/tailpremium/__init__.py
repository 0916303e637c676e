"""Heavy-tail estimation and excess-of-loss premiums under right censoring.

The package estimates the tail index of a loss distribution observed
through random right censoring, extrapolates its survival function beyond
the data, and prices the layer above a retention with the proportional
hazard transform.  Parametric Burr and Pareto models, the normal limit of
the premium estimator, a data-driven threshold choice, and a reproducible
Monte Carlo study round out the toolkit.

Names resolve on first use (PEP 562): ``tailpremium.X`` and ``from
tailpremium import X`` import the submodule that defines ``X`` then, so
``import tailpremium`` loads no submodule, ``import tailpremium.cli`` loads
only ``cli`` and ``errors`` and no numpy, and each CLI command loads only
its own.  The ``tailpremium`` executable runs numpy with one OpenBLAS
thread; set ``OPENBLAS_NUM_THREADS`` to choose another count.  A resolved
name is not stored here: every read goes to the submodule.  A submodule
itself is an attribute of the package only once it has been imported.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines: the package's exports.
_EXPORTS = {
    "asymptotics": (
        "AsymptoticParams",
        "NormalLimit",
        "asym_mean",
        "asym_variance",
        "confidence_interval",
        "normalization_factor",
    ),
    "errors": ("DomainError", "FileFormatError", "TailPremiumError", "ValidationError"),
    "estimators": (
        "PremiumEstimate",
        "TailEstimates",
        "censored_hill",
        "hill_estimator",
        "kaplan_meier_survival",
        "km_survival_at_threshold",
        "php_estimate",
        "uncensored_proportion",
        "weissman_tail",
    ),
    "models": (
        "BurrModel",
        "CensoringScheme",
        "ParetoModel",
        "burr_scheme",
        "gamma2_from_p",
        "h_threshold",
    ),
    "samples": (
        "THRESHOLD",
        "EstimationSettings",
        "SortedCensoredSample",
        "validate_settings",
    ),
    "study": (
        "StudyCell",
        "StudyConfig",
        "StudyRow",
        "aggregate",
        "replicate_stream",
        "run_study",
    ),
    "threshold": ("ThresholdChoice", "reiss_thomas_k", "tail_index_path"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
