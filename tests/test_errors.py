"""The one table of failure reasons: every entry is live and raised by name."""

import math

import numpy as np
import pytest

from tailpremium import (
    BurrModel,
    DomainError,
    EstimationSettings,
    ParetoModel,
    ValidationError,
    burr_scheme,
    censored_hill,
    h_threshold,
    hill_estimator,
    km_survival_at_threshold,
    normalization_factor,
    php_estimate,
    reiss_thomas_k,
    tail_index_path,
    uncensored_proportion,
    validate_settings,
    weissman_tail,
)
from tailpremium import models as models_module
from tailpremium.errors import _CODE, REASONS, _failure

from helpers import sample_from_pairs


def too_few_positive(monkeypatch):
    z = [0.0] * 18 + [1.0, 2.0]
    reiss_thomas_k(sample_from_pairs([(v, 1) for v in z]))


def no_admissible_k(monkeypatch):
    z = (1.0 - np.random.default_rng(11).random(50)) ** -0.2
    reiss_thomas_k(sample_from_pairs([(v, 0) for v in z.tolist()]))


def nonpositive_threshold(monkeypatch):
    hill_estimator(sample_from_pairs([(0.0, 1), (0.0, 0), (1.0, 1), (2.0, 1)]), 3)


def all_censored(monkeypatch):
    censored_hill(sample_from_pairs([(1.0, 1), (2.0, 1), (3.0, 0), (4.0, 0)]), 2)


def nonpositive_index(monkeypatch):
    weissman_tail(sample_from_pairs([(1.0, 1), (2.0, 1), (2.0, 0), (2.0, 1)]), 2, 5.0)


def heavy_tail(monkeypatch):
    sample = sample_from_pairs([(1.0, 1), (math.exp(0.95), 1)])
    php_estimate(sample, EstimationSettings(k=1, rho=1.1))


def premium_overflow(monkeypatch):
    normalization_factor(1e-3, 1005.0, 1.0, 3.98e-4, 1.0)


def divergent_premium(monkeypatch):
    BurrModel(0.5, 0.25).premium(2.5, 1.0)


def premium_not_converged(monkeypatch):
    monkeypatch.setattr(models_module, "_BETA_TERMS", 1)
    BurrModel(0.1, 0.25).premium(1.0, np.array([1.0, 3.0]))


# One crafted input per entry of the table, keyed by the entry's name.
CRAFTED = {
    call.__name__: call
    for call in (
        too_few_positive,
        no_admissible_k,
        nonpositive_threshold,
        all_censored,
        nonpositive_index,
        heavy_tail,
        premium_overflow,
        divergent_premium,
        premium_not_converged,
    )
}


def test_names_are_unique_and_each_has_a_crafted_input():
    names = [name for name, _ in REASONS]
    assert len(set(names)) == len(names)
    assert list(CRAFTED) == names
    assert _CODE == {name: code for code, name in enumerate(names)}


@pytest.mark.parametrize("name", list(CRAFTED))
def test_every_entry_is_raised_by_its_check(monkeypatch, name):
    with pytest.raises(DomainError) as caught:
        CRAFTED[name](monkeypatch)
    assert caught.value.reason == name
    # Every text of the entry comes from its template: the words between
    # the fields are the template's own.
    template = REASONS[_CODE[name]][1]
    for piece in template.replace("}", "{").split("{")[::2]:
        assert piece in str(caught.value)


def test_failure_fills_the_template_and_names_the_reason():
    error = _failure(_CODE["all_censored"], k=7, unused=1.0)
    assert isinstance(error, DomainError)
    assert error.reason == "all_censored"
    assert str(error) == (
        "all of the top k=7 observations are censored; the "
        "censoring-corrected tail index is undefined"
    )
    assert DomainError("other").reason is None


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: BurrModel(True, 0.25), "gamma"),
        (lambda: BurrModel(0.1, True), "eta"),
        (lambda: ParetoModel(0.1, x_min=True), "x_min"),
        (lambda: BurrModel(0.1, 0.25).premium(True, 1.0), "rho"),
        (lambda: normalization_factor(1.0, True, 0.5, 0.1, 1.0), "h"),
    ],
    ids=["burr-gamma", "burr-eta", "pareto-x_min", "premium-rho", "normalization-h"],
)
def test_positive_fields_reject_a_bool(build, field):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == f"{field} must be a number, not a bool, got True"


# Every public function that takes a number of upper order statistics, as a
# call on a 20-record sample.  ``tail_index_path`` names its bound k_max;
# ``confidence_interval`` takes no sample size, so it is not here.
K_SAMPLE = sample_from_pairs([(float(v), v % 3 > 0) for v in range(1, 21)])
K_CALLS = {
    "km_survival_at_threshold": lambda k: km_survival_at_threshold(K_SAMPLE, k),
    "hill_estimator": lambda k: hill_estimator(K_SAMPLE, k),
    "uncensored_proportion": lambda k: uncensored_proportion(K_SAMPLE, k),
    "censored_hill": lambda k: censored_hill(K_SAMPLE, k),
    "weissman_tail": lambda k: weissman_tail(K_SAMPLE, k, 30.0),
    "php_estimate": lambda k: php_estimate(K_SAMPLE, EstimationSettings(k=k, rho=1.0)),
    "validate_settings": lambda k: validate_settings(
        EstimationSettings(k=k, rho=1.0), K_SAMPLE.n
    ),
    "h_threshold": lambda k: h_threshold(burr_scheme(0.1, 0.4, 0.25), k, K_SAMPLE.n),
    "tail_index_path": lambda k: tail_index_path(K_SAMPLE, k),
}


@pytest.mark.parametrize("k", [0, 20])
@pytest.mark.parametrize("name", list(K_CALLS))
def test_k_out_of_range_is_one_error(name, k):
    # One class and one text wherever k leaves 1 <= k < n.
    bound = "k_max" if name == "tail_index_path" else "k"
    with pytest.raises(ValidationError) as caught:
        K_CALLS[name](k)
    assert type(caught.value) is ValidationError
    assert str(caught.value) == (
        f"{bound} must satisfy 1 <= {bound} < n, got {bound}={k} with n=20"
    )
