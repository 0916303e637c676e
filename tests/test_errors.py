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
    censored_hill,
    hill_estimator,
    normalization_factor,
    php_estimate,
    reiss_thomas_k,
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
