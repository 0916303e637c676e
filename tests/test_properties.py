"""Property suite: invariances that must hold on every valid input.

Kept fast and fully derandomized so the whole file runs standalone in
seconds; each property is exercised on a couple dozen generated cases.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tailpremium import (
    BurrModel,
    DomainError,
    EstimationSettings,
    ParetoModel,
    SortedCensoredSample,
    censored_hill,
    hill_estimator,
    kaplan_meier_survival,
    php_estimate,
    reiss_thomas_k,
)
from tailpremium.cli import main

# Applied to this file's tests one by one, not loaded as a profile, so that
# the settings of other test files do not depend on which files are imported.
quick = settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dyadic_scales = st.integers(min_value=-8, max_value=8).map(lambda j: 2.0**j)
survival_levels = st.floats(min_value=1e-8, max_value=0.999)


def heavy_sample(seed, n=80):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.05, 0.45)
    z = (1.0 - rng.random(n)) ** -gamma
    delta = (rng.random(n) < rng.uniform(0.4, 1.0)).astype(np.int64)
    return SortedCensoredSample.from_unsorted(z, delta)


def rescaled(sample, c):
    return SortedCensoredSample(c * sample.z_sorted, sample.delta_concomitant)


@quick
@given(seed=seeds, c=dyadic_scales)
def test_hill_is_scale_invariant(seed, c):
    sample = heavy_sample(seed)
    assert hill_estimator(rescaled(sample, c), 20) == pytest.approx(
        hill_estimator(sample, 20), rel=1e-12, abs=1e-12
    )


@quick
@given(seed=seeds, c=dyadic_scales)
def test_threshold_choice_is_scale_invariant(seed, c):
    sample = heavy_sample(seed, n=150)
    try:
        base = reiss_thomas_k(sample)
    except DomainError:
        assume(False)
    assert reiss_thomas_k(rescaled(sample, c)).k_star == base.k_star


@quick
@given(seed=seeds, c=st.floats(min_value=1e-3, max_value=1e3))
def test_premium_is_degree_one_homogeneous(seed, c):
    sample = heavy_sample(seed)
    estimates = censored_hill(sample, 20)
    assume(1.1 * estimates.gamma1_hat < 0.95)
    retention = 1.3 * float(sample.z_sorted[sample.n - 21])
    base = php_estimate(
        sample, EstimationSettings(k=20, rho=1.1, retention=retention)
    )
    scaled = php_estimate(
        rescaled(sample, c),
        EstimationSettings(k=20, rho=1.1, retention=c * retention),
    )
    assert scaled.value == pytest.approx(c * base.value, rel=1e-10)


@quick
@given(seed=seeds)
def test_kaplan_meier_never_increases(seed):
    sample = heavy_sample(seed)
    grid = np.linspace(0.0, float(sample.z_sorted[-1]) * 0.999, 60)
    values = [kaplan_meier_survival(sample, x) for x in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


@quick
@given(
    s=survival_levels,
    gamma=st.floats(min_value=0.05, max_value=0.95),
    eta=st.floats(min_value=0.1, max_value=2.0),
)
def test_burr_round_trip(s, gamma, eta):
    model = BurrModel(gamma=gamma, eta=eta)
    assert model.survival(model.quantile_of_survival(s)) == pytest.approx(
        s, rel=1e-12
    )


@quick
@given(
    s=survival_levels,
    gamma=st.floats(min_value=0.05, max_value=0.95),
    x_min=st.floats(min_value=0.1, max_value=100.0),
)
def test_pareto_round_trip(s, gamma, x_min):
    model = ParetoModel(gamma=gamma, x_min=x_min)
    assert model.survival(model.quantile_of_survival(s)) == pytest.approx(
        s, rel=1e-12
    )


def _outcome(func, *args):
    try:
        return func(*args)
    except DomainError as exc:
        return repr(exc)


def _cli_outputs(directory, name, z, delta):
    claims = os.path.join(directory, name + ".csv")
    curve = os.path.join(directory, name + "_km.csv")
    with open(claims, "w") as handle:
        handle.write("z,delta\n")
        handle.writelines(f"{a!r},{b}\n" for a, b in zip(z.tolist(), delta.tolist()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", claims, "--rho", "1", "--auto-k"])
        assert main(["km", claims, "--out", curve]) == 0
    with open(curve, "rb") as handle:
        return code, out.getvalue(), err.getvalue().replace(name, ""), handle.read()


@quick
@given(seed=seeds, shuffle_seed=seeds)
def test_input_order_is_irrelevant(seed, shuffle_seed):
    # A coarse grid makes blocks of tied values with mixed flags.
    rng = np.random.default_rng(seed)
    z = np.round((1.0 - rng.random(80)) ** -0.25, 1)
    delta = rng.integers(0, 2, size=80)
    order = np.random.default_rng(shuffle_seed).permutation(80)
    original = SortedCensoredSample.from_unsorted(z, delta)
    shuffled = SortedCensoredSample.from_unsorted(z[order], delta[order])
    grid = np.unique(z)[:-1]
    assert np.array_equal(
        kaplan_meier_survival(shuffled, grid), kaplan_meier_survival(original, grid)
    )
    assert _outcome(reiss_thomas_k, shuffled) == _outcome(reiss_thomas_k, original)
    settings_ = EstimationSettings(k=10, rho=1.0)
    assert _outcome(php_estimate, shuffled, settings_) == _outcome(
        php_estimate, original, settings_
    )
    with tempfile.TemporaryDirectory() as directory:
        assert _cli_outputs(directory, "shuffled", z[order], delta[order]) == (
            _cli_outputs(directory, "original", z, delta)
        )
