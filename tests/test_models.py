"""Parametric models, censored sampling, exact premiums, thresholds."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tailpremium import (
    BurrModel,
    CensoringScheme,
    DomainError,
    ParetoModel,
    ValidationError,
    burr_scheme,
    gamma2_from_p,
    h_threshold,
)
from tailpremium import models

from helpers import (
    karamata_premium,
    mp_burr_survival,
    mp_layer_premium,
    mp_pareto_survival,
    mp_premium,
)


class TestBurrModel:
    def test_survival_at_zero(self):
        assert BurrModel(0.1, 0.25).survival(0.0) == 1.0

    def test_survival_hand_value(self):
        assert BurrModel(0.1, 0.25).survival(1.0) == pytest.approx(
            0.0625, rel=1e-12
        )

    @pytest.mark.parametrize("gamma, eta", [(0.05, 1.0), (0.1, 2.5)])
    def test_survival_far_out_matches_oracle(self, gamma, eta):
        # (eta/gamma) * log(1e16) > 709: the power x**(eta/gamma) overflows
        model = BurrModel(gamma, eta)
        want = float(mp_burr_survival(gamma, eta)(mpmath.mpf(1e16)))
        # (0.05, 1.0) gives the subnormal 1e-320, held to about 11 bits
        assert model.survival(1e16) == pytest.approx(want, rel=1e-12, abs=1e-323)
        out = model.survival(np.array([0.0, 1e16, 1e300]))
        assert out.tolist() == [1.0, model.survival(1e16), 0.0]

    def test_survival_rejects_negative(self):
        with pytest.raises(DomainError, match="x >= 0"):
            BurrModel(0.1, 0.25).survival(-0.5)

    def test_survival_vectorized(self):
        out = BurrModel(0.5, 1.0).survival(np.array([0.0, 1.0, 3.0]))
        assert out.shape == (3,)
        assert out[0] == 1.0

    def test_quantile_of_survival_one_is_zero(self):
        assert BurrModel(0.1, 0.25).quantile_of_survival(1.0) == 0.0

    def test_quantile_hand_value(self):
        assert BurrModel(0.1, 0.25).quantile_of_survival(0.0625) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_quantile_rejects_out_of_range(self):
        model = BurrModel(0.1, 0.25)
        for s in (0.0, -0.1, 1.5, np.nextafter(1.0, 2.0)):
            with pytest.raises(DomainError, match="survival level"):
                model.quantile_of_survival(s)

    def test_round_trip_grid(self):
        model = BurrModel(0.1, 0.25)
        grid = np.geomspace(1e-6, 0.999, 40)
        back = model.survival(model.quantile_of_survival(grid))
        assert np.allclose(back, grid, rtol=1e-12, atol=0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            BurrModel(0.0, 0.25)
        with pytest.raises(ValidationError):
            BurrModel(0.1, -1.0)

    def test_power_law_doubling_limit(self):
        # F(2t)/F(t) approaches 2**(-1/gamma) far out in the tail.
        model = BurrModel(0.1, 0.25)
        t = 1e6
        ratio = model.survival(2 * t) / model.survival(t)
        assert ratio == pytest.approx(2.0**-10, rel=1e-4)


class TestParetoModel:
    def test_survival_hand_value(self):
        assert ParetoModel(0.2).survival(10.0) == pytest.approx(1e-5, rel=1e-12)

    def test_survival_at_scale_is_one(self):
        assert ParetoModel(0.3, x_min=2.5).survival(2.5) == 1.0

    def test_survival_rejects_below_scale(self):
        with pytest.raises(DomainError, match="x_min"):
            ParetoModel(0.2).survival(0.5)

    def test_round_trip_grid(self):
        model = ParetoModel(0.35, x_min=3.0)
        grid = np.geomspace(1e-6, 1.0, 25)
        back = model.survival(model.quantile_of_survival(grid))
        assert np.allclose(back, grid, rtol=1e-12, atol=0.0)

    def test_second_order_rate_is_zero(self):
        assert ParetoModel(0.2).second_order_rate(5.0) == 0.0
        assert np.all(ParetoModel(0.2).second_order_rate(np.array([1.0, 1e6])) == 0.0)


class TestGamma2FromP:
    def test_symmetric_point(self):
        assert gamma2_from_p(0.37, 0.5) == pytest.approx(0.37, rel=1e-15)

    def test_hand_values(self):
        assert gamma2_from_p(0.1, 0.4) == pytest.approx(0.0666666666667, rel=1e-9)
        assert gamma2_from_p(0.25, 0.8) == pytest.approx(1.0, rel=1e-12)

    def test_back_substitution(self):
        for gamma1, p in [(0.1, 0.4), (0.25, 0.8), (0.7, 0.15)]:
            gamma2 = gamma2_from_p(gamma1, p)
            assert gamma2 / (gamma1 + gamma2) == pytest.approx(p, rel=1e-13)

    def test_rejects_degenerate_p(self):
        for p in (0.0, 1.0, -0.2, 1.1):
            with pytest.raises(ValidationError, match="p must"):
                gamma2_from_p(0.1, p)


class TestCensoringScheme:
    def test_population_quantities(self):
        scheme = burr_scheme(0.1, 0.4, 0.25)
        assert scheme.uncensored_share == pytest.approx(0.4, rel=1e-12)

    def test_observed_survival_is_product(self):
        scheme = burr_scheme(0.1, 0.4, 0.25)
        x = 3.7
        expected = scheme.loss_model.survival(x) * scheme.censor_model.survival(x)
        assert scheme.observed_survival(x) == pytest.approx(expected, rel=1e-12)

    def test_observed_survival_extends_below_support(self):
        scheme = CensoringScheme(ParetoModel(0.1), ParetoModel(0.15))
        assert scheme.observed_survival(0.5) == 1.0

    def test_sampling_is_deterministic(self):
        scheme = burr_scheme(0.1, 0.6, 0.25)
        z1, d1 = scheme.sample_arrays(500, np.random.default_rng(99))
        z2, d2 = scheme.sample_arrays(500, np.random.default_rng(99))
        assert np.array_equal(z1, z2)
        assert np.array_equal(d1, d2)

    def test_degenerate_high_censor_never_censors(self):
        scheme = CensoringScheme(
            loss_model=BurrModel(0.1, 0.25),
            censor_model=ParetoModel(0.05, x_min=1e12),
        )
        _, delta = scheme.sample_arrays(2000, np.random.default_rng(7))
        assert np.all(delta == 1)

    def test_rejects_bad_n(self):
        scheme = burr_scheme(0.1, 0.6, 0.25)
        with pytest.raises(ValidationError, match="n must"):
            scheme.sample_arrays(0, np.random.default_rng(1))

    def test_one_record_is_enough(self):
        z, delta = burr_scheme(0.1, 0.6, 0.25).sample_arrays(
            1, np.random.default_rng(1)
        )
        assert z.shape == delta.shape == (1,)

    def test_uncensored_share_against_quadrature(self):
        # Empirical mean of delta vs P(X <= Y) computed by quadrature.
        scheme = burr_scheme(0.1, 0.6, 0.25)
        _, delta = scheme.sample_arrays(100_000, np.random.default_rng(123))
        censor = scheme.censor_model

        def integrand(u):
            return censor.survival(scheme.loss_model.quantile_of_survival(u))

        expected, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
        assert abs(float(np.mean(delta)) - expected) <= 0.01

    @pytest.mark.slow
    def test_top_k_uncensored_share_near_p(self):
        scheme = burr_scheme(0.1, 0.6, 0.25)
        z, delta = scheme.sample_arrays(100_000, np.random.default_rng(321))
        order = np.argsort(z, kind="stable")
        top_flags = delta[order][-1000:]
        assert abs(float(np.mean(top_flags)) - 0.6) <= 0.05


# Table-1 models, and ones whose exponents hit the shortcuts of ``**``
# (-1 a reciprocal, 0.5 a root, 2 a square).
TRANSFORM_MODELS = [
    BurrModel(0.1, 0.25),
    BurrModel(0.5, 0.25),
    BurrModel(0.5, 1.0),
    ParetoModel(0.5, x_min=2.0),
    ParetoModel(1.0),
]


def plain_quantile(model, s):
    """The quantile as one operator expression, on new temporaries."""
    if isinstance(model, BurrModel):
        return (s ** (-model.eta) - 1.0) ** (model.gamma / model.eta)
    return model.x_min * s ** (-model.gamma)


survival_levels = st.lists(
    st.one_of(
        st.sampled_from([1.0, 0.5, 0.25, 5e-324]),
        st.floats(min_value=5e-324, max_value=1.0),
    ),
    min_size=1,
    max_size=30,
)


@st.composite
def uniform_blocks(draw):
    """Uniforms of shape ``(2, n)`` or ``(B, 2, n)``, with zeros and ties."""
    shape = draw(
        st.one_of(
            st.tuples(st.just(2), st.integers(1, 30)),
            st.tuples(st.integers(1, 4), st.just(2), st.integers(1, 20)),
        )
    )
    size = int(np.prod(shape))
    values = st.one_of(
        st.sampled_from([0.0, 0.5, 0.75]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(
        shape
    )


class TestInPlaceTransform:
    """The quantiles and records written in place keep the operators' bits."""

    @pytest.mark.parametrize("model", TRANSFORM_MODELS, ids=repr)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(values=survival_levels)
    def test_quantile_keeps_the_operator_bits(self, model, values):
        # A reciprocal of the smallest subnormal overflows, in both forms.
        with np.errstate(over="ignore"):
            self.check_quantile(model, values)

    @staticmethod
    def check_quantile(model, values):
        s = np.array(values)
        want = plain_quantile(model, s.copy()).tobytes()
        before = s.tobytes()
        assert model.quantile_of_survival(s).tobytes() == want
        out = np.full_like(s, np.nan)
        assert model.quantile_of_survival(s, out=out) is out
        assert out.tobytes() == want
        assert s.tobytes() == before
        assert model.quantile_of_survival(s, out=s) is s
        assert s.tobytes() == want
        # A scalar level takes the same array arithmetic as a one-element array.
        level = values[0]
        assert np.float64(model.quantile_of_survival(level)).tobytes() == (
            plain_quantile(model, np.array([level])).tobytes()
        )

    @pytest.mark.parametrize(
        "scheme",
        [
            burr_scheme(0.1, 0.6, 0.25),
            CensoringScheme(BurrModel(0.5, 0.25), ParetoModel(1.0)),
            CensoringScheme(ParetoModel(0.5, x_min=2.0), BurrModel(0.5, 1.0)),
        ],
        ids=["table1", "burr-pareto", "pareto-burr"],
    )
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(uniforms=uniform_blocks())
    def test_records_keep_the_plain_transform(self, scheme, uniforms):
        x = plain_quantile(scheme.loss_model, 1.0 - uniforms[..., 0, :])
        y = plain_quantile(scheme.censor_model, 1.0 - uniforms[..., 1, :])
        want_z, want_delta = np.minimum(x, y), (x <= y).astype(np.int64)
        before = uniforms.tobytes()
        z, delta = scheme.records(uniforms)
        assert uniforms.tobytes() == before
        np.testing.assert_array_equal(z.view(np.uint64), want_z.view(np.uint64))
        np.testing.assert_array_equal(delta, want_delta, strict=True)
        # In place, in the draw layout and half-major as the study keeps it.
        half_major = np.ascontiguousarray(np.moveaxis(uniforms, -2, 0))
        for scratch in (uniforms.copy(), np.moveaxis(half_major, 0, -2)):
            flags = np.empty(want_delta.shape, np.int64)
            z, delta = scheme.records(scratch, out=flags)
            assert delta is flags
            assert np.shares_memory(z, scratch)
            np.testing.assert_array_equal(z.view(np.uint64), want_z.view(np.uint64))
            np.testing.assert_array_equal(delta, want_delta, strict=True)


class TestTheoreticalPremium:
    def test_pareto_closed_form(self):
        value = ParetoModel(0.2).premium(1.0, 10.0)
        assert value == pytest.approx(2.5e-5, rel=1e-9)

    def test_divergent_integral_guard(self):
        with pytest.raises(DomainError, match="diverges"):
            ParetoModel(0.95).premium(1.1, 10.0)

    def test_rejects_bad_retention(self):
        with pytest.raises(ValidationError, match="retention"):
            ParetoModel(0.2).premium(1.0, 0.0)

    def test_karamata_limit_far_out(self):
        # The ratio tends to 1 like 1 + 0.87 * R**(-2.5) for this model:
        # about 2.9% at survival 1e-6 and 0.6% at 1e-9.
        model = BurrModel(0.1, 0.25)
        gaps = []
        for level, bound in [(1e-6, 0.03), (1e-9, 0.006)]:
            retention = model.quantile_of_survival(level)
            exact = model.premium(1.0, retention)
            approx = karamata_premium(
                mp_burr_survival(0.1, 0.25), 0.1, 1.0, retention
            )
            gap = abs(exact / approx - 1.0)
            assert gap <= bound
            gaps.append(gap)
        assert gaps[1] < gaps[0]

    def test_decreasing_in_retention_increasing_in_rho(self):
        # A flatter distortion exponent 1/rho lifts the integrand
        # survival**(1/rho), so the premium grows with rho.
        model = BurrModel(0.2, 0.5)
        values_r = [model.premium(1.0, r) for r in (1.0, 2.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(values_r, values_r[1:]))
        values_rho = [model.premium(rho, 5.0) for rho in (1.0, 1.2, 1.5)]
        assert all(a < b for a, b in zip(values_rho, values_rho[1:]))

    def test_burr_matches_quadrature_oracle(self):
        worst = 0.0
        for gamma in (0.05, 0.1, 0.25, 0.4):
            for eta in (0.1, 0.25, 0.5, 1.0):
                survival = mp_burr_survival(gamma, eta)
                for rho in (1.0, 1.1, 1.5):
                    for retention in (0.5, 3.0, 50.0, 1e3, 1e4, 1e16, 1e50, 1e300):
                        want = mp_premium(
                            survival, gamma, rho, retention, knots=(1.0,)
                        )
                        got = BurrModel(gamma, eta).premium(rho, retention)
                        if want == 0.0:
                            # below the smallest double: the oracle underflowed
                            assert got == 0.0
                        else:
                            worst = max(worst, abs(got / want - 1.0))
        assert worst <= 1e-10

    @pytest.mark.parametrize(
        "gamma, eta, rho, retention",
        [
            (0.05, 1.0, 1.0, 0.1),
            (0.05, 1.0, 1.0, 0.3),
            (0.1, 1.0, 1.0, 0.05),
            (0.05, 1.0, 1.0, 1e-3),
        ],
    )
    def test_burr_matches_quadrature_oracle_below_the_knee(
        self, gamma, eta, rho, retention
    ):
        # R**(eta/gamma) is small here, so 1 - t is far below t's rounding.
        want = mp_premium(
            mp_burr_survival(gamma, eta), gamma, rho, retention, knots=(1.0,)
        )
        got = BurrModel(gamma, eta).premium(rho, retention)
        assert abs(got / want - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "gamma, eta, rho, retention",
        [(0.05, 1.0, 1.0, 1e-3), (0.1, 0.25, 1.0, 1e-3), (0.4, 1.0, 1.5, 1e-2)],
    )
    def test_quadrature_oracles_agree_far_below_the_knee(
        self, gamma, eta, rho, retention
    ):
        # Most of the integral lies between R and the knee, where a tail
        # substitution from R would put almost no nodes.
        survival = mp_burr_survival(gamma, eta)
        want = mp_layer_premium(survival, rho, retention, knots=(1.0,))
        got = mp_premium(survival, gamma, rho, retention, knots=(1.0,))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "gamma, eta, rho, retention",
        [
            (0.05, 0.1, 1.0, 1e-3),
            (0.05, 1.0, 1.5, 0.5),
            (0.1, 0.25, 1.0, 1e-3),
            (0.4, 1.0, 1.0, 1e-3),
        ],
    )
    def test_burr_premium_past_the_mirror_cut(self, gamma, eta, rho, retention):
        # t lies so far past the cut (p + 1)/(p + q + 2) that the fraction
        # of B_t(p, q) itself does not converge in _BETA_TERMS terms; the
        # mirrored fraction of B_(1-t)(q, p) needs a few.
        want = mp_layer_premium(
            mp_burr_survival(gamma, eta), rho, retention, knots=(1.0, 2.0)
        )
        got = BurrModel(gamma, eta).premium(rho, retention)
        assert got == pytest.approx(want, rel=1e-12)

    def test_burr_premium_where_the_power_underflows(self):
        # R**(eta/gamma) = 1e-400 rounds to 0, leaving the whole integral
        # b * B(a - b, b); pytest turns any RuntimeWarning into an error.
        gamma, eta, rho = 0.05, 1.0, 1.0
        a, b = 1.0 / (eta * rho), gamma / eta
        want = float(b * mpmath.beta(a - b, b))
        got = BurrModel(gamma, eta).premium(rho, 1e-20)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("retention", [0.5, 2.0, 100.0])
    @pytest.mark.parametrize("gamma, rho", [(0.2, 1.0), (0.4, 1.1)])
    def test_pareto_matches_quadrature_oracle(self, gamma, rho, retention):
        # x_min = 2 puts R = 0.5 below the support, where survival is 1.
        want = mp_premium(
            mp_pareto_survival(gamma, 2.0), gamma, rho, retention, knots=(2.0,)
        )
        got = ParetoModel(gamma, x_min=2.0).premium(rho, retention)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "model",
        [
            BurrModel(0.1, 0.25),
            BurrModel(0.4, 1.0),
            ParetoModel(0.2, 2.0),
            BurrModel(0.05, 1.0),
            BurrModel(0.3, 0.002),
        ],
    )
    def test_array_premium_equals_scalar_calls(self, model):
        # The continued fraction of BurrModel(0.05, 1.0) is mirrored below
        # R = 0.86 and takes 10 or 11 terms at R = 1, against at most 6 at
        # the other retentions up to 1e3; that of BurrModel(0.3, 0.002) is
        # mirrored up to R = 1e-55, where it takes 23 to 31 terms, against
        # 7 to 15 elsewhere.
        retentions = np.array(
            [1e-80, 1e-55, 1e-20, 0.05, 0.5, 0.8, 1.0, 2.0, 7.5, 1e3, 1e30]
        )
        for rho in (1.0, 1.1):
            out = model.premium(rho, retentions)
            assert out.shape == retentions.shape
            scalars = [model.premium(rho, float(r)) for r in retentions]
            assert all(isinstance(v, float) for v in scalars)
            assert np.array_equal(out, scalars)
            assert scalars == [model.premium(rho, r) for r in retentions]
            assert model.premium(rho, retentions[:0]).shape == (0,)

    def test_burr_premium_raises_when_the_fraction_does_not_converge(
        self, monkeypatch
    ):
        monkeypatch.setattr(models, "_BETA_TERMS", 1)
        # p = 1/(eta*rho) - gamma/eta and q = gamma/eta, at rho = 1.25.
        message = r"^incomplete beta B_t\(2\.8, 0\.4\) did not converge in 1 "
        with pytest.raises(DomainError, match=message):
            BurrModel(0.1, 0.25).premium(1.25, np.array([1.0, 3.0]))

    @pytest.mark.parametrize(
        "model, terms",
        [(BurrModel(0.05, 1.0), 8), (BurrModel(0.3, 0.002), 9)],
        ids=["one-slow-entry", "mixed"],
    )
    def test_the_term_cap_fails_each_entry_on_its_own(
        self, monkeypatch, model, terms
    ):
        # The entries need from 1 to 31 terms (see the array test above);
        # the cap falls between them, so some converge and some do not.
        retentions = np.array(
            [1e-80, 1e-55, 1e-20, 0.05, 0.5, 0.8, 1.0, 2.0, 7.5, 1e3, 1e30]
        )
        monkeypatch.setattr(models, "_BETA_TERMS", terms)
        for rho in (1.0, 1.1):
            scalars, reasons = [], []
            for r in retentions:
                try:
                    scalars.append(model.premium(rho, float(r)))
                except DomainError as exc:
                    scalars.append(np.nan)
                    reasons.append(str(exc))
            assert 0 < len(reasons) < retentions.size
            [message] = set(reasons)
            assert message.startswith("incomplete beta B_t(")
            assert message.endswith(
                f"did not converge in {terms} continued-fraction terms"
            )
            with pytest.raises(DomainError) as raised:
                model.premium(rho, retentions)
            assert str(raised.value) == message
            assert raised.value.reason == "premium_not_converged"
            out = model._premium_entries(rho, retentions)
            np.testing.assert_array_equal(out, scalars, strict=True)
            converged = ~np.isnan(scalars)
            assert model.premium(rho, retentions[converged]).tolist() == [
                value for value, ok in zip(scalars, converged) if ok
            ]

    def test_burr_premium_runs_the_fraction_short_of_the_far_tail_only(
        self, monkeypatch
    ):
        # R = 1e16 is priced by the log-space term, so the fraction must not
        # run there: 4 terms price R = 2 and 1e3 in full, but not t = 1/2.
        model = BurrModel(0.05, 1.0)
        retentions = np.array([2.0, 1e3, 1e16])
        full = model.premium(1.0, retentions)
        monkeypatch.setattr(models, "_BETA_TERMS", 4)
        capped = model.premium(1.0, retentions)
        assert capped.tolist() == full.tolist() == [
            1.0038672350730173e-07,
            5.263157894736866e-59,
            5.26315789473657e-306,
        ]

    # At a tail index of 0.5, rho * tail_index is the bound 1 itself.
    @pytest.mark.parametrize(
        "model",
        [
            BurrModel(0.6, 0.25),
            ParetoModel(0.6),
            BurrModel(0.5, 0.25),
            ParetoModel(0.5),
        ],
    )
    def test_premium_method_guards(self, model):
        with pytest.raises(DomainError, match="diverges"):
            model.premium(2.0, np.array([1.0, 2.0]))
        with pytest.raises(ValidationError, match="retention"):
            model.premium(1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValidationError, match="rho"):
            model.premium(float("nan"), 1.0)


class TestHThreshold:
    def test_pareto_closed_form(self):
        gamma1, gamma2 = 0.1, 0.0666666666666667
        scheme = CensoringScheme(ParetoModel(gamma1), ParetoModel(gamma2))
        gamma = gamma1 * gamma2 / (gamma1 + gamma2)
        k, n = 100, 1000
        h = h_threshold(scheme, k, n)
        assert h == pytest.approx((k / n) ** -gamma, rel=1e-9)

    def test_defining_equation(self):
        scheme = burr_scheme(0.1, 0.4, 0.25)
        for k, n in [(100, 1000), (46, 5000)]:
            h = h_threshold(scheme, k, n)
            assert scheme.observed_survival(h) == pytest.approx(
                k / n, rel=1e-10
            )

    @pytest.mark.parametrize(
        "scheme, k, n",
        [
            # roots far below 1e-12
            (burr_scheme(0.5, 0.9, 0.1), 99, 100),
            (burr_scheme(0.25, 0.9, 0.1), 500, 1000),
            # a root below the censor's support bound
            (CensoringScheme(BurrModel(0.2, 0.5), ParetoModel(0.3, 2.0)), 100, 1000),
            # the censor survival is 1 at the upper bracket end
            (burr_scheme(0.1, 0.9, 0.25), 99, 100),
        ],
    )
    def test_defining_equation_on_extreme_designs(self, scheme, k, n):
        h = h_threshold(scheme, k, n)
        assert scheme.observed_survival(h) == pytest.approx(k / n, rel=1e-10)

    def test_root_below_the_loss_support(self):
        # Below x_min = 3 the loss survival is 1, so the censor alone sets h.
        scheme = CensoringScheme(ParetoModel(0.2, 3.0), ParetoModel(0.3, 1.5))
        assert h_threshold(scheme, 100, 1000) == pytest.approx(
            1.5 * 0.1**-0.3, rel=1e-12
        )

    def test_identical_models_closed_form(self):
        # S_obs = S**2, so h is the loss quantile at sqrt(k/n).
        scheme = burr_scheme(0.25, 0.5, 0.25)
        for k, n in [(46, 5000), (500, 1000)]:
            assert h_threshold(scheme, k, n) == pytest.approx(
                BurrModel(0.25, 0.25).quantile_of_survival((k / n) ** 0.5),
                rel=1e-12,
            )

    def test_rejects_bad_k(self):
        scheme = burr_scheme(0.1, 0.4, 0.25)
        with pytest.raises(ValidationError, match="k must"):
            h_threshold(scheme, 0, 100)
        with pytest.raises(ValidationError, match="k must"):
            h_threshold(scheme, 100, 100)

    def test_root_is_the_nearest_double(self):
        # The bisection ends on two adjacent doubles and keeps the one nearer
        # the target, so on this monotone survival neither neighbour of the
        # root is nearer.  Every k here takes the bisection.
        scheme, n = burr_scheme(0.1, 0.6, 0.25), 1000
        for k in range(1, n // 2, 7):
            h = h_threshold(scheme, k, n)
            gaps = [
                abs(scheme.observed_survival(x) - k / n)
                for x in (np.nextafter(h, 0.0), h, np.nextafter(h, np.inf))
            ]
            assert gaps[1] <= min(gaps[0], gaps[2]), k

    @pytest.mark.parametrize("k, n", [(1, 4), (3, 10)])
    def test_no_double_meets_the_equation(self, k, n):
        # At gamma = 1e-7 the observed survival falls by about 4e-9 relative
        # from one double to the next near its root, past the 1e-10
        # tolerance.  (1, 4) bisects down to two adjacent doubles; (3, 10)
        # takes the lower end of its bracket.
        scheme = CensoringScheme(ParetoModel(1e-7), ParetoModel(1e-7))
        with pytest.raises(DomainError, match="did not converge"):
            h_threshold(scheme, k, n)

    @pytest.mark.parametrize("k, n", [(True, 10), (3, True), (2.0, 10)])
    def test_rejects_a_non_integer_k_or_n(self, k, n):
        # A bool is not an integer here, as for every count in the package.
        with pytest.raises(ValidationError, match="k and n must be integers"):
            h_threshold(burr_scheme(0.1, 0.4, 0.25), k, n)


class TestSecondOrderRate:
    def test_burr_hand_value(self):
        assert BurrModel(0.1, 0.25).second_order_rate(1.0) == pytest.approx(
            0.1, rel=1e-12
        )

    def test_decreases_to_zero(self):
        model = BurrModel(0.1, 0.25)
        grid = np.geomspace(1.0, 1e8, 30)
        values = model.second_order_rate(grid)
        assert np.all(np.diff(values) < 0.0)
        assert values[-1] < 1e-20

    def test_rejects_non_positive_t(self):
        for model in (BurrModel(0.1, 0.25), ParetoModel(0.5)):
            with pytest.raises(DomainError, match="t > 0"):
                model.second_order_rate(0.0)

    def test_second_order_expansion_oracle(self):
        # (F(tx)/F(t) - x**(-1/g)) / A1(t) approaches
        # x**(-1/g) * (x**(tau/g) - 1) / (g * tau).  The deviation from the
        # limit at t = 1e6 is ~1e-15 relative while the compared difference
        # has cancelled away 15 digits, so the whole check runs in 60-digit
        # arithmetic with the parameters as exact rationals (feeding the
        # binary double 0.1 in as gamma would shift the subtracted power's
        # exponent by 4e-16 relative -- an 11% error after cancellation).
        with mpmath.workdps(60):
            gamma = mpmath.mpf(1) / 10
            eta = mpmath.mpf(1) / 4
            tau = -eta
            t = mpmath.mpf(10) ** 6
            x = mpmath.mpf(2)

            def survival(v):
                return (1 + v ** (eta / gamma)) ** (-1 / eta)

            a1 = gamma * t ** (-eta / gamma)
            ratio = (survival(t * x) / survival(t) - x ** (-1 / gamma)) / a1
            expected = x ** (-1 / gamma) * (x ** (tau / gamma) - 1) / (gamma * tau)
            assert abs(ratio - expected) <= 1e-3 * abs(expected)
            # the library's A1 agrees with the exact rate used above
            assert BurrModel(0.1, 0.25).second_order_rate(1e6) == pytest.approx(
                float(a1), rel=1e-12
            )


@pytest.mark.parametrize(
    "value", [np.nan, np.array([1.0, np.nan])], ids=["scalar", "array"]
)
@pytest.mark.parametrize(
    "method, message",
    [
        ("survival", "survival requires x"),
        ("quantile_of_survival", "survival level"),
        ("second_order_rate", "second-order rate"),
    ],
)
@pytest.mark.parametrize(
    "model", [BurrModel(0.1, 0.25), ParetoModel(0.2)], ids=["burr", "pareto"]
)
def test_nan_fails_the_model_guards(model, method, message, value):
    # 1.0 passes every guard on its own, so only the NaN can trip it.
    with pytest.raises(DomainError, match=message):
        getattr(model, method)(value)
