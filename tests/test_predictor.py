"""Tests for fringe, correlation and CHSH predictions."""

import math

import numpy as np
import pytest

from dlczsim.predictor import (
    CANONICAL_ANGLES_DEG,
    CHSHResult,
    CountQuartet,
    FringeModel,
    MeasurementSetting,
    chsh_s,
    chsh_setting_table,
    coincidence_rate,
    correlation_e,
    predict_ideal_e,
    predict_ideal_s,
)

ETA_ALKALI = 0.81 * math.pi / 4


def rate(eta, amplitude, background, ts_deg, ti_deg):
    return coincidence_rate(
        FringeModel(eta=eta, amplitude=amplitude, background=background),
        MeasurementSetting(ts_deg, ti_deg),
    )


class TestCoincidenceRate:
    def test_balanced_mixing_reduces_to_cos_squared(self):
        """At eta = pi/4 the fringe is amplitude * cos^2(theta_s - theta_i)."""
        for ts in np.linspace(-90, 90, 13):
            for ti in np.linspace(-45, 135, 13):
                expected = 3.0 * math.cos(math.radians(ts - ti)) ** 2
                np.testing.assert_allclose(
                    rate(math.pi / 4, 3.0, 0.0, ts, ti), expected, atol=1e-12
                )

    def test_aligned_polarizers_reach_amplitude(self):
        np.testing.assert_allclose(rate(math.pi / 4, 5.0, 0.0, 30.0, 30.0), 5.0, rtol=1e-12)

    def test_unmixed_scheme_factorizes(self):
        """eta = 0 gives independent single-polarizer fringes."""
        for ts in np.linspace(0, 180, 7):
            for ti in np.linspace(0, 180, 7):
                expected = 2.0 * math.cos(math.radians(ts)) ** 2 * math.cos(math.radians(ti)) ** 2
                np.testing.assert_allclose(rate(0.0, 1.0, 0.0, ts, ti), expected, atol=1e-12)

    def test_background_is_floor(self):
        grid = np.linspace(-180, 180, 25)
        for ts in grid:
            for ti in grid[::3]:
                assert rate(ETA_ALKALI, 2.0, 0.7, ts, ti) >= 0.7 - 1e-15

    def test_period_is_pi_in_each_angle(self):
        for ts, ti in [(10.0, 40.0), (-35.0, 67.5)]:
            base = rate(ETA_ALKALI, 1.0, 0.2, ts, ti)
            np.testing.assert_allclose(rate(ETA_ALKALI, 1.0, 0.2, ts + 180, ti), base, rtol=1e-12)
            np.testing.assert_allclose(rate(ETA_ALKALI, 1.0, 0.2, ts, ti + 180), base, rtol=1e-12)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            FringeModel(eta=-0.2, amplitude=1.0)
        with pytest.raises(ValueError):
            FringeModel(eta=0.5, amplitude=-1.0)


class TestCorrelationE:
    def test_perfect_correlation(self):
        e, sigma = correlation_e(CountQuartet(100, 100, 0, 0))
        assert e == 1.0
        assert sigma == 0.0

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            correlation_e(CountQuartet(0, 0, 0, 0))
        with pytest.raises(ValueError):
            CountQuartet(-1, 0, 0, 0)

    def test_balanced_mixing_gives_cosine_correlation(self):
        """E from noiseless quartets equals cos(2(theta_s - theta_i))."""
        model = FringeModel(eta=math.pi / 4, amplitude=1.0)
        for ts in np.linspace(-90, 90, 20):
            for ti in np.linspace(-90, 90, 20):
                setting = MeasurementSetting(ts, ti)
                quartet = CountQuartet(
                    coincidence_rate(model, setting),
                    coincidence_rate(model, setting.perp_both()),
                    coincidence_rate(model, setting.perp_s()),
                    coincidence_rate(model, setting.perp_i()),
                )
                e, _ = correlation_e(quartet)
                np.testing.assert_allclose(
                    e, math.cos(2 * math.radians(ts - ti)), atol=1e-12
                )

    def test_canonical_setting_value(self):
        e = predict_ideal_e(math.pi / 4, MeasurementSetting(-22.5, 0.0))
        np.testing.assert_allclose(e, math.cos(math.radians(45.0)), atol=1e-12)

    def test_sigma_against_parametric_bootstrap(self):
        """First-order Poisson propagation vs brute-force resampling."""
        quartet = CountQuartet(520, 480, 130, 90)
        _, sigma = correlation_e(quartet)
        rng = np.random.default_rng(1234)
        draws = rng.poisson(
            lam=[quartet.co, quartet.co_perp, quartet.cross_s, quartet.cross_i],
            size=(100_000, 4),
        ).astype(float)
        totals = draws.sum(axis=1)
        es = (draws[:, 0] + draws[:, 1] - draws[:, 2] - draws[:, 3]) / totals
        np.testing.assert_allclose(sigma, es.std(), rtol=0.05)


class TestCHSHSum:
    def test_reference_quartet(self):
        """Four measured E values combine to S = 2.294 +/- 0.054."""
        e_pairs = [(0.641, 0.024), (0.587, 0.027), (0.471, 0.029), (-0.595, 0.027)]
        result = chsh_s(e_pairs)
        np.testing.assert_allclose(result.s, 2.294, atol=1e-12)
        np.testing.assert_allclose(
            result.sigma_s, math.sqrt(0.024**2 + 0.027**2 + 0.029**2 + 0.027**2), rtol=1e-12
        )
        assert isinstance(result, CHSHResult)
        assert result.angles_deg == CANONICAL_ANGLES_DEG

    def test_validation(self):
        with pytest.raises(ValueError):
            chsh_s([(0.5, 0.01)] * 3)
        with pytest.raises(ValueError):
            chsh_s([(1.5, 0.01)] + [(0.5, 0.01)] * 3)


class TestIdealS:
    def test_maximal_violation_at_balanced_mixing(self):
        np.testing.assert_allclose(predict_ideal_s(math.pi / 4), 2 * math.sqrt(2), atol=1e-12)

    def test_alkali_scheme_value(self):
        np.testing.assert_allclose(predict_ideal_s(ETA_ALKALI), 2.77, atol=0.01)

    def test_closed_form_oracle(self):
        """S at the canonical angles equals sqrt(2) * (1 + sin(2 eta))."""
        for eta in np.linspace(0.0, math.pi / 2, 41):
            np.testing.assert_allclose(
                predict_ideal_s(eta), math.sqrt(2) * (1 + math.sin(2 * eta)), atol=1e-12
            )

    def test_never_exceeds_quantum_bound(self):
        for eta in np.linspace(0.0, math.pi / 2, 101):
            assert abs(predict_ideal_s(eta)) <= 2 * math.sqrt(2) + 1e-12

    def test_symmetric_under_helicity_swap(self):
        for eta in np.linspace(0.0, math.pi / 2, 25):
            np.testing.assert_allclose(
                predict_ideal_s(eta), predict_ideal_s(math.pi / 2 - eta), atol=1e-12
            )

    def test_correlation_closed_form(self):
        """E(theta_s, theta_i) = [(1+sin 2eta)cos 2D + (1-sin 2eta)cos 2S]/2."""
        for eta in (0.0, 0.4, ETA_ALKALI, math.pi / 4):
            k = math.sin(2 * eta)
            for ts in np.linspace(-60, 60, 7):
                for ti in np.linspace(-60, 60, 7):
                    d = math.radians(ts - ti)
                    s = math.radians(ts + ti)
                    expected = ((1 + k) * math.cos(2 * d) + (1 - k) * math.cos(2 * s)) / 2
                    got = predict_ideal_e(eta, MeasurementSetting(ts, ti))
                    np.testing.assert_allclose(got, expected, atol=1e-12)


class TestSettingTable:
    def test_sixteen_settings_in_quartet_order(self):
        settings = chsh_setting_table()
        assert len(settings) == 16
        assert settings[0] == MeasurementSetting(-22.5, 0.0)
        assert settings[1] == MeasurementSetting(67.5, 90.0)
        assert settings[2] == MeasurementSetting(67.5, 0.0)
        assert settings[3] == MeasurementSetting(-22.5, 90.0)
        assert settings[4] == MeasurementSetting(22.5, 0.0)
        assert settings[12] == MeasurementSetting(22.5, -45.0)

    def test_radian_properties(self):
        s = MeasurementSetting(45.0, -90.0)
        np.testing.assert_allclose(s.theta_s_rad, math.pi / 4, rtol=1e-15)
        np.testing.assert_allclose(s.theta_i_rad, -math.pi / 2, rtol=1e-15)


class TestMeasurementSettingValues:
    def test_numbers_become_builtin_floats(self):
        for value in (22, 22.5, np.float64(22.5), np.float32(22.5), np.int64(22)):
            setting = MeasurementSetting(value, value)
            assert type(setting.theta_s_deg) is float and type(setting.theta_i_deg) is float
            assert setting.theta_s_deg == float(value)
        assert MeasurementSetting(np.float64(10), 0) == MeasurementSetting(10.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    @pytest.mark.parametrize("field", ["theta_s_deg", "theta_i_deg"])
    def test_non_finite_angle_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MeasurementSetting(**{"theta_s_deg": 0.0, "theta_i_deg": 0.0, field: value})

    def test_text_rejected(self):
        with pytest.raises(TypeError, match="theta_s_deg must be a number"):
            MeasurementSetting("22.5", 0.0)
