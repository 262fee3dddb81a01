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
    concurrence,
    correlation_e,
    pair_amplitudes,
    predict_ideal_e,
    predict_ideal_s,
)
from pair_oracle import noisy_pair, wootters_concurrence

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

    @pytest.mark.parametrize("field", ["amplitude", "background"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_scale_rejected_by_name(self, field, value):
        kwargs = {"eta": 0.5, "amplitude": 1.0, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
            FringeModel(**kwargs)

    @pytest.mark.parametrize("amplitude, background", [(0.0, 0.0), (0.5, 0.5), (5e-324, 0.0), (0.0, 5e-324)])
    def test_zero_and_small_values_are_accepted(self, amplitude, background):
        model = FringeModel(ETA_ALKALI, amplitude, background)
        assert (model.amplitude, model.background) == (amplitude, background)

    @pytest.mark.parametrize("amplitude, background", [(-5e-324, 0.0), (0.0, -5e-324), (-1.0, 1.0)])
    def test_negative_values_are_refused(self, amplitude, background):
        with pytest.raises(ValueError, match="^amplitude and background must be non-negative$"):
            FringeModel(ETA_ALKALI, amplitude, background)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["co", "co_perp", "cross_s", "cross_i"])
    def test_a_non_finite_count_is_refused_by_name(self, name, value):
        counts = {"co": 5, "co_perp": 5, "cross_s": 1, "cross_i": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            CountQuartet(**counts)

    def test_an_integer_count_of_any_size_is_accepted(self):
        assert CountQuartet(10**400, 1, np.int64(2), 3).co == 10**400

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


    @pytest.mark.parametrize("quartet, e", [((1, 0, 0, 0), 1.0), ((0, 0, 0, 1), -1.0), ((0, 0.5, 0.5, 0), 0.0)])
    def test_a_total_of_one_or_less_is_counted(self, quartet, e):
        assert correlation_e(CountQuartet(*quartet))[0] == e

    @pytest.mark.parametrize("quartet", [(520, 480, 130, 90), (30, 20, 10, 5), (1, 2, 3, 4), (7.5, 0.25, 40, 0)])
    def test_sigma_is_the_closed_form(self, quartet):
        # with P = co + co_perp and M = cross_s + cross_i over T = P + M, the
        # propagated variance (1 - E)^2 P / T^2 + (1 + E)^2 M / T^2 is 4 P M / T^3
        co, co_perp, cross_s, cross_i = quartet
        plus, minus = co + co_perp, cross_s + cross_i
        total = plus + minus
        _, sigma = correlation_e(CountQuartet(*quartet))
        assert sigma == pytest.approx(2.0 * math.sqrt(plus * minus / total**3), rel=1e-12)


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


    @pytest.mark.parametrize("e", [-1.0, 1.0, 1.0 + 1e-12])
    def test_the_range_includes_both_edges(self, e):
        result = chsh_s([(e, 0.01)] + [(0.5, 0.01)] * 3)
        assert result.e_values[0] == (e, 0.01)

    @pytest.mark.parametrize("e", [math.nextafter(-1.0, -2.0), math.nextafter(1.0 + 1e-12, 2.0), -1.00005, 1.00005])
    def test_the_range_ends_at_both_edges(self, e):
        with pytest.raises(ValueError, match=r"^correlation .* outside \[-1, 1\]$"):
            chsh_s([(0.5, 0.01)] * 3 + [(e, 0.01)])


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

    def test_a_correlation_rounded_below_minus_one_is_summed(self):
        """E(-142.5, -52.5) = -1 rounds to just below -1, which chsh_s refuses as a measured E."""
        assert predict_ideal_e(math.pi / 4, MeasurementSetting(-142.5, -52.5)) < -1.0
        # E = cos 2(theta_s - theta_i): -1 + cos 105 + cos 285 - 1
        np.testing.assert_allclose(predict_ideal_s(math.pi / 4, (-142.5, -52.5, 0.0, 0.0)), -2.0, atol=1e-12)

    @pytest.mark.parametrize("angles", [(10.0, 20.0, 50.0, -30.0), (0.0, 15.0, 70.0, -40.0), (-35.0, 5.0, 12.5, 80.0)])
    def test_general_angles_sum_the_four_terms_of_s(self, angles):
        # at these angles no two of E(a, b), E(a', b), E(a, b') and E(a', b') are equal
        def e_closed_form(eta, ts, ti):
            k = math.sin(2 * eta)
            d, s = math.radians(ts - ti), math.radians(ts + ti)
            return ((1 + k) * math.cos(2 * d) + (1 - k) * math.cos(2 * s)) / 2

        ts, ti, tsp, tip = angles
        for eta in (0.0, 0.4, ETA_ALKALI, math.pi / 4):
            es = [e_closed_form(eta, a, b) for a, b in ((ts, ti), (tsp, ti), (ts, tip), (tsp, tip))]
            assert len({round(e, 9) for e in es}) == 4
            expected = es[0] + es[1] + es[2] - es[3]
            np.testing.assert_allclose(predict_ideal_s(eta, angles), expected, atol=1e-12)

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


# The closed forms that pair_amplitudes replaced, kept here as oracles.
def old_fringe_shape(eta, theta_s, theta_i):
    c, s = math.cos(eta), math.sin(eta)
    bracket = (c + s) * math.cos(theta_s - theta_i) + (c - s) * math.cos(theta_s + theta_i)
    return bracket * bracket / 2.0


def old_fringe_slope(eta, theta_s, theta_i):
    c, s = math.cos(eta), math.sin(eta)
    u = (c + s) * math.cos(theta_s - theta_i) + (c - s) * math.cos(theta_s + theta_i)
    du = -(c + s) * math.sin(theta_s - theta_i) - (c - s) * math.sin(theta_s + theta_i)
    return u * du


def old_swing_factor(eta, theta_i):
    c, s = math.cos(eta), math.sin(eta)
    return c * c * math.cos(theta_i) ** 2 + s * s * math.sin(theta_i) ** 2


def quartet_route_e(eta, setting):
    """E through four coincidence rates and a count quartet, as predict_ideal_e once did."""
    model = FringeModel(eta=eta, amplitude=1.0, background=0.0)
    companions = (setting, setting.perp_both(), setting.perp_s(), setting.perp_i())
    e, _ = correlation_e(CountQuartet(*[coincidence_rate(model, s) for s in companions]))
    return e


GRID_ETAS = (0.0, 0.3, ETA_ALKALI, math.pi / 4, 1.2, math.pi / 2)
GRID_ANGLES = np.radians(np.linspace(-180.0, 180.0, 17))


class TestPairAmplitudes:
    def test_unit_norm(self):
        for eta in GRID_ETAS:
            a = pair_amplitudes(eta, GRID_ANGLES[:, None], GRID_ANGLES[None, :])
            np.testing.assert_allclose((a * a).sum(axis=0), 1.0, atol=1e-15)

    def test_fringe_shape_matches_the_old_bracket(self):
        for eta in GRID_ETAS:
            for ts in GRID_ANGLES:
                for ti in GRID_ANGLES:
                    a0 = pair_amplitudes(eta, ts, ti)[0]
                    np.testing.assert_allclose(
                        2.0 * a0 * a0, old_fringe_shape(eta, ts, ti), rtol=0, atol=1e-14
                    )

    def test_slope_matches_the_old_derivative(self):
        for eta in GRID_ETAS:
            for ts in GRID_ANGLES:
                for ti in GRID_ANGLES:
                    a0, _, a2, _ = pair_amplitudes(eta, ts, ti)
                    np.testing.assert_allclose(
                        4.0 * a0 * a2, old_fringe_slope(eta, ts, ti), rtol=0, atol=1e-14
                    )

    def test_swing_factor_matches_the_old_m_at_every_theta_s(self):
        for eta in GRID_ETAS:
            for ti in GRID_ANGLES:
                a0, _, a2, _ = pair_amplitudes(eta, GRID_ANGLES, ti)
                np.testing.assert_allclose(
                    a0 * a0 + a2 * a2, old_swing_factor(eta, ti), rtol=0, atol=1e-15
                )

    def test_ideal_e_matches_the_quartet_route(self):
        for eta in GRID_ETAS:
            for ts in np.linspace(-180.0, 180.0, 17):
                for ti in np.linspace(-180.0, 180.0, 17):
                    setting = MeasurementSetting(ts, ti)
                    np.testing.assert_allclose(
                        predict_ideal_e(eta, setting),
                        quartet_route_e(eta, setting),
                        rtol=0,
                        atol=1e-14,
                    )

    def test_ideal_e_keeps_its_eta_check(self):
        for eta in (-0.1, 2.0, math.nan):
            with pytest.raises(ValueError, match=r"^eta must lie in \[0, pi/2\], got "):
                predict_ideal_e(eta, MeasurementSetting(0.0, 0.0))

    def test_angles_broadcast(self):
        ts = np.radians([[-30.0], [10.0], [75.0]])
        ti = np.radians([0.0, 22.5, -45.0, 90.0])
        a = pair_amplitudes(ETA_ALKALI, ts, ti)
        assert a.shape == (4, 3, 4)
        for j in range(3):
            for k in range(4):
                np.testing.assert_array_equal(
                    a[:, j, k], pair_amplitudes(ETA_ALKALI, ts[j, 0], ti[k])
                )
        assert pair_amplitudes(ETA_ALKALI, 0.1, 0.2).shape == (4,)
        assert pair_amplitudes(ETA_ALKALI, ts[:, 0], 0.2).shape == (4, 3)


class TestConcurrence:
    """The closed form against Wootters' formula on the pair's density matrix."""

    def test_closed_form_matches_the_density_matrix(self):
        rng = np.random.default_rng(17)
        draws = zip(rng.uniform(0.0, math.pi / 2, 2500).tolist(), rng.uniform(0.0, 1.0, 2500).tolist())
        for eta, v in [(0.0, 1.0), (math.pi / 2, 0.0), (math.pi / 4, 1 / 3), *draws]:
            expected = wootters_concurrence(noisy_pair(eta, v))
            assert abs(concurrence(eta, v) - expected) <= 1e-12, (eta, v)

    def test_pure_state_concurrence_is_sin_two_eta(self):
        for eta in np.linspace(0.0, math.pi / 2, 50):
            np.testing.assert_allclose(concurrence(eta, 1.0), math.sin(2 * eta), atol=1e-12)

    def test_partially_mixed_bell_state(self):
        # isotropic two-qubit state: C = max(0, (3V - 1)/2)
        for v in (0.0, 0.2, 1 / 3, 0.6, 0.9, 1.0):
            expected = max(0.0, (3 * v - 1) / 2)
            np.testing.assert_allclose(concurrence(math.pi / 4, v), expected, atol=1e-12)

    def test_noise_never_increases_concurrence(self):
        values = [concurrence(ETA_ALKALI, v) for v in (1.0, 0.8, 0.6, 0.4)]
        assert values == sorted(values, reverse=True)

    def test_eta_out_of_range(self):
        for eta in (-0.1, math.pi / 2 + 0.1, math.nan):
            with pytest.raises(ValueError, match=r"^eta must lie in \[0, pi/2\], got "):
                concurrence(eta, 1.0)

    def test_visibility_out_of_range(self):
        for v in (-0.1, 1.2, math.nan, math.nextafter(1.0, 2.0), 1.0001, -5e-324):
            with pytest.raises(ValueError, match=r"^visibility must lie in \[0, 1\], got "):
                concurrence(math.pi / 4, v)
