"""The numpy Levenberg-Marquardt behind the decay fit, and the closed-form fringe fit, against scipy.

``fit_exponential`` hands its residual and Jacobian closures to
``analysis._run_lm``.  These tests feed the same closures to
``scipy.optimize.least_squares(method="lm")`` (MINPACK's ``lmder``), so
scipy is needed here and by the bench, never by the package.  The oracle
runs with ``x_scale="jac"``, MINPACK's own column scaling, which is
scipy's default from 1.16 on and which ``_run_lm`` uses too.  ``fit_fringe``
solves its linear form directly; scipy's MINPACK fits the same model in its
(amplitude, background, phase offset) form beside it.
"""

import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from dlczsim import analysis
from dlczsim.analysis import DecayPoint, FitError, fit_exponential, fit_fringe
from dlczsim.predictor import pair_amplitudes


def _fit_with_oracle(fit, args, well_posed):
    """Run ``fit`` and return it with (ours, scipy's) solutions from the same closures.

    Data on which scipy's solution fails ``well_posed`` is skipped, before the
    fit's own checks can refuse it.
    """
    solve = analysis._run_lm
    seen = []

    def run_both(residual, jacobian, x0):
        theirs = least_squares(
            residual, x0, jac=jacobian, method="lm", x_scale="jac", max_nfev=2000
        )
        assume(theirs.success and well_posed(theirs))
        ours = solve(residual, jacobian, x0)
        seen.append((ours, theirs))
        return ours

    with mock.patch.object(analysis, "_run_lm", run_both):
        result = fit(*args)
    return result, seen[0]


def _assert_agrees(ours, theirs, sigma_index):
    """chi2 no worse, every parameter within 1e-3 sigma, sigma within 1e-4 relative."""
    assert np.sum(ours.fun**2) <= np.sum(theirs.fun**2) * (1 + 1e-9)
    cov_theirs = np.linalg.inv(theirs.jac.T @ theirs.jac)
    cov_ours = np.linalg.inv(ours.jac.T @ ours.jac)
    sigma = np.sqrt(np.diag(cov_theirs))
    assert np.all(np.abs(ours.x - theirs.x) <= 1e-3 * sigma), (ours.x, theirs.x, sigma)
    s_ours, s_theirs = math.sqrt(cov_ours[sigma_index, sigma_index]), sigma[sigma_index]
    assert abs(s_ours - s_theirs) <= 1e-4 * s_theirs


@st.composite
def decay_scans(draw):
    """Five to nine delays spread over 1-10 us from near zero; tau in [0.2, 1.5] x the span."""
    n = draw(st.integers(5, 9))
    span = draw(st.floats(1000.0, 10000.0))
    start = draw(st.floats(0.0, 0.2)) * span
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=n - 2, max_size=n - 2))
    delays = start + span * np.array([0.0, *((np.arange(1, n - 1) + jitter) / (n - 1)), 1.0])
    tau = draw(st.floats(0.2, 1.5)) * span
    floor = draw(st.floats(0.5, 2.0))
    amp = draw(st.floats(0.5, 6.0))
    sigma = amp / draw(st.floats(20.0, 200.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = floor + amp * np.exp(-delays / tau) + rng.normal(0.0, sigma, n)
    return [DecayPoint(float(t), float(max(v, 1e-9)), sigma) for t, v in zip(delays, g)], span


def _fast_decay(g_si, sigma):
    """A scan of ``decay_scans`` at five delays over 1 us."""
    return [DecayPoint(t, g, sigma) for t, g in zip((0.0, 250.0, 500.0, 781.25, 1000.0), g_si)], 1000.0


def _identifiable_decay(span):
    """The oracle's tau has not run off to 0 or infinity, and its error bar is below it.

    The error bar comes from the plain inverse of J^T J, as in the fit and in
    ``_assert_agrees``: a pseudo-inverse drops the near-null direction of a
    badly conditioned design and so reports a tiny variance for a tau the data
    do not determine.
    """

    def check(theirs):
        tau = theirs.x[2]
        try:
            cov = np.linalg.inv(theirs.jac.T @ theirs.jac)
        except np.linalg.LinAlgError:
            return False
        return span / 20 < tau < 20 * span and 0.0 < cov[2, 2] < tau * tau

    return check


@st.composite
def fringe_scans(draw):
    """Poisson counts of a full-turn fringe at 5-45 degree steps, 20-500 counts of swing."""
    eta = draw(st.floats(0.3, 1.2))
    theta_i = draw(st.floats(0.0, math.pi))
    amp = draw(st.floats(20.0, 500.0))
    bg = draw(st.floats(0.0, 50.0))
    phi = math.radians(draw(st.floats(-20.0, 20.0)))
    step = draw(st.sampled_from([5.0, 10.0, 15.0, 20.0, 30.0, 45.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = np.radians(np.arange(0.0, 360.0, step))
    a0 = pair_amplitudes(eta, theta - phi, theta_i)[0]
    counts = rng.poisson(amp * 2.0 * a0 * a0 + bg).astype(float)
    points = [(t, k, math.sqrt(max(k, 1.0))) for t, k in zip(theta, counts)]
    return points, eta, theta_i


def _fringe_oracle(points, eta, theta_i):
    """scipy's MINPACK fit of amplitude * 2 a0(theta_s - phase)**2 + background, and that curve."""
    theta, y, sigma = np.array(points).T

    def curve(p):
        amp, bg, phi = p
        a0 = pair_amplitudes(eta, theta - phi, theta_i)[0]
        return amp * 2.0 * a0 * a0 + bg

    def jacobian(p):
        amp, bg, phi = p
        a0, _, a2, _ = pair_amplitudes(eta, theta - phi, theta_i)  # a2 is a0's theta_s slope
        return np.column_stack((2.0 * a0 * a0, np.ones_like(theta), -4.0 * amp * a0 * a2)) / sigma[:, None]

    x0 = [y.max() - y.min(), y.min(), 0.0]
    theirs = least_squares(
        lambda p: (curve(p) - y) / sigma, x0, jac=jacobian, method="lm", x_scale="jac", max_nfev=2000
    )
    return theirs, curve


class TestAgainstMinpack:
    @settings(max_examples=150, deadline=None)
    @given(decay_scans())
    # the first step takes tau below 1 ns, where the tau column falls to 1e-158 (first example)
    # or 1e-270 (second) of the others, and MINPACK's next step still moves tau; k @ k in the
    # damping's Newton step overflowed on the first, and s**2 underflowed on the second
    @example(_fast_decay(
        (2.0096466762281673, 1.3623751683666667, 1.1353901622493878, 1.0505653482014483, 1.0142028718697353),
        0.006134969325153374,
    ))
    @example(_fast_decay(
        (2.00995195079235, 1.3622009825184143, 1.1353918989270073, 1.0507751081564496, 1.0140727210147038),
        0.006329113924050633,
    ))
    def test_decay_fit_matches_scipy(self, scan):
        points, span = scan
        fit, (ours, theirs) = _fit_with_oracle(fit_exponential, [points], _identifiable_decay(span))
        _assert_agrees(ours, theirs, 2)
        assert fit.chi2 == float(np.sum(ours.fun**2))

    @settings(max_examples=150, deadline=None)
    @given(fringe_scans())
    def test_fringe_fit_matches_scipy(self, scan):
        points, eta, theta_i = scan
        theirs, curve = _fringe_oracle(points, eta, theta_i)
        assume(theirs.success)
        fit = fit_fringe(points, eta, theta_i)
        assert fit.chi2 <= np.sum(theirs.fun**2) * (1 + 1e-9)
        sigma = np.array([s for _, _, s in points])
        ours = curve([fit.amplitude, fit.background, fit.phase_offset])
        assert np.all(np.abs(ours - curve(theirs.x)) <= 1e-5 * sigma)
        assert fit.amplitude >= 0 and -math.pi / 2 <= fit.phase_offset < math.pi / 2

    def test_same_evaluation_count_as_minpack(self):
        # the same algorithm, so on a well-conditioned fit the same number of steps
        t = np.array([200.0, 1000.0, 2000.0, 4000.0, 7000.0])
        y = 1.0 + 4.5 * np.exp(-t / 3700.0) + np.array([0.01, -0.02, 0.015, -0.01, 0.02])
        calls = []

        def residual(p):
            calls.append(p)
            return (p[0] + p[1] * np.exp(-t / p[2]) - y) / 0.02

        def jacobian(p):
            decay = np.exp(-t / p[2])
            return np.column_stack((np.ones_like(t), decay, p[1] * decay * t / p[2] ** 2)) / 0.02

        x0 = np.array([y.min(), y.max() - y.min(), 3400.0])
        theirs = least_squares(residual, x0, jac=jacobian, method="lm", x_scale="jac")
        calls.clear()
        analysis._run_lm(residual, jacobian, x0)
        assert len(calls) == theirs.nfev


class TestSolver:
    def test_linear_problem_is_the_normal_equations_solution(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 3))
        b = rng.normal(size=20)
        result = analysis._run_lm(lambda p: a @ p - b, lambda p: a, np.zeros(3))
        np.testing.assert_allclose(result.x, np.linalg.lstsq(a, b, rcond=None)[0], rtol=1e-9)
        np.testing.assert_array_equal(result.fun, a @ result.x - b)
        np.testing.assert_array_equal(result.jac, a)

    def test_exact_start_stops_at_once(self):
        calls = []

        def residual(p):
            calls.append(p)
            return np.zeros(4)

        result = analysis._run_lm(residual, lambda p: np.ones((4, 2)), np.array([1.0, 2.0]))
        assert len(calls) == 1 and list(result.x) == [1.0, 2.0]

    @pytest.mark.parametrize("value", [math.inf, math.nan, 1.5e308])
    def test_residuals_not_finite_at_the_start(self, value):
        # 1.5e308 twice is finite, but the norm of the two overflows
        with pytest.raises(FitError, match=r"^fit cannot start: residuals are not finite"):
            analysis._run_lm(
                lambda p: np.array([value, value]), lambda p: np.eye(2), np.zeros(2)
            )

    def test_jacobian_not_finite(self):
        with pytest.raises(FitError, match=r"^fit did not converge: the Jacobian is not finite$"):
            analysis._run_lm(lambda p: p - 1.0, lambda p: np.full((1, 1), math.inf), np.zeros(1))

    @pytest.mark.parametrize(
        "column, message",
        [
            ([math.nan, 1.0], "the Jacobian is not finite"),
            ([-math.inf, 1.0], "the Jacobian is not finite"),
            ([1.5e308, -1.5e308], "a Jacobian column's norm overflows"),
        ],
        ids=["nan", "-inf", "finite"],
    )
    def test_jacobian_fault_beside_an_overflowing_column(self, column, message):
        # column 1 holds finite entries whose norm overflows; column 0 decides the message
        jac = np.column_stack((column, [1.5e308, 1.5e308]))
        with pytest.raises(FitError, match=f"^fit did not converge: {message}$"):
            analysis._run_lm(lambda p: p - 1.0, lambda p: jac, np.zeros(2))

    def test_jacobian_column_norm_that_overflows_stops_at_once(self):
        # every entry is finite, but the norm of the column is not
        calls = []

        def residual(p):
            calls.append(p)
            return p - 1.0

        with pytest.raises(FitError, match=r"^fit did not converge: a Jacobian column's norm overflows$"):
            analysis._run_lm(residual, lambda p: np.full((2, 1), 1.5e308), np.zeros(1))
        assert len(calls) == 1

    def test_running_out_of_evaluations(self, monkeypatch):
        # 1/x has no minimum at a finite x: the fit runs off until it gives up
        monkeypatch.setattr(analysis, "_MAX_NFEV", 20)
        calls = []

        def residual(p):
            calls.append(p)
            return 1.0 / p

        with pytest.raises(FitError, match=r"^fit did not converge in 20 residual evaluations$"):
            analysis._run_lm(residual, lambda p: np.diag(-1.0 / p**2), np.array([1.0]))
        assert len(calls) == 20

    def test_trial_steps_that_overflow_raise_no_numpy_warning(self):
        # a trial step here takes tau to about -5 ns, where exp overflows; the step is
        # rejected and the fit still determines tau
        t = [200.0, 1000.0, 2000.0, 4000.0, 7000.0]
        points = [
            DecayPoint(d, 1.0 + 3.0 * math.exp(-d / 400.0) + 0.01 * (-1) ** i, 0.01)
            for i, d in enumerate(t)
        ]
        with np.errstate(all="raise"):
            fit = fit_exponential(points)
        assert 370.0 < fit.tau_ns < 410.0 and 0 < fit.sigma_tau_ns < 20.0


def test_fits_run_where_scipy_cannot_be_imported():
    probe = """
import math, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from dlczsim.analysis import DecayPoint, fit_exponential, fit_fringe
decay = [DecayPoint(t, 1 + 4.5 * math.exp(-t / 3700), 0.01) for t in (200, 1000, 2000, 4000, 7000)]
fringe = [(math.radians(d), 10 + 90 * math.cos(math.radians(d - 30)) ** 2, 1.0) for d in range(0, 360, 15)]
print(round(fit_exponential(decay).tau_ns, 6), fit_fringe(fringe, math.pi / 4, 0.0).visibility > 0.8)
"""
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "3700.0 True\n"
