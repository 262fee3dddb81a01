"""Closed-form predictions for polarization-correlation measurements.

Coincidence rates behind two rotatable polarizers follow a two-angle fringe
whose shape is set by the helicity mixing angle eta; from those rates (or
from measured counts) come the correlation coefficients and the CHSH sum,
with counting-statistics error bars propagated in the Poisson limit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grammar import as_float

__all__ = [
    "CANONICAL_ANGLES_DEG",
    "MeasurementSetting",
    "FringeModel",
    "pair_amplitudes",
    "concurrence",
    "CountQuartet",
    "CHSHResult",
    "coincidence_rate",
    "correlation_e",
    "chsh_s",
    "predict_ideal_e",
    "predict_ideal_s",
    "chsh_setting_table",
]

# theta_s, theta_i, theta_s', theta_i' of the standard Bell-test set
CANONICAL_ANGLES_DEG = (-22.5, 0.0, 22.5, -45.0)


def pair_amplitudes(eta, theta_s, theta_i) -> np.ndarray:
    """Amplitudes of cos(eta)|r, S-> + sin(eta)|l, S+> on the polarizer outcomes.

    Entries 0-3 are (pass, pass), (pass, fail), (fail, pass) and (fail, fail),
    a polarizer at angle t passing (cos t, sin t) and failing (-sin t, cos t);
    the angles (radians) broadcast.  Entry 2 is the theta_s derivative of entry 0.
    """
    if not 0.0 <= eta <= math.pi / 2:
        raise ValueError(f"eta must lie in [0, pi/2], got {eta}")
    c, s = math.cos(eta), math.sin(eta)
    cs, ss, ci, si = np.cos(theta_s), np.sin(theta_s), np.cos(theta_i), np.sin(theta_i)
    return np.array([c * cs * ci + s * ss * si, s * ss * ci - c * cs * si,
                     s * cs * si - c * ss * ci, c * ss * si + s * cs * ci])


def concurrence(eta: float, visibility: float) -> float:
    """Concurrence of the stored pair, cos(eta)|r, S-> + sin(eta)|l, S+> under white noise.

    The pair's density matrix is V|psi><psi| + (1 - V) I/4 at visibility V.
    Wootters' formula (PRL 80, 2245 (1998)) on this state reduces to
    2 max(0, |rho_03| - sqrt(rho_11 rho_22)) = max(0, V sin(2 eta) - (1 - V)/2).
    """
    if not 0.0 <= eta <= math.pi / 2:
        raise ValueError(f"eta must lie in [0, pi/2], got {eta}")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    return max(0.0, visibility * math.sin(2.0 * eta) - (1.0 - visibility) / 2.0)


@dataclass(frozen=True)
class MeasurementSetting:
    """One polarizer-pair setting.

    Angles are stored in degrees (the unit used in every file format and at
    the command line) as finite builtin floats; use the ``*_rad`` properties
    for computation.
    """

    theta_s_deg: float
    theta_i_deg: float

    def __post_init__(self):
        for name in ("theta_s_deg", "theta_i_deg"):
            value = as_float(name, getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    @property
    def theta_s_rad(self) -> float:
        return math.radians(self.theta_s_deg)

    @property
    def theta_i_rad(self) -> float:
        return math.radians(self.theta_i_deg)

    def perp_s(self) -> "MeasurementSetting":
        return MeasurementSetting(self.theta_s_deg + 90.0, self.theta_i_deg)

    def perp_i(self) -> "MeasurementSetting":
        return MeasurementSetting(self.theta_s_deg, self.theta_i_deg + 90.0)

    def perp_both(self) -> "MeasurementSetting":
        return MeasurementSetting(self.theta_s_deg + 90.0, self.theta_i_deg + 90.0)


@dataclass(frozen=True)
class FringeModel:
    """Scale and offset of a polarization-correlation fringe."""

    eta: float
    amplitude: float
    background: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= math.pi / 2:
            raise ValueError(f"eta must lie in [0, pi/2], got {self.eta}")
        for name in ("amplitude", "background"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.amplitude < 0 or self.background < 0:
            raise ValueError("amplitude and background must be non-negative")


def _check_finite_count(name: str, value) -> None:
    """Refuse a NaN or infinite count by name; an integer of any size is finite."""
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class CountQuartet:
    """Coincidence counts at a setting and its three perpendicular partners.

    ``co`` counts at (theta_s, theta_i), ``co_perp`` at both polarizers
    rotated by 90 degrees, ``cross_s``/``cross_i`` with only the signal or
    only the idler polarizer rotated.
    """

    co: float
    co_perp: float
    cross_s: float
    cross_i: float

    def __post_init__(self):
        for name in ("co", "co_perp", "cross_s", "cross_i"):
            _check_finite_count(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise ValueError(f"count {name} must be non-negative")

    def total(self) -> float:
        return self.co + self.co_perp + self.cross_s + self.cross_i


@dataclass(frozen=True)
class CHSHResult:
    """Four correlation coefficients and their CHSH combination."""

    e_values: tuple  # four (E, sigma_E) pairs in canonical order
    s: float
    sigma_s: float
    angles_deg: tuple  # (theta_s, theta_i, theta_s', theta_i')


def coincidence_rate(model: FringeModel, setting: MeasurementSetting) -> float:
    """Expected coincidence rate at one polarizer-pair setting.

    The normalization is fixed so that at eta = pi/4 and zero background the
    maximum (polarizers aligned) equals ``amplitude``, where the expression
    reduces to amplitude * cos^2(theta_s - theta_i).
    """
    return float(_fringe_rates(model, setting.theta_s_rad, setting.theta_i_rad))


def _fringe_rates(model: FringeModel, theta_s, theta_i):
    """``coincidence_rate`` at polarizer angles in radians, which broadcast."""
    a = pair_amplitudes(model.eta, theta_s, theta_i)[0]
    return model.amplitude * 2.0 * a * a + model.background


def correlation_e(quartet: CountQuartet) -> tuple[float, float]:
    """Correlation coefficient E and its Poisson-propagated uncertainty.

    E = (co + co_perp - cross_s - cross_i) / total.  The uncertainty treats
    the four counts as independent Poisson variables and propagates to first
    order, which matches a parametric bootstrap for non-extreme counts.
    """
    total = quartet.total()
    if total <= 0:
        raise ValueError("correlation undefined for all-zero counts")
    e = (quartet.co + quartet.co_perp - quartet.cross_s - quartet.cross_i) / total
    var = (
        (1.0 - e) ** 2 * (quartet.co + quartet.co_perp)
        + (1.0 + e) ** 2 * (quartet.cross_s + quartet.cross_i)
    ) / total**2
    return e, math.sqrt(var)


def _chsh_sum(values) -> float:
    """E1 + E2 + E3 - E4: the signs of S, for four values in the order of ``_chsh_pairs``."""
    return values[0] + values[1] + values[2] - values[3]


def chsh_s(e_pairs, angles_deg=CANONICAL_ANGLES_DEG) -> CHSHResult:
    """Combine four (E, sigma_E) pairs into S = E1 + E2 + E3 - E4.

    The canonical ordering is E(theta_s, theta_i), E(theta_s', theta_i),
    E(theta_s, theta_i'), E(theta_s', theta_i'); uncertainties add in
    quadrature.
    """
    e_pairs = tuple((float(e), float(se)) for e, se in e_pairs)
    if len(e_pairs) != 4:
        raise ValueError(f"need exactly four correlation values, got {len(e_pairs)}")
    for e, _ in e_pairs:
        if not -1.0 <= e <= 1.0 + 1e-12:
            raise ValueError(f"correlation {e} outside [-1, 1]")
    s = _chsh_sum([e for e, _ in e_pairs])
    sigma = math.sqrt(sum(se**2 for _, se in e_pairs))
    return CHSHResult(e_values=e_pairs, s=s, sigma_s=sigma, angles_deg=tuple(angles_deg))


def _quartet_settings(setting: MeasurementSetting):
    return (setting, setting.perp_both(), setting.perp_s(), setting.perp_i())


def _chsh_pairs(angles_deg) -> list[tuple[float, float]]:
    """The four (theta_s, theta_i) combinations of a CHSH run, in the order of S."""
    ts, ti, tsp, tip = angles_deg
    return [(ts, ti), (tsp, ti), (ts, tip), (tsp, tip)]


def predict_ideal_e(eta: float, setting: MeasurementSetting) -> float:
    """Correlation coefficient of the noiseless fringe at one setting."""
    a = pair_amplitudes(eta, setting.theta_s_rad, setting.theta_i_rad)
    return float(a[0] * a[0] - a[1] * a[1] - a[2] * a[2] + a[3] * a[3])


def predict_ideal_s(eta: float, angles_deg=CANONICAL_ANGLES_DEG) -> float:
    """Noiseless CHSH sum at the given angle set.

    Sums the ideal correlation coefficients of the four settings with the
    signs of S; at eta = pi/4 and the canonical angles this reaches 2*sqrt(2).
    """
    es = [predict_ideal_e(eta, MeasurementSetting(a, b)) for a, b in _chsh_pairs(angles_deg)]
    return _chsh_sum(es)


def chsh_setting_table(angles_deg=CANONICAL_ANGLES_DEG) -> list[MeasurementSetting]:
    """The sixteen polarizer settings a CHSH run must visit.

    For each of the four (theta_s, theta_i) combinations this lists the
    setting itself plus its three perpendicular companions, in the order
    expected when assembling count quartets.
    """
    settings = []
    for a, b in _chsh_pairs(angles_deg):
        settings.extend(_quartet_settings(MeasurementSetting(a, b)))
    return settings
