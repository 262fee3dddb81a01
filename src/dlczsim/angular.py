"""Angular momentum coupling for hyperfine Raman transitions.

Clebsch-Gordan coefficients are evaluated from the Racah closed form with
exact big-integer rationals, so selection rules produce exact zeros and the
only rounding is the final square root.  On top of that sit the branching
amplitudes of a three-level (ground a, excited c, ground b) Raman scheme
driven by right-circular light, and the mixing angle that those amplitudes
induce between the two scattered-photon helicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "HalfInt",
    "LevelScheme",
    "BranchingTable",
    "cg",
    "branching_table",
    "mixing_angle",
    "mixing_cos_sq",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """An integer or half-integer quantum number, stored as twice its value.

    Storing ``2j`` as an int keeps selection rules exact;
    ``HalfInt(3)`` is 3/2 and ``HalfInt(6)`` is 3.
    """

    twice: int

    @classmethod
    def of(cls, value) -> "HalfInt":
        """Coerce an int, float, Fraction or HalfInt into a HalfInt."""
        return value if isinstance(value, HalfInt) else cls(_doubled(value))

    @property
    def value(self) -> float:
        return self.twice / 2

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def _doubled(value) -> int:
    """``2 * value`` as an exact int, the one (j, m) conversion of this module.

    A value that is not an integer or half-integer raises ValueError, and
    one that ``Fraction`` cannot take raises its exception.
    """
    if isinstance(value, HalfInt):
        return value.twice
    doubled = 2 * Fraction(value)
    if doubled.denominator != 1:
        raise ValueError(f"{value!r} is not an integer or half-integer")
    return int(doubled)


def projections(j: HalfInt) -> list[HalfInt]:
    """All magnetic sublevels -j, -j+1, ..., +j."""
    return [HalfInt(t) for t in range(-j.twice, j.twice + 1, 2)]


def _triangle_ok(tj1: int, tj2: int, tj3: int) -> bool:
    """Triangle rule on doubled angular momenta, including integer perimeter."""
    if (tj1 + tj2 + tj3) % 2 != 0:
        return False
    return abs(tj1 - tj2) <= tj3 <= tj1 + tj2


def _check_jm(tj: int, tm: int) -> None:
    if tj < 0:
        raise ValueError(f"total angular momentum must be >= 0, got {tj / 2}")
    if (tj + tm) % 2 != 0:
        raise ValueError(
            f"projection {tm / 2} is not an integer step away from j={tj / 2}"
        )


# the j <= 4 sweep has 45 distinct (j, m) pairs; 512 hold every pair up to j = 15
@lru_cache(maxsize=512, typed=True)
def _jm(j, m) -> tuple[int, int]:
    """``(2j, 2m)`` of one argument pair of ``cg``, checked by ``_check_jm``.

    ``typed`` keys each argument by its type as well, so no pair is answered
    from an equal pair of other types; a failed conversion or check raises
    and so is never cached.
    """
    tj, tm = _doubled(j), _doubled(m)
    _check_jm(tj, tm)
    return tj, tm


def _racah(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> tuple[int, int, int]:
    """Signed square of a Clebsch-Gordan coefficient as (sign, numerator, denominator).

    All three are exact integers; the fraction is not reduced.  The caller
    passes tM == tm1 + tm2 (``cg`` returns 0.0 before the call otherwise, and
    ``branching_table`` builds tM as that sum).  Couplings that violate
    another selection rule come back as (0, 0, 1).
    """
    if not _triangle_ok(tj1, tj2, tJ):
        return 0, 0, 1
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0, 0, 1

    f = math.factorial
    a, b, c = (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tJ - tj2 + tm1) // 2, (tJ - tj1 - tm2) // 2
    # Racah's closed form, (tJ+1) * delta * weight * sum^2, kept in integers;
    # every factorial argument below is a non-negative integer once the
    # parity and triangle checks above have passed.
    delta_num = f(a) * f((tj1 - tj2 + tJ) // 2) * f((-tj1 + tj2 + tJ) // 2)
    delta_den = f((tj1 + tj2 + tJ) // 2 + 1)
    weight = (
        f((tJ + tM) // 2)
        * f((tJ - tM) // 2)
        * f(b)
        * f((tj1 + tm1) // 2)
        * f((tj2 - tm2) // 2)
        * f(c)
    )

    k_lo = max(0, -d, -e)
    k_hi = min(a, b, c)
    # sum (-1)^k / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!) over one common
    # denominator, which every term's denominator divides
    common = f(k_hi) * f(a - k_lo) * f(b - k_lo) * f(c - k_lo) * f(d + k_hi) * f(e + k_hi)
    numerator = 0
    for k in range(k_lo, k_hi + 1):
        term = common // (f(k) * f(a - k) * f(b - k) * f(c - k) * f(d + k) * f(e + k))
        numerator += -term if k % 2 else term

    if numerator == 0:
        return 0, 0, 1
    return (
        1 if numerator > 0 else -1,
        (tJ + 1) * delta_num * weight * numerator * numerator,
        delta_den * common * common,
    )


def cg(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> (Condon-Shortley).

    Arguments may be ints, floats, Fractions or HalfInt.  Invalid couplings
    (M != m1+m2, triangle violations, |m| > j) return exactly 0.0.
    """
    try:
        tj1, tm1 = _jm(j1, m1)
        tj2, tm2 = _jm(j2, m2)
        tJ, tM = _jm(J, M)
    except Exception:
        # an invalid or unhashable argument: double all six before checking
        # any pair, so the error raised is the one of the first bad argument
        tj1, tm1, tj2, tm2, tJ, tM = map(_doubled, (j1, m1, j2, m2, J, M))
        _check_jm(tj1, tm1)
        _check_jm(tj2, tm2)
        _check_jm(tJ, tM)
    if tM != tm1 + tm2:
        return 0.0  # most of any sweep: the call into the Racah sum is skipped
    sign, num, den = _racah(tj1, tm1, tj2, tm2, tJ, tM)
    # integer true division rounds correctly: float(Fraction(num, den)) without the gcd
    return sign * math.sqrt(num / den) if sign else 0.0


# largest F a LevelScheme accepts; the exact branching table of a scheme
# takes time growing with F (about 0.02 s at F = 100)
MAX_F = 100


@dataclass(frozen=True)
class LevelScheme:
    """Ground level a, storage level b and excited level c of a Raman scheme.

    The a->c leg absorbs one photon and the c->b leg emits one, so both
    pairs must satisfy the dipole triangle rule with j=1.  Each F lies in
    [0, MAX_F].
    """

    f_a: HalfInt
    f_b: HalfInt
    f_c: HalfInt

    def __post_init__(self):
        for name, f in (("f_a", self.f_a), ("f_b", self.f_b), ("f_c", self.f_c)):
            if not isinstance(f, HalfInt):
                raise TypeError(f"{name} must be a HalfInt, got {type(f).__name__}")
            if not 0 <= f.twice <= 2 * MAX_F:
                raise ValueError(f"{name} must lie in [0, {MAX_F}], got {f.value:g}")
        if not _triangle_ok(self.f_a.twice, 2, self.f_c.twice):
            raise ValueError(
                f"f_a={self.f_a} and f_c={self.f_c} are not dipole-coupled"
            )
        if not _triangle_ok(self.f_c.twice, 2, self.f_b.twice):
            raise ValueError(
                f"f_c={self.f_c} and f_b={self.f_b} are not dipole-coupled"
            )

    @classmethod
    def of(cls, f_a, f_b, f_c) -> "LevelScheme":
        levels = []
        for name, f in (("f_a", f_a), ("f_b", f_b), ("f_c", f_c)):
            if isinstance(f, float) and not math.isfinite(f):
                raise ValueError(f"{name} must be finite, got {f}")
            try:
                levels.append(HalfInt.of(f))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        return cls(*levels)


@dataclass(frozen=True)
class BranchingTable:
    """Two-photon branching amplitudes X_m(alpha) of a Raman scheme.

    ``X_m(alpha)`` is the product of the absorption coefficient
    <f_a m; 1 +1 | f_c m+1> (right-circular drive) and the emission
    coefficient <f_c m+1; 1 alpha | f_b m+1+alpha> for scattered helicity
    alpha in {-1, +1}.  Exact signed squares are kept alongside the float
    amplitudes so downstream ratios stay rational.
    """

    scheme: LevelScheme
    entries: dict = field(compare=False)
    signed_squares: dict = field(compare=False, repr=False)

    def amplitude(self, m, alpha: int) -> float:
        """X_m(alpha); 0.0 for any (m, alpha) outside the table."""
        return self.entries.get((HalfInt.of(m).twice, alpha), 0.0)

    def sum_squares(self, alpha: int | None = None) -> Fraction:
        """Exact sum of X_m^2 over m, for one helicity or for both."""
        alphas = (-1, +1) if alpha is None else (alpha,)
        return sum(
            (sq for (tm, a), (s, sq) in self.signed_squares.items() if a in alphas),
            Fraction(0),
        )


def branching_table(scheme: LevelScheme) -> BranchingTable:
    """Tabulate X_m(alpha) for every ground sublevel m and helicity alpha."""
    entries = {}
    squares = {}
    for m in projections(scheme.f_a):
        up_sign, up_num, up_den = _racah(
            scheme.f_a.twice, m.twice, 2, 2, scheme.f_c.twice, m.twice + 2
        )
        for alpha in (-1, +1):
            down_sign, down_num, down_den = _racah(
                scheme.f_c.twice,
                m.twice + 2,
                2,
                2 * alpha,
                scheme.f_b.twice,
                m.twice + 2 + 2 * alpha,
            )
            sign = up_sign * down_sign
            # the only normalization: one gcd over the whole product
            square = Fraction(up_num * down_num, up_den * down_den)
            value = sign * math.sqrt(float(square)) if sign else 0.0
            entries[(m.twice, alpha)] = value
            squares[(m.twice, alpha)] = (sign, square)
    return BranchingTable(scheme=scheme, entries=entries, signed_squares=squares)


def mixing_cos_sq(scheme: LevelScheme) -> Fraction:
    """Exact cos^2(eta) = sum_m X_m^2(-1) / sum_m,alpha X_m^2(alpha)."""
    table = branching_table(scheme)
    minus = table.sum_squares(-1)
    total = table.sum_squares()
    if total == 0:
        raise ValueError(
            f"scheme {scheme} has no allowed two-photon path; mixing angle undefined"
        )
    return minus / total


def mixing_angle(scheme: LevelScheme) -> float:
    """Mixing angle eta in [0, pi/2] between the two scattered helicities."""
    return math.acos(math.sqrt(float(mixing_cos_sq(scheme))))
