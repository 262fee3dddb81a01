"""Tests for angular momentum coupling coefficients and Raman branching."""

import hashlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlczsim import angular
from dlczsim.angular import (
    BranchingTable,
    HalfInt,
    LevelScheme,
    branching_table,
    cg,
    mixing_angle,
    mixing_cos_sq,
    projections,
)
from dlczsim.angular import _check_jm, _doubled, _jm, _racah

# ---------------------------------------------------------------------------
# Oracle: couple two spins by explicit matrix algebra (build J^2 on the
# product space, diagonalize, fix the highest-weight sign, then lower with
# J-).  Completely independent of the closed-form sum under test.
# ---------------------------------------------------------------------------


def _spin_ops(tj):
    """Jz, J+, J- for doubled spin tj, basis ordered by ascending m."""
    ms = np.arange(-tj, tj + 2, 2) / 2.0
    j = tj / 2.0
    jz = np.diag(ms)
    jp = np.zeros((len(ms), len(ms)))
    for k in range(len(ms) - 1):
        jp[k + 1, k] = math.sqrt(j * (j + 1) - ms[k] * (ms[k] + 1))
    return jz, jp, jp.T


def oracle_cg_table(tj1, tj2):
    """dict mapping (2*m1, 2*m2, 2*J, 2*M) -> <j1 m1; j2 m2 | J M>."""
    n1, n2 = tj1 + 1, tj2 + 1
    jz1, jp1, jm1 = _spin_ops(tj1)
    jz2, jp2, jm2 = _spin_ops(tj2)
    i1, i2 = np.eye(n1), np.eye(n2)
    jz = np.kron(jz1, i2) + np.kron(i1, jz2)
    jp = np.kron(jp1, i2) + np.kron(i1, jp2)
    jm = jp.T
    jsq = jz @ jz + 0.5 * (jp @ jm + jm @ jp)

    evals, evecs = np.linalg.eigh(jsq)
    table = {}
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 2, 2):
        J = tJ / 2.0
        sector = evecs[:, np.abs(evals - J * (J + 1)) < 1e-8]
        # restrict Jz to the J sector and take its M = J eigenvector
        a = sector.T @ jz @ sector
        sub_evals, sub_evecs = np.linalg.eigh(a)
        top = sector @ sub_evecs[:, np.argmax(sub_evals)]
        # Condon-Shortley: the (m1=j1, m2=J-j1) component of |J,J> is positive
        lead = top[(tj1 // 1) * 0 + (n1 - 1) * n2 + ((tJ - tj1) + tj2) // 2]
        if lead < 0:
            top = -top
        state = top
        tM = tJ
        while True:
            for idx in range(n1 * n2):
                tm1 = 2 * (idx // n2) - tj1
                tm2 = 2 * (idx % n2) - tj2
                if tm1 + tm2 == tM:
                    table[(tm1, tm2, tJ, tM)] = state[idx]
            if tM == -tJ:
                break
            norm = math.sqrt(J * (J + 1) - (tM / 2.0) * (tM / 2.0 - 1))
            state = (jm @ state) / norm
            tM -= 2
    return table


class TestCGAgainstOracle:
    """Closed-form coefficients must match the matrix-algebra oracle."""

    @pytest.mark.parametrize("tj1", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("tj2", [0, 1, 2, 3, 4])
    def test_all_couplings_match(self, tj1, tj2):
        table = oracle_cg_table(tj1, tj2)
        for (tm1, tm2, tJ, tM), expected in table.items():
            got = cg(
                HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2),
                HalfInt(tJ), HalfInt(tM),
            )
            np.testing.assert_allclose(
                got, expected, atol=1e-12,
                err_msg=f"(2j1,2m1,2j2,2m2,2J,2M)=({tj1},{tm1},{tj2},{tm2},{tJ},{tM})",
            )


class TestCGKnownValues:
    """Frozen values, each independently confirmed by the oracle above."""

    def test_two_spin_one_zero_projections(self):
        # oracle gives sqrt(2/3) for <1 0; 1 0 | 2 0>
        np.testing.assert_allclose(cg(1, 0, 1, 0, 2, 0), 0.816496580927726, rtol=1e-15)

    def test_singlet_of_two_spin_half(self):
        np.testing.assert_allclose(
            cg(0.5, 0.5, 0.5, -0.5, 0, 0), 0.7071067811865476, rtol=1e-15
        )
        np.testing.assert_allclose(
            cg(0.5, -0.5, 0.5, 0.5, 0, 0), -0.7071067811865476, rtol=1e-15
        )

    def test_stretched_state_is_unity(self):
        assert cg(3, 3, 1, 1, 4, 4) == 1.0
        assert cg(1.5, 1.5, 0.5, 0.5, 2, 2) == 1.0

    def test_sign_convention_on_parallel_coupling(self):
        # <3 2; 1 1 | 3 3> = -sqrt[(3-2)(3+2+1)/(2*3*(3+1))] = -1/2
        np.testing.assert_allclose(cg(3, 2, 1, 1, 3, 3), -0.5, rtol=1e-15)


class TestCGSelectionRules:
    """Forbidden couplings must return exactly zero, not merely small."""

    def test_projection_mismatch(self):
        assert cg(1, 1, 1, 1, 2, 0) == 0.0

    def test_triangle_violation(self):
        assert cg(1, 0, 1, 0, 3, 0) == 0.0
        assert cg(3, 0, 1, 0, 1, 0) == 0.0

    def test_projection_out_of_range(self):
        assert cg(1, 2, 1, -1, 2, 1) == 0.0

    def test_half_integer_parity_violation(self):
        # j=1 with m=1/2 is malformed rather than merely forbidden
        with pytest.raises(ValueError):
            cg(1, 0.5, 1, 0.5, 2, 1)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            cg(-1, 0, 1, 0, 1, 0)


class TestCGOrthogonality:
    """Orthogonality and completeness over every j1, j2 up to 4."""

    @pytest.mark.parametrize("tj1", range(0, 9))
    @pytest.mark.parametrize("tj2", range(0, 9))
    def test_rows_and_columns_orthonormal(self, tj1, tj2):
        j1, j2 = HalfInt(tj1), HalfInt(tj2)
        ms1 = projections(j1)
        ms2 = projections(j2)
        # completeness: sum over J,M of C^2 for fixed (m1, m2) equals 1
        for m1 in ms1:
            for m2 in ms2:
                total = 0.0
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 2, 2):
                    total += cg(j1, m1, j2, m2, HalfInt(tJ), HalfInt(m1.twice + m2.twice)) ** 2
                np.testing.assert_allclose(total, 1.0, atol=1e-12)
        # orthogonality: fixed (J, M), sum over m1 of C(J)C(J') = delta_JJ'
        for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 2, 2):
            for tJp in range(tJ, tj1 + tj2 + 2, 2):
                for tM in range(-tJ, tJ + 2, 2):
                    acc = 0.0
                    for m1 in ms1:
                        m2 = HalfInt(tM - m1.twice)
                        if abs(m2.twice) > tj2:
                            continue
                        acc += cg(j1, m1, j2, m2, HalfInt(tJ), HalfInt(tM)) * cg(
                            j1, m1, j2, m2, HalfInt(tJp), HalfInt(tM)
                        )
                    expected = 1.0 if tJ == tJp else 0.0
                    np.testing.assert_allclose(acc, expected, atol=1e-12)


class TestCGSymmetries:
    def test_exchange_symmetry(self):
        for args in [(1, 0, 2, 1, 2, 1), (1.5, 0.5, 1, -1, 1.5, -0.5), (2, -1, 1, 1, 3, 0)]:
            j1, m1, j2, m2, J, M = args
            phase = (-1) ** round(j1 + j2 - J)
            np.testing.assert_allclose(
                cg(j1, m1, j2, m2, J, M), phase * cg(j2, m2, j1, m1, J, M), atol=1e-14
            )

    def test_projection_reflection(self):
        for args in [(1, 0, 2, 1, 2, 1), (2, -1, 1, 1, 3, 0), (3, 2, 1, 1, 3, 3)]:
            j1, m1, j2, m2, J, M = args
            phase = (-1) ** round(j1 + j2 - J)
            np.testing.assert_allclose(
                cg(j1, m1, j2, m2, J, M),
                phase * cg(j1, -m1, j2, -m2, J, -M),
                atol=1e-14,
            )


class TestHalfInt:
    def test_coercion(self):
        assert HalfInt.of(1.5).twice == 3
        assert HalfInt.of(2).twice == 4
        assert HalfInt.of(Fraction(1, 2)).twice == 1
        with pytest.raises(ValueError):
            HalfInt.of(0.3)

    def test_arithmetic(self):
        assert str(HalfInt.of(1.5)) == "3/2"
        assert str(HalfInt.of(2)) == "2"

    def test_ordering(self):
        assert HalfInt.of(0.5) < HalfInt.of(1)
        assert sorted([HalfInt(4), HalfInt(-2)])[0] == HalfInt(-2)


class TestLevelScheme:
    def test_triangle_enforced(self):
        with pytest.raises(ValueError):
            LevelScheme.of(3, 2, 9)
        with pytest.raises(ValueError):
            LevelScheme.of(0, 1, 0)
        LevelScheme.of(3, 2, 3)  # valid, must not raise

    def test_plain_ints_rejected(self):
        with pytest.raises(TypeError, match="^f_a must be a HalfInt, got int$"):
            LevelScheme(3, 2, 3)

    def test_half_integer_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LevelScheme.of(1.5, 1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_f_named(self, bad):
        with pytest.raises(ValueError, match="f_b must be finite"):
            LevelScheme.of(1, bad, 1)

    def test_f_bounded_by_max_f(self):
        LevelScheme.of(100, 99, 100)  # valid, must not raise
        for bad in (100.5, 101, 1e300):
            with pytest.raises(ValueError, match=r"f_c must lie in \[0, 100\]"):
                LevelScheme.of(1, 1, bad)
        with pytest.raises(ValueError, match=r"f_a must lie in \[0, 100\]"):
            LevelScheme(HalfInt(202), HalfInt(202), HalfInt(202))


class TestBranchingTable:
    """Amplitudes for the (f_a=3, f_c=3, f_b=2) alkali D1 scheme."""

    @pytest.fixture
    def table(self):
        return branching_table(LevelScheme.of(3, 2, 3))

    def test_entries_are_cg_products(self, table):
        oracle_up = oracle_cg_table(6, 2)
        oracle_down = oracle_cg_table(6, 2)
        for m in range(-3, 4):
            for alpha in (-1, +1):
                up = oracle_up.get((2 * m, 2, 6, 2 * m + 2), 0.0)
                down = oracle_down.get((2 * m + 2, 2 * alpha, 4, 2 * m + 2 + 2 * alpha), 0.0)
                np.testing.assert_allclose(
                    table.amplitude(m, alpha), up * down, atol=1e-12,
                    err_msg=f"m={m}, alpha={alpha}",
                )

    def test_out_of_range_entries_vanish(self, table):
        assert table.amplitude(3, +1) == 0.0  # would need f_c projection 4
        assert table.amplitude(-3, -1) == 0.0  # would need f_b projection -3
        assert table.amplitude(5, 1) == 0.0

    def test_exact_square_sums(self, table):
        # frozen from the exact rational arithmetic; denominators 24 and 42
        assert table.sum_squares(-1) == Fraction(11, 18)
        assert table.sum_squares(+1) == Fraction(1, 3)
        assert table.sum_squares() == Fraction(17, 18)

    def test_recomputation_is_pure(self, table):
        again = branching_table(LevelScheme.of(3, 2, 3))
        assert again.entries == table.entries


class TestMixingAngle:
    def test_cos_sq_is_exact_rational(self):
        assert mixing_cos_sq(LevelScheme.of(3, 2, 3)) == Fraction(11, 17)

    def test_alkali_d1_scheme_value(self):
        """The (3, 2, 3) scheme sits at 0.81 of the maximally-mixed angle."""
        eta = mixing_angle(LevelScheme.of(3, 2, 3))
        assert 0 <= eta <= math.pi / 2
        np.testing.assert_allclose(eta / (math.pi / 4), 0.81, atol=0.005)
        np.testing.assert_allclose(eta, math.acos(math.sqrt(11 / 17)), rtol=1e-15)

    def test_oracle_cross_check(self):
        """Rebuild cos^2(eta) from oracle CG products alone."""
        up = oracle_cg_table(6, 2)
        down = oracle_cg_table(6, 2)
        sums = {-1: 0.0, +1: 0.0}
        for m in range(-3, 4):
            for alpha in (-1, +1):
                x = up.get((2 * m, 2, 6, 2 * m + 2), 0.0) * down.get(
                    (2 * m + 2, 2 * alpha, 4, 2 * m + 2 + 2 * alpha), 0.0
                )
                sums[alpha] += x * x
        cos_sq = sums[-1] / (sums[-1] + sums[+1])
        np.testing.assert_allclose(float(mixing_cos_sq(LevelScheme.of(3, 2, 3))), cos_sq, rtol=1e-12)


# ---------------------------------------------------------------------------
# The integer path into cg: argument doubling and the Racah sum
# ---------------------------------------------------------------------------


def _outcome(fn, value):
    try:
        return "value", fn(value)
    except Exception as exc:  # the exception type is the outcome compared
        return "raises", type(exc)


_ANY_ARGUMENT = st.one_of(
    st.integers(),
    st.booleans(),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(-40, 40).map(lambda t: t / 2),
    st.integers(-40, 40).map(lambda t: np.float64(t / 2)),
    st.fractions(),
    st.text(max_size=6),
    st.integers(-40, 40).map(HalfInt),
    st.sampled_from(
        [0.0, -0.0, 0.3, 1.25, math.nan, math.inf, -math.inf, 1e300, 5e-324, "1.5", "x"]
    ),
)


def _fraction_rule(value):
    """Twice the value as an exact Fraction, which must be a whole number."""
    if isinstance(value, HalfInt):
        return value.twice
    doubled = 2 * Fraction(value)
    if doubled.denominator != 1:
        raise ValueError(value)
    return int(doubled)


class TestDoubled:
    @given(_ANY_ARGUMENT)
    def test_agrees_with_the_fraction_rule(self, value):
        expected = _outcome(_fraction_rule, value)
        assert _outcome(_doubled, value) == expected
        assert _outcome(lambda v: HalfInt.of(v).twice, value) == expected

    @pytest.mark.filterwarnings("error")
    def test_overflowing_numpy_double_is_doubled_exactly_and_silently(self):
        big = np.float64(1.7e308)
        assert _doubled(big) == 2 * int(big)


def _fraction_signed_square(tj1, tm1, tj2, tm2, tJ, tM):
    """The Racah sum with one Fraction per term, as the reference."""
    f = math.factorial
    delta = Fraction(
        f((tj1 + tj2 - tJ) // 2) * f((tj1 - tj2 + tJ) // 2) * f((-tj1 + tj2 + tJ) // 2),
        f((tj1 + tj2 + tJ) // 2 + 1),
    )
    weight = (
        f((tJ + tM) // 2)
        * f((tJ - tM) // 2)
        * f((tj1 - tm1) // 2)
        * f((tj1 + tm1) // 2)
        * f((tj2 - tm2) // 2)
        * f((tj2 + tm2) // 2)
    )
    k_lo = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
    k_hi = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(k_lo, k_hi + 1):
        term = Fraction(
            1,
            f(k)
            * f((tj1 + tj2 - tJ) // 2 - k)
            * f((tj1 - tm1) // 2 - k)
            * f((tj2 + tm2) // 2 - k)
            * f((tJ - tj2 + tm1) // 2 + k)
            * f((tJ - tj1 - tm2) // 2 + k),
        )
        total += -term if k % 2 else term
    if total == 0:
        return 0, Fraction(0)
    return (1 if total > 0 else -1), Fraction(tJ + 1) * delta * weight * total * total


class TestRacahSum:
    @pytest.mark.parametrize("tj1", range(0, 11))
    def test_common_denominator_gives_the_same_fractions(self, tj1):
        for tj2 in range(0, 11):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 2, 2):
                for tm1 in range(-tj1, tj1 + 2, 2):
                    for tm2 in range(-tj2, tj2 + 2, 2):
                        if abs(tm1 + tm2) > tJ:
                            continue
                        key = (tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
                        sign, num, den = _racah(*key)
                        assert (sign, Fraction(num, den)) == _fraction_signed_square(*key), key

    @pytest.mark.parametrize("tj1", range(0, 11))
    def test_float_value_equals_the_rounded_fraction(self, tj1):
        for tj2 in range(0, 11):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 2, 2):
                for tm1 in range(-tj1, tj1 + 2, 2):
                    for tm2 in range(-tj2, tj2 + 2, 2):
                        key = (tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
                        sign, num, den = _racah(*key)
                        expected = sign * math.sqrt(float(Fraction(num, den))) if sign else 0.0
                        assert cg(*map(HalfInt, key)).hex() == expected.hex(), key

    def test_projection_mismatch_skips_the_racah_sum(self, monkeypatch):
        calls = []

        def counting_racah(*key):
            calls.append(key)
            return _racah(*key)

        monkeypatch.setattr(angular, "_racah", counting_racah)
        assert cg(1, 1, 1, 0, 2, 0) == 0.0
        assert cg(1.5, 0.5, 0.5, 0.5, 1, 0) == 0.0
        assert calls == []
        # a matching projection runs the sum, so the count above can see a call
        assert cg(1, 0, 1, 0, 2, 0) != 0.0
        assert calls == [(2, 0, 2, 0, 4, 0)]

    def test_sweep_and_eta_bytes_are_pinned(self):
        """The j <= 4 unitaries, built from floats as a user would, and eta."""
        digest = hashlib.sha256()
        for tj1 in range(9):
            for tj2 in range(9):
                j1, j2 = tj1 / 2.0, tj2 / 2.0
                m_pairs = [(m1, m2) for m1 in np.arange(-j1, j1 + 1) for m2 in np.arange(-j2, j2 + 1)]
                coupled = [
                    (tjt / 2.0, mt)
                    for tjt in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                    for mt in np.arange(-tjt / 2.0, tjt / 2.0 + 1)
                ]
                unitary = np.array(
                    [[cg(j1, m1, j2, m2, jt, mt) for jt, mt in coupled] for m1, m2 in m_pairs]
                )
                digest.update(unitary.tobytes())
        assert digest.hexdigest() == (
            "60b9967277c5aa0e4dfb2038338094a76fe27347b2f902078017c97f592ecb6e"
        )
        assert repr(mixing_angle(LevelScheme.of(3, 2, 3))) == "0.6361320628050101"


# ---------------------------------------------------------------------------
# The per-(j, m) argument cache of cg
# ---------------------------------------------------------------------------


def _uncached_cg(j1, m1, j2, m2, J, M):
    """cg from the uncached conversions and the per-term Fraction Racah sum.

    All six arguments are doubled before any pair is checked, so the first
    argument that cannot be doubled decides the exception.
    """
    tj1, tm1, tj2, tm2, tJ, tM = map(_doubled, (j1, m1, j2, m2, J, M))
    _check_jm(tj1, tm1)
    _check_jm(tj2, tm2)
    _check_jm(tJ, tM)
    allowed = (
        tM == tm1 + tm2
        and (tj1 + tj2 + tJ) % 2 == 0
        and abs(tj1 - tj2) <= tJ <= tj1 + tj2
        and abs(tm1) <= tj1
        and abs(tm2) <= tj2
        and abs(tM) <= tJ
    )
    if not allowed:
        return 0.0
    sign, square = _fraction_signed_square(tj1, tm1, tj2, tm2, tJ, tM)
    return sign * math.sqrt(float(square)) if sign else 0.0


def _cg_outcome(fn, args):
    """Float bits, or the exception's type and message."""
    try:
        return "value", struct.pack("<d", fn(*args))
    except Exception as exc:  # the exception is the outcome compared
        return "raises", type(exc), str(exc)


# few distinct values, in several types, so that valid couplings and cache
# hits are common; the list and the 0-d array cannot be hashed
_CG_ARGUMENT = st.one_of(
    _ANY_ARGUMENT,
    st.sampled_from(
        [0, 1, 2, -1, True, 0.5, 1.0, -0.5, 1.5, Fraction(1, 2), HalfInt(2), HalfInt(-1)]
    ),
    st.sampled_from([0.0, 0.5, 1.0, -0.5, -1.0, 1.5]).map(np.float64),
    st.builds(list, st.lists(st.integers(0, 2), max_size=1)),
    st.sampled_from([0.5, 1.0, 2.0]).map(np.array),
)


# the value t / 2 in one of the types cg takes
_REPRESENTATIONS = (
    HalfInt,
    lambda t: t // 2 if t % 2 == 0 else t / 2,
    lambda t: t / 2,
    lambda t: np.float64(t / 2),
    lambda t: Fraction(t, 2),
)


@st.composite
def _couplings(draw):
    """Arguments with |m| <= j, the parity of m that of j and M = m1 + m2."""
    tj1, tj2, tJ = (draw(st.integers(0, 6)) for _ in range(3))
    tm1 = tj1 - 2 * draw(st.integers(0, tj1))
    tm2 = tj2 - 2 * draw(st.integers(0, tj2))
    twice = (tj1, tm1, tj2, tm2, tJ, tm1 + tm2)
    return tuple(draw(st.sampled_from(_REPRESENTATIONS))(t) for t in twice)


class TestArgumentCache:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.tuples(*[_CG_ARGUMENT] * 6), _couplings()))
    def test_same_outcome_as_the_uncached_arguments(self, args):
        try:
            doubled = list(map(_doubled, args))
        except Exception:
            doubled = []
        # a valid coupling of huge j would spend the run in the Racah sum
        assume(max(map(abs, doubled), default=0) <= 64)
        expected = _cg_outcome(_uncached_cg, args)
        # cold or warm, the cache changes nothing
        assert _cg_outcome(cg, args) == expected
        assert _cg_outcome(cg, args) == expected

    def test_cache_is_bounded_and_cleared_from_the_module(self):
        caches = [value for value in vars(angular).values() if hasattr(value, "cache_info")]
        assert caches and all(cache.cache_info().maxsize is not None for cache in caches)
        info = _jm.cache_info()
        assert info.maxsize is not None and info.maxsize <= 1024
        for tj in range(2 * info.maxsize):
            cg(HalfInt(tj), HalfInt(tj), 0, 0, HalfInt(tj), HalfInt(tj))
        assert _jm.cache_info().currsize == info.maxsize
        for value in vars(angular).values():  # as a fresh-process benchmark pass clears it
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
        assert _jm.cache_info().currsize == 0
        assert cg(1, 0, 1, 0, 2, 0) == cg(1.0, 0.0, 1, 0, 2.0, 0.0)
        assert _jm.cache_info().currsize == 4  # (1, 0), (2, 0), (1.0, 0.0), (2.0, 0.0)

    def test_failures_are_not_cached(self):
        _jm.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="not an integer step away"):
                cg(1, 0.5, 1, 0.5, 2, 1)
            with pytest.raises(TypeError):
                cg(1, 0, [1], 0, 1, 0)
        assert _jm.cache_info().currsize == 1  # the valid pair (1, 0) alone
