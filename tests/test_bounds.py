"""Closed-form bounds: formulas, thresholds, dominance, monotonicity."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtokens.bounds import (CLONING_CEILING, CV_THRESHOLD,
                            SINGLE_COPY_THRESHOLD, InsecureParametersError,
                            chernoff_tail, cv_complementary_bound,
                            cv_security_bound, cv_soundness_bound,
                            hoeffding_rejection, learning_bound,
                            multicopy_security_bound, multicopy_threshold,
                            relative_entropy, security_bound, soundness_bound,
                            threshold_game_bound)
from qtokens.games import build_cv_pair_games, selective_value

import oracles as O


# -- relative entropy ------------------------------------------------------

def test_relative_entropy_basics():
    assert relative_entropy(0.3, 0.3) == 0.0
    assert relative_entropy(2.0 / 3.0, 2.0 / 3.0) == 0.0
    assert relative_entropy(0.0, 0.0) == 0.0
    assert relative_entropy(1.0, 1.0) == 0.0
    assert relative_entropy(0.5, 0.0) == math.inf
    assert relative_entropy(0.5, 1.0) == math.inf
    assert relative_entropy(0.0, 0.3) > 0.0
    with pytest.raises(ValueError):
        relative_entropy(-0.1, 0.5)
    with pytest.raises(ValueError):
        relative_entropy(0.5, 1.1)


def test_relative_entropy_example_value():
    got = relative_entropy(0.9, 0.95)
    assert abs(got - O.FROZEN["relent_09_095"]) < 1e-15
    assert abs(got - float(O.mp_relative_entropy(0.9, 0.95))) < 1e-13


def test_relative_entropy_matches_mpmath_on_grid():
    for p in np.linspace(0.01, 0.99, 23):
        for q in (0.1, 0.5, 2.0 / 3.0, 0.9):
            got = relative_entropy(float(p), q)
            want = float(O.mp_relative_entropy(float(p), q))
            assert abs(got - want) < 1e-12 * max(1.0, want)


@given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6))
def test_pinsker_inequality(p, q):
    assert relative_entropy(p, q) >= 2.0 * (p - q) ** 2 - 1e-12


# -- Chernoff tails --------------------------------------------------------

def test_chernoff_tail_edge_values():
    assert chernoff_tail(5, 0.4, 0.4) == 1.0
    assert abs(chernoff_tail(10, 1.0, 0.5) - 2.0 ** -10) < 1e-15
    with pytest.raises(ValueError):
        chernoff_tail(5, 0.3, 0.4)
    with pytest.raises(ValueError):
        chernoff_tail(0, 0.5, 0.4)


@given(st.integers(1, 1000),
       st.floats(0.02, 0.98),
       st.floats(0.0, 1.0))
def test_chernoff_dominates_exact_binomial_upper_tail(n, delta, slack):
    gamma = delta + slack * (1.0 - delta)
    k = math.ceil(gamma * n)
    exact = O.binom_tail_ge(n, delta, k)
    assert exact <= chernoff_tail(n, gamma, delta) + 1e-12


@given(st.integers(1, 1000),
       st.floats(0.02, 0.98),
       st.floats(0.0, 1.0))
def test_chernoff_dominates_exact_binomial_lower_tail(n, delta, slack):
    gamma = delta * (1.0 - slack)
    k = math.floor(gamma * n)
    exact = O.binom_tail_le(n, delta, k)
    # lower orientation via complemented arguments
    assert exact <= chernoff_tail(n, 1.0 - gamma, 1.0 - delta) + 1e-12


# -- measured-token bounds -------------------------------------------------

def test_soundness_bound_formula_and_domain():
    rep = soundness_bound(500, 0.95, Fraction(9, 10))
    want = 1.0 - math.exp(-500 * relative_entropy(0.9, 0.95))
    assert abs(rep.raw - want) < 1e-15
    assert rep.scale == 500 and rep.prefactor == 1.0
    assert abs(rep.exponent - O.FROZEN["relent_09_095"]) < 1e-15
    # perfect channel: infinite exponent
    assert soundness_bound(10, 1.0, 0.9).raw == 1.0
    with pytest.raises(ValueError):
        soundness_bound(10, 0.9, 0.9)
    with pytest.raises(ValueError):
        soundness_bound(10, 0.8, 0.9)


def test_soundness_bound_monotone():
    vals_n = [soundness_bound(n, 0.95, 0.9).raw for n in (10, 50, 200, 1000)]
    assert vals_n == sorted(vals_n)
    vals_f = [soundness_bound(200, fe, 0.9).raw for fe in (0.92, 0.95, 0.99)]
    assert vals_f == sorted(vals_f)


def test_security_bound_value_and_routes():
    rep = security_bound(1000, Fraction(9, 10))
    assert rep.raw == O.FROZEN["security_N1000_ftol0.9"]
    rel = abs(rep.raw - float(O.mp_security_bound(1000, Fraction(9, 10))))
    assert rel < 1e-11 * rep.raw
    assert security_bound(0, Fraction(9, 10)).raw == 1.0


def test_security_bound_monotone():
    vals_n = [security_bound(n, 0.9).raw for n in (10, 100, 1000)]
    assert vals_n == sorted(vals_n, reverse=True)
    vals_f = [security_bound(200, f).raw for f in (0.85, 0.9, 0.95)]
    assert vals_f == sorted(vals_f, reverse=True)


def test_security_threshold_exactness():
    for bad in (Fraction(5, 6), Fraction(4, 5), 0.5, "5/6"):
        with pytest.raises(InsecureParametersError, match="insecure-parameters"):
            security_bound(100, bad)
    security_bound(100, Fraction(5, 6) + Fraction(1, 10 ** 9))
    # the error carries the formula's exponent, exactly 0 at the threshold
    # and with 2 F_tol - 1 clamped into [0, 1] below it
    for f_tol, want in ((Fraction(5, 6), 0.0),
                        (Fraction(4, 5), relative_entropy(0.6, 2 / 3)),
                        (Fraction(1, 3), relative_entropy(0.0, 2 / 3))):
        for bound in (lambda: security_bound(100, f_tol),
                      lambda: learning_bound(100, f_tol, 3)):
            with pytest.raises(InsecureParametersError) as info:
                bound()
            assert info.value.exponent == want


def test_learning_bound_prefactor():
    assert learning_bound(1000, 0.9, 1).raw == 0.0
    base = security_bound(1000, 0.9).raw
    assert learning_bound(1000, 0.9, 2).raw == base
    rep = learning_bound(1000, Fraction(9, 10), 10)
    assert rep.prefactor == 45.0
    assert rep.raw == O.FROZEN["learning_N1000_ftol0.9_v10"]
    assert abs(rep.raw - float(O.mp_learning_bound(1000, Fraction(9, 10), 10))) \
        < 1e-11 * rep.raw
    with pytest.raises(ValueError):
        learning_bound(1000, 0.9, 0)


def test_learning_bound_clamps_via_report():
    rep = learning_bound(10, Fraction(839, 1000), 40)
    assert rep.raw > 1.0
    assert rep.clamped == 1.0


# -- paired-token bounds ----------------------------------------------------

def test_cv_soundness_value_and_routes():
    rep = cv_soundness_bound(10, 100, 0.95, Fraction(9, 10))
    assert rep.raw == O.FROZEN["cv_soundness_10_100_095_09"]
    assert abs(rep.raw - float(O.mp_cv_soundness_bound(10, 100, 0.95, 0.9))) \
        < 1e-12
    assert rep.scale == 100
    # single block reduces to the measured-token formula
    one = cv_soundness_bound(1, 64, 0.95, 0.9)
    assert abs(one.raw - soundness_bound(64, 0.95, 0.9).raw) < 1e-15
    assert cv_soundness_bound(10, 100, 1.0, 0.9).raw == 1.0
    with pytest.raises(ValueError):
        cv_soundness_bound(10, 100, 0.9, 0.9)


def test_cv_security_value_and_routes():
    rep = cv_security_bound(20, 200, Fraction(23, 25), 2)
    assert rep.raw == O.FROZEN["cv_security_20_200_092_v2"]
    assert abs(rep.raw - float(O.mp_cv_security_bound(20, 200, Fraction(23, 25), 2))) \
        < 1e-11 * rep.raw
    assert rep.prefactor == 1.0  # comb(2,2)^2
    rep10 = cv_security_bound(20, 200, Fraction(23, 25), 10)
    assert rep10.prefactor == 45.0 ** 2
    assert abs(rep10.raw - 2025.0 * rep.raw) < 1e-12 * rep10.raw


def test_cv_security_threshold_exactness():
    with pytest.raises(InsecureParametersError, match="insecure-parameters"):
        cv_security_bound(10, 50, CV_THRESHOLD, 2)
    with pytest.raises(InsecureParametersError) as info:
        cv_security_bound(10, 50, 0.8, 2)
    assert info.value.exponent == relative_entropy(0.8, CV_THRESHOLD)
    cv_security_bound(10, 50, CV_THRESHOLD + 1e-12, 2)


def test_cv_security_decays_geometrically_in_n():
    vals = [cv_security_bound(n, 100, 0.95, 2).raw for n in (5, 10, 15, 20)]
    assert vals == sorted(vals, reverse=True)
    ratio = vals[1] / vals[0]
    assert abs(vals[2] / vals[1] - ratio) < 1e-12 * ratio
    assert abs(vals[3] / vals[2] - ratio) < 1e-12 * ratio


def test_paired_bounds_overflow_to_a_vacuous_bound():
    # just above cos^2(pi/8) each block factor exceeds 1, and enough blocks
    # overflow a float power
    for rep in (cv_security_bound(2000, 1, Fraction(86, 100), 2),
                cv_complementary_bound(1100, 1, Fraction(86, 100))):
        assert rep.raw == math.inf and rep.clamped == 1.0


# -- complementary pairing ------------------------------------------------------

COMPLEMENTARY_LAYOUTS = [(20, 200, Fraction(23, 25)), (4, 64, Fraction(23, 25)),
                         (10, 100, Fraction(9, 10)), (3, 16, Fraction(15, 16)),
                         (1, 1, Fraction(1)), (0, 8, Fraction(9, 10))]


@pytest.mark.parametrize("n, r, f_tol", COMPLEMENTARY_LAYOUTS)
def test_complementary_bound_value_and_routes(n, r, f_tol):
    rep = cv_complementary_bound(n, r, f_tol)
    assert rep.scale == r and rep.prefactor == 2.0
    assert rep.exponent == relative_entropy(float(f_tol), CV_THRESHOLD)
    want = float(O.mp_cv_complementary_bound(n, r, f_tol))
    assert abs(rep.raw - want) < 1e-12 * want
    # the live route: the balanced average game's selective value
    v_avg = selective_value(build_cv_pair_games().g_avg).value
    live = (2.0 * math.exp(-r * relative_entropy(float(f_tol), v_avg))) ** n
    assert abs(rep.raw - live) < 1e-12 * live
    assert rep.clamped == min(rep.raw, 1.0)


def test_complementary_bound_vacuous_below_game_value():
    with pytest.raises(InsecureParametersError, match="insecure-parameters"):
        cv_complementary_bound(4, 16, CV_THRESHOLD)
    with pytest.raises(InsecureParametersError) as info:
        cv_complementary_bound(4, 16, Fraction(3, 4))
    assert info.value.exponent == relative_entropy(0.75, CV_THRESHOLD)
    # one ulp above the threshold is accepted at every block size, even
    # where a mean of r equal block values rounds above them
    above = float(np.nextafter(CV_THRESHOLD, 1.0))
    for r in range(1, 65):
        assert cv_complementary_bound(2, r, above).clamped == 1.0
    tight = cv_complementary_bound(20, 200, Fraction(23, 25)).clamped
    assert 0.0 < tight < 1e-6
    with pytest.raises(ValueError):
        cv_complementary_bound(2, 0, Fraction(9, 10))


# -- tightness and multicopy ------------------------------------------------

def test_hoeffding_rejection_formula():
    rep = hoeffding_rejection(1000, Fraction(4, 5))
    gap = 5.0 / 6.0 - 0.8
    assert abs(rep.raw - 0.5 * math.exp(-2000.0 * gap * gap)) < 1e-15
    assert hoeffding_rejection(0, 0.8).raw == 0.5
    with pytest.raises(ValueError):
        hoeffding_rejection(100, Fraction(5, 6))


def test_hoeffding_dominates_exact_binomial_lower_tail():
    for n in (50, 200, 500, 1000):
        for f in (Fraction(7, 10), Fraction(3, 4), Fraction(4, 5),
                  Fraction(5, 6) - Fraction(1, 100)):
            k_min = math.ceil(f * n)
            exact = O.binom_tail_le(n, 5.0 / 6.0, k_min - 1)
            assert exact <= hoeffding_rejection(n, f).raw + 1e-12


def test_multicopy_threshold_exact_fractions():
    assert multicopy_threshold(1) == Fraction(5, 6)
    assert multicopy_threshold(2) == Fraction(11, 12)
    assert multicopy_threshold(1) == SINGLE_COPY_THRESHOLD
    assert multicopy_threshold(1) < multicopy_threshold(2) < 1
    assert sorted(CLONING_CEILING) == [1, 2]
    # 19/20 is the Haar-random value at c = 3, not a six-state threshold
    for c in (0, 3, 4):
        with pytest.raises(ValueError, match=r"supported copy counts: \[1, 2\]"):
            multicopy_threshold(c)
    with pytest.raises(TypeError):
        CLONING_CEILING[3] = Fraction(4, 5)


def test_multicopy_security_reduces_to_single_copy():
    a = multicopy_security_bound(500, Fraction(9, 10), 1)
    b = security_bound(500, Fraction(9, 10))
    assert abs(a.raw - b.raw) < 1e-15 * b.raw
    assert a.exponent == b.exponent


def test_multicopy_security_threshold():
    with pytest.raises(InsecureParametersError) as info:
        multicopy_security_bound(100, Fraction(11, 12), 2)
    assert info.value.exponent == 0.0
    for c in sorted(CLONING_CEILING):
        for f_tol in (Fraction(19, 20), Fraction(24, 25), 0.99):
            rep = multicopy_security_bound(500, f_tol, c)
            want = float(O.mp_multicopy_security_bound(500, f_tol, c))
            assert abs(rep.raw - want) < 1e-12 * want


# -- cloning ceilings -------------------------------------------------------

@pytest.mark.parametrize("c", sorted(CLONING_CEILING))
def test_cloning_ceiling_is_certified_and_reached(c):
    x = O.cloning_operator(c)
    # no c -> c + 1 map passes all outputs more often than (c + 1) lambda_max
    assert abs((c + 1) * np.linalg.eigvalsh(x)[-1] - CLONING_CEILING[c]) < 1e-12
    choi = O.seesaw_choi(x, c)
    assert np.linalg.eigvalsh(choi)[0] >= -1e-12
    assert np.abs(O.choi_output_trace(choi, c) - np.eye(2 ** c)).max() <= 1e-12
    assert abs(np.trace(choi @ x).real - CLONING_CEILING[c]) < 1e-9


def test_three_copy_cloner_beats_the_haar_ceiling():
    # a 3 -> 4 map found by the see-saw on the mean per-copy fidelity
    per_output = [O.cloning_operator(3, output=k) for k in range(4)]
    choi = O.seesaw_choi(sum(per_output) / 4, 3)
    assert np.linalg.eigvalsh(choi)[0] >= -1e-12
    assert np.abs(O.choi_output_trace(choi, 3) - np.eye(8)).max() <= 1e-12
    fidelities = [np.trace(choi @ x).real for x in per_output]
    assert abs(np.mean(fidelities) - 0.952036) < 5e-7
    assert min(fidelities) > 19 / 20
    # union bound over the four counterfeits: all pass with probability
    # >= 0.997, where the bound extrapolated to c = 3 claimed <= 0.0816
    n, f_tol = 200_000, Fraction(1901, 2000)
    k_min = math.ceil(f_tol * n)
    assert 1.0 - 4 * O.binom_tail_le(n, min(fidelities), k_min - 1) >= 0.997
    with pytest.raises(ValueError, match="cloning ceiling"):
        multicopy_security_bound(n, f_tol, 3)


def test_thresholds_are_the_documented_constants():
    assert float(SINGLE_COPY_THRESHOLD) == 5.0 / 6.0
    assert abs(CV_THRESHOLD - O.COS2_PI_8) < 1e-15
    assert abs(CV_THRESHOLD - math.cos(math.pi / 8.0) ** 2) < 1e-15


# -- block threshold bound ------------------------------------------------------

def test_threshold_game_bound_values():
    assert abs(threshold_game_bound([0.7, 0.7, 0.7], 0.7) - 2.0) < 1e-15
    assert abs(threshold_game_bound([0.5], 1.0) - 1.0) < 1e-15
    got = threshold_game_bound([0.75] * 20, 0.9)
    from qtokens.bounds import relative_entropy
    assert abs(got - 2.0 * math.exp(-20 * relative_entropy(0.9, 0.75))) < 1e-15
    with pytest.raises(ValueError):
        threshold_game_bound([0.8, 0.9], 0.5)
    with pytest.raises(ValueError):
        threshold_game_bound([], 0.5)


def test_threshold_game_bound_mean_of_equal_values_stays_in_range():
    # the float mean of 42 copies of CV_THRESHOLD rounds ulps above it, which
    # used to put delta past gamma one ulp above the values
    got = threshold_game_bound([CV_THRESHOLD] * 42, np.nextafter(CV_THRESHOLD, 1))
    assert 2.0 - 1e-12 < got <= 2.0
