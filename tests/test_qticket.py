"""Measured tokens: issuance, verification, exact acceptance oracles."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtokens.attacks import PAIR_STRATEGIES, mixture_outcome_distribution
from qtokens.bounds import soundness_bound
from qtokens.channels import depolarizing, depolarizing_for_fidelity
from qtokens.core import LABELS, PROJECTOR_STACK
from qtokens.qticket import (QticketSecret, TokenConsumedError, TokenInstance,
                             Verifier, VerificationOutcome, VerifierPolicy,
                             degrade, double_acceptance_exact,
                             exact_honest_acceptance, issue, multicopy_issue,
                             token_from_secret, verify)
from qtokens.store import SecretStore, UnknownSerialError

import oracles as O


POLICY = lambda f, n: VerifierPolicy(Fraction(f) if isinstance(f, str) else f, n)


# -- issuance ---------------------------------------------------------------

def test_issue_shapes_and_projector_states(rng):
    secret, token = issue(40, rng)
    assert secret.labels.shape == (40,) and secret.labels.dtype == np.uint8
    assert token.qubits.shape == (40, 2, 2)
    assert token.serial == secret.serial and len(secret.serial) == 32
    for i, lab in enumerate(secret.labels):
        np.testing.assert_allclose(token.qubits[i],
                                   O.ket_projector(O.LABEL_ORDER[lab]),
                                   atol=1e-15)


def test_issue_deterministic_per_seed(rng_factory):
    s1, t1 = issue(64, rng_factory(7))
    s2, t2 = issue(64, rng_factory(7))
    assert s1.serial == s2.serial
    np.testing.assert_array_equal(s1.labels, s2.labels)
    np.testing.assert_array_equal(t1.qubits, t2.qubits)


def test_issue_label_frequencies_uniform(rng):
    secret, _ = issue(60000, rng)
    counts = np.bincount(secret.labels, minlength=6)
    # chi-square with 5 dof: 4-sigma-ish ceiling
    assert O.chisq_stat(counts, np.full(6, 1.0 / 6.0)) < 30.0


def test_issue_rejects_empty(rng):
    with pytest.raises(ValueError):
        issue(0, rng)


def test_token_from_secret_matches_issue(rng):
    secret, token = issue(12, rng)
    again = token_from_secret(secret)
    np.testing.assert_array_equal(again.qubits, token.qubits)
    assert not again.consumed


def _last_position(bad):
    stack = np.broadcast_to(PROJECTOR_STACK[0], (8, 2, 2)).copy()
    stack[-1] = bad
    return stack


@pytest.mark.parametrize("qubits", [
    np.broadcast_to(np.eye(2), (8, 2, 2)),              # trace 2 everywhere
    _last_position(np.eye(2)),                          # ... or at one position
    np.broadcast_to(np.diag([1.5, -0.5]), (8, 2, 2)),   # negative eigenvalue
    np.broadcast_to([[1.0, 0.5], [0.0, 0.0]], (8, 2, 2)),  # not Hermitian
    np.asarray(None, dtype=complex),                   # a NaN scalar
    np.full((8, 2, 2), np.nan),
    np.zeros((0, 2, 2)),
    np.broadcast_to(np.eye(4) / 4, (8, 4, 4)),
], ids=["trace-2", "trace-2-last", "negative", "non-hermitian", "nan-scalar",
        "nan-stack", "empty", "two-qubit"])
def test_token_rejects_what_is_not_a_qubit_stack(qubits):
    with pytest.raises(ValueError):
        TokenInstance("s", qubits)


# -- verification -----------------------------------------------------------

def test_verify_honest_noiseless_is_certain(rng):
    secret, token = issue(120, rng)
    out = verify(secret, token, POLICY(Fraction(9, 10), 120), rng)
    assert out.accepted and out.correct_count == 120
    assert out.serial == secret.serial and out.reason is None


def test_verify_consumes_token(rng):
    secret, token = issue(10, rng)
    verify(secret, token, POLICY(Fraction(1, 2), 10), rng)
    assert token.consumed
    with pytest.raises(TokenConsumedError):
        verify(secret, token, POLICY(Fraction(1, 2), 10), rng)


def test_verify_serial_mismatch(rng):
    secret, _ = issue(10, rng)
    other_secret, other_token = issue(10, rng)
    with pytest.raises(UnknownSerialError, match="unknown-serial"):
        verify(secret, other_token, POLICY(Fraction(1, 2), 10), rng)


def test_verify_length_mismatch(rng):
    secret, token = issue(10, rng)
    with pytest.raises(ValueError):
        verify(secret, token, POLICY(Fraction(1, 2), 11), rng)


def test_fully_depolarized_match_counts_are_fair_coins(rng):
    # lambda = 1 sends every qubit to I/2: each position matches w.p. 1/2
    secret, token = issue(100, rng)
    trials, counts = 2000, []
    chan = depolarizing(1.0)
    for _ in range(trials):
        noisy = degrade(token_from_secret(secret), chan)
        counts.append(verify(secret, noisy, POLICY(Fraction(3, 4), 100), rng).correct_count)
    mean = np.mean(counts)
    sigma = 5.0 / math.sqrt(trials)
    assert abs(mean - 50.0) < 4.0 * sigma
    assert abs(exact_honest_acceptance([0.5] * 100, Fraction(3, 4))
               - O.binom_tail_ge(100, 0.5, 75)) < 1e-18


# -- degradation -------------------------------------------------------------

def test_degrade_identity_noop(rng):
    secret, token = issue(16, rng)
    out = degrade(token, depolarizing(0.0))
    np.testing.assert_allclose(out.qubits, token.qubits, atol=1e-15)


def test_degrade_full_depolarizing_gives_maximally_mixed(rng):
    secret, token = issue(16, rng)
    out = degrade(token, depolarizing(1.0))
    np.testing.assert_allclose(out.qubits, np.broadcast_to(np.eye(2) / 2, (16, 2, 2)),
                               atol=1e-15)


def test_degrade_sets_expected_fidelity(rng):
    secret, token = issue(200, rng)
    out = degrade(token, depolarizing_for_fidelity(0.95))
    overlaps = np.einsum("nij,nji->n", PROJECTOR_STACK[secret.labels], out.qubits).real
    np.testing.assert_allclose(overlaps, 0.95, atol=1e-12)


# -- exact honest acceptance -------------------------------------------------

def test_exact_honest_acceptance_simple_cases():
    assert exact_honest_acceptance([1.0] * 30, Fraction(9, 10)) == 1.0
    # two qubits, threshold 1: both must match
    assert abs(exact_honest_acceptance([0.9, 0.9], 1) - 0.81) < 1e-15
    assert exact_honest_acceptance([0.3] * 5, 0) == 1.0
    with pytest.raises(ValueError):
        exact_honest_acceptance([], Fraction(1, 2))
    with pytest.raises(ValueError):
        exact_honest_acceptance([1.2], Fraction(1, 2))


def test_exact_honest_acceptance_vs_subset_enumeration(rng):
    for trial in range(8):
        n = int(rng.integers(2, 13))
        ps = [Fraction(int(rng.integers(1, 99)), 100) for _ in range(n)]
        f_tol = Fraction(int(rng.integers(1, n + 1)), n)
        got = exact_honest_acceptance([float(p) for p in ps], f_tol)
        want = float(O.subset_poisson_binom_tail(ps, math.ceil(f_tol * n)))
        assert abs(got - want) < 1e-12 * max(want, 1e-30)


def test_exact_honest_acceptance_vs_binomial_tail_iid():
    for n in (500, 2000):
        for f_exp, f_tol in ((0.95, Fraction(9, 10)), (0.9, Fraction(17, 20))):
            got = exact_honest_acceptance([f_exp] * n, f_tol)
            want = O.binom_tail_ge(n, f_exp, math.ceil(f_tol * n))
            assert abs(got - want) < 1e-12 * max(want, 1e-30)


def test_exact_acceptance_dominates_soundness_bound():
    for n in (50, 200, 500):
        for f_exp in (0.90, 0.95, 0.99):
            for f_tol in (Fraction(4, 5), Fraction(17, 20), Fraction(9, 10)):
                if float(f_tol) >= f_exp:
                    continue
                exact = exact_honest_acceptance([f_exp] * n, f_tol)
                lower = 1.0 - soundness_bound(n, f_exp, f_tol).raw
                assert exact >= lower - 1e-12


def test_honest_acceptance_mc_agrees_with_exact(rng):
    trials = 100_000
    for n, f_exp, f_tol in ((10, 0.9, Fraction(4, 5)),
                            (100, 0.95, Fraction(9, 10)),
                            (500, 0.92, Fraction(9, 10))):
        p = exact_honest_acceptance([f_exp] * n, f_tol)
        hits = O.honest_acceptance_mc([f_exp] * n, f_tol, trials, rng)
        sigma = math.sqrt(p * (1.0 - p) * trials)
        assert abs(hits - p * trials) < 4.0 * sigma


# -- joint acceptance of correlated pairs ------------------------------------

def test_double_acceptance_cloner_small_values():
    # one qubit, threshold 1: joint success is exactly p11 = 2/3
    got1 = double_acceptance_exact(1, 1, O.CLONER_DIST)
    assert abs(got1 - 2.0 / 3.0) < 1e-15
    got2 = double_acceptance_exact(2, 1, O.CLONER_DIST)
    assert abs(got2 - 4.0 / 9.0) < 1e-14


def test_double_acceptance_vs_exhaustive_enumeration():
    for n in (3, 5, 8, 10):
        for k in (n // 2, n - 1, n):
            for dist in (O.CLONER_DIST, O.MRZ_MIXTURE):
                got = double_acceptance_exact(n, Fraction(k, n), dist)
                want = float(O.frac_double_accept(n, dist, k))
                assert abs(got - want) < 1e-13 * max(want, 1e-30)


def test_double_acceptance_vs_conditional_factorization():
    for n, f_tol in ((200, Fraction(4, 5)), (1000, Fraction(3, 4)),
                     (1000, Fraction(9, 10))):
        got = double_acceptance_exact(n, f_tol, O.CLONER_DIST)
        want = O.cloner_double_accept(n, math.ceil(f_tol * n))
        assert abs(got - want) < 1e-10 * max(want, 1e-25)


def test_double_acceptance_monotone_in_threshold():
    vals = [double_acceptance_exact(200, Fraction(k, 100), O.CLONER_DIST)
            for k in range(70, 96)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_cloner_marginal_is_binomial_tail():
    # marginal per-position success is 2/3 + 1/6 = 5/6 exactly
    for n, f_tol in ((100, Fraction(3, 4)), (500, Fraction(9, 10))):
        k = math.ceil(f_tol * n)
        single = double_acceptance_exact(n, f_tol, (Fraction(5, 6), Fraction(1, 6), 0, 0))
        # a dist with p01 = p00 = 0 makes the second count always n
        assert abs(single - O.binom_tail_ge(n, 5.0 / 6.0, k)) < 1e-12 * max(single, 1e-30)


GRID = tuple(Fraction(j, 100) for j in range(70, 96))


def _assert_matches_lattice(n, f_tol, dist):
    got = double_acceptance_exact(n, f_tol, dist)
    want = O.lattice_double_accept(n, math.ceil(f_tol * n), dist)
    assert abs(got - want) <= 1e-10 * want, (n, f_tol, dist, got, want)


@pytest.mark.parametrize("name", sorted(PAIR_STRATEGIES))
def test_double_acceptance_matches_lattice_for_mixture_laws(name):
    dist = mixture_outcome_distribution(PAIR_STRATEGIES[name])
    for n in (60, 300):
        for f_tol in GRID:
            _assert_matches_lattice(n, f_tol, dist)


def test_double_acceptance_matches_lattice_off_centre():
    # q = p10 / (p10 + p01) = 6/7: the binomial window sits far from the mode
    dist = (0.6, 0.3, 0.05, 0.05)
    for n in (200, 400):
        for f_tol in (Fraction(j, 100) for j in range(50, 96)):
            _assert_matches_lattice(n, f_tol, dist)


@st.composite
def _rational_laws(draw):
    weights = draw(st.lists(st.integers(0, 6), min_size=4, max_size=4)
                   .filter(lambda w: sum(w) > 0))
    return tuple(Fraction(w, sum(weights)) for w in weights)


@given(_rational_laws(), st.integers(1, 10), st.data())
def test_double_acceptance_rational_laws_with_zero_entries(dist, n, data):
    k = data.draw(st.integers(0, n))
    got = double_acceptance_exact(n, Fraction(k, n), dist)
    want = float(O.frac_double_accept(n, dist, k))
    assert abs(got - want) <= 1e-12 * want


def test_double_acceptance_continuous_as_p00_vanishes():
    exact_zero = (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6), 0)
    tiny = (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0, 1e-17)
    for f_tol in GRID:
        a = double_acceptance_exact(1000, f_tol, exact_zero)
        b = double_acceptance_exact(1000, f_tol, tiny)
        assert a > 0.0 and abs(a - b) <= 1e-12 * a


def test_double_acceptance_validates_distribution():
    with pytest.raises(ValueError):
        double_acceptance_exact(5, Fraction(1, 2), (0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError):
        double_acceptance_exact(0, Fraction(1, 2), O.CLONER_DIST)


# -- multicopy issuance and store-backed redemption ---------------------------

def test_multicopy_issue_shares_serial_and_states(rng):
    secret, tokens = multicopy_issue(24, 3, rng)
    assert len(tokens) == 3
    for t in tokens:
        assert t.serial == secret.serial
        np.testing.assert_array_equal(t.qubits, tokens[0].qubits)
    assert tokens[0].qubits is not tokens[1].qubits
    with pytest.raises(ValueError):
        multicopy_issue(24, 0, rng)


def test_verifier_redeem_budget(rng):
    store = SecretStore()
    secret, tokens = multicopy_issue(30, 2, rng)
    store.add_qticket(secret.serial, secret.labels, f_tol=Fraction(4, 5),
                      issued_copies=2)
    verifier = Verifier(store)
    out1 = verifier.redeem(tokens[0], rng)
    out2 = verifier.redeem(tokens[1], rng)
    assert out1.accepted and out2.accepted
    extra = token_from_secret(secret)
    out3 = verifier.redeem(extra, rng)
    assert not out3.accepted and out3.reason == "serial-exhausted"


def test_verifier_redeem_unknown_serial(rng):
    verifier = Verifier(SecretStore())
    secret, token = issue(5, rng)
    with pytest.raises(UnknownSerialError):
        verifier.redeem(token, rng)


# -- correlated pair sampling -------------------------------------------------

def test_correlated_pair_outcome_statistics(rng, rng_factory):
    # post-cloning two-qubit states straight from the reference channel
    n = 4000
    labels = rng.integers(0, 6, size=n).astype(np.uint8)
    states = np.stack([
        O.cloner_output(O.ket_projector(O.LABEL_ORDER[i])) for i in labels
    ])
    pair = O.CorrelatedPair(states)
    first = pair.outcome_bits(0, labels, rng_factory(11))
    second = pair.outcome_bits(1, labels, rng_factory(99))  # ignored: bits frozen
    counts = np.bincount(2 * (1 - first) + (1 - second), minlength=4)
    # outcome order 11, 10, 01, 00; the cloner never fails both sides
    expected = np.array([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0, 0.0])
    assert counts[3] == 0
    assert O.chisq_stat(counts[:3], expected[:3]) < 22.0


def test_correlated_pair_bits_frozen_between_sides(rng, rng_factory):
    labels = rng.integers(0, 6, size=50).astype(np.uint8)
    states = np.stack([
        O.cloner_output(O.ket_projector(O.LABEL_ORDER[i])) for i in labels
    ])
    pair = O.CorrelatedPair(states, rng=rng_factory(5))
    a1 = pair.outcome_bits(0, labels, rng_factory(1))
    a2 = pair.outcome_bits(0, labels, rng_factory(2))
    np.testing.assert_array_equal(a1, a2)


def test_correlated_pair_token_verification(rng):
    secret, _ = issue(60, rng)
    states = np.stack([
        O.cloner_output(O.ket_projector(O.LABEL_ORDER[i]))
        for i in secret.labels
    ])
    pair = O.CorrelatedPair(states)
    t0 = O.CounterfeitHalf(secret.serial, pair, 0)
    t1 = O.CounterfeitHalf(secret.serial, pair, 1)
    policy = POLICY(Fraction(3, 4), 60)
    o0 = O.verify_half(secret, t0, policy, rng)
    o1 = O.verify_half(secret, t1, policy, rng)
    assert o0.correct_count + o1.correct_count <= 2 * 60
    assert isinstance(o0, VerificationOutcome)


def test_correlated_pair_validates_shape(rng):
    with pytest.raises(ValueError):
        O.CorrelatedPair(np.zeros((4, 2, 2)))
    with pytest.raises(ValueError):
        TokenInstance("s", None)
