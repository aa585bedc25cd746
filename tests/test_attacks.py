"""Cloning strategies, sequential multi-verifier attacks, cv attackers."""
import math
from fractions import Fraction

import numpy as np
import pytest

from qtokens.attacks import (CV_ATTACKERS, INTERMEDIATE_BASIS,
                             MEASURE_REPREPARE_Z, PAIR_STRATEGIES,
                             RATE_DRIVERS, UNIVERSAL_CLONER,
                             HonestCopyAttacker, IntermediateBasisAttacker,
                             _uniform_guess_success,
                             double_accept_mc, intermediate_basis_bits,
                             mixture_outcome_distribution,
                             pair_outcome_distribution, sequential_attack_rate)
from qtokens.bounds import learning_bound
from qtokens.core import LABELS
from qtokens.cv import CvLayout, cv_issue, random_question, score_answer
from qtokens.qticket import (QticketSecret, VerifierPolicy,
                             double_acceptance_exact, issue, token_from_secret)

import oracles as O


CLONER = np.array([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0, 0.0])
MIXTURE = np.array([1.0 / 2.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0])

# literal reference for each strategy's one-to-two map
REFERENCE_MAPS = {
    "universal-cloner": O.cloner_output,
    "measure-reprepare-z": lambda rho: O.measure_reprepare_output(
        rho, O.ket_projector("Z+")),
    "intermediate-basis": lambda rho: O.measure_reprepare_output(
        rho, O.intermediate_plus_projector()),
}


# -- exact per-label outcome laws --------------------------------------------

def test_cloner_distribution_every_label():
    dists = []
    for lab, name in zip(LABELS, O.LABEL_ORDER):
        got = np.array(pair_outcome_distribution(UNIVERSAL_CLONER, lab))
        want = np.array(O.pair_joint_dist(
            O.cloner_output(O.ket_projector(name)), name))
        np.testing.assert_allclose(got, want, atol=1e-14)
        np.testing.assert_allclose(got, CLONER, atol=1e-12)
        dists.append(got)
    assert np.ptp(np.array(dists), axis=0).max() < 1e-12


def test_measure_reprepare_distribution_per_label():
    plus_z = O.ket_projector("Z+")
    for lab, name in zip(LABELS, O.LABEL_ORDER):
        got = np.array(pair_outcome_distribution(MEASURE_REPREPARE_Z, lab))
        want = np.array(O.pair_joint_dist(
            O.measure_reprepare_output(O.ket_projector(name), plus_z), name))
        np.testing.assert_allclose(got, want, atol=1e-14)
        if name.startswith("Z"):
            np.testing.assert_allclose(got, [1, 0, 0, 0], atol=1e-14)
        else:
            np.testing.assert_allclose(got, [0.25] * 4, atol=1e-14)


def test_intermediate_basis_distribution_per_label():
    basis = O.intermediate_plus_projector()
    for lab, name in zip(LABELS, O.LABEL_ORDER):
        got = np.array(pair_outcome_distribution(INTERMEDIATE_BASIS, lab))
        want = np.array(O.pair_joint_dist(
            O.measure_reprepare_output(O.ket_projector(name), basis), name))
        np.testing.assert_allclose(got, want, atol=1e-14)
        if name.startswith("Y"):
            np.testing.assert_allclose(got, [0.25] * 4, atol=1e-12)
        else:
            np.testing.assert_allclose(got, [0.625, 0.125, 0.125, 0.125],
                                       atol=1e-12)


def test_mixture_distributions():
    np.testing.assert_allclose(
        np.array(mixture_outcome_distribution(UNIVERSAL_CLONER)), CLONER,
        atol=1e-12)
    for strat in (MEASURE_REPREPARE_Z, INTERMEDIATE_BASIS):
        got = np.array(mixture_outcome_distribution(strat))
        np.testing.assert_allclose(got, MIXTURE, atol=1e-12)
        per_label = np.array([pair_outcome_distribution(strat, lab)
                              for lab in LABELS])
        np.testing.assert_allclose(got, per_label.mean(axis=0), atol=1e-15)


def test_strategies_are_trace_preserving_and_positive(rng):
    states = [O.ket_projector(n) for n in O.LABEL_ORDER]
    states += [O.random_pure_state(rng) for _ in range(5)]
    assert set(REFERENCE_MAPS) == set(PAIR_STRATEGIES)
    for name, strat in PAIR_STRATEGIES.items():
        for rho in states:
            out = strat(rho)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(out).min() > -1e-12
        stack = np.stack(states)
        np.testing.assert_allclose(strat.apply_stack(stack),
                                   np.stack([REFERENCE_MAPS[name](r) for r in stack]),
                                   atol=1e-13)


def test_single_copy_ceilings_hold_for_all_strategies():
    # the 2/3 joint and 5/6 marginal ceilings are statements about the
    # uniform-label ensemble, so they bind the label-averaged law
    for strat in PAIR_STRATEGIES.values():
        m = mixture_outcome_distribution(strat)
        assert m.p11 <= 2.0 / 3.0 + 1e-12
        assert m.first_marginal <= 5.0 / 6.0 + 1e-12
        assert m.second_marginal <= 5.0 / 6.0 + 1e-12
    cloner = mixture_outcome_distribution(UNIVERSAL_CLONER)
    assert abs(cloner.p11 - 2.0 / 3.0) < 1e-12
    assert abs(cloner.first_marginal - 5.0 / 6.0) < 1e-12
    assert abs(cloner.second_marginal - 5.0 / 6.0) < 1e-12


# -- counterfeit objects -------------------------------------------------------

def test_counterfeit_consumes_and_pairs(rng):
    secret, token = issue(25, rng)
    first, second = O.counterfeit(token, UNIVERSAL_CLONER)
    assert token.consumed
    assert first.serial == second.serial == secret.serial
    assert first.pair is second.pair
    assert (first.side, second.side) == (0, 1)
    with pytest.raises(ValueError):
        O.counterfeit(token, UNIVERSAL_CLONER)
    with pytest.raises(ValueError):
        O.counterfeit(first, UNIVERSAL_CLONER)


def test_object_level_double_acceptance_matches_mixture_law(rng):
    # issue fresh labels per trial: per-position outcomes are then iid from
    # the label-averaged law, which double_acceptance_exact integrates exactly
    n, f_tol, trials = 40, Fraction(3, 4), 2500
    policy = VerifierPolicy(f_tol, n)
    for strat in (UNIVERSAL_CLONER, MEASURE_REPREPARE_Z, INTERMEDIATE_BASIS):
        p = double_acceptance_exact(n, f_tol, mixture_outcome_distribution(strat))
        hits = 0
        for _ in range(trials):
            secret, token = issue(n, rng)
            first, second = O.counterfeit(token, strat)
            o1 = O.verify_half(secret, first, policy, rng)
            o2 = O.verify_half(secret, second, policy, rng)
            hits += int(o1.accepted and o2.accepted)
        sigma = math.sqrt(max(p * (1.0 - p) * trials, 1.0))
        assert abs(hits - p * trials) < 4.0 * sigma, (strat.name, hits, p)


@pytest.mark.parametrize("label", O.LABEL_ORDER)
@pytest.mark.parametrize("strategy", sorted(PAIR_STRATEGIES))
def test_counterfeit_joint_counts_per_label(strategy, label, rng):
    # every position carries the same label, so the joint pass/fail counts
    # of the two counterfeits follow that one label's four-way law
    n = 3000
    secret = QticketSecret("one-label", np.full(n, O.LABEL_ORDER.index(label),
                                                dtype=np.uint8))
    first, second = O.counterfeit(token_from_secret(secret),
                                  PAIR_STRATEGIES[strategy], rng)
    policy = VerifierPolicy(Fraction(1, 2), n)
    counts = (O.verify_half(secret, first, policy, rng).correct_count,
              O.verify_half(secret, second, policy, rng).correct_count)
    bits = [first.pair.outcome_bits(side, secret.labels, rng) for side in (0, 1)]
    assert counts == (bits[0].sum(), bits[1].sum())
    joint = np.bincount(2 * (1 - bits[0]) + (1 - bits[1]), minlength=4)
    want = np.array(O.pair_joint_dist(
        REFERENCE_MAPS[strategy](O.ket_projector(label)), label))
    sigma = np.sqrt(n * want * (1.0 - want))
    assert (np.abs(joint - n * want) <= 4.0 * sigma).all(), (joint, n * want)


def test_double_accept_mc_agrees_with_exact(rng):
    n, f_tol, trials = 100, Fraction(4, 5), 200_000
    dist = mixture_outcome_distribution(UNIVERSAL_CLONER)
    p = double_acceptance_exact(n, f_tol, dist)
    hits = double_accept_mc(n, f_tol, dist, trials, rng)
    sigma = math.sqrt(p * (1.0 - p) * trials)
    assert abs(hits - p * trials) < 4.0 * sigma


def test_uniform_guess_success_is_one_half():
    assert abs(_uniform_guess_success() - 0.5) < 1e-15
    overlaps = [np.trace(O.ket_projector(a) @ O.ket_projector(b)).real
                for a in O.LABEL_ORDER for b in O.LABEL_ORDER]
    assert abs(np.mean(overlaps) - 0.5) < 1e-15


# -- sequential attacks ---------------------------------------------------------

def test_registry_names():
    names = {"clone-then-adapt", "resubmit-after-reject", "honest-once-then-noise"}
    assert set(O.DRIVERS) == names
    assert set(RATE_DRIVERS) == names
    assert set(PAIR_STRATEGIES) == {"universal-cloner", "measure-reprepare-z",
                                    "intermediate-basis"}
    assert CV_ATTACKERS == {"intermediate-basis": IntermediateBasisAttacker,
                            "honest-copy": HonestCopyAttacker}


def test_sequential_attack_transcripts(rng):
    secret, _ = issue(50, rng)
    policy = VerifierPolicy(Fraction(4, 5), 50)
    transcript = O.sequential_attack("clone-then-adapt", secret, 4, policy, rng)
    assert len(transcript) == 4
    assert all(o.serial == secret.serial for o in transcript)

    transcript = O.sequential_attack("honest-once-then-noise", secret, 3, policy, rng)
    assert transcript[0].accepted and transcript[0].correct_count == 50

    transcript = O.sequential_attack("resubmit-after-reject", secret, 3, policy, rng)
    assert len(transcript) == 3
    with pytest.raises(ValueError):
        O.sequential_attack("clone-then-adapt", secret, 0, policy, rng)


def test_object_level_matches_batched_rates(rng):
    # the batched laws must reproduce per-object transcripts; compared at a
    # loose threshold where every driver's double-accept rate is visible
    from qtokens.rational import threshold_count
    n, f_tol, v = 30, Fraction(7, 10), 3
    k_min = threshold_count(f_tol, n)
    policy = VerifierPolicy(f_tol, n)
    obj_trials, batch_trials = 1200, 50_000
    for name in O.DRIVERS:
        obj_hits = 0
        for _ in range(obj_trials):
            secret, _ = issue(n, rng)
            tr = O.sequential_attack(name, secret, v, policy, rng)
            obj_hits += int(sum(o.accepted for o in tr) >= 2)
        accepts = RATE_DRIVERS[name](n, k_min, v, batch_trials, rng)
        p = float((accepts.sum(axis=1) >= 2).mean())
        sigma = math.sqrt(max(p * (1.0 - p), 1e-6) *
                          (1.0 / obj_trials + 1.0 / batch_trials))
        assert abs(obj_hits / obj_trials - p) < 4.0 * sigma, (name, obj_hits, p)


def test_sequential_attack_rate_summary(rng):
    summary = sequential_attack_rate(1000, Fraction(9, 10), 10,
                                     "clone-then-adapt", 20_000, rng)
    assert summary.trials == 20_000 and summary.n_verifiers == 10
    assert sum(summary.accept_histogram) == 20_000
    assert len(summary.accept_histogram) == 11
    assert summary.rate == summary.double_accepts / 20_000
    assert summary.double_accepts == 0
    assert summary.bound.raw == learning_bound(1000, Fraction(9, 10), 10).raw
    with pytest.raises(ValueError):
        sequential_attack_rate(1000, Fraction(9, 10), 1, "clone-then-adapt",
                               100, rng)


# -- challenge-response attackers -----------------------------------------------

def test_intermediate_basis_bits_statistics(rng):
    m = 100_000
    cases = {"Z+": (0, O.COS2_PI_8), "Z-": (1, O.COS2_PI_8),
             "X+": (0, O.COS2_PI_8), "X-": (1, O.COS2_PI_8),
             "Y+": (0, 0.5)}
    for name, (true_bit, p_succ) in cases.items():
        stack = np.broadcast_to(O.ket_projector(name), (m, 2, 2))
        bits = intermediate_basis_bits(stack, rng)
        success = float((bits == true_bit).mean())
        sigma = math.sqrt(p_succ * (1.0 - p_succ) / m)
        assert abs(success - p_succ) < 4.0 * sigma, (name, success)


def test_intermediate_attacker_commits_once(rng):
    layout = CvLayout(3, 8, Fraction(3, 4))
    secret, token = cv_issue(layout, rng)
    attacker = IntermediateBasisAttacker()
    attacker.prepare(token, rng)
    assert token.consumed
    q1 = random_question(layout, rng)
    q2 = random_question(layout, rng)
    a1 = attacker.answer(q1, rng)
    a2 = attacker.answer(q2, rng)
    assert a1 is a2
    assert a1.shape == (3, 8, 2)
    with pytest.raises(ValueError):
        attacker.prepare(token, rng)
    with pytest.raises(RuntimeError):
        IntermediateBasisAttacker().answer(q1, rng)


def test_honest_copy_attacker_replays_first_sheet(rng):
    layout = CvLayout(2, 6, Fraction(2, 3))
    secret, token = cv_issue(layout, rng)
    attacker = HonestCopyAttacker()
    attacker.prepare(token, rng)
    q1 = random_question(layout, rng)
    sheet1 = attacker.answer(q1, rng)
    assert token.consumed
    card1 = score_answer(secret, q1, sheet1, layout)
    assert card1.accepted and card1.per_block_correct == (6, 6)
    q2 = random_question(layout, rng)
    sheet2 = attacker.answer(q2, rng)
    assert sheet2 is sheet1
    with pytest.raises(RuntimeError):
        HonestCopyAttacker().answer(q1, rng)
