"""Paired-block tokens: issuance, scoring, wire sessions, experiments."""
import contextlib
import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from qtokens import wire
from qtokens.channels import depolarizing, depolarizing_for_fidelity, identity_channel
from qtokens.cv import (AXES, PAIRINGS, QUESTION_POLICIES, ChallengeQuestion,
                        CvLayout, CvToken, CvVerifier, apply_noise, complement_question,
                        complementary_double_spend_bound, cv_issue,
                        double_spend_experiment, honest_answer,
                        honest_protocol_experiment, random_question, register,
                        run_holder, score_answer)
from qtokens.attacks import HonestCopyAttacker, IntermediateBasisAttacker
from qtokens.store import SecretStore

import oracles as O


# per-label tables rebuilt from the oracle's names, not from qtokens.core
EIGENBITS = np.array([name[1] == "-" for name in O.LABEL_ORDER], dtype=np.uint8)
AXIS_IS_X = np.array([name[0] == "X" for name in O.LABEL_ORDER])


def _perfect_sheet(secret) -> np.ndarray:
    # scored members always report their eigenbit; unscored bits are ignored
    return EIGENBITS[secret.pairs].copy()


def _scored_mask(secret, question) -> np.ndarray:
    asked_x = np.array([a == "X" for a in question.axes])
    return AXIS_IS_X[secret.pairs] == asked_x[:, None, None]


# -- layout and issuance ------------------------------------------------------

def test_layout_properties_and_validation():
    layout = CvLayout(4, 16, Fraction(3, 4))
    assert layout.k_min == 12 and layout.n_qubits == 128
    assert CvLayout(2, 4, Fraction(3, 4)).k_min == 3
    assert CvLayout(1, 5, Fraction(1, 2)).k_min == 3
    with pytest.raises(ValueError):
        CvLayout(0, 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        CvLayout(4, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        CvLayout(4, 4, Fraction(3, 2))


def test_cv_issue_shapes_and_pairs(rng):
    layout = CvLayout(5, 12, Fraction(3, 4))
    secret, token = cv_issue(layout, rng)
    assert secret.pairs.shape == (5, 12, 2) and secret.pairs.dtype == np.uint8
    assert token.qubits.shape == (5, 12, 2, 2, 2)
    assert token.serial == secret.serial
    assert token.shape == (5, 12)
    # every pair holds exactly one Z member and one X member
    is_x = AXIS_IS_X[secret.pairs]
    assert (is_x.sum(axis=2) == 1).all()
    # qubit states match the recorded labels
    for b in range(5):
        for p in range(12):
            for m in range(2):
                name = O.LABEL_ORDER[secret.pairs[b, p, m]]
                np.testing.assert_allclose(token.qubits[b, p, m],
                                           O.ket_projector(name), atol=1e-15)


def test_cv_issue_deterministic(rng_factory):
    layout = CvLayout(3, 8, Fraction(3, 4))
    s1, t1 = cv_issue(layout, rng_factory(3))
    s2, t2 = cv_issue(layout, rng_factory(3))
    assert s1.serial == s2.serial
    np.testing.assert_array_equal(s1.pairs, s2.pairs)


# -- questions -----------------------------------------------------------------

def test_random_question_shape(rng):
    layout = CvLayout(6, 4, Fraction(1, 2))
    q = random_question(layout, rng)
    assert len(q.axes) == 6
    assert set(q.axes) <= set(AXES)
    assert len(q.question_id) == 16


def test_complement_question_flips_every_axis(rng):
    q = ChallengeQuestion("orig", ("Z", "X", "Z"))
    c = complement_question(q, rng)
    assert c.axes == ("X", "Z", "X")
    assert c.question_id != q.question_id
    with pytest.raises(ValueError):
        ChallengeQuestion("bad", ("Z", "Y"))


# -- honest answering and scoring -----------------------------------------------

def test_honest_noiseless_answers_accept(rng):
    layout = CvLayout(3, 8, Fraction(3, 4))
    secret, token = cv_issue(layout, rng)
    question = random_question(layout, rng)
    sheet = honest_answer(token, question, None, rng)
    assert token.consumed
    assert sheet.question_id == question.question_id
    card = score_answer(secret, question, sheet.outcomes, layout)
    assert card.accepted
    assert card.per_block_correct == (8, 8, 8)
    assert card.k_min == 6
    with pytest.raises(ValueError):
        honest_answer(token, question, None, rng)


def test_honest_answer_question_length_mismatch(rng):
    layout = CvLayout(3, 8, Fraction(3, 4))
    _, token = cv_issue(layout, rng)
    with pytest.raises(ValueError):
        honest_answer(token, ChallengeQuestion("q", ("Z",)), None, rng)


def test_threshold_counting_at_block_level(rng):
    # r = 4 at f_tol = 3/4 needs 3 correct scored bits per block
    layout = CvLayout(2, 4, Fraction(3, 4))
    secret, _ = cv_issue(layout, rng)
    question = random_question(layout, rng)
    sheet = _perfect_sheet(secret)
    scored = _scored_mask(secret, question)
    card = score_answer(secret, question, sheet, layout)
    assert card.accepted and card.per_block_correct == (4, 4)

    flipped = sheet.copy()
    for block in range(2):
        i, j = np.argwhere(scored[block])[0]
        flipped[block, i, j] ^= 1
    card = score_answer(secret, question, flipped, layout)
    assert card.per_block_correct == (3, 3) and card.accepted

    two = flipped.copy()
    i, j = np.argwhere(scored[1])[1]
    two[1, i, j] ^= 1
    card = score_answer(secret, question, two, layout)
    assert card.per_block_correct == (3, 2) and not card.accepted


def test_unscored_bits_never_matter(rng):
    layout = CvLayout(3, 6, Fraction(5, 6))
    secret, _ = cv_issue(layout, rng)
    question = random_question(layout, rng)
    sheet = _perfect_sheet(secret)
    garbled = sheet ^ (~_scored_mask(secret, question)).astype(np.uint8)
    card = score_answer(secret, question, garbled, layout)
    assert card.accepted and card.per_block_correct == (6, 6, 6)


def test_score_answer_validation(rng):
    layout = CvLayout(2, 4, Fraction(3, 4))
    secret, _ = cv_issue(layout, rng)
    question = random_question(layout, rng)
    sheet = _perfect_sheet(secret)
    with pytest.raises(ValueError):
        score_answer(secret, question, sheet[:1], layout)
    with pytest.raises(ValueError):
        score_answer(secret, question, sheet + 5, layout)
    short = ChallengeQuestion("q", ("Z",))
    with pytest.raises(ValueError):
        score_answer(secret, short, sheet, layout)


def test_uniform_random_sheets_score_like_fair_coins(rng):
    layout = CvLayout(2, 16, Fraction(3, 4))
    p_block = O.binom_tail_ge(16, 0.5, 12)
    p = p_block ** 2
    trials, hits = 20_000, 0
    secret, _ = cv_issue(layout, rng)
    question = random_question(layout, rng)
    for _ in range(trials):
        sheet = rng.integers(0, 2, size=(2, 16, 2), dtype=np.uint8)
        hits += score_answer(secret, question, sheet, layout).accepted
    sigma = math.sqrt(p * (1.0 - p) * trials)
    assert abs(hits - p * trials) < 4.0 * sigma


def test_noisy_honest_acceptance_matches_binomial_law(rng):
    layout = CvLayout(4, 24, Fraction(3, 4))
    chan = depolarizing_for_fidelity(0.9)
    p_block = O.binom_tail_ge(24, 0.9, 18)
    p = p_block ** 4
    trials, hits = 800, 0
    for _ in range(trials):
        secret, token = cv_issue(layout, rng)
        question = random_question(layout, rng)
        sheet = honest_answer(token, question, chan, rng)
        hits += score_answer(secret, question, sheet.outcomes, layout).accepted
    sigma = math.sqrt(p * (1.0 - p) * trials)
    assert abs(hits - p * trials) < 4.0 * sigma


def test_apply_noise(rng):
    layout = CvLayout(2, 5, Fraction(3, 4))
    _, token = cv_issue(layout, rng)
    same = apply_noise(token, identity_channel())
    np.testing.assert_allclose(same.qubits, token.qubits, atol=1e-15)
    mixed = apply_noise(token, depolarizing(1.0))
    np.testing.assert_allclose(mixed.qubits,
                               np.broadcast_to(np.eye(2) / 2, (2, 5, 2, 2, 2)),
                               atol=1e-15)


def test_register_writes_record(rng):
    layout = CvLayout(2, 3, Fraction(2, 3))
    secret, _ = cv_issue(layout, rng)
    store = SecretStore()
    register(store, layout, secret)
    rec = store.get(secret.serial)
    assert rec["n"] == 2 and rec["r"] == 3
    assert rec["f_tol"] == "2/3"
    assert len(rec["pairs"]) == 6
    assert rec["accepted_count"] == 0 and rec["attempts"] == 0


# -- wire sessions ----------------------------------------------------------------

@contextlib.contextmanager
def _spawned_verifier(serve):
    """Run ``serve(verifier_end)`` on a thread over a socketpair and yield
    the holder end and a list that receives what ``serve`` returns.  The
    verifier end closes when ``serve`` returns or raises, so a failing
    verifier hangs no holder; the holder end closes on exit."""
    vchan, hchan = wire.LineChannel.pair()
    result: list = []

    def run():
        with vchan:
            result.append(serve(vchan))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    with hchan:
        yield hchan, result
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def _fresh_setup(rng, policy="random", max_attempts=8, n=2, r=8,
                 f_tol=Fraction(3, 4)):
    layout = CvLayout(n, r, f_tol)
    secret, token = cv_issue(layout, rng)
    store = SecretStore()
    register(store, layout, secret)
    verifier = CvVerifier(store, rng, question_policy=policy,
                          max_attempts=max_attempts)
    return layout, secret, token, store, verifier


def test_wire_honest_session_accepts(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, result):
        verdict = run_holder(hchan, token, rng)
    assert verdict["type"] == "verdict" and verdict["accepted"]
    assert verdict["reason"] is None
    assert result[0] == verdict
    assert store.get(secret.serial)["accepted_count"] == 1


def test_wire_unknown_serial(rng):
    _, _, _, _, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        hchan.send(wire.hello_message("no-such-serial"))
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "unknown-serial"


def test_wire_already_redeemed(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        assert run_holder(hchan, token, rng)["accepted"]
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        hchan.send(wire.hello_message(secret.serial))
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "already-redeemed"


def test_wire_attempt_budget(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng, max_attempts=2)
    wrong = 1 - _perfect_sheet(secret)
    for _ in range(2):
        with _spawned_verifier(verifier.serve_one) as (hchan, _):
            hchan.send(wire.hello_message(secret.serial))
            challenge = hchan.recv()
            hchan.send(wire.answer_message(challenge["question_id"], wrong))
            verdict = hchan.recv()
        assert verdict["type"] == "verdict" and not verdict["accepted"]
        assert verdict["reason"] == "below-threshold"
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        hchan.send(wire.hello_message(secret.serial))
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "attempt-budget-exceeded"
    assert store.get(secret.serial)["attempts"] == 2


def test_wire_question_mismatch(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        hchan.send(wire.hello_message(secret.serial))
        hchan.recv()
        hchan.send(wire.answer_message("stale-id", _perfect_sheet(secret)))
        verdict = hchan.recv()
    assert verdict["type"] == "verdict" and not verdict["accepted"]
    assert verdict["reason"] == "question-mismatch"


def test_wire_malformed_answer_aborts(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        hchan.send(wire.hello_message(secret.serial))
        challenge = hchan.recv()
        bad = wire.answer_message(challenge["question_id"], _perfect_sheet(secret))
        bad["outcomes"] = [["nope"]]
        hchan.send(bad)
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "protocol-error"


def test_wire_non_answer_reply_aborts(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        hchan.send(wire.hello_message(secret.serial))
        hchan.recv()
        hchan.send(wire.hello_message(secret.serial))
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "protocol-error"


def test_wire_qticket_serial_is_not_paired(rng):
    from qtokens.qticket import issue
    layout, secret, token, store, verifier = _fresh_setup(rng)
    q_secret, _ = issue(4, rng)
    store.add_qticket(q_secret.serial, q_secret.labels, Fraction(1, 2))
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        hchan.send(wire.hello_message(q_secret.serial))
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "protocol-error"


@pytest.mark.parametrize("serial", [["x"], 5, None])
def test_wire_non_string_serial_is_protocol_error(rng, serial):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    attempts = store.get(secret.serial)["attempts"]
    vchan, hchan = wire.LineChannel.pair()
    with vchan, hchan:
        hchan.send(wire.hello_message(serial))
        sent = verifier.serve_one(vchan)
        msg = hchan.recv()
    assert msg == sent
    assert msg["type"] == "error" and msg["code"] == "protocol-error"
    assert store.get(secret.serial)["attempts"] == attempts


def test_fixed_policy_repeats_axes(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng, policy="fixed")
    wrong = 1 - _perfect_sheet(secret)
    seen = []
    for _ in range(2):
        with _spawned_verifier(verifier.serve_one) as (hchan, _):
            hchan.send(wire.hello_message(secret.serial))
            challenge = hchan.recv()
            seen.append((challenge["question_id"], tuple(challenge["axes"])))
            hchan.send(wire.answer_message(challenge["question_id"], wrong))
            hchan.recv()
    assert seen[0][1] == seen[1][1]
    assert seen[0][0] != seen[1][0]


def test_complementary_policy_flips_axes(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng, policy="complementary")
    wrong = 1 - _perfect_sheet(secret)
    seen = []
    for _ in range(2):
        with _spawned_verifier(verifier.serve_one) as (hchan, _):
            hchan.send(wire.hello_message(secret.serial))
            challenge = hchan.recv()
            seen.append(tuple(challenge["axes"]))
            hchan.send(wire.answer_message(challenge["question_id"], wrong))
            hchan.recv()
    assert seen[1] == tuple("X" if a == "Z" else "Z" for a in seen[0])


def test_verifier_policy_validation(rng):
    with pytest.raises(ValueError):
        CvVerifier(SecretStore(), rng, question_policy="surprise")
    assert QUESTION_POLICIES == ("random", "fixed", "complementary")


def test_verifier_session_loops_until_hangup(rng, rng_factory):
    layout = CvLayout(2, 8, Fraction(3, 4))
    secret, token = cv_issue(layout, rng)
    session = lambda chan: O.verifier_session(secret, layout, "fixed", chan,
                                              rng_factory(21))
    with _spawned_verifier(session) as (hchan, result):
        # round 1: deliberately fail
        hchan.send(wire.hello_message(secret.serial))
        challenge = hchan.recv()
        hchan.send(wire.answer_message(challenge["question_id"],
                                       1 - _perfect_sheet(secret)))
        v1 = hchan.recv()
        assert not v1["accepted"]
        # round 2: answer honestly and win
        hchan.send(wire.hello_message(secret.serial))
        challenge = hchan.recv()
        hchan.send(wire.answer_message(challenge["question_id"],
                                       _perfect_sheet(secret)))
        v2 = hchan.recv()
        assert v2["accepted"]
    assert result[0] == v2


def test_run_holder_surfaces_errors(rng):
    layout = CvLayout(2, 4, Fraction(1, 2))
    secret, token = cv_issue(layout, rng)
    _, _, _, _, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        msg = run_holder(hchan, token, rng)
    assert msg["type"] == "error" and msg["code"] == "unknown-serial"


# -- batched experiments -------------------------------------------------------------

def test_honest_experiment_noiseless_is_certain(rng):
    layout = CvLayout(3, 10, Fraction(4, 5))
    report = honest_protocol_experiment(layout, None, 600, rng)
    assert report.trials == 600 and report.accepts == 600
    assert report.rate == 1.0


def test_honest_experiment_matches_binomial_law(rng):
    layout = CvLayout(4, 24, Fraction(3, 4))
    chan = depolarizing_for_fidelity(0.9)
    report = honest_protocol_experiment(layout, chan, 4000, rng)
    p = O.binom_tail_ge(24, 0.9, 18) ** 4
    sigma = math.sqrt(p * (1.0 - p) / 4000)
    assert abs(report.rate - p) < 4.0 * sigma
    assert report.rate >= report.bound.raw - 4.0 * sigma
    want = float(O.mp_cv_soundness_bound(4, 24, 0.9, 0.75))
    assert abs(report.bound.raw - want) < 1e-12


def test_double_spend_report_shape(rng):
    layout = CvLayout(2, 8, Fraction(3, 4))
    report = double_spend_experiment(layout, IntermediateBasisAttacker(),
                                     "independent", 50, rng)
    assert report.attacker == "intermediate-basis"
    assert report.pairing == "independent"
    assert report.trials == 50
    assert 0.0 <= report.rate <= 1.0
    assert 0.0 <= report.mean_pair_utility <= 1.0
    # below the paired-token threshold the union bound is vacuous
    assert report.bound == 1.0
    with pytest.raises(ValueError):
        double_spend_experiment(layout, IntermediateBasisAttacker(), "twice", 5, rng)


def test_honest_copy_double_spend_matches_replay_law(rng):
    layout = CvLayout(4, 16, Fraction(3, 4))
    trials = 3000
    report = double_spend_experiment(layout, HonestCopyAttacker(),
                                     "independent", trials, rng)
    p = O.honest_copy_double_accept(4, 16, 12)
    sigma = math.sqrt(p * (1.0 - p) * trials)
    assert abs(report.successes - p * trials) < 4.0 * sigma


def test_intermediate_basis_complementary_utility_ceiling(rng):
    layout = CvLayout(4, 64, Fraction(23, 25))
    trials = 1500
    report = double_spend_experiment(layout, IntermediateBasisAttacker(),
                                     "complementary", trials, rng)
    scored = 2 * 4 * 64 * trials
    sigma = math.sqrt(0.25 / scored)
    assert report.mean_pair_utility <= O.COS2_PI_8 + 4.0 * sigma
    assert report.mean_pair_utility >= O.COS2_PI_8 - 6.0 * sigma
    assert report.bound == complementary_double_spend_bound(layout)
    assert report.bound < 1.0
    assert report.rate <= report.bound


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("attacker", [IntermediateBasisAttacker, HonestCopyAttacker])
def test_double_spend_matches_object_level_reference(attacker, pairing, rng):
    # the batched core against the per-trial issue/answer/score loop, at a
    # loose threshold where both attackers double-spend visibly
    layout = CvLayout(2, 8, Fraction(3, 4))
    ref_trials, batch_trials = 2000, 20_000
    ref_hits, utilities = O.double_spend_reference(layout, attacker(), pairing,
                                                   ref_trials, rng)
    report = double_spend_experiment(layout, attacker(), pairing, batch_trials, rng)
    scale = math.sqrt(1.0 / ref_trials + 1.0 / batch_trials)
    p = (ref_hits + report.successes) / (ref_trials + batch_trials)
    assert 0.0 < p < 1.0
    assert abs(ref_hits / ref_trials - report.rate) \
        < 4.0 * math.sqrt(p * (1.0 - p)) * scale
    assert abs(utilities.mean() - report.mean_pair_utility) \
        < 4.0 * utilities.std() * scale


def test_complementary_bound_vacuous_below_game_value():
    assert complementary_double_spend_bound(CvLayout(4, 16, Fraction(3, 4))) == 1.0
    tight = complementary_double_spend_bound(CvLayout(20, 200, Fraction(23, 25)))
    assert 0.0 < tight < 1e-6


def test_pairings_registry():
    assert PAIRINGS == ("independent", "complementary")
