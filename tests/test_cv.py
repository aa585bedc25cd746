"""Paired-block tokens: issuance, scoring, wire sessions, experiments."""
import contextlib
import json
import math
import socket
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, settings, strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, consumes,
                                 initialize, invariant, multiple, rule)

from qtokens import cv, wire
from qtokens.channels import depolarizing, depolarizing_for_fidelity, identity_channel
from qtokens.bounds import cv_complementary_bound
from qtokens.core import LABELS, TokenConsumedError
from qtokens.cv import (AXES, HELLO_LINE_BYTES, PAIRINGS, QUESTION_POLICIES,
                        ChallengeQuestion, CvLayout, CvToken, CvVerifier,
                        complement_question, cv_issue,
                        double_spend_experiment, honest_answer,
                        honest_protocol_experiment, random_question, register,
                        run_holder, score_answer)
from qtokens.attacks import HonestCopyAttacker, IntermediateBasisAttacker
from qtokens.qticket import degrade
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
    with pytest.raises(TokenConsumedError):
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


def test_degrade_keeps_a_paired_token_paired(rng):
    layout = CvLayout(2, 5, Fraction(3, 4))
    _, token = cv_issue(layout, rng)
    same = degrade(token, identity_channel())
    assert isinstance(same, CvToken) and same.shape == (2, 5)
    np.testing.assert_allclose(same.qubits, token.qubits, atol=1e-15)
    mixed = degrade(token, depolarizing(1.0))
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
    vchan, hchan = O.channel_pair()
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


def test_wire_deeply_nested_answer_is_protocol_error(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, result):
        hchan.send(wire.hello_message(secret.serial))
        hchan.recv()
        hchan._sock.sendall(b'{"type":"answer","outcomes":' + b"[" * 100_000 + b"\n")
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "protocol-error"
    assert result == [msg]
    assert store.get(secret.serial)["accepted_count"] == 0


def test_wire_ragged_answer_is_protocol_error(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, result):
        hchan.send(wire.hello_message(secret.serial))
        challenge = hchan.recv()
        ragged = wire.answer_message(challenge["question_id"], _perfect_sheet(secret))
        ragged["outcomes"] = ragged["outcomes"][:-1]    # one bit short of the layout
        hchan.send(ragged)
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "protocol-error"
    assert msg["detail"] == "malformed answer: malformed outcomes: not a string of 32 ASCII bits"
    assert result[0] == msg
    assert store.get(secret.serial)["accepted_count"] == 0


def _grid(n, r):
    return [[["0", "1"] for _ in range(r)] for _ in range(n)]


def _bad_bit_grid(n, r):
    grid = _grid(n, r)
    grid[n // 2][r // 2][1] = "2"
    return grid


def _answer_line(qid, outcomes) -> bytes:
    # answer_message only encodes valid bits, so swap in the bad outcomes
    return wire.serialize(wire.answer_message(qid, []) | {"outcomes": outcomes})


@pytest.mark.parametrize("line", [
    # the three malformed answers of the cv_sessions benchmark workload
    lambda qid, n, r: _answer_line(qid, _bad_bit_grid(n, r)),
    lambda qid, n, r: _answer_line(qid, _grid(n, r)[:-1]),
    lambda qid, n, r: b'{"type": "answer", "outcomes": [\n',
    # an honest version-1 answer line
    lambda qid, n, r: (b'{"outcomes":' + json.dumps(_grid(n, r)).encode()
                       + b',"question_id":"' + qid.encode() + b'","type":"answer","v":1}\n'),
], ids=["bad-bit", "bad-shape", "not-json", "version-1-grid"])
def test_benchmark_malformed_answers_are_protocol_errors(rng, line):
    layout, secret, token, store, verifier = _fresh_setup(rng, n=10, r=100,
                                                          f_tol=Fraction(9, 10))
    with _spawned_verifier(verifier.serve_one) as (hchan, result):
        hchan.send(wire.hello_message(secret.serial))
        challenge = hchan.recv()
        hchan._sock.sendall(line(challenge["question_id"], 10, 100))
        msg = hchan.recv()
    assert msg["type"] == "error" and msg["code"] == "protocol-error"
    assert result == [msg]
    assert store.get(secret.serial)["accepted_count"] == 0


class _CountingSocket:
    """A socket whose recv counts the bytes it hands out."""

    def __init__(self, sock):
        self.sock, self.received = sock, 0

    def recv(self, bufsize: int) -> bytes:
        data = self.sock.recv(bufsize)
        self.received += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_oversized_answer_is_refused_within_its_cap(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    cap = layout.n_qubits + 1024
    a, b = socket.socketpair()
    counted = _CountingSocket(a)
    result: list = []

    def serve():
        with wire.LineChannel(counted) as vchan:
            result.append(verifier.serve_one(vchan))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with wire.LineChannel(b) as hchan:
        hchan.send(wire.hello_message(secret.serial))
        challenge = hchan.recv()
        hello_bytes = counted.received
        answer = wire.answer_message(challenge["question_id"], _perfect_sheet(secret))
        answer["outcomes"] *= 40_000      # 1.28 MB of valid bits
        try:
            hchan.send(answer)
        except OSError:                   # the verifier stopped reading and hung up
            pass
        thread.join(timeout=10)
        assert not thread.is_alive()
        msg = hchan.recv()
    assert msg == result[0]
    assert msg == wire.error_message("protocol-error", "message exceeds line limit")
    assert counted.received - hello_bytes <= cap + 65536
    assert store.get(secret.serial)["accepted_count"] == 0


@pytest.mark.parametrize("extra, reply", [(0, "challenge"), (1, "error")])
def test_hello_cap_is_exact_when_sent_in_one_piece(rng, extra, reply):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    bare = len(wire.serialize(wire.hello_message(secret.serial) | {"pad": ""})) - 1
    pad = "x" * (HELLO_LINE_BYTES - bare + extra)
    line = wire.serialize(wire.hello_message(secret.serial) | {"pad": pad})
    assert len(line) == HELLO_LINE_BYTES + extra + 1
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        hchan._sock.sendall(line)
        msg = hchan.recv()
    assert msg["type"] == reply
    if reply == "error":
        assert msg == wire.error_message("protocol-error", "message exceeds line limit")


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


def test_stored_pair_with_unknown_label_is_refused_before_any_session(tmp_path, rng):
    # loaded, the record would raise ValueError out of serve_one mid-session
    # and the holder would see the verifier hang up before challenging
    layout = CvLayout(2, 4, Fraction(3, 4))
    secret, token = cv_issue(layout, rng)
    path = tmp_path / "store.json"
    store = SecretStore(path)
    register(store, layout, secret)
    store.save()
    issued = path.read_text()
    data = json.loads(issued)
    data["serials"][0]["pairs"][-1][0] = "Q+"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="malformed store file"):
        SecretStore(path)
    path.write_text(issued)
    verifier = CvVerifier(SecretStore(path), rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, result):
        verdict = run_holder(hchan, token, rng)
    assert verdict == result[0] == wire.verdict_message(True)


@pytest.mark.parametrize("serial", [["x"], 5, None])
def test_wire_non_string_serial_is_protocol_error(rng, serial):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    attempts = store.get(secret.serial)["attempts"]
    vchan, hchan = O.channel_pair()
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


def test_run_holder_reads_an_error_that_echoes_a_long_serial(rng):
    # the unknown-serial error is longer than any challenge of this layout
    layout = CvLayout(2, 4, Fraction(1, 2))
    token = CvToken("s" * 2000, cv_issue(layout, rng)[1].qubits)
    _, _, _, _, verifier = _fresh_setup(rng)
    with _spawned_verifier(verifier.serve_one) as (hchan, _):
        msg = run_holder(hchan, token, rng)
    assert msg == wire.error_message("unknown-serial", token.serial)


class _HangUpAfterAnswer(wire.LineChannel):
    """Verifier end whose challenge makes the holder send a perfect answer
    and close its own end at once, before the verdict goes out."""

    def __init__(self, sock, hchan, secret):
        super().__init__(sock)
        self.hchan, self.secret = hchan, secret

    def send(self, message):
        super().send(message)
        if message["type"] == "challenge":
            self.hchan.send(wire.answer_message(message["question_id"],
                                                _perfect_sheet(self.secret)))
            self.hchan.close()


def test_holder_hanging_up_before_the_verdict_keeps_its_acceptance(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    a, b = socket.socketpair()
    with wire.LineChannel(b) as hchan, _HangUpAfterAnswer(a, hchan, secret) as vchan:
        hchan.send(wire.hello_message(secret.serial))
        final = verifier.serve_one(vchan)    # the verdict's send hits a closed peer
    assert final == wire.verdict_message(True)
    rec = store.get(secret.serial)
    assert (rec["accepted_count"], rec["attempts"]) == (1, 1)


class _ResetAfterChallenge:
    """A channel whose peer sends a hello, then resets the connection."""

    def __init__(self, serial):
        self.inbox, self.sent = [wire.hello_message(serial)], []

    def send(self, message):
        self.sent.append(message)

    def recv(self, limit, timeout=None):
        if not self.inbox:
            raise ConnectionResetError("connection reset by peer")
        return self.inbox.pop()


def test_peer_reset_ends_the_session_with_a_protocol_error(rng):
    layout, secret, token, store, verifier = _fresh_setup(rng)
    chan = _ResetAfterChallenge(secret.serial)
    final = verifier.serve_one(chan)
    assert final == wire.error_message("protocol-error", "connection reset by peer")
    assert [m["type"] for m in chan.sent] == ["challenge", "error"]
    assert store.get(secret.serial)["attempts"] == 1


@pytest.mark.parametrize("holder, attempts", [("mute", 0), ("silent", 1), ("trickle", 1)])
def test_slow_holder_times_out_within_the_message_deadline(rng, monkeypatch,
                                                           holder, attempts):
    # mute sends nothing; silent sends its hello only; trickle then sends one
    # byte of a never-ending answer every 50 ms
    deadline = 0.3
    monkeypatch.setattr(cv, "MESSAGE_DEADLINE_S", deadline)
    layout, secret, token, store, verifier = _fresh_setup(rng)
    stop = threading.Event()

    def trickle():
        hchan.recv()
        while not stop.wait(0.05):
            hchan._sock.sendall(b"x")

    thread = threading.Thread(target=trickle, daemon=True)
    vchan, hchan = O.channel_pair()
    with vchan, hchan:
        if holder != "mute":
            hchan.send(wire.hello_message(secret.serial))
        if holder == "trickle":
            thread.start()
        start = time.monotonic()
        final = verifier.serve_one(vchan)
        elapsed = time.monotonic() - start
        stop.set()
        if holder == "trickle":
            thread.join(timeout=5.0)
    assert final == wire.error_message("protocol-error", "timeout")
    assert elapsed < 2 * deadline
    assert store.get(secret.serial)["attempts"] == attempts


def _timed_holder(token, rng, serve):
    """Seconds until ``run_holder`` raises against ``serve`` over a socketpair."""
    with _spawned_verifier(serve) as (hchan, _):
        start = time.monotonic()
        with pytest.raises(wire.ProtocolError) as err:
            run_holder(hchan, token, rng)
        return time.monotonic() - start, str(err.value)


def test_holder_times_out_on_a_trickling_verifier(rng, monkeypatch):
    # the verifier sends its challenge one byte every 50 ms
    deadline = 0.3
    monkeypatch.setattr(cv, "MESSAGE_DEADLINE_S", deadline)
    layout, secret, token, store, verifier = _fresh_setup(rng)
    line = wire.serialize(wire.challenge_message("0" * 16, ["Z"] * layout.n_blocks))

    def trickle(vchan):
        vchan.recv()
        for byte in line:
            time.sleep(0.05)
            try:
                vchan._sock.sendall(bytes([byte]))
            except OSError:             # the holder gave up and hung up
                return

    elapsed, reason = _timed_holder(token, rng, trickle)
    assert reason == "timeout" and elapsed < 2 * deadline


def test_holder_refuses_an_oversized_challenge(rng, monkeypatch):
    # a well-formed challenge whose question id alone is 64 KiB
    deadline = 0.3
    monkeypatch.setattr(cv, "MESSAGE_DEADLINE_S", deadline)
    layout, secret, token, store, verifier = _fresh_setup(rng)
    challenge = wire.challenge_message("0" * 65536, ["Z"] * layout.n_blocks)

    def serve(vchan):
        vchan.recv()
        with contextlib.suppress(OSError, wire.ProtocolError):
            vchan.send(challenge)
            vchan.recv()
            vchan.send(wire.verdict_message(True))

    elapsed, reason = _timed_holder(token, rng, serve)
    assert reason == "message exceeds line limit" and elapsed < 2 * deadline


# -- the verifier's two steps, without a channel -----------------------------------

_BAD_HELLOS = [wire.hello_message(5), wire.hello_message(None), {"type": "hello"},
               wire.answer_message("q", [])]


def _reply(kind: str, session) -> dict | None:
    """A holder's second message of the given kind for an open session."""
    qid = session.question.question_id
    sheet = _perfect_sheet(session.secret)
    if kind == "abandoned":
        return None                     # the holder hung up
    if kind == "perfect":
        return wire.answer_message(qid, sheet)
    if kind == "wrong":
        return wire.answer_message(qid, 1 - sheet)
    if kind == "stale":
        return wire.answer_message("0" * 16, sheet)
    if kind == "hello":
        return wire.hello_message(session.secret.serial)
    if kind == "no-outcomes":
        return {"type": "answer", "v": wire.PROTOCOL_VERSION, "question_id": qid}
    bits = wire.answer_message(qid, sheet)["outcomes"]
    return wire.answer_message(qid, []) | {
        "short": {"outcomes": bits[:-1]},
        "bad-bit": {"outcomes": "2" + bits[1:]},
        "grid": {"outcomes": [list(bits)]},
    }[kind]


class VerifierSteps(RuleBasedStateMachine):
    """Interleaved sessions on one store through ``challenge`` and ``judge``:
    hellos (replays of spent serials among them), unknown serials, bad hellos,
    and honest, wrong, stale, malformed or abandoned answers."""

    MAX_ATTEMPTS = 3
    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        rng = np.random.Generator(np.random.Philox(7))
        self.layout = CvLayout(2, 4, Fraction(3, 4))
        self.store = SecretStore()
        self.serials = []
        for _ in range(2):
            secret, _ = cv_issue(self.layout, rng)
            register(self.store, self.layout, secret)
            self.serials.append(secret.serial)
        self.rng = rng
        self.opened = {s: 0 for s in self.serials}
        self.accepted = {s: 0 for s in self.serials}
        self.open, self.ended, self.replies = {}, [], []

    @initialize(policy=st.sampled_from(QUESTION_POLICIES))
    def make_verifier(self, policy):
        self.verifier = CvVerifier(self.store, self.rng, policy, self.MAX_ATTEMPTS)

    def _record(self, reply):
        line = wire.serialize(reply).decode()
        assert not any(name in line for name in LABELS)   # no label or pair name
        self.replies.append(reply)

    def _challenge(self, hello):
        reply, session = self.verifier.challenge(hello)
        self._record(reply)
        if session is None:
            assert reply["type"] == "error"
            return multiple()
        assert reply["type"] == "challenge"
        self.opened[session.secret.serial] += 1
        self.open[id(session)] = session
        return session

    def _judge(self, session, reply):
        del self.open[id(session)]
        final = self.verifier.judge(session, reply)
        self._record(final)
        self.ended.append(final)
        assert final["type"] in ("verdict", "error")
        self.accepted[session.secret.serial] += final.get("accepted", False)
        return final

    @rule(target=sessions, i=st.integers(0, 1))
    def hello(self, i):
        return self._challenge(wire.hello_message(self.serials[i]))

    @rule(serial=st.text("0123456789abcdef", min_size=1, max_size=32))
    def unknown_hello(self, serial):
        assume(serial not in self.serials)
        self._challenge(wire.hello_message(serial))
        assert self.replies[-1] == wire.error_message("unknown-serial", serial)

    @rule(hello=st.sampled_from(_BAD_HELLOS))
    def bad_hello(self, hello):
        self._challenge(hello)
        assert self.replies[-1]["code"] == "protocol-error"

    @rule(session=consumes(sessions))
    def perfect_answer(self, session):
        assert self._judge(session, _reply("perfect", session))["type"] == "verdict"

    @rule(session=consumes(sessions),
          kind=st.sampled_from(["wrong", "stale", "abandoned", "hello", "short",
                                "bad-bit", "grid", "no-outcomes"]))
    def failing_answer(self, session, kind):
        assert not self._judge(session, _reply(kind, session)).get("accepted")

    @invariant()
    def budgets_hold(self):
        for serial in self.serials:
            rec = self.store.get(serial)
            assert rec["accepted_count"] == self.accepted[serial] <= 1
            assert rec["attempts"] == self.opened[serial] <= self.MAX_ATTEMPTS

    def teardown(self):
        for session in list(self.open.values()):
            self._judge(session, None)      # left open: the holder hung up
        assert not self.open
        assert len(self.ended) == sum(self.opened.values())


TestVerifierSteps = VerifierSteps.TestCase
TestVerifierSteps.settings = settings(derandomize=True, max_examples=60,
                                      stateful_step_count=30, deadline=None)


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
    # below the paired-token threshold both pairings' bounds are vacuous
    assert report.bound == 1.0
    assert double_spend_experiment(layout, IntermediateBasisAttacker(),
                                   "complementary", 50, rng).bound == 1.0
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
    assert report.bound == cv_complementary_bound(4, 64, layout.f_tol).clamped
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


def test_pairings_registry():
    assert PAIRINGS == ("independent", "complementary")
