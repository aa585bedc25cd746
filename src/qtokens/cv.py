"""Classically-verified tokens: paired-qubit blocks checked over a wire.

A token has n blocks of r qubit pairs; each pair holds one Z eigenstate and
one X eigenstate in random order.  The verifier challenges each block with
an axis, the holder measures both members of every pair along it and reports
the bits, and the verifier scores only the member whose preparation axis was
asked.  A token passes when every block clears ceil(f_tol * r) correct
scored bits, so acceptance never requires revealing which member mattered.

The verifier answers messages, not sockets: ``CvVerifier.challenge`` and
``judge`` do no I/O, and ``serve_one`` runs them over a LineChannel under
per-message size caps and deadlines.  Budgets live in the SecretStore.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .bounds import (BoundReport, InsecureParametersError,
                     cv_complementary_bound, cv_security_bound,
                     cv_soundness_bound)
from .channels import QubitChannel, average_fidelity, identity_channel
from .core import (AXIS_NAMES, CV_PAIRS, EIGENBITS, LABEL_AXES, LABELS,
                   PROJECTOR_STACK, CvToken)
from .rational import as_fraction, threshold_count
from .rng import new_serial
from .store import SecretStore, UnknownSerialError, labels_from_strings
from . import wire

#: Challenge axes, in core axis-code order: an index into AXES is an axis code.
AXES = AXIS_NAMES[:2]

_PLUS_PROJECTORS = PROJECTOR_STACK[[LABELS.index(a + "+") for a in AXES]]


@dataclass(frozen=True)
class CvLayout:
    """Block structure and acceptance threshold."""

    n_blocks: int
    block_size: int
    f_tol: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_tol", as_fraction(self.f_tol))
        if self.n_blocks < 1 or self.block_size < 1:
            raise ValueError("need at least one block and one pair per block")
        if not 0 <= self.f_tol <= 1:
            raise ValueError(f"f_tol must lie in [0, 1], got {self.f_tol}")

    @property
    def k_min(self) -> int:
        return threshold_count(self.f_tol, self.block_size)

    @property
    def n_qubits(self) -> int:
        return self.n_blocks * self.block_size * 2


@dataclass(frozen=True)
class CvSecret:
    serial: str
    pairs: np.ndarray          # (n, r, 2) uint8 label indices


@dataclass(frozen=True)
class ChallengeQuestion:
    question_id: str
    axes: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(a not in AXES for a in self.axes):
            raise ValueError(f"axes must be drawn from {AXES}")


@dataclass(frozen=True)
class AnswerSheet:
    question_id: str
    outcomes: np.ndarray       # (n, r, 2) bits


@dataclass(frozen=True)
class ScoreCard:
    per_block_correct: tuple[int, ...]
    k_min: int
    accepted: bool


def _question_codes(question: ChallengeQuestion) -> np.ndarray:
    return np.array([AXES.index(a) for a in question.axes], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Per-qubit outcome laws.  States are products and every measurement acts on
# one qubit, so an answer is fixed by P[reported bit 0] per (label, asked
# axis) and scoring by the per-block count of correct scored bits.

def measured_bit_zero(qubits: np.ndarray, codes) -> np.ndarray:
    """P[reported bit 0] when each qubit of a (..., 2, 2) stack is measured
    along its asked axis code (an index into ``AXES``), broadcast over
    leading axes."""
    return np.einsum("...ij,...ji->...", _PLUS_PROJECTORS[codes],
                     qubits).real.clip(0.0, 1.0)


def _bit_zero_table(law, states: np.ndarray = PROJECTOR_STACK) -> np.ndarray:
    """(6, 2) table of P[reported bit 0] per preparation label and asked
    axis, from a per-qubit ``law(qubits, codes)`` evaluated on the six label
    states (or on their images under a channel)."""
    return np.broadcast_to(law(states[:, None], np.arange(len(AXES))),
                           (len(LABELS), len(AXES)))


def sample_bits(p_zero: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent bits, each 0 with its probability in ``p_zero``."""
    return (rng.random(p_zero.shape) >= p_zero).astype(np.uint8)


def _scored(pairs: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Mask of the pair members whose preparation axis the block asked."""
    return LABEL_AXES[pairs] == codes[..., None, None]


def _block_correct(pairs: np.ndarray, scored: np.ndarray,
                   bits: np.ndarray) -> np.ndarray:
    """Correct scored bits per block of (..., n, r, 2) label indices."""
    return ((bits == EIGENBITS[pairs]) & scored).sum(axis=(-2, -1))


def cv_issue(layout: CvLayout, rng: np.random.Generator,
             serial: str | None = None) -> tuple[CvSecret, CvToken]:
    """Draw one of the eight ordered Z/X pair preparations per position."""
    picks = rng.integers(0, len(CV_PAIRS), size=(layout.n_blocks, layout.block_size))
    pairs = CV_PAIRS[picks]
    qubits = PROJECTOR_STACK[pairs].copy()
    serial = serial if serial is not None else new_serial(rng)
    return CvSecret(serial, pairs), CvToken(serial, qubits)


def random_question(layout: CvLayout, rng: np.random.Generator) -> ChallengeQuestion:
    picks = rng.integers(0, 2, size=layout.n_blocks)
    return ChallengeQuestion(rng.bytes(8).hex(), tuple(AXES[i] for i in picks))


def complement_question(question: ChallengeQuestion,
                        rng: np.random.Generator) -> ChallengeQuestion:
    flipped = tuple("X" if a == "Z" else "Z" for a in question.axes)
    return ChallengeQuestion(rng.bytes(8).hex(), flipped)


def honest_answer(token: CvToken, question: ChallengeQuestion,
                  noise: QubitChannel | None,
                  rng: np.random.Generator) -> AnswerSheet:
    """Measure both members of every pair along the block's asked axis,
    optionally degrading every qubit through the ``noise`` channel first."""
    n = token.shape[0]
    if len(question.axes) != n:
        raise ValueError(f"question covers {len(question.axes)} blocks, token has {n}")
    token.consume()
    qubits = token.qubits if noise is None else noise.apply_to_stack(token.qubits)
    p_zero = measured_bit_zero(qubits, _question_codes(question)[:, None, None])
    return AnswerSheet(question.question_id, sample_bits(p_zero, rng))


def score_answer(secret: CvSecret, question: ChallengeQuestion,
                 outcomes: np.ndarray, layout: CvLayout) -> ScoreCard:
    """Score the pair member whose preparation axis matches the question,
    given the (n, r, 2) reported bits."""
    outcomes = np.asarray(outcomes)
    n, r = layout.n_blocks, layout.block_size
    if outcomes.shape != (n, r, 2):
        raise ValueError(f"outcomes must have shape {(n, r, 2)}, got {outcomes.shape}")
    if not np.isin(outcomes, (0, 1)).all():
        raise ValueError("outcomes must be bits")
    if len(question.axes) != n:
        raise ValueError("question does not match the layout")
    scored = _scored(secret.pairs, _question_codes(question))
    if not (scored.sum(axis=2) == 1).all():
        raise ValueError("each pair must hold exactly one member on the asked axis")
    per_block = _block_correct(secret.pairs, scored, outcomes)
    k = layout.k_min
    return ScoreCard(tuple(int(c) for c in per_block), k, bool((per_block >= k).all()))


def register(store: SecretStore, layout: CvLayout, secret: CvSecret) -> None:
    store.add_cv(secret.serial, layout.n_blocks, layout.block_size,
                 layout.f_tol, secret.pairs)


# ---------------------------------------------------------------------------
# Wire sessions.

QUESTION_POLICIES = ("random", "fixed", "complementary")

#: Receive caps.  The verifier reads a hello, which carries only a serial, and
#: an answer, one byte per qubit of the layout plus the rest of its line.  The
#: holder reads a challenge, ``"Z",`` per block, or an error no longer than its
#: hello, plus the same slack, and then a verdict no longer than a hello.
HELLO_LINE_BYTES = 4 * 1024
ANSWER_SLACK_BYTES = 1024
#: Seconds either side waits for each whole message of its peer.
MESSAGE_DEADLINE_S = 10.0


class CvSession(NamedTuple):
    """A challenged session awaiting its answer."""
    layout: CvLayout
    secret: CvSecret
    question: ChallengeQuestion


class CvVerifier:
    """Hello -> challenge -> answer -> verdict as two I/O-free steps,
    :meth:`challenge` and :meth:`judge`, and :meth:`serve_one` over a channel."""

    def __init__(self, store: SecretStore, rng: np.random.Generator,
                 question_policy: str = "random", max_attempts: int = 8):
        if question_policy not in QUESTION_POLICIES:
            raise ValueError(f"unknown question policy: {question_policy}")
        self.store = store
        self.rng = rng
        self.question_policy = question_policy
        self.max_attempts = max_attempts

    def _pick_question(self, layout: CvLayout, serial: str) -> ChallengeQuestion:
        stashed = self.store.stashed_question(serial)
        if self.question_policy == "random" or stashed is None:
            question = random_question(layout, self.rng)
        elif self.question_policy == "fixed":
            question = ChallengeQuestion(self.rng.bytes(8).hex(), tuple(stashed))
        else:
            question = complement_question(
                ChallengeQuestion("stashed", tuple(stashed)), self.rng)
        self.store.stash_question(serial, list(question.axes))
        return question

    def challenge(self, hello: dict) -> tuple[dict, CvSession | None]:
        """First step: the reply to a holder's hello and the session it opens,
        or the error that refuses it and None."""
        if hello["type"] != "hello" or not isinstance(hello.get("serial"), str):
            return wire.error_message("protocol-error",
                                      "expected hello with a string serial"), None
        serial = hello["serial"]
        try:
            rec = self.store.get(serial)
        except UnknownSerialError:
            return wire.error_message("unknown-serial", serial), None
        if "pairs" not in rec:
            return wire.error_message(
                "protocol-error", f"serial {serial} is not a paired-block token"), None
        refusal = self.store.begin_attempt(serial, self.max_attempts)
        if refusal is not None:
            return wire.error_message(refusal, serial), None
        layout = CvLayout(rec["n"], rec["r"], Fraction(rec["f_tol"]))
        pairs = labels_from_strings([s for pair in rec["pairs"] for s in pair])
        secret = CvSecret(serial, pairs.reshape(rec["n"], rec["r"], 2))
        question = self._pick_question(layout, serial)
        return (wire.challenge_message(question.question_id, question.axes),
                CvSession(layout, secret, question))

    def judge(self, session: CvSession, reply: dict | None) -> dict:
        """Second step: the verdict on the holder's answer, or the error that
        ends the session."""
        layout, secret, question = session
        if reply is None or reply["type"] != "answer":
            return wire.error_message("protocol-error", "expected an answer")
        if reply.get("question_id") != question.question_id:
            return wire.verdict_message(False, "question-mismatch")
        try:
            outcomes = wire.decode_outcomes(reply["outcomes"],
                                            (layout.n_blocks, layout.block_size))
            card = score_answer(secret, question, outcomes, layout)
        except (KeyError, TypeError, ValueError, wire.ProtocolError) as exc:
            return wire.error_message("protocol-error", f"malformed answer: {exc}")
        if card.accepted and not self.store.try_accept(secret.serial):
            return wire.verdict_message(False, "already-redeemed")
        reason = None if card.accepted else "below-threshold"
        return wire.verdict_message(card.accepted, reason)

    def serve_one(self, chan: wire.LineChannel) -> dict | None:
        """One session over ``chan``: the final message sent, or None on immediate
        EOF.  A broken, slow or garbled peer ends it with ``protocol-error``."""
        try:
            hello = chan.recv(HELLO_LINE_BYTES, MESSAGE_DEADLINE_S)
            if hello is None:
                return None
            final, session = self.challenge(hello)
            if session is not None:
                chan.send(final)
                cap = session.layout.n_qubits + ANSWER_SLACK_BYTES
                final = self.judge(session, chan.recv(cap, MESSAGE_DEADLINE_S))
        except (wire.ProtocolError, OSError) as exc:
            final = wire.error_message("protocol-error", str(exc))
        with contextlib.suppress(OSError):
            chan.send(final)
        return final


def run_holder(chan: wire.LineChannel, token: CvToken,
               rng: np.random.Generator,
               noise: QubitChannel | None = None) -> dict:
    """Honest holder: measure per the challenge and report the bits.
    Returns the verifier's final message (verdict or error).  Each verifier
    message must arrive whole within ``MESSAGE_DEADLINE_S`` and under its cap,
    or :class:`wire.ProtocolError` is raised."""
    hello = wire.hello_message(token.serial)
    chan.send(hello)
    cap = 4 * token.shape[0] + len(wire.serialize(hello)) + ANSWER_SLACK_BYTES
    msg = chan.recv(cap, MESSAGE_DEADLINE_S)
    if msg is None:
        raise wire.ProtocolError("verifier hung up before challenging")
    if msg["type"] == "error":
        return msg
    if msg["type"] != "challenge":
        raise wire.ProtocolError(f"expected a challenge, got {msg['type']}")
    question = ChallengeQuestion(msg["question_id"], tuple(msg["axes"]))
    answer = honest_answer(token, question, noise, rng)
    chan.send(wire.answer_message(answer.question_id, answer.outcomes))
    verdict = chan.recv(HELLO_LINE_BYTES, MESSAGE_DEADLINE_S)
    if verdict is None:
        raise wire.ProtocolError("verifier hung up before the verdict")
    return verdict


# ---------------------------------------------------------------------------
# Batched experiments.

#: Label positions drawn per chunk of trials; bounds the experiments'
#: working memory independently of the layout.
CHUNK_POSITIONS = 1 << 18


def _trial_chunks(layout: CvLayout, trials: int):
    step = max(1, CHUNK_POSITIONS // layout.n_qubits)
    for done in range(0, trials, step):
        yield min(step, trials - done)


def _draw_rounds(layout: CvLayout, table: np.ndarray, b: int,
                 rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``b`` issued tokens as (b, n, r, 2) label indices, one (b, n) question
    of axis codes each, and one answer sheet per token whose bits follow
    ``table`` at the asked axis."""
    n, r = layout.n_blocks, layout.block_size
    pairs = CV_PAIRS[rng.integers(0, len(CV_PAIRS), size=(b, n, r))]
    codes = rng.integers(0, len(AXES), size=(b, n), dtype=np.uint8)
    bits = sample_bits(table[pairs, codes[:, :, None, None]], rng)
    return pairs, codes, bits


@dataclass(frozen=True)
class HonestRunReport:
    trials: int
    accepts: int
    rate: float
    bound: BoundReport


def honest_protocol_experiment(layout: CvLayout, channel: QubitChannel | None,
                               trials: int, rng: np.random.Generator) -> HonestRunReport:
    """Many honest issue-challenge-answer-score rounds.

    The honest measurement law evaluated on the actual post-channel label
    states gives the (label, axis) outcome table; sampling then vectorizes
    across whole trials.
    """
    chan = channel if channel is not None else identity_channel()
    table = _bit_zero_table(measured_bit_zero, chan.apply_to_stack(PROJECTOR_STACK))
    k = layout.k_min
    accepts = 0
    for b in _trial_chunks(layout, trials):
        pairs, codes, bits = _draw_rounds(layout, table, b, rng)
        per_block = _block_correct(pairs, _scored(pairs, codes), bits)
        accepts += int((per_block >= k).all(axis=1).sum())
    bound = cv_soundness_bound(layout.n_blocks, layout.block_size,
                               average_fidelity(chan), layout.f_tol)
    return HonestRunReport(trials, accepts, accepts / trials, bound)


PAIRINGS = ("independent", "complementary")


@dataclass(frozen=True)
class DoubleSpendReport:
    attacker: str
    pairing: str
    trials: int
    successes: int
    rate: float
    bound: float
    mean_pair_utility: float


def double_spend_experiment(layout: CvLayout, attacker, pairing: str,
                            trials: int,
                            rng: np.random.Generator) -> DoubleSpendReport:
    """One token, two verifiers.  The attacker preprocesses the token once,
    then must answer both challenges; success means both accept.

    The attacker's per-qubit law (its ``bit_zero``) gives its answer sheet
    to the first question; the shipped attackers replay that sheet for the
    second, so both questions score the same bits.

    mean_pair_utility averages scored-position correctness over both
    verifiers; under complementary pairing the two questions jointly score
    each pair's X and Z member exactly once, so this is the per-pair
    average-utility statistic bounded by the balanced pair game's value.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing: {pairing}")
    table = _bit_zero_table(attacker.bit_zero)
    k = layout.k_min
    successes = 0
    scored_correct = 0
    for b in _trial_chunks(layout, trials):
        pairs, q1, bits = _draw_rounds(layout, table, b, rng)
        q2 = (rng.integers(0, len(AXES), size=q1.shape, dtype=np.uint8)
              if pairing == "independent" else 1 - q1)
        card1 = _block_correct(pairs, _scored(pairs, q1), bits)
        card2 = _block_correct(pairs, _scored(pairs, q2), bits)
        successes += int(((card1 >= k).all(axis=1) & (card2 >= k).all(axis=1)).sum())
        scored_correct += int(card1.sum() + card2.sum())
    n, r = layout.n_blocks, layout.block_size
    try:
        bound = (cv_security_bound(n, r, layout.f_tol, v=2) if pairing == "independent"
                 else cv_complementary_bound(n, r, layout.f_tol)).clamped
    except InsecureParametersError:
        bound = 1.0
    scored_total = 2 * n * r * trials
    return DoubleSpendReport(attacker.name, pairing, trials, successes,
                             successes / trials, bound,
                             scored_correct / scored_total)
