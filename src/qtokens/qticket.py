"""Measured quantum tokens: issuance, degradation, verification, oracles.

A token is a :class:`~qtokens.core.Token` whose N qubits are prepared in
states drawn uniformly from the six-state set; the issuer remembers the
labels under a random serial.  The verifier checks the (N, 2, 2) stack as
density matrices, measures every position against its recorded label and
accepts when at least ceil(F_tol * N) outcomes match.  Acceptance thresholds
are exact rationals; see :mod:`qtokens.rational`.  Pair-cloning counterfeits
are judged through :func:`joint_outcome_laws`, the one place the four-way
law of two verified halves is computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import QubitChannel
from .core import I2, LABELS, PROJECTOR_STACK, Token, check_token_stack
from .rational import as_fraction, threshold_count
from .rng import new_serial
from .store import SecretStore, UnknownSerialError, labels_from_strings


@dataclass(frozen=True)
class QticketSecret:
    """Issuer-side record: serial plus per-position label indices."""

    serial: str
    labels: np.ndarray  # (N,) uint8 indices into core.LABELS

    def __len__(self) -> int:
        return len(self.labels)


def joint_outcome_laws(projectors: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Four-way laws (p11, p10, p01, p00) of shape (..., 4) when both halves
    of two-qubit states (..., 4, 4) are verified against projectors
    (..., 2, 2); in p10 the first half passes and the second fails.

    Raises ValueError when a law sums away from 1 by more than 1e-9.
    """
    pass_fail = np.stack([projectors, I2 - projectors], axis=-3)
    # Tr[(M_s (x) M_t) rho] with rho[(A, B), (a, b)] reshaped to [A, B, a, b]
    rho = states.reshape(*states.shape[:-2], 2, 2, 2, 2)
    laws = np.einsum("...saA,...tbB,...ABab->...st", pass_fail, pass_fail, rho).real
    laws = np.clip(laws.reshape(*laws.shape[:-2], 4), 0.0, None)
    if np.abs(laws.sum(axis=-1) - 1.0).max() > 1e-9:
        raise ValueError("four-way outcome law does not sum to 1: "
                         "the two-qubit states are not normalised")
    return laws


@dataclass(frozen=True)
class VerificationOutcome:
    accepted: bool
    correct_count: int
    serial: str
    reason: str | None = None


def issue(n_qubits: int, rng: np.random.Generator) -> tuple[QticketSecret, Token]:
    """Draw N labels uniformly, mint a serial, emit the exact token."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    labels = rng.integers(0, len(LABELS), size=n_qubits).astype(np.uint8)
    secret = QticketSecret(new_serial(rng), labels)
    return secret, token_from_secret(secret)


def token_from_secret(secret: QticketSecret) -> Token:
    return Token(secret.serial, PROJECTOR_STACK[secret.labels].copy())


def degrade(token: Token, channel: QubitChannel) -> Token:
    """A fresh token of the same class whose every qubit passed the channel."""
    return type(token)(token.serial, channel.apply_to_stack(token.qubits))


def verify(secret: QticketSecret, token: Token, f_tol,
           rng: np.random.Generator) -> VerificationOutcome:
    """Measure every position against the recorded label; consume the token.

    Accepts iff at least ceil(f_tol * N) of the secret's N positions match;
    a refusal carries the reason "below-threshold".  Serial mismatch raises
    :class:`UnknownSerialError`; an f_tol outside [0, 1], or qubits that are
    not an (N, 2, 2) stack of density matrices, raise ValueError and leave
    the token unconsumed.
    """
    f_tol = as_fraction(f_tol)
    if not 0 <= f_tol <= 1:
        raise ValueError(f"f_tol must lie in [0, 1], got {f_tol}")
    if token.serial != secret.serial:
        raise UnknownSerialError(f"unknown-serial: {token.serial}")
    qubits = check_token_stack(token.qubits, paired=False)
    if len(qubits) != len(secret):
        raise ValueError("token and secret lengths differ")
    token.consume()
    probs = np.einsum("nij,nji->n", PROJECTOR_STACK[secret.labels], qubits).real
    bits = rng.random(len(qubits)) < np.clip(probs, 0.0, 1.0)
    count = int(bits.sum())
    accepted = count >= threshold_count(f_tol, len(secret))
    return VerificationOutcome(accepted, count, token.serial,
                               None if accepted else "below-threshold")


# ---------------------------------------------------------------------------
# Exact acceptance oracles.

def _unit(p) -> float:
    # accumulated float sums of what is mathematically a probability may
    # overshoot [0, 1] by a few 1e-12 at N ~ 1000
    return float(min(1.0, max(0.0, p)))


def exact_honest_acceptance(fidelities: Sequence[float], f_tol) -> float:
    """P[sum of independent Bernoulli(F_i) >= ceil(f_tol N)] by direct
    convolution of the count distribution (O(N^2))."""
    f = np.asarray(fidelities, dtype=float)
    if f.ndim != 1 or len(f) == 0:
        raise ValueError("fidelities must be a non-empty 1-d sequence")
    if f.min() < 0.0 or f.max() > 1.0:
        raise ValueError("fidelities must lie in [0, 1]")
    n = len(f)
    k_min = threshold_count(f_tol, n)
    if k_min > n:
        return 0.0
    if k_min <= 0:
        return 1.0
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    for i, fi in enumerate(f):
        upper = dist[:i + 1] * fi
        dist[:i + 2] *= (1.0 - fi)
        dist[1:i + 2] += upper
    return _unit(math.fsum(dist[k_min:]))


# rows of M = N - T handled per numpy pass; keeps working memory at
# O(block * (N - k)) however large N is
_BLOCK_ROWS = 64


def _xlogp(x, p: float):
    """x * log(p) for non-negative counts x, with 0 * log(0) = 0."""
    if p > 0.0:
        return x * math.log(p)
    return np.where(x > 0, -np.inf, 0.0)


def _log_tails(ms: np.ndarray, width: int, hit: float, miss: float,
               lgam: np.ndarray) -> np.ndarray:
    """log sum_{i >= j} hit^i miss^(M - i) / (i! (M - i)!): one row per M in
    ``ms``, columns j = 0 .. width - 1."""
    i = np.arange(width)
    live = i <= ms[:, None]
    rest = np.where(live, ms[:, None] - i, 0)
    log_w = np.where(live, _xlogp(i, hit) + _xlogp(rest, miss) - lgam[i] - lgam[rest],
                     -np.inf)
    return np.logaddexp.accumulate(log_w[:, ::-1], axis=1)[:, ::-1]


def double_acceptance_exact(n_qubits: int, f_tols, pair_dist) -> np.ndarray:
    """P[count_1 >= k and count_2 >= k] for each threshold of ``f_tols``, in
    order, for two tokens whose positions share iid four-way outcomes (both
    right, first only, second only, neither).

    Both copies pass k exactly when T = c11 + min(c10, c01) >= k.  Given
    T = N - M and j = min(c10, c01), c11 = N - M - j and the other M
    positions hold the larger single-pass count i and c00 = M - i, so

        P[T = N - M] = sum_{j <= min(M, N - M)} N! p11^c11 / (c11! j!)
                       * [p10^j A_M(j, p01) + p01^j A_M(j + 1, p10)],
        A_M(j, p) = sum_{i >= j} p^i p00^(M - i) / (i! (M - i)!),

    the first term for c10 = j <= c01 = i and the second for c01 = j < c10 = i.
    One reversed cumulative log-sum over T then answers every threshold.  Rows
    of M run in blocks, each with its own tail rows: O((N - k)^2) time for the
    smallest threshold k and O(block * (N - k)) memory, for every law,
    including zero entries.
    """
    p11, p10, p01, p00 = (float(x) for x in pair_dist)
    probs = (p11, p10, p01, p00)
    if min(probs) < -1e-12 or abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(f"pair distribution invalid: {probs}")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    n = n_qubits
    ks = np.array([threshold_count(f, n) for f in f_tols], dtype=np.int64)
    out = np.where(ks <= 0, 1.0, 0.0)
    live = (ks > 0) & (ks <= n)
    if not live.any():
        return out
    p11, p10, p01, p00 = (max(0.0, p) for p in probs)
    m = n - int(ks[live].min())
    lgam = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    log_pt = np.empty(m + 1)          # log P[T = N - M] for M = 0 .. m
    for m0 in range(0, m + 1, _BLOCK_ROWS):
        ms = np.arange(m0, min(m0 + _BLOCK_ROWS, m + 1))
        width = int(ms[-1]) + 2
        tail_a = _log_tails(ms, width, p01, p00, lgam)[:, :-1]   # c01 >= j
        tail_b = _log_tails(ms, width, p10, p00, lgam)[:, 1:]    # c10 >= j + 1
        j = np.arange(width - 1)
        ok = j <= np.minimum(ms, n - ms)[:, None]
        c11 = np.where(ok, n - ms[:, None] - j, 0)
        log_term = np.where(ok, lgam[n] - lgam[c11] - lgam[j] + _xlogp(c11, p11)
                            + np.logaddexp(_xlogp(j, p10) + tail_a,
                                           _xlogp(j, p01) + tail_b), -np.inf)
        log_pt[ms] = np.logaddexp.reduce(log_term, axis=1)
    log_survival = np.logaddexp.accumulate(log_pt)    # log P[T >= N - M]
    out[live] = [_unit(p) for p in np.exp(log_survival[n - ks[live]])]
    return out


def redeem(store: SecretStore, token: Token,
           rng: np.random.Generator) -> VerificationOutcome:
    """Verify a measured token against its store record, within the serial's
    acceptance budget: a spent serial is refused "serial-exhausted"."""
    rec = store.get(token.serial)   # raises UnknownSerialError
    if "labels" not in rec:
        raise ValueError(f"serial {token.serial} is not a measured-token record")
    if store.spent(token.serial):
        token.consume()
        return VerificationOutcome(False, 0, token.serial, reason="serial-exhausted")
    secret = QticketSecret(rec["serial"], labels_from_strings(rec["labels"]))
    outcome = verify(secret, token, rec["f_tol"], rng)
    if outcome.accepted and not store.try_accept(token.serial):
        return VerificationOutcome(False, outcome.correct_count, token.serial,
                                   reason="serial-exhausted")
    return outcome
