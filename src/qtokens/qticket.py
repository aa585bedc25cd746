"""Measured quantum tokens: issuance, degradation, verification, oracles.

A token is a list of qubits prepared in states drawn uniformly from the
six-state set; the issuer remembers the labels under a random serial.  The
verifier measures every position against its recorded label and accepts
when at least ceil(F_tol * N) outcomes match.  Acceptance thresholds are
exact rationals; see :mod:`qtokens.rational`.

A :class:`TokenInstance` is only the serial and the qubits; it checks at
construction that the qubits form an (N, 2, 2) stack of density matrices,
so a file of arbitrary matrices cannot pass for a token.  Pair-cloning
counterfeits are judged through :func:`joint_outcome_laws`, the one place
the four-way law of two verified halves is computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .channels import QubitChannel
from .core import I2, PROJECTOR_STACK, LABELS, check_density_matrix
from .rational import as_fraction, threshold_count
from .rng import new_serial
from .store import SecretStore, UnknownSerialError, labels_from_strings


class TokenConsumedError(RuntimeError):
    """A token instance was submitted for verification twice."""


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


@dataclass(eq=False)
class TokenInstance:
    """Holder-side physical token; verification consumes it.  Construction
    raises ValueError unless the qubits are an (N, 2, 2) stack of density
    matrices with N >= 1."""

    serial: str
    qubits: np.ndarray                             # (N, 2, 2) density matrices
    consumed: bool = False

    def __post_init__(self) -> None:
        qubits = np.asarray(self.qubits, dtype=complex)
        if qubits.shape[1:] != (2, 2) or len(qubits) < 1:
            raise ValueError(f"token qubits must form an (N, 2, 2) stack with "
                             f"N >= 1, got shape {qubits.shape}")
        self.qubits = check_density_matrix(qubits, name="token qubit")

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)


@dataclass(frozen=True)
class VerifierPolicy:
    """Acceptance rule: at least ceil(f_tol * n_qubits) matches."""

    f_tol: Fraction
    n_qubits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_tol", as_fraction(self.f_tol))
        if not 0 <= self.f_tol <= 1:
            raise ValueError(f"f_tol must lie in [0, 1], got {self.f_tol}")

    @property
    def k_min(self) -> int:
        return threshold_count(self.f_tol, self.n_qubits)


@dataclass(frozen=True)
class VerificationOutcome:
    accepted: bool
    correct_count: int
    serial: str
    reason: str | None = None


def issue(n_qubits: int, rng: np.random.Generator) -> tuple[QticketSecret, TokenInstance]:
    """Draw N labels uniformly, mint a serial, emit the exact token."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    labels = rng.integers(0, len(LABELS), size=n_qubits).astype(np.uint8)
    secret = QticketSecret(new_serial(rng), labels)
    return secret, token_from_secret(secret)


def multicopy_issue(n_qubits: int, copies: int,
                    rng: np.random.Generator) -> tuple[QticketSecret, list[TokenInstance]]:
    """c identical tokens sharing one serial and one label draw."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    secret, first = issue(n_qubits, rng)
    return secret, [first] + [token_from_secret(secret) for _ in range(copies - 1)]


def token_from_secret(secret: QticketSecret) -> TokenInstance:
    return TokenInstance(secret.serial, PROJECTOR_STACK[secret.labels].copy())


def degrade(token: TokenInstance, channel: QubitChannel) -> TokenInstance:
    """Pass every qubit through the channel; returns a fresh instance."""
    return TokenInstance(token.serial, channel.apply_to_stack(token.qubits))


def verify(secret: QticketSecret, token: TokenInstance, policy: VerifierPolicy,
           rng: np.random.Generator) -> VerificationOutcome:
    """Measure every position against the recorded label; consume the token.

    Accepts iff the match count reaches policy.k_min.  Serial mismatch
    raises :class:`UnknownSerialError`.
    """
    if token.consumed:
        raise TokenConsumedError(f"token {token.serial} already verified")
    if token.serial != secret.serial:
        raise UnknownSerialError(f"unknown-serial: {token.serial}")
    if token.n_qubits != policy.n_qubits or len(secret) != policy.n_qubits:
        raise ValueError("token/secret length does not match policy")
    token.consumed = True
    probs = np.einsum("nij,nji->n", PROJECTOR_STACK[secret.labels], token.qubits).real
    bits = rng.random(token.n_qubits) < np.clip(probs, 0.0, 1.0)
    count = int(bits.sum())
    return VerificationOutcome(count >= policy.k_min, count, token.serial)


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


# rows of s (positions where exactly one copy passes) handled per numpy pass;
# keeps working memory at O(block * (N - k)) however large N is
_BLOCK_ROWS = 64


def _xlogp(x, p: float):
    """x * log(p) for non-negative counts x, with 0 * log(0) = 0."""
    if p > 0.0:
        return x * math.log(p)
    return np.where(x > 0, -np.inf, 0.0)


def double_acceptance_exact(n_qubits: int, f_tol, pair_dist) -> float:
    """P[count_1 >= k and count_2 >= k] for two tokens whose positions share
    iid four-way outcomes (both right, first only, second only, neither).

    With m = N - k, let d count the positions where both copies fail and
    s those where exactly one passes; given s, the first copy's passes
    among them are Bin(s, q) with q = p10 / (p10 + p01).  Both copies
    accept iff that count lies in the window [s + d - m, m - d], so

        P = sum_{d <= m, s + 2d <= 2m} Multi(N; N - s - d, s, d)
                                       * P[s + d - m <= Bin(s, q) <= m - d].

    For fixed s the windows are nested around s / 2, so they are built by
    accumulating pmf pairs outward from the centre, with no differences of
    tails.  The sum runs in log space over the (s, m - d) cells in blocks of
    rows: O((N - k) * N) time and O(block * (N - k)) memory for every law,
    including p00 > 0 and zero entries.
    """
    p11, p10, p01, p00 = (float(x) for x in pair_dist)
    probs = (p11, p10, p01, p00)
    if min(probs) < -1e-12 or abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(f"pair distribution invalid: {probs}")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    k_min = threshold_count(f_tol, n_qubits)
    if k_min > n_qubits:
        return 0.0
    if k_min <= 0:
        return 1.0
    p11, p10, p01, p00 = (max(0.0, p) for p in probs)
    n, m = n_qubits, n_qubits - k_min
    lgam = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    s_top = min(2 * m, n)
    peaks, sums = [], []
    for s0 in range(0, s_top + 1, _BLOCK_ROWS):
        s = np.arange(s0, min(s0 + _BLOCK_ROWS, s_top + 1))[:, None]
        h = np.arange(s0 // 2, m + 1)     # upper end m - d of the window
        c = s - h                         # lower end of the window
        live = (c >= 0) & (2 * h >= s)
        c = np.where(live, c, 0)
        # p10^b p01^(s-b) / (b! (s-b)!) at b = h and at b = s - h: the
        # binomial pmf of the window ends times (p10 + p01)^s / s!
        log_fact = lgam[h] + lgam[c]
        upper = np.where(live, _xlogp(h, p10) + _xlogp(c, p01) - log_fact, -np.inf)
        lower = np.where(live & (2 * h > s),
                         _xlogp(c, p10) + _xlogp(h, p01) - log_fact, -np.inf)
        log_window = np.logaddexp.accumulate(np.logaddexp(upper, lower), axis=1)
        d = m - h
        a = n - s - d
        a_ok = np.maximum(a, 0)
        log_term = np.where(a >= 0,
                            lgam[n] - lgam[a_ok] - lgam[d] + _xlogp(a_ok, p11)
                            + _xlogp(d, p00) + log_window, -np.inf)
        peak = log_term.max()
        if peak > -np.inf:
            peaks.append(peak)
            sums.append(np.exp(log_term - peak).sum())
    if not peaks:
        return 0.0
    top = max(peaks)
    return _unit(math.exp(top) * math.fsum(w * math.exp(p - top)
                                           for p, w in zip(peaks, sums)))


class Verifier:
    """Store-backed verifier enforcing per-serial acceptance budgets."""

    def __init__(self, store: SecretStore):
        self.store = store

    def redeem(self, token: TokenInstance, rng: np.random.Generator) -> VerificationOutcome:
        rec = self.store.get(token.serial)   # raises UnknownSerialError
        if "labels" not in rec:
            raise ValueError(f"serial {token.serial} is not a measured-token record")
        if rec["accepted_count"] >= rec["issued_copies"]:
            token.consumed = True
            return VerificationOutcome(False, 0, token.serial, reason="serial-exhausted")
        secret = QticketSecret(rec["serial"], labels_from_strings(rec["labels"]))
        policy = VerifierPolicy(Fraction(rec["f_tol"]), len(secret))
        outcome = verify(secret, token, policy, rng)
        if outcome.accepted and not self.store.try_accept(token.serial):
            return VerificationOutcome(False, outcome.correct_count, token.serial,
                                       reason="serial-exhausted")
        return outcome
