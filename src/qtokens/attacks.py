"""Cloning strategies, sequential-attack rate laws and CV attackers.

Pair-cloning strategies map one qubit to two (a CPTP map into two registers);
the joint verification statistics of the two counterfeits come out of the
actual post-cloning states through
:func:`~qtokens.qticket.joint_outcome_laws`.
The rate laws stage a single holder against several verifiers who check the
same serial but cannot coordinate; the figure of merit is how often at least
two of them accept.  The challenge-response attackers answer the paired
tokens of :mod:`qtokens.cv` through one per-qubit outcome law each.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bounds import BoundReport, learning_bound
from .core import (AXIS_NAMES, I2, LABEL_AXES, PAULI_X, PAULI_Z,
                   PROJECTOR_STACK)
from .cv import (ChallengeQuestion, CvToken, honest_answer, measured_bit_zero,
                 sample_bits)
from .qticket import joint_outcome_laws
from .rational import threshold_count


class PairOutcomeDist(NamedTuple):
    """Joint verification outcome for one cloned position: first index is
    the copy handed to the first verifier."""

    p11: float
    p10: float
    p01: float
    p00: float

    @property
    def first_marginal(self) -> float:
        return self.p11 + self.p10

    @property
    def second_marginal(self) -> float:
        return self.p11 + self.p01


@dataclass(frozen=True)
class PairCloneStrategy:
    """One-qubit to two-qubit map, vectorized over an (N, 2, 2) stack of
    density matrices."""

    name: str
    map_stack: Callable[[np.ndarray], np.ndarray]

    def apply_stack(self, states: np.ndarray) -> np.ndarray:
        return self.map_stack(np.asarray(states, dtype=complex))


def _universal_clone_stack(states: np.ndarray) -> np.ndarray:
    """Symmetric one-to-two cloning map
    rho -> rho (x) rho / 3 + (rho (x) 1 + 1 (x) rho) / 6."""
    eye = np.broadcast_to(I2, states.shape)
    rr = np.einsum("nab,ncd->nacbd", states, states).reshape(-1, 4, 4)
    ri = np.einsum("nab,ncd->nacbd", states, eye).reshape(-1, 4, 4)
    ir = np.einsum("nab,ncd->nacbd", eye, states).reshape(-1, 4, 4)
    return rr / 3.0 + (ri + ir) / 6.0


_Z0 = np.diag([1.0, 0.0]).astype(complex)
_Z1 = np.diag([0.0, 1.0]).astype(complex)


def _measure_reprepare_z_stack(states: np.ndarray) -> np.ndarray:
    """Measure in the Z basis and emit two copies of the outcome projector."""
    p0 = states[:, 0, 0].real[:, None, None]
    p1 = states[:, 1, 1].real[:, None, None]
    return p0 * np.kron(_Z0, _Z0) + p1 * np.kron(_Z1, _Z1)


@functools.cache
def _intermediate_projector() -> np.ndarray:
    """Read-only rank-one projector onto the +1 eigenvector of (X + Z)/sqrt(2),
    built on first use: a process's first ``eigh`` adds about 1 MB of peak
    memory, which callers that never use this basis should not pay."""
    ham = (PAULI_X + PAULI_Z) / math.sqrt(2.0)
    eigvals, eigvecs = np.linalg.eigh(ham)
    v = eigvecs[:, np.argmax(eigvals)]
    proj = np.outer(v, v.conj())
    proj.setflags(write=False)
    return proj


def intermediate_bit_zero(qubits: np.ndarray, codes=None) -> np.ndarray:
    """P[+1 outcome] when each qubit of a (..., 2, 2) stack is measured in
    the eigenbasis of (X + Z)/sqrt(2); the outcome is reported as bit 0
    under either asked axis, so ``codes`` is ignored."""
    return np.einsum("ij,...ji->...", _intermediate_projector(),
                     np.asarray(qubits, dtype=complex)).real.clip(0.0, 1.0)


def _intermediate_reprepare_stack(states: np.ndarray) -> np.ndarray:
    proj = _intermediate_projector()
    orth = I2 - proj
    p_plus = intermediate_bit_zero(states)[:, None, None]
    return p_plus * np.kron(proj, proj) + (1.0 - p_plus) * np.kron(orth, orth)


UNIVERSAL_CLONER = PairCloneStrategy("universal-cloner", _universal_clone_stack)
MEASURE_REPREPARE_Z = PairCloneStrategy("measure-reprepare-z",
                                        _measure_reprepare_z_stack)
INTERMEDIATE_BASIS = PairCloneStrategy("intermediate-basis",
                                       _intermediate_reprepare_stack)

PAIR_STRATEGIES: dict[str, PairCloneStrategy] = {
    s.name: s for s in (UNIVERSAL_CLONER, MEASURE_REPREPARE_Z, INTERMEDIATE_BASIS)
}


def _label_outcome_laws(strategy: PairCloneStrategy) -> np.ndarray:
    """(6, 4) joint outcomes (p11, p10, p01, p00) per label when both halves
    of a cloned label state are verified against that label."""
    return joint_outcome_laws(PROJECTOR_STACK, strategy.apply_stack(PROJECTOR_STACK))


def pair_outcome_distribution(strategy: PairCloneStrategy,
                              label: int) -> PairOutcomeDist:
    """Exact four-way outcome distribution when both halves of a cloned
    qubit prepared in label index ``label`` are verified against it."""
    dist = _label_outcome_laws(strategy)[label]
    return PairOutcomeDist(*(float(x) for x in dist))


def mixture_outcome_distribution(strategy: PairCloneStrategy) -> PairOutcomeDist:
    """Label-averaged outcome distribution: labels are drawn uniformly and
    positions are independent, so per-position outcomes are iid with this
    mixture law even for label-sensitive strategies."""
    dist = _label_outcome_laws(strategy).mean(axis=0)
    return PairOutcomeDist(*(float(x) for x in dist))


#: Trials sampled per multinomial draw in :func:`double_accept_mc`.
MC_BATCH = 50_000


def double_accept_mc(n_qubits: int, f_tols, dist: PairOutcomeDist, trials: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Hits per threshold of ``f_tols``, in order: trials where both cloned
    halves pass, outcomes iid from ``dist``.  Both pass k exactly when
    c11 + min(c10, c01) >= k, so one histogram serves every threshold (common
    random numbers), and each count stays unbiased for its own threshold."""
    pvals = np.asarray(dist, dtype=float)
    hist = np.zeros(n_qubits + 2, dtype=np.int64)
    for done in range(0, trials, MC_BATCH):
        counts = rng.multinomial(n_qubits, pvals, size=min(MC_BATCH, trials - done))
        both = counts[:, 0] + np.minimum(counts[:, 1], counts[:, 2])
        hist += np.bincount(both, minlength=n_qubits + 2)
    # survival[k] = trials passing k, for k in 0..N + 1 (none pass N + 1)
    survival = np.cumsum(hist[::-1])[::-1]
    k_min = [threshold_count(f, n_qubits) for f in f_tols]
    return survival[np.clip(k_min, 0, n_qubits + 1).astype(np.int64)]


# ---------------------------------------------------------------------------
# Sequential multi-verifier attacks.
#
# A driver is handed the single genuine token once, then must produce one
# submission per verification round, seeing only the boolean accept history.
# Per-position statistics come from the actual strategy maps and are sampled
# in bulk; each rate law returns a (trials, n_verifiers) boolean matrix of
# verdicts.

RateDriver = Callable[[int, int, int, int, np.random.Generator], np.ndarray]


def _uniform_guess_success() -> float:
    """Per-position success of submitting a uniformly random six-state
    qubit: mean of Tr[P_label P_guess] over all label/guess pairs."""
    overlaps = np.einsum("aij,bji->ab", PROJECTOR_STACK, PROJECTOR_STACK).real
    return float(overlaps.mean())


def _guess_counts(n_qubits: int, shape: tuple[int, ...],
                  rng: np.random.Generator) -> np.ndarray:
    return rng.binomial(n_qubits, _uniform_guess_success(), size=shape)


def rate_clone_then_adapt(n_qubits: int, k_min: int, n_verifiers: int,
                          trials: int, rng: np.random.Generator) -> np.ndarray:
    dists = _label_outcome_laws(UNIVERSAL_CLONER)
    if np.ptp(dists, axis=0).max() > 1e-12:
        raise AssertionError("symmetric cloner statistics should not depend on the label")
    counts = rng.multinomial(n_qubits, dists[0], size=trials)
    accepts = np.zeros((trials, n_verifiers), dtype=bool)
    accepts[:, 0] = counts[:, 0] + counts[:, 1] >= k_min
    if n_verifiers > 1:
        accepts[:, 1] = counts[:, 0] + counts[:, 2] >= k_min
    if n_verifiers > 2:
        junk = _guess_counts(n_qubits, (trials, n_verifiers - 2), rng)
        accepts[:, 2:] = junk >= k_min
    return accepts


def rate_resubmit_after_reject(n_qubits: int, k_min: int, n_verifiers: int,
                               trials: int, rng: np.random.Generator) -> np.ndarray:
    """Positions labelled on the Z axis survive the measure-reprepare step
    exactly; the rest collapse to Z eigenstates and score 1/2 independently
    at every verifier."""
    p_axis = float(np.mean(LABEL_AXES == AXIS_NAMES.index("Z")))
    n_z = rng.binomial(n_qubits, p_axis, size=trials)
    rest = rng.binomial((n_qubits - n_z)[:, None], 0.5,
                        size=(trials, n_verifiers))
    return n_z[:, None] + rest >= k_min


def rate_honest_once_then_noise(n_qubits: int, k_min: int, n_verifiers: int,
                                trials: int, rng: np.random.Generator) -> np.ndarray:
    accepts = np.zeros((trials, n_verifiers), dtype=bool)
    accepts[:, 0] = n_qubits >= k_min
    if n_verifiers > 1:
        junk = _guess_counts(n_qubits, (trials, n_verifiers - 1), rng)
        accepts[:, 1:] = junk >= k_min
    return accepts


RATE_DRIVERS: dict[str, RateDriver] = {
    "clone-then-adapt": rate_clone_then_adapt,
    "resubmit-after-reject": rate_resubmit_after_reject,
    "honest-once-then-noise": rate_honest_once_then_noise,
}


@dataclass(frozen=True)
class AttackSummary:
    driver: str
    trials: int
    n_verifiers: int
    double_accepts: int
    accept_histogram: tuple[int, ...]   # indexed by number of accepting verifiers
    rate: float
    bound: BoundReport


def sequential_attack_rate(n_qubits: int, f_tol, n_verifiers: int,
                           driver: str, trials: int,
                           rng: np.random.Generator) -> AttackSummary:
    """Estimate the double-acceptance rate of the named driver over many
    trials and compare with the pairwise union bound."""
    if n_verifiers < 2:
        raise ValueError("need at least two verifiers")
    k_min = threshold_count(f_tol, n_qubits)
    accepts = RATE_DRIVERS[driver](n_qubits, k_min, n_verifiers, trials, rng)
    per_trial = accepts.sum(axis=1)
    hist = np.bincount(per_trial, minlength=n_verifiers + 1)
    double = int((per_trial >= 2).sum())
    return AttackSummary(
        driver=driver,
        trials=trials,
        n_verifiers=n_verifiers,
        double_accepts=double,
        accept_histogram=tuple(int(x) for x in hist),
        rate=double / trials,
        bound=learning_bound(n_qubits, f_tol, n_verifiers),
    )


# ---------------------------------------------------------------------------
# Challenge-response attackers.  Each has one per-qubit law ``bit_zero``:
# qtokens.cv.double_spend_experiment tabulates it over the six label states,
# and prepare()/answer() sample it on a token's qubits.  Both answer every
# challenge after the first with their first sheet.

def intermediate_basis_bits(qubits: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """Measure every qubit of a (..., 2, 2) stack in the intermediate basis
    once; +1 outcomes are reported as bit 0 under either axis."""
    return sample_bits(intermediate_bit_zero(qubits), rng)


@dataclass(eq=False)
class IntermediateBasisAttacker:
    """Question-independent strategy: commit to intermediate-basis outcomes
    up front and reuse them for every challenge."""

    name: str = "intermediate-basis"
    _bits: np.ndarray | None = field(default=None, repr=False)
    bit_zero = staticmethod(intermediate_bit_zero)

    def prepare(self, token: CvToken, rng: np.random.Generator) -> None:
        token.consume()
        self._bits = intermediate_basis_bits(token.qubits, rng)

    def answer(self, question: ChallengeQuestion,
               rng: np.random.Generator) -> np.ndarray:
        if self._bits is None:
            raise RuntimeError("prepare() must run before answer()")
        return self._bits


@dataclass(eq=False)
class HonestCopyAttacker:
    """Measure honestly for the first challenge and replay that sheet
    verbatim afterwards.  Blocks whose asked axis changed carry outcomes
    measured in the wrong basis, which score like uniform guesses."""

    name: str = "honest-copy"
    _token: CvToken | None = field(default=None, repr=False)
    _sheet: np.ndarray | None = field(default=None, repr=False)
    bit_zero = staticmethod(measured_bit_zero)

    def prepare(self, token: CvToken, rng: np.random.Generator) -> None:
        self._token = token
        self._sheet = None

    def answer(self, question: ChallengeQuestion,
               rng: np.random.Generator) -> np.ndarray:
        if self._sheet is None:
            if self._token is None:
                raise RuntimeError("prepare() must run before answer()")
            self._sheet = honest_answer(self._token, question, None, rng).outcomes
        return self._sheet


CV_ATTACKERS: dict[str, Callable[[], object]] = {
    "intermediate-basis": IntermediateBasisAttacker,
    "honest-copy": HonestCopyAttacker,
}
