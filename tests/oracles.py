"""Independent reference computations backing the test suite.

The numeric oracles are rebuilt from scratch: explicit ket vectors, literal
4x4 trace arithmetic, exhaustive rational enumeration, log-space binomial
sums, and high-precision mpmath evaluation.  None of them uses the package,
so agreement is a genuine two-route check rather than a tautology.

The object-level references at the end run attacks one trial at a time
through the package's per-object API (issue, counterfeit, verify, answer,
score_answer), the route the batched estimators replace.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np

from qtokens.attacks import UNIVERSAL_CLONER, counterfeit
from qtokens.core import LABELS, PROJECTOR_STACK
from qtokens.cv import (complement_question, cv_issue, random_question,
                        score_answer)
from qtokens.qticket import TokenInstance, token_from_secret, verify
from qtokens.rational import threshold_count

mpmath.mp.dps = 60


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


SQ2 = 1.0 / math.sqrt(2.0)

# Explicit six-state kets; order matches the package's label enumeration.
KETS = {
    "Z+": np.array([1.0, 0.0], dtype=complex),
    "Z-": np.array([0.0, 1.0], dtype=complex),
    "X+": np.array([SQ2, SQ2], dtype=complex),
    "X-": np.array([SQ2, -SQ2], dtype=complex),
    "Y+": np.array([SQ2, SQ2 * 1j], dtype=complex),
    "Y-": np.array([SQ2, -SQ2 * 1j], dtype=complex),
}
LABEL_ORDER = ("Z+", "Z-", "X+", "X-", "Y+", "Y-")

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_pure_state(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random pure state as a density matrix."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def ket_projector(name: str) -> np.ndarray:
    v = KETS[name]
    return np.outer(v, v.conj())


def swap_gate() -> np.ndarray:
    s = np.zeros((4, 4), dtype=complex)
    for i, j in product(range(2), range(2)):
        s[2 * i + j, 2 * j + i] = 1.0
    return s


def kraus_apply(kraus, rho: np.ndarray) -> np.ndarray:
    """Channel output sum_i K_i rho K_i^dagger, one literal product per
    Kraus operator."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def cloner_output(rho: np.ndarray) -> np.ndarray:
    """Symmetric 1 -> 2 cloning channel, written out term by term."""
    return (np.kron(rho, rho) / 3.0
            + np.kron(rho, ID2) / 6.0
            + np.kron(ID2, rho) / 6.0)


def pair_joint_dist(pair_state: np.ndarray, name: str) -> tuple[float, float, float, float]:
    """(p11, p10, p01, p00): both copies measured against the original
    projector, by literal trace arithmetic on the 4x4 state."""
    p = ket_projector(name)
    q = ID2 - p

    def tr(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.trace(np.kron(a, b) @ pair_state).real)

    return (tr(p, p), tr(p, q), tr(q, p), tr(q, q))


def measure_reprepare_output(rho: np.ndarray, basis_plus: np.ndarray) -> np.ndarray:
    """Measure in {basis_plus, 1 - basis_plus}, reprepare two copies of the
    outcome state."""
    p = basis_plus
    q = ID2 - p
    w = float(np.trace(p @ rho).real)
    return w * np.kron(p, p) + (1.0 - w) * np.kron(q, q)


def intermediate_plus_projector() -> np.ndarray:
    """Projector onto the +1 eigenstate of (X+Z)/sqrt(2), via the Bloch-form
    identity P = (1 + n.sigma)/2 rather than any eigensolver."""
    return (ID2 + (SX + SZ) * SQ2) / 2.0


COS2_PI_8 = (1.0 + SQ2) / 2.0


# ---------------------------------------------------------------------------
# Exact tails.

def binom_tail_ge(n: int, p: float, k: int) -> float:
    """P[Bin(n, p) >= k], log-space terms summed with math.fsum."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    lgn = math.lgamma(n + 1)
    terms = [math.exp(lgn - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                      + j * lp + (n - j) * lq)
             for j in range(k, n + 1)]
    return min(1.0, math.fsum(terms))


def binom_tail_le(n: int, p: float, k: int) -> float:
    """P[Bin(n, p) <= k], summed over its own side for accuracy."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    lgn = math.lgamma(n + 1)
    terms = [math.exp(lgn - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                      + j * lp + (n - j) * lq)
             for j in range(0, k + 1)]
    return min(1.0, math.fsum(terms))


def frac_binom_tail_ge(n: int, p: Fraction, k: int) -> Fraction:
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    return sum((Fraction(math.comb(n, j)) * p ** j * (1 - p) ** (n - j)
                for j in range(k, n + 1)), Fraction(0))


def mp_binom_tail_ge(n: int, p, k: int):
    """Upper tail at 60 decimal digits; dominates float rounding concerns."""
    if k <= 0:
        return mpmath.mpf(1)
    if k > n:
        return mpmath.mpf(0)
    p = _mp(p)
    return mpmath.fsum(mpmath.binomial(n, j) * p ** j * (1 - p) ** (n - j)
                       for j in range(k, n + 1))


def mp_binom_tail_le(n: int, p, k: int):
    if k < 0:
        return mpmath.mpf(0)
    if k >= n:
        return mpmath.mpf(1)
    p = _mp(p)
    return mpmath.fsum(mpmath.binomial(n, j) * p ** j * (1 - p) ** (n - j)
                       for j in range(0, k + 1))


def subset_poisson_binom_tail(ps: list[Fraction], k: int) -> Fraction:
    """P[sum of independent Bernoullis >= k] by exhaustive enumeration over
    all 2^n outcomes.  Exact and obviously correct; n <= ~14 only."""
    n = len(ps)
    total = Fraction(0)
    for mask in range(1 << n):
        ones = bin(mask).count("1")
        if ones < k:
            continue
        w = Fraction(1)
        for i, p in enumerate(ps):
            w *= p if (mask >> i) & 1 else (1 - p)
        total += w
    return total


# ---------------------------------------------------------------------------
# Double-acceptance oracles.

def frac_double_accept(n: int, dist: tuple[Fraction, ...], k: int) -> Fraction:
    """P[count1 >= k and count2 >= k] by exhaustive multinomial enumeration
    over (c11, c10, c01, c00).  Exact rational; small n only."""
    p11, p10, p01, p00 = dist
    total = Fraction(0)
    fact = math.factorial
    for c11 in range(n + 1):
        for c10 in range(n - c11 + 1):
            for c01 in range(n - c11 - c10 + 1):
                c00 = n - c11 - c10 - c01
                if c11 + c10 < k or c11 + c01 < k:
                    continue
                coeff = fact(n) // (fact(c11) * fact(c10) * fact(c01) * fact(c00))
                total += (coeff * p11 ** c11 * p10 ** c10
                          * p01 ** c01 * p00 ** c00)
    return total


def lattice_double_accept(n: int, k: int, dist) -> float:
    """P[count1 >= k and count2 >= k] by propagating the full (count1,
    count2) distribution one position at a time: an O(n^3) float lattice
    with no logs, windows or cut-offs."""
    cur = _count_lattice(n, tuple(float(x) for x in dist))
    return math.fsum(cur[max(k, 0):, max(k, 0):].ravel())


@functools.lru_cache(maxsize=8)
def _count_lattice(n: int, dist: tuple[float, ...]) -> np.ndarray:
    # independent of the threshold, so one lattice serves a whole grid
    p11, p10, p01, p00 = dist
    cur = np.zeros((n + 1, n + 1))
    cur[0, 0] = 1.0
    nxt = np.empty_like(cur)
    for _ in range(n):
        np.multiply(cur, p00, out=nxt)
        nxt[1:, 1:] += p11 * cur[:-1, :-1]
        nxt[1:, :] += p10 * cur[:-1, :]
        nxt[:, 1:] += p01 * cur[:, :-1]
        cur, nxt = nxt, cur
    cur.flags.writeable = False
    return cur


def cloner_double_accept(n: int, k: int) -> float:
    """Double acceptance for the per-position law (2/3, 1/6, 1/6, 0) by
    conditioning on the both-correct count: given t both-correct positions,
    the remaining m split 50/50 between the two exclusive outcomes, so the
    joint event is a central interval of one binomial."""
    lf = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n + 1)))))
    lg23, lg13 = math.log(2.0 / 3.0), math.log(1.0 / 3.0)
    lhalf = math.log(0.5)
    out = []
    for t in range(n + 1):
        m = n - t
        need = k - t
        log_pt = lf[n] - lf[t] - lf[m] + t * lg23 + m * lg13
        if need <= 0:
            inner = 1.0
        elif 2 * need > m:
            inner = 0.0
        else:
            j = np.arange(need, m - need + 1)
            inner = float(np.exp(lf[m] - lf[j] - lf[m - j] + m * lhalf).sum())
        out.append(math.exp(log_pt) * min(1.0, inner))
    return min(1.0, math.fsum(out))


def honest_copy_double_accept(n: int, r: int, k: int) -> float:
    """Verbatim-replay attacker against two independent random question
    sets, noiseless: the first card is perfect; each replayed block is
    perfect when the axes collide (probability 1/2) and scores like r fair
    coins otherwise."""
    p_block = 0.5 + 0.5 * binom_tail_ge(r, 0.5, k)
    return p_block ** n


# ---------------------------------------------------------------------------
# High-precision bound formulas.

def mp_relative_entropy(p, q):
    p, q = _mp(p), _mp(q)
    total = mpmath.mpf(0)
    if p > 0:
        total += p * mpmath.log(p / q)
    if p < 1:
        total += (1 - p) * mpmath.log((1 - p) / (1 - q))
    return total


def mp_security_bound(n: int, f_tol):
    return mpmath.e ** (-n * mp_relative_entropy(2 * _mp(f_tol) - 1,
                                                 mpmath.mpf(2) / 3))


def mp_learning_bound(n: int, f_tol, v: int):
    return mpmath.binomial(v, 2) * mp_security_bound(n, f_tol)


def mp_cv_soundness_bound(n_blocks: int, r: int, f_exp, f_tol):
    d = mp_relative_entropy(f_tol, f_exp)
    return (1 - mpmath.e ** (-r * d)) ** n_blocks


def mp_cv_security_bound(n_blocks: int, r: int, f_tol, v: int):
    thr = (1 + 1 / mpmath.sqrt(2)) / 2
    d = mp_relative_entropy(f_tol, thr)
    return mpmath.binomial(v, 2) ** 2 * (mpmath.mpf(1) / 2
                                         + mpmath.e ** (-r * d)) ** n_blocks


# ---------------------------------------------------------------------------
# Frozen reference values.  Each literal was produced by the mpmath oracle
# directly above it; the suite re-derives them at import of the relevant
# test so a transcription slip cannot survive.

FROZEN = {
    "security_N1000_ftol0.9": 1.0586516656827078e-19,
    "learning_N1000_ftol0.9_v10": 4.7639324955721854e-18,
    "cv_soundness_10_100_095_09": 0.25781747207917144,
    "cv_security_20_200_092_v2": 1.8081771960908786e-06,
    "relent_09_095": 0.020654218912746247,
    "g_and_value": 0.75,
    "g_avg_value": COS2_PI_8,
    "mixed_question": 0.5 + 0.5 * COS2_PI_8,
}

CLONER_DIST = (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6), Fraction(0))
MRZ_MIXTURE = (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))


def chisq_stat(counts: np.ndarray, probs: np.ndarray) -> float:
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    expected = probs * counts.sum()
    keep = expected > 0
    return float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())


def honest_acceptance_mc(fidelities, f_tol, trials: int,
                         rng: np.random.Generator, batch: int = 2000) -> int:
    """Monte-Carlo twin of qticket.exact_honest_acceptance; returns the
    number of accepting trials."""
    f = np.asarray(fidelities, dtype=float)
    k_min = threshold_count(f_tol, len(f))
    hits = 0
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        counts = (rng.random((b, len(f))) < f).sum(axis=1)
        hits += int((counts >= k_min).sum())
        done += b
    return hits


# ---------------------------------------------------------------------------
# Object-level references for the batched attack experiments.
#
# A sequential driver is handed the single genuine token once, then must
# produce one submission per verification round, seeing only the boolean
# accept history.  Every submission is consumed by qticket.verify against the
# same secret.

def _junk_token(serial: str, n_qubits: int, rng: np.random.Generator) -> TokenInstance:
    labels = rng.integers(0, len(LABELS), size=n_qubits)
    return TokenInstance(serial, PROJECTOR_STACK[labels].copy())


@dataclass(eq=False)
class CloneThenAdaptDriver:
    """Clone once with the symmetric cloner, hand the halves to the first
    two verifiers, then fall back to fresh six-state guesses."""

    name: str = "clone-then-adapt"
    _halves: list = field(default_factory=list, repr=False)
    _serial: str = ""
    _n: int = 0

    def begin(self, token, policy, rng) -> None:
        self._serial, self._n = token.serial, token.n_qubits
        self._halves = list(counterfeit(token, UNIVERSAL_CLONER, rng))

    def submission(self, history, rng) -> TokenInstance:
        if self._halves:
            return self._halves.pop(0)
        return _junk_token(self._serial, self._n, rng)


@dataclass(eq=False)
class ResubmitAfterRejectDriver:
    """Measure the whole token in the Z basis, reprepare the outcomes, and
    keep resubmitting the same preparation no matter the verdicts."""

    name: str = "resubmit-after-reject"
    _prep: np.ndarray | None = field(default=None, repr=False)
    _serial: str = ""

    def begin(self, token, policy, rng) -> None:
        if token.consumed or token.qubits is None:
            raise ValueError("driver needs the fresh physical token")
        token.consumed = True
        p0 = np.clip(token.qubits[:, 0, 0].real, 0.0, 1.0)
        ones = rng.random(token.n_qubits) >= p0
        self._prep = PROJECTOR_STACK[np.where(ones, 1, 0)]
        self._serial = token.serial

    def submission(self, history, rng) -> TokenInstance:
        return TokenInstance(self._serial, self._prep.copy())


@dataclass(eq=False)
class HonestOnceThenNoiseDriver:
    """Spend the genuine token at the first verifier, then try uniformly
    guessed substitutes at the rest."""

    name: str = "honest-once-then-noise"
    _token: TokenInstance | None = field(default=None, repr=False)
    _serial: str = ""
    _n: int = 0

    def begin(self, token, policy, rng) -> None:
        self._token = token
        self._serial, self._n = token.serial, token.n_qubits

    def submission(self, history, rng) -> TokenInstance:
        if self._token is not None:
            genuine, self._token = self._token, None
            return genuine
        return _junk_token(self._serial, self._n, rng)


DRIVERS = {
    "clone-then-adapt": CloneThenAdaptDriver,
    "resubmit-after-reject": ResubmitAfterRejectDriver,
    "honest-once-then-noise": HonestOnceThenNoiseDriver,
}


def sequential_attack(driver: str, secret, v: int, policy, rng) -> list:
    """Run one holder against ``v`` sequential verifications of one serial
    and return the full transcript of outcomes."""
    if v < 1:
        raise ValueError("need at least one verification")
    drv = DRIVERS[driver]()
    drv.begin(token_from_secret(secret), policy, rng)
    history: list[bool] = []
    transcript = []
    for _ in range(v):
        outcome = verify(secret, drv.submission(tuple(history), rng), policy, rng)
        transcript.append(outcome)
        history.append(outcome.accepted)
    return transcript


def double_spend_reference(layout, attacker, pairing: str, trials: int,
                           rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Per-trial cv_issue -> prepare -> answer -> score_answer loop against
    two verifiers.  Returns the number of trials both accepted and each
    trial's fraction of correct scored bits over both verifiers."""
    successes = 0
    utilities = np.empty(trials)
    scored = 2 * layout.n_blocks * layout.block_size
    for t in range(trials):
        secret, token = cv_issue(layout, rng)
        attacker.prepare(token, rng)
        q1 = random_question(layout, rng)
        q2 = (random_question(layout, rng) if pairing == "independent"
              else complement_question(q1, rng))
        card1 = score_answer(secret, q1, attacker.answer(q1, rng), layout)
        card2 = score_answer(secret, q2, attacker.answer(q2, rng), layout)
        successes += card1.accepted and card2.accepted
        utilities[t] = (sum(card1.per_block_correct)
                        + sum(card2.per_block_correct)) / scored
    return successes, utilities
