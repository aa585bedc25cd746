"""Independent reference computations backing the test suite.

The numeric oracles are rebuilt from scratch: explicit ket vectors, literal
4x4 trace arithmetic, exhaustive rational enumeration, log-space binomial
sums, and high-precision mpmath evaluation.  None of them uses the package,
so agreement is a genuine two-route check rather than a tautology.

The cloning-ceiling references build their operators from the package's
``PROJECTOR_STACK``; the see-saw search that approaches each ceiling is
their achievable-value route.

``double_accept_mc_one`` replays the package sampler's multinomial draws
(same ``MC_BATCH`` batches) and compares each copy's count with one
threshold, the route the survival-histogram read-out replaces.

The retrieval-game references (witness, value of a projection, products,
restriction, multiplexed measurements) read a package game's arrays but
rebuild each operator one state at a time.

The object-level references at the end run attacks one trial at a time
through the package's per-object API (issue, verify, answer, score_answer),
the route the batched estimators replace.  Counterfeits are an oracle of
their own here: ``counterfeit`` clones a token's qubits with a package
strategy map into a ``CorrelatedPair``, whose four-way outcome law is
rebuilt from np.kron operators rather than taken from the package, and
``verify_half`` measures one ``CounterfeitHalf`` with the checks
``qticket.verify`` makes.  ``verifier_session`` serves challenge-response
rounds on one open channel until the holder hangs up; ``channel_pair`` gives
the two connected ends of a socketpair as line channels.
"""
from __future__ import annotations

import functools
import math
import socket
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np

from qtokens.attacks import MC_BATCH, UNIVERSAL_CLONER
from qtokens.core import LABELS, PROJECTOR_STACK, check_density_matrix
from qtokens.cv import (CvVerifier, complement_question, cv_issue,
                        random_question, register, score_answer)
from qtokens.games import Wqrg
from qtokens.core import Token, TokenConsumedError
from qtokens.qticket import VerificationOutcome, token_from_secret, verify
from qtokens.rational import threshold_count
from qtokens.store import SecretStore, UnknownSerialError
from qtokens.wire import LineChannel

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


def double_accept_mc_one(n: int, f_tol, dist, trials: int,
                         rng: np.random.Generator) -> int:
    """Per-threshold twin of ``attacks.double_accept_mc``: the same
    multinomial draws, batch by batch, each copy's count compared with one
    threshold directly.  A generator seeded alike gives the same hits."""
    k_min = threshold_count(f_tol, n)
    pvals = np.asarray(dist, dtype=float)
    hits = 0
    done = 0
    while done < trials:
        b = min(MC_BATCH, trials - done)
        counts = rng.multinomial(n, pvals, size=b)
        first = counts[:, 0] + counts[:, 1]
        second = counts[:, 0] + counts[:, 2]
        hits += int(((first >= k_min) & (second >= k_min)).sum())
        done += b
    return hits


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


def mp_cv_complementary_bound(n_blocks: int, r: int, f_tol):
    thr = (1 + 1 / mpmath.sqrt(2)) / 2
    return (2 * mpmath.e ** (-r * mp_relative_entropy(f_tol, thr))) ** n_blocks


#: Per-position "all c + 1 outputs pass" ceilings that
#: ``cloning_operator`` certifies for c = 1, 2.
CLONING_CEILINGS = {1: Fraction(2, 3), 2: Fraction(3, 4)}


def mp_multicopy_security_bound(n: int, f_tol, c: int):
    p = (c + 1) * _mp(f_tol) - c
    return mpmath.e ** (-n * mp_relative_entropy(p, _mp(CLONING_CEILINGS[c])))


# ---------------------------------------------------------------------------
# Cloning ceilings.  A map from c copies of a qubit to c + 1 registers has
# a Choi matrix J on (input, output), with Tr_out J = I when it is trace
# preserving; on c copies of a uniformly drawn label state its chance of
# passing a set of output checks is Tr[J X] for the X built below.  X is
# supported on the symmetric input subspace, of dimension c + 1, so no map
# beats (c + 1) lambda_max(X).

def _kron_all(factors) -> np.ndarray:
    return functools.reduce(np.kron, factors, np.ones((1, 1)))


def cloning_operator(c: int, output: int | None = None) -> np.ndarray:
    """X = (1/6) sum_s (P_s^{(x)c})^T (x) Q_s over the six label projectors,
    with Q_s = P_s^{(x)(c+1)} (all outputs pass) or, for a given ``output``
    k, P_s on output k and the identity elsewhere (that output passes)."""
    total = 0
    for proj in PROJECTOR_STACK:
        checks = [proj if output in (None, k) else np.eye(2) for k in range(c + 1)]
        total = total + np.kron(_kron_all([proj] * c).T, _kron_all(checks))
    return total / len(PROJECTOR_STACK)


def choi_output_trace(choi: np.ndarray, c: int) -> np.ndarray:
    d_in, d_out = 2 ** c, 2 ** (c + 1)
    return np.einsum("iaja->ij", choi.reshape(d_in, d_out, d_in, d_out))


def seesaw_choi(target: np.ndarray, c: int, iters: int = 200) -> np.ndarray:
    """Choi matrix of a c -> c + 1 channel that climbs Tr[J target]: start
    from the identity, repeat J <- target J target and renormalise so that
    Tr_out J = I on the symmetric input subspace, then complete it with the
    maximally mixed output off that subspace so the map is CPTP."""
    d_in, d_out = 2 ** c, 2 ** (c + 1)
    choi = np.eye(d_in * d_out, dtype=complex)
    for _ in range(iters):
        choi = target @ choi @ target
        w, v = np.linalg.eigh(choi_output_trace(choi, c))
        inv_sqrt = np.where(w > 1e-12, 1.0 / np.sqrt(np.maximum(w, 1e-12)), 0.0)
        scale = np.kron((v * inv_sqrt) @ v.conj().T, np.eye(d_out))
        choi = scale @ choi @ scale.conj().T
        choi = (choi + choi.conj().T) / 2.0
    off_support = np.eye(d_in) - choi_output_trace(choi, c)
    return choi + np.kron(off_support, np.eye(d_out) / d_out)


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
# Retrieval-game references.  They read a game's arrays (states, weights,
# utility, answers) but rebuild every operator with explicit per-state loops,
# np.kron and literal partial traces, so they are a second route to what
# ``qtokens.games.selective_value`` computes in one batched pass.

#: The eight ordered Z/X pairs of classically-verified tokens, by name.
ZX_PAIRS = tuple((a, b) for z, x in product(("Z+", "Z-"), ("X+", "X-"))
                 for a, b in ((z, x), (x, z)))


def pair_axis_utility(pair: tuple[str, str], axis: str, answer: str) -> float:
    """Answer "b1b2" to a question on ``axis`` pays iff the member of
    ``pair`` prepared on that axis has eigenbit b ('+' is 0) at its
    position."""
    pos = 0 if pair[0][0] == axis else 1
    return float(int(answer[pos]) == "+-".index(pair[pos][1]))


def partial_trace(m: np.ndarray, trace_out: int = 1) -> np.ndarray:
    """Trace a 4x4 operator down to 2x2 over factor 0 (first) or 1 (second)."""
    t = np.asarray(m).reshape(2, 2, 2, 2)
    if trace_out == 1:
        return sum(t[:, k, :, k] for k in range(2))
    return sum(t[k, :, k, :] for k in range(2))


@dataclass(frozen=True, eq=False)
class SelectiveProjection:
    """Answer -> positive semidefinite operator.  Physical (complete)
    strategies additionally sum to the identity."""

    operators: dict

    def is_physical(self, dim: int, atol: float = 1e-10) -> bool:
        total = sum(self.operators.values())
        return bool(np.max(np.abs(total - np.eye(dim))) <= atol)


def value_wrt_projection(game, projection: SelectiveProjection) -> float:
    """Expected utility of the induced distribution p(s, a) ~ Tr[P(a) p_s rho_s]."""
    num = 0.0
    den = 0.0
    for answer, op in projection.operators.items():
        col = game.answers.index(answer)
        for s in range(len(game.weights)):
            mass = float(np.trace(op @ (game.weights[s] * game.states[s])).real)
            num += game.utility[s, col] * mass
            den += mass
    if den <= 1e-15:
        raise ValueError("projection assigns zero mass to the ensemble")
    return num / den


def top_eigenspace_witness(game, answer) -> SelectiveProjection:
    """The selective projection rho^{-1/2} Pi rho^{-1/2} onto the top
    eigenspace Pi of ``answer``'s operator O(a), built one state at a time."""
    col = game.answers.index(answer)
    reduced = sum(w * st for w, st in zip(game.weights, game.states))
    eigs, vecs = np.linalg.eigh(reduced)
    rinv = (vecs * (eigs ** -0.5)) @ vecs.conj().T
    o = sum(game.utility[s, col] * game.weights[s] * game.states[s]
            for s in range(len(game.weights)))
    eigs, vecs = np.linalg.eigh(rinv @ o @ rinv)
    top = vecs[:, eigs >= eigs[-1] - 1e-9 * max(1.0, abs(eigs[-1]))]
    return SelectiveProjection({answer: rinv @ top @ top.conj().T @ rinv})


def tensor_product(g1, g2):
    """Product game: states rho_s (x) rho_t, weights p_s q_t, utilities
    u1(s, a) u2(t, b) and answers (a, b), all in row-major (s, t) order."""
    states = np.stack([np.kron(r1, r2) for r1 in g1.states for r2 in g2.states])
    weights = np.array([w1 * w2 for w1 in g1.weights for w2 in g2.weights])
    utility = np.array([[u1 * u2 for u1 in row1 for u2 in row2]
                        for row1 in g1.utility for row2 in g2.utility])
    answers = tuple((a1, a2) for a1 in g1.answers for a2 in g2.answers)
    return Wqrg(states, weights, utility, answers)


def restrict_projection(projection: SelectiveProjection, other_state: np.ndarray,
                        keep: int = 0) -> SelectiveProjection:
    """Marginalize a two-qubit projection with paired answers (a1, a2) down
    to the kept factor, weighting the discarded factor by its reduced state."""
    ops: dict = {}
    for (a1, a2), op in projection.operators.items():
        if keep == 0:
            key, reduced = a1, partial_trace(op @ np.kron(ID2, other_state), trace_out=1)
        else:
            key, reduced = a2, partial_trace(op @ np.kron(other_state, ID2), trace_out=0)
        ops[key] = ops.get(key, np.zeros((2, 2), dtype=complex)) + reduced
    return SelectiveProjection(ops)


@dataclass(frozen=True)
class MultiplexCheck:
    epsilon: float
    min_joint_success: float
    bound: float
    holds: bool


def multiplex_sequential_check(states: dict, pa, pb) -> MultiplexCheck:
    """Verify that two almost-perfectly-distinguishing projective
    measurements applied in sequence (first, second, first again) still
    succeed jointly: min success >= 1 - 2 eps - 2 sqrt(eps).

    ``states`` maps (alpha, beta) cells to density matrices; ``pa``/``pb``
    are the binary projector families indexed by alpha and beta.  eps is the
    largest shortfall of either measurement identifying its own index.
    """
    for fam, name in ((pa, "pa"), (pb, "pb")):
        total = sum(np.asarray(p, dtype=complex) for p in fam)
        if np.max(np.abs(total - np.eye(total.shape[0]))) > 1e-10:
            raise ValueError(f"{name} does not sum to the identity")
        for p in fam:
            p = np.asarray(p, dtype=complex)
            if np.max(np.abs(p - p.conj().T)) > 1e-10 or np.max(np.abs(p @ p - p)) > 1e-10:
                raise ValueError(f"{name} contains a non-projector element")

    epsilon = 0.0
    min_joint = 1.0
    for (alpha, beta), rho in states.items():
        rho = check_density_matrix(np.asarray(rho, dtype=complex), name=f"cell {(alpha, beta)}")
        pa_ok = float(np.trace(pa[alpha] @ rho).real)
        pb_ok = float(np.trace(pb[beta] @ rho).real)
        epsilon = max(epsilon, 1.0 - pa_ok, 1.0 - pb_ok, 0.0)
        joint = float(np.trace(pa[alpha] @ pb[beta] @ pa[alpha] @ rho).real)
        min_joint = min(min_joint, joint)
    bound = 1.0 - 2.0 * epsilon - 2.0 * math.sqrt(epsilon)
    return MultiplexCheck(epsilon, min_joint, bound, min_joint >= bound - 1e-12)


# ---------------------------------------------------------------------------
# Object-level counterfeits.

# (6, 4, 4, 4): per label, the two-qubit verification operators
# P (x) P, P (x) Q, Q (x) P, Q (x) Q with Q = 1 - P, in p11, p10, p01, p00 order
_JOINT_OPERATORS = np.stack([
    np.stack([np.kron(a, b) for a, b in product((p, ID2 - p), repeat=2)])
    for p in (ket_projector(name) for name in LABEL_ORDER)
])


class CorrelatedPair:
    """Shared measurement record for the two outputs of a pair-cloning map.

    Holds the per-position two-qubit post-cloning states; the four-outcome
    joint measurement against the verifier's labels is sampled lazily on
    first use and the outcome bits are then fixed for both sides.
    """

    def __init__(self, states_4x4: np.ndarray,
                 rng: np.random.Generator | None = None):
        self.states = np.asarray(states_4x4, dtype=complex)
        if self.states.ndim != 3 or self.states.shape[1:] != (4, 4):
            raise ValueError("expected an (N, 4, 4) stack")
        self.rng = rng             # counterfeiter-owned sampling stream
        self._bits: tuple[np.ndarray, np.ndarray] | None = None

    def outcome_bits(self, side: int, label_indices: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        if self._bits is None:
            if self.rng is not None:
                rng = self.rng
            probs = np.einsum("nkij,nji->nk", _JOINT_OPERATORS[label_indices],
                              self.states).real
            u = rng.random(len(self.states))
            idx = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
            idx = np.minimum(idx, 3)
            first = (idx <= 1).astype(np.uint8)   # outcomes 11, 10
            second = ((idx == 0) | (idx == 2)).astype(np.uint8)
            self._bits = (first, second)
        return self._bits[side]


@dataclass(eq=False)
class CounterfeitHalf:
    """One side of a correlated counterfeit pair, submitted like a token."""

    serial: str
    pair: CorrelatedPair
    side: int
    consumed: bool = False

    @property
    def n_qubits(self) -> int:
        return len(self.pair.states)


def counterfeit(token: Token, strategy,
                rng: np.random.Generator | None = None
                ) -> tuple[CounterfeitHalf, CounterfeitHalf]:
    """Consume a token and emit two correlated counterfeits with its serial.

    The joint four-outcome measurement is sampled once, at first
    verification, drawing from ``rng`` when one is supplied here.
    """
    if not isinstance(token, Token):
        raise ValueError("can only clone a token with definite qubit states")
    if token.consumed:
        raise ValueError("token already consumed")
    token.consumed = True
    pair = CorrelatedPair(strategy.apply_stack(token.qubits), rng=rng)
    return (CounterfeitHalf(token.serial, pair, 0),
            CounterfeitHalf(token.serial, pair, 1))


def verify_half(secret, half: CounterfeitHalf, f_tol,
                rng: np.random.Generator) -> VerificationOutcome:
    """``qticket.verify`` for a counterfeit half: the same consumed, serial
    and length checks, then the half's side of the shared outcome bits."""
    if half.consumed:
        raise TokenConsumedError(f"token {half.serial} already verified")
    if half.serial != secret.serial:
        raise UnknownSerialError(f"unknown-serial: {half.serial}")
    if half.n_qubits != len(secret):
        raise ValueError("token and secret lengths differ")
    half.consumed = True
    count = int(half.pair.outcome_bits(half.side, secret.labels, rng).sum())
    return VerificationOutcome(count >= threshold_count(f_tol, len(secret)), count,
                               half.serial)


# ---------------------------------------------------------------------------
# Object-level references for the batched attack experiments.
#
# A sequential driver is handed the single genuine token once, then must
# produce one submission per verification round, seeing only the boolean
# accept history.  Every submission is consumed against the same secret, by
# qticket.verify or, for counterfeit halves, by verify_half.

def _junk_token(serial: str, n_qubits: int, rng: np.random.Generator) -> Token:
    labels = rng.integers(0, len(LABELS), size=n_qubits)
    return Token(serial, PROJECTOR_STACK[labels].copy())


@dataclass(eq=False)
class CloneThenAdaptDriver:
    """Clone once with the symmetric cloner, hand the halves to the first
    two verifiers, then fall back to fresh six-state guesses."""

    name: str = "clone-then-adapt"
    _halves: list = field(default_factory=list, repr=False)
    _serial: str = ""
    _n: int = 0

    def begin(self, token, rng) -> None:
        self._serial, self._n = token.serial, len(token.qubits)
        self._halves = list(counterfeit(token, UNIVERSAL_CLONER, rng))

    def submission(self, history, rng) -> Token:
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

    def begin(self, token, rng) -> None:
        if token.consumed:
            raise ValueError("driver needs the fresh physical token")
        token.consumed = True
        p0 = np.clip(token.qubits[:, 0, 0].real, 0.0, 1.0)
        ones = rng.random(len(token.qubits)) >= p0
        self._prep = PROJECTOR_STACK[np.where(ones, 1, 0)]
        self._serial = token.serial

    def submission(self, history, rng) -> Token:
        return Token(self._serial, self._prep.copy())


@dataclass(eq=False)
class HonestOnceThenNoiseDriver:
    """Spend the genuine token at the first verifier, then try uniformly
    guessed substitutes at the rest."""

    name: str = "honest-once-then-noise"
    _token: Token | None = field(default=None, repr=False)
    _serial: str = ""
    _n: int = 0

    def begin(self, token, rng) -> None:
        self._token = token
        self._serial, self._n = token.serial, len(token.qubits)

    def submission(self, history, rng) -> Token:
        if self._token is not None:
            genuine, self._token = self._token, None
            return genuine
        return _junk_token(self._serial, self._n, rng)


DRIVERS = {
    "clone-then-adapt": CloneThenAdaptDriver,
    "resubmit-after-reject": ResubmitAfterRejectDriver,
    "honest-once-then-noise": HonestOnceThenNoiseDriver,
}


def sequential_attack(driver: str, secret, v: int, f_tol, rng) -> list:
    """Run one holder against ``v`` sequential verifications of one serial
    and return the full transcript of outcomes."""
    if v < 1:
        raise ValueError("need at least one verification")
    drv = DRIVERS[driver]()
    drv.begin(token_from_secret(secret), rng)
    history: list[bool] = []
    transcript = []
    for _ in range(v):
        submission = drv.submission(tuple(history), rng)
        check = verify_half if isinstance(submission, CounterfeitHalf) else verify
        outcome = check(secret, submission, f_tol, rng)
        transcript.append(outcome)
        history.append(outcome.accepted)
    return transcript


def channel_pair() -> tuple[LineChannel, LineChannel]:
    a, b = socket.socketpair()
    return LineChannel(a), LineChannel(b)


def verifier_session(secret, layout, policy: str, chan,
                     rng: np.random.Generator) -> dict | None:
    """Serve one holder over an open channel with an ephemeral store.

    Loops full challenge-response rounds (allowing retries under the given
    question policy) until the holder hangs up; returns the last message
    sent, or None if the holder never spoke.
    """
    store = SecretStore()
    register(store, layout, secret)
    verifier = CvVerifier(store, rng, question_policy=policy)
    last: dict | None = None
    while True:
        sent = verifier.serve_one(chan)
        if sent is None:
            return last
        last = sent


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
