"""Weighted state-retrieval games and their selective values.

A game pairs an indexed ensemble of states (unnormalized operators
varrho(s) = p_s rho_s summing to a full-rank reduced state) with a utility
table over (index, answer).  The figure of merit is the selective value:
the best achievable expected utility over *selective* projections, i.e.
sub-normalized answer operators, which upper-bounds every physical
(complete) measurement strategy.  It is computed as the largest operator
norm over answers of

    O(a) = sum_s sigma(s, a) rho^{-1/2} varrho(s) rho^{-1/2}

and is multiplicative under tensor products, which is what lets block
games be analysed one block at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .bounds import chernoff_tail
from .core import (CV_PAIR_LABELS, I2, PROJECTOR_STACK, LABEL_INDEX,
                   check_density_matrix, partial_trace)

RANK_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class IndexedEnsemble:
    """States with weights; weight * state entries must sum to a full-rank
    reduced matrix with unit trace."""

    indices: tuple[Hashable, ...]
    weights: tuple[float, ...]
    states: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not (len(self.indices) == len(self.weights) == len(self.states)):
            raise ValueError("indices, weights and states must align")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        dims = {s.shape for s in self.states}
        if len(dims) != 1 or dims.pop() not in ((2, 2), (4, 4)):
            raise ValueError("states must share dimension 2 or 4")
        for s in self.states:
            check_density_matrix(s, name="ensemble state")

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def operator(self, i: int) -> np.ndarray:
        """Unnormalized member varrho(s) = weight * state for position i."""
        return self.weights[i] * self.states[i]

    def reduced(self) -> np.ndarray:
        return sum(self.operator(i) for i in range(len(self.indices)))


@dataclass(frozen=True, eq=False)
class UtilityFunction:
    """Utility table over (index, answer); missing entries count as 0.
    Values must lie in [0, 1]."""

    answers: tuple[Hashable, ...]
    table: Mapping[tuple[Hashable, Hashable], float]

    def __post_init__(self) -> None:
        for key, val in self.table.items():
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"utility {val} at {key} outside [0, 1]")

    def value(self, index: Hashable, answer: Hashable) -> float:
        return self.table.get((index, answer), 0.0)


@dataclass(frozen=True, eq=False)
class Wqrg:
    ensemble: IndexedEnsemble
    utility: UtilityFunction


@dataclass(frozen=True, eq=False)
class ProductWqrg:
    """Tensor product kept in factored form; selective values multiply, so
    large products are never materialized."""

    factors: tuple[Wqrg, ...]


@dataclass(frozen=True, eq=False)
class SelectiveProjection:
    """Answer -> positive semidefinite operator.  Physical (complete)
    strategies additionally sum to the identity."""

    operators: Mapping[Hashable, np.ndarray]

    def is_physical(self, dim: int, atol: float = 1e-10) -> bool:
        total = sum(self.operators.values())
        return bool(np.max(np.abs(total - np.eye(dim))) <= atol)


@dataclass(frozen=True)
class SelectiveValue:
    value: float
    answer: Hashable
    witness: SelectiveProjection | None


def _inverse_sqrt(rho: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(rho)
    if eigs.min() < RANK_TOLERANCE:
        raise ValueError(
            f"reduced ensemble state is rank-deficient (min eigenvalue {eigs.min():.3e})")
    return (vecs * (eigs ** -0.5)) @ vecs.conj().T


def selective_value(game: Wqrg | ProductWqrg) -> SelectiveValue:
    """Best selective answer operator, its answer, and a witness projection
    achieving the value (top-eigenspace construction)."""
    if isinstance(game, ProductWqrg):
        best = 1.0
        answers = []
        for factor in game.factors:
            part = selective_value(factor)
            best *= part.value
            answers.append(part.answer)
        return SelectiveValue(best, tuple(answers), None)

    ens, util = game.ensemble, game.utility
    rinv = _inverse_sqrt(ens.reduced())
    best_val, best_answer, best_op = -1.0, None, None
    for answer in util.answers:
        o = np.zeros((ens.dim, ens.dim), dtype=complex)
        for i, idx in enumerate(ens.indices):
            coeff = util.value(idx, answer)
            if coeff:
                o += coeff * ens.operator(i)
        o = rinv @ o @ rinv
        eigs, vecs = np.linalg.eigh(o)
        top = float(eigs[-1])
        if top > best_val + 1e-15:
            best_val, best_answer = top, answer
            mask = eigs >= top - 1e-9 * max(1.0, abs(top))
            pi = (vecs[:, mask]) @ (vecs[:, mask]).conj().T
            best_op = rinv @ pi @ rinv
    witness = SelectiveProjection({best_answer: best_op})
    return SelectiveValue(best_val, best_answer, witness)


def value_wrt_projection(game: Wqrg, projection: SelectiveProjection) -> float:
    """Expected utility of the induced distribution p(s, a) ~ Tr[P(a) varrho(s)]."""
    ens, util = game.ensemble, game.utility
    num = 0.0
    den = 0.0
    for answer, op in projection.operators.items():
        for i, idx in enumerate(ens.indices):
            mass = float(np.trace(op @ ens.operator(i)).real)
            num += util.value(idx, answer) * mass
            den += mass
    if den <= 1e-15:
        raise ValueError("projection assigns zero mass to the ensemble")
    return num / den


def tensor_product(g1: Wqrg, g2: Wqrg) -> Wqrg | ProductWqrg:
    """Product game; materialized when the joint dimension stays <= 4,
    otherwise kept factored."""
    d = g1.ensemble.dim * g2.ensemble.dim
    if d > 4:
        return ProductWqrg((g1, g2))
    e1, e2 = g1.ensemble, g2.ensemble
    indices, weights, states = [], [], []
    for i, s1 in enumerate(e1.indices):
        for j, s2 in enumerate(e2.indices):
            indices.append((s1, s2))
            weights.append(e1.weights[i] * e2.weights[j])
            states.append(np.kron(e1.states[i], e2.states[j]))
    answers = tuple((a1, a2) for a1 in g1.utility.answers for a2 in g2.utility.answers)
    table = {}
    for (s1, s2) in indices:
        for (a1, a2) in answers:
            table[((s1, s2), (a1, a2))] = g1.utility.value(s1, a1) * g2.utility.value(s2, a2)
    return Wqrg(IndexedEnsemble(tuple(indices), tuple(weights), tuple(states)),
                UtilityFunction(answers, table))


def threshold_game_bound(block_values: Sequence[float], gamma: float) -> float:
    """Bound 2 e^{-n D(gamma||delta)} on the selective value of the game that
    pays out when at least a gamma fraction of n blocks are answered well;
    delta is the mean of the given per-block values."""
    n = len(block_values)
    if n < 1:
        raise ValueError("need at least one block value")
    return 2.0 * chernoff_tail(n, gamma, float(np.mean(block_values)))


# ---------------------------------------------------------------------------
# The four pair-retrieval games behind classically-verified tokens.

PAIR_ANSWERS = ("00", "01", "10", "11")


def _axis_utility(axis: str) -> Callable[[tuple, str], float]:
    def sigma(s: tuple, a: str) -> float:
        l1, l2 = s
        if l1.axis == axis:
            return float(int(a[0]) == l1.eigenbit)
        return float(int(a[1]) == l2.eigenbit)
    return sigma


def _pair_ensemble() -> IndexedEnsemble:
    states = tuple(
        np.kron(PROJECTOR_STACK[LABEL_INDEX[l1]], PROJECTOR_STACK[LABEL_INDEX[l2]])
        for l1, l2 in CV_PAIR_LABELS)
    return IndexedEnsemble(CV_PAIR_LABELS, (1.0 / 8.0,) * 8, states)


def _single_axis_game(axis: str) -> Wqrg:
    sigma = _axis_utility(axis)
    table = {(s, a): sigma(s, a) for s in CV_PAIR_LABELS for a in PAIR_ANSWERS}
    return Wqrg(_pair_ensemble(), UtilityFunction(PAIR_ANSWERS, table))


def _two_answer_game(combine: Callable[[float, float], float]) -> Wqrg:
    sx, sz = _axis_utility("X"), _axis_utility("Z")
    answers = tuple((ax, az) for ax in PAIR_ANSWERS for az in PAIR_ANSWERS)
    table = {(s, (ax, az)): combine(sx(s, ax), sz(s, az))
             for s in CV_PAIR_LABELS for ax, az in answers}
    return Wqrg(_pair_ensemble(), UtilityFunction(answers, table))


@dataclass(frozen=True)
class CvPairGames:
    g_x: Wqrg
    g_z: Wqrg
    g_and: Wqrg
    g_avg: Wqrg


def build_cv_pair_games() -> CvPairGames:
    """Single-axis games, their conjunction, and the balanced average over
    the eight Z/X product pair states."""
    return CvPairGames(
        g_x=_single_axis_game("X"),
        g_z=_single_axis_game("Z"),
        g_and=_two_answer_game(lambda x, z: x * z),
        g_avg=_two_answer_game(lambda x, z: (x + z) / 2.0),
    )


def repeated_question_game(axis: str = "Z") -> Wqrg:
    """Both answers address the same axis; trivially winnable by repetition."""
    sigma = _axis_utility(axis)
    answers = tuple((a1, a2) for a1 in PAIR_ANSWERS for a2 in PAIR_ANSWERS)
    table = {(s, (a1, a2)): (sigma(s, a1) + sigma(s, a2)) / 2.0
             for s in CV_PAIR_LABELS for a1, a2 in answers}
    return Wqrg(_pair_ensemble(), UtilityFunction(answers, table))


def mixed_question_value() -> float:
    """Expected best utility when the two questions posed for a pair agree
    with probability 1/2 and are complementary otherwise."""
    same = selective_value(repeated_question_game("Z")).value
    avg = selective_value(build_cv_pair_games().g_avg).value
    return 0.5 * same + 0.5 * avg


def restrict_projection(projection: SelectiveProjection,
                        other_state: np.ndarray,
                        keep: int = 0) -> SelectiveProjection:
    """Marginalize a two-qubit projection with paired answers (a1, a2) down
    to the kept factor, weighting the discarded factor by its reduced state."""
    ops: dict[Hashable, np.ndarray] = {}
    for (a1, a2), op in projection.operators.items():
        key = a1 if keep == 0 else a2
        if keep == 0:
            weighted = op @ np.kron(I2, other_state)
            reducedop = partial_trace(weighted, trace_out=1)
        else:
            weighted = op @ np.kron(other_state, I2)
            reducedop = partial_trace(weighted, trace_out=0)
        ops[key] = ops.get(key, np.zeros((2, 2), dtype=complex)) + reducedop
    return SelectiveProjection(ops)


@dataclass(frozen=True)
class MultiplexCheck:
    epsilon: float
    min_joint_success: float
    bound: float
    holds: bool


def multiplex_sequential_check(states: Mapping[tuple, np.ndarray],
                               pa: Sequence[np.ndarray],
                               pb: Sequence[np.ndarray]) -> MultiplexCheck:
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
