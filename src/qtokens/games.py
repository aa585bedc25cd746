"""Weighted state-retrieval games and their selective values.

A game is three arrays over one ensemble: ``states`` (S, d, d) density
matrices rho_s, ``weights`` (S,) probabilities p_s whose mixture
rho = sum_s p_s rho_s is full rank, and ``utility`` (S, A) with entries in
[0, 1], one column per name in ``answers``.  The figure of merit is the
selective value: the best achievable expected utility over *selective*
projections, i.e. sub-normalized answer operators, which upper-bounds every
physical (complete) measurement strategy.  It is the largest operator norm
over answers a of

    O(a) = sum_s u(s, a) p_s rho^{-1/2} rho_s rho^{-1/2}.

The selective value is multiplicative under tensor products, which is what
lets block games be analysed one block at a time; the test suite checks this
on random games, alongside the witness, restriction and multiplexing
properties, through its own reference routines.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .core import (AXIS_NAMES, CV_PAIRS, EIGENBITS, LABEL_AXES, PROJECTOR_STACK,
                   check_density_matrix)

RANK_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class Wqrg:
    """States (S, d, d), weights (S,), utility (S, A) and the A answers."""

    states: np.ndarray
    weights: np.ndarray
    utility: np.ndarray
    answers: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        n_states, n_answers = np.shape(self.utility)
        if (np.shape(self.weights) != (n_states,) or len(self.states) != n_states
                or len(self.answers) != n_answers):
            raise ValueError("states, weights, utility and answers must align")
        if np.min(self.weights) <= 0 or abs(np.sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if np.min(self.utility) < 0.0 or np.max(self.utility) > 1.0:
            raise ValueError("utility values must lie in [0, 1]")
        check_density_matrix(self.states, name="ensemble state")

    def reduced(self) -> np.ndarray:
        """The ensemble's mixture rho = sum_s p_s rho_s."""
        return np.einsum("s,sij->ij", self.weights, self.states)


@dataclass(frozen=True)
class SelectiveValue:
    value: float
    answer: Hashable


def _inverse_sqrt(rho: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(rho)
    if eigs.min() < RANK_TOLERANCE:
        raise ValueError(
            f"reduced ensemble state is rank-deficient (min eigenvalue {eigs.min():.3e})")
    return (vecs * (eigs ** -0.5)) @ vecs.conj().T


def selective_value(game: Wqrg) -> SelectiveValue:
    """Largest top eigenvalue over the answer operators O(a), and its answer."""
    rinv = _inverse_sqrt(game.reduced())
    ops = rinv @ np.einsum("sa,s,sij->aij", game.utility, game.weights,
                           game.states) @ rinv
    tops = np.linalg.eigvalsh(ops)[:, -1]
    best = int(np.argmax(tops))
    return SelectiveValue(float(tops[best]), game.answers[best])


# ---------------------------------------------------------------------------
# The pair-retrieval games behind classically-verified tokens.  Each is
# played on the eight Z/X product pair states of CV_PAIRS, drawn uniformly.

PAIR_ANSWERS = ("00", "01", "10", "11")
_TWO_ANSWERS = tuple((a1, a2) for a1 in PAIR_ANSWERS for a2 in PAIR_ANSWERS)

_PAIR_STATES = np.einsum("sij,skl->sikjl", PROJECTOR_STACK[CV_PAIRS[:, 0]],
                         PROJECTOR_STACK[CV_PAIRS[:, 1]]).reshape(-1, 4, 4)
_PAIR_WEIGHTS = np.full(len(CV_PAIRS), 1.0 / len(CV_PAIRS))
# every pair game shares these two arrays
_PAIR_STATES.setflags(write=False)
_PAIR_WEIGHTS.setflags(write=False)

#: (4, 2) eigenbit that answer "b1b2" claims for each member of a pair.
_ANSWER_BITS = np.array([[int(b) for b in a] for a in PAIR_ANSWERS])


def _axis_utility(axis: str) -> np.ndarray:
    """(8, 4) table: answer "b1b2" pays iff the member prepared on the asked
    axis has eigenbit b at its position."""
    member = (LABEL_AXES[CV_PAIRS[:, 0]] != AXIS_NAMES.index(axis)).astype(np.intp)
    label = CV_PAIRS[np.arange(len(CV_PAIRS)), member]
    return (_ANSWER_BITS[:, member].T == EIGENBITS[label][:, None]).astype(float)


def _pair_game(utility: np.ndarray, answers: tuple) -> Wqrg:
    return Wqrg(_PAIR_STATES, _PAIR_WEIGHTS, utility, answers)


def _two_answer_table(first: np.ndarray,
                      second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(8, 16) tables of both answers' utilities, answer pairs row-major."""
    n = len(PAIR_ANSWERS)
    return np.repeat(first, n, axis=1), np.tile(second, (1, n))


@dataclass(frozen=True)
class CvPairGames:
    g_x: Wqrg
    g_z: Wqrg
    g_and: Wqrg
    g_avg: Wqrg


def build_cv_pair_games() -> CvPairGames:
    """Single-axis games, their conjunction, and the balanced average over
    the eight Z/X product pair states."""
    u_z, u_x = _axis_utility("Z"), _axis_utility("X")
    sx, sz = _two_answer_table(u_x, u_z)
    return CvPairGames(
        g_x=_pair_game(u_x, PAIR_ANSWERS),
        g_z=_pair_game(u_z, PAIR_ANSWERS),
        g_and=_pair_game(sx * sz, _TWO_ANSWERS),
        g_avg=_pair_game((sx + sz) / 2.0, _TWO_ANSWERS),
    )


def repeated_question_game(axis: str = "Z") -> Wqrg:
    """Both answers address the same axis; trivially winnable by repetition."""
    u = _axis_utility(axis)
    s1, s2 = _two_answer_table(u, u)
    return _pair_game((s1 + s2) / 2.0, _TWO_ANSWERS)


def mixed_question_value() -> float:
    """Expected best utility when the two questions posed for a pair agree
    with probability 1/2 and are complementary otherwise."""
    same = selective_value(repeated_question_game("Z")).value
    avg = selective_value(build_cv_pair_games().g_avg).value
    return 0.5 * same + 0.5 * avg
