"""Noise-tolerant unforgeable token simulator and bound library."""

from .bounds import (BoundReport, InsecureParametersError, chernoff_tail,
                     cv_security_bound, cv_soundness_bound,
                     hoeffding_rejection, learning_bound,
                     multicopy_security_bound, multicopy_threshold,
                     relative_entropy, security_bound, soundness_bound,
                     threshold_game_bound)
from .channels import (QubitChannel, amplitude_damping, average_fidelity,
                       dephasing, depolarizing, depolarizing_for_fidelity,
                       identity_channel)
from .core import LABELS, Token, TokenConsumedError
from .attacks import (CV_ATTACKERS, PAIR_STRATEGIES, PairCloneStrategy,
                      PairOutcomeDist, pair_outcome_distribution,
                      sequential_attack_rate)
from .cv import (AnswerSheet, ChallengeQuestion, CvLayout, CvSecret, CvToken,
                 CvVerifier, ScoreCard, cv_issue, double_spend_experiment,
                 honest_answer, honest_protocol_experiment, run_holder,
                 score_answer)
from .games import Wqrg, build_cv_pair_games, selective_value
from .qticket import (QticketSecret, VerificationOutcome, degrade,
                      double_acceptance_exact, exact_honest_acceptance, issue,
                      redeem, verify)
from .rng import default_seed, root_rng
from .store import SecretStore, UnknownSerialError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
