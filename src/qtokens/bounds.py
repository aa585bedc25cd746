"""Closed-form acceptance and forgery bounds.

Every protocol-level bound returns a :class:`BoundReport` carrying the raw
formula value (which may exceed 1) together with a separately clamped
probability; nothing is clamped silently.  The building block throughout is
the binary relative entropy D(p||q) in nats.

Orientation convention: tail exponents are always D(threshold || true
parameter), e.g. D(F_tol || F_exp) for the honest-acceptance lower bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Callable, Sequence

import numpy as np

from .rational import as_fraction

#: Per-position ceiling q_c on "all c + 1 outputs pass" over every map from
#: c copies of a uniformly drawn six-state label to c + 1 registers.  Each
#: entry is certified (an eigenvalue bound that a cloning map reaches); at
#: c = 3 a map beats the Haar-random 19/20, so other counts are refused.
CLONING_CEILING = MappingProxyType({1: Fraction(2, 3), 2: Fraction(3, 4)})


def multicopy_threshold(c: int) -> Fraction:
    """Exact tolerated-fidelity threshold (c + q_c)/(c + 1) below which
    forging c+1 tokens out of c is not suppressed; q_c is the cloning
    ceiling.  Raises ValueError for a c without a certified ceiling."""
    if c not in CLONING_CEILING:
        raise ValueError(f"no certified cloning ceiling for c={c!r}; "
                         f"supported copy counts: {sorted(CLONING_CEILING)}")
    return (c + CLONING_CEILING[c]) / (c + 1)


#: Largest tolerated fidelity for which single-copy forgery bounds are vacuous.
SINGLE_COPY_THRESHOLD = multicopy_threshold(1)

#: Per-position ceiling of the simultaneous-answer strategy for the paired
#: two-axis tokens; equals cos^2(pi/8).
CV_THRESHOLD = (1.0 + 2.0 ** -0.5) / 2.0


class InsecureParametersError(ValueError):
    """Raised when a tolerated fidelity sits at or below the regime where the
    corresponding forgery bound is vacuous ("insecure-parameters").

    ``exponent`` is the bound formula's decay rate at the rejected F_tol.
    """

    def __init__(self, message: str, exponent: float):
        super().__init__(message)
        self.exponent = exponent


def relative_entropy(p: float, q: float) -> float:
    """Binary relative entropy D(p||q) = p ln(p/q) + (1-p) ln((1-p)/(1-q)).

    Conventions: 0 * ln(0/x) = 0; returns +inf when q in {0, 1} pins an
    event that p does not.
    """
    p, q = float(p), float(q)
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(f"arguments must lie in [0, 1], got p={p}, q={q}")
    if q == 0.0:
        return 0.0 if p == 0.0 else math.inf
    if q == 1.0:
        return 0.0 if p == 1.0 else math.inf
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return max(total, 0.0)


def chernoff_tail(n: int, gamma: float, delta: float) -> float:
    """Upper tail bound e^{-n D(gamma||delta)} for P[Bin(n, delta) >= gamma n].

    Requires delta <= gamma <= 1.  The lower-tail twin for gamma < delta is
    obtained by complementing both arguments.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= delta <= gamma <= 1.0:
        raise ValueError(f"need 0 <= delta <= gamma <= 1, got gamma={gamma}, delta={delta}")
    return math.exp(-n * relative_entropy(gamma, delta))


def threshold_game_bound(block_values: Sequence[float], gamma: float) -> float:
    """Bound 2 e^{-n D(gamma||delta)} on the selective value of the game that
    pays out when at least a gamma fraction of n blocks are answered well;
    delta is the mean of the given per-block values, clamped into their
    range since a float mean of equal values can round ulps past them."""
    n = len(block_values)
    if n < 1:
        raise ValueError("need at least one block value")
    delta = float(np.clip(np.mean(block_values), min(block_values), max(block_values)))
    return 2.0 * chernoff_tail(n, gamma, delta)


def _exp_neg(scale: int, rate: float) -> float:
    """e^{-scale * rate} with 0 * inf resolved to the vacuous value 1."""
    if scale == 0 or rate == 0.0:
        return 1.0
    if math.isinf(rate):
        return 0.0
    return math.exp(-scale * rate)


def _power(base: float, n: int) -> float:
    """base ** n, with float overflow resolved to the vacuous value +inf."""
    try:
        return base ** n
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundReport:
    """Raw formula value plus a clamped-to-[0,1] probability.

    ``raw`` follows the generating formula exactly and may exceed 1;
    ``exponent`` is the per-unit decay rate paired with ``scale`` (number of
    positions N, or positions per block r), and ``prefactor`` the
    multiplicative constant.
    """

    raw: float
    exponent: float
    scale: int
    prefactor: float

    @property
    def clamped(self) -> float:
        return min(max(self.raw, 0.0), 1.0)


def _is_exact(f_tol: Any) -> bool:
    return isinstance(f_tol, (Fraction, int, str))


def _as_float(f_tol: Any) -> float:
    """F_tol as a float: exact rationals through Fraction, anything else
    through float()."""
    return float(as_fraction(f_tol)) if _is_exact(f_tol) else float(f_tol)


def _require_secure(f_tol: Any, threshold: Fraction | float, what: str,
                    p_of: Callable[[Fraction], Fraction], q: Fraction | float) -> float:
    """Validate f_tol strictly above the vacuous-regime threshold, comparing
    exactly when both are rationals.

    The error carries the exponent D(p_of(F_tol) || q), with p clamped into
    [0, 1] in exact rational arithmetic so it is exactly 0.0 at a rational
    threshold.
    """
    value = _as_float(f_tol)
    if _is_exact(f_tol) and isinstance(threshold, Fraction):
        bad = as_fraction(f_tol) <= threshold
    else:
        bad = value <= float(threshold)
    if bad:
        p = min(max(p_of(as_fraction(f_tol)), Fraction(0)), Fraction(1))
        raise InsecureParametersError(
            f"insecure-parameters: {what} requires F_tol > {float(threshold):.10g}, got {value:.10g}",
            relative_entropy(float(p), float(q)))
    return value


def cv_soundness_bound(n_blocks: int, r: int, f_expected: float, f_tol: Any) -> BoundReport:
    """Lower bound (1 - e^{-r D(F_tol||F_exp)})^n on honest acceptance of an
    n-block, r-pairs-per-block classically-verified token."""
    f_tol_f = _as_float(f_tol)
    f_expected = float(f_expected)
    if n_blocks < 0 or r < 0:
        raise ValueError("n_blocks and r must be non-negative")
    if not f_tol_f < f_expected <= 1.0:
        raise ValueError(f"need F_tol < F_exp <= 1, got F_tol={f_tol_f}, F_exp={f_expected}")
    d = relative_entropy(f_tol_f, f_expected)
    return BoundReport((1.0 - _exp_neg(r, d)) ** n_blocks, d, r, 1.0)


def soundness_bound(n_qubits: int, f_expected: float, f_tol: Any) -> BoundReport:
    """Lower bound 1 - e^{-N D(F_tol||F_exp)} on honest acceptance: one
    block of N positions."""
    return cv_soundness_bound(1, n_qubits, f_expected, f_tol)


def multicopy_security_bound(n_qubits: int, f_tol: Any, c: int) -> BoundReport:
    """Upper bound e^{-N D((c+1) F_tol - c || q_c)} on all c+1 counterfeits
    passing when c genuine copies were issued; q_c is the cloning ceiling.
    Raises ValueError for a c without a certified ceiling."""
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    f = _require_secure(f_tol, multicopy_threshold(c), f"{c}-copy security",
                        lambda x: (c + 1) * x - c, CLONING_CEILING[c])
    d = relative_entropy((c + 1) * f - c, float(CLONING_CEILING[c]))
    return BoundReport(_exp_neg(n_qubits, d), d, n_qubits, 1.0)


def security_bound(n_qubits: int, f_tol: Any) -> BoundReport:
    """Upper bound e^{-N D(2 F_tol - 1 || 2/3)} on double acceptance of two
    counterfeits produced from a single token."""
    return multicopy_security_bound(n_qubits, f_tol, 1)


def learning_bound(n_qubits: int, f_tol: Any, v: int) -> BoundReport:
    """Union bound C(v,2) e^{-N D(2 F_tol - 1||2/3)} over v sequential
    verification attempts."""
    if v < 1:
        raise ValueError("v must be >= 1")
    base = security_bound(n_qubits, f_tol)
    pref = float(math.comb(v, 2))
    return BoundReport(pref * base.raw, base.exponent, n_qubits, pref)


def cv_security_bound(n_blocks: int, r: int, f_tol: Any, v: int) -> BoundReport:
    """Upper bound C(v,2)^2 (1/2 + e^{-r D(F_tol||cos^2(pi/8))})^n on double
    acceptance across v challenge-response attempts."""
    if n_blocks < 0 or r < 0:
        raise ValueError("n_blocks and r must be non-negative")
    if v < 1:
        raise ValueError("v must be >= 1")
    f = _require_secure(f_tol, CV_THRESHOLD, "paired-token security",
                        lambda x: x, CV_THRESHOLD)
    d = relative_entropy(f, CV_THRESHOLD)
    pref = float(math.comb(v, 2)) ** 2
    return BoundReport(pref * _power(0.5 + _exp_neg(r, d), n_blocks), d, r, pref)


def cv_complementary_bound(n_blocks: int, r: int, f_tol: Any) -> BoundReport:
    """Upper bound (2 e^{-r D(F_tol||cos^2(pi/8))})^n on double acceptance
    when the second verifier asks every block the axis the first did not.

    The two questions score each pair's Z and X member once, so a block is
    the threshold game over r copies of the balanced average pair game
    (value cos^2(pi/8)): :func:`threshold_game_bound` at r equal values,
    without its mean, which can round a few ulps above them.
    ``prefactor`` is the per-block 2.
    """
    if n_blocks < 0 or r < 1:
        raise ValueError("need n_blocks >= 0 and r >= 1")
    f = _require_secure(f_tol, CV_THRESHOLD, "complementary paired-token security",
                        lambda x: x, CV_THRESHOLD)
    d = relative_entropy(f, CV_THRESHOLD)
    return BoundReport(_power(2.0 * _exp_neg(r, d), n_blocks), d, r, 2.0)


def hoeffding_rejection(n_qubits: int, f_tol: Any) -> BoundReport:
    """Upper bound (1/2) e^{-2 N (5/6 - F_tol)^2} on honest rejection when the
    verifier measures counterfeit copies at best-cloning marginal 5/6."""
    f = _as_float(f_tol)
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    if f >= float(SINGLE_COPY_THRESHOLD):
        raise ValueError(f"hoeffding_rejection needs F_tol < 5/6, got {f}")
    gap = float(SINGLE_COPY_THRESHOLD) - f
    exponent = 2.0 * gap * gap
    return BoundReport(0.5 * _exp_neg(n_qubits, exponent), exponent, n_qubits, 0.5)
