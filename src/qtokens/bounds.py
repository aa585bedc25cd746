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
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .rational import as_fraction

#: Largest tolerated fidelity for which single-copy forgery bounds are vacuous.
SINGLE_COPY_THRESHOLD = Fraction(5, 6)

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
    delta is the mean of the given per-block values."""
    n = len(block_values)
    if n < 1:
        raise ValueError("need at least one block value")
    return 2.0 * chernoff_tail(n, gamma, float(np.mean(block_values)))


def _exp_neg(scale: int, rate: float) -> float:
    """e^{-scale * rate} with 0 * inf resolved to the vacuous value 1."""
    if scale == 0 or rate == 0.0:
        return 1.0
    if math.isinf(rate):
        return 0.0
    return math.exp(-scale * rate)


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
    params: Mapping[str, Any]

    @property
    def clamped(self) -> float:
        return min(max(self.raw, 0.0), 1.0)


def _require_secure(f_tol: Any, threshold: Fraction | float, what: str,
                    p_of: Callable[[Fraction], Fraction], q: Fraction | float) -> float:
    """Validate f_tol strictly above the vacuous-regime threshold.

    The error carries the exponent D(p_of(F_tol) || q), with p clamped into
    [0, 1] in exact rational arithmetic so it is exactly 0.0 at a rational
    threshold.
    """
    if isinstance(f_tol, (Fraction, int, str)):
        frac = as_fraction(f_tol)
        bad = frac <= threshold if isinstance(threshold, Fraction) else float(frac) <= threshold
        value = float(frac)
    else:
        value = float(f_tol)
        bad = value <= float(threshold)
    if bad:
        p = min(max(p_of(as_fraction(f_tol)), Fraction(0)), Fraction(1))
        raise InsecureParametersError(
            f"insecure-parameters: {what} requires F_tol > {float(threshold):.10g}, got {value:.10g}",
            relative_entropy(float(p), float(q)))
    return value


def soundness_bound(n_qubits: int, f_expected: float, f_tol: Any) -> BoundReport:
    """Lower bound 1 - e^{-N D(F_tol||F_exp)} on honest acceptance."""
    f_tol_f = float(as_fraction(f_tol)) if not isinstance(f_tol, float) else f_tol
    f_expected = float(f_expected)
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    if not f_tol_f < f_expected <= 1.0:
        raise ValueError(f"need F_tol < F_exp <= 1, got F_tol={f_tol_f}, F_exp={f_expected}")
    d = relative_entropy(f_tol_f, f_expected)
    raw = 1.0 - _exp_neg(n_qubits, d)
    return BoundReport(raw, d, n_qubits, 1.0,
                       {"kind": "soundness", "N": n_qubits, "f_exp": f_expected, "f_tol": f_tol_f})


def security_bound(n_qubits: int, f_tol: Any) -> BoundReport:
    """Upper bound e^{-N D(2 F_tol - 1 || 2/3)} on double acceptance of two
    counterfeits produced from a single token."""
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    f = _require_secure(f_tol, SINGLE_COPY_THRESHOLD, "single-copy security",
                        lambda x: 2 * x - 1, Fraction(2, 3))
    d = relative_entropy(2.0 * f - 1.0, 2.0 / 3.0)
    raw = _exp_neg(n_qubits, d)
    return BoundReport(raw, d, n_qubits, 1.0,
                       {"kind": "security", "N": n_qubits, "f_tol": f})


def learning_bound(n_qubits: int, f_tol: Any, v: int) -> BoundReport:
    """Union bound C(v,2) e^{-N D(2 F_tol - 1||2/3)} over v sequential
    verification attempts."""
    if v < 1:
        raise ValueError("v must be >= 1")
    base = security_bound(n_qubits, f_tol)
    pref = float(math.comb(v, 2))
    raw = pref * _exp_neg(n_qubits, base.exponent)
    return BoundReport(raw, base.exponent, n_qubits, pref,
                       {"kind": "learning", "N": n_qubits, "f_tol": base.params["f_tol"], "v": v})


def cv_soundness_bound(n_blocks: int, r: int, f_expected: float, f_tol: Any) -> BoundReport:
    """Lower bound (1 - e^{-r D(F_tol||F_exp)})^n on honest acceptance of an
    n-block, r-pairs-per-block classically-verified token."""
    f_tol_f = float(as_fraction(f_tol)) if not isinstance(f_tol, float) else f_tol
    f_expected = float(f_expected)
    if n_blocks < 0 or r < 0:
        raise ValueError("n_blocks and r must be non-negative")
    if not f_tol_f < f_expected <= 1.0:
        raise ValueError(f"need F_tol < F_exp <= 1, got F_tol={f_tol_f}, F_exp={f_expected}")
    d = relative_entropy(f_tol_f, f_expected)
    raw = (1.0 - _exp_neg(r, d)) ** n_blocks
    return BoundReport(raw, d, r, 1.0,
                       {"kind": "cv-soundness", "n": n_blocks, "r": r,
                        "f_exp": f_expected, "f_tol": f_tol_f})


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
    raw = pref * (0.5 + _exp_neg(r, d)) ** n_blocks
    return BoundReport(raw, d, r, pref,
                       {"kind": "cv-security", "n": n_blocks, "r": r, "f_tol": f, "v": v})


def hoeffding_rejection(n_qubits: int, f_tol: Any) -> BoundReport:
    """Upper bound (1/2) e^{-2 N (5/6 - F_tol)^2} on honest rejection when the
    verifier measures counterfeit copies at best-cloning marginal 5/6."""
    f = float(as_fraction(f_tol)) if not isinstance(f_tol, float) else f_tol
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    if f >= float(SINGLE_COPY_THRESHOLD):
        raise ValueError(f"hoeffding_rejection needs F_tol < 5/6, got {f}")
    gap = float(SINGLE_COPY_THRESHOLD) - f
    exponent = 2.0 * gap * gap
    raw = 0.5 * _exp_neg(n_qubits, exponent)
    return BoundReport(raw, exponent, n_qubits, 0.5,
                       {"kind": "hoeffding-rejection", "N": n_qubits, "f_tol": f})


def multicopy_threshold(c: int) -> Fraction:
    """Exact tolerated-fidelity threshold 1 - 1/((c+1)(c+2)) below which
    forging c+1 tokens out of c is not suppressed."""
    if c < 1:
        raise ValueError("c must be >= 1")
    return 1 - Fraction(1, (c + 1) * (c + 2))


def multicopy_security_bound(n_qubits: int, f_tol: Any, c: int) -> BoundReport:
    """Upper bound e^{-N D((c+1) F_tol - c || (c+1)/(c+2))} on all c+1
    counterfeits passing when c genuine copies were issued."""
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    thr = multicopy_threshold(c)
    f = _require_secure(f_tol, thr, f"{c}-copy security",
                        lambda x: (c + 1) * x - c, Fraction(c + 1, c + 2))
    d = relative_entropy((c + 1) * f - c, (c + 1) / (c + 2))
    raw = _exp_neg(n_qubits, d)
    return BoundReport(raw, d, n_qubits, 1.0,
                       {"kind": "multicopy-security", "N": n_qubits, "f_tol": f, "c": c})
