"""Arithmetic behind the reported numbers: percentiles and tail checks.

Kept free of qtokens imports so the self-tests can exercise it alone.
"""
from __future__ import annotations

import math
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it; with fewer, one stray sample would decide the value.
MIN_BEYOND_TAIL = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-quantile of ``samples``.

    Returns None when fewer than MIN_BEYOND_TAIL samples lie strictly
    beyond the chosen rank, i.e. when the tail is too thin to report.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = math.ceil(q * n)             # 1-based nearest rank
    if n - rank < MIN_BEYOND_TAIL:
        return None
    return float(sorted(samples)[rank - 1])


def kl_bernoulli(a: float, p: float) -> float:
    """D(a || p) for Bernoulli laws, in nats; inf when a is impossible."""
    def term(x: float, y: float) -> float:
        if x == 0.0:
            return 0.0
        if y == 0.0:
            return math.inf
        return x * math.log(x / y)
    return term(a, p) + term(1.0 - a, 1.0 - p)


def binomial_consistent(hits: int, trials: int, p: float,
                        alpha: float = 1e-9) -> bool:
    """False when ``hits`` successes in ``trials`` are implausible under
    success probability ``p``: the Chernoff bound on the observed side's
    tail, exp(-trials * D(hits/trials || p)), falls below ``alpha``.

    The Chernoff bound dominates the true tail, so a correct sampler is
    flagged with probability at most ``alpha``, also at small counts where
    a normal approximation would misfire.
    """
    if trials < 1 or not 0 <= hits <= trials:
        raise ValueError(f"bad counts: {hits}/{trials}")
    p = min(1.0, max(0.0, p))
    return trials * kl_bernoulli(hits / trials, p) <= -math.log(alpha)


def binomial_sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)
