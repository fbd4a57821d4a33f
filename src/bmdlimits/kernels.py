"""Exact log-space probability primitives shared by all solvers.

Poisson tails are regularized incomplete gamma functions, evaluated through
the log-gamma machinery inside scipy's ``gammainc``; they stay within 1e-12
absolute error at means in the thousands, where naive products underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError

#: Absolute tolerance documented for tail probabilities.
TAIL_ABS_TOL = 1e-12


@dataclass(frozen=True)
class PoissonModel:
    """Poisson count model with a known mean.

    mean = 0 is a legal degenerate model (point mass at zero counts).
    """

    mean: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean) or self.mean < 0:
            raise DomainError(f"Poisson mean must be finite and >= 0, got {self.mean}")


def gammainc(a, x):
    """``scipy.special.gammainc``, imported on the first Poisson tail.

    The first call rebinds this module's ``gammainc`` to scipy's ufunc, so
    importing the module does not import scipy and later calls pay no
    import statement.
    """
    global gammainc
    from scipy.special import gammainc

    return gammainc(a, x)


def poisson_sf(model: PoissonModel, k: int) -> float:
    """P{X >= k} for X ~ Poisson(model.mean).

    Equals the regularized lower incomplete gamma function P(k, mean);
    absolute error stays below ``TAIL_ABS_TOL``.
    """
    if k <= 0:
        return 1.0
    mean = model.mean
    if mean == 0.0:
        return 0.0
    return float(gammainc(k, mean))


def poisson_upper_quantile(model: PoissonModel, alpha: float) -> int:
    """Smallest integer k with ``poisson_sf(model, k) <= alpha``.

    Satisfies ``poisson_sf(model, k - 1) > alpha`` whenever k > 0.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if model.mean == 0.0:
        return 1  # sf(1) = 0 <= alpha, sf(0) = 1 > alpha
    # start near the mean, bracket exponentially, then bisect to minimality
    guess = max(1, int(model.mean))
    return smallest_int_where(lambda k: poisson_sf(model, k) <= alpha, lo=0, guess=guess)


def no_replacement_miss_prob(population: int, flawed: int, draws: int) -> float:
    """Probability a simple random sample of ``draws`` units misses every flawed one.

    Equals prod_{i=0}^{draws-1} (population - flawed - i) / (population - i),
    i.e. C(population - flawed, draws) / C(population, draws).
    """
    return math.exp(log_no_replacement_miss_prob(population, flawed, draws))


def log_no_replacement_miss_prob(population: int, flawed: int, draws: int) -> float:
    """Natural log of ``no_replacement_miss_prob`` (``-inf`` when it is zero)."""
    if population < 1:
        raise DomainError(f"population must be >= 1, got {population}")
    if flawed < 0 or flawed > population:
        raise DomainError(f"flawed must be in [0, population], got {flawed}")
    if draws < 0:
        raise DomainError(f"draws must be >= 0, got {draws}")
    if flawed == 0 or draws == 0:
        return 0.0
    if draws > population - flawed:
        return -math.inf  # the sample cannot avoid every flawed unit
    good = population - flawed
    return (
        math.lgamma(good + 1)
        - math.lgamma(good - draws + 1)
        - math.lgamma(population + 1)
        + math.lgamma(population - draws + 1)
    )


def smallest_int_where(
    pred: Callable[[int], bool], lo: int = 0, guess: int | None = None, hi_limit: int | None = None
) -> int:
    """Smallest integer n > lo with ``pred(n)`` true, for predicates that are
    eventually monotone (false below the answer, true at and above it).

    Brackets exponentially from ``guess`` (or lo + 1), then bisects.
    """
    hi = max(lo + 1, guess if guess is not None else lo + 1)
    if hi_limit is not None:
        hi = min(hi, hi_limit)
    while not pred(hi):
        if hi_limit is not None and hi >= hi_limit:
            raise DomainError(f"no satisfying integer found below {hi_limit}")
        hi = hi * 2 if hi > 0 else 1
        if hi_limit is not None:
            hi = min(hi, hi_limit)
    # shrink lo upward while the predicate is already true there
    floor = lo
    while hi - floor > 1:
        mid = (floor + hi) // 2
        if pred(mid):
            hi = mid
        else:
            floor = mid
    return hi
