"""Exact log-space probability primitives shared by all solvers.

Poisson tails are regularized incomplete gamma functions, evaluated by scipy's
``gammainc`` (the package's only scipy call) within 1e-12 absolute error at
means in the thousands, where naive products underflow.  Searches start from
closed-form normal guesses on ``statistics.NormalDist``.
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

    Satisfies ``poisson_sf(model, k - 1) > alpha`` whenever k > 0.  The search
    starts at the continuity-corrected Cornish-Fisher guess m + z sqrt(m) +
    (z**2 + 2) / 6, with m the mean and z the normal upper alpha point.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    from statistics import NormalDist

    m, z = model.mean, -NormalDist().inv_cdf(alpha)
    guess = math.ceil(m + z * math.sqrt(m) + (z * z + 2.0) / 6.0)
    return smallest_int_where(lambda k: poisson_sf(model, k) <= alpha, guess=guess)


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
    pred: Callable[[int], bool], guess: int = 1, hi_limit: int | None = None
) -> int:
    """Smallest integer n >= 1 with ``pred(n)`` true, for predicates that are
    monotone (false below the answer, true at and above it).

    Gallops from ``guess`` by doubling steps, down while ``pred`` holds and up
    while it fails, then bisects the bracket: an exact guess costs 2
    evaluations and a guess d off at most 2 * ceil(log2(d + 1)) + 2.
    """
    limit = math.inf if hi_limit is None else hi_limit
    hi = max(1, min(guess, limit))
    lo, step = hi, 1
    if pred(hi):
        # the answer is >= 1, so pred(0) counts as false
        while (lo := max(0, hi - step)) > 0 and pred(lo):
            hi, step = lo, step * 2
    else:
        while lo < limit and not pred(hi := min(lo + step, limit)):
            lo, step = hi, step * 2
        if lo >= limit:
            raise DomainError(f"no satisfying integer found below {hi_limit}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi
