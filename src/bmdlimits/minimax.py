"""Minimax L1 lower bound on training-sample size for test-from-estimate designs.

The worst-case expected L1 error of any estimator of a discrete distribution
on S points from n IID draws is bounded below by a four-term expression
(Han-Jiao-Weissman); a one-sided (Cantelli) tail conversion turns a detection
budget into a threshold on that expectation.  The smallest n at which the
bound drops to the threshold is a necessary training-sample size.

Published values for this table are not reproducible from the stated formulas
alone (back-solving implies inflated effective failure budgets); the solver
reproduces the formulas faithfully, reports per-cell diffs, and promises
order-of-magnitude agreement plus exact monotonicity orderings, not equality.
"""

from __future__ import annotations

import math
import operator
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Union

from .errors import DomainError, Infeasible, validated
from .kernels import check_float_range, smallest_int_where
from .parallel import epsilon_budget

#: Distinct transactions S that the training-sample bounds assume by default,
#: the paper's support size.
DEFAULT_SUPPORT_SIZE = 6_140_000

#: Relative margin below the best score within which ``_first_argmax`` still
#: splits an interval.  Its interval bounds hold up to a few ulps of rounding,
#: and of ``exp`` or ``pow`` stepping against the grain; the margin covers
#: both, far inside it.
_PRUNE_MARGIN = 1e-12

#: exp(-e/8): the bound's first term at x = e/16, the top of its jump
_JUMP_TOP = math.exp(-math.e / 8.0)


def _log_grid(start: float, stop: float, size: int) -> Callable[[int], float]:
    """Point i of ``exp(np.linspace(start, stop, size))``, computed alone.

    ``np.linspace`` forms ``start + i * step`` and sets its last point to
    ``stop``, so this has its bits."""
    step = (stop - start) / (size - 1)
    last = size - 1
    return lambda i: math.exp(stop if i == last else start + i * step)


_ZETA_GRID = _log_grid(math.log(0.01), math.log(1.0), 1000)


@validated
class FixedZeta(NamedTuple):
    """Evaluate the bound at one slack value (default 1, the weakest bound,
    hence the most optimistic minimum sample size)."""

    value: float = 1.0
    size = 1

    def _check(self) -> None:
        if not 0.0 < self.value <= 1.0:
            raise DomainError(f"zeta must be in (0, 1], got {self.value}")

    def at(self, i: int) -> float:
        return self.value


class GridZeta(NamedTuple):
    """Maximize the bound over 1,000 log-spaced slack values in [0.01, 1]
    (strongest bound).  It has no fields, so it is falsy."""

    size = 1000

    def at(self, i: int) -> float:
        return _ZETA_GRID(i)

    def values(self) -> tuple[float, ...]:
        return tuple(map(_ZETA_GRID, range(self.size)))


ZetaStrategy = Union[FixedZeta, GridZeta]


@validated
class MinimaxQuery(NamedTuple):
    """Inputs of one training-sample lower-bound problem.

    r      fraction of transactions the attacker alters
    alpha  detection-failure budget (1 - confidence)
    T      test budget; None means unbounded
    S      support size of the transaction distribution
    beta   estimation-failure budget (< alpha); None resolves to the split
           of the failure budget that maximizes the detection threshold,
           i.e. the most favorable split the tester could choose
    """

    r: float
    alpha: float
    T: int | None = None
    S: int = DEFAULT_SUPPORT_SIZE
    beta: float | None = None
    zeta: ZetaStrategy = FixedZeta()

    def _check(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise DomainError(f"r must be in (0, 1), got {self.r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.S < 2:
            raise DomainError(f"S must be >= 2, got {self.S}")
        if self.T is not None and self.T < 1:
            raise DomainError(f"T must be >= 1 or None, got {self.T}")
        check_float_range(S=self.S, T=self.T)
        if self.beta is not None:
            if self.T is None:
                raise DomainError("beta only applies to finite test budgets")
            if not 0.0 < self.beta < self.alpha:
                raise DomainError("beta must satisfy 0 < beta < alpha")


class BoundReport(NamedTuple):
    """Solved minimum training-sample size with its certificate values."""

    min_training_n: int
    zeta_used: float
    threshold: float
    bound_at_n: float
    bound_below: float | None  # bound at n - 1; None when the bound is vacuous
    beta_used: float | None


def hjw_lower_bound(n: int, S: int, zeta: float) -> float:
    """Four-term lower bound on the worst-case expected L1 estimation error.

    (1/8) sqrt(eS / ((1+zeta) n))          if (1+zeta) n / S >  e/16
    exp(-2 (1+zeta) n / S)                 if (1+zeta) n / S <= e/16
    - exp(-zeta^2 n / 24)
    - 12 exp(-zeta^2 S / (32 (ln S)^2))

    May be negative (vacuous bound).
    """
    if not 0.0 < zeta <= 1.0:
        raise DomainError(f"zeta must be in (0, 1], got {zeta}")
    if n < 1 or S < 1:
        raise DomainError("n and S must be >= 1")
    first, decay = _hjw_terms(n, S, zeta)
    return first - decay - _support_penalty(S, zeta)


def _hjw_terms(n: int, S: int, zeta: float) -> tuple[float, float]:
    """(first, decay), the terms of ``hjw_lower_bound`` that depend on n: the
    bound is first - decay - ``_support_penalty(S, zeta)``.

    Along rising zeta the first term does not rise (both branches fall in
    x = (1+zeta) n / S, and the jump at x = e/16 falls from exp(-e/8) to 1/2),
    and neither do the decay and the penalty."""
    x = (1.0 + zeta) * n / S
    if x > math.e / 16.0:
        first = 0.125 * math.sqrt(math.e * S / ((1.0 + zeta) * n))
    else:
        first = math.exp(-2.0 * x)
    return first, math.exp(-zeta * zeta * n / 24.0)


def _support_penalty(S: int, zeta: float) -> float:
    """12 exp(-zeta^2 S / (32 (ln S)^2)), and 0 at S = 1."""
    log_s = math.log(S)
    return 0.0 if log_s == 0.0 else 12.0 * math.exp(-zeta * zeta * S / (32.0 * log_s * log_s))


def cantelli_lambda(beta: float) -> float:
    """One-sided tail conversion constant sqrt(beta / (1 - beta))."""
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"beta must be in [0, 1), got {beta}")
    return math.sqrt(beta / (1.0 - beta))


def _first_argmax(size: int, terms, bound) -> tuple[float, int]:
    """(score, index) of the first maximum score over ``range(size)``,
    scoring few of the points.

    ``terms(k) -> (score, a, b)``, where ``bound(a_i, b_j)`` is at least every
    score in [i, j]: ``a`` carries the part of the score that only falls along
    the grid and ``b`` the rest.  A best-first branch and bound splits the
    index interval with the highest bound at its midpoint, scores that point
    and stops once every bound is more than ``_PRUNE_MARGIN`` (relative) below
    the best score.  A point that ties the best is never pruned, so ties go to
    the first index.
    """
    falls, rest = [0.0] * size, [0.0] * size
    last = size - 1
    best, falls[0], rest[0] = terms(0)
    at = 0
    heap = []
    if last > 0:
        v, falls[last], rest[last] = terms(last)
        if v > best:
            best, at = v, last
        if last > 1:
            heap.append((-bound(falls[0], rest[last]), 0, last))
    floor = best - _PRUNE_MARGIN * max(1.0, abs(best))
    while heap:
        neg_bound, i, j = heappop(heap)
        if -neg_bound < floor:
            break
        k = (i + j) // 2
        v, falls[k], rest[k] = terms(k)
        if v > best or (v == best and k < at):
            best, at = v, k
            floor = best - _PRUNE_MARGIN * max(1.0, abs(best))
        if k - i > 1 and (up := bound(falls[i], rest[k])) >= floor:
            heappush(heap, (-up, i, k))
        if j - k > 1 and (up := bound(falls[k], rest[j])) >= floor:
            heappush(heap, (-up, k, j))
    return best, at


def _optimal_beta(alpha: float, r: float, T: int) -> float:
    """Failure-budget split beta maximizing the detection threshold.

    The threshold 2((alpha-beta)^(1/T) + r - 1) + sqrt(beta/(1-beta)) is flat
    in beta except extremely close to alpha, so a scan of 4,001 log-spaced
    gaps u = alpha - beta is accurate and deterministic.  Along rising u the
    first term does not fall and the second does not rise, so
    ``_first_argmax`` finds the first best gap from ~100 of them.
    """
    gap = _log_grid(math.log(alpha * 1e-12), math.log(alpha * (1.0 - 1e-9)), 4001)

    def terms(k: int) -> tuple[float, float, float]:
        beta = alpha - gap(k)
        lam, eps = cantelli_lambda(beta), epsilon_budget(alpha, beta, r, T)
        return eps + lam, lam, eps

    return alpha - gap(_first_argmax(4001, terms, operator.add)[1])


def detection_threshold(q: MinimaxQuery) -> tuple[float, float | None]:
    """(threshold, beta used; None for an unbounded budget).

    Unbounded budget:  2r + sqrt(alpha / (1 - alpha))
    Finite budget:     2((alpha - beta)^(1/T) + r - 1) + sqrt(beta / (1 - beta))
    """
    if q.T is None:
        return 2.0 * q.r + cantelli_lambda(q.alpha), None
    beta = q.beta if q.beta is not None else _optimal_beta(q.alpha, q.r, q.T)
    return epsilon_budget(q.alpha, beta, q.r, q.T) + cantelli_lambda(beta), beta


def _resolved_bound(q: MinimaxQuery, threshold: float):
    """``(bound, seed)``.  ``bound(n) -> (value, zeta)`` is the largest
    ``hjw_lower_bound`` over the slack strategy's values, first zeta on ties.

    ``_first_argmax`` finds it, scoring each point in ``hjw_lower_bound``'s
    own operation order.  Along the grid the first term does not rise and
    decay + penalty does not rise, so first_i - (decay_j + penalty_j) bounds
    the score on [i, j].  Each slack value and its penalty, which do not
    depend on n, are computed once per query.

    ``seed``, a float, is the smallest n at which the bound
    without its ``-exp(-zeta^2 n / 24)`` term falls to ``threshold`` at every
    slack value.  That term only lowers the bound, so the descending crossing
    lies at or just below the seed.
    """
    S, zeta = q.S, q.zeta
    slack: list[tuple[float, float] | None] = [None] * zeta.size

    def slack_at(k: int) -> tuple[float, float]:
        got = slack[k]
        if got is None:
            z = zeta.at(k)
            got = slack[k] = (z, _support_penalty(S, z))
        return got

    def bound(n: int) -> tuple[float, float]:
        def terms(k: int) -> tuple[float, float, float]:
            z, penalty = slack_at(k)
            first, decay = _hjw_terms(n, S, z)
            return first - decay - penalty, first, decay + penalty

        best, k = _first_argmax(zeta.size, terms, operator.sub)
        return best, zeta.at(k)

    # the smallest x = (1 + zeta) n / S at which the first term is at most
    # t = threshold + penalty: on the sqrt branch for t < 1/2, at its jump
    # x = e/16 for t below exp(-e/8), on the exp branch above (x = 0 once
    # t >= 1).  x does not fall in zeta (the penalty falls) and S / (1 + zeta)
    # falls, so the seed's maximum over zeta has the same split.
    def seed_terms(k: int) -> tuple[float, float, float]:
        z, penalty = slack_at(k)
        t = threshold + penalty
        if t < 0.5:
            x = math.e / 64.0 / t / t
        elif t < _JUMP_TOP:
            x = math.e / 16.0
        else:
            x = -0.5 * math.log(min(t, 1.0))
        return x * S / (1.0 + z), S / (1.0 + z), x

    # x = 0 at the last slack value makes every seed value 0 (the bound is
    # vacuous), which _first_argmax would confirm only by scoring each tie
    if seed_terms(zeta.size - 1)[2] == 0.0:
        return bound, 1
    n, _ = _first_argmax(zeta.size, seed_terms, operator.mul)
    return bound, n


def min_training_sample(q: MinimaxQuery) -> BoundReport:
    """Smallest n from which the resolved lower bound stays at or below the
    detection threshold.

    The bound rises from a vacuous small-n regime to a peak and then decays
    like n^(-1/2); the meaningful minimum sample size is the descending
    crossing, certified by ``bound(n) <= threshold < bound(n - 1)``.  The
    search gallops from the bound's closed-form inverse (``_resolved_bound``),
    a few units from the crossing.  A bound that never exceeds the threshold
    is vacuous: n = 1 with no bound below.  No n past 2**53 is certified: if
    the bound at 2**53 is still above the threshold, ``Infeasible``.
    """
    threshold, beta_used = detection_threshold(q)
    if threshold <= 0.0:
        raise Infeasible(
            "detection threshold is nonpositive: no training-sample size helps"
        )
    bound, seed = _resolved_bound(q, threshold)
    n = smallest_int_where(lambda n: bound(n)[0] <= threshold, guess=seed, what="training draws")
    b_at, z_at = bound(n)
    if n == 1:
        return BoundReport(1, z_at, threshold, b_at, None, beta_used)
    b_below, _ = bound(n - 1)
    if not b_at <= threshold < b_below:
        raise AssertionError("minimality certificate failed")
    return BoundReport(n, z_at, threshold, b_at, b_below, beta_used)


def table_lower_bounds(
    S: int = DEFAULT_SUPPORT_SIZE, zeta: ZetaStrategy = FixedZeta()
) -> list[dict]:
    """Training-sample lower bounds over the published 16-row grid layout
    (finite budgets first, then unbounded; higher confidence first), each
    with its published value and the ratio to it."""
    from .repro import PUBLISHED_TRAINING_BOUNDS_MILLIONS

    rows = []
    for (T, conf, r), published in PUBLISHED_TRAINING_BOUNDS_MILLIONS.items():
        row = bound_row(conf, MinimaxQuery(r=r, alpha=1.0 - conf, T=T, S=S, zeta=zeta))
        row["published_millions"] = published
        row["ratio_to_published"] = row["bound_millions"] / published
        rows.append(row)
    return rows


def bound_row(confidence: float, q: MinimaxQuery) -> dict:
    """One table row: the cell of ``q`` (whose ``alpha`` is ``1 - confidence``)
    and its solved minimum training-sample size."""
    report = min_training_sample(q)
    return {
        "confidence": confidence,
        "test_limit": q.T,
        "altered_fraction": q.r,
        "min_training_n": report.min_training_n,
        "bound_millions": report.min_training_n / 1e6,
        "threshold": report.threshold,
        "zeta": report.zeta_used,
        "beta": report.beta_used,
    }
