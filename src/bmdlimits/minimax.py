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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, Union

from .errors import DomainError, Infeasible
from .parallel import epsilon_budget

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SUPPORT_SIZE = 6_140_000


@dataclass(frozen=True)
class FixedZeta:
    """Evaluate the bound at one slack value (default 1, the weakest bound,
    hence the most optimistic minimum sample size)."""

    value: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.value <= 1.0:
            raise DomainError(f"zeta must be in (0, 1], got {self.value}")


@dataclass(frozen=True)
class GridZeta:
    """Maximize the bound over a log-spaced slack grid (strongest bound)."""

    points: int = 1000
    low: float = 0.01
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.points < 1:
            raise DomainError("grid needs at least one point")
        if not 0.0 < self.low <= self.high <= 1.0:
            raise DomainError("grid must lie within (0, 1]")

    def values(self) -> np.ndarray:
        import numpy as np

        return np.exp(np.linspace(math.log(self.low), math.log(self.high), self.points))


ZetaStrategy = Union[FixedZeta, GridZeta]


@dataclass(frozen=True)
class MinimaxQuery:
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
    zeta: ZetaStrategy = field(default_factory=FixedZeta)

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise DomainError(f"r must be in (0, 1), got {self.r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.S < 2:
            raise DomainError(f"S must be >= 2, got {self.S}")
        if self.T is not None and self.T < 1:
            raise DomainError(f"T must be >= 1 or None, got {self.T}")
        if self.beta is not None:
            if self.T is None:
                raise DomainError("beta only applies to finite test budgets")
            if not 0.0 < self.beta < self.alpha:
                raise DomainError("beta must satisfy 0 < beta < alpha")


@dataclass(frozen=True)
class BoundReport:
    """Solved minimum training-sample size with its certificate values."""

    min_training_n: int
    zeta_used: float
    threshold: float
    bound_at_n: float
    bound_below: float | None  # bound at n - 1; None when the bound is vacuous
    threshold_formula: str
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
    x = (1.0 + zeta) * n / S
    if x > math.e / 16.0:
        first = 0.125 * math.sqrt(math.e * S / ((1.0 + zeta) * n))
    else:
        first = math.exp(-2.0 * x)
    log_s = math.log(S)
    support_penalty = 0.0 if log_s == 0.0 else 12.0 * math.exp(
        -zeta * zeta * S / (32.0 * log_s * log_s)
    )
    return first - math.exp(-zeta * zeta * n / 24.0) - support_penalty


def cantelli_lambda(beta: float) -> float:
    """One-sided tail conversion constant sqrt(beta / (1 - beta))."""
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"beta must be in [0, 1), got {beta}")
    return math.sqrt(beta / (1.0 - beta))


def _optimal_beta(alpha: float, r: float, T: int) -> float:
    """Failure-budget split beta maximizing the detection threshold.

    The threshold 2((alpha-beta)^(1/T) + r - 1) + sqrt(beta/(1-beta)) is flat
    in beta except extremely close to alpha, so a log-spaced scan of the gap
    u = alpha - beta is accurate and deterministic.
    """
    import numpy as np

    gaps = np.exp(np.linspace(math.log(alpha * 1e-12), math.log(alpha * (1.0 - 1e-9)), 4001))
    best_beta = alpha / 2.0
    best = -math.inf
    for u in gaps:
        beta = alpha - float(u)
        value = epsilon_budget(alpha, beta, r, T) + cantelli_lambda(beta)
        if value > best:
            best = value
            best_beta = beta
    return best_beta


def detection_threshold(q: MinimaxQuery) -> tuple[float, str, float | None]:
    """(threshold, formula description, beta used).

    Unbounded budget:  2r + sqrt(alpha / (1 - alpha))
    Finite budget:     2((alpha - beta)^(1/T) + r - 1) + sqrt(beta / (1 - beta))
    """
    if q.T is None:
        return (
            2.0 * q.r + cantelli_lambda(q.alpha),
            "2r + sqrt(alpha/(1-alpha))",
            None,
        )
    beta = q.beta if q.beta is not None else _optimal_beta(q.alpha, q.r, q.T)
    value = epsilon_budget(q.alpha, beta, q.r, q.T) + cantelli_lambda(beta)
    return value, "2((alpha-beta)^(1/T) + r - 1) + sqrt(beta/(1-beta))", beta


def _resolved_bound(q: MinimaxQuery):
    if isinstance(q.zeta, FixedZeta):
        z = q.zeta.value

        def bound(n: int) -> tuple[float, float]:
            return hjw_lower_bound(n, q.S, z), z

    else:
        import numpy as np

        zs = q.zeta.values()

        def bound(n: int) -> tuple[float, float]:
            vals = [hjw_lower_bound(n, q.S, float(z)) for z in zs]
            i = int(np.argmax(vals))
            return vals[i], float(zs[i])

    return bound


def min_training_sample(q: MinimaxQuery) -> BoundReport:
    """Smallest n from which the resolved lower bound stays at or below the
    detection threshold.

    The bound rises from a vacuous small-n regime to a peak and then decays
    like n^(-1/2); the meaningful minimum sample size is the descending
    crossing, certified by ``bound(n) <= threshold < bound(n - 1)``.
    """
    threshold, formula, beta_used = detection_threshold(q)
    if threshold <= 0.0:
        raise Infeasible(
            "detection threshold is nonpositive: no training-sample size helps"
        )
    bound = _resolved_bound(q)

    # initial guess from the dominant sqrt term at the weakest slack
    guess = max(16, int(math.e * q.S / (128.0 * threshold * threshold)))
    hi = guess
    while bound(hi)[0] > threshold:
        hi *= 2
    lo = hi // 2
    while lo >= 1 and bound(lo)[0] <= threshold:
        lo //= 2
    if lo < 1:
        # the bound never exceeds the threshold: vacuous at every n
        b, z = bound(1)
        return BoundReport(1, z, threshold, b, None, formula, beta_used)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid)[0] <= threshold:
            hi = mid
        else:
            lo = mid
    b_at, z_at = bound(hi)
    b_below, _ = bound(hi - 1)
    if not b_at <= threshold < b_below:
        raise AssertionError("minimality certificate failed")
    return BoundReport(hi, z_at, threshold, b_at, b_below, formula, beta_used)


def table_lower_bounds(
    confidences: Sequence[float] = (0.99, 0.95),
    test_limits: Sequence[int | None] = (2000, None),
    fractions: Sequence[float] = (0.005, 0.01, 0.03, 0.05),
    S: int = DEFAULT_SUPPORT_SIZE,
    zeta: ZetaStrategy | None = None,
) -> list[dict]:
    """Training-sample lower bounds over the published 16-row grid layout
    (finite budgets first, then unbounded; higher confidence first)."""
    rows = []
    for T in test_limits:
        for conf in confidences:
            for r in fractions:
                q = MinimaxQuery(
                    r=r, alpha=1.0 - conf, T=T, S=S, zeta=zeta or FixedZeta()
                )
                report = min_training_sample(q)
                rows.append(
                    {
                        "confidence": conf,
                        "test_limit": T,
                        "altered_fraction": r,
                        "min_training_n": report.min_training_n,
                        "bound_millions": report.min_training_n / 1e6,
                        "threshold": report.threshold,
                        "zeta": report.zeta_used,
                        "beta": report.beta_used,
                    }
                )
    return rows
