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
from typing import TYPE_CHECKING, Union

from .errors import DomainError, Infeasible
from .kernels import check_float_range, smallest_int_where
from .parallel import epsilon_budget
from .space import DEFAULT_SUPPORT_SIZE

if TYPE_CHECKING:
    import numpy as np

#: Largest training size the solver certifies: past it n and n - 1 can share
#: a float, so ``bound(n) <= threshold < bound(n - 1)`` says nothing about n.
_MAX_CERTIFIABLE_N = 2**53

#: Relative width of the window below an array's maximum within which every
#: point is rescored by the scalar formula.  numpy's ``exp`` and ``pow`` sit a
#: few ulps from ``math``'s, far inside it, so the scalar argmax is always
#: among the rescored points.
_RESCORE_WINDOW = 1e-12


@dataclass(frozen=True)
class FixedZeta:
    """Evaluate the bound at one slack value (default 1, the weakest bound,
    hence the most optimistic minimum sample size)."""

    value: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.value <= 1.0:
            raise DomainError(f"zeta must be in (0, 1], got {self.value}")

    def values(self) -> np.ndarray:
        import numpy as np

        return np.array([self.value], dtype=float)


@dataclass(frozen=True)
class GridZeta:
    """Maximize the bound over 1,000 log-spaced slack values in [0.01, 1]
    (strongest bound)."""

    def values(self) -> np.ndarray:
        import numpy as np

        return np.exp(np.linspace(math.log(0.01), math.log(1.0), 1000))


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
        check_float_range(S=self.S, T=self.T)
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


def _first_scalar_max(values: np.ndarray, score) -> tuple[float, int]:
    """(score, index) of the first index maximizing the scalar ``score(i)``.

    ``values`` is ``score`` evaluated over all indices as one array
    expression; only indices within ``_RESCORE_WINDOW`` of its maximum are
    rescored, in index order, so ties go to the first index as with
    ``np.argmax`` over the scalar scores.
    """
    top = float(values.max())
    best, at = -math.inf, -1
    for i in (values >= top - _RESCORE_WINDOW * max(1.0, abs(top))).nonzero()[0]:
        v = score(int(i))
        if v > best:
            best, at = v, int(i)
    return best, at


def _optimal_beta(alpha: float, r: float, T: int) -> float:
    """Failure-budget split beta maximizing the detection threshold.

    The threshold 2((alpha-beta)^(1/T) + r - 1) + sqrt(beta/(1-beta)) is flat
    in beta except extremely close to alpha, so a log-spaced scan of the gap
    u = alpha - beta is accurate and deterministic.
    """
    import numpy as np

    gaps = np.exp(np.linspace(math.log(alpha * 1e-12), math.log(alpha * (1.0 - 1e-9)), 4001))
    betas = alpha - gaps
    values = 2.0 * ((alpha - betas) ** (1.0 / T) + r - 1.0) + np.sqrt(betas / (1.0 - betas))

    def score(i: int) -> float:
        beta = float(betas[i])
        return epsilon_budget(alpha, beta, r, T) + cantelli_lambda(beta)

    return float(betas[_first_scalar_max(values, score)[1]])


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


def _resolved_bound(q: MinimaxQuery, threshold: float):
    """``(bound, seed)``.  ``bound(n) -> (value, zeta)`` is the largest
    ``hjw_lower_bound`` over the slack strategy's values, first zeta on ties.

    The bound is evaluated over all slack values as arrays, with the scalar
    formula's operation order; the near-maximal points are then rescored by
    ``hjw_lower_bound`` itself, so the answer is the scalar one.

    ``seed``, clamped to [1, 2**53], is the smallest n at which the bound
    without its ``-exp(-zeta^2 n / 24)`` term falls to ``threshold`` at every
    slack value.  That term only lowers the bound, so the descending crossing
    lies at or just below the seed.
    """
    import numpy as np

    S = q.S
    zs = q.zeta.values()
    neg_z2 = -zs * zs
    one_plus = 1.0 + zs
    log_s = math.log(S)  # > 0: a query has S >= 2
    penalty = 12.0 * np.exp(neg_z2 * S / (32.0 * log_s * log_s))

    def bound(n: int) -> tuple[float, float]:
        x = one_plus * n / S
        first = np.where(
            x > math.e / 16.0,
            0.125 * np.sqrt(math.e * S / (one_plus * n)),
            np.exp(-2.0 * x),
        )
        values = first - np.exp(neg_z2 * n / 24.0) - penalty
        best, i = _first_scalar_max(values, lambda i: hjw_lower_bound(n, S, float(zs[i])))
        return best, float(zs[i])

    # the smallest x = (1 + zeta) n / S at which the first term is at most t:
    # on the sqrt branch for t < 1/2, at its jump x = e/16 for t below
    # exp(-e/8), on the exp branch above (x = 0 once t >= 1)
    t = threshold + penalty
    with np.errstate(over="ignore", divide="ignore"):
        x = np.select(
            [t < 0.5, t < math.exp(-math.e / 8.0)],
            [math.e / (64.0 * t * t), math.e / 16.0],
            -0.5 * np.log(np.minimum(t, 1.0)),
        )
        n = float((x * S / one_plus).max())
    return bound, max(1, math.ceil(min(n, _MAX_CERTIFIABLE_N)))


def min_training_sample(q: MinimaxQuery) -> BoundReport:
    """Smallest n from which the resolved lower bound stays at or below the
    detection threshold.

    The bound rises from a vacuous small-n regime to a peak and then decays
    like n^(-1/2); the meaningful minimum sample size is the descending
    crossing, certified by ``bound(n) <= threshold < bound(n - 1)``.  The
    search gallops from the bound's closed-form inverse (``_resolved_bound``),
    a few units from the crossing.  A bound that never exceeds the threshold
    is vacuous: n = 1 with no bound below.  No n past 2**53 is certified: if
    the bound at 2**53 is still above the threshold, ``DomainError``.
    """
    threshold, formula, beta_used = detection_threshold(q)
    if threshold <= 0.0:
        raise Infeasible(
            "detection threshold is nonpositive: no training-sample size helps"
        )
    bound, seed = _resolved_bound(q, threshold)
    try:
        n = smallest_int_where(
            lambda n: bound(n)[0] <= threshold, guess=seed, hi_limit=_MAX_CERTIFIABLE_N
        )
    except DomainError:
        raise DomainError("no training size past 2**53 can be certified") from None
    b_at, z_at = bound(n)
    if n == 1:
        return BoundReport(1, z_at, threshold, b_at, None, formula, beta_used)
    b_below, _ = bound(n - 1)
    if not b_at <= threshold < b_below:
        raise AssertionError("minimality certificate failed")
    return BoundReport(n, z_at, threshold, b_at, b_below, formula, beta_used)


def table_lower_bounds(
    S: int = DEFAULT_SUPPORT_SIZE, zeta: ZetaStrategy | None = None
) -> list[dict]:
    """Training-sample lower bounds over the published 16-row grid layout
    (finite budgets first, then unbounded; higher confidence first)."""
    from .repro import PUBLISHED_TRAINING_BOUNDS_MILLIONS

    return [
        bound_row(conf, MinimaxQuery(r=r, alpha=1.0 - conf, T=T, S=S, zeta=zeta or FixedZeta()))
        for T, conf, r in PUBLISHED_TRAINING_BOUNDS_MILLIONS
    ]


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
