"""Minimum contest sizes for spoiled-ballot-rate monitoring.

Spoiled-ballot counts are modeled as Poisson with exactly known rate: mean
``N * base_rate`` when machines behave, increased by half the margin times the
detection rate when an outcome-changing attack is underway.

Two accounting conventions for the miss probability are provided:

* ``"published"`` (default) counts a miss only when the spoil count falls at
  least two below the alarm threshold, i.e. ``P{X <= k - 2}``, with the
  threshold floored at two spoils.  This carries an off-by-one relative to the
  threshold's false-positive calibration, but it reproduces the published
  contest-size tables entry for entry, so it is kept as the reference
  behavior.
* ``"strict"`` counts a miss whenever the alarm does not fire: ``P{X < k}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from scipy.special import gammainccinv

from .errors import DomainError, Infeasible
from .kernels import PoissonModel, poisson_sf, poisson_upper_quantile, smallest_int_where

Convention = Literal["published", "strict"]

# fewest spoils that may alarm: a one-spoil alarm would make the published
# miss event X <= k - 2 vacuous
_THRESHOLD_FLOOR = {"published": 2, "strict": 1}


@dataclass(frozen=True)
class PassiveDesign:
    """Inputs of one passive-testing design problem.

    margin        winner-minus-runner-up fraction of valid votes
    detect_rate   fraction of affected voters who notice and spoil (d)
    base_rate     benign per-voter spoil probability (b)
    fp_budget     max false-positive probability
    fn_budget     max false-negative probability
    """

    margin: float
    detect_rate: float
    base_rate: float
    fp_budget: float
    fn_budget: float

    def __post_init__(self) -> None:
        for name in ("margin", "detect_rate", "base_rate", "fp_budget", "fn_budget"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must be in (0, 1), got {v}")

    @property
    def attack_rate(self) -> float:
        """Extra per-voter spoil rate induced by an outcome-changing attack.

        The attacker alters votes on a margin/2 fraction of ballots (enough to
        reverse a ``margin`` lead) and a ``detect_rate`` fraction of those
        voters notice and spoil.
        """
        return self.margin / 2.0 * self.detect_rate


@dataclass(frozen=True)
class PassiveSolution:
    """Solved minimum contest size with its alarm threshold and certificates."""

    contest_size: int
    alarm_threshold: int
    achieved_fp: float
    achieved_fn: float
    convention: Convention


def passive_power(N: int, design: PassiveDesign, k: int) -> tuple[float, float]:
    """(false-positive, false-negative) probabilities at contest size N, threshold k.

    fp = P{Pois(N*b) >= k}; fn = P{Pois(N*(b + margin/2 * d)) < k}.
    """
    if k < 1:
        raise DomainError(f"alarm threshold must be >= 1, got {k}")
    if N < 1:
        raise DomainError(f"contest size must be >= 1, got {N}")
    benign = PoissonModel(N * design.base_rate)
    attacked = PoissonModel(N * (design.base_rate + design.attack_rate))
    return poisson_sf(benign, k), 1.0 - poisson_sf(attacked, k)


def alarm_threshold(N: int, design: PassiveDesign) -> int:
    """Smallest k whose benign false-positive rate meets the fp budget."""
    return poisson_upper_quantile(PoissonModel(N * design.base_rate), design.fp_budget)


def _threshold(N: int, design: PassiveDesign, convention: Convention) -> tuple[int, int]:
    """Alarm threshold k at contest size N, floored per convention, and its
    miss index j: the attack is missed when fewer than j spoils occur, so
    j = k - 1 under ``published`` (X <= k - 2) and j = k under ``strict``."""
    k = max(_THRESHOLD_FLOOR[convention], alarm_threshold(N, design))
    return k, k - 1 if convention == "published" else k


def _miss(N: int, design: PassiveDesign, j: int) -> float:
    """P{X < j} for the spoil count X of an attacked contest of size N."""
    return 1.0 - poisson_sf(PoissonModel(N * (design.base_rate + design.attack_rate)), j)


def _achieved(N: int, design: PassiveDesign, convention: Convention) -> tuple[int, float, float]:
    k, j = _threshold(N, design, convention)
    return k, poisson_sf(PoissonModel(N * design.base_rate), k), _miss(N, design, j)


def _smallest_fn_ok(design: PassiveDesign, j: int) -> int:
    """Smallest N whose miss probability below j spoils meets the fn budget.

    P{Pois(m) < j} is the regularized upper incomplete gamma function
    Q(j, m), so inverting it in m gives the answer up to rounding; a search
    seeded there certifies it (the miss probability falls with N).
    """

    def ok(N: int) -> bool:
        return _miss(N, design, j) <= design.fn_budget

    rate = design.base_rate + design.attack_rate
    seed = float(gammainccinv(j, design.fn_budget)) / rate
    # beyond 2**53 a float cannot tell N from N - 1, so no size there is certified
    if not seed <= 2**53:
        raise Infeasible(f"spoil rate {rate:g} per voter: more than 2**53 voters needed")
    return smallest_int_where(ok, guess=math.ceil(seed))


def min_contest_size(
    design: PassiveDesign, convention: Convention = "published"
) -> PassiveSolution:
    """Smallest contest size N admitting a threshold that meets both budgets.

    Feasibility in N is not monotone: every unit increase of the alarm
    threshold opens a pocket of infeasible sizes just above it.  The search
    is one exact climb over N.  Let k(N) be the alarm threshold at size N
    (the fp budget holds there by construction) and need(N) the smallest
    size meeting the fn budget at k(N) (``_smallest_fn_ok``):

    1. N is feasible iff N >= need(N), since the miss probability at a fixed
       threshold falls with N.
    2. need is nondecreasing, since k(N) is and so is the size needed at a
       higher threshold.
    3. Hence if N < need(N), every M in [N, need(N)) has M < need(N) <=
       need(M) and is infeasible: climbing N <- need(N) from N = 1 stops at
       the smallest feasible size.
    """
    if convention not in _THRESHOLD_FLOOR:
        raise DomainError(f"unknown convention {convention!r}")
    if design.attack_rate <= 0.0:
        raise Infeasible("attack is statistically invisible (margin * detect_rate = 0)")
    N = 1
    while True:
        k, j = _threshold(N, design, convention)
        if k > 10**7:
            raise Infeasible("no alarm threshold below 1e7 meets both budgets")
        need = _smallest_fn_ok(design, j)
        if need <= N:
            break
        N = need
    # certificates: N is feasible, N - 1 is not
    k, fp, fn = _achieved(N, design, convention)
    if not (fp <= design.fp_budget and fn <= design.fn_budget):  # pragma: no cover
        raise AssertionError("feasibility certificate failed")
    if N > 1:
        _, fp_below, fn_below = _achieved(N - 1, design, convention)
        if fp_below <= design.fp_budget and fn_below <= design.fn_budget:  # pragma: no cover
            raise AssertionError("minimality certificate failed")
    return PassiveSolution(N, k, fp, fn, convention)


def table_passive(
    fp_fn: float,
    margins: Sequence[float],
    detect_rates: Sequence[float],
    base_rates: Sequence[float],
    convention: Convention = "published",
) -> list[dict]:
    """Grid of minimum contest sizes, one row per (margin, detect rate).

    Row and column ordering matches the published tables: margins outermost,
    detection rates within each margin, base rates across the columns.
    """
    if not (margins and detect_rates and base_rates):
        raise DomainError("grids must be nonempty")
    rows = []
    for margin in margins:
        for d in detect_rates:
            row: dict = {"margin": margin, "detect_rate": d}
            for b in base_rates:
                design = PassiveDesign(margin, d, b, fp_fn, fp_fn)
                row[f"base_rate={b:g}"] = min_contest_size(design, convention).contest_size
            rows.append(row)
    return rows
