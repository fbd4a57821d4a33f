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

The solver climbs N <- need(N) (see ``min_contest_size``).  Under ``strict``
it starts at a certified size N0 rather than at 1:

1. fn_rand(N), the miss of the randomized most powerful level-fp_budget test
   (Neyman-Pearson; Lehmann & Romano, *Testing Statistical Hypotheses*,
   ch. 3), bounds from below the miss of "alarm iff X >= k(N)", itself a
   level-fp_budget test.
2. fn_rand does not increase with N: the size-M experiment is a binomial
   thinning of the size-N one for M < N (Blackwell 1953).
3. So fn_rand(N0 - 1) > fn_budget makes N0 - 1 and every smaller size
   infeasible, and the climb from N0 ends where the climb from 1 does.

``published`` still climbs from 1: its miss event X <= k - 2 belongs to a
test whose false-alarm rate can exceed fp_budget, so step 1 does not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from .errors import DomainError, Infeasible
from .kernels import (
    TAIL_ABS_TOL,
    poisson_tail,
    poisson_upper_quantile,
    smallest_int_where,
    upper_normal_point,
)

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
    attacked = N * (design.base_rate + design.attack_rate)
    return poisson_tail(N * design.base_rate, k), 1.0 - poisson_tail(attacked, k)


def alarm_threshold(N: int, design: PassiveDesign) -> int:
    """Smallest k whose benign false-positive rate meets the fp budget."""
    return poisson_upper_quantile(N * design.base_rate, design.fp_budget)


def _threshold(N: int, design: PassiveDesign, convention: Convention) -> tuple[int, int]:
    """Alarm threshold k at contest size N, floored per convention, and its
    miss index j: the attack is missed when fewer than j spoils occur, so
    j = k - 1 under ``published`` (X <= k - 2) and j = k under ``strict``."""
    k = max(_THRESHOLD_FLOOR[convention], alarm_threshold(N, design))
    return k, k - 1 if convention == "published" else k


def _miss(N: int, design: PassiveDesign, j: int) -> float:
    """P{X < j} for the spoil count X of an attacked contest of size N."""
    return 1.0 - poisson_tail(N * (design.base_rate + design.attack_rate), j)


def _achieved(N: int, design: PassiveDesign, convention: Convention) -> tuple[int, float, float]:
    k, j = _threshold(N, design, convention)
    return k, poisson_tail(N * design.base_rate, k), _miss(N, design, j)


def _np_miss(N: int, design: PassiveDesign) -> tuple[float, float]:
    """Miss probability of the most powerful level-fp_budget test at size N,
    and a bound on the error of its evaluation.

    With k = k(N), c = k - 1, means m0 = N*b and m1 = N*(b + a), and the
    likelihood ratio lam = P1{X = c} / P0{X = c}, the randomized
    Neyman-Pearson test misses with probability

        fn_rand(N) = P1{X < k} - lam * (alpha - P0{X >= k}),

    i.e. P1{X < k} - gamma * P1{X = c} with gamma = (alpha - P0{X >= k}) /
    P0{X = c}.  By weak duality the right-hand side bounds the miss of every
    level-alpha test from below at any k, as long as lam is the ratio at
    k - 1; a computed k off by one therefore errs low, never high.
    """
    alpha = design.fp_budget
    m0 = N * design.base_rate
    m1 = N * (design.base_rate + design.attack_rate)
    k = poisson_upper_quantile(m0, alpha)
    fp = poisson_tail(m0, k)
    gap = m1 - m0
    # log lam = c log(m1/m0) - (m1 - m0): the factorials cancel
    log_ratio = (k - 1) * math.log1p(gap / m0) if k > 1 else 0.0
    lam = math.exp(min(log_ratio - gap, 700.0))
    fn = 1.0 - poisson_tail(m1, k) - lam * (alpha - fp)
    # Each tail is off by at most TAIL_ABS_TOL: that is (1 + lam) of it here,
    # once more for the strict miss at any smaller size, and the rest covers
    # rounding.  A log lam off by e raises the bound by at most e, and the
    # computed log lam is off by less than 8 * 2**-53 * (log_ratio + gap).
    # Past e**700 the slack exceeds 1, so the clipped ratio certifies nothing.
    slack = 3.0 * TAIL_ABS_TOL * (1.0 + lam) + 8.0 * 2.0**-53 * (log_ratio + gap)
    return fn, slack


def _smallest_size(ok: Callable[[int], bool], guess: float, rate: float) -> int:
    """Smallest N with ``ok(N)``, searched from ``guess``.  Beyond 2**53 a float
    cannot tell N from N - 1, so the search stops there and raises past it."""
    guess = math.ceil(max(guess, 1.0)) if guess <= 2**53 else 2**53  # also catches +-inf, nan
    try:
        return smallest_int_where(ok, guess=guess, hi_limit=2**53)
    except DomainError:  # no size up to 2**53 passes
        raise Infeasible(f"spoil rate {rate:g} per voter: more than 2**53 voters needed") from None


def _certified_start(design: PassiveDesign) -> int:
    """Smallest size N0 whose Neyman-Pearson miss could meet the fn budget.

    ``smallest_int_where`` returns an N0 whose predicate at N0 - 1 was
    computed false, so fn_rand(N0 - 1) exceeds the budget by more than the
    tail error: the strict miss there, and at every smaller size, fails it.
    The predicate need not be monotone for this to hold.  The search starts
    at the normal approximation ((z_a sqrt(b) + z_b sqrt(b + a)) / a)**2.
    """
    b, a = design.base_rate, design.attack_rate
    z_fp = upper_normal_point(design.fp_budget)
    z_fn = upper_normal_point(design.fn_budget)
    root = (z_fp * math.sqrt(b) + z_fn * math.sqrt(b + a)) / a

    def ok(N: int) -> bool:
        fn, slack = _np_miss(N, design)
        return fn <= design.fn_budget + slack

    return _smallest_size(ok, root * root, b + a)


def _smallest_fn_ok(design: PassiveDesign, j: int) -> int:
    """Smallest N whose miss probability below j spoils meets the fn budget.

    P{Pois(m) < j} = P{Gamma(j) > m} falls with N.  The search starts at the
    Wilson-Hilferty quantile j (1 - 1/(9j) + z/(3 sqrt(j)))**3 / rate, with z
    the normal upper fn_budget point, and certifies the answer by exact tails.
    """
    rate = design.base_rate + design.attack_rate
    z = upper_normal_point(design.fn_budget)
    guess = j * (1.0 - 1.0 / (9 * j) + z / (3.0 * math.sqrt(j))) ** 3 / rate
    return _smallest_size(lambda N: _miss(N, design, j) <= design.fn_budget, guess, rate)


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

    The argument holds from any start below which no size is feasible.
    Under ``strict`` the climb starts at ``_certified_start``, where the
    randomized Neyman-Pearson miss one size lower exceeds the fn budget (see
    the module docstring), a few steps short of the answer; under
    ``published`` no such bound is known, so it starts at N = 1.

    Tolerance: past about 6e14 voters (spoil rates below about 1e-11) the
    computed miss probability wobbles by an ulp between neighbouring sizes,
    so the minimum holds to within a few voters (2-6 seen): a climb
    from another start may stop elsewhere, and both pass the N / N - 1
    certificate.
    """
    if convention not in _THRESHOLD_FLOOR:
        raise DomainError(f"unknown convention {convention!r}")
    if design.attack_rate <= 0.0:
        raise Infeasible("attack is statistically invisible (margin * detect_rate = 0)")
    N = _certified_start(design) if convention == "strict" else 1
    while True:
        k, j = _threshold(N, design, convention)
        if k > 10**7:
            raise Infeasible(
                "no alarm threshold below 1e7 meets both budgets;"
                " larger thresholds are not searched"
            )
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
