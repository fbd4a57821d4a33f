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

The solver climbs from N toward need(N), the smallest size meeting the fn
budget at N's alarm threshold, mostly by jumps to lower bounds of need(N)
that two Poisson tails certify, one per closed-form guess; the sizes they
skip are infeasible, so it stops where N <- need(N) does (see
``min_contest_size``).
It starts at a certified size N0, below which no size is feasible
(``_certified_start``), a few alarm thresholds short of the answer:

1. The miss is a test's miss.  Under ``strict`` it is the miss of "alarm
   iff X >= k(N)", whose level is T0(N, k(N)) = P0{X >= k(N)} <= fp_budget.
   Under ``published`` P1{X <= k(N) - 2} is the miss of "alarm iff X >=
   k(N) - 1", whose level T0(N, k(N)) + p0(N, k(N) - 1) is at most
   fp_budget + TAIL_ABS_TOL plus the benign pmf at k(N) - 1.
2. The pmf over a segment [lo, hi) of sizes (``_segment_level``).  With
   x_lo a certified lower bound of k(lo) - 1 (one fp tail), and
   x_lo >= hi*b, p0(N, k(N) - 1) <= p0(hi*b, x_lo): above the mean the pmf
   falls in x, and below x it rises in the mean.  Otherwise the largest
   pmf at lo's mean bounds it, since the largest pmf of Pois(m) does not
   increase with m.  Both are Stirling bounds with an upward rounding
   margin (``_pmf_bound``); ``strict`` adds no pmf and spends no tails.
3. Weak duality: with a level bound alpha' for every N of the segment, any
   threshold c and lam the likelihood ratio P1/P0 at c - 1, every
   level-alpha' test misses with probability at least P1{X < c} +
   lam (T0(c) - alpha') (``_np_miss``), and at the best c this is the miss
   of the randomized most powerful test (Neyman-Pearson; Lehmann & Romano,
   *Testing Statistical Hypotheses*, ch. 3).  That best miss does not
   increase with N: the size-M experiment is a binomial thinning of the
   size-N one for M < N (Blackwell 1953).  So a bound at hi - 1 above the
   fn budget by its slack makes every size in [lo, hi) infeasible.
4. Chaining: segments are chained from the size below which P1{X < 1}
   alone exceeds the fn budget toward the normal guess, in O(log answer)
   bound evaluations, under either convention: only the level differs,
   fp_budget on every segment under ``strict`` (``_certified_start``).  The
   climb from N0 ends where the climb from 1 does.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple, Sequence

from .errors import DomainError, Infeasible, validated
from .kernels import (
    TAIL_ABS_TOL,
    poisson_quantile_guess,
    poisson_tail,
    poisson_upper_quantile,
    smallest_int_where,
    upper_normal_point,
)

Convention = Literal["published", "strict"]

# (floor, lag) per convention: the fewest spoils that may alarm (a one-spoil
# alarm would make the published miss event X <= k - 2 vacuous), and k - j,
# how far the miss index j lies below the alarm threshold k
_CONVENTIONS = {"published": (2, 1), "strict": (1, 0)}
# the climb stops once the alarm threshold passes this, to bound its work
_THRESHOLD_CAP = 10**7


@validated
class PassiveDesign(NamedTuple):
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

    def _check(self) -> None:
        for name in self._fields:
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must be in (0, 1), got {v}")
        # a miss is one minus a tail, so one smaller than the tail's error
        # cannot be told from 0 (fp tails keep their relative accuracy)
        if self.fn_budget < TAIL_ABS_TOL:
            raise DomainError(
                f"fn_budget must be at least {TAIL_ABS_TOL:g}, the Poisson tails' absolute"
                f" error, got {self.fn_budget}"
            )

    @property
    def attack_rate(self) -> float:
        """Extra per-voter spoil rate induced by an outcome-changing attack.

        The attacker alters votes on a margin/2 fraction of ballots (enough to
        reverse a ``margin`` lead) and a ``detect_rate`` fraction of those
        voters notice and spoil.
        """
        return self.margin / 2.0 * self.detect_rate


class PassiveSolution(NamedTuple):
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
    floor, lag = _CONVENTIONS[convention]
    k = max(floor, alarm_threshold(N, design))
    return k, k - lag


def _miss(N: int, design: PassiveDesign, j: int) -> float:
    """P{X < j} for the spoil count X of an attacked contest of size N."""
    return 1.0 - poisson_tail(N * (design.base_rate + design.attack_rate), j)


def _achieved(N: int, design: PassiveDesign, convention: Convention) -> tuple[int, float, float]:
    k, j = _threshold(N, design, convention)
    return k, poisson_tail(N * design.base_rate, k), _miss(N, design, j)


def _np_miss(N: int, design: PassiveDesign, level: float, c: int) -> tuple[float, float]:
    """A lower bound on the miss of every level-``level`` test at size N,
    and a bound on the error of its evaluation.

    With means m0 = N*b and m1 = N*(b + a) and the likelihood ratio
    lam = P1{X = c - 1} / P0{X = c - 1}, weak duality bounds the miss of
    every level-``level`` test from below by

        P1{X < c} - lam * (level - P0{X >= c})

    at any threshold c >= 1.  At the smallest c with P0{X >= c} <= level
    it is the miss of the randomized most powerful test (Neyman-Pearson),
    i.e. P1{X < c} - gamma * P1{X = c - 1} with gamma = (level - P0{X >= c})
    / P0{X = c - 1}; a c off by one errs low, never high.
    """
    m0 = N * design.base_rate
    m1 = N * (design.base_rate + design.attack_rate)
    gap = m1 - m0
    # log lam = (c - 1) log(m1/m0) - (m1 - m0): the factorials cancel
    log_ratio = (c - 1) * math.log1p(gap / m0) if c > 1 else 0.0
    lam = math.exp(min(log_ratio - gap, 700.0))
    fn = 1.0 - poisson_tail(m1, c) - lam * (level - poisson_tail(m0, c))
    # Each tail is off by at most TAIL_ABS_TOL: that is (1 + lam) of it here,
    # once more for the miss at any smaller size, and the rest covers
    # rounding.  A log lam off by e raises the bound by at most e, and the
    # computed log lam is off by less than 8 * 2**-53 * (log_ratio + gap).
    # Past e**700 the slack exceeds 1, so the clipped ratio certifies nothing.
    slack = 3.0 * TAIL_ABS_TOL * (1.0 + lam) + 8.0 * 2.0**-53 * (log_ratio + gap)
    return fn, slack


def _pmf_bound(mean: float, x: int) -> float:
    """An upper bound on P{Pois(mean) = x}, for mean > 0 and x >= 1.

    Stirling's x! >= sqrt(2 pi x) (x/e)**x bounds the pmf by
    exp(-x (r - 1 - log r)) / sqrt(2 pi x) with r = mean / x.  The computed
    exponent is off by less than 2**-50 * ``terms`` (within an ulp for each
    log and exp, half an ulp for the rest), so adding 2**-48 * ``terms``
    keeps the bound above the pmf.  It is at least e**-700, above the
    subnormals, where exp would lose its relative accuracy.
    """
    log_mean, log_x = math.log(mean), math.log(x)
    exponent = -x * ((mean / x - 1.0) - (log_mean - log_x)) - 0.5 * math.log(2.0 * math.pi * x)
    terms = mean + x * (2.0 + abs(log_mean) + 2.0 * log_x)
    return math.exp(min(0.0, max(-700.0, exponent + 2.0**-48 * terms)))


def _segment_level(design: PassiveDesign, lo: int, hi: int, x_lo: int) -> float:
    """A bound on T0(N, k(N) - 1), the level of the ``published`` test, at
    every N in [lo, hi): fp_budget + TAIL_ABS_TOL plus a bound on the pmf
    p0(N, k(N) - 1), given 0 <= x_lo <= k(lo) - 1 (step 2 of the module
    docstring); 1.0 where neither pmf bound applies."""
    b = design.base_rate
    top = hi * b  # no benign mean in [lo, hi) is above it
    if x_lo >= top:
        # above its mean the pmf falls in x, and below x it rises in the mean
        pmf = _pmf_bound(top, x_lo)
    elif lo * b >= 1.0:
        # the largest pmf, at floor(m), does not increase with the mean m
        pmf = _pmf_bound(lo * b, math.floor(lo * b))
    else:
        return 1.0
    return design.fp_budget + TAIL_ABS_TOL + pmf


def _segment_miss(design: PassiveDesign, M: int, level: float) -> tuple[float, float]:
    """``_np_miss`` at size M and a level, at the threshold's Cornish-Fisher
    guess for that level; (0, 0) at a level of 1 or more, which a test that
    always alarms meets without a miss."""
    if level >= 1.0:
        return 0.0, 0.0
    c = max(1, poisson_quantile_guess(M * design.base_rate, upper_normal_point(level)))
    return _np_miss(M, design, level, c)


def _certified_start(design: PassiveDesign, convention: Convention) -> int:
    """A size N0 below which no size is feasible, a few alarm thresholds
    short of the answer (module docstring): a chain of infeasible segments
    [lo, hi) from floor(-log(fn_budget + 2 TAIL_ABS_TOL) / (b + a)), below
    which P1{X < 1} = exp(-N (b + a)) alone exceeds the fn budget by more
    than the tail error, toward the normal guess ((z_fp sqrt(b) + z_fn
    sqrt(b + a)) / a)**2.

    The segment's level is the only convention switch: fp_budget under
    ``strict``, ``_segment_level`` under ``published``, whose x_lo costs one
    fp tail at lo (``_fp_fails``), spent only where its guess reaches the
    segment's top mean.
    The span doubles after two infeasible segments in a row and halves after
    one that is not.  The chain stops once the span is below one threshold
    period (1/b voters), or after four segments per halving of its first
    span, so its work is O(log answer).  No segment passes 2**53.
    """
    floor, lag = _CONVENTIONS[convention]
    b, a = design.base_rate, design.attack_rate
    fp, fn = design.fp_budget, design.fn_budget
    z_fp = upper_normal_point(design.fp_budget)
    root = (z_fp * math.sqrt(b) + upper_normal_point(design.fn_budget) * math.sqrt(b + a)) / a
    guess = root * root  # inf, not OverflowError, past the float range
    lo = -math.log(fn + 2.0 * TAIL_ABS_TOL) / (b + a)
    lo = max(1, math.floor(lo)) if lo < 2**53 else 2**53
    span = (math.floor(guess) if guess < 2**53 else 2**53) - lo
    x_lo = None  # a certified lower bound of k(lo) - 1, once a tail is spent on it
    grow = False
    for _ in range(4 * max(0, math.floor(span * b)).bit_length()):
        if span < 1.0 / b or lo >= 2**53:
            break
        hi = min(lo + span, 2**53)
        level = fp
        if lag:  # the test alarms at k(N) - 1: its level adds the pmf there
            g = max(floor, poisson_quantile_guess(lo * b, z_fp))
            if x_lo is None and g - 1 >= hi * b:
                x_lo = g - 1 if _fp_fails(lo * b, design, floor, g - 1) else 0
            level = _segment_level(design, lo, hi, x_lo or 0)
        miss, slack = _segment_miss(design, hi - 1, level)
        if miss > fn + slack:
            lo, span, grow, x_lo = hi, 2 * span if grow else span, True, None
        else:
            span, grow = span // 2, False
    return lo


def _smallest_fn_ok(design: PassiveDesign, j: int) -> int:
    """Smallest N whose miss probability below j spoils meets the fn budget.

    P{Pois(m) < j} = P{Gamma(j) > m} falls with N.  The search starts at
    ``_fn_guess`` and certifies the answer by exact tails.
    """
    rate = design.base_rate + design.attack_rate
    guess = _fn_guess(j, upper_normal_point(design.fn_budget), rate)  # as in _climb
    return smallest_int_where(
        lambda N: _miss(N, design, j) <= design.fn_budget, guess=guess, what="voters"
    )


def _fn_guess(j: int, z: float, rate: float) -> float:
    """The Wilson-Hilferty quantile j (1 - 1/(9j) + z/(3 sqrt(j)))**3 / rate,
    with z the normal upper fn_budget point and rate the attacked spoil rate."""
    return j * (1.0 - 1.0 / (9 * j) + z / (3.0 * math.sqrt(j))) ** 3 / rate


def _fp_fails(mean: float, design: PassiveDesign, floor: int, k: int) -> bool:
    """Whether the alarm threshold at benign mean ``mean`` exceeds k, by one
    tail: k is below the floor or the fp budget fails at k."""
    return k < floor or poisson_tail(mean, k) > design.fp_budget


def _climb(N: int, design: PassiveDesign, convention: Convention) -> int:
    """The climb of ``min_contest_size`` from N, below which no size is
    feasible, to the smallest feasible size.  The design's rates and normal
    points are computed once for all its steps."""
    floor, lag = _CONVENTIONS[convention]
    b, fn = design.base_rate, design.fn_budget
    rate = b + design.attack_rate
    z_fp, z_fn = upper_normal_point(design.fp_budget), upper_normal_point(design.fn_budget)
    while True:
        g = max(floor, poisson_quantile_guess(N * b, z_fp))
        if g <= _THRESHOLD_CAP and _fp_fails(N * b, design, floor, g - 1):
            j = g - lag  # k(N) >= g; need(N) >= c if the miss at j fails at c - 1
            h = _fn_guess(j, z_fn, rate)
            if N < h <= 2**53 and _miss((c := math.ceil(h)) - 1, design, j) > fn:
                N = c
                continue
        k, j = _threshold(N, design, convention)
        if k > _THRESHOLD_CAP:
            raise Infeasible(
                "no alarm threshold below 1e7 meets both budgets;"
                " larger thresholds are not searched"
            )
        if _miss(N, design, j) <= fn:
            return N
        N = _smallest_fn_ok(design, j)


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
       need(M) and is infeasible, and so is every M in [N, L) for any
       L <= need(N): climbing from N = 1 to any such L while N < need(N)
       stops at the smallest feasible size.

    Each step of ``_climb`` takes one of two rules.  A bounded step climbs
    to such an L, certified by one tail per guess, with g and c the exact
    searches' own guesses (c the ceiling of ``_fn_guess``): k(N) >= g if
    the fp budget fails at g - 1, and need(N) >= c if the fn budget fails at
    size c - 1 at g's miss index (need is no larger at a lower threshold).
    Where a bound fails or would not pass N, an exact step takes k(N) and
    stops if N meets the fn budget there (the feasibility certificate
    itself), else climbs to need(N).  Where no size up to 2**53 is
    feasible, which limit comes first (the 1e7 threshold cap or 2**53)
    depends on the path, so also on the start: a start the chain certifies
    short of 2**53 can climb into the cap first.  From one start, the
    bounded steps have not been seen to change it.

    The argument holds from any start below which no size is feasible.
    The climb starts at ``_certified_start``, a few thresholds short of the
    answer: every smaller size lies in a segment whose Neyman-Pearson miss
    bound, at a level that bounds the convention's test there, exceeds the
    fn budget (see the module docstring).  A start certified at 2**53 ends
    in the 2**53 error at the climb's first step.

    Tolerance: past about 6e14 voters (spoil rates below about 1e-11) the
    computed miss probability wobbles by an ulp between neighbouring sizes,
    so the minimum holds to within a few voters (2-6 seen): a climb
    from another start may stop elsewhere, and both pass the N / N - 1
    certificate.  The climb stops only where N passes its own feasibility
    certificate, so the wobble cannot stop it at a size that fails it.
    """
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}")
    if design.attack_rate <= 0.0:
        raise Infeasible("attack is statistically invisible (margin * detect_rate = 0)")
    N = _climb(_certified_start(design, convention), design, convention)
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
    labels: dict[str, float] = {}
    for b in base_rates:  # two rates under one label would drop an answer
        label = f"base_rate={b:g}"
        if label in labels and labels[label] != b:
            raise DomainError(f"base rates {labels[label]!r} and {b!r} share the column {label}")
        labels[label] = b
    rows = []
    for margin in margins:
        for d in detect_rates:
            row: dict = {"margin": margin, "detect_rate": d}
            for label, b in labels.items():
                design = PassiveDesign(margin, d, b, fp_fn, fp_fn)
                row[label] = min_contest_size(design, convention).contest_size
            rows.append(row)
    return rows
