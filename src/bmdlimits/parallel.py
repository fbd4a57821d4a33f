"""Closed-form detection probabilities and test/electorate solvers for
logic-and-accuracy and parallel (live) testing."""

from __future__ import annotations

import math
import sys
from typing import Literal, NamedTuple, Sequence

from .errors import DomainError, Infeasible, validated
from .kernels import check_float_range, log_no_replacement_miss_prob, smallest_int_where

Sampling = Literal["with_replacement", "without_replacement"]


@validated
class OracleBoundQuery(NamedTuple):
    """How many printouts must an error oracle inspect to find a flaw?"""

    population: int  # cast BMD printouts (V)
    flawed: int  # printouts with errors (F)
    confidence: float  # required detection probability

    def _check(self) -> None:
        if self.population < 1:
            raise DomainError("population must be >= 1")
        check_float_range(population=self.population)
        if not 0 <= self.flawed <= self.population:
            raise DomainError("flawed must be in [0, population]")
        if not 0.0 < self.confidence < 1.0:
            raise DomainError("confidence must be in (0, 1)")


@validated
class BudgetedTestQuery(NamedTuple):
    """How large must an electorate be for a fixed per-machine test budget?"""

    tests_per_bmd_per_day: int
    bmd_daily_capacity: int  # transactions a machine can handle in a day
    altered_fraction: float  # fraction r of transactions the attacker alters
    confidence: float

    def _check(self) -> None:
        if self.tests_per_bmd_per_day < 1 or self.bmd_daily_capacity < 1:
            raise DomainError("test budget and capacity must be >= 1")
        if self.tests_per_bmd_per_day > self.bmd_daily_capacity:
            raise DomainError("tests per BMD cannot exceed daily capacity")
        check_float_range(bmd_daily_capacity=self.bmd_daily_capacity)  # tests <= capacity
        if not 0.0 < self.altered_fraction <= 1.0:
            raise DomainError("altered_fraction must be in (0, 1]")
        if not 0.0 < self.confidence < 1.0:
            raise DomainError("confidence must be in (0, 1)")


class ElectorateResult(NamedTuple):
    """Solved electorate size plus the sampling model that produced it."""

    bmds: int
    voters: int
    tests: int
    altered: int
    achieved_detection: float
    sampling: Sampling


def detection_prob_iid(p: float, n: int) -> float:
    """1 - (1 - p)^n, evaluated via log1p so small p stays accurate."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    check_float_range(n=n)
    if p == 0.0 or n == 0:
        return 0.0
    if p == 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p))


def min_tests_iid(p: float, confidence: float) -> int:
    """Smallest t with 1 - (1 - p)^t >= confidence (strict minimum).

    The narrative companion to this result rounds 299 up to 300; the solver
    returns the certificate-backed minimum.
    """
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")
    if p <= 0.0:
        raise Infeasible("an attack that touches no transactions cannot be detected")
    if not p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    return smallest_int_where(
        lambda t: detection_prob_iid(p, t) >= confidence,
        guess=math.log1p(-confidence) / math.log1p(-p),
        what="tests",
    )


def oracle_min_samples(q: OracleBoundQuery) -> int:
    """Smallest sample of printouts an error oracle needs for the target
    detection probability, sampling without replacement.  Every sample
    above population - flawed finds a flaw, so the search ends there or at
    2**53, past which ``smallest_int_where`` certifies no sample."""
    if q.flawed == 0:
        raise Infeasible("no flawed printouts: nothing is detectable")
    log_alpha = math.log1p(-q.confidence)

    def ok(n: int) -> bool:
        return log_no_replacement_miss_prob(q.population, q.flawed, n) <= log_alpha

    return smallest_int_where(ok, what="printouts")


def min_electorate_for_budget(
    q: BudgetedTestQuery, sampling: Sampling = "with_replacement"
) -> ElectorateResult:
    """Smallest machine count whose aggregate test budget reaches the target
    detection probability against an ``altered_fraction`` attack.

    Voters scale as machines times daily capacity and tests as machines times
    the per-machine budget; the altered count is ``altered_fraction`` times the
    voters rounded half up, which gives the published 47 machines and 6,580
    voters.  Detection feasibility is not monotone in the machine count (the
    altered count is re-rounded at each size), so the scan is linear; it stops
    below 10**6 machines.
    """
    if sampling == "with_replacement":

        def log_miss_at(v: int, f: int, n: int) -> float:
            # with every voter altered every test finds one
            return n * math.log1p(-f / v) if f < v else -math.inf

    elif sampling == "without_replacement":
        log_miss_at = log_no_replacement_miss_prob
    else:
        raise DomainError(f"unknown sampling convention {sampling!r}")
    log_alpha = math.log1p(-q.confidence)
    most = int(sys.float_info.max) // q.bmd_daily_capacity  # voters stay in the float range
    for bmds in range(1, min(most + 1, 1_000_000)):
        voters = bmds * q.bmd_daily_capacity
        tests = bmds * q.tests_per_bmd_per_day
        altered = math.floor(q.altered_fraction * voters + 0.5)  # half up
        if altered == 0:
            continue
        log_miss = log_miss_at(voters, altered, tests)
        if log_miss <= log_alpha:
            return ElectorateResult(
                bmds=bmds,
                voters=voters,
                tests=tests,
                altered=altered,
                achieved_detection=-math.expm1(log_miss),
                sampling=sampling,
            )
    if most < 999_999:  # the next electorate is past the float range
        check_float_range(voters=(most + 1) * q.bmd_daily_capacity)
    raise Infeasible(
        "no machine count below 1e6 reaches the target confidence;"
        " larger counts are not searched"
    )


def margin_leverage(
    altered_ballot_fraction: float, contest_ballot_share: float, undervote_rate: float
) -> float:
    """Maximum ordinary-margin shift from altering a fraction of all ballots.

    Each altered ballot moves the margin by two votes; the shift concentrates
    in the contest's share of ballots and is further amplified by undervotes:
    2x / (share * (1 - undervote_rate)).
    """
    if altered_ballot_fraction < 0:
        raise DomainError("altered_ballot_fraction must be >= 0")
    denom = contest_ballot_share * (1.0 - undervote_rate)
    if contest_ballot_share <= 0 or undervote_rate >= 1 or denom <= 0:
        raise DomainError("contest share times (1 - undervote rate) must be positive")
    return 2.0 * altered_ballot_fraction / denom


def epsilon_budget(alpha: float, beta: float, r: float, T: int) -> float:
    """Largest estimation error (L1) compatible with a T-test budget:
    2 * ((alpha - beta)^(1/T) + r - 1).

    May be negative: no estimation accuracy suffices at this budget.
    """
    if not beta < alpha:
        raise Infeasible("no test count works unless beta < alpha")
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must be in (0, 1), got {r}")
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    if beta < 0 or alpha >= 1:
        raise DomainError("need 0 <= beta < alpha < 1")
    return 2.0 * ((alpha - beta) ** (1.0 / T) + r - 1.0)


def session_minutes(test_counts: Sequence[int], minutes_per_test: float) -> float:
    """Total tester minutes for a set of test sessions.

    Clock-time narratives depend on per-test durations, which are inputs here,
    not built-in constants.
    """
    if minutes_per_test < 0:
        raise DomainError("minutes_per_test must be >= 0")
    return float(sum(test_counts)) * minutes_per_test
