"""Closed-form detection arithmetic: brute-force oracles over small instances,
algebraic identities, and the published worked examples."""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmdlimits.errors import DomainError, Infeasible
from bmdlimits.parallel import (
    BudgetedTestQuery,
    OracleBoundQuery,
    detection_prob_iid,
    epsilon_budget,
    margin_leverage,
    min_electorate_for_budget,
    min_tests_iid,
    oracle_min_samples,
    session_minutes,
)


class TestDetectionProbIid:
    def test_half_five(self):
        assert detection_prob_iid(0.5, 5) == pytest.approx(0.96875, abs=1e-15)

    def test_one_percent_fifty(self):
        assert detection_prob_iid(0.01, 50) == pytest.approx(0.39499, abs=5e-6)

    def test_edges(self):
        assert detection_prob_iid(0.0, 100) == 0.0
        assert detection_prob_iid(0.3, 0) == 0.0
        assert detection_prob_iid(1.0, 1) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            detection_prob_iid(1.2, 5)
        with pytest.raises(DomainError):
            detection_prob_iid(0.5, -1)

    @given(p=st.floats(min_value=1e-9, max_value=1.0), n=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200)
    def test_complement_identity(self, p, n):
        got = detection_prob_iid(p, n)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(-math.expm1(n * math.log1p(-p)) if p < 1 else (1.0 if n else 0.0), abs=1e-12)
        assert detection_prob_iid(p, n + 1) >= got


class TestMinTestsIid:
    def test_quarter(self):
        t = min_tests_iid(0.25, 0.95)
        assert t == 11
        assert detection_prob_iid(0.25, 11) == pytest.approx(0.957765, abs=5e-7)

    def test_one_percent(self):
        t = min_tests_iid(0.01, 0.95)
        assert t == 299
        assert detection_prob_iid(0.01, 299) == pytest.approx(0.9504637, abs=5e-8)
        # certificate that the commonly quoted 300 is not the strict minimum
        assert detection_prob_iid(0.01, 298) < 0.95

    def test_undetectable(self):
        with pytest.raises(Infeasible):
            min_tests_iid(0.0, 0.95)

    def test_tiny_p_rejected(self):
        # ~3e300 tests: beyond 2**53 the float guard cannot tell t from t - 1
        with pytest.raises(DomainError, match="2\\*\\*53"):
            min_tests_iid(1e-300, 0.95)
        with pytest.raises(DomainError):
            min_tests_iid(1e-17, 0.95)

    def test_largest_certifiable_count(self):
        t = min_tests_iid(1e-15, 0.95)
        assert 2**51 < t <= 2**53
        assert detection_prob_iid(1e-15, t) >= 0.95 > detection_prob_iid(1e-15, t - 1)

    @given(
        p=st.floats(min_value=1e-4, max_value=0.99),
        confidence=st.floats(min_value=0.01, max_value=0.999),
    )
    @settings(max_examples=200)
    def test_certificate(self, p, confidence):
        t = min_tests_iid(p, confidence)
        assert detection_prob_iid(p, t) >= confidence
        if t > 1:
            assert detection_prob_iid(p, t - 1) < confidence


def oracle_scan(population, flawed, confidence):
    """Exact-rational linear scan over all sample sizes."""
    alpha = Fraction(1) - Fraction(confidence).limit_denominator(10**6)
    miss = Fraction(1)
    for n in range(1, population + 1):
        miss *= Fraction(population - flawed - (n - 1), population - (n - 1))
        if miss <= alpha:
            return n
    return None


class TestOracleMinSamples:
    def test_published_case_exact(self):
        assert oracle_min_samples(OracleBoundQuery(2980, 15, 0.95)) == 539

    @pytest.mark.parametrize(
        "population,flawed,confidence",
        [(50, 3, 0.9), (101, 1, 0.51), (200, 10, 0.95), (173, 7, 0.99)],
    )
    def test_against_exact_scan(self, population, flawed, confidence):
        assert oracle_min_samples(
            OracleBoundQuery(population, flawed, confidence)
        ) == oracle_scan(population, flawed, confidence)

    def test_nothing_flawed(self):
        with pytest.raises(Infeasible):
            oracle_min_samples(OracleBoundQuery(100, 0, 0.95))

    def test_largest_population_never_overflows(self):
        from bmdlimits.kernels import log_no_replacement_miss_prob

        # above 64 factors the kernel works in floats: no int past 1e154 is squared
        largest = int(sys.float_info.max)
        for flawed, draws in [(65, 65), (65, 2**53), (65, largest // 2), (65, largest - 66),
                              (largest // 2, 65), (largest // 3, largest // 3),
                              (largest // 2, largest // 2 - 5), (10**305, 10**307)]:
            got = log_no_replacement_miss_prob(largest, flawed, draws)
            assert got == -math.inf or math.isfinite(got)
        # its answer, ~0.18 of the population, is past 2**53: not certifiable
        with pytest.raises(DomainError, match=r"2\*\*53"):
            oracle_min_samples(OracleBoundQuery(largest, 15, 0.95))

    def test_population_past_the_float_range(self):
        largest = int(sys.float_info.max)
        with pytest.raises(DomainError, match="population is too large to convert to a float"):
            OracleBoundQuery(largest + 1, 15, 0.95)

    @pytest.mark.parametrize("flawed", [1, 15, 64, 65, 100, 1000, 10**4])
    @pytest.mark.parametrize("population", [10**8, 3 * 10**8, 10**9, 10**12, 10**15])
    def test_certified_by_a_50_digit_product(self, population, flawed):
        # the lgamma difference once printed 54,310,871 at 3e8 and 15 flawed,
        # whose miss is 0.0500000290: too few printouts; and 16,777,216 at
        # 1e15 and 65 flawed, where 45,042,258,123,013 are needed
        n = oracle_min_samples(OracleBoundQuery(population, flawed, 0.95))
        with mpmath.workdps(50):
            alpha = 1 - mpmath.mpf(0.95)  # the float the solver reads

            def miss(n):
                # C(V - n, F) / C(V, F): F factors
                return mpmath.fprod(1 - mpmath.mpf(n) / (population - i) for i in range(flawed))

            assert miss(n) <= alpha < miss(n - 1)

    def test_past_2_53_printouts_at_1e18(self):
        with pytest.raises(DomainError, match=r"more than 2\*\*53 printouts needed"):
            oracle_min_samples(OracleBoundQuery(10**18, 65, 0.95))

    @given(
        population=st.integers(min_value=2, max_value=200),
        flawed=st.integers(min_value=1, max_value=20),
        confidence=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    @settings(max_examples=100)
    def test_certificate(self, population, flawed, confidence):
        flawed = min(flawed, population)
        q = OracleBoundQuery(population, flawed, confidence)
        n = oracle_min_samples(q)
        from bmdlimits.kernels import log_no_replacement_miss_prob

        assert math.exp(log_no_replacement_miss_prob(population, flawed, n)) <= 1 - confidence + 1e-12
        if n > 0:
            assert math.exp(log_no_replacement_miss_prob(population, flawed, n - 1)) > 1 - confidence - 1e-12


class TestElectorateBudget:
    def test_published_case(self):
        res = min_electorate_for_budget(BudgetedTestQuery(13, 140, 0.005, 0.95))
        assert res.bmds == 47
        assert res.voters == 6_580
        assert res.tests == 611
        assert res.altered == 33
        assert res.achieved_detection >= 0.95

    def test_minimality(self):
        res = min_electorate_for_budget(BudgetedTestQuery(13, 140, 0.005, 0.95))
        # every smaller machine count misses the confidence target
        for bmds in range(1, res.bmds):
            voters = bmds * 140
            tests = bmds * 13
            altered = math.floor(0.005 * voters + 0.5)
            if altered == 0:
                continue
            assert (1 - altered / voters) ** tests > 0.05

    @given(
        tests=st.integers(min_value=1, max_value=20),
        capacity=st.integers(min_value=20, max_value=1000),
        altered_fraction=st.floats(min_value=-2.0, max_value=math.log10(0.3)).map(lambda e: 10**e),
        confidence=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    @example(tests=2, capacity=1000, altered_fraction=0.05, confidence=0.99)  # 90 tests, 2,250 altered
    @settings(max_examples=50, deadline=None)
    def test_without_replacement_by_brute_force(self, tests, capacity, altered_fraction, confidence):
        # scan machine counts from 1 with the exact miss C(V - A, T) / C(V, T);
        # past 64 tests and altered voters the kernel is a Stirling difference
        q = BudgetedTestQuery(tests, capacity, altered_fraction, confidence)
        alpha = 1 - Fraction(confidence)
        for bmds in range(1, 1_000_000):
            voters, draws = bmds * capacity, bmds * tests
            altered = math.floor(altered_fraction * voters + 0.5)
            if altered and math.comb(voters - altered, draws) * alpha.denominator <= (
                alpha.numerator * math.comb(voters, draws)
            ):
                break
        res = min_electorate_for_budget(q, "without_replacement")
        assert (res.bmds, res.altered) == (bmds, altered)

    def test_without_replacement_differs(self):
        res = min_electorate_for_budget(
            BudgetedTestQuery(13, 140, 0.005, 0.95), sampling="without_replacement"
        )
        assert res.sampling == "without_replacement"
        assert res.bmds != 47  # convention changes the answer
        assert res.achieved_detection >= 0.95

    def test_domain(self):
        with pytest.raises(DomainError):
            BudgetedTestQuery(0, 140, 0.005, 0.95)
        with pytest.raises(DomainError):
            BudgetedTestQuery(150, 140, 0.005, 0.95)
        with pytest.raises(DomainError):
            BudgetedTestQuery(13, 140, 0.0, 0.95)


class TestMarginLeverage:
    def test_published_triplet(self):
        assert margin_leverage(0.01, 1.0, 0.3) == pytest.approx(0.0285714285, abs=1e-9)
        assert margin_leverage(0.01, 0.1, 0.0) == pytest.approx(0.20, abs=1e-12)
        assert margin_leverage(0.01, 0.1, 0.3) == pytest.approx(0.2857142857, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            margin_leverage(-0.01, 0.5, 0.0)
        with pytest.raises(DomainError):
            margin_leverage(0.01, 0.0, 0.0)
        with pytest.raises(DomainError):
            margin_leverage(0.01, 0.5, 1.0)

    @given(
        x=st.floats(min_value=0.0, max_value=0.5),
        share=st.floats(min_value=0.01, max_value=1.0),
        under=st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=100)
    def test_scaling(self, x, share, under):
        v = margin_leverage(x, share, under)
        assert v == pytest.approx(2 * x / (share * (1 - under)), rel=1e-12)


class TestEstimationErrorBudget:
    def test_beta_order(self):
        with pytest.raises(Infeasible):
            epsilon_budget(0.05, 0.05, 0.05, 10)


class TestSessionMinutes:
    def test_published_accounting(self):
        slow = session_minutes([5] * 5, 10.0)
        quick = session_minutes([11] * 5, 5.0)
        assert slow == 250.0
        assert quick == 275.0
        assert slow + quick == 525.0  # 8 h 45 min

    def test_domain(self):
        with pytest.raises(DomainError):
            session_minutes([5], -1.0)
