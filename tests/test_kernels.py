"""Oracle-backed tests for the log-space probability kernels.

High-precision oracles use mpmath at 50 digits; small hypergeometric cases
use exact rational arithmetic.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmdlimits.errors import DomainError
from bmdlimits.kernels import (
    TAIL_ABS_TOL,
    PoissonModel,
    log_no_replacement_miss_prob,
    no_replacement_miss_prob,
    poisson_sf,
    poisson_upper_quantile,
    smallest_int_where,
)

mpmath.mp.dps = 50


def poisson_sf_oracle(mean: float, k: int) -> float:
    """P{X >= k} summed in 50-digit arithmetic."""
    m = mpmath.mpf(mean)
    lower = mpmath.fsum(
        mpmath.e ** (-m) * m**i / mpmath.factorial(i) for i in range(k)
    )
    return float(1 - lower)


class TestPoissonSf:
    def test_degenerate_model(self):
        assert poisson_sf(PoissonModel(0.0), 1) == 0.0
        assert poisson_sf(PoissonModel(0.0), 0) == 1.0

    def test_tail_at_zero(self):
        assert poisson_sf(PoissonModel(3.7), 0) == 1.0
        assert poisson_sf(PoissonModel(3.7), -2) == 1.0

    def test_small_case_against_oracle(self):
        assert poisson_sf(PoissonModel(5.0), 10) == pytest.approx(
            poisson_sf_oracle(5.0, 10), abs=TAIL_ABS_TOL
        )

    @pytest.mark.parametrize(
        "mean,k",
        [
            (0.1, 1),
            (1.0, 3),
            (10.0, 5),
            (10.0, 25),
            (250.0, 277),
            (2257.055, 2336),
            (4000.0, 3800),
            (4000.0, 4400),
        ],
    )
    def test_against_oracle(self, mean, k):
        assert poisson_sf(PoissonModel(mean), k) == pytest.approx(
            poisson_sf_oracle(mean, k), abs=TAIL_ABS_TOL
        )

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            PoissonModel(-1.0)
        with pytest.raises(DomainError):
            PoissonModel(float("nan"))

    @given(
        mean=st.floats(min_value=0.01, max_value=5000.0),
        k=st.integers(min_value=0, max_value=6000),
    )
    @settings(max_examples=200)
    def test_in_unit_interval_and_monotone_in_k(self, mean, k):
        model = PoissonModel(mean)
        v = poisson_sf(model, k)
        assert 0.0 <= v <= 1.0
        assert poisson_sf(model, k + 1) <= v + TAIL_ABS_TOL

    @given(
        mean=st.floats(min_value=0.01, max_value=500.0),
        bump=st.floats(min_value=0.01, max_value=50.0),
        k=st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=200)
    def test_monotone_in_mean(self, mean, bump, k):
        lo = poisson_sf(PoissonModel(mean), k)
        hi = poisson_sf(PoissonModel(mean + bump), k)
        assert hi >= lo - TAIL_ABS_TOL


QUANTILE_MEANS = (
    st.floats(min_value=0.0, max_value=3e7)
    | st.floats(min_value=3e7, max_value=1e16)
    | st.integers(0, 16).map(lambda e: 10.0**e)
)
QUANTILE_ALPHAS = st.floats(min_value=1e-12, max_value=0.9) | st.integers(-12, -1).map(
    lambda e: 10.0**e
)


class TestPoissonQuantile:
    def test_degenerate_model(self):
        assert poisson_upper_quantile(PoissonModel(0.0), 0.05) == 1

    def test_scan_oracle(self):
        model = PoissonModel(10.0)
        expected = min(
            k for k in range(0, 51) if poisson_sf(model, k) <= 0.05
        )
        assert poisson_upper_quantile(model, 0.05) == expected

    @given(mean=QUANTILE_MEANS, alpha=QUANTILE_ALPHAS)
    @example(mean=1e10, alpha=1e-6)
    @example(mean=1e12, alpha=1e-6)
    @example(mean=1e15, alpha=0.5)
    @example(mean=1e16, alpha=1e-12)
    @settings(max_examples=200)
    def test_round_trip_certificate(self, mean, alpha):
        model = PoissonModel(mean)
        k = poisson_upper_quantile(model, alpha)
        assert poisson_sf(model, k) <= alpha
        if k > 0:
            assert poisson_sf(model, k - 1) > alpha

    @given(mean=QUANTILE_MEANS, alpha=QUANTILE_ALPHAS)
    @example(mean=1e10, alpha=1e-6)
    @example(mean=0.0, alpha=0.9)
    @example(mean=1e16, alpha=0.9)
    @settings(max_examples=200)
    def test_seed_does_not_change_answer(self, mean, alpha):
        model = PoissonModel(mean)
        unseeded = smallest_int_where(lambda k: poisson_sf(model, k) <= alpha)
        assert poisson_upper_quantile(model, alpha) == unseeded

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            poisson_upper_quantile(PoissonModel(1.0), 0.0)
        with pytest.raises(DomainError):
            poisson_upper_quantile(PoissonModel(1.0), 1.0)


def miss_prob_exact(population: int, flawed: int, draws: int) -> Fraction:
    p = Fraction(1)
    for i in range(draws):
        p *= Fraction(population - flawed - i, population - i)
    return p


class TestNoReplacementMiss:
    def test_nothing_to_find(self):
        assert no_replacement_miss_prob(100, 0, 30) == 1.0
        assert no_replacement_miss_prob(100, 5, 0) == 1.0

    def test_cannot_avoid(self):
        assert no_replacement_miss_prob(10, 2, 9) == 0.0
        assert log_no_replacement_miss_prob(10, 2, 9) == -math.inf

    def test_hand_case(self):
        # (8*7*6)/(10*9*8)
        assert no_replacement_miss_prob(10, 2, 3) == pytest.approx(56 / 120, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            no_replacement_miss_prob(0, 0, 0)
        with pytest.raises(DomainError):
            no_replacement_miss_prob(10, 11, 1)
        with pytest.raises(DomainError):
            no_replacement_miss_prob(10, 2, -1)

    @given(
        population=st.integers(min_value=1, max_value=30),
        flawed=st.integers(min_value=0, max_value=30),
        draws=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=300)
    def test_matches_exact_rationals(self, population, flawed, draws):
        flawed = min(flawed, population)
        draws = min(draws, population)
        got = no_replacement_miss_prob(population, flawed, draws)
        if draws > population - flawed:
            assert got == 0.0
        else:
            assert got == pytest.approx(float(miss_prob_exact(population, flawed, draws)), rel=1e-12)

    @given(
        population=st.integers(min_value=2, max_value=500),
        flawed=st.integers(min_value=1, max_value=20),
        draws=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=200)
    def test_monotone_in_draws_and_flawed(self, population, flawed, draws):
        flawed = min(flawed, population - 1)
        draws = min(draws, population - flawed - 1)
        base = no_replacement_miss_prob(population, flawed, draws)
        assert no_replacement_miss_prob(population, flawed, draws + 1) <= base
        assert no_replacement_miss_prob(population, flawed + 1, draws) <= base
        assert no_replacement_miss_prob(population + 1, flawed, draws) >= base

    def test_published_oracle_boundary(self):
        # exact rational arithmetic pins the 95% crossing between 538 and 539
        assert miss_prob_exact(2980, 15, 538) > Fraction(1, 20)
        assert miss_prob_exact(2980, 15, 539) <= Fraction(1, 20)
        assert no_replacement_miss_prob(2980, 15, 538) > 0.05
        assert no_replacement_miss_prob(2980, 15, 539) <= 0.05


class TestSmallestIntWhere:
    def test_simple_threshold(self):
        assert smallest_int_where(lambda n: n >= 37, guess=5) == 37
        assert smallest_int_where(lambda n: n >= 1) == 1

    def test_guess_above_answer(self):
        assert smallest_int_where(lambda n: n >= 37, guess=10_000) == 37

    def test_hi_limit(self):
        with pytest.raises(DomainError):
            smallest_int_where(lambda n: False, hi_limit=1000)

    @given(
        answer=st.integers(min_value=1, max_value=10**9),
        guess=st.integers(min_value=1, max_value=10**9),
        above=st.integers(min_value=0, max_value=10**9),
        below=st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=100)
    def test_exact_inverse(self, answer, guess, above, below):
        pred = lambda n: n >= answer  # noqa: E731
        assert smallest_int_where(pred, guess=guess) == answer
        assert smallest_int_where(pred, guess=guess, hi_limit=answer + above) == answer
        if answer > 1:
            with pytest.raises(DomainError):
                smallest_int_where(pred, guess=guess, hi_limit=max(1, answer - below))

    @pytest.mark.parametrize("answer", [1, 2, 3, 100, 777, 4097, 65_536, 10**6])
    def test_evaluations_grow_with_log_distance(self, answer):
        # every guess up to 3x a small answer; near powers of two off a large one
        if answer <= 1000:
            guesses = range(1, 3 * answer + 1)
        else:
            offsets = {s * (2**i + e) for i in range(22) for e in (-1, 0, 1) for s in (-1, 1)}
            guesses = sorted(g for g in (answer + o for o in offsets) if 1 <= g <= 3 * answer)
        for guess in guesses:
            calls = []

            def pred(n):
                calls.append(n)
                return n >= answer

            assert smallest_int_where(pred, guess=guess) == answer
            # ceil(log2(d + 1)) == d.bit_length(): 2 calls for an exact guess
            assert len(calls) <= 2 * abs(guess - answer).bit_length() + 2, guess
