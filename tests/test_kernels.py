"""Oracle-backed tests for the log-space probability kernels.

High-precision oracles use mpmath at 50 digits; small hypergeometric cases
use exact rational arithmetic.
"""

import math
import pathlib
import re
import subprocess
import sys
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
    poisson_sf,
    poisson_tail,
    poisson_upper_quantile,
    smallest_int_where,
)

mpmath.mp.dps = 50

ROOT = pathlib.Path(__file__).parent.parent


def tail_oracle(mean: float, k: int) -> mpmath.mpf:
    """P{X >= k} for X ~ Poisson(mean) at 50 digits: the pmf summed outward
    from k, away from the mode, until a term falls below 1e-40 of the sum.
    That is the tail itself when mean < k, else one minus the mass below k.
    Past k = 1e7, where the sum has thousands of sqrt(k) terms, the same sum
    is taken by Euler-Maclaurin (``_euler_maclaurin_sum``)."""
    if k <= 0:
        return mpmath.mpf(1)
    m = mpmath.mpf(mean)
    if m == 0:
        return mpmath.mpf(0)
    pmf_k = mpmath.exp(k * mpmath.log(m) - m - mpmath.loggamma(k + 1))
    up = m < k
    if k > 10**7:
        rest = pmf_k * _euler_maclaurin_sum(m, k, 1 if up else -1)
        return rest if up else 1 - rest
    eps = mpmath.mpf(10) ** -40
    if up:
        term = total = pmf_k
        i = k
        while term >= eps * total:
            i += 1
            term = term * m / i
            total += term
        return total
    term = total = pmf_k * k / m
    for i in range(k - 1, 0, -1):
        term = term * i / m
        total += term
        if term < eps * total:
            break
    return 1 - total


def _euler_maclaurin_sum(m: mpmath.mpf, k: int, d: int) -> mpmath.mpf:
    """Sum of pmf(k + d x) / pmf(k) over x >= 0 (d = 1) or x >= 1 (d = -1).

    With h(x) the log of a term and a the first x, the sum is the integral
    of exp(h) from a, plus exp(h(a)) times 1/2 - h1/12 + (h3 + 3 h1 h2 +
    h1**3) / 720, with hn the n-th derivative of h at a.  The next term is
    of order h1**5 / 30240 of the sum, with h1 ~ z / sqrt(k) at a mean z
    standard deviations from k: below 1e-16 once k > 1e7 and |z| <= 12."""
    log_m, log_k_fact = mpmath.log(m), mpmath.loggamma(k + 1)

    def h(x):
        return d * x * log_m - mpmath.loggamma(k + d * x + 1) + log_k_fact

    a = 0 if d > 0 else 1
    at = k + d * a + 1
    h1 = d * (log_m - mpmath.psi(0, at))
    h2 = -mpmath.psi(1, at)
    h3 = -d * mpmath.psi(2, at)
    # integrate piecewise out to exp(-130), pieces growing from the decay length
    step, points = 1 / (abs(h1) + mpmath.sqrt(-h2)), [mpmath.mpf(a)]
    while h(points[-1]) > -130 and points[-1] + step < k:
        points.append(points[-1] + step)
        step *= 1.5
    first = mpmath.exp(h(a))
    corrections = first * (mpmath.mpf(1) / 2 - h1 / 12 + (h3 + 3 * h1 * h2 + h1**3) / 720)
    return mpmath.quad(lambda x: mpmath.exp(h(x)), points) + corrections


def assert_tail_close(mean: float, k: int) -> None:
    """Within ``TAIL_ABS_TOL``, and within 1e-9 relative where the tail is
    at least 1e-12."""
    exact = tail_oracle(mean, k)
    error = abs(mpmath.mpf(poisson_tail(mean, k)) - exact)
    assert error <= TAIL_ABS_TOL, (mean, k, error)
    if exact >= 1e-12:
        assert error <= 1e-9 * exact, (mean, k, error / exact)


@st.composite
def around_k(draw, k_lo: int, k_hi: int, z_max: float):
    """(mean, k): k log-uniform in [k_lo, k_hi], mean = k + z sqrt(k) with |z| <= z_max."""
    k = int(10 ** draw(st.floats(math.log10(k_lo), math.log10(k_hi))))
    z = draw(st.floats(-z_max, z_max))
    return max(0.0, k + z * math.sqrt(k)), k


class TestPoissonTail:
    """``poisson_tail`` against the 50-digit oracle in every regime: the pmf
    sums below k = 50, and Temme's expansion from there on."""

    @given(data=st.data(), k=st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_small_k(self, data, k):
        assert_tail_close(data.draw(st.floats(0.0, 2.0 * k + 20.0)), k)

    @given(case=around_k(300, 10**7, 12.0))
    @example(case=(4950974.759912685, 4961594))
    @settings(max_examples=25, deadline=None)
    def test_large_k(self, case):
        assert_tail_close(*case)

    @given(case=around_k(10**9, 10**15, 8.0))
    @example(case=(1e15 - 8e15**0.5, 10**15))
    @settings(max_examples=5, deadline=None)
    def test_huge_k(self, case):
        assert_tail_close(*case)

    @pytest.mark.parametrize(
        "mean,k",
        [(49.0, 50), (50.0, 49), (499.5, 500), (500.5, 499), (1e-300, 60), (1e300, 60), (3e-17, 1000)],
    )
    def test_regime_boundaries(self, mean, k):
        assert_tail_close(mean, k)

    def test_euler_maclaurin_matches_the_direct_sum(self):
        for mean, k in [(4950974.759912685, 4961594), (1e7 + 3e7**0.5, 10**7)]:
            m, up = mpmath.mpf(mean), mean < k
            pmf_k = mpmath.exp(k * mpmath.log(m) - m - mpmath.loggamma(k + 1))
            rest = pmf_k * _euler_maclaurin_sum(m, k, 1 if up else -1)
            exact = tail_oracle(mean, k)
            assert abs((rest if up else 1 - rest) - exact) <= 1e-18 * exact

    def test_mends_the_far_tail(self):
        """scipy's ``gammainc`` gave 9.109029e-07 here, 0.8 % low."""
        exact = tail_oracle(4950974.759912685, 4961594)
        assert mpmath.nstr(exact, 16) == "9.180736531372337e-7"
        assert abs(poisson_tail(4950974.759912685, 4961594) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("mean,alpha", [(4950974.759912685, 1e-6), (1e16, 1e-12)])
    def test_quantile_certified_by_the_oracle(self, mean, alpha):
        """With scipy's tail the first quantile was 4,961,553, whose exact
        tail is 1.0058e-6 > alpha.  The second is odd and past 2**53, where
        float(k) is k + 1."""
        k = poisson_upper_quantile(mean, alpha)
        assert tail_oracle(mean, k) <= alpha < tail_oracle(mean, k - 1)

    def test_coefficient_block_is_generated(self):
        """``kernels.py`` embeds the script's output verbatim."""
        script = ROOT / "scripts" / "make_temme_coefficients.py"
        made = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, check=True, timeout=60
        ).stdout
        source = (ROOT / "src" / "bmdlimits" / "kernels.py").read_text(encoding="utf-8")
        embedded = re.search(r"^# BEGIN generated.*?^# END generated\n", source, re.M | re.S)
        assert embedded is not None and embedded.group(0) == made


class TestPoissonSf:
    def test_degenerate_model(self):
        assert poisson_tail(0.0, 1) == 0.0
        assert poisson_tail(0.0, 0) == 1.0

    def test_tail_at_zero(self):
        assert poisson_tail(3.7, 0) == 1.0
        assert poisson_tail(3.7, -2) == 1.0

    def test_small_case_against_oracle(self):
        assert poisson_tail(5.0, 10) == pytest.approx(
            float(tail_oracle(5.0, 10)), abs=TAIL_ABS_TOL
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
        assert poisson_tail(mean, k) == pytest.approx(
            float(tail_oracle(mean, k)), abs=TAIL_ABS_TOL
        )

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            PoissonModel(-1.0)
        with pytest.raises(DomainError):
            PoissonModel(float("nan"))

    @pytest.mark.parametrize("mean,k", [(0.0, 1), (3.7, 0), (5.0, 10), (2257.055, 2336)])
    def test_model_wrapper_is_the_tail(self, mean, k):
        assert poisson_sf(PoissonModel(mean), k) == poisson_tail(mean, k)

    @given(
        mean=st.floats(min_value=0.01, max_value=5000.0),
        k=st.integers(min_value=0, max_value=6000),
    )
    @settings(max_examples=200)
    def test_in_unit_interval_and_monotone_in_k(self, mean, k):
        v = poisson_tail(mean, k)
        assert 0.0 <= v <= 1.0
        assert poisson_tail(mean, k + 1) <= v + TAIL_ABS_TOL

    @given(
        mean=st.floats(min_value=0.01, max_value=500.0),
        bump=st.floats(min_value=0.01, max_value=50.0),
        k=st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=200)
    def test_monotone_in_mean(self, mean, bump, k):
        lo = poisson_tail(mean, k)
        hi = poisson_tail(mean + bump, k)
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
        assert poisson_upper_quantile(0.0, 0.05) == 1

    def test_scan_oracle(self):
        expected = min(k for k in range(0, 51) if poisson_tail(10.0, k) <= 0.05)
        assert poisson_upper_quantile(10.0, 0.05) == expected

    @given(mean=QUANTILE_MEANS, alpha=QUANTILE_ALPHAS)
    @example(mean=1e10, alpha=1e-6)
    @example(mean=1e12, alpha=1e-6)
    @example(mean=1e15, alpha=0.5)
    @example(mean=1e16, alpha=1e-12)
    @settings(max_examples=200)
    def test_round_trip_certificate(self, mean, alpha):
        k = poisson_upper_quantile(mean, alpha)
        assert poisson_tail(mean, k) <= alpha
        if k > 0:
            assert poisson_tail(mean, k - 1) > alpha

    @given(mean=QUANTILE_MEANS, alpha=QUANTILE_ALPHAS)
    @example(mean=1e10, alpha=1e-6)
    @example(mean=0.0, alpha=0.9)
    @example(mean=1e16, alpha=0.9)
    @settings(max_examples=200)
    def test_seed_does_not_change_answer(self, mean, alpha):
        unseeded = smallest_int_where(lambda k: poisson_tail(mean, k) <= alpha)
        assert poisson_upper_quantile(mean, alpha) == unseeded

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            poisson_upper_quantile(1.0, 0.0)
        with pytest.raises(DomainError):
            poisson_upper_quantile(1.0, 1.0)

    @pytest.mark.parametrize("mean", [-1.0, float("nan"), float("inf")])
    def test_mean_domain(self, mean):
        with pytest.raises(DomainError, match="Poisson mean"):
            poisson_upper_quantile(mean, 0.05)


def miss_prob_exact(population: int, flawed: int, draws: int) -> Fraction:
    p = Fraction(1)
    for i in range(draws):
        p *= Fraction(population - flawed - i, population - i)
    return p


class TestNoReplacementMiss:
    def test_nothing_to_find(self):
        assert math.exp(log_no_replacement_miss_prob(100, 0, 30)) == 1.0
        assert math.exp(log_no_replacement_miss_prob(100, 5, 0)) == 1.0

    def test_cannot_avoid(self):
        assert math.exp(log_no_replacement_miss_prob(10, 2, 9)) == 0.0
        assert log_no_replacement_miss_prob(10, 2, 9) == -math.inf

    def test_hand_case(self):
        # (8*7*6)/(10*9*8)
        assert math.exp(log_no_replacement_miss_prob(10, 2, 3)) == pytest.approx(56 / 120, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_no_replacement_miss_prob(0, 0, 0)
        with pytest.raises(DomainError):
            log_no_replacement_miss_prob(10, 11, 1)
        with pytest.raises(DomainError):
            log_no_replacement_miss_prob(10, 2, -1)

    @given(
        population=st.integers(min_value=1, max_value=30),
        flawed=st.integers(min_value=0, max_value=30),
        draws=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=300)
    def test_matches_exact_rationals(self, population, flawed, draws):
        flawed = min(flawed, population)
        draws = min(draws, population)
        got = math.exp(log_no_replacement_miss_prob(population, flawed, draws))
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
        base = math.exp(log_no_replacement_miss_prob(population, flawed, draws))
        assert math.exp(log_no_replacement_miss_prob(population, flawed, draws + 1)) <= base
        assert math.exp(log_no_replacement_miss_prob(population, flawed + 1, draws)) <= base
        assert math.exp(log_no_replacement_miss_prob(population + 1, flawed, draws)) >= base

    def test_published_oracle_boundary(self):
        # exact rational arithmetic pins the 95% crossing between 538 and 539
        assert miss_prob_exact(2980, 15, 538) > Fraction(1, 20)
        assert miss_prob_exact(2980, 15, 539) <= Fraction(1, 20)
        assert math.exp(log_no_replacement_miss_prob(2980, 15, 538)) > 0.05
        assert math.exp(log_no_replacement_miss_prob(2980, 15, 539)) <= 0.05


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
