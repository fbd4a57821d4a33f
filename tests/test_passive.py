"""Contest-size solver tests: golden table values, solver certificates, and
an extended-precision oracle for the power calculation."""

import math
import re
from collections import Counter
from statistics import NormalDist

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bmdlimits import kernels, passive
from bmdlimits.errors import DomainError, Infeasible
from bmdlimits.kernels import smallest_int_where
from bmdlimits.passive import (
    PassiveDesign,
    PassiveSolution,
    _achieved,
    _certified_start,
    _miss,
    _np_miss,
    _pmf_bound,
    _segment_level,
    _segment_miss,
    _smallest_fn_ok,
    _threshold,
    alarm_threshold,
    min_contest_size,
    passive_power,
    table_passive,
)
from bmdlimits.repro import (
    PASSIVE_BASE_RATES,
    PASSIVE_DETECT_RATES,
    PASSIVE_MARGINS,
    PUBLISHED_CONTEST_SIZES_1PCT,
    PUBLISHED_CONTEST_SIZES_5PCT,
)

mpmath.mp.dps = 50


def poisson_sf_oracle(mean, k):
    m = mpmath.mpf(mean)
    return float(1 - mpmath.fsum(mpmath.e ** (-m) * m**i / mpmath.factorial(i) for i in range(k)))


def ref_threshold(N, design, convention):
    """Smallest alarm threshold at size N meeting the fp budget, at least two
    spoils under ``published``; bisection on ``passive_power`` alone."""

    def fp_ok(k):
        return passive_power(N, design, k)[0] <= design.fp_budget

    lo = hi = 2 if convention == "published" else 1
    while not fp_ok(hi):  # from here on the fp budget fails at lo
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fp_ok(mid) else (mid, hi)
    return hi


def ref_feasible(N, design, convention):
    """Whether size N meets both budgets, from ``passive_power`` alone: a miss
    is X <= k - 2 under ``published`` and X < k under ``strict``."""
    k = ref_threshold(N, design, convention)
    _, fn = passive_power(N, design, k - 1 if convention == "published" else k)
    return fn <= design.fn_budget


class TestDesign:
    def test_attack_rate(self):
        d = PassiveDesign(0.04, 0.25, 0.005, 0.05, 0.05)
        assert d.attack_rate == pytest.approx(0.005, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            PassiveDesign(0.0, 0.25, 0.005, 0.05, 0.05)
        with pytest.raises(DomainError):
            PassiveDesign(0.04, 1.0, 0.005, 0.05, 0.05)
        with pytest.raises(DomainError):
            PassiveDesign(0.04, 0.25, 0.005, 0.05, 1.5)

    @pytest.mark.parametrize("fn", [math.nextafter(kernels.TAIL_ABS_TOL, 0.0), 1e-14, 1e-17, 1e-300])
    def test_fn_budget_below_the_tail_error(self, fn):
        # a miss is one minus a tail, so below the tail's error it cancels to 0
        with pytest.raises(DomainError, match="fn_budget must be at least 1e-12, the Poisson tails' absolute"):
            PassiveDesign(0.03, 0.07, 0.005, 0.05, fn)

    def test_fp_budget_keeps_its_range(self):
        # the upper tail keeps its relative accuracy down to 1e-300
        assert PassiveDesign(0.03, 0.07, 0.005, 1e-300, 0.05).fp_budget == 1e-300

    @pytest.mark.parametrize("convention", ["published", "strict"])
    @pytest.mark.parametrize("fn", [kernels.TAIL_ABS_TOL, 1e-10, 1e-6])
    def test_small_fn_budgets_are_met(self, fn, convention):
        design = PassiveDesign(0.03, 0.07, 0.005, 0.05, fn)
        sol = min_contest_size(design, convention)
        j = sol.alarm_threshold - 1 if convention == "published" else sol.alarm_threshold
        N = mpmath.mpf(sol.contest_size)
        m0 = N * mpmath.mpf(design.base_rate)
        m1 = N * (mpmath.mpf(design.base_rate) + mpmath.mpf(design.attack_rate))
        # P{Pois(m) >= k} = P(k, m) and P{Pois(m) < j} = Q(j, m), at 50 digits
        assert mpmath.gammainc(sol.alarm_threshold, 0, m0, regularized=True) <= design.fp_budget
        assert mpmath.gammainc(j, m1, mpmath.inf, regularized=True) <= fn


class TestPassivePower:
    def test_against_oracle(self):
        design = PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)
        N, k = 52_310, 290
        fp, fn = passive_power(N, design, k)
        assert fp == pytest.approx(poisson_sf_oracle(N * 0.005, k), abs=1e-12)
        attacked_mean = N * (0.005 + 0.03 / 2 * 0.07)
        assert fn == pytest.approx(1 - poisson_sf_oracle(attacked_mean, k), abs=1e-12)

    def test_domain(self):
        design = PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)
        with pytest.raises(DomainError):
            passive_power(0, design, 5)
        with pytest.raises(DomainError):
            passive_power(100, design, 0)

    @given(
        N=st.integers(min_value=100, max_value=200_000),
        k=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100)
    def test_probabilities(self, N, k):
        design = PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)
        fp, fn = passive_power(N, design, k)
        assert 0.0 <= fp <= 1.0
        assert 0.0 <= fn <= 1.0


class TestAlarmThreshold:
    def test_certificate(self):
        design = PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)
        for N in (1_000, 52_310, 500_000):
            k = alarm_threshold(N, design)
            fp_at, _ = passive_power(N, design, k)
            assert fp_at <= design.fp_budget
            if k > 1:
                fp_below, _ = passive_power(N, design, k - 1)
                assert fp_below > design.fp_budget


@pytest.fixture
def solver_calls(monkeypatch):
    """Calls of ``poisson_tail`` and ``_smallest_fn_ok`` made by the passive solver."""
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapped)

    counted(passive, "poisson_tail")
    counted(kernels, "poisson_tail")  # the quantile search's own binding
    counted(passive, "_smallest_fn_ok")
    return calls


def published_cases():
    for budget, table in ((0.05, PUBLISHED_CONTEST_SIZES_5PCT), (0.01, PUBLISHED_CONTEST_SIZES_1PCT)):
        for (margin, d), sizes in table.items():
            for b, size in zip(PASSIVE_BASE_RATES, sizes):
                yield budget, margin, d, b, size


class TestGoldenTables:
    @pytest.mark.parametrize("budget,margin,d,b,expected", list(published_cases()))
    def test_entry_exact(self, budget, margin, d, b, expected):
        design = PassiveDesign(margin, d, b, budget, budget)
        assert min_contest_size(design).contest_size == expected

    def test_grid_layout(self):
        rows = table_passive(0.05, PASSIVE_MARGINS, PASSIVE_DETECT_RATES, PASSIVE_BASE_RATES)
        assert len(rows) == 10
        assert rows[0]["margin"] == 0.01 and rows[0]["detect_rate"] == 0.07
        assert rows[-1]["margin"] == 0.05 and rows[-1]["detect_rate"] == 0.25
        assert rows[4]["base_rate=0.005"] == 52_310

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            table_passive(0.05, [], [0.07], [0.005])

    def test_colliding_base_rate_columns_rejected(self):
        # once one column, base_rate=0.005, holding the second rate's answers
        with pytest.raises(DomainError, match=r"0\.005 and 0\.0050000001 share the column base_rate=0\.005$"):
            table_passive(0.05, [0.03, 0.05], [0.07], [0.005, 0.0050000001])

    def test_repeated_base_rate_is_one_column(self):
        rows = table_passive(0.05, [0.03], [0.07], [0.005, 0.005])
        assert rows == [{"margin": 0.03, "detect_rate": 0.07, "base_rate=0.005": 52_310}]


class TestSolver:
    def test_certificates_on_sample(self):
        # feasibility at N, infeasibility at N-1, fp certificate at k
        for margin, d, b, budget in [
            (0.01, 0.07, 0.005, 0.05),
            (0.05, 0.25, 0.015, 0.01),
            (0.03, 0.25, 0.01, 0.05),
        ]:
            design = PassiveDesign(margin, d, b, budget, budget)
            sol = min_contest_size(design)
            assert sol.achieved_fp <= budget
            assert sol.achieved_fn <= budget
            assert sol.alarm_threshold >= 2

    def test_first_pocket_not_skipped(self):
        # the feasible set has gaps; the solver must return the global minimum,
        # which for this design starts a pocket only four sizes wide
        design = PassiveDesign(0.01, 0.07, 0.005, 0.05, 0.05)
        sol = min_contest_size(design)
        assert sol.contest_size == 451_411

    def test_strict_convention_needs_larger_contests(self):
        design = PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)
        published = min_contest_size(design, "published").contest_size
        strict = min_contest_size(design, "strict").contest_size
        assert strict > published
        assert strict == pytest.approx(published, rel=0.15)

    def test_invisible_attack_infeasible(self):
        with pytest.raises(Infeasible):
            # detect_rate cannot be 0 by domain; emulate invisibility via tiny rate
            min_contest_size(PassiveDesign(1e-12, 1e-12, 0.005, 0.05, 0.05))

    @given(
        margin=st.sampled_from([0.01, 0.02, 0.03, 0.04, 0.05]),
        d=st.sampled_from([0.07, 0.25]),
        b=st.sampled_from([0.005, 0.01, 0.015]),
        budget=st.sampled_from([0.01, 0.05]),
    )
    @settings(max_examples=30, deadline=None)
    def test_solution_is_feasible_and_minimal(self, margin, d, b, budget):
        design = PassiveDesign(margin, d, b, budget, budget)
        sol = min_contest_size(design)
        # re-derive the achieved error rates independently of the solver
        k = sol.alarm_threshold
        assert k == ref_threshold(sol.contest_size, design, "published")
        fp, _ = passive_power(sol.contest_size, design, k)
        _, fn = passive_power(sol.contest_size, design, k - 1)  # P{X <= k - 2}
        assert fp <= budget
        assert fn <= budget
        assert not ref_feasible(sol.contest_size - 1, design, "published")

    def test_unknown_convention(self):
        with pytest.raises(DomainError, match="convention"):
            min_contest_size(PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05), "lenient")

    def test_monotone_in_margin_and_detect(self):
        base = min_contest_size(PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)).contest_size
        wider = min_contest_size(PassiveDesign(0.04, 0.07, 0.005, 0.05, 0.05)).contest_size
        louder = min_contest_size(PassiveDesign(0.03, 0.25, 0.005, 0.05, 0.05)).contest_size
        tighter = min_contest_size(PassiveDesign(0.03, 0.07, 0.005, 0.01, 0.01)).contest_size
        assert wider < base
        assert louder < base
        assert tighter > base


class TestExactness:
    """Minimality against references built on ``passive_power`` alone."""

    @pytest.mark.parametrize(
        "args,convention,size,threshold",
        [
            # a 64-threshold downward scan returned 2,897,108 here
            (
                (0.004592118757343271, 0.7073616750791027, 0.31219009020784033,
                 0.013491675797890913, 0.0031646988249618806),
                "published", 2_897_044, 906_533,
            ),
            # ... and 1,478,604 here
            (
                (0.1988776638599964, 0.010583523436023002, 0.30056658497329014,
                 0.14158260201820638, 0.10405165836032376),
                "strict", 1_478_521, 445_110,
            ),
            # threshold above 2**23 but below the 1e7 cap: once reported Infeasible
            (
                (0.014702350976361103, 0.01081400790081225, 0.05764086794474691,
                 0.03186078856027115, 0.00892923586386329),
                "published", 162_727_591, 9_385_439,
            ),
        ],
    )
    def test_pinned_minimum(self, args, convention, size, threshold):
        design = PassiveDesign(*args)
        sol = min_contest_size(design, convention)
        assert (sol.contest_size, sol.alarm_threshold) == (size, threshold)
        assert ref_threshold(size, design, convention) == threshold
        assert ref_feasible(size, design, convention)
        assert not ref_feasible(size - 1, design, convention)

    @given(
        margin=st.floats(0.1, 0.4),
        d=st.floats(0.3, 0.9),
        b=st.floats(0.01, 0.05),
        fp=st.sampled_from([0.01, 0.05, 0.1]),
        fn=st.sampled_from([0.01, 0.05, 0.1]),
        convention=st.sampled_from(["published", "strict"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_brute_force_oracle(self, margin, d, b, fp, fn, convention):
        design = PassiveDesign(margin, d, b, fp, fn)
        sol = min_contest_size(design, convention)
        assert ref_feasible(sol.contest_size, design, convention)
        assert not any(ref_feasible(N, design, convention) for N in range(1, sol.contest_size))


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


class TestCertifiedStart:
    """The climb's start under either convention: a chain of segments, each
    infeasible by a Neyman-Pearson bound at a level that bounds the
    convention's test there; no smaller size can be feasible."""

    @pytest.mark.parametrize("convention", ["published", "strict"])
    @given(
        b=st.floats(0.001, 0.05),
        d=st.floats(0.1, 0.9),
        fp=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
        fn=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
        size=log_uniform(30, 2e5),
    )
    @example(b=0.015, d=0.25, fp=0.01, fn=0.01, size=2e5)
    # margin 0.25: P1{X < 1} alone certifies the start, 217, one short of the answer
    @example(b=0.001, d=0.5, fp=0.3, fn=1e-6, size=7.13)
    @settings(max_examples=15, deadline=None)
    def test_start_is_below_answer_and_certified(self, convention, b, d, fp, fn, size):
        # the attack rate that puts the normal guess near ``size`` voters
        z_fp, z_fn = -NormalDist().inv_cdf(fp), -NormalDist().inv_cdf(fn)
        a = (z_fp + z_fn) * math.sqrt(b / size)
        assume(2 * a / d < 1)
        design = PassiveDesign(2 * a / d, d, b, fp, fn)
        start = _certified_start(design, convention)
        answer = min_contest_size(design, convention).contest_size
        assert start <= answer <= 3e5
        # brute force: every smaller size misses more than the fn budget allows
        assert all(_achieved(N, design, convention)[2] > fn for N in range(1, start))

    @pytest.mark.parametrize(
        "args",
        [
            (0.03, 0.07, 0.005, 0.05, 0.05),
            (0.01, 0.25, 0.015, 0.01, 0.01),
            (0.2, 0.5, 1e-4, 1e-6, 0.3),
            (0.3, 0.9, 0.1, 0.3, 1e-6),
        ],
    )
    def test_np_miss_bounds_strict_miss_and_falls(self, args):
        design = PassiveDesign(*args)
        start = _certified_start(design, "strict")
        sizes = range(max(1, start - 100), start + 100)
        assert len({alarm_threshold(N, design) for N in sizes}) > 1  # k steps up in the run
        misses = [_np_miss(N, design, design.fp_budget, alarm_threshold(N, design))[0] for N in sizes]
        for N, miss in zip(sizes, misses):
            assert miss <= passive_power(N, design, alarm_threshold(N, design))[1]
        assert all(after <= before for before, after in zip(misses, misses[1:]))

    def test_start_saves_the_strict_climb(self, solver_calls):
        """On the 60 published-grid cells under ``strict`` the climb from
        N = 1 made 25,634 Poisson tails and 6,301 steps."""
        cells = list(published_cases())
        for budget, margin, d, b, expected in cells:
            design = PassiveDesign(margin, d, b, budget, budget)
            assert min_contest_size(design, "published").contest_size == expected
        solver_calls.clear()
        for budget, margin, d, b, _ in cells:
            design = PassiveDesign(margin, d, b, budget, budget)
            min_contest_size(design, "strict")
        assert len(cells) == 60
        # 2,512 from the segment chain; a count below one tail per cell
        # would mean the wrappers missed the binding the solver calls
        assert 60 <= solver_calls["poisson_tail"] <= 4_000
        assert solver_calls["_smallest_fn_ok"] <= 200


class TestSizeSearch:
    """The passive size searches: closed-form seeds change only where the
    search starts, and no size past 2**53 is ever returned."""

    @staticmethod
    def at_rate(rate, fp, fn):
        """A design whose base and attack spoil rates are each rate / 2."""
        return PassiveDesign(2 * rate, 0.5, rate / 2, fp, fn)

    @given(
        margin=log_uniform(1e-6, 0.5),
        d=log_uniform(1e-3, 0.9),
        b=log_uniform(1e-9, 0.4),
        fn=log_uniform(1e-6, 0.9),
        j=st.integers(1, 10**7),
    )
    @example(margin=0.03, d=0.07, b=0.005, fn=0.05, j=1)
    @example(margin=1e-6, d=1e-3, b=1e-9, fn=1e-6, j=10**7)
    @settings(max_examples=200, deadline=None)
    def test_fn_search_matches_unseeded_search(self, margin, d, b, fn, j):
        design = PassiveDesign(margin, d, b, 0.05, fn)
        unseeded = smallest_int_where(lambda N: _miss(N, design, j) <= fn, hi_limit=None)
        if unseeded <= 2**53:
            assert _smallest_fn_ok(design, j) == unseeded
        else:
            with pytest.raises(Infeasible, match=r"more than 2\*\*53 voters needed"):
                _smallest_fn_ok(design, j)

    @given(scale=st.floats(0.3, 1.5), j=st.integers(1, 50), fn=log_uniform(1e-6, 0.9))
    @example(scale=0.335, j=1, fn=0.05)  # the seed lands below 2**53, the answer above
    @settings(max_examples=100, deadline=None)
    def test_fn_search_never_passes_2_53(self, scale, j, fn):
        # the answer lies near scale * 2**53 times the answer's mean over j.
        # At rates this small the computed miss wobbles by an ulp between
        # neighbouring sizes, so check the certificate, not one crossing.
        design = self.at_rate(j / (scale * 2**53), 0.05, fn)
        try:
            N = _smallest_fn_ok(design, j)
        except Infeasible as exc:
            assert "more than 2**53 voters needed" in str(exc)
            return
        assert N <= 2**53
        assert _miss(N, design, j) <= fn
        assert N == 1 or _miss(N - 1, design, j) > fn

    @given(scale=st.floats(0.3, 3.0), fp=log_uniform(1e-6, 0.3), fn=log_uniform(1e-6, 0.3))
    @settings(max_examples=50, deadline=None)
    def test_certified_start_never_passes_2_53(self, scale, fp, fn):
        # the normal guess (z_fp + z_fn sqrt(2))**2 / a, a = rate / 2, is scale * 2**53
        z_fp, z_fn = -NormalDist().inv_cdf(fp), -NormalDist().inv_cdf(fn)
        design = self.at_rate(2 * (z_fp + z_fn * math.sqrt(2)) ** 2 / (scale * 2**53), fp, fn)
        assert _certified_start(design, "strict") <= 2**53

    @pytest.mark.parametrize(
        "rate,fn,j",
        [(1e-310, 0.05, 2), (1e-20, 0.05, 2), (1e-315, 0.999, 1)],
        ids=["infinite-guess", "finite-guess", "negative-infinite-guess"],
    )
    def test_fn_search_past_2_53_is_infeasible(self, rate, fn, j):
        with pytest.raises(Infeasible, match=r"more than 2\*\*53 voters needed"):
            _smallest_fn_ok(self.at_rate(rate, 0.05, fn), j)

    @pytest.mark.parametrize("rate", [1e-310, 1e-20], ids=["infinite-guess", "finite-guess"])
    def test_certified_start_past_2_53_is_infeasible(self, rate):
        # the start stops at 2**53, where the climb's first step raises
        design = self.at_rate(rate, 0.05, 0.05)
        assert _certified_start(design, "strict") <= 2**53
        with pytest.raises(Infeasible, match=r"more than 2\*\*53 voters needed"):
            min_contest_size(design, "strict")


def t0_oracle(mean, x):
    """P{Pois(mean) >= x} at 50 digits."""
    return 1 - mpmath.gammainc(x, mpmath.mpf(mean), regularized=True)


def pmf_oracle(mean, x):
    m = mpmath.mpf(mean)
    return mpmath.exp(x * mpmath.log(m) - m - mpmath.loggamma(x + 1))


@st.composite
def segments(draw, pmf):
    """(design, lo, hi, x_lo) with 0 <= x_lo <= k(lo) - 1 and a benign mean
    at lo from about 1 to 2,000.  Under the threshold pmf x_lo = k(lo) - 1,
    hi * b <= x_lo, and the segment has at most 200 sizes; under the largest
    pmf x_lo is 0 or k(lo) - 1, and the segment ends up to 200 sizes past
    the last size whose benign mean is at most x_lo."""
    design = PassiveDesign(
        draw(st.floats(0.001, 0.5)),
        draw(st.floats(0.05, 0.9)),
        draw(st.floats(0.05, 0.4)),
        draw(st.sampled_from([1e-6, 1e-3, 0.01, 0.05, 0.3])),
        draw(st.sampled_from([1e-3, 0.01, 0.05, 0.3])),
    )
    b = design.base_rate
    lo = math.ceil(draw(log_uniform(1.0, 2000.0)) / b)
    x_lo = _threshold(lo, design, "published")[0] - 1
    reach = math.floor(x_lo / b)
    while reach * b > x_lo:
        reach -= 1
    frac = draw(st.floats(0.0, 1.0))
    if pmf == "mode":
        return design, lo, max(lo, reach) + 1 + int(frac * 199), draw(st.sampled_from([0, x_lo]))
    assume(reach > lo)
    return design, lo, lo + 1 + int(frac * (min(reach, lo + 200) - lo - 1)), x_lo


class TestPublishedStart:
    """The published start's segment level: the benign pmf it adds bounds
    the published test's level, and the chain's work stays O(log answer)."""

    @pytest.mark.parametrize("pmf", ["threshold", "mode"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_segment_level_bounds_the_published_level(self, pmf, data):
        design, lo, hi, x_lo = data.draw(segments(pmf))
        level = _segment_level(design, lo, hi, x_lo)
        assert level > design.fp_budget
        ks = [_threshold(N, design, "published")[0] for N in range(lo, hi)]
        # T0(N, k - 1) rises with N while k(N) stays, so the last size of
        # each run of one threshold bounds the run
        for N, k, k_next in zip(range(lo, hi), ks, ks[1:] + [None]):
            if k != k_next:
                assert level >= t0_oracle(N * design.base_rate, k - 1)

    @pytest.mark.parametrize("pmf", ["threshold", "mode"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_segment_miss_bounds_the_published_miss(self, pmf, data):
        design, lo, hi, x_lo = data.draw(segments(pmf))
        bound, slack = _segment_miss(design, hi - 1, _segment_level(design, lo, hi, x_lo))
        for N in range(lo, hi):
            assert bound <= _achieved(N, design, "published")[2] + slack

    @given(
        mean=log_uniform(1e-300, 1e15),
        t=st.floats(-6.0, 12.0),
        x=st.one_of(st.none(), st.integers(1, 10**9)),
    )
    @example(mean=1.0, t=0.0, x=1)
    @example(mean=2.5, t=0.0, x=2)
    @example(mean=4e4, t=2.3, x=None)
    @example(mean=1e15, t=0.0, x=None)
    @example(mean=1e-300, t=0.0, x=1)
    @settings(max_examples=200, deadline=None)
    def test_pmf_bound_above_a_50_digit_pmf(self, mean, t, x):
        if x is None:  # near the mean, where the bounds are used
            x = max(1, math.floor(mean + t * math.sqrt(mean)))
        bound, exact = _pmf_bound(mean, x), pmf_oracle(mean, x)
        assert bound >= exact
        if x <= 10**7 and mean <= 1e8 and exact > 1e-300:
            # Stirling's remainder is below 1/(12 x); the rounding margin is tiny
            assert bound <= exact * mpmath.exp(mpmath.mpf(1) / (12 * x) + mpmath.mpf(1e-5))

    @pytest.mark.parametrize(
        "args,expected",
        [
            # the vanishing rates of tests/test_cli.py: the size guesses overflow
            ((1e-300, 1e-10, 1e-310, 0.05, 0.05), "more than 2**53 voters needed"),
            ((1e-200, 1e-5, 1e-200, 0.05, 0.05), "more than 2**53 voters needed"),
            # answers near and past 2**53
            ((4e-13, 0.5, 1.1e-9, 0.05, 0.05), "more than 2**53 voters needed"),
            ((4e-13, 0.5, 1.12e-9, 0.05, 0.05), "larger thresholds are not searched"),
            ((4.4e-12, 0.5, 1e-9, 0.05, 0.05), 8_947_046_192_750_863),
            ((0.0001, 0.07, 0.005, 1e-6, 1e-6), "larger thresholds are not searched"),
        ],
    )
    def test_work_bound_on_extreme_designs(self, solver_calls, monkeypatch, args, expected):
        design = PassiveDesign(*args)
        segments_tried = Counter()
        segment_miss = passive._segment_miss

        def counted(*a):
            segments_tried["segment"] += 1
            return segment_miss(*a)

        monkeypatch.setattr(passive, "_segment_miss", counted)
        start = _certified_start(design, "published")
        assert 1 <= start <= 2**53
        # four segments per halving of a first span below 2**53 voters
        assert segments_tried["segment"] <= 4 * 53
        assert solver_calls["poisson_tail"] <= 1_000
        if isinstance(expected, int):
            assert start <= expected == min_contest_size(design).contest_size
        else:
            with pytest.raises(Infeasible, match=re.escape(expected)):
                min_contest_size(design)


def exact_climb(design, convention):
    """``min_contest_size`` with both of every step's searches exact:
    N <- need(N), with k(N) from ``_threshold`` and need from ``_smallest_fn_ok``."""
    N = _certified_start(design, "strict") if convention == "strict" else 1
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
    k, fp, fn = _achieved(N, design, convention)
    return PassiveSolution(N, k, fp, fn, convention)


def outcome(solve, design, convention):
    try:
        return solve(design, convention)
    except (DomainError, Infeasible) as exc:
        return type(exc), str(exc)


class TestBoundedClimb:
    """Steps to one-tail lower bounds on k(N) and need(N) end where the exact
    climb does: at the same size, or in the same error."""

    @given(
        margin=log_uniform(1e-5, 0.5),
        d=log_uniform(1e-3, 0.9),
        b=log_uniform(1e-9, 0.4),
        fp=log_uniform(1e-6, 0.5),
        fn=log_uniform(1e-6, 0.5),
        convention=st.sampled_from(["published", "strict"]),
    )
    # where the 2**53 limit and the 1e7 threshold cap meet
    @example(margin=4e-13, d=0.5, b=1.1e-9, fp=0.05, fn=0.05, convention="published")
    @example(margin=4e-13, d=0.5, b=1.12e-9, fp=0.05, fn=0.05, convention="published")
    # past 6e14 voters, where the computed miss wobbles by an ulp between sizes
    @example(margin=1.2e-11, d=0.5, b=1.05e-9, fp=0.05, fn=0.05, convention="published")
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_climb(self, margin, d, b, fp, fn, convention):
        design = PassiveDesign(margin, d, b, fp, fn)
        assert outcome(min_contest_size, design, convention) == outcome(exact_climb, design, convention)

    @pytest.mark.parametrize(
        "args,expected",
        [
            ((4e-13, 0.5, 1.1e-9, 0.05, 0.05), "more than 2**53 voters needed"),
            ((4e-13, 0.5, 1.12e-9, 0.05, 0.05), "larger thresholds are not searched"),
            ((1.2e-11, 0.5, 1.05e-9, 0.05, 0.05), 1_263_723_317_174_506),
        ],
        ids=["2**53", "threshold-cap", "wobble"],
    )
    def test_limits(self, args, expected):
        design = PassiveDesign(*args)
        if isinstance(expected, int):
            assert min_contest_size(design).contest_size == expected
        else:
            with pytest.raises(Infeasible, match=re.escape(expected)):
                min_contest_size(design)

    @pytest.mark.parametrize("convention", ["published", "strict"])
    def test_both_conventions_reach_the_threshold_cap(self, convention):
        # no size up to 2**53 is feasible; both starts stop short of it and
        # climb into the cap
        with pytest.raises(Infeasible, match="larger thresholds are not searched"):
            min_contest_size(PassiveDesign(1e-5, 0.001, 0.05, 0.05, 0.05), convention)

    def test_bounds_save_the_published_climb(self, solver_calls):
        """On the 60 published-grid cells the climb from N = 1 on exact
        searches made 26,954 Poisson tails and 6,335 steps; with one-tail
        bounds, 16,371 tails and 571 exact size searches, and with one-lower
        retries of the bounds, 13,896 and 73.  From the certified start the
        retries made 4,982 tails and 61 exact size searches; without them,
        and with one tail as the exact step's stop test, 5,248 and 39."""
        cells = list(published_cases())
        for budget, margin, d, b, expected in cells:
            design = PassiveDesign(margin, d, b, budget, budget)
            assert min_contest_size(design, "published").contest_size == expected
        assert len(cells) == 60
        # fewer than one tail per cell would mean the wrappers missed the
        # binding the solver calls
        assert 60 <= solver_calls["poisson_tail"] <= 6_000
        assert solver_calls["_smallest_fn_ok"] <= 45

    def test_bounded_steps_save_a_start_far_short(self, solver_calls):
        """Where the pmf bound is loose against a small fp budget, the start
        stops at 0.82 of the answer, and the climb from there takes 9,789
        Poisson tails; an exact step at every size takes 23,935."""
        design = PassiveDesign(0.03, 0.07, 0.3, 1e-6, 1e-6)
        assert min_contest_size(design, "published").contest_size == 24_634_442
        assert solver_calls["poisson_tail"] <= 11_000
