"""Training-sample lower bounds: extended-precision oracle for the four-term
bound, threshold arithmetic, solver certificates, and a frozen golden table."""

import math
import operator
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmdlimits import minimax
from bmdlimits.errors import DomainError, Infeasible
from bmdlimits.minimax import (
    DEFAULT_SUPPORT_SIZE,
    BoundReport,
    FixedZeta,
    GridZeta,
    MinimaxQuery,
    cantelli_lambda,
    detection_threshold,
    hjw_lower_bound,
    min_training_sample,
    table_lower_bounds,
)
from bmdlimits.parallel import epsilon_budget

mpmath.mp.dps = 50


def hjw_oracle(n: int, S: int, zeta: float) -> float:
    z = mpmath.mpf(zeta)
    nn = mpmath.mpf(n)
    ss = mpmath.mpf(S)
    x = (1 + z) * nn / ss
    if x > mpmath.e / 16:
        first = mpmath.sqrt(mpmath.e * ss / ((1 + z) * nn)) / 8
    else:
        first = mpmath.e ** (-2 * x)
    log_s = mpmath.log(ss)
    penalty = 0 if log_s == 0 else 12 * mpmath.e ** (-z * z * ss / (32 * log_s**2))
    return float(first - mpmath.e ** (-z * z * nn / 24) - penalty)


def stdlib_log_grid(start: float, stop: float, size: int) -> list[float]:
    """``math.exp`` of ``np.linspace``'s points: the grid's bits on any CPU,
    which numpy's SIMD ``exp`` need not give."""
    return [math.exp(float(u)) for u in np.linspace(start, stop, size)]


ZETA_GRID = stdlib_log_grid(math.log(0.01), math.log(1.0), 1000)


def ref_resolved_bound(q: MinimaxQuery):
    """The scalar slack search: one ``hjw_lower_bound`` call per slack value,
    first maximum by ``np.argmax``."""
    zs = [q.zeta.value] if isinstance(q.zeta, FixedZeta) else ZETA_GRID

    def bound(n: int) -> tuple[float, float]:
        vals = [hjw_lower_bound(n, q.S, z) for z in zs]
        i = int(np.argmax(vals))
        return vals[i], zs[i]

    return bound


def ref_optimal_beta(alpha: float, r: float, T: int) -> float:
    """The scalar beta scan: 4,001 log-spaced gaps, first maximum wins."""
    gaps = stdlib_log_grid(math.log(alpha * 1e-12), math.log(alpha * (1.0 - 1e-9)), 4001)
    best_beta = alpha / 2.0
    best = -math.inf
    for u in gaps:
        beta = alpha - u
        value = epsilon_budget(alpha, beta, r, T) + cantelli_lambda(beta)
        if value > best:
            best = value
            best_beta = beta
    return best_beta


def ref_min_training_sample(q: MinimaxQuery) -> BoundReport:
    """The doubling, halving and bisection search the seeded gallop replaced:
    double from ``max(16, eS / (128 threshold^2))`` until the bound is at or
    below the threshold, halve down until it is above, then bisect."""
    threshold, beta_used = detection_threshold(q)
    if threshold <= 0.0:
        raise Infeasible(
            "detection threshold is nonpositive: no training-sample size helps"
        )
    bound = ref_resolved_bound(q)
    hi = min(max(16, int(math.e * q.S / (128.0 * threshold * threshold))), 2**53)
    while bound(hi)[0] > threshold:
        if hi == 2**53:
            raise Infeasible("more than 2**53 training draws needed")
        hi = min(2 * hi, 2**53)
    lo = hi // 2
    while lo >= 1 and bound(lo)[0] <= threshold:
        lo //= 2
    if lo < 1:
        b, z = bound(1)
        return BoundReport(1, z, threshold, b, None, beta_used)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid)[0] <= threshold:
            hi = mid
        else:
            lo = mid
    b_at, z_at = bound(hi)
    return BoundReport(hi, z_at, threshold, b_at, bound(hi - 1)[0], beta_used)


def outcome(solve, q: MinimaxQuery):
    """The report, or the type and message of the error the solver raises."""
    try:
        return solve(q)
    except (DomainError, Infeasible) as e:
        return type(e), str(e)


slack_strategies = st.one_of(
    st.just(GridZeta()), st.floats(min_value=1e-4, max_value=1.0).map(FixedZeta)
)


# golden outputs of the default 16-row grid (FixedZeta(1), threshold-maximizing
# failure-budget split); regenerate only with a deliberate convention change
GOLDEN_TABLE = {
    (2000, 0.99, 0.005): 12_786_143,
    (2000, 0.99, 0.01): 10_585_825,
    (2000, 0.99, 0.03): 5_719_862,
    (2000, 0.99, 0.05): 3_574_824,
    (2000, 0.95, 0.005): 2_451_233,
    (2000, 0.95, 0.01): 2_251_740,
    (2000, 0.95, 0.03): 1_655_597,
    (2000, 0.95, 0.05): 1_268_289,
    (None, 0.99, 0.005): 10_678_214,
    (None, 0.99, 0.01): 8_979_488,
    (None, 0.99, 0.03): 5_061_537,
    (None, 0.99, 0.05): 3_243_455,
    (None, 0.95, 0.005): 2_274_823,
    (None, 0.95, 0.01): 2_096_068,
    (None, 0.95, 0.03): 1_556_714,
    (None, 0.95, 0.05): 1_201_612,
}


class TestHjwBound:
    @pytest.mark.parametrize(
        "n,S,zeta",
        [
            (100, 1000, 1.0),
            (10_000, 6_140_000, 1.0),
            (2_000_000, 6_140_000, 1.0),
            (2_000_000, 6_140_000, 0.3),
            (50_000_000, 6_140_000, 1.0),
            (3, 7, 0.5),
        ],
    )
    def test_against_oracle(self, n, S, zeta):
        assert hjw_lower_bound(n, S, zeta) == pytest.approx(
            hjw_oracle(n, S, zeta), abs=1e-12
        )

    def test_indicator_boundary(self):
        # straddle (1+zeta) n / S = e/16 and check both branches via the oracle
        S = 1_000_000
        n_star = S * math.e / 32.0  # zeta = 1
        for n in (int(n_star) - 1, int(n_star), int(n_star) + 2):
            assert hjw_lower_bound(n, S, 1.0) == pytest.approx(
                hjw_oracle(n, S, 1.0), abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            hjw_lower_bound(100, 1000, 0.0)
        with pytest.raises(DomainError):
            hjw_lower_bound(100, 1000, 1.5)
        with pytest.raises(DomainError):
            hjw_lower_bound(0, 1000, 1.0)

    @given(
        n=st.integers(min_value=10**5, max_value=10**9),
        zeta=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_oracle_agreement_randomized(self, n, zeta):
        S = DEFAULT_SUPPORT_SIZE
        assert hjw_lower_bound(n, S, zeta) == pytest.approx(
            hjw_oracle(n, S, zeta), abs=1e-12
        )

    def test_decays_in_n_past_peak(self):
        S = DEFAULT_SUPPORT_SIZE
        vals = [hjw_lower_bound(n, S, 1.0) for n in (10**6, 4 * 10**6, 16 * 10**6)]
        assert vals[0] > vals[1] > vals[2] > 0


class TestThreshold:
    def test_cantelli_values(self):
        assert cantelli_lambda(0.0) == 0.0
        assert cantelli_lambda(0.05) == pytest.approx(math.sqrt(0.05 / 0.95), abs=1e-15)
        with pytest.raises(DomainError):
            cantelli_lambda(1.0)

    def test_unbounded_formula(self):
        q = MinimaxQuery(r=0.005, alpha=0.05)
        value, beta = detection_threshold(q)
        assert value == pytest.approx(0.01 + math.sqrt(0.05 / 0.95), abs=1e-12)
        assert beta is None

    def test_finite_with_explicit_beta(self):
        q = MinimaxQuery(r=0.01, alpha=0.05, T=2000, beta=0.025)
        value, beta = detection_threshold(q)
        expect = 2 * ((0.025) ** (1 / 2000) + 0.01 - 1) + math.sqrt(0.025 / 0.975)
        assert value == pytest.approx(expect, abs=1e-12)
        assert beta == 0.025

    def test_default_beta_is_at_least_as_good(self):
        auto, _ = detection_threshold(MinimaxQuery(r=0.01, alpha=0.05, T=2000))
        for b in (0.01, 0.025, 0.04, 0.049):
            manual, _ = detection_threshold(
                MinimaxQuery(r=0.01, alpha=0.05, T=2000, beta=b)
            )
            assert auto >= manual - 1e-9

    def test_query_domain(self):
        with pytest.raises(DomainError):
            MinimaxQuery(r=0.0, alpha=0.05)
        with pytest.raises(DomainError):
            MinimaxQuery(r=0.01, alpha=0.05, beta=0.01)  # beta without T
        with pytest.raises(DomainError):
            MinimaxQuery(r=0.01, alpha=0.05, T=2000, beta=0.06)
        with pytest.raises(DomainError):
            MinimaxQuery(r=0.01, alpha=0.05, S=1)


class TestSolver:
    def test_certificates(self):
        report = min_training_sample(MinimaxQuery(r=0.01, alpha=0.05))
        n = report.min_training_n
        assert hjw_lower_bound(n, DEFAULT_SUPPORT_SIZE, 1.0) <= report.threshold
        assert report.bound_below is not None
        assert hjw_lower_bound(n - 1, DEFAULT_SUPPORT_SIZE, 1.0) > report.threshold

    def test_grid_zeta_never_weaker(self):
        fixed = min_training_sample(MinimaxQuery(r=0.03, alpha=0.05))
        grid = min_training_sample(
            MinimaxQuery(r=0.03, alpha=0.05, zeta=GridZeta())
        )
        assert grid.min_training_n >= fixed.min_training_n

    def test_nonpositive_threshold_infeasible(self):
        with pytest.raises(Infeasible):
            min_training_sample(MinimaxQuery(r=0.01, alpha=0.05, T=1, beta=0.025))

    def test_golden_table(self):
        rows = table_lower_bounds()
        assert len(rows) == 16
        for row in rows:
            key = (row["test_limit"], row["confidence"], row["altered_fraction"])
            assert row["min_training_n"] == GOLDEN_TABLE[key], key

    @given(
        S=st.integers(min_value=2, max_value=3 * 10**16),
        r=st.floats(min_value=1e-4, max_value=0.999),
        alpha=st.floats(min_value=1e-6, max_value=0.999),
        T=st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
        zeta=slack_strategies,
    )
    @example(S=10**20 // 4, r=0.005, alpha=0.01, T=2000, zeta=FixedZeta())  # past 2**53
    @example(S=10**20 // 4, r=0.005, alpha=0.01, T=None, zeta=GridZeta())  # past 2**53
    @example(S=1000, r=0.5, alpha=0.5, T=None, zeta=FixedZeta())  # vacuous
    @example(S=1000, r=0.3, alpha=0.2, T=10, zeta=GridZeta())  # vacuous
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_search(self, S, r, alpha, T, zeta):
        q = MinimaxQuery(r=r, alpha=alpha, T=T, S=S, zeta=zeta)
        got, want = outcome(min_training_sample, q), outcome(ref_min_training_sample, q)
        if isinstance(want, BoundReport) and want.bound_below is None and got != want:
            # the reference's halvings stepped over the bound's hump; the
            # certificate at the gallop's n refutes "vacuous at every n"
            bound = ref_resolved_bound(q)
            n = got.min_training_n
            assert bound(n)[0] <= got.threshold < bound(n - 1)[0]
        else:
            assert got == want

    def test_vacuous_and_past_2_53_examples(self):
        # the reference comparison's explicit examples reach both paths
        assert min_training_sample(MinimaxQuery(r=0.5, alpha=0.5, S=1000)).bound_below is None
        assert min_training_sample(
            MinimaxQuery(r=0.3, alpha=0.2, T=10, S=1000, zeta=GridZeta())
        ).bound_below is None
        for T, zeta in ((2000, FixedZeta()), (None, GridZeta())):
            with pytest.raises(DomainError, match=r"2\*\*53"):
                min_training_sample(MinimaxQuery(r=0.005, alpha=0.01, T=T, S=10**20 // 4, zeta=zeta))

    @pytest.mark.parametrize("S", [1000, 5000])
    def test_vacuous_grid_query_scores_few_points(self, monkeypatch, S):
        # threshold + penalty >= 1 at every slack value, so every seed value
        # ties at 0; the seed is 1 without scoring the 1,000 ties
        q = MinimaxQuery(r=0.01, alpha=0.05, S=S, zeta=GridZeta())
        want = ref_min_training_sample(q)
        scored = []
        first_argmax = minimax._first_argmax

        def counting(size, terms, combine):
            def counted(k):
                scored.append(k)
                return terms(k)

            return first_argmax(size, counted, combine)

        monkeypatch.setattr(minimax, "_first_argmax", counting)
        report = min_training_sample(q)
        assert report == want
        assert (report.min_training_n, report.bound_below) == (1, None)
        assert len(scored) <= 64

    def test_hump_the_halvings_miss(self):
        # the bound is above the threshold on [184, 302] only; the
        # reference's halvings probe 346 and 173 and call it vacuous
        S, z = 18_000, 0.7
        q = MinimaxQuery(r=0.005, alpha=0.06, S=S, zeta=FixedZeta(z))
        assert ref_min_training_sample(q).bound_below is None
        report = min_training_sample(q)
        assert report.min_training_n == 303
        above = [n for n in range(1, 20_000) if hjw_lower_bound(n, S, z) > report.threshold]
        assert (above[0], above[-1]) == (184, 302)
        # without its rising -exp(-z^2 n / 24) term the bound only falls, and
        # it is already below the threshold at the end of the scan
        assert hjw_lower_bound(20_000, S, z) + math.exp(-z * z * 20_000 / 24) <= report.threshold

    @pytest.mark.parametrize("zeta", [FixedZeta(), GridZeta()])
    def test_few_bound_evaluations_per_row(self, zeta, monkeypatch):
        counts = []
        resolved = minimax._resolved_bound

        def counting(q, threshold):
            bound, seed = resolved(q, threshold)
            counts.append(0)

            def counted(n):
                counts[-1] += 1
                return bound(n)

            return counted, seed

        monkeypatch.setattr(minimax, "_resolved_bound", counting)
        assert len(table_lower_bounds(zeta=zeta)) == len(counts) == 16
        assert max(counts) <= 6


class TestGridArgmax:
    """The branch-and-bound argmax gives the full scan's value and first index
    over both grids, and scores a small share of their points."""

    @given(
        n=st.integers(min_value=1, max_value=2**53),
        S=st.integers(min_value=2, max_value=10**9),
        zeta=slack_strategies,
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_matches_full_scan(self, n, S, zeta):
        q = MinimaxQuery(r=0.01, alpha=0.05, S=S, zeta=zeta)
        assert minimax._resolved_bound(q, 1.0)[0](n) == ref_resolved_bound(q)(n)

    @given(
        alpha=st.floats(min_value=1e-8, max_value=0.999),
        r=st.floats(min_value=1e-4, max_value=0.999),
        T=st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=10**12)),
    )
    @settings(max_examples=60, deadline=None)
    def test_beta_matches_full_scan(self, alpha, r, T):
        assert minimax._optimal_beta(alpha, r, T) == ref_optimal_beta(alpha, r, T)

    @given(
        falls=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=80),
        rises=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_first_index_wins_ties(self, falls, rises):
        # few distinct values, so most maxima are ties
        a = sorted(falls, reverse=True)
        b = sorted(rises.draw(st.lists(st.integers(0, 4), min_size=len(a), max_size=len(a))))
        scores = [x + y for x, y in zip(a, b)]
        got = minimax._first_argmax(len(a), lambda k: (float(scores[k]), a[k], b[k]), operator.add)
        assert got == (max(scores), scores.index(max(scores)))

    def test_flat_grid_gives_first_index(self):
        assert minimax._first_argmax(4001, lambda k: (0.75, 0.5, 0.25), operator.add) == (0.75, 0)

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_grid_points_are_linspace_bits(self, alpha):
        assert list(GridZeta().values()) == ZETA_GRID
        start, stop = math.log(alpha * 1e-12), math.log(alpha * (1.0 - 1e-9))
        gap = minimax._log_grid(start, stop, 4001)
        assert [gap(i) for i in range(4001)] == stdlib_log_grid(start, stop, 4001)

    def test_default_grids_score_few_points(self, monkeypatch):
        sizes = []
        first_argmax = minimax._first_argmax

        def counting(size, terms, combine):
            sizes.append([size, 0])

            def counted(k):
                sizes[-1][1] += 1
                return terms(k)

            return first_argmax(size, counted, combine)

        monkeypatch.setattr(minimax, "_first_argmax", counting)
        q = MinimaxQuery(r=0.03, alpha=0.05, zeta=GridZeta())
        bound, _ = minimax._resolved_bound(q, detection_threshold(q)[0])
        for n in (10**5, 10**6, 3 * 10**6, 10**8):
            assert bound(n) == ref_resolved_bound(q)(n)
        minimax._optimal_beta(0.05, 0.03, 2000)
        minimax._optimal_beta(0.01, 0.005, 2000)
        zeta_counts = [c for size, c in sizes if size == 1000]
        beta_counts = [c for size, c in sizes if size == 4001]
        assert len(zeta_counts) == 5 and max(zeta_counts) <= 64
        assert len(beta_counts) == 2 and max(beta_counts) <= 200


def np_resolved_bound(ns: np.ndarray, S: int, zetas) -> np.ndarray:
    """``ref_resolved_bound``'s values at every n of ``ns``, in numpy: the
    four-term bound's maximum over ``zetas``.  numpy's ``exp`` and ``sqrt``
    may round an ulp away from ``math``'s."""
    best = np.full(len(ns), -np.inf)
    n = ns.astype(float)
    log_s = math.log(S)
    for z in zetas:
        x = (1.0 + z) * n / S
        first = np.where(x > math.e / 16.0, 0.125 * np.sqrt(math.e * S / ((1.0 + z) * n)), np.exp(-2.0 * x))
        penalty = 12.0 * math.exp(-z * z * S / (32.0 * log_s * log_s))
        np.maximum(best, first - np.exp(-z * z * n / 24.0) - penalty, out=best)
    return best


def small_query(seed: int) -> MinimaxQuery:
    """A seeded query with S <= 10**5; every fourth on the slack grid."""
    rnd = random.Random(seed)
    S = round(10 ** rnd.uniform(3.5, 5))
    r = 10 ** rnd.uniform(-2, -0.5)
    alpha = rnd.uniform(0.01, 0.3)
    T = rnd.choice([None, rnd.randint(10, 5000)])
    zeta = GridZeta() if seed % 4 == 0 else FixedZeta(rnd.uniform(0.3, 1.0))
    return MinimaxQuery(r=r, alpha=alpha, T=T, S=S, zeta=zeta)


@pytest.mark.parametrize("seed", range(32))
def test_bound_stays_below_threshold_from_n_on(seed):
    """Brute force for the claim that the bound *stays* at or below the
    threshold from n on, which ``bound(n) <= threshold < bound(n - 1)`` does
    not certify: the bound rises before its peak.  Every n' in [n, 4n + 1000)
    is scanned; an n' whose numpy value lies within 1e-12 of the threshold is
    checked again by ``ref_resolved_bound``."""
    q = small_query(seed)
    report = min_training_sample(q)
    n = report.min_training_n
    bound = ref_resolved_bound(q)
    ns = np.arange(n, 4 * n + 1000)
    zetas = [q.zeta.value] if isinstance(q.zeta, FixedZeta) else ZETA_GRID
    approx = np_resolved_bound(ns, q.S, zetas)
    assert approx[0] == pytest.approx(bound(n)[0], rel=0, abs=1e-14)
    near = ns[approx > report.threshold - 1e-12]
    assert all(bound(int(m))[0] <= report.threshold for m in near)
    if n > 1:
        assert bound(n - 1)[0] > report.threshold


class TestCertifiableLimit:
    def test_just_below_2_53_certifies(self):
        q = MinimaxQuery(r=0.05, alpha=0.01, S=10**16)
        report = min_training_sample(q)
        n = report.min_training_n
        assert n == 5_282_498_428_119_847
        assert 2**52 < n < 2**53
        assert report.bound_at_n <= report.threshold < report.bound_below
        assert hjw_oracle(n, q.S, 1.0) <= report.threshold < hjw_oracle(n - 1, q.S, 1.0)

    @pytest.mark.parametrize("S", [18 * 10**15, 10**20])
    def test_past_2_53_is_domain_error(self, S):
        with pytest.raises(DomainError, match=r"2\*\*53"):
            min_training_sample(MinimaxQuery(r=0.005, alpha=0.01, T=2000, S=S))


class TestOrderings:
    """All pairwise orderings the published grid exhibits must hold exactly."""

    @pytest.fixture(scope="module")
    def table(self):
        rows = table_lower_bounds()
        return {
            (r["test_limit"], r["confidence"], r["altered_fraction"]): r["min_training_n"]
            for r in rows
        }

    def test_decreasing_in_altered_fraction(self, table):
        for T in (2000, None):
            for conf in (0.99, 0.95):
                seq = [table[(T, conf, r)] for r in (0.005, 0.01, 0.03, 0.05)]
                assert seq == sorted(seq, reverse=True)

    def test_higher_confidence_needs_more(self, table):
        for T in (2000, None):
            for r in (0.005, 0.01, 0.03, 0.05):
                assert table[(T, 0.99, r)] > table[(T, 0.95, r)]

    def test_finite_budget_needs_more(self, table):
        for conf in (0.99, 0.95):
            for r in (0.005, 0.01, 0.03, 0.05):
                assert table[(2000, conf, r)] > table[(None, conf, r)]
