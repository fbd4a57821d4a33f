"""End-to-end acceptance checks against the published results.

Each numbered test prints one PASS/FAIL line (straight to the real stdout so
the summary is visible under pytest's capture).  Two clauses are known,
documented differences and are marked xfail(strict): the published
540-printout oracle figure (the exact minimum is 539) and one
training-sample-bound cell that exceeds the factor-3 contract under every
faithful reading of the formulas.
"""

import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from bmdlimits.feasibility import load_turnout, passive_feasibility_join, summarize
from bmdlimits.minimax import hjw_lower_bound, table_lower_bounds
from bmdlimits.parallel import (
    BudgetedTestQuery,
    OracleBoundQuery,
    detection_prob_iid,
    margin_leverage,
    min_electorate_for_budget,
    min_tests_iid,
    oracle_min_samples,
)
from bmdlimits.passive import PassiveDesign, table_passive
from bmdlimits.repro import (
    PASSIVE_BASE_RATES,
    PASSIVE_DETECT_RATES,
    PASSIVE_MARGINS,
    PUBLISHED_CONTEST_SIZES_1PCT,
    PUBLISHED_CONTEST_SIZES_5PCT,
    PUBLISHED_TRAINING_BOUNDS_MILLIONS,
    TRAINING_BOUND_DIFF_CELL,
    build_manifest,
)
from bmdlimits.simulate import (
    MalloryStrategy,
    PatStrategy,
    SimScenario,
    load_scenario,
    run_parallel_sim,
    run_passive_sim,
)
from bmdlimits.space import (
    AttributeSpec,
    TransactionSpace,
    optimistic_preset,
    realistic_preset,
)
from bmdlimits.transactions import TransactionDistribution

mpmath.mp.dps = 50


def _report(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {status}{suffix}", file=sys.__stdout__, flush=True)


def _check_table(budget, published):
    t0 = time.perf_counter()
    rows = table_passive(budget, PASSIVE_MARGINS, PASSIVE_DETECT_RATES, PASSIVE_BASE_RATES)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for row in rows:
        want = published[(row["margin"], row["detect_rate"])]
        for b, expected in zip(PASSIVE_BASE_RATES, want):
            got = row[f"base_rate={b:g}"]
            worst = max(worst, abs(got - expected) / expected)
    return worst, elapsed


def test_01_contest_size_table_5pct():
    worst, elapsed = _check_table(0.05, PUBLISHED_CONTEST_SIZES_5PCT)
    ok = worst <= 0.01 and elapsed < 10.0
    _report("01 contest sizes, 5% budgets", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 0.01
    assert elapsed < 10.0


def test_02_contest_size_table_1pct():
    worst, elapsed = _check_table(0.01, PUBLISHED_CONTEST_SIZES_1PCT)
    ok = worst <= 0.01
    _report("02 contest sizes, 1% budgets", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_03_detection_arithmetic():
    t11 = min_tests_iid(0.25, 0.95)
    d11 = detection_prob_iid(0.25, 11)
    d5 = detection_prob_iid(0.5, 5)
    t299 = min_tests_iid(0.01, 0.95)
    documented = any(
        r.artifact == "min-tests/p=0.01/95%" and r.classification == "DOCUMENTED-DIFF"
        for r in build_manifest()
    )
    ok = (
        t11 == 11
        and abs(d11 - 0.9578) < 5e-5
        and d5 == 0.96875
        and t299 == 299
        and documented
    )
    _report(
        "03 test-count arithmetic",
        ok,
        f"min_tests(0.25)={t11}, det@11={d11:.4f}, det(0.5,5)={d5}, "
        f"min_tests(0.01)={t299} (published 300: documented diff)",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="published 540 is off by one: exact rational arithmetic shows the "
    "miss probability crosses 5% at 539 draws (documented diff)",
)
def test_03b_oracle_published_540():
    n = oracle_min_samples(OracleBoundQuery(2980, 15, 0.95))
    miss_539 = Fraction(1)
    for i in range(539):
        miss_539 *= Fraction(2980 - 15 - i, 2980 - i)
    _report(
        "03b oracle printout sample",
        False,
        f"solver gives {n}; exact miss(539)={float(miss_539):.6f} <= 0.05, so "
        "the published 540 (with 539 failing) is unattainable — documented diff",
    )
    assert n == 540  # the published claim; 539 is the certified minimum


def test_04_budgeted_electorate():
    res = min_electorate_for_budget(BudgetedTestQuery(13, 140, 0.005, 0.95))
    # first-principles check of the achieved detection probability
    first_principles = 1.0 - (1.0 - res.altered / res.voters) ** res.tests
    ok = (
        res.bmds == 47
        and res.voters == 6_580
        and res.achieved_detection >= 0.95
        and first_principles >= 0.95
        and abs(first_principles - res.achieved_detection) < 1e-12
    )
    _report(
        "04 budgeted electorate",
        ok,
        f"{res.bmds} BMDs / {res.voters} voters, sampling={res.sampling}, "
        f"detection={res.achieved_detection:.4f}",
    )
    assert ok


def test_05_margin_leverage():
    a = margin_leverage(0.01, 1.0, 0.3)
    b = margin_leverage(0.01, 0.1, 0.0)
    c = margin_leverage(0.01, 0.1, 0.3)
    ok = (
        abs(a - 2 / 70) < 1e-12
        and abs(b - 0.2) < 1e-12
        and abs(c - 2 / 7) < 1e-12
    )
    _report("05 margin leverage", ok, f"{a:.5f} / {b:.5f} / {c:.5f}")
    assert ok


def test_06_cardinalities():
    opt = optimistic_preset().cardinality
    real = realistic_preset().cardinality
    ok = opt == 6_144_000 and abs(real / 1.2e47 - 1.0) < 0.05
    _report("06 cardinalities", ok, f"optimistic={opt}, realistic={real:.4e}")
    assert ok


def _hjw_oracle(n, S, zeta):
    z, nn, ss = mpmath.mpf(zeta), mpmath.mpf(n), mpmath.mpf(S)
    x = (1 + z) * nn / ss
    first = (
        mpmath.sqrt(mpmath.e * ss / ((1 + z) * nn)) / 8
        if x > mpmath.e / 16
        else mpmath.e ** (-2 * x)
    )
    log_s = mpmath.log(ss)
    return float(
        first
        - mpmath.e ** (-z * z * nn / 24)
        - 12 * mpmath.e ** (-z * z * ss / (32 * log_s**2))
    )


def test_07_training_bounds():
    # formula agreement with an extended-precision oracle
    oracle_worst = max(
        abs(hjw_lower_bound(n, S, z) - _hjw_oracle(n, S, z))
        for n in (10**5, 10**6, 10**7, 10**8)
        for S in (10**5, 6_140_000)
        for z in (0.2, 0.7, 1.0)
    )
    rows = table_lower_bounds()
    table = {
        (r["test_limit"], r["confidence"], r["altered_fraction"]): r["min_training_n"]
        for r in rows
    }
    orderings = all(
        [table[(T, conf, r1)] > table[(T, conf, r2)]
         for T in (2000, None) for conf in (0.99, 0.95)
         for r1, r2 in zip((0.005, 0.01, 0.03), (0.01, 0.03, 0.05))]
        + [table[(T, 0.99, r)] > table[(T, 0.95, r)]
           for T in (2000, None) for r in (0.005, 0.01, 0.03, 0.05)]
        + [table[(2000, conf, r)] > table[(None, conf, r)]
           for conf in (0.99, 0.95) for r in (0.005, 0.01, 0.03, 0.05)]
    )
    in_factor = 0
    for row in rows:
        key = (row["test_limit"], row["confidence"], row["altered_fraction"])
        ratio = row["bound_millions"] / PUBLISHED_TRAINING_BOUNDS_MILLIONS[key]
        within = 1 / 3 <= ratio <= 3
        print(
            f"  table-4 cell T={key[0]} conf={key[1]} r={key[2]}: "
            f"{row['bound_millions']:.3f}M vs {PUBLISHED_TRAINING_BOUNDS_MILLIONS[key]}M "
            f"(ratio {ratio:.2f}){'' if within else ' *outside factor 3*'}",
            file=sys.__stdout__,
        )
        if key != TRAINING_BOUND_DIFF_CELL:
            in_factor += within
    ok = oracle_worst <= 1e-12 and orderings and in_factor == 15
    _report(
        "07 training-sample bounds",
        ok,
        f"oracle err {oracle_worst:.1e}, orderings exact, 15/16 cells within "
        "factor 3 (1 documented diff)",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="cell (T=2000, 99%, r=0.5%) has ratio ~3.3 under the most favorable "
    "faithful convention; the published table is not reproducible from the "
    "stated formulas (documented diff)",
)
def test_07b_training_bound_diff_cell():
    row = next(
        r
        for r in table_lower_bounds()
        if (r["test_limit"], r["confidence"], r["altered_fraction"])
        == TRAINING_BOUND_DIFF_CELL
    )
    ratio = row["bound_millions"] / PUBLISHED_TRAINING_BOUNDS_MILLIONS[TRAINING_BOUND_DIFF_CELL]
    _report(
        "07b training-bound diff cell",
        False,
        f"ratio {ratio:.2f} exceeds factor 3 — documented diff",
    )
    assert ratio <= 3.0


def test_08_simulator_validation(scenario_dir):
    t0 = time.perf_counter()
    _, whole = load_scenario(str(scenario_dir / "whole_space_flip.json"))
    rep_a = run_parallel_sim(whole)
    _, sub = load_scenario(str(scenario_dir / "subpopulation_attack.json"))
    rep_b = run_parallel_sim(sub)
    space = TransactionSpace((AttributeSpec("profile", 10),))
    disjoint = SimScenario(
        space=space,
        voter_dist=TransactionDistribution.uniform(space),
        n_voters=1000,
        mallory=MalloryStrategy.from_mapping({"profile": [3]}, 1.0),
        pat=PatStrategy(
            mode="distribution",
            test_count=50,
            distribution=TransactionDistribution.sparse(space, [(0,)], [1.0]),
        ),
        trials=100_000,
        seed=20260824,
    )
    rep_c = run_parallel_sim(disjoint)
    elapsed = time.perf_counter() - t0
    da = rep_a.empirical_detection.value
    db = rep_b.empirical_detection.value
    dc = rep_c.empirical_detection.value
    ok = (
        abs(da - 0.96875) <= 0.006
        and abs(db - 0.9503) <= 0.007
        and dc == 0.0
        and elapsed < 60.0
    )
    _report(
        "08 simulator validation",
        ok,
        f"whole-space {da:.5f} (target 0.96875), subpopulation {db:.5f} "
        f"(target 0.9503), disjoint {dc}, {elapsed:.1f}s",
    )
    assert ok


def test_09_passive_sim_vs_poisson(scenario_dir):
    _, s = load_scenario(str(scenario_dir / "passive_poisson_gap.json"))
    report = run_passive_sim(s)
    fp_gap = abs(report.empirical_fp.value - report.analytic["fp"])
    fn_gap = abs(report.empirical_fn.value - report.analytic["fn"])
    ok = fp_gap <= 0.01 and fn_gap <= 0.01
    _report(
        "09 passive sim vs Poisson",
        ok,
        f"fp {report.empirical_fp.value:.5f} vs {report.analytic['fp']:.5f}, "
        f"fn {report.empirical_fn.value:.5f} vs {report.analytic['fn']:.5f}",
    )
    assert ok


@pytest.mark.usefixtures("pool_forced")
def test_10_worker_determinism(scenario_dir):
    _, s = load_scenario(str(scenario_dir / "whole_space_flip.json"))
    reports = {run_parallel_sim(s, workers=w).to_json() for w in (1, 2, 4)}
    _, p = load_scenario(str(scenario_dir / "passive_poisson_gap.json"))
    passive_reports = {run_passive_sim(p, workers=w).to_json() for w in (1, 3)}
    ok = len(reports) == 1 and len(passive_reports) == 1
    _report("10 worker-count determinism", ok, "byte-identical reports")
    assert ok


def test_11_feasibility_fixture(data_dir):
    records = load_turnout(str(data_dir / "county_turnout.csv"))
    summary = summarize(records, [43_000])
    shape_ok = (
        summary.median_turnout == 2_980 and summary.fraction_below[43_000] > 2 / 3
    )
    small = [r for r in records if r.turnout < 100_000]
    join_ok = bool(small) and all(
        passive_feasibility_join(
            small, PassiveDesign(0.01, 0.07, b, 0.05, 0.05)
        ).fraction_infeasible
        == 1.0
        for b in PASSIVE_BASE_RATES
    )
    ok = shape_ok and join_ok
    _report(
        "11 feasibility fixture",
        ok,
        f"median {summary.median_turnout}, below 43k "
        f"{summary.fraction_below[43_000]:.1%}, sub-100k infeasible at 1%/7% "
        "for all base rates",
    )
    assert ok
