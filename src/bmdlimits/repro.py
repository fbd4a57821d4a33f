"""Regression ledger comparing this package's outputs to the published values.

Every quantitative claim from the companion study that the library can
recompute gets one manifest row.  Rows are classified rather than forced
through a single tolerance:

* ``MATCH-EXACT``   -- integer or closed-form values expected to agree exactly;
* ``MATCH-TOL``     -- values expected within a stated relative tolerance;
* ``MATCH-FACTOR``  -- order-of-magnitude contracts (within a stated factor);
* ``DOCUMENTED-DIFF`` -- known, explained discrepancies (off-by-one roundings
  and one lower-bound cell); these are reported but not pass-required.
"""

from __future__ import annotations

from typing import NamedTuple

#: Minimum contest sizes published for 5% false-positive/false-negative
#: budgets: (margin, detect_rate) -> sizes at base rates 0.5%, 1%, 1.5%.
PUBLISHED_CONTEST_SIZES_5PCT = {
    (0.01, 0.07): (451_411, 893_176, 1_334_897),
    (0.01, 0.25): (37_334, 71_911, 106_627),
    (0.02, 0.07): (115_150, 225_706, 336_160),
    (0.02, 0.25): (9_919, 18_667, 27_325),
    (0.03, 0.07): (52_310, 101_382, 150_471),
    (0.03, 0.25): (4_651, 8_588, 12_445),
    (0.04, 0.07): (30_000, 57_575, 85_227),
    (0.04, 0.25): (2_788, 4_960, 7_144),
    (0.05, 0.07): (19_573, 37_245, 54_932),
    (0.05, 0.25): (1_838, 3_274, 4_689),
}

#: Same grid at 1% budgets.
PUBLISHED_CONTEST_SIZES_1PCT = {
    (0.01, 0.07): (908_590, 1_792_330, 2_675_912),
    (0.01, 0.25): (76_077, 145_501, 214_845),
    (0.02, 0.07): (233_261, 454_295, 675_242),
    (0.02, 0.25): (20_624, 38_039, 55_442),
    (0.03, 0.07): (106_411, 204_651, 302_864),
    (0.03, 0.25): (9_870, 17_674, 25_359),
    (0.04, 0.07): (61_385, 116_631, 171_908),
    (0.04, 0.25): (5_971, 10_312, 14_681),
    (0.05, 0.07): (40_156, 75_671, 110_989),
    (0.05, 0.25): (4_036, 6_849, 9_650),
}

PASSIVE_MARGINS = (0.01, 0.02, 0.03, 0.04, 0.05)
PASSIVE_DETECT_RATES = (0.07, 0.25)
PASSIVE_BASE_RATES = (0.005, 0.01, 0.015)

#: Published training-sample lower bounds, in millions:
#: (test_limit, confidence, altered fraction) -> bound.
PUBLISHED_TRAINING_BOUNDS_MILLIONS = {
    (2000, 0.99, 0.005): 3.87,
    (2000, 0.99, 0.01): 3.58,
    (2000, 0.99, 0.03): 2.69,
    (2000, 0.99, 0.05): 2.09,
    (2000, 0.95, 0.005): 1.67,
    (2000, 0.95, 0.01): 1.59,
    (2000, 0.95, 0.03): 1.31,
    (2000, 0.95, 0.05): 1.10,
    (None, 0.99, 0.005): 3.73,
    (None, 0.99, 0.01): 3.46,
    (None, 0.99, 0.03): 2.61,
    (None, 0.99, 0.05): 2.04,
    (None, 0.95, 0.005): 1.65,
    (None, 0.95, 0.01): 1.57,
    (None, 0.95, 0.03): 1.29,
    (None, 0.95, 0.05): 1.08,
}

#: The one bound cell that exceeds the factor-3 contract even under the most
#: favorable faithful convention (weakest slack, threshold-maximizing budget
#: split); kept as a documented difference.
TRAINING_BOUND_DIFF_CELL = (2000, 0.99, 0.005)


class ManifestRow(NamedTuple):
    artifact: str
    classification: str  # MATCH-EXACT | MATCH-TOL | MATCH-FACTOR | DOCUMENTED-DIFF
    actual: float
    published: float
    rule: str  # human-readable comparison rule
    passed: bool
    required: bool
    note: str = ""

    def to_record(self) -> dict:
        return {
            "artifact": self.artifact,
            "class": self.classification,
            "actual": self.actual,
            "published": self.published,
            "rule": self.rule,
            "status": "PASS" if self.passed else ("DIFF" if not self.required else "FAIL"),
            "note": self.note,
        }


def _exact(artifact: str, actual, published, note: str = "") -> ManifestRow:
    return ManifestRow(
        artifact, "MATCH-EXACT", actual, published, "equal", actual == published, True, note
    )


def _tol(artifact: str, actual, published, rel: float, note: str = "") -> ManifestRow:
    ok = abs(actual - published) <= rel * abs(published)
    return ManifestRow(
        artifact, "MATCH-TOL", actual, published, f"within {rel:.0%}", ok, True, note
    )


def _factor(artifact: str, actual, published, factor: float, note: str = "") -> ManifestRow:
    ratio = actual / published
    ok = 1.0 / factor <= ratio <= factor
    return ManifestRow(
        artifact, "MATCH-FACTOR", actual, published, f"within factor {factor:g}", ok, True, note
    )


def _diff(artifact: str, actual, published, note: str) -> ManifestRow:
    return ManifestRow(
        artifact, "DOCUMENTED-DIFF", actual, published, "reported only", False, False, note
    )


def build_manifest() -> list[ManifestRow]:
    # imported here, so that reading the published tables loads no solver
    from .minimax import table_lower_bounds
    from .parallel import (
        BudgetedTestQuery,
        OracleBoundQuery,
        detection_prob_iid,
        margin_leverage,
        min_electorate_for_budget,
        min_tests_iid,
        oracle_min_samples,
        session_minutes,
    )
    from .passive import table_passive
    from .space import optimistic_preset, realistic_preset

    rows: list[ManifestRow] = []

    # transaction-space cardinalities
    rows.append(
        _exact("cardinality/optimistic", optimistic_preset().cardinality, 6_144_000)
    )
    rows.append(
        _tol(
            "cardinality/realistic",
            float(realistic_preset().cardinality),
            1.2e47,
            0.05,
            "published value is rounded to 2 significant figures",
        )
    )

    # minimum contest sizes for spoilage monitoring (both budget levels)
    for budget, published in (
        (0.05, PUBLISHED_CONTEST_SIZES_5PCT),
        (0.01, PUBLISHED_CONTEST_SIZES_1PCT),
    ):
        table = table_passive(
            budget, PASSIVE_MARGINS, PASSIVE_DETECT_RATES, PASSIVE_BASE_RATES
        )
        for row in table:
            key = (row["margin"], row["detect_rate"])
            for b, want in zip(PASSIVE_BASE_RATES, published[key]):
                rows.append(
                    _tol(
                        f"contest-size/{budget:g}-budget/margin={key[0]:g}"
                        f"/d={key[1]:g}/b={b:g}",
                        row[f"base_rate={b:g}"],
                        want,
                        0.01,
                    )
                )

    # error-oracle sampling and test-count arithmetic
    rows.append(
        _diff(
            "oracle-samples/V=2980/F=15/95%",
            oracle_min_samples(OracleBoundQuery(2980, 15, 0.95)),
            540,
            "exact minimum is 539 (miss probability 0.049760 <= 0.05 at 539, "
            "verified in exact rational arithmetic); the published 540 "
            "appears to count one draw past the crossing",
        )
    )
    rows.append(_exact("detection/whole-space-q=0.5/5-tests", detection_prob_iid(0.5, 5), 0.96875))
    rows.append(_exact("min-tests/p=0.25/95%", min_tests_iid(0.25, 0.95), 11))
    rows.append(
        _tol("detection/p=0.25/11-tests", detection_prob_iid(0.25, 11), 0.958, 0.001)
    )
    rows.append(
        _diff(
            "min-tests/p=0.01/95%",
            min_tests_iid(0.01, 0.95),
            300,
            "strict minimum is 299 (detection 0.95046); 300 is a round-up",
        )
    )
    elect = min_electorate_for_budget(BudgetedTestQuery(13, 140, 0.005, 0.95))
    rows.append(
        _exact(
            "electorate/13-tests-per-day/r=0.5%/95%/machines",
            elect.bmds,
            47,
            f"sampling={elect.sampling}, achieved={elect.achieved_detection:.4f}",
        )
    )
    rows.append(_exact("electorate/13-tests-per-day/r=0.5%/95%/voters", elect.voters, 6_580))

    # margin leverage arithmetic
    rows.append(
        _tol("margin-shift/x=1%/share=100%/undervote=30%", margin_leverage(0.01, 1.0, 0.3), 0.029, 0.02)
    )
    rows.append(
        _tol("margin-shift/x=1%/share=10%/undervote=0", margin_leverage(0.01, 0.1, 0.0), 0.20, 1e-9)
    )
    rows.append(
        _tol("margin-shift/x=1%/share=10%/undervote=30%", margin_leverage(0.01, 0.1, 0.3), 0.29, 0.02)
    )

    # scripted-attack session accounting (per-test minutes are inputs)
    rows.append(
        _exact(
            "session-minutes/slow-voter-attack",
            session_minutes([5] * 5, 10.0),
            250,
            "five 5-test sessions at 10 minutes per test",
        )
    )
    rows.append(
        _exact(
            "session-minutes/quick-voter-attack",
            session_minutes([11] * 5, 5.0),
            275,
            "five 11-test sessions at 5 minutes per test",
        )
    )
    rows.append(
        _exact(
            "session-minutes/both-attacks-total",
            session_minutes([5] * 5, 10.0) + session_minutes([11] * 5, 5.0),
            525,
            "8 hours 45 minutes",
        )
    )

    # training-sample lower bounds (order-of-magnitude contract)
    for row in table_lower_bounds():
        key = (row["test_limit"], row["confidence"], row["altered_fraction"])
        want = row["published_millions"]
        label = (
            f"training-bound/T={'inf' if key[0] is None else key[0]}"
            f"/conf={key[1]:g}/r={key[2]:g}"
        )
        if key == TRAINING_BOUND_DIFF_CELL:
            rows.append(
                _diff(
                    label,
                    row["bound_millions"],
                    want,
                    "ratio 3.30 under the most favorable faithful convention; "
                    "published values for this table are not reproducible from "
                    "the stated formulas (see ledger)",
                )
            )
        else:
            rows.append(_factor(label, row["bound_millions"], want, 3.0))

    return rows


def manifest_passes(rows: list[ManifestRow]) -> bool:
    """True iff every pass-required row passes (documented diffs never block)."""
    return all(row.passed for row in rows if row.required)
