#!/usr/bin/env python3
"""Regenerate the synthetic county-turnout fixture CSV.

Usage: PYTHONPATH=src python3 scripts/make_turnout_fixture.py [output.csv]
(from the repository root; the default output is the committed copy).

Real election-administration data is not redistributed.  This builder
constructs a dataset with the same summary shape as the 2018 federal data the
monitoring analyses are usually quoted against: a lower median of 2,980
voters across 3,017 jurisdictions, well over two thirds below 43,000, and
37 of 51 states (72.5%) in which most jurisdictions fall short of the
contest size that spoilage monitoring needs at a 3% margin, 7% detection
rate, and 0.5% benign spoil rate.

Construction is purely quantile-based (no RNG): turnout j of n is
``round(median * exp(sigma * probit((j + 0.5) / n)))``, a log-normal shape
whose middle order statistic is exactly the median because n is odd, so
regeneration is byte-identical.
"""

import math
import sys
from pathlib import Path
from statistics import NormalDist

from bmdlimits.errors import DomainError
from bmdlimits.feasibility import JurisdictionRecord, emit_turnout
from bmdlimits.passive import PassiveDesign, min_contest_size

DEFAULT = Path(__file__).resolve().parent.parent / "tests" / "data" / "county_turnout.csv"

COUNTY_COUNT = 3017
MEDIAN_TURNOUT = 2980
LOG_SIGMA = 2.3
STATE_COUNT = 51
LARGE_STATE_COUNT = 14  # states where monitoring stays feasible for most counties

#: Design whose minimum contest size splits "large" from "small" counties.
REFERENCE_DESIGN = PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)


def county_turnouts(
    n: int = COUNTY_COUNT, median: int = MEDIAN_TURNOUT, sigma: float = LOG_SIGMA
) -> list[int]:
    """Ascending turnout quantiles; the lower median is exactly ``median``."""
    if n < 1 or n % 2 == 0:
        raise DomainError("county count must be odd so the median is pinned")
    probit = NormalDist().inv_cdf
    return [
        max(1, round(median * math.exp(sigma * probit((j + 0.5) / n))))
        for j in range(n)
    ]


def build_county_fixture() -> list[JurisdictionRecord]:
    """3,017 counties across 51 states.

    Counties at or above the reference contest size are concentrated in
    ``LARGE_STATE_COUNT`` states (20 of 39 counties each), leaving the other
    37 states with a large majority of too-small counties; leftovers are dealt
    round-robin.
    """
    turnouts = county_turnouts()
    threshold = min_contest_size(REFERENCE_DESIGN).contest_size
    big = [t for t in turnouts if t >= threshold]
    small = [t for t in turnouts if t < threshold]
    per_large_big, per_large_small = 20, 19
    need_big = LARGE_STATE_COUNT * per_large_big
    need_small = LARGE_STATE_COUNT * per_large_small
    if len(big) < need_big or len(small) < need_small:  # pragma: no cover
        raise DomainError("fixture shape assumptions violated; retune constants")

    assignments: list[tuple[str, int]] = []
    # large states: a guaranteed majority of feasible counties each
    for i in range(LARGE_STATE_COUNT):
        state = f"ST{i + 1:02d}"
        assignments.extend((state, t) for t in big[-need_big + i :: LARGE_STATE_COUNT])
        assignments.extend(
            (state, t) for t in small[-need_small + i :: LARGE_STATE_COUNT]
        )
    # everything else round-robin over the remaining states
    leftovers = small[:-need_small] + big[:-need_big]
    n_small_states = STATE_COUNT - LARGE_STATE_COUNT
    for j, t in enumerate(leftovers):
        state = f"ST{LARGE_STATE_COUNT + 1 + (j % n_small_states):02d}"
        assignments.append((state, t))

    return [
        JurisdictionRecord(state, f"C{j + 1:04d}", turnout)
        for j, (state, turnout) in enumerate(assignments)
    ]


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(emit_turnout(build_county_fixture()))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
