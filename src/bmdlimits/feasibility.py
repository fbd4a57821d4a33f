"""Jurisdiction turnout ingestion and feasibility joins.

Passive monitoring needs a minimum contest size; most jurisdictions are small.
This module loads turnout records (CSV, schema ``state,jurisdiction,turnout``),
summarizes the size distribution, and joins it against a monitoring design:
the summary at the design's required contest size.

Real turnout data is not bundled; synthetic fixtures with a documented
construction live under scripts/.  Jurisdiction counts are a property of the
input data, never a constant.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import DomainError, ParseError, read_input, validated

if TYPE_CHECKING:
    from .passive import PassiveDesign

_COLUMNS = ("state", "jurisdiction", "turnout")


@validated
class JurisdictionRecord(NamedTuple):
    state: str
    jurisdiction: str
    turnout: int

    def _check(self) -> None:
        if self.turnout < 0:
            raise DomainError("turnout must be >= 0")


class FeasibilitySummary(NamedTuple):
    """Size-distribution summary of a turnout dataset.

    ``median_turnout`` is the lower median for even counts (integer-voter
    semantics, deterministic).  ``states_where_majority_below`` counts states in
    which strictly more than half the jurisdictions fall below the first
    threshold.
    """

    count: int
    median_turnout: int
    fraction_below: Mapping[int, float]
    states_where_majority_below: int


def load_turnout(path: str) -> list[JurisdictionRecord]:
    """Records from a UTF-8 CSV file, read by ``read_input``: a malformed file
    is a ``ParseError`` that names the file and the line."""
    return read_input(path, lambda text: parse_turnout(io.StringIO(text, newline="")))


def parse_turnout(fh) -> list[JurisdictionRecord]:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file: expected header 'state,jurisdiction,turnout'")
    if tuple(h.strip() for h in header) != _COLUMNS:
        raise ParseError(
            f"bad header {header!r}: expected {','.join(_COLUMNS)!r}"
        )
    records: list[JurisdictionRecord] = []
    seen: set[tuple[str, str]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
        state, jurisdiction, raw = (f.strip() for f in row)
        try:
            turnout = int(raw)
        except ValueError:
            raise ParseError(f"line {lineno}: turnout {raw!r} is not an integer")
        if turnout < 0:
            raise ParseError(f"line {lineno}: turnout must be >= 0")
        key = (state, jurisdiction)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate jurisdiction {key!r}")
        seen.add(key)
        records.append(JurisdictionRecord(state, jurisdiction, turnout))
    if not records:
        raise ParseError("no jurisdiction rows after the header")
    return records


def emit_turnout(records: Sequence[JurisdictionRecord]) -> str:
    """Canonical CSV text; round-trips byte-identically through the parser."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for r in records:
        writer.writerow([r.state, r.jurisdiction, r.turnout])
    return out.getvalue()


def lower_median(values: Sequence[int]) -> int:
    if not values:
        raise DomainError("median of empty data")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def summarize(
    records: Sequence[JurisdictionRecord], thresholds: Sequence[int]
) -> FeasibilitySummary:
    """Median, below-threshold fractions, and per-state majority indicators.

    The majority count uses the first threshold.
    """
    if not records:
        raise DomainError("cannot summarize an empty dataset")
    if not thresholds:
        raise DomainError("at least one threshold is required")
    turnouts = [r.turnout for r in records]
    fraction_below = {
        t: sum(v < t for v in turnouts) / len(turnouts) for t in thresholds
    }
    by_state: dict[str, list[bool]] = {}
    for r in records:
        by_state.setdefault(r.state, []).append(r.turnout < thresholds[0])
    per_state = (sum(fs) / len(fs) for fs in by_state.values())
    return FeasibilitySummary(
        count=len(records),
        median_turnout=lower_median(turnouts),
        fraction_below=fraction_below,
        states_where_majority_below=sum(frac > 0.5 for frac in per_state),
    )


class JoinResult(NamedTuple):
    required_contest_size: int
    fraction_infeasible: float
    states_where_majority_infeasible: int


def passive_feasibility_join(
    records: Sequence[JurisdictionRecord], design: PassiveDesign
) -> JoinResult:
    """The share of jurisdictions, and the number of states with a majority
    of them, whose turnout is below the minimum contest size of the design:
    the summary at that one threshold.  A turnout exactly equal to the
    requirement is feasible."""
    from .passive import min_contest_size

    required = min_contest_size(design).contest_size
    summary = summarize(records, [required])
    return JoinResult(
        required, summary.fraction_below[required], summary.states_where_majority_below
    )
