"""Turnout ingestion, summaries, feasibility joins, and the bundled synthetic
county fixture (built by scripts/make_turnout_fixture.py)."""

import io

import pytest

from bmdlimits.errors import DomainError, ParseError
from bmdlimits.feasibility import (
    JurisdictionRecord,
    emit_turnout,
    load_turnout,
    lower_median,
    parse_turnout,
    passive_feasibility_join,
    summarize,
)
from bmdlimits.passive import PassiveDesign, min_contest_size


def parse(text: str):
    return parse_turnout(io.StringIO(text))


class TestParsing:
    def test_minimal(self):
        records = parse("state,jurisdiction,turnout\nAA,C1,100\n")
        assert records == [JurisdictionRecord("AA", "C1", 100)]

    def test_whitespace_tolerated(self):
        records = parse("state , jurisdiction , turnout\nAA, C1 , 100\n")
        assert records[0].jurisdiction == "C1"

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty file"):
            parse("")

    def test_header_without_rows(self):
        # once parsed to [], and only summarize's "empty dataset" error, which
        # names no file, stopped it
        with pytest.raises(ParseError, match="no jurisdiction rows"):
            parse("state,jurisdiction,turnout\n\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="bad header"):
            parse("st,county,votes\nAA,C1,100\n")

    def test_field_count_with_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse("state,jurisdiction,turnout\nAA,C1,100\nAA,C2\n")

    def test_non_integer_turnout(self):
        with pytest.raises(ParseError, match="line 2.*not an integer"):
            parse("state,jurisdiction,turnout\nAA,C1,lots\n")

    def test_negative_turnout(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("state,jurisdiction,turnout\nAA,C1,-5\n")

    def test_duplicate_jurisdiction(self):
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            parse("state,jurisdiction,turnout\nAA,C1,100\nAA,C1,200\n")

    def test_blank_lines_skipped(self):
        records = parse("state,jurisdiction,turnout\n\nAA,C1,100\n\n")
        assert len(records) == 1


class TestEmit:
    def test_round_trip_bytes(self):
        records = [
            JurisdictionRecord("AA", "C1", 100),
            JurisdictionRecord("BB", "C2", 0),
        ]
        text = emit_turnout(records)
        assert parse(text) == records
        assert emit_turnout(parse(text)) == text


class TestSummaries:
    def test_lower_median(self):
        assert lower_median([5, 1, 3]) == 3
        assert lower_median([4, 1, 3, 2]) == 2  # lower median on even counts
        with pytest.raises(DomainError):
            lower_median([])

    def test_summary_fields(self):
        records = [
            JurisdictionRecord("AA", "C1", 10),
            JurisdictionRecord("AA", "C2", 20),
            JurisdictionRecord("AA", "C3", 300),
            JurisdictionRecord("BB", "C4", 400),
        ]
        s = summarize(records, [100, 350])
        assert s.count == 4
        assert s.median_turnout == 20
        assert s.fraction_below[100] == 0.5
        assert s.fraction_below[350] == 0.75
        assert s.states_where_majority_below == 1

    def test_empty_inputs(self):
        with pytest.raises(DomainError):
            summarize([], [100])
        with pytest.raises(DomainError):
            summarize([JurisdictionRecord("AA", "C1", 10)], [])


class TestJoin:
    def test_boundary_is_feasible(self):
        design = PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)
        required = min_contest_size(design).contest_size
        records = [
            JurisdictionRecord("AA", "C1", required),
            JurisdictionRecord("AA", "C2", required - 1),
        ]
        join = passive_feasibility_join(records, design)
        assert join.required_contest_size == required
        # only the jurisdiction one voter short is infeasible: half, no majority
        assert join.fraction_infeasible == 0.5
        assert join.states_where_majority_infeasible == 0

    def test_loosening_the_design_helps(self):
        records = [JurisdictionRecord("AA", "C1", 10_000)]
        strict = passive_feasibility_join(records, PassiveDesign(0.01, 0.07, 0.005, 0.05, 0.05))
        loose = passive_feasibility_join(records, PassiveDesign(0.05, 0.25, 0.005, 0.05, 0.05))
        assert strict.required_contest_size > loose.required_contest_size
        assert strict.fraction_infeasible >= loose.fraction_infeasible


class TestCountyFixture:
    def test_quantile_construction(self, turnout_script):
        count = turnout_script.COUNTY_COUNT
        turnouts = turnout_script.county_turnouts()
        assert len(turnouts) == count
        assert turnouts == sorted(turnouts)
        assert turnouts[(count - 1) // 2] == turnout_script.MEDIAN_TURNOUT

    def test_even_count_rejected(self, turnout_script):
        with pytest.raises(DomainError):
            turnout_script.county_turnouts(n=10)

    def test_bundled_file_matches_builder(self, data_dir, turnout_script):
        text = (data_dir / "county_turnout.csv").read_text(encoding="utf-8")
        assert emit_turnout(turnout_script.build_county_fixture()) == text

    def test_fixture_statistics(self, data_dir, turnout_script):
        records = load_turnout(str(data_dir / "county_turnout.csv"))
        summary = summarize(records, [43_000])
        assert summary.count == turnout_script.COUNTY_COUNT
        assert summary.median_turnout == turnout_script.MEDIAN_TURNOUT
        assert summary.fraction_below[43_000] > 2 / 3
        assert len({r.state for r in records}) == turnout_script.STATE_COUNT

    def test_majority_infeasible_states(self, data_dir, turnout_script):
        records = load_turnout(str(data_dir / "county_turnout.csv"))
        join = passive_feasibility_join(records, turnout_script.REFERENCE_DESIGN)
        assert join.states_where_majority_infeasible == 37

    def test_small_jurisdictions_cannot_monitor_tight_margins(self, data_dir):
        # every jurisdiction under 100,000 voters falls short of the 1%-margin,
        # 7%-detection requirement at any of the usual benign spoil rates
        records = [
            r
            for r in load_turnout(str(data_dir / "county_turnout.csv"))
            if r.turnout < 100_000
        ]
        assert records
        for b in (0.005, 0.01, 0.015):
            join = passive_feasibility_join(
                records, PassiveDesign(0.01, 0.07, b, 0.05, 0.05)
            )
            assert join.fraction_infeasible == 1.0
