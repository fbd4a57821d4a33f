"""Command-line front end: formats, exit codes, and agreement with the library."""

import contextlib
import io
import json
import math
import os
import re
import pathlib
import subprocess
import sys

import pytest

from bmdlimits.cli import FORMATS, emit, run
from bmdlimits.parallel import min_tests_iid
from bmdlimits.passive import PassiveDesign, min_contest_size
from bmdlimits.repro import build_manifest, manifest_passes
from bmdlimits.simulate import load_scenario


#: ``bmdlimits minimax --zeta-grid`` (csv): the slack and the failure-budget
#: split chosen in every row, not only the minimum sizes
ZETA_GRID_CSV = (
    "confidence,test_limit,altered_fraction,min_training_n,bound_millions,threshold,zeta,beta,published_millions,ratio_to_published\n"
    "0.99,2000,0.005,22777715,22.777715,0.1009849528,0.1172381803,0.009806357804,3.87,5.88571447\n"
    "0.99,2000,0.01,18866663,18.866663,0.1109849528,0.1166989819,0.009806357804,3.58,5.270017598\n"
    "0.99,2000,0.03,10209711,10.209711,0.1509849528,0.1150962201,0.009806357804,2.69,3.795431599\n"
    "0.99,2000,0.05,6388430,6.38843,0.1909849528,0.1135154709,0.009806357804,2.09,3.056665072\n"
    "0.95,2000,0.005,4384690,4.38469,0.2306397446,0.1124737178,0.04958887868,1.67,2.625562874\n"
    "0.95,2000,0.01,4028705,4.028705,0.2406397446,0.1119564319,0.04958887868,1.59,2.53377673\n"
    "0.95,2000,0.03,2964448,2.964448,0.2806397446,0.1114415251,0.04958887868,1.31,2.262937405\n"
    "0.95,2000,0.05,2272524,2.272524,0.3206397446,0.1104188051,0.04958887868,1.1,2.065930909\n"
    "0.99,,0.005,19030920,19.03092,0.1105037815,0.1166989819,,3.73,5.102123324\n"
    "0.99,,0.01,16010202,16.010202,0.1205037815,0.1161622633,,3.46,4.627226012\n"
    "0.99,,0.03,9037400,9.0374,0.1605037815,0.1145668729,,2.61,3.462605364\n"
    "0.99,,0.05,5797649,5.797649,0.2005037815,0.1129933938,,2.04,2.841984804\n"
    "0.95,,0.005,4069894,4.069894,0.2394157339,0.1119564319,,1.65,2.466602424\n"
    "0.95,,0.01,3750880,3.75088,0.2494157339,0.1119564319,,1.57,2.389095541\n"
    "0.95,,0.03,2787842,2.787842,0.2894157339,0.1109289865,,1.29,2.161117829\n"
    "0.95,,0.05,2153349,2.153349,0.3294157339,0.1104188051,,1.08,1.993841667\n"
)


#: a 401-digit integer, past the largest float (~1.8e308)
HUGE = "9" * 401


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


class TestEmit:
    ROWS = [{"a": 1, "b": 2.5}, {"a": 3, "b": None}]

    def test_csv(self):
        out = io.StringIO()
        emit(self.ROWS, "csv", out)
        assert out.getvalue() == "a,b\n1,2.5\n3,\n"

    def test_json_lines(self):
        out = io.StringIO()
        emit(self.ROWS, "json-lines", out)
        lines = out.getvalue().splitlines()
        assert [json.loads(line) for line in lines] == self.ROWS

    def test_markdown(self):
        out = io.StringIO()
        emit(self.ROWS, "markdown", out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("| a") and "|" in lines[1]
        assert len(lines) == 4

    def test_empty(self):
        out = io.StringIO()
        emit([], "csv", out)
        assert out.getvalue() == ""


class TestExitCodes:
    def test_success(self):
        code, text = invoke(["cardinality", "--preset", "optimistic"])
        assert code == 0
        assert "6144000" in text

    def test_domain_error_is_one(self):
        code, _ = invoke(
            ["passive", "--margin", "0", "--detect-rate", "0.07", "--base-rate", "0.005"]
        )
        assert code == 1

    def test_infeasible_is_one(self):
        code, _ = invoke(["oracle", "--population", "100", "--flawed", "0"])
        assert code == 1

    def test_missing_file_is_one(self):
        code, _ = invoke(["feasibility", "--data", "/nonexistent.csv"])
        assert code == 1

    def test_tiny_p_is_one(self, capsys):
        # ~3e300 tests: beyond what a float can certify; once an endless loop
        code, out = invoke(["parallel", "--p", "1e-300"])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "2**53" in err

    @pytest.mark.parametrize(
        "convention,rates",
        [
            (convention, rates)
            for convention in ("published", "strict")
            for rates in (
                # the size estimate overflows to inf; once an OverflowError traceback
                ["--margin", "1e-300", "--detect-rate", "1e-10", "--base-rate", "1e-310"],
                # ~3e200 voters: beyond 2**53; once an endless certificate walk
                ["--margin", "1e-200", "--detect-rate", "1e-5", "--base-rate", "1e-200"],
            )
        ],
        ids=["overflow", "beyond-2**53", "strict-overflow", "strict-beyond-2**53"],
    )
    def test_vanishing_spoil_rate_is_one(self, capsys, convention, rates):
        code, out = invoke(["passive", "--convention", convention, *rates])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "2**53" in err

    def test_negative_seed_flag_is_one(self, scenario_dir, capsys):
        # once numpy's "expected non-negative integer" traceback
        path = scenario_dir / "whole_space_flip.json"
        code, out = invoke(["simulate", "--scenario", str(path), "--seed", "-1"])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "seed" in err

    def test_trigger_on_huge_uniform_attribute_is_one(self, scenario_dir, tmp_path, capsys):
        # 5**20 values: once numpy's _ArrayMemoryError traceback (694 TiB)
        cfg = json.loads((scenario_dir / "whole_space_flip.json").read_text())
        cfg.update(space={"preset": "realistic"}, trials=10)
        cfg["mallory"]["trigger"] = {"time_per_selection": [0]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code, out = invoke(["simulate", "--scenario", str(path)])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "'time_per_selection'" in err
        # a trigger on one of the preset's small attributes still runs
        cfg["mallory"]["trigger"] = {"languages": [0]}
        path.write_text(json.dumps(cfg))
        assert invoke(["simulate", "--scenario", str(path)])[0] == 0

    def test_training_size_past_2_53_is_one(self, capsys):
        # once printed min_training_n 208243367595853463552, whose
        # certificate was checked in float steps of 32,768
        code, out = invoke(
            [
                "minimax",
                "--confidence",
                "0.99",
                "--test-limit",
                "2000",
                "--altered-fraction",
                "0.005",
                "--support-size",
                "100000000000000000000",
            ]
        )
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "2**53" in err

    def test_oracle_sample_past_2_53_is_one(self, capsys):
        # once printed 999,470,236,045,220,811: past 2**53, where n and n - 1
        # share a float, and 5.5x the ~1.81e17 that V(1 - alpha**(1/F)) gives
        code, out = invoke(["oracle", "--population", str(10**18), "--flawed", "15"])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "2**53" in err

    @pytest.mark.parametrize("fraction", ["1", "0.9999999999999999"])
    @pytest.mark.parametrize("sampling", ["with_replacement", "without_replacement"])
    def test_every_voter_altered(self, fraction, sampling):
        # with replacement this was a math domain error from log1p(-1); the
        # second fraction rounds half up to all 140 voters as well
        code, out = invoke(
            ["parallel", "--tests-per-day", "13", "--capacity", "140",
             "--altered-fraction", fraction, "--sampling", sampling]
        )
        assert (code, out.splitlines()[1]) == (0, f"1,140,13,140,1,{sampling}")

    @pytest.mark.parametrize(
        "argv,limit",
        [
            # 4,418,189,847 voters would do, at an alarm threshold past 1e7
            (["passive", "--margin", "0.0001", "--detect-rate", "0.07", "--base-rate", "0.005"],
             "larger thresholds are not searched"),
            # 5e8 voters are needed before a single one is altered
            (["parallel", "--tests-per-day", "13", "--capacity", "140", "--altered-fraction", "1e-9"],
             "larger counts are not searched"),
        ],
        ids=["passive-threshold", "parallel-machines"],
    )
    def test_search_cap_names_its_limit(self, capsys, argv, limit):
        # these caps bound the work, not the answer: once worded as if no answer existed
        code, out = invoke(argv)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: no ") and err.endswith(f"; {limit}\n")

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["minimax", "--confidence", "0.5"], "--confidence"),
            (["minimax", "--test-limit", "7"], "--test-limit"),
            (["minimax", "--beta", "0.001"], "--beta"),
            (["parallel", "--p", "0.5", "--tests", "5", "--tests-per-day", "13", "--capacity", "140",
              "--altered-fraction", "0.005"], "--tests-per-day"),
            (["parallel", "--tests-per-day", "13", "--capacity", "140", "--altered-fraction", "0.005",
              "--tests", "5"], "--tests"),
            (["parallel", "--p", "0.01", "--sampling", "without_replacement"], "--sampling"),
            (["simulate", "--scenario", "<flip>", "--workers", "0"], "workers"),
            (["simulate", "--scenario", "<flip>", "--workers", "-3"], "workers"),
        ],
        ids=["minimax-table-confidence", "minimax-table-test-limit", "minimax-table-beta",
             "parallel-p-and-electorate", "parallel-tests-and-electorate", "parallel-p-sampling",
             "simulate-workers-0", "simulate-workers-negative"],
    )
    def test_unused_input_is_one(self, scenario_dir, capsys, argv, flag):
        # each was once ignored: the default table, the electorate or one worker
        flip = str(scenario_dir / "whole_space_flip.json")
        code, out = invoke([flip if a == "<flip>" else a for a in argv])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and flag in err

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (["parallel", "--p", "0.5", "--tests", "5", "--confidence", "0.5"], ["--confidence"]),
            (["parallel", "--p", "0.5", "--tests", "5", "--capacity", "140"], ["--capacity"]),
            (["parallel", "--p", "0.5", "--tests", "5", "--altered-fraction", "0.3"], ["--altered-fraction"]),
            (["parallel", "--p", "0.01", "--capacity", "140"], ["--capacity"]),
            (["parallel", "--p", "0.01", "--altered-fraction", "0.3"], ["--altered-fraction"]),
            (["parallel", "--p", "0.01", "--capacity", "140", "--altered-fraction", "0.3"],
             ["--capacity", "--altered-fraction"]),
            (["feasibility", "--data", "<turnout>", "--detect-rate", "0.5"], ["--detect-rate"]),
            (["feasibility", "--data", "<turnout>", "--base-rate", "0.01"], ["--base-rate"]),
            (["feasibility", "--data", "<turnout>", "--fp", "0.2"], ["--fp"]),
            (["feasibility", "--data", "<turnout>", "--fn", "0.2"], ["--fn"]),
            (["feasibility", "--data", "<turnout>", "--detect-rate", "0.5", "--fp", "0.2"],
             ["--detect-rate", "--fp"]),
        ],
        ids=["parallel-tests-confidence", "parallel-tests-capacity", "parallel-tests-altered-fraction",
             "parallel-p-capacity", "parallel-p-altered-fraction", "parallel-p-electorate-flags",
             "feasibility-summary-detect-rate", "feasibility-summary-base-rate",
             "feasibility-summary-fp", "feasibility-summary-fn", "feasibility-summary-design-flags"],
    )
    def test_flag_not_read_by_form_is_one(self, data_dir, capsys, argv, flags):
        # each once printed the answer of a form that does not read it, exit 0
        turnout = str(data_dir / "county_turnout.csv")
        code, out = invoke([turnout if a == "<turnout>" else a for a in argv])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "not read with" in err
        assert all(flag in err for flag in flags)

    @pytest.mark.parametrize(
        "argv",
        [
            ["minimax", "--altered-fraction", "0.01", "--zeta", "0.5", "--zeta-grid"],
            ["parallel", "--tests-per-day", "13", "--capacity", "140", "--altered-fraction", "0.005",
             "--rounding", "floor"],
        ],
        ids=["zeta-and-zeta-grid", "rounding-removed"],
    )
    def test_conflicting_or_removed_flag_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["oracle", "--population", HUGE, "--flawed", "15"], "population"),
            (["parallel", "--tests-per-day", "13", "--capacity", HUGE, "--altered-fraction", "0.005"],
             "bmd_daily_capacity"),
            # tests per day cannot exceed the capacity, so the capacity bounds both
            (["parallel", "--tests-per-day", HUGE, "--capacity", HUGE, "--altered-fraction", "0.005"],
             "bmd_daily_capacity"),
            (["parallel", "--p", "0.5", "--tests", HUGE], "n"),
            (["minimax", "--altered-fraction", "0.01", "--test-limit", HUGE], "T"),
            (["minimax", "--support-size", HUGE], "S"),
            # in range, but two machines' electorate is not
            (["parallel", "--tests-per-day", "13", "--capacity", str(10**308), "--altered-fraction", "0.005"],
             "voters"),
            # in the float range, but math.lgamma overflows past about 2.56e305
            (["oracle", "--population", str(10**306), "--flawed", "15"], "population"),
            (["parallel", "--tests-per-day", "13", "--capacity", str(10**306), "--altered-fraction", "0.005",
              "--sampling", "without_replacement"], "voters"),
        ],
        ids=["oracle-population", "parallel-capacity", "parallel-tests-per-day", "parallel-tests",
             "minimax-test-limit", "minimax-support-size", "parallel-electorate",
             "oracle-population-lgamma", "parallel-electorate-lgamma"],
    )
    def test_integer_past_float_range_is_one(self, capsys, argv, field):
        # once "OverflowError: int too large to convert to float" tracebacks
        code, out = invoke(argv)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith(f"error: {field} is too large")

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["oracle"])
        assert exc.value.code == 2


class TestMalformedConfig:
    """A malformed config file ends in one ``error:`` line naming the file
    and the key, and exit code 1, never a traceback."""

    def fails_cleanly(self, argv, capsys, *needles):
        code, out = invoke(argv)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        for needle in needles:
            assert needle in err

    def test_space_attribute_without_cardinality(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"attributes": [{"name": "x", "cardinality": 3}, {"name": "y"}]}))
        self.fails_cleanly(["cardinality", "--space", str(path)], capsys, str(path), "'cardinality'")

    @pytest.mark.parametrize("attributes", [5, None])
    def test_space_attributes_not_a_list(self, scenario_dir, tmp_path, capsys, attributes):
        # once "TypeError: 'int' object is not iterable"
        space = {"attributes": attributes}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        self.fails_cleanly(["cardinality", "--space", str(path)], capsys, str(path), "'attributes'")
        cfg = json.loads((scenario_dir / "subpopulation_attack.json").read_text())
        cfg["space"] = space
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(["simulate", "--scenario", str(path)], capsys, str(path), "'attributes'")

    def test_scenario_without_mallory(self, scenario_dir, tmp_path, capsys):
        cfg = json.loads((scenario_dir / "whole_space_flip.json").read_text())
        del cfg["mallory"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(["simulate", "--scenario", str(path)], capsys, str(path), "'mallory'")

    @pytest.mark.parametrize("kind", ["parallel", None], ids=["explicit", "default"])
    def test_passive_block_in_parallel_scenario(self, scenario_dir, tmp_path, capsys, kind):
        # once ran parallel testing without a word about the passive block
        cfg = json.loads((scenario_dir / "whole_space_flip.json").read_text())
        cfg["passive"] = {"detect_rate": 0.25, "base_rate": 0.005, "alarm_threshold": 277}
        if kind is None:
            del cfg["kind"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(["simulate", "--scenario", str(path)], capsys, str(path), "kind", "'passive'")

    @pytest.mark.parametrize("block", ["missing", "null"])
    def test_passive_scenario_without_passive_block(self, scenario_dir, tmp_path, capsys, block):
        # once "error: scenario has no passive parameters", naming neither file nor key
        cfg = json.loads((scenario_dir / "passive_poisson_gap.json").read_text())
        if block == "missing":
            del cfg["passive"]
        else:
            cfg["passive"] = None
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(
            ["simulate", "--scenario", str(path)], capsys,
            f"error: {path}: kind 'passive' needs a 'passive' block",
        )

    def test_scenario_not_json(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"kind": "parallel",')
        self.fails_cleanly(["simulate", "--scenario", str(path)], capsys, str(path), "JSON")

    @pytest.mark.parametrize(
        "section,key",
        [
            (None, "trials"),
            (None, "n_voters"),
            (None, "seed"),
            ("pat", "test_count"),
            ("passive", "alarm_threshold"),
            ("passive", "base_rate"),
            ("mallory", "flip_prob"),
        ],
    )
    def test_scenario_value_not_a_number(self, scenario_dir, tmp_path, capsys, section, key):
        cfg = json.loads((scenario_dir / "passive_poisson_gap.json").read_text())
        (cfg if section is None else cfg[section])[key] = "many"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(
            ["simulate", "--scenario", str(path)], capsys, str(path), repr(key), "'many'"
        )

    @pytest.mark.parametrize(
        "edit,key,bad",
        [
            (lambda c: c["mallory"].update(trigger=[7]), "'trigger'", "[7]"),
            (lambda c: c["mallory"]["trigger"].update(profile=7), "'trigger'", "7"),
            (lambda c: c["mallory"]["trigger"].update(profile=["x"]), "'trigger'", "'x'"),
            (lambda c: c.update(pat={"mode": "script", "scripts": [[1, 0], ["a", 1]]}), "'scripts'", "'a'"),
            (lambda c: c.update(pat={"mode": "script", "scripts": [[1, 0], [0.5, 1]]}), "'scripts'", "0.5"),
            (
                lambda c: c.update(voter_distribution={"form": "factored", "weights": {"review": ["x", 1]}}),
                "'weights'",
                "'x'",
            ),
            (
                lambda c: c.update(voter_distribution={"form": "sparse", "support": [[0, 1]], "weights": ["x"]}),
                "'weights'",
                "'x'",
            ),
            (
                lambda c: c.update(voter_distribution={"form": "sparse", "support": [[0, "x"]], "weights": [1]}),
                "'support'",
                "'x'",
            ),
            (
                lambda c: c.update(voter_distribution={"form": "sparse", "support": [[0, True], [1, 1]], "weights": [0.5, 0.5]}),
                "'support'",
                "True",
            ),
            (
                lambda c: c.update(voter_distribution={"form": "sparse", "support": [[0, 0.5]], "weights": [1]}),
                "'support'",
                "0.5",
            ),
        ],
        ids=[
            "trigger-list",
            "trigger-value-scalar",
            "trigger-value-string",
            "script-coordinate-string",
            "script-coordinate-fraction",
            "factored-weight-string",
            "sparse-weight-string",
            "sparse-coordinate-string",
            "sparse-coordinate-boolean",
            "sparse-coordinate-fraction",
        ],
    )
    def test_scenario_value_malformed(self, scenario_dir, tmp_path, capsys, edit, key, bad):
        cfg = json.loads((scenario_dir / "subpopulation_attack.json").read_text())
        edit(cfg)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(["simulate", "--scenario", str(path)], capsys, str(path), key, bad)

    @pytest.mark.parametrize(
        "dist",
        [
            {"form": "factored", "weights": {"profile": [float("nan")] + [0.01] * 99}},
            {"form": "sparse", "support": [[7, 0], [7, 1]], "weights": [float("nan"), 1.0]},
        ],
        ids=["factored", "sparse"],
    )
    def test_scenario_nan_weight(self, scenario_dir, tmp_path, capsys, dist):
        # once numpy's "p < 0, p > 1 or p is NaN" traceback
        cfg = json.loads((scenario_dir / "subpopulation_attack.json").read_text())
        cfg["voter_distribution"] = dist
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(["simulate", "--scenario", str(path)], capsys, "sum to nan")

    @pytest.mark.parametrize("value", [5.7, True, "5"])
    @pytest.mark.parametrize("section,key", [(None, "trials"), ("pat", "test_count")])
    def test_scenario_integer_not_integral(
        self, scenario_dir, tmp_path, capsys, section, key, value
    ):
        cfg = json.loads((scenario_dir / "whole_space_flip.json").read_text())
        (cfg if section is None else cfg[section])[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(
            ["simulate", "--scenario", str(path)], capsys, str(path), repr(key), repr(value)
        )

    @pytest.mark.parametrize(
        "key,value,needle",
        [
            ("seed", -1, "seed must be >= 0"),
            ("n_voters", 10**20, "n_voters must be below 2**63"),
            # once listed 2.4e8 chunk bounds and ended in a MemoryError
            ("trials", 10**12, "trials must be at most 2**30"),
        ],
        ids=["negative-seed", "huge-n_voters", "huge-trials"],
    )
    def test_scenario_value_out_of_range(
        self, scenario_dir, tmp_path, capsys, key, value, needle
    ):
        # once numpy's ValueError and OverflowError tracebacks
        cfg = json.loads((scenario_dir / "passive_poisson_gap.json").read_text())
        cfg[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        self.fails_cleanly(["simulate", "--scenario", str(path)], capsys, needle)

    def test_scenario_integral_float_accepted(self, scenario_dir, tmp_path):
        cfg = json.loads((scenario_dir / "whole_space_flip.json").read_text())
        cfg["trials"], cfg["pat"]["test_count"] = 5.0, 3.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        _, scenario = load_scenario(str(path))
        assert (scenario.trials, scenario.pat.test_count) == (5, 3)
        assert type(scenario.trials) is int and type(scenario.pat.test_count) is int

    def test_space_cardinality_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"attributes": [{"name": "x", "cardinality": "three"}]}))
        self.fails_cleanly(
            ["cardinality", "--space", str(path)], capsys, str(path), "'cardinality'", "'three'"
        )

    def test_turnout_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "turnout.csv"
        path.write_bytes(b"state,jurisdiction,turnout\nAA,Caf\xe9,1200\n")
        self.fails_cleanly(
            ["feasibility", "--data", str(path)], capsys, str(path), "line 2", "UTF-8"
        )


COUNTY_CSV = str(pathlib.Path(__file__).parent / "data" / "county_turnout.csv")
_PASSIVE_FLAGS = dict.fromkeys(["--margin", "--detect-rate", "--base-rate", "--fp", "--fn"], float)
_ELECTORATE = ["parallel", "--tests-per-day", "13", "--capacity", "140",
               "--altered-fraction", "0.005", "--confidence", "0.95"]
_ELECTORATE_FLAGS = {"--tests-per-day": int, "--capacity": int, "--altered-fraction": float,
                     "--confidence": float}
_CELL = ["minimax", "--confidence", "0.99", "--test-limit", "2000", "--altered-fraction", "0.005"]
_CELL_FLAGS = {"--confidence": float, "--test-limit": int, "--altered-fraction": float,
               "--support-size": int, "--beta": float}
#: One valid call per form of every subcommand but ``simulate``, and the
#: type of each numeric flag that form reads.
SWEEP_FORMS = {
    "passive": (["passive", "--margin", "0.03", "--detect-rate", "0.07", "--base-rate", "0.005"],
                _PASSIVE_FLAGS),
    "passive grid": (["passive", "--margin", "0.03,0.05", "--detect-rate", "0.07",
                      "--base-rate", "0.005"], _PASSIVE_FLAGS),
    "parallel --p": (["parallel", "--p", "0.01", "--confidence", "0.95"],
                     {"--p": float, "--confidence": float}),
    "parallel --tests": (["parallel", "--p", "0.5", "--tests", "5"], {"--p": float, "--tests": int}),
    "parallel --tests-per-day": (_ELECTORATE, _ELECTORATE_FLAGS),
    "parallel --tests-per-day without_replacement": (
        [*_ELECTORATE, "--sampling", "without_replacement"], _ELECTORATE_FLAGS),
    "oracle": (["oracle", "--population", "2980", "--flawed", "15", "--confidence", "0.95"],
               {"--population": int, "--flawed": int, "--confidence": float}),
    "minimax cell": (_CELL, {**_CELL_FLAGS, "--zeta": float}),
    "minimax cell --zeta-grid": ([*_CELL, "--zeta-grid"], _CELL_FLAGS),
    "minimax table": (["minimax"], {"--support-size": int, "--zeta": float}),
    "feasibility": (["feasibility", "--data", COUNTY_CSV], {"--threshold": int}),
    "feasibility --margin": (["feasibility", "--data", COUNTY_CSV, "--margin", "0.03"],
                             {**_PASSIVE_FLAGS, "--threshold": int}),
}
#: 1e308 and 1e20 go to an int flag as integers; the other floats are its type errors
SWEEP_VALUES = (0, 1, -1, 1e-300, math.nextafter(1.0, 0.0), 1e308, math.nan, math.inf, 1e20,
                2**63, "x")


def _flag_text(value, kind) -> str:
    if kind is int and isinstance(value, float) and math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class TestNumericFlagSweep:
    """Every numeric flag of every form, one at a time from a valid call, over
    the edge values: each call answers (exit 0), ends in one ``error:`` line
    (exit 1), or fails argparse's type check (exit 2), never in a traceback."""

    @pytest.mark.parametrize(
        "form,flag",
        [(form, flag) for form, (_, flags) in SWEEP_FORMS.items() for flag in flags],
    )
    def test_edge_values(self, form, flag):
        base, flags = SWEEP_FORMS[form]
        wrong = []
        for value in SWEEP_VALUES:
            text = _flag_text(value, flags[flag])
            argv = list(base)
            if flag in argv:
                argv[argv.index(flag) + 1] = text
            else:
                argv += [flag, text]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
            lines = err.getvalue().splitlines()
            ok = (
                code == 0
                or (code == 1 and len(lines) == 1 and lines[0].startswith("error: "))
                or (code == 2 and re.search(rf"argument {flag}: invalid (int|float) value", lines[-1]))
            )
            if not ok or "Traceback" in err.getvalue():
                wrong.append((text, code, err.getvalue()))
        assert wrong == []


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["bmdlimits", "bmdlimits.cli"])
    def test_python_dash_m(self, module):
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "cardinality", "--preset", "optimistic"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "space,cardinality\noptimistic,6144000\n")


class TestFormats:
    def test_all_formats_render(self):
        for fmt in FORMATS:
            code, text = invoke(
                ["--format", fmt, "parallel", "--p", "0.25", "--confidence", "0.95"]
            )
            assert code == 0
            assert "11" in text

    def test_env_var_default(self, monkeypatch):
        # --format is the only way to choose the format: the variable leaves CSV
        monkeypatch.setenv("BMDLIMITS_FORMAT", "json-lines")
        code, text = invoke(["cardinality", "--preset", "optimistic"])
        assert (code, text) == (0, "space,cardinality\noptimistic,6144000\n")

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("BMDLIMITS_FORMAT", "csv")
        code, text = invoke(["--format", "json-lines", "cardinality", "--preset", "optimistic"])
        assert code == 0
        assert json.loads(text)["cardinality"] == 6_144_000


class TestAgreementWithLibrary:
    def test_passive_single(self):
        code, text = invoke(
            [
                "--format",
                "json-lines",
                "passive",
                "--margin",
                "0.03",
                "--detect-rate",
                "0.07",
                "--base-rate",
                "0.005",
            ]
        )
        assert code == 0
        row = json.loads(text)
        sol = min_contest_size(PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05))
        assert row["contest_size"] == sol.contest_size == 52_310
        assert row["alarm_threshold"] == sol.alarm_threshold

    def test_passive_grid_shape(self):
        code, text = invoke(
            [
                "--format",
                "json-lines",
                "passive",
                "--margin",
                "0.03,0.05",
                "--detect-rate",
                "0.07,0.25",
                "--base-rate",
                "0.005",
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == 4

    def test_passive_grid_requires_equal_budgets(self):
        code, _ = invoke(
            [
                "passive",
                "--margin",
                "0.03,0.05",
                "--detect-rate",
                "0.07",
                "--base-rate",
                "0.005",
                "--fp",
                "0.05",
                "--fn",
                "0.01",
            ]
        )
        assert code == 1

    def test_parallel_min_tests(self):
        code, text = invoke(
            ["--format", "json-lines", "parallel", "--p", "0.01", "--confidence", "0.95"]
        )
        assert code == 0
        assert json.loads(text)["min_tests"] == min_tests_iid(0.01, 0.95) == 299

    def test_parallel_electorate(self):
        code, text = invoke(
            [
                "--format",
                "json-lines",
                "parallel",
                "--tests-per-day",
                "13",
                "--capacity",
                "140",
                "--altered-fraction",
                "0.005",
                "--confidence",
                "0.95",
            ]
        )
        assert code == 0
        row = json.loads(text)
        assert row["bmds"] == 47
        assert row["voters"] == 6_580

    def test_oracle(self):
        code, text = invoke(
            [
                "--format",
                "json-lines",
                "oracle",
                "--population",
                "2980",
                "--flawed",
                "15",
                "--confidence",
                "0.95",
            ]
        )
        assert code == 0
        assert json.loads(text)["min_samples"] == 539

    def test_minimax_table_has_published_columns(self):
        code, text = invoke(["--format", "json-lines", "minimax"])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == 16
        assert all("published_millions" in r and "ratio_to_published" in r for r in rows)

    def test_minimax_zeta_grid_is_pinned(self):
        code, text = invoke(["--format", "csv", "minimax", "--zeta-grid"])
        assert code == 0
        assert text == ZETA_GRID_CSV

    def test_minimax_zeta_grid_bits(self):
        # math.exp of np.linspace's exponents; numpy's AVX-512 exp gave ...875
        code, text = invoke(["--format", "json-lines", "minimax", "--zeta-grid"])
        assert code == 0
        row = json.loads(text.splitlines()[6])
        assert (row["test_limit"], row["confidence"], row["altered_fraction"]) == (2000, 0.95, 0.03)
        assert (row["min_training_n"], row["zeta"]) == (2_964_448, 0.11144152514667877)

    def test_simulate_scenario(self, scenario_dir):
        code, text = invoke(
            [
                "--format",
                "json-lines",
                "simulate",
                "--scenario",
                str(scenario_dir / "whole_space_flip.json"),
            ]
        )
        assert code == 0
        row = json.loads(text)
        assert abs(row["empirical_detection"]["value"] - 0.96875) < 0.006

    def test_simulate_worker_invariance(self, scenario_dir):
        args = ["simulate", "--scenario", str(scenario_dir / "whole_space_flip.json")]
        _, a = invoke(args + ["--workers", "1"])
        _, b = invoke(args + ["--workers", "3"])
        assert a == b

    def test_feasibility_summary(self, data_dir):
        code, text = invoke(
            [
                "--format",
                "json-lines",
                "feasibility",
                "--data",
                str(data_dir / "county_turnout.csv"),
            ]
        )
        assert code == 0
        metrics = {r["metric"]: r["value"] for r in map(json.loads, text.splitlines())}
        assert metrics["jurisdictions"] == 3017
        assert metrics["median_turnout"] == 2980
        assert metrics["fraction_below_43000"] > 2 / 3

    def test_feasibility_join(self, data_dir):
        code, text = invoke(
            [
                "--format",
                "json-lines",
                "feasibility",
                "--data",
                str(data_dir / "county_turnout.csv"),
                "--margin",
                "0.03",
            ]
        )
        assert code == 0
        metrics = {r["metric"]: r["value"] for r in map(json.loads, text.splitlines())}
        assert metrics["required_contest_size"] == 52_310
        assert metrics["states_where_majority_infeasible"] == 37


class TestRepro:
    def test_exit_code_matches_manifest(self):
        code, text = invoke(["--format", "json-lines", "repro"])
        assert code == (0 if manifest_passes(build_manifest()) else 1)
        rows = [json.loads(line) for line in text.splitlines()]
        assert all(r["status"] in ("PASS", "DIFF", "FAIL") for r in rows)

    def test_byte_stable(self):
        _, a = invoke(["repro"])
        _, b = invoke(["repro"])
        assert a == b
