"""Command-line front end.

Every subcommand is a thin shim over one library call; the CLI adds parsing
and formatting only.  Output is a stream of records rendered as CSV (default),
an aligned markdown table, or JSON lines; the default format can be set with
the ``BMDLIMITS_FORMAT`` environment variable.

Exit codes: 0 success; 1 domain or infeasibility errors (and a failing
reproduction manifest); 2 usage errors.

Each handler imports the library modules it calls, so a call loads only
what its answer needs: an answer that needs only ``math`` loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from typing import Sequence

from .errors import DomainError
from .space import DEFAULT_SUPPORT_SIZE, PRESETS

FORMATS = ("csv", "markdown", "json-lines")

PRESET_NAMES = tuple(sorted(PRESETS))


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    if v is None:
        return ""
    return str(v)


def emit(rows: Sequence[dict], fmt: str, out=None) -> None:
    """Render records in the chosen format; all rows share the first row's keys."""
    out = out or sys.stdout
    if not rows:
        return
    keys = list(rows[0].keys())
    if fmt == "json-lines":
        for row in rows:
            out.write(json.dumps(row) + "\n")
        return
    cells = [[_format_value(row.get(k)) for k in keys] for row in rows]
    if fmt == "csv":
        out.write(",".join(keys) + "\n")
        for row in cells:
            out.write(",".join(row) + "\n")
        return
    if fmt == "markdown":
        widths = [
            max(len(k), *(len(r[i]) for r in cells)) for i, k in enumerate(keys)
        ]
        out.write("| " + " | ".join(k.ljust(w) for k, w in zip(keys, widths)) + " |\n")
        out.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
        for row in cells:
            out.write("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |\n")
        return
    raise DomainError(f"unknown format {fmt!r}")


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}")


# -- subcommand handlers -----------------------------------------------------


def _cmd_passive(args) -> list[dict]:
    from .passive import PassiveDesign, min_contest_size, table_passive

    margins = _csv_floats(args.margin)
    detect_rates = _csv_floats(args.detect_rate)
    base_rates = _csv_floats(args.base_rate)
    if len(margins) == len(detect_rates) == len(base_rates) == 1:
        design = PassiveDesign(margins[0], detect_rates[0], base_rates[0], args.fp, args.fn)
        sol = min_contest_size(design, args.convention)
        return [
            {
                "margin": margins[0],
                "detect_rate": detect_rates[0],
                "base_rate": base_rates[0],
                **asdict(sol),
            }
        ]
    if args.fp != args.fn:
        raise DomainError("grid mode uses one shared budget; pass equal --fp/--fn")
    return table_passive(args.fp, margins, detect_rates, base_rates, args.convention)


def _cmd_parallel(args) -> list[dict]:
    from .parallel import (
        BudgetedTestQuery,
        detection_prob_iid,
        min_electorate_for_budget,
        min_tests_iid,
    )

    if args.tests_per_day is not None:
        if args.capacity is None or args.altered_fraction is None:
            raise DomainError("--tests-per-day needs --capacity and --altered-fraction")
        if args.p is not None or args.tests is not None:
            raise DomainError("--tests-per-day takes neither --p nor --tests")
        q = BudgetedTestQuery(
            args.tests_per_day, args.capacity, args.altered_fraction, args.confidence
        )
        return [asdict(min_electorate_for_budget(q, args.sampling or "with_replacement"))]
    if args.p is None:
        raise DomainError("need either --p or --tests-per-day")
    if args.sampling is not None:
        raise DomainError("--sampling needs --tests-per-day")
    if args.tests is not None:
        return [
            {
                "p": args.p,
                "tests": args.tests,
                "detection": detection_prob_iid(args.p, args.tests),
            }
        ]
    t = min_tests_iid(args.p, args.confidence)
    return [
        {
            "p": args.p,
            "confidence": args.confidence,
            "min_tests": t,
            "achieved_detection": detection_prob_iid(args.p, t),
        }
    ]


def _cmd_oracle(args) -> list[dict]:
    from .parallel import OracleBoundQuery, oracle_min_samples

    q = OracleBoundQuery(args.population, args.flawed, args.confidence)
    return [{**asdict(q), "min_samples": oracle_min_samples(q)}]


def _zeta_strategy(args):
    from .minimax import FixedZeta, GridZeta

    if args.zeta is not None:
        return FixedZeta(args.zeta)
    if args.zeta_grid:
        return GridZeta()
    return FixedZeta()


def _cmd_minimax(args) -> list[dict]:
    from .minimax import MinimaxQuery, bound_row, table_lower_bounds

    if args.altered_fraction is not None:
        confidence = 0.95 if args.confidence is None else args.confidence
        T = None if args.test_limit in (None, 0) else args.test_limit
        q = MinimaxQuery(
            r=args.altered_fraction,
            alpha=1.0 - confidence,
            T=T,
            S=args.support_size,
            beta=args.beta,
            zeta=_zeta_strategy(args),
        )
        return [bound_row(confidence, q)]
    if (args.confidence, args.test_limit, args.beta) != (None, None, None):
        raise DomainError("--confidence, --test-limit and --beta need --altered-fraction")
    return table_lower_bounds(S=args.support_size, zeta=_zeta_strategy(args))


def _cmd_cardinality(args) -> list[dict]:
    from .space import load_space

    if args.space:
        space = load_space(args.space)
        name = args.space
    else:
        space = PRESETS[args.preset]()
        name = args.preset
    return [{"space": name, "cardinality": space.cardinality}]


def _cmd_simulate(args) -> list[dict]:
    from .simulate import load_scenario, run_parallel_sim, run_passive_sim

    kind, scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    run = run_passive_sim if kind == "passive" else run_parallel_sim
    report = run(scenario, workers=args.workers)
    return [report.to_dict()]


def _cmd_feasibility(args) -> list[dict]:
    from .feasibility import load_turnout, passive_feasibility_join, summarize

    records = load_turnout(args.data)
    thresholds = args.threshold or [43_000]
    summary = summarize(records, thresholds)
    metrics = {
        "jurisdictions": summary.count,
        "median_turnout": summary.median_turnout,
        **{f"fraction_below_{t}": frac for t, frac in summary.fraction_below.items()},
        f"states_where_majority_below_{thresholds[0]}": summary.states_where_majority_below,
    }
    if args.margin is not None:
        from .passive import PassiveDesign

        design = PassiveDesign(
            args.margin, args.detect_rate, args.base_rate, args.fp, args.fn
        )
        metrics.update(asdict(passive_feasibility_join(records, design)))
    return [{"metric": k, "value": v} for k, v in metrics.items()]


def _cmd_repro(args) -> tuple[list[dict], int]:
    from .repro import build_manifest, manifest_passes

    manifest = build_manifest()
    rows = [r.to_record() for r in manifest]
    return rows, 0 if manifest_passes(manifest) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmdlimits",
        description="Statistical limits of testing ballot-marking devices",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=os.environ.get("BMDLIMITS_FORMAT", "csv"),
        help="output format (default: csv, or $BMDLIMITS_FORMAT)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("passive", help="minimum contest size for spoilage monitoring")
    p.add_argument("--margin", required=True, help="margin(s), comma-separated")
    p.add_argument("--detect-rate", required=True, help="detection rate(s)")
    p.add_argument("--base-rate", required=True, help="benign spoil rate(s)")
    p.add_argument("--fp", type=float, default=0.05)
    p.add_argument("--fn", type=float, default=0.05)
    p.add_argument("--convention", choices=("published", "strict"), default="published")

    p = sub.add_parser("parallel", help="test counts and electorate sizes")
    p.add_argument("--p", type=float, help="per-test detection probability")
    p.add_argument("--tests", type=int, help="evaluate detection at this test count")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--tests-per-day", type=int, help="per-machine daily test budget")
    p.add_argument("--capacity", type=int, help="per-machine daily transaction capacity")
    p.add_argument("--altered-fraction", type=float)
    p.add_argument(
        "--sampling",
        choices=("with_replacement", "without_replacement"),
        help="electorate sampling model (default: with_replacement)",
    )

    p = sub.add_parser("oracle", help="printout sample size for an error oracle")
    p.add_argument("--population", type=int, required=True)
    p.add_argument("--flawed", type=int, required=True)
    p.add_argument("--confidence", type=float, default=0.95)

    p = sub.add_parser("minimax", help="training-sample lower bounds")
    p.add_argument("--confidence", type=float, help="single-cell confidence (default: 0.95)")
    p.add_argument("--test-limit", type=int, help="test budget; omit or 0 for unbounded")
    p.add_argument("--altered-fraction", type=float, help="single-cell mode")
    p.add_argument("--support-size", type=int, default=DEFAULT_SUPPORT_SIZE)
    p.add_argument("--beta", type=float, help="estimation-failure budget split")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--zeta", type=float, help="fixed slack value in (0, 1]")
    g.add_argument("--zeta-grid", action="store_true", help="maximize over 1,000 log-spaced slack values in [0.01, 1]")

    p = sub.add_parser("cardinality", help="transaction-space size")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=PRESET_NAMES)
    g.add_argument("--space", help="JSON space definition file")

    p = sub.add_parser("simulate", help="run a Monte Carlo scenario file")
    p.add_argument("--scenario", required=True, help="JSON scenario file")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, help="override the scenario seed")

    p = sub.add_parser("feasibility", help="turnout data vs monitoring requirements")
    p.add_argument("--data", required=True, help="CSV: state,jurisdiction,turnout")
    p.add_argument("--margin", type=float)
    p.add_argument("--detect-rate", type=float, default=0.07)
    p.add_argument("--base-rate", type=float, default=0.005)
    p.add_argument("--fp", type=float, default=0.05)
    p.add_argument("--fn", type=float, default=0.05)
    p.add_argument(
        "--threshold", type=int, action="append", help="turnout threshold (repeatable)"
    )

    sub.add_parser("repro", help="regression manifest against published values")
    return parser


_HANDLERS = {
    "passive": _cmd_passive,
    "parallel": _cmd_parallel,
    "oracle": _cmd_oracle,
    "minimax": _cmd_minimax,
    "cardinality": _cmd_cardinality,
    "simulate": _cmd_simulate,
    "feasibility": _cmd_feasibility,
}


def run(argv: Sequence[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "repro":
            rows, code = _cmd_repro(args)
        else:
            rows = _HANDLERS[args.command](args)
            code = 0
        emit(rows, args.format, out)
        return code
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
