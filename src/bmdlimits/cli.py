"""Command-line front end.

Every subcommand is a thin shim over one library call; the CLI adds parsing
and formatting only.  Output is a stream of records rendered as CSV (default),
an aligned markdown table, or JSON lines, chosen by ``--format`` alone.

``parallel``, ``minimax`` and ``feasibility`` have more than one form; each
form reads its own flags (``_read``), and any other flag given is an error.

Exit codes: 0 success; 1 domain or infeasibility errors (and a failing
reproduction manifest); 2 usage errors.

Each handler imports the library modules it calls, so a call loads only
what its answer needs: an answer that needs only ``math`` loads no numpy.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .errors import DomainError

FORMATS = ("csv", "markdown", "json-lines")

#: ``sorted(space.PRESETS)``, spelled out so that parsing loads no ``space``.
PRESET_NAMES = ("optimistic", "realistic")


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
        import json  # here, so that CSV and markdown output load no json

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


def _read(args, form: str, **reads) -> argparse.Namespace:
    """The flags that ``form`` reads, each at its given value or its default
    in ``reads``.  Multi-form subcommands parse with ``argparse.SUPPRESS``, so
    ``args`` holds only the flags given; one that ``form`` does not read is a
    ``DomainError`` naming it."""
    given = {k: v for k, v in vars(args).items() if k not in ("command", "format")}
    unread = ", ".join("--" + k.replace("_", "-") for k in given if k not in reads)
    if unread:
        raise DomainError(f"{unread}: not read with {form}")
    return argparse.Namespace(**{**reads, **given})


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
                **sol._asdict(),
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

    if "tests_per_day" in args:
        a = _read(
            args, "--tests-per-day", tests_per_day=None, capacity=None,
            altered_fraction=None, confidence=0.95, sampling="with_replacement",
        )
        if a.capacity is None or a.altered_fraction is None:
            raise DomainError("--tests-per-day needs --capacity and --altered-fraction")
        q = BudgetedTestQuery(a.tests_per_day, a.capacity, a.altered_fraction, a.confidence)
        return [min_electorate_for_budget(q, a.sampling)._asdict()]
    if "p" not in args:
        raise DomainError("need either --p or --tests-per-day")
    if "tests" in args:
        a = _read(args, "--tests", p=None, tests=None)
        return [{"p": a.p, "tests": a.tests, "detection": detection_prob_iid(a.p, a.tests)}]
    a = _read(args, "--p alone", p=None, confidence=0.95)
    t = min_tests_iid(a.p, a.confidence)
    return [
        {
            "p": a.p,
            "confidence": a.confidence,
            "min_tests": t,
            "achieved_detection": detection_prob_iid(a.p, t),
        }
    ]


def _cmd_oracle(args) -> list[dict]:
    from .parallel import OracleBoundQuery, oracle_min_samples

    q = OracleBoundQuery(args.population, args.flawed, args.confidence)
    return [{**q._asdict(), "min_samples": oracle_min_samples(q)}]


def _cmd_minimax(args) -> list[dict]:
    from .minimax import DEFAULT_SUPPORT_SIZE, FixedZeta, GridZeta, MinimaxQuery, bound_row, table_lower_bounds

    cell = "altered_fraction" in args
    reads = dict(support_size=DEFAULT_SUPPORT_SIZE, zeta=1.0, zeta_grid=False)
    if cell:
        reads.update(altered_fraction=None, confidence=0.95, test_limit=None, beta=None)
    a = _read(args, "--altered-fraction" if cell else "the 16-row table", **reads)
    zeta = GridZeta() if a.zeta_grid else FixedZeta(a.zeta)
    if not cell:
        return table_lower_bounds(S=a.support_size, zeta=zeta)
    q = MinimaxQuery(
        r=a.altered_fraction,
        alpha=1.0 - a.confidence,
        T=a.test_limit or None,
        S=a.support_size,
        beta=a.beta,
        zeta=zeta,
    )
    return [bound_row(a.confidence, q)]


def _cmd_cardinality(args) -> list[dict]:
    from .space import PRESETS, load_space

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
        scenario = scenario._replace(seed=args.seed)
    run = run_passive_sim if kind == "passive" else run_parallel_sim
    report = run(scenario, workers=args.workers)
    return [report.to_dict()]


def _cmd_feasibility(args) -> list[dict]:
    from .feasibility import load_turnout, passive_feasibility_join, summarize

    join = "margin" in args
    reads = dict(data=None, threshold=[43_000])
    if join:
        reads.update(margin=None, detect_rate=0.07, base_rate=0.005, fp=0.05, fn=0.05)
    a = _read(args, "--margin" if join else "the summary", **reads)
    records = load_turnout(a.data)
    summary = summarize(records, a.threshold)
    metrics = {
        "jurisdictions": summary.count,
        "median_turnout": summary.median_turnout,
        **{f"fraction_below_{t}": frac for t, frac in summary.fraction_below.items()},
        f"states_where_majority_below_{a.threshold[0]}": summary.states_where_majority_below,
    }
    if join:
        from .passive import PassiveDesign

        design = PassiveDesign(a.margin, a.detect_rate, a.base_rate, a.fp, a.fn)
        metrics.update(passive_feasibility_join(records, design)._asdict())
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
        default="csv",
        help="output format (default: csv)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("passive", help="minimum contest size for spoilage monitoring")
    p.add_argument("--margin", required=True, help="margin(s), comma-separated")
    p.add_argument("--detect-rate", required=True, help="detection rate(s)")
    p.add_argument("--base-rate", required=True, help="benign spoil rate(s)")
    p.add_argument("--fp", type=float, default=0.05)
    p.add_argument("--fn", type=float, default=0.05)
    p.add_argument("--convention", choices=("published", "strict"), default="published")

    # subcommands with more than one form hold only the flags given (see _read)
    forms = dict(argument_default=argparse.SUPPRESS)

    p = sub.add_parser("parallel", help="test counts and electorate sizes", **forms)
    p.add_argument("--p", type=float, help="per-test detection probability")
    p.add_argument("--tests", type=int, help="evaluate detection at this test count")
    p.add_argument("--confidence", type=float)
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

    p = sub.add_parser("minimax", help="training-sample lower bounds", **forms)
    p.add_argument("--confidence", type=float, help="single-cell confidence (default: 0.95)")
    p.add_argument("--test-limit", type=int, help="test budget; omit or 0 for unbounded")
    p.add_argument("--altered-fraction", type=float, help="single-cell mode")
    p.add_argument("--support-size", type=int)
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

    p = sub.add_parser("feasibility", help="turnout data vs monitoring requirements", **forms)
    p.add_argument("--data", required=True, help="CSV: state,jurisdiction,turnout")
    p.add_argument("--margin", type=float)
    p.add_argument("--detect-rate", type=float)
    p.add_argument("--base-rate", type=float)
    p.add_argument("--fp", type=float)
    p.add_argument("--fn", type=float)
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
