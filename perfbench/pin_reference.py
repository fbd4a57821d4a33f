#!/usr/bin/env python3
"""Write reference.json: the answers of the benchmark's fixed inputs.

    python3 perfbench/pin_reference.py

Run from the repository root.  The committed file was pinned from the commit
that introduced the benchmark; re-pin only when a change is meant to alter a
published answer, and say so in that change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as w  # noqa: E402

bl = w.bl


def main() -> None:
    ref: dict = {"cli": {}, "solve": {}}
    for ex_id, argv, answers, ids in w.CLI_EXAMPLES:
        if ex_id == "cardinality_space":
            ref["cli"][ex_id] = {"exit": 0, "rows": []}  # checked against the generated space
            continue
        code, stdout = w.run_cli(argv)
        ref["cli"][ex_id] = {"exit": code, "rows": w.answer_rows(stdout, ids + answers)}
    rows = w.repro.build_manifest()
    ref["solve"]["manifest"] = {
        "rows": {r.artifact: [r.actual, r.to_record()["status"]] for r in rows},
        "passes": w.repro.manifest_passes(rows),
    }
    for budget in (0.05, 0.01):
        table = bl.table_passive(budget, w.PASSIVE_MARGINS, w.PASSIVE_DETECT_RATES, w.PASSIVE_BASE_RATES,
                                 convention="strict")
        ref["solve"][f"grid_strict_{budget:g}"] = [[row[f"base_rate={b:g}"] for b in w.PASSIVE_BASE_RATES]
                                                   for row in table]
    for kind, zeta in (("fixed", bl.FixedZeta()), ("grid", bl.GridZeta())):
        ref["solve"][f"table_{kind}"] = [r["min_training_n"] for r in bl.table_lower_bounds(zeta=zeta)]
    for sampling in ("with_replacement", "without_replacement"):
        res = bl.min_electorate_for_budget(bl.BudgetedTestQuery(13, 140, 0.005, 0.95), sampling)
        ref["solve"][f"electorate_{sampling}"] = [res.bmds, res.voters]
    ref["solve"]["oracle"] = bl.oracle_min_samples(bl.OracleBoundQuery(2980, 15, 0.95))
    records = bl.load_turnout(os.path.join(w.ROOT, w.TURNOUT))
    ref["solve"]["turnout_records"] = len(records)
    join = bl.passive_feasibility_join(records, bl.PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05))
    ref["solve"]["join"] = [join.required_contest_size, join.fraction_infeasible,
                            join.states_where_majority_infeasible]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
