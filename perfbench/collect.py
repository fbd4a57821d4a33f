#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--workloads cli,solve] [--seeds 1-10]
        [--traced-seed N] [--out FILE]

Run from the repository root.  For every workload and seed this runs the
command in BENCHMARK.json once with ``--trace 0``, one after another, and
reports for each end-to-end metric (those with a bound, and the raw times
and call latencies printed without one) the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread (quartile
distance over median) next to the metric's bound.  With ``--traced-seed`` it
adds one traced run per workload for the per-layer numbers.  ``--out`` writes
the summary as JSON; ``baseline.json`` in this directory was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.splitlines()
    machine = next((json.loads(ln.split(":", 1)[1]) for ln in lines if ln.startswith("# machine:")), {})
    result = json.loads(lines[-1])
    if not trace:  # add the end-to-end metrics printed without a bound
        reported = next(json.loads(ln.split(":", 1)[1]) for ln in lines if ln.startswith("# reported:"))
        result["metrics"] = {**reported, **result["metrics"]}
    return result, machine


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update({name: None for name in ("setup_raw_s", "wall_raw_s", "call_p50_s", "call_tail_s")})
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        results = []
        for seed in args.seeds:
            result, summary["machine"] = run_once(spec, name, seed, 0)
            results.append(result)
        entry: dict = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in results], bound)
            entry["end_to_end"][metric] = s
            if bound is None:
                flag = "no bound"
            else:
                flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] > bound else "over 1/3")
            print(f"{name:<9} {metric:<12} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {str(bound):<5} {flag:<8} {' '.join(f'{v:.4g}' for v in s['values'])}", flush=True)
        print(f"{name:<9} failed {entry['failed']} of {entry['attempted']}", flush=True)
        if args.traced_seed is not None:
            traced, _ = run_once(spec, name, args.traced_seed, 1)
            entry["per_layer_seed"] = args.traced_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
