"""The four benchmark workloads: inputs from a seed, one pass of operations,
and the checks that decide whether each operation's answer is right.

An operation is ``Op(label, fn, check)``.  ``fn()`` does the timed work and
returns its answer; ``check(answer)`` runs untimed and raises ``Wrong`` when
the answer is wrong.  Fixed inputs are checked against ``reference.json``
(pinned from the seed commit by ``pin_reference.py``); seeded inputs are
checked by certificates that do not trust the solver under test.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import ast
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import bdtr, bdtrc, gammaln

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "out")
WORKERS = min(2, os.cpu_count() or 1)
Z_LIMIT = 6.0  # |empirical - exact| / standard error allowed for seeded simulations

# Library functions are looked up on their modules at call time, so that the
# tracer's wrappers (installed on those modules) see every call.
import bmdlimits as bl  # noqa: E402  (run.py puts src/ on sys.path first)
from bmdlimits import repro, simulate  # noqa: E402
from bmdlimits.repro import PASSIVE_BASE_RATES, PASSIVE_DETECT_RATES, PASSIVE_MARGINS  # noqa: E402


class Wrong(Exception):
    """An operation returned a wrong answer."""


@dataclass
class Op:
    label: str
    fn: Callable[[], Any]
    check: Callable[[Any], None]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Wrong(msg)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(float(a) - float(b)) <= rel * max(abs(float(a)), abs(float(b)), 1e-300)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# cli: every README example, each in a fresh interpreter
# ---------------------------------------------------------------------------

TURNOUT = "tests/data/county_turnout.csv"

#: (id, argv, answer columns, identity columns).  Only answer and identity
#: columns are compared, so extra output columns never count as failures.
CLI_EXAMPLES = (
    ("passive_single", ["passive", "--margin", "0.03", "--detect-rate", "0.07", "--base-rate", "0.005"],
     ("contest_size", "alarm_threshold"), ()),
    ("passive_grid", ["passive", "--margin", "0.01,0.02,0.03,0.04,0.05", "--detect-rate", "0.07,0.25",
                      "--base-rate", "0.005,0.01,0.015", "--fp", "0.05", "--fn", "0.05"],
     ("base_rate=0.005", "base_rate=0.01", "base_rate=0.015"), ("margin", "detect_rate")),
    ("parallel_min_tests", ["parallel", "--p", "0.01", "--confidence", "0.95"], ("min_tests",), ()),
    ("parallel_detection", ["parallel", "--p", "0.5", "--tests", "5"], ("detection",), ()),
    ("parallel_electorate", ["parallel", "--tests-per-day", "13", "--capacity", "140",
                             "--altered-fraction", "0.005", "--confidence", "0.95"],
     ("bmds", "voters", "tests", "altered"), ()),
    ("oracle", ["oracle", "--population", "2980", "--flawed", "15", "--confidence", "0.95"],
     ("min_samples",), ()),
    ("minimax_single", ["minimax", "--confidence", "0.99", "--test-limit", "2000",
                        "--altered-fraction", "0.005"], ("min_training_n",), ()),
    ("minimax_table", ["minimax"], ("min_training_n",), ("confidence", "test_limit", "altered_fraction")),
    ("cardinality_preset", ["cardinality", "--preset", "optimistic"], ("cardinality",), ()),
    ("cardinality_space", ["cardinality", "--space", "<space>"], ("cardinality",), ()),
    ("simulate", ["simulate", "--scenario", "scenarios/whole_space_flip.json", "--workers", str(WORKERS)],
     ("empirical_detection", "empirical_altered_fraction"), ()),
    ("feasibility", ["feasibility", "--data", TURNOUT], ("value",), ("metric",)),
    ("feasibility_join", ["feasibility", "--data", TURNOUT, "--margin", "0.03"], ("value",), ("metric",)),
    ("repro", ["repro"], ("actual", "status"), ("artifact",)),
)
CLI_TINY = ("passive_single", "oracle", "cardinality_space")


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BMDLIMITS_FORMAT"}
    env["PYTHONPATH"] = SRC
    return env


def cli_command(argv: list[str], trace_path: str | None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-c", "from bmdlimits.cli import main; main()", *argv]
    return [sys.executable, os.path.join(HERE, "cli_child.py"), trace_path, *argv]


def run_cli(argv: list[str], trace_path: str | None = None) -> tuple[int, str]:
    proc = subprocess.run(
        cli_command(argv, trace_path), cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout


def _split_row(line: str, width: int) -> list[str]:
    """Split one CSV line the way ``bmdlimits.cli.emit`` writes it: cells are
    not quoted, so commas inside a ``{...}`` cell stay in that cell, and any
    extra commas belong to the last column (free-text notes)."""
    cells, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        depth += ch == "{"
        depth -= ch == "}"
        if ch == "," and depth == 0 and len(cells) < width - 1:
            cells.append(line[start:i])
            start = i + 1
    cells.append(line[start:])
    return cells


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines:
        return []
    keys = lines[0].split(",")
    return [dict(zip(keys, _split_row(line, len(keys)))) for line in lines[1:]]


def _cell(text: str):
    """A CSV cell as a comparable value: number, dict of numbers, or string."""
    if text.startswith("{"):
        value = ast.literal_eval(text)
        return {k: v for k, v in value.items() if k in ("value", "trials")}
    try:
        return float(text)
    except ValueError:
        return text


def answer_rows(stdout: str, columns: tuple[str, ...]) -> list[dict]:
    rows = parse_csv(stdout)
    out = []
    for row in rows:
        missing = [c for c in columns if c not in row]
        _expect(not missing, f"missing output columns {missing}")
        out.append({c: _cell(row[c]) for c in columns})
    return out


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def cli_inputs(seed: int, tiny: bool) -> dict:
    rnd = random.Random(seed)
    os.makedirs(WORK, exist_ok=True)
    cards = [rnd.randint(2, 40) for _ in range(rnd.randint(3, 8))]
    space_path = os.path.join(WORK, f"space-{seed}.json")
    with open(space_path, "w", encoding="utf-8") as fh:
        json.dump({"attributes": [{"name": f"attr{i}", "cardinality": c} for i, c in enumerate(cards)]}, fh)
    examples = [e for e in CLI_EXAMPLES if not tiny or e[0] in CLI_TINY]
    rnd.shuffle(examples)
    return {"examples": examples, "space_path": space_path, "space_cardinality": math.prod(cards)}


def cli_ops(inp: dict, ref: dict, runner=None) -> list[Op]:
    """One op per example; a traced ``runner`` gives each call a trace file."""
    ops = []
    for ex_id, argv, answers, ids in inp["examples"]:
        argv = [inp["space_path"] if a == "<space>" else a for a in argv]
        columns = ids + answers

        def check(result, ex_id=ex_id, columns=columns):
            code, stdout = result
            want = ref["cli"][ex_id]
            _expect(code == want["exit"], f"{ex_id}: exit code {code}, expected {want['exit']}")
            got = answer_rows(stdout, columns)
            if ex_id == "cardinality_space":
                _expect(got == [{"cardinality": float(inp["space_cardinality"])}], f"{ex_id}: {got}")
                return
            _expect(len(got) == len(want["rows"]), f"{ex_id}: {len(got)} rows, expected {len(want['rows'])}")
            for g, w in zip(got, want["rows"]):
                _expect(_same(g, w), f"{ex_id}: {g} != {w}")

        ops.append(Op(f"cli:{ex_id}", lambda argv=argv: run_cli(argv, runner and runner.child_path), check))
    return ops


# ---------------------------------------------------------------------------
# solve: the exact solvers in one warm process
# ---------------------------------------------------------------------------


def solve_inputs(seed: int, tiny: bool) -> dict:
    rng = np.random.default_rng([seed, 1])
    designs = []
    for _ in range(4 if tiny else 64):
        budgets = rng.choice([0.01, 0.05, 0.1], size=2)
        designs.append(
            (
                bl.PassiveDesign(
                    float(np.exp(rng.uniform(math.log(0.008), math.log(0.05)))),
                    float(rng.uniform(0.07, 0.25)),
                    float(rng.uniform(0.004, 0.016)),
                    float(budgets[0]),
                    float(budgets[1]),
                ),
                str(rng.choice(["published", "strict"])),
            )
        )
    queries = []
    for i in range(2 if tiny else 32):
        T = None if rng.random() < 0.3 else int(rng.integers(1000, 5001))
        zeta = bl.GridZeta() if i % 2 else bl.FixedZeta(float(rng.uniform(0.2, 1.0)))
        queries.append(
            bl.MinimaxQuery(
                r=float(np.exp(rng.uniform(math.log(0.005), math.log(0.05)))),
                alpha=1.0 - float(rng.uniform(0.9, 0.99)),
                T=T,
                S=int(np.exp(rng.uniform(math.log(1e5), math.log(1e7)))),
                zeta=zeta,
            )
        )
    return {"designs": designs, "queries": queries, "tiny": tiny}


def passive_certificate(design, convention: str, sol) -> None:
    """N feasible and N - 1 infeasible, from ``passive_power`` alone."""
    N, k = sol.contest_size, sol.alarm_threshold
    floor = 2 if convention == "published" else 1

    def ok(n: int, j: int) -> bool:
        fp = bl.passive_power(n, design, j)[0]
        fn = bl.passive_power(n, design, j - 1 if convention == "published" else j)[1]
        return fp <= design.fp_budget and fn <= design.fn_budget

    _expect(ok(N, k), f"{design}: N={N}, k={k} is not feasible")
    if N > 1:
        # the alarm threshold at N - 1 is the smallest k meeting the fp budget;
        # k at N meets it at N - 1 too, because the benign tail grows with N
        j = k
        while j > 1 and bl.passive_power(N - 1, design, j - 1)[0] <= design.fp_budget:
            j -= 1
        _expect(not ok(N - 1, max(j, floor)), f"{design}: N-1={N - 1} is feasible")


def _resolved_bound(q, n: int) -> float:
    if isinstance(q.zeta, bl.FixedZeta):
        return bl.hjw_lower_bound(n, q.S, q.zeta.value)
    return max(bl.hjw_lower_bound(n, q.S, float(z)) for z in q.zeta.values())


def minimax_certificate(q, report) -> None:
    """bound(n) <= threshold < bound(n - 1) at the reported n."""
    threshold = bl.detection_threshold(q)[0]
    n = report.min_training_n
    _expect(_close(report.threshold, threshold), f"{q}: threshold {report.threshold} != {threshold}")
    _expect(_resolved_bound(q, n) <= threshold, f"{q}: bound(n={n}) above the threshold")
    if n > 1:
        _expect(threshold < _resolved_bound(q, n - 1), f"{q}: bound(n-1) at or below the threshold")


def _check_table(rows, want, key: str) -> None:
    _expect([r[key] for r in rows] == want, f"{key}: {[r[key] for r in rows]} != {want}")


def _check_manifest(rows, want) -> None:
    got = {r.artifact: [r.actual, r.to_record()["status"]] for r in rows}
    _expect(got.keys() == want["rows"].keys(), "manifest artifacts differ")
    for artifact, (actual, status) in want["rows"].items():
        _expect(_close(got[artifact][0], actual) and got[artifact][1] == status, f"{artifact}: {got[artifact]}")
    _expect(repro.manifest_passes(rows) == want["passes"], "manifest_passes changed")


def solve_ops(inp: dict, ref: dict, runner=None) -> list[Op]:
    r = ref["solve"]
    ops = [Op("repro.build_manifest", lambda: repro.build_manifest(), lambda rows: _check_manifest(rows, r["manifest"]))]
    # the 60 published cells, one strict-convention solve per operation
    rows = [(m, d) for m in PASSIVE_MARGINS for d in PASSIVE_DETECT_RATES]
    for budget in (0.05, 0.01):
        for i, (m, d) in enumerate(rows):
            if inp["tiny"] and i < len(rows) - 1:
                continue
            for j, b in enumerate(PASSIVE_BASE_RATES):
                design = bl.PassiveDesign(m, d, b, budget, budget)
                want = r[f"grid_strict_{budget:g}"][i][j]
                ops.append(Op("passive.min_contest_size[grid]",
                              lambda design=design: bl.min_contest_size(design, "strict"),
                              lambda sol, want=want, design=design: _expect(
                                  sol.contest_size == want, f"{design}: {sol.contest_size} != {want}")))
    for kind, zeta in (("fixed", bl.FixedZeta()), ("grid", bl.GridZeta())):
        ops.append(Op(f"minimax.table_lower_bounds[{kind}]",
                      lambda zeta=zeta: bl.table_lower_bounds(zeta=zeta),
                      lambda rows, kind=kind: _check_table(rows, r[f"table_{kind}"], "min_training_n")))
    for sampling in ("with_replacement", "without_replacement"):
        ops.append(Op(f"parallel.min_electorate_for_budget[{sampling}]",
                      lambda sampling=sampling: bl.min_electorate_for_budget(
                          bl.BudgetedTestQuery(13, 140, 0.005, 0.95), sampling),
                      lambda res, sampling=sampling: _expect(
                          [res.bmds, res.voters] == r[f"electorate_{sampling}"], f"electorate {res}")))
    ops.append(Op("parallel.oracle_min_samples",
                  lambda: bl.oracle_min_samples(bl.OracleBoundQuery(2980, 15, 0.95)),
                  lambda n: _expect(n == r["oracle"], f"oracle {n}")))
    state: dict = {}

    def load():
        state["records"] = bl.load_turnout(os.path.join(ROOT, TURNOUT))
        return state["records"]

    ops.append(Op("feasibility.load_turnout", load,
                  lambda recs: _expect(len(recs) == r["turnout_records"], f"{len(recs)} turnout records")))
    join_design = bl.PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05)

    def check_join(j):
        got = [j.required_contest_size, j.fraction_infeasible, j.states_where_majority_infeasible]
        _expect(got == r["join"], f"join {got}")

    ops.append(Op("feasibility.passive_feasibility_join",
                  lambda: bl.passive_feasibility_join(state["records"], join_design), check_join))
    for design, convention in inp["designs"]:
        ops.append(Op("passive.min_contest_size[seeded]",
                      lambda design=design, convention=convention: bl.min_contest_size(design, convention),
                      lambda sol, design=design, convention=convention: passive_certificate(design, convention, sol)))
    for q in inp["queries"]:
        ops.append(Op("minimax.min_training_sample[seeded]", lambda q=q: bl.min_training_sample(q),
                      lambda rep, q=q: minimax_certificate(q, rep)))
    return ops


# ---------------------------------------------------------------------------
# simulate: four generated scenarios, each dominated by one simulator stage
# ---------------------------------------------------------------------------


def _parallel_cfg(label, cards, trigger, q, tests, trials, seed, n_voters=10_000):
    return {
        "kind": "parallel",
        "label": label,
        "space": {"attributes": [{"name": f"a{i}", "cardinality": c} for i, c in enumerate(cards)]},
        "n_voters": n_voters,
        "mallory": {"trigger": trigger, "flip_prob": q},
        "pat": {"mode": "uniform", "test_count": tests},
        "trials": trials,
        "seed": seed,
    }


def simulate_configs(seed: int, tiny: bool) -> dict[str, dict]:
    rnd = random.Random(seed)
    s = lambda: rnd.randrange(2**31)  # noqa: E731
    scale = 16 if tiny else 1
    return {
        # subpopulation shape: 100-bin profile, ~300 uniform tests
        "trigger": _parallel_cfg("trigger: 1%-mass profile", [100, 2], {"a0": [rnd.randrange(100)]},
                                 rnd.uniform(0.5, 1.0), rnd.randint(290, 310), 200_000 // scale, s()),
        # empty trigger: only the flip draw matters
        "flip": _parallel_cfg("flip: whole space", [100], {}, rnd.uniform(5e-4, 2e-3),
                              rnd.randint(290, 310), 500_000 // scale, s()),
        # binomial spoils only
        "passive": {
            "kind": "passive",
            "label": "passive: binomial spoils",
            "space": {"attributes": [{"name": "a0", "cardinality": 40}]},
            "n_voters": 50_000,
            "mallory": {"trigger": {"a0": [0]}, "flip_prob": 1.0},
            "pat": {"mode": "uniform", "test_count": 0},
            "passive": {"detect_rate": rnd.uniform(0.2, 0.3), "base_rate": rnd.uniform(0.004, 0.006),
                        "alarm_threshold": 0},
            "trials": 2_000_000 // scale,
            "seed": s(),
        },
        # >= 5000 tests: 4096 x tests x 8 B per chunk array
        "wide": _parallel_cfg("wide: 5000 tests", [100], {"a0": [rnd.randrange(100)]},
                              rnd.uniform(1e-4, 3e-4), 500 if tiny else 5000,
                              8192 // (2 if tiny else 1), s()),
    }


def _set_threshold(cfg: dict) -> dict:
    p = cfg["passive"]
    mean = cfg["n_voters"] * p["base_rate"]
    p["alarm_threshold"] = int(math.ceil(mean + 2.5 * math.sqrt(mean)))
    return cfg


def simulate_inputs(seed: int, tiny: bool) -> dict:
    cfgs = simulate_configs(seed, tiny)
    _set_threshold(cfgs["passive"])
    os.makedirs(WORK, exist_ok=True)
    wide_path = os.path.join(WORK, f"wide-{seed}-{int(tiny)}.json")
    with open(wide_path, "w", encoding="utf-8") as fh:
        json.dump(cfgs["wide"], fh)
    return {"scenarios": {k: simulate.scenario_from_config(c) for k, c in cfgs.items()}, "wide_path": wide_path}


def _z(empirical: float, p: float, n: float) -> float:
    se = math.sqrt(max(p * (1 - p), 1e-300) / n)
    return abs(empirical - p) / se


def check_parallel_report(s, report) -> None:
    """Empirical rates within Z_LIMIT standard errors of the exact values."""
    mass = 1.0
    for name, vals in s.mallory.trigger:
        mass *= len(vals) / s.space.attributes[s.space.index_of(name)].cardinality
    q = s.mallory.flip_prob
    detection = 1.0 - (1.0 - mass * q) ** s.pat.test_count
    z = _z(report.empirical_detection.value, detection, s.trials)
    _expect(z < Z_LIMIT, f"{s.label}: detection z={z:.1f}")
    z = _z(report.empirical_altered_fraction.value, mass * q, s.trials * s.n_voters)
    _expect(z < Z_LIMIT, f"{s.label}: altered fraction z={z:.1f}")
    _expect(report.trials == s.trials and report.seed == s.seed, f"{s.label}: trials/seed echo")


def check_passive_report(s, report) -> None:
    """fp and fn against exact binomial tails: every voter spoils independently
    with probability b (benign) or b + a d (1 - b) (attacked, a = altered share)."""
    N, b, d, k = s.n_voters, s.passive.base_rate, s.passive.detect_rate, s.passive.alarm_threshold
    a = len(dict(s.mallory.trigger)["a0"]) / 40 * s.mallory.flip_prob
    fp = float(bdtrc(k - 1, N, b))
    fn = float(bdtr(k - 1, N, b + a * d * (1 - b)))
    for name, got, want in (("fp", report.empirical_fp.value, fp), ("fn", report.empirical_fn.value, fn)):
        z = _z(got, want, s.trials)
        _expect(z < Z_LIMIT, f"{s.label}: {name} z={z:.1f}")


def simulate_ops(inp: dict, ref: dict, runner=None) -> list[Op]:
    ops = []
    reports = inp.setdefault("reports", {})
    for key, s in inp["scenarios"].items():
        run, check = (
            (bl.run_passive_sim, check_passive_report) if key == "passive"
            else (bl.run_parallel_sim, check_parallel_report)
        )

        def check_and_keep(rep, key=key, s=s, check=check):
            check(s, rep)
            reports[key] = rep.to_json()

        ops.append(Op(f"simulate.{run.__name__}[{key}]", lambda s=s, run=run: run(s, workers=WORKERS),
                      check_and_keep))
    return ops


def simulate_final_ops(inp: dict, ref: dict) -> list[Op]:
    """Run once after the timed passes: the trigger report at one worker must be
    byte-identical to the last report at WORKERS workers."""
    s = inp["scenarios"]["trigger"]

    def check(rep):
        _expect(rep.to_json() == inp["reports"].get("trigger"), "trigger report differs between worker counts")

    return [Op("simulate.run_parallel_sim[trigger,w1]", lambda: bl.run_parallel_sim(s, workers=1), check)]


# ---------------------------------------------------------------------------
# sparse: the transactions layer and the simulator's sparse path at S ~ 2e5
# ---------------------------------------------------------------------------


def sparse_inputs(seed: int, tiny: bool) -> dict:
    rng = np.random.default_rng([seed, 4])
    dims = (2000, 1000)
    S = 2_000 if tiny else 200_000
    flat = rng.choice(dims[0] * dims[1], size=S, replace=False)
    coords = np.stack(np.unravel_index(flat, dims), axis=1)
    weights = rng.gamma(2.0, size=S)
    weights /= weights.sum()
    support = [tuple(row) for row in coords.tolist()]
    draws = rng.choice(S, size=S, p=weights)
    absent = [(int(i), int(j)) for i, j in zip(*np.unravel_index(rng.choice(
        np.setdiff1d(np.arange(2 * S), flat, assume_unique=True), size=2, replace=False), dims))]
    allowed = np.sort(rng.choice(dims[0], size=dims[0] // 10, replace=False))
    return {
        "space": bl.TransactionSpace((bl.AttributeSpec("a", dims[0]), bl.AttributeSpec("b", dims[1]))),
        "support": support,
        "coords": coords,
        "weights": weights,
        "training": [bl.Transaction(support[i]) for i in draws.tolist()],
        "counts": np.bincount(draws, minlength=S),
        # mass_of scans the support, so its cost grows with the point's position:
        # query evenly spaced positions (and two absent points, a full scan)
        "queries": [(support[i], float(weights[i])) for i in range(S // 20, S, S // 10)]
        + [(pt, 0.0) for pt in absent],
        "mallory": bl.MalloryStrategy.from_mapping({"a": allowed.tolist()}, float(rng.uniform(1e-3, 3e-3))),
        "trigger_mask": np.isin(coords[:, 0], allowed),
        "seed": int(rng.integers(2**31)),
        "trials": 2048 if tiny else 8192,
        "est_trials": 4 if tiny else 16,
    }


def expected_plugin_l1(weights: np.ndarray, n: int) -> float:
    """E sum_i |X_i/n - w_i| for X ~ Multinomial(n, w): per cell, de Moivre's
    mean absolute deviation of Binomial(n, w_i), in log space."""
    m = np.floor(n * weights)
    log_mad = (
        math.log(2.0)
        + (n - m) * np.log1p(-weights)
        + (m + 1) * np.log(weights)
        + np.log(m + 1)
        + gammaln(n + 1)
        - gammaln(m + 2)
        - gammaln(n - m)
    )
    return float(np.exp(log_mad).sum() / n)


def sparse_ops(inp: dict, ref: dict, runner=None) -> list[Op]:
    space, w, S = inp["space"], inp["weights"], len(inp["weights"])
    state: dict = {}
    ops = []

    def build():
        state["dist"] = bl.TransactionDistribution.sparse(space, inp["support"], w)
        return state["dist"]

    ops.append(Op("transactions.sparse", build,
                  lambda d: _expect(d.form == "sparse" and len(d.support) == S, "sparse build")))
    for pt, want in inp["queries"]:
        ops.append(Op("transactions.mass_of", lambda pt=pt: state["dist"].mass_of(pt),
                      lambda m, want=want: _expect(_close(m, want, 1e-12), f"mass_of {m} != {want}")))

    def est():
        state["est"] = bl.estimate(space, inp["training"])
        return state["est"]

    seen = inp["counts"] > 0
    ops.append(Op("transactions.estimate", est,
                  lambda e: _expect(len(e.support) == int(seen.sum()), "estimate support size")))
    l1_want = float(np.abs(inp["counts"] / S - w).sum())
    ops.append(Op("transactions.l1_distance", lambda: bl.l1_distance(state["dist"], state["est"]),
                  lambda v: _expect(_close(v, l1_want, 1e-9), f"l1 {v} != {l1_want}")))
    tm_want = float(w[inp["trigger_mask"]].sum())
    ops.append(Op("simulate.trigger_mass[sparse]", lambda: simulate.trigger_mass(inp["mallory"], state["dist"]),
                  lambda v: _expect(_close(v, tm_want, 1e-9), f"trigger mass {v} != {tm_want}")))

    def tester():
        s = bl.SimScenario(
            space=space,
            voter_dist=bl.TransactionDistribution.uniform(space),
            n_voters=10_000,
            mallory=inp["mallory"],
            pat=bl.PatStrategy("distribution", 300, state["dist"]),
            trials=inp["trials"],
            seed=inp["seed"],
            label="sparse_tester: 300 tests from the sparse support",
        )
        return bl.run_parallel_sim(s, workers=1)

    def check_tester(rep):
        q = inp["mallory"].flip_prob
        detection = 1.0 - (1.0 - tm_want * q) ** 300
        z = _z(rep.empirical_detection.value, detection, inp["trials"])
        _expect(z < Z_LIMIT, f"sparse tester detection z={z:.1f}")

    ops.append(Op("simulate.run_parallel_sim[sparse_tester]", tester, check_tester))
    l1_mean = expected_plugin_l1(w, S)

    def check_study(rep):
        _expect(rep.support_size == S and rep.trials == inp["est_trials"], "study echo")
        _expect(0.0 <= rep.min_l1 <= rep.mean_l1 <= rep.max_l1 <= 2.0, "study order")
        _expect(_close(rep.lower_bound_at_n, bl.hjw_lower_bound(S, S, 1.0)), "study bound")
        se = max(rep.std_l1, 1e-12) / math.sqrt(rep.trials)
        _expect(abs(rep.mean_l1 - l1_mean) < Z_LIMIT * se + 1e-3 * l1_mean,
                f"study mean L1 {rep.mean_l1} vs exact {l1_mean}")

    ops.append(Op("simulate.run_estimation_study",
                  lambda: bl.run_estimation_study(space, state["dist"], S, inp["est_trials"], inp["seed"], workers=1),
                  check_study))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, bool], dict]
    ops: Callable[..., list[Op]]
    final_ops: Callable[[dict, dict], list[Op]] = lambda inp, ref: []
    reference: str = "mixed"  # the speed.py slices its operations are scaled by


WORKLOADS = {
    "cli": Workload("cli", cli_inputs, cli_ops, reference="spawn"),
    "solve": Workload("solve", solve_inputs, solve_ops),
    "simulate": Workload("simulate", simulate_inputs, simulate_ops, simulate_final_ops),
    "sparse": Workload("sparse", sparse_inputs, sparse_ops),
}
