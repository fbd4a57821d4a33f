"""Per-layer metrics: how each is derived from the spans of a traced run.

Every metric names the workload that loads its layer (``owner``).  A traced
run of another workload that never calls that layer gets the value from a
*probe*: one traced tiny-size pass of the owner workload, reported with
source ``probe`` so it is not mistaken for the workload's own number.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from tracer import END, FAILED, NAME, PARENT, RUN, START, Tracer
from workloads import WORKERS

# (value, calls, failed calls) or None when the run has no such spans
Reading = tuple[float, int, int] | None


class View:
    """The spans of a chosen set of run ids, plus values measured outside spans."""

    def __init__(self, tracer: Tracer, runs: set[int], extras: dict[str, tuple[float, int, int]]):
        self.tracer = tracer
        self.spans = tracer.spans
        self.kids = tracer.children()
        self.ids = [i for i, s in enumerate(self.spans) if s[RUN] in runs]
        self.extras = extras

    def _under(self, idx: int, prefix: str | tuple[str, ...]) -> bool:
        p = self.spans[idx][PARENT]
        while p >= 0:
            if self.spans[p][NAME].startswith(prefix):
                return True
            p = self.spans[p][PARENT]
        return False

    def find(self, name: str, under: str | tuple[str, ...] | None = None) -> list[int]:
        """Spans called ``name``, optionally only those with an ancestor whose
        name starts with ``under`` (a prefix or a tuple of prefixes)."""
        return [
            i for i in self.ids
            if self.spans[i][NAME] == name and (under is None or self._under(i, under))
        ]

    def duration(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]


def mean_duration(name: str, scale: float, under=None) -> Callable[[View], Reading]:
    def get(v: View) -> Reading:
        ids = v.find(name, under)
        if not ids:
            return None
        failed = sum(v.spans[i][FAILED] for i in ids)
        return scale * statistics.fmean(v.duration(i) for i in ids), len(ids), failed

    return get


def calls_per_span(name: str, counted: str, under=None) -> Callable[[View], Reading]:
    """Mean number of ``counted`` calls made inside each ``name`` span."""

    def get(v: View) -> Reading:
        ids = v.find(name, under)
        if not ids:
            return None
        total = sum(v.tracer.subtree_counts(i, v.kids)[counted] for i in ids)
        return total / len(ids), len(ids), sum(v.spans[i][FAILED] for i in ids)

    return get


def ratio(num: Callable[[View], Reading], den: Callable[[View], Reading]) -> Callable[[View], Reading]:
    def get(v: View) -> Reading:
        a, b = num(v), den(v)
        if a is None or b is None:
            return None
        return a[0] / b[0], a[1] + b[1], a[2] + b[2]

    return get


def cli_parse_ms(v: View) -> Reading:
    """build_parser plus parse_args, per CLI call."""
    runs = v.find("cli.run")
    if not runs:
        return None
    parts = v.find("cli.build_parser") + v.find("cli.parse_args")
    return 1e3 * sum(v.duration(i) for i in parts) / len(runs), len(runs), 0


def extra(key: str) -> Callable[[View], Reading]:
    return lambda v: v.extras.get(key)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    owner: str
    get: Callable[[View], Reading]


# the published 60-cell grids: table_passive (in the manifest and the CLI) and
# the strict-convention cells that the solve workload runs one by one
PUBLISHED_CELLS = ("passive.table_passive", "op:passive.min_contest_size[grid]")


def _sim(label: str, workers: int = WORKERS) -> str:
    return f"[{label},w{workers}]"


PER_LAYER = (
    LayerMetric("bmdlimits.import_s", "s", "lower", "cli", extra("import_s")),
    LayerMetric("bmdlimits.import_self_s.scipy_special", "s", "lower", "cli", extra("import_self_s.scipy_special")),
    LayerMetric("bmdlimits.import_self_s.numpy", "s", "lower", "cli", extra("import_self_s.numpy")),
    LayerMetric("cli.parse_ms", "ms", "lower", "cli", cli_parse_ms),
    LayerMetric("cli.emit_ms", "ms", "lower", "cli", mean_duration("cli.emit", 1e3)),
    LayerMetric("kernels.poisson_sf_us", "us", "lower", "solve", extra("kernels.poisson_sf_us")),
    LayerMetric("kernels.log_no_replacement_miss_prob_us", "us", "lower", "solve",
                extra("kernels.log_no_replacement_miss_prob_us")),
    LayerMetric("passive.cell_ms", "ms", "lower", "solve",
                mean_duration("passive.min_contest_size", 1e3, PUBLISHED_CELLS)),
    LayerMetric("passive.poisson_sf_calls_per_cell", "count", "lower", "solve",
                calls_per_span("passive.min_contest_size", "kernels.poisson_sf", PUBLISHED_CELLS)),
    LayerMetric("minimax.row_ms.fixed", "ms", "lower", "solve",
                mean_duration("minimax.min_training_sample[FixedZeta]", 1e3, "minimax.table_lower_bounds")),
    LayerMetric("minimax.row_ms.grid", "ms", "lower", "solve",
                mean_duration("minimax.min_training_sample[GridZeta]", 1e3, "minimax.table_lower_bounds")),
    LayerMetric("minimax.hjw_calls_per_row.grid", "count", "lower", "solve",
                calls_per_span("minimax.min_training_sample[GridZeta]", "minimax.hjw_lower_bound",
                               "minimax.table_lower_bounds")),
    LayerMetric("minimax.detection_threshold_ms", "ms", "lower", "solve",
                mean_duration("minimax.detection_threshold", 1e3)),
    LayerMetric("parallel.electorate_ms", "ms", "lower", "solve",
                mean_duration("parallel.min_electorate_for_budget", 1e3)),
    LayerMetric("parallel.oracle_us", "us", "lower", "solve", mean_duration("parallel.oracle_min_samples", 1e6)),
    LayerMetric("repro.build_manifest_s", "s", "lower", "solve", mean_duration("repro.build_manifest", 1.0)),
    LayerMetric("feasibility.load_turnout_ms", "ms", "lower", "solve", mean_duration("feasibility.load_turnout", 1e3)),
    LayerMetric("feasibility.join_ms", "ms", "lower", "solve",
                mean_duration("feasibility.passive_feasibility_join", 1e3)),
    LayerMetric("simulate.run_s.trigger", "s", "lower", "simulate",
                mean_duration("simulate.run_parallel_sim" + _sim("trigger"), 1.0)),
    LayerMetric("simulate.run_s.flip", "s", "lower", "simulate",
                mean_duration("simulate.run_parallel_sim" + _sim("flip"), 1.0)),
    LayerMetric("simulate.run_s.passive", "s", "lower", "simulate",
                mean_duration("simulate.run_passive_sim" + _sim("passive"), 1.0)),
    LayerMetric("simulate.run_s.wide", "s", "lower", "simulate",
                mean_duration("simulate.run_parallel_sim" + _sim("wide"), 1.0)),
    LayerMetric("simulate.fanout_speedup", "x", "higher", "simulate",
                ratio(mean_duration("simulate.run_parallel_sim" + _sim("trigger", 1), 1.0),
                      mean_duration("simulate.run_parallel_sim" + _sim("trigger"), 1.0))),
    LayerMetric("simulate.peak_rss_mb.wide", "MB", "lower", "simulate", extra("simulate.peak_rss_mb.wide")),
    LayerMetric("transactions.sparse_build_s", "s", "lower", "sparse",
                mean_duration("transactions.sparse", 1.0, "op:transactions.sparse")),
    LayerMetric("transactions.mass_of_ms", "ms", "lower", "sparse",
                mean_duration("transactions.mass_of", 1e3, "op:transactions.mass_of")),
    LayerMetric("transactions.estimate_s", "s", "lower", "sparse", mean_duration("transactions.estimate", 1.0)),
    LayerMetric("transactions.l1_distance_s", "s", "lower", "sparse", mean_duration("transactions.l1_distance", 1.0)),
    LayerMetric("simulate.trigger_mass_ms.sparse", "ms", "lower", "sparse",
                mean_duration("simulate.trigger_mass[sparse]", 1e3)),
    LayerMetric("simulate.run_s.sparse_tester", "s", "lower", "sparse",
                mean_duration("simulate.run_parallel_sim" + _sim("sparse_tester", 1), 1.0)),
    LayerMetric("simulate.estimation_study_s", "s", "lower", "sparse",
                mean_duration("simulate.run_estimation_study", 1.0)),
    LayerMetric("trace.overhead_s", "s", "lower", "", extra("trace.overhead_s")),
)
