"""In-memory span tracer that wraps bmdlimits' public functions from outside.

Nothing inside the library is changed on disk: ``Tracer.install`` replaces
each listed public function in every ``bmdlimits`` module that binds it (so a
``from .kernels import poisson_sf`` in another module is wrapped too), and
``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper are used:

* a *span* records (name, start, end, parent, run id, failed) for functions
  that do a unit of layer work (a solver call, a simulator run, a table);
* a *counter* only counts calls, attributed to the innermost open span, for
  hot kernels called hundreds of thousands of times per pass, where a span
  per call would cost more memory and time than the call itself.

Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import Counter, defaultdict


def _zeta_tag(q, *a, **k):
    return type(q.zeta).__name__


def _scenario_tag(s, *a, **k):
    workers = a[0] if a else k.get("workers", 1)
    return f"{s.label.split(':')[0]},w{workers}"


def _dist_form_tag(mallory, dist, *a, **k):
    return dist.form


# (module, attribute, kind, tag).  ``tag`` maps the call's arguments to a
# suffix of the span name, so that e.g. simulator runs are split by scenario.
TRACED = (
    ("kernels", "poisson_sf", "count", None),
    ("kernels", "poisson_upper_quantile", "count", None),
    ("kernels", "log_no_replacement_miss_prob", "count", None),
    ("kernels", "smallest_int_where", "count", None),
    ("passive", "passive_power", "count", None),
    ("passive", "min_contest_size", "span", None),
    ("passive", "table_passive", "span", None),
    ("minimax", "hjw_lower_bound", "count", None),
    ("minimax", "detection_threshold", "span", None),
    ("minimax", "min_training_sample", "span", _zeta_tag),
    ("minimax", "table_lower_bounds", "span", None),
    ("parallel", "detection_prob_iid", "count", None),
    ("parallel", "min_tests_iid", "span", None),
    ("parallel", "oracle_min_samples", "span", None),
    ("parallel", "min_electorate_for_budget", "span", None),
    ("repro", "build_manifest", "span", None),
    ("feasibility", "load_turnout", "span", None),
    ("feasibility", "summarize", "span", None),
    ("feasibility", "passive_feasibility_join", "span", None),
    ("transactions", "TransactionDistribution.sparse", "span", None),
    ("transactions", "TransactionDistribution.mass_of", "span", None),
    ("transactions", "estimate", "span", None),
    ("transactions", "l1_distance", "span", None),
    ("simulate", "trigger_mass", "span", _dist_form_tag),
    ("simulate", "run_parallel_sim", "span", _scenario_tag),
    ("simulate", "run_passive_sim", "span", _scenario_tag),
    ("simulate", "run_estimation_study", "span", None),
    ("cli", "build_parser", "span", None),
    ("cli", "emit", "span", None),
    ("cli", "run", "span", None),
)

def peak_rss_kb() -> int:
    """This process's own peak RSS in KiB.

    ``VmHWM`` restarts at exec, unlike ``ru_maxrss``, which keeps the peak of
    the parent process this one was forked from."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# span record fields
NAME, START, END, PARENT, RUN, FAILED = range(6)


class Tracer:
    """Spans and call counts of one benchmark run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self.enabled = True  # while False, wrapped functions record nothing
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            full = f"{name}[{tag(*args, **kwargs)}]" if tag else name
            record = [full, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, False]
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                counts[stack[-1] if stack else -1][name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of ``TRACED`` wherever a bmdlimits module binds it."""
        owners = {name: importlib.import_module(f"bmdlimits.{name}") for name, *_ in TRACED}
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "bmdlimits" and m]
        for mod_name, attr, kind, tag in TRACED:
            owner = owners[mod_name]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.span(name, raw.__func__, tag))
                else:
                    wrapped = self.span(name, raw, tag)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self.span(name, orig, tag) if kind == "span" else self.counter(name, orig)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- merging child-process spans ------------------------------------------

    def to_payload(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }

    def merge(self, payload: dict, run_id: int, parent: int = -1) -> None:
        """Append spans recorded by another process (same monotonic clock)."""
        base = len(self.spans)
        for rec in payload["spans"]:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] < 0 else rec[PARENT] + base
            rec[RUN] = run_id
            self.spans.append(rec)
        for key, counts in payload["counts"].items():
            idx = int(key)
            self.counts[parent if idx < 0 else idx + base].update(counts)

    def open(self, name: str) -> int:
        """Start a span by hand (for operations the benchmark itself runs)."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run_id, False]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, failed: bool = False) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][FAILED] = failed
        self._stack.pop()

    # -- analysis --------------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, rec in enumerate(self.spans):
            kids[rec[PARENT]].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        out = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                out[rec[PARENT]] -= rec[END] - rec[START]
        return out

    def subtree_counts(self, idx: int, kids: dict[int, list[int]]) -> Counter:
        total = Counter(self.counts.get(idx, {}))
        todo = list(kids.get(idx, ()))
        while todo:
            j = todo.pop()
            total.update(self.counts.get(j, {}))
            todo.extend(kids.get(j, ()))
        return total

    def write(self, path: str) -> None:
        """One JSON object per span, with its self time and direct counts."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "run": rec[RUN],
                            "failed": rec[FAILED],
                            "self_s": selfs[i],
                            "counts": dict(self.counts.get(i, {})),
                        }
                    )
                    + "\n"
                )
