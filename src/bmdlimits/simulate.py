"""Monte Carlo engine for the attacker-vs-tester game on synthetic transactions.

Replications are grouped into fixed-size chunks; chunk c of logical stream s
draws from ``SeedSequence(seed, spawn_key=(s, c))``.  Chunk boundaries and the
in-chunk draw order are fixed, so results are bit-identical for a given seed
regardless of how many workers the chunks are spread over.

A parallel-testing chunk of ``n_rep`` replications of ``n`` tests reads its
stream in this order, each uniform array holding ``n_rep * n`` doubles, row
by row:

1. the test transactions: one array per triggered attribute for uniform and
   factored testers, or one over the support for a sparse tester, each read
   against the inverse-CDF runs of its allowed values (a script tester
   draws none),
2. the flip uniforms of the tests,
3. the altered-voter count (binomial per replication).

Uniform array j starts ``j * n_rep * n`` doubles into the stream, so each
array reads its own ``PCG64`` on the chunk's ``SeedSequence``, advanced to
that offset, and the chunk walks its rows in blocks of at most
``BLOCK_CELLS`` tests, or a row wider than that in column blocks.

A test is caught only where every array keeps it: its trigger uniforms fall
in allowed runs and its flip uniform below the flip probability.  So in each
block the sparsest array (the least share of kept uniforms: the flip
probability, or the mass of a trigger array's runs) is read in full, and
each other array, sparsest first, only at the cells still kept.  Where those
are fewer than one in ``_JUMP_DRAWS`` (360), the array's generator jumps from
one to the next (``PCG64.advance``, Brown 1994) and draws one double there;
otherwise it draws the whole block.  An array that keeps every cell or none
(a flip probability of 1 or 0) is advanced past the block unread.  Either
way each generator ends the block where a full read leaves it, and every
double read is the one a single draw of the whole chunk puts there, so
neither the order nor the block size ever changes a report.  A chunk holds
one float array of a block at a time (8 bytes per cell) and the kept
positions, whatever the test count.  The binomial continues from the flips'
generator, which the last flip block leaves where the one-shot draw did.  A
script tester's hit row counts as one more array, of mass its matching
share, that costs no draw: sparser than the flips, it is read first, so the
flips are read only at its columns.

A uniform lies in an allowed run iff an odd number of run ends lie at or
below it.  For a few ends the chunk compares it with each end; for more it
reads that parity from a guide table (Chen & Asau 1974), built once per
scenario and sent to each worker once: one byte per bucket
``[b / M, (b + 1) / M)``, with ``M`` a power of two of 16 to 32 buckets per
end.  Only the cells whose bucket holds an end, 3 to 6 % of them, fall back
to a binary search, so the mask is exact either way and never changes a
report.

Passive runs draw benign spoils, then extra spoils among altered voters, on
streams of their own.

Detection is per-replication Boolean: any test transaction that matches the
attacker's trigger and whose independent flip event fires is a catch.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial
from typing import Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ParseError, validated
from .kernels import poisson_tail
from .parallel import detection_prob_iid
from .space import (
    Transaction,
    TransactionSpace,
    as_int,
    get_int,
    get_number,
    get_str,
    list_of,
    lists_by_name,
    load_config,
    require,
    space_from_config,
)
from .transactions import TransactionDistribution, _as_points, distribution_from_config

CHUNK_TRIALS = 4096  # fixed; never dependent on the worker count

MAX_TRIALS = 2**30  # 2**18 chunks; what this bounds is in ``SimScenario``

#: Most tests a tester runs per trial.  A chunk's memory does not grow with
#: the count (it draws in blocks of ``BLOCK_CELLS``), but its time does: a run
#: draws up to ``trials * test_count`` uniforms per trigger array and the flips.
MAX_TEST_COUNT = 2**30

#: Tasks each worker of a pool receives: a run hands the pool at most
#: ``BATCHES_PER_WORKER * workers`` runs of consecutive chunks, whatever its
#: trials.  Fixed, and the results come back in chunk order, so it never
#: changes a report.
BATCHES_PER_WORKER = 8

#: A run's work, in uniform draws, from which ``_run_chunks`` starts a process
#: pool; below it one process is as fast or faster, whatever ``workers`` is.
#: On a 2-vCPU Xeon (CPython 3.11, numpy 2.4), one warm process and a 2-worker
#: pool break even between 8 and 16 M draws (median of 7 runs each, at 5-7 ns
#: a draw, README); a fresh process also pays ~13 ms to import the pool.
POOL_MIN_DRAWS = 2**24

#: Uniform draws one binomial variate counts as in a run's work: the same
#: measurements put a binomial at 14-16 uniform draws.
BINOMIAL_DRAWS = 16

#: ``run_estimation_study`` keeps one float64 L1 value per trial: 128 MB and
#: 4,096 chunks at this limit.
MAX_STUDY_TRIALS = 2**24

#: Most cells a chunk holds at once (8 bytes each): tests of a parallel-testing
#: block, multinomial counts of the estimation study.  Memory stays bounded at
#: any test count or support size; fixed, so it never changes a report.
BLOCK_CELLS = 2**20

_STREAM_TESTS = 0
_STREAM_PASSIVE_NULL = 1
_STREAM_PASSIVE_ATTACKED = 2
_STREAM_ESTIMATION = 3


@validated
class MalloryStrategy(NamedTuple):
    """Attacker behavior: a conjunctive trigger plus a per-transaction flip
    probability.

    ``trigger`` maps attribute names to allowed value indices; attributes not
    named are unconstrained.  A transaction matching every named attribute is
    altered with probability ``flip_prob``, independently per transaction.
    """

    trigger: tuple[tuple[str, tuple[int, ...]], ...]
    flip_prob: float
    label: str = ""

    def _check(self) -> None:
        if not 0.0 <= self.flip_prob <= 1.0:
            raise DomainError("flip_prob must be in [0, 1]")

    @classmethod
    def from_mapping(
        cls, trigger: Mapping[str, Sequence[int]], flip_prob: float, label: str = ""
    ) -> "MalloryStrategy":
        items = tuple((name, tuple(sorted(set(vals)))) for name, vals in trigger.items())
        return cls(items, flip_prob, label)

    def validate_against(self, space: TransactionSpace) -> None:
        for name, vals in self.trigger:
            i = space.index_of(name)
            card = space.attributes[i].cardinality
            if not vals:
                raise DomainError(f"trigger for {name!r} allows no values")
            for v in vals:
                if not 0 <= v < card:
                    raise DomainError(f"trigger value {v} out of range for {name!r}")


@validated
class PatStrategy(NamedTuple):
    """Tester behavior: where test transactions come from and how many
    (``test_count``, at most ``MAX_TEST_COUNT``, 2**30, per trial)."""

    mode: Literal["uniform", "distribution", "script"]
    test_count: int
    distribution: TransactionDistribution | None = None
    scripts: tuple[Transaction, ...] | None = None

    def _check(self) -> None:
        if self.mode not in ("uniform", "distribution", "script"):
            raise DomainError(f"unknown tester mode {self.mode!r}")
        if self.test_count < 0:
            raise DomainError("test_count must be >= 0")
        if self.test_count > MAX_TEST_COUNT:
            raise DomainError(
                f"test_count must be at most 2**30 ({MAX_TEST_COUNT:,}), got {self.test_count:,}"
            )
        # each mode reads exactly its own field
        for field, mode in (("distribution", "distribution"), ("scripts", "script")):
            given = getattr(self, field) is not None
            if given != (self.mode == mode):
                raise DomainError(f"{self.mode} mode {'reads no' if given else 'requires'} {field}")
        if self.mode == "script" and len(self.scripts) != self.test_count:
            raise DomainError("script mode: test_count must equal len(scripts)")


@validated
class PassiveParams(NamedTuple):
    detect_rate: float
    base_rate: float
    alarm_threshold: int

    def _check(self) -> None:
        if not 0.0 <= self.detect_rate <= 1.0 or not 0.0 <= self.base_rate <= 1.0:
            raise DomainError("rates must be in [0, 1]")
        if self.alarm_threshold < 1:
            raise DomainError("alarm_threshold must be >= 1")


@validated
class SimScenario(NamedTuple):
    """Full specification of one attacker-vs-tester Monte Carlo experiment.

    ``trials`` is at most ``MAX_TRIALS`` (2**30), 2**18 chunks of
    ``CHUNK_TRIALS``.  A run lists no chunks before its first draw: a chunk's
    trials follow from its index, and a process pool holds one pending future
    per batch of consecutive chunks, at most ``BATCHES_PER_WORKER`` (8) per
    worker, whatever ``trials`` is.  What grows with ``trials`` is the list
    of chunk results, a tuple of a few integers each: ~26 MB at the limit
    (tracemalloc, CPython 3.11).
    """

    space: TransactionSpace
    voter_dist: TransactionDistribution
    n_voters: int
    mallory: MalloryStrategy
    pat: PatStrategy
    trials: int
    seed: int
    passive: PassiveParams | None = None
    label: str = ""

    def _check(self) -> None:
        if self.n_voters < 1:
            raise DomainError("n_voters must be >= 1")
        if self.n_voters >= 2**51:
            # a chunk sums CHUNK_TRIALS (2**12) altered counts in int64
            raise DomainError("n_voters must be below 2**51")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise DomainError(f"trials must be at most 2**30 ({MAX_TRIALS:,}), got {self.trials:,}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        self.mallory.validate_against(self.space)
        for who, dist in (("voter", self.voter_dist), ("tester", self.pat.distribution)):
            if dist is not None and dist.space.attributes != self.space.attributes:
                raise DomainError(f"{who} distribution is over a different space")
        if self.pat.scripts is not None:
            _as_points(self.space, [tx.coordinates for tx in self.pat.scripts])


class Estimate(NamedTuple):
    """A Monte Carlo estimate with its standard error and trial count."""

    value: float
    std_error: float
    trials: int


class SimReport(NamedTuple):
    label: str
    trials: int
    seed: int
    empirical_detection: Estimate | None = None
    empirical_altered_fraction: Estimate | None = None
    empirical_fp: Estimate | None = None
    empirical_fn: Estimate | None = None
    analytic: Mapping[str, float] | None = None

    def to_dict(self) -> dict:
        """The report's fields by name, each ``Estimate`` a dict of its own."""
        return {k: v._asdict() if isinstance(v, Estimate) else v for k, v in self._asdict().items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# -- trigger probabilities --------------------------------------------------


def _rows_match(
    mallory: MalloryStrategy, space: TransactionSpace, rows: np.ndarray
) -> np.ndarray:
    """Boolean mask over ``(n, d)`` coordinate rows of ``space``: the row
    matches the trigger."""
    hit = np.ones(len(rows), dtype=bool)
    for name, vals in mallory.trigger:
        hit &= np.isin(rows[:, space.index_of(name)], vals)
    return hit


def trigger_mass(
    mallory: MalloryStrategy, dist: TransactionDistribution
) -> float:
    """Probability that one draw from ``dist`` matches the trigger."""
    space = dist.space
    if dist.form == "factored":
        mass = 1.0
        for name, vals in mallory.trigger:
            i = space.index_of(name)
            mass *= float(dist.marginal(i)[list(vals)].sum())
        return mass
    return _hit_mass(dist.weights, _rows_match(mallory, space, dist.support))


def _hit_mass(weights: np.ndarray, hit: np.ndarray) -> float:
    """Total of the support ``weights`` where ``hit`` is set."""
    hits = weights[hit]
    # a running sum adds the matching weights left to right, in support order
    return float(np.cumsum(hits)[-1]) if len(hits) else 0.0


class _TestDraw(NamedTuple):
    """How a chunk draws which of its ``count`` tests match the trigger,
    resolved once per scenario: a script's ``hit`` row, or the sorted ends
    of the allowed ``runs`` of each uniform array the tests read (one per
    triggered attribute, or one over a sparse tester's support), each with
    its guide table in ``guides`` and its share of kept uniforms in
    ``masses`` (``_run_mass``)."""

    count: int
    hit: np.ndarray | None = None
    runs: tuple[np.ndarray, ...] = ()
    guides: tuple[np.ndarray | None, ...] = ()
    masses: tuple[float, ...] = ()


def _resolve_tests(s: SimScenario) -> tuple[_TestDraw, dict[str, float]]:
    """The tests' trigger draw, and the analytic detection rate it implies."""
    n = s.pat.test_count
    q = s.mallory.flip_prob
    if s.pat.mode == "script":
        rows = _as_points(s.space, [tx.coordinates for tx in s.pat.scripts])
        hit = _rows_match(s.mallory, s.space, rows)
        matches = int(hit.sum())
        detection = detection_prob_iid(q, matches) if matches else 0.0
        return _TestDraw(n, hit=hit), {"triggered_scripts": float(matches), "detection": detection}
    if s.pat.mode == "distribution":
        dist = s.pat.distribution
    else:
        dist = TransactionDistribution.uniform(s.space)
    if dist.form == "sparse":
        # one attribute whose values are the support points
        hit = _rows_match(s.mallory, s.space, dist.support)
        runs = (_allowed_runs(dist.weights, np.flatnonzero(hit)),)
        p_test = _hit_mass(dist.weights, hit)
    else:
        runs = tuple(
            _allowed_runs(dist.marginal(s.space.index_of(name)), vals)
            for name, vals in s.mallory.trigger
        )
        p_test = trigger_mass(s.mallory, dist)
    detection = detection_prob_iid(p_test * q, n)
    tests = _TestDraw(
        n, runs=runs, guides=tuple(map(_guide_table, runs)), masses=tuple(map(_run_mass, runs))
    )
    return tests, {"trigger_mass_under_tests": p_test, "detection": detection}


def _run_mass(ends: np.ndarray) -> float:
    """Share of [0, 1) that the runs with sorted ``ends`` cover: 0 for no
    run, 1 only for the one run [0, 1), and strictly between otherwise."""
    if len(ends) == 2 and ends[0] == 0.0 and ends[1] == 1.0:
        return 1.0
    return min(float(np.sum(ends[1::2] - ends[0::2])), 1.0 - 2.0**-53)


def _triggered_tests(
    tests: _TestDraw, rngs: Sequence[np.random.Generator], q: float, rows: int, cols: slice
) -> np.ndarray:
    """Sorted flat positions, in a block of ``rows`` rows of the tests in
    ``cols``, of the tests the attack alters: they match the trigger and
    their flip fires.

    Uniform array j is read from ``rngs[j]``, the flips from the last, each
    on from where it stands to the block's end.  The array of least mass
    (``tests.masses``, or ``q`` for the flips) is read in full, and each
    other, in order of mass, only at the cells that every array before it
    kept (``_read_at``).  An array of mass 0 or 1 keeps no cell or every
    cell, so it is advanced past the block unread.  A script's ``hit`` row
    is read first where it keeps fewer of the block's columns than ``q``
    does of the flips, so the flips are read only at its columns; otherwise
    it filters the kept cells at the end.
    """
    width = cols.stop - cols.start
    cells = rows * width
    arrays = [(q, rngs[-1], lambda u: u < q)] + [
        (mass, rng, partial(_in_runs, ends=ends, guide=guide))
        for mass, rng, ends, guide in zip(tests.masses, rngs, tests.runs, tests.guides)
    ]
    kept = None  # every cell
    hit = None if tests.hit is None else tests.hit[cols]
    if hit is not None and np.count_nonzero(hit) < q * width:
        kept, hit = (np.arange(rows)[:, None] * width + np.flatnonzero(hit)).ravel(), None
    for mass, rng, keeps in sorted(arrays, key=lambda array: array[0]):
        if mass in (0.0, 1.0):
            rng.bit_generator.advance(cells)
            if mass == 0.0:
                kept = np.empty(0, dtype=np.intp)
        elif kept is None:
            kept = np.flatnonzero(keeps(rng.random(cells)))
        else:
            kept = kept[keeps(_read_at(rng, kept, cells))]
    if kept is None:
        kept = np.arange(cells)
    if hit is not None:
        kept = kept[hit[kept % width]]
    return kept


#: One ``PCG64.advance`` jump and one draw cost as much as reading this many
#: doubles in full, so ``_read_at`` jumps only to fewer positions than
#: ``cells / _JUMP_DRAWS``.  Per block of 2**20 cells, positions at random, on
#: one Xeon core, numpy 2.4 (full read vs jumps, medians of 5): one cell in
#: 256 3.4 vs 4.6 ms, in 320 3.3 vs 3.6 ms, in 384 3.1 vs 2.9 ms, in 448 3.2
#: vs 2.5 ms, in 512 3.2 vs 2.2 ms.  A jump is ~1.1 us, a double ~3 ns.
_JUMP_DRAWS = 360


def _read_at(rng: np.random.Generator, at: np.ndarray, cells: int) -> np.ndarray:
    """``rng.random(cells)[at]`` at the sorted distinct positions ``at``,
    leaving ``rng`` where that full read leaves it.

    With fewer than one position per ``_JUMP_DRAWS`` cells, the generator
    jumps (``PCG64.advance``, Brown 1994) to each position and takes one
    64-bit step there, of which ``random`` makes the double of its top 53
    bits; otherwise it reads the whole block.
    """
    if len(at) * _JUMP_DRAWS >= cells:
        return rng.random(cells)[at]
    bits = rng.bit_generator
    gaps = np.diff(at, prepend=-1) - 1
    raw = np.array([bits.advance(gap).random_raw() for gap in gaps.tolist()], dtype=np.uint64)
    bits.advance(cells - 1 - int(at[-1]) if len(at) else cells)
    return (raw >> 11) * 2.0**-53


def _allowed_runs(w: np.ndarray, vals: Sequence[int] | np.ndarray) -> np.ndarray:
    """Sorted ends of the disjoint intervals ``[lo, hi)`` of a uniform ``u``
    in [0, 1) whose inverse-CDF draw from weights ``w`` is one of ``vals``.

    ``searchsorted(cdf, u, side="right")`` draws value v iff
    ``edges[v] <= u < edges[v + 1]``, so a run of consecutive allowed values
    is one interval, and comparing ``u`` with its ends selects exactly the
    draws that land in it.
    """
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    edges = np.concatenate(([0.0], cdf))
    # keep[v + 1] is value v, between two False ends so that every run closes;
    # a value of zero width is never drawn, so it may join the runs around it
    keep = np.zeros(len(w) + 2, dtype=bool)
    keep[1:-1] = edges[:-1] >= edges[1:]
    keep[np.asarray(vals, dtype=np.intp) + 1] = True
    ends = edges[np.flatnonzero(np.diff(keep))].reshape(-1, 2)
    return ends[ends[:, 0] < ends[:, 1]].ravel()


#: Most run ends that ``_in_runs`` compares ``u`` with one at a time; past
#: it, the guide table is faster.  Per 3,495 x 300 block on one Xeon core,
#: numpy 2.4 (compared vs guide table, medians): 2 ends 1.9 vs 8.0 ms, 16 ends
#: 7.7 vs 12.9 ms, 18 ends 9.2 vs 10.3 ms, 20 ends 9.9 vs 9.2 ms, 24 ends 11.9
#: vs 10.0 ms.  At 35.7k ends the table takes 13-17 ms, a binary search 189.
_COMPARE_ENDS = 18

#: Guide-table buckets per run end, rounded up to a power of two.
_BUCKETS_PER_END = 16


def _guide_table(ends: np.ndarray) -> np.ndarray | None:
    """Guide table (Chen & Asau 1974) over the sorted run ``ends``, or None
    for at most ``_COMPARE_ENDS`` ends, which ``_in_runs`` compares one at a
    time.

    Entry b covers the uniforms in ``[b / M, (b + 1) / M)``, where ``M``,
    the table's length, is a power of two, so ``u * M`` and ``end * M`` are
    exact.  It is the parity of the ends at or below every ``u`` there (0 or
    1), or 2 if an end lies strictly inside the bucket.  An end counts from
    bucket ``ceil(end * M)`` on, so one pass of counts and a running sum
    build the table.
    """
    if len(ends) <= _COMPARE_ENDS:
        return None
    buckets = 1 << (_BUCKETS_PER_END * len(ends) - 1).bit_length()
    scaled = ends * buckets
    first = np.ceil(scaled)
    counts = np.bincount(first.astype(np.intp), minlength=buckets + 1)[:buckets]
    # a uint8 running sum wraps modulo 256, which keeps its parity
    table = np.cumsum(counts, dtype=np.uint8) & 1
    table[first[first > scaled].astype(np.intp) - 1] = 2
    return table


def _in_runs(u: np.ndarray, ends: np.ndarray, guide: np.ndarray | None) -> np.ndarray:
    """Boolean mask: ``u`` lies in one of the disjoint intervals ``[lo, hi)``
    whose sorted ends are ``ends``.

    ``u`` lies in ``[lo, hi)`` iff exactly one of ``lo``, ``hi`` is at or
    below it, and in at most one interval, so the mask is the parity of the
    ends at or below ``u``: counted end by end, or read from the ``guide``
    table of ``_guide_table``, with a binary search for the cells whose
    bucket holds an end.
    """
    if guide is None:
        hit = np.zeros(u.shape, dtype=bool)
        passed = np.empty(u.shape, dtype=bool)
        for end in ends.tolist():
            hit ^= np.greater_equal(u, end, out=passed)
        return hit
    code = guide[(u * len(guide)).astype(np.intp)]
    hit = code == 1
    split = np.flatnonzero(code == 2)
    hit.reshape(-1)[split] = np.searchsorted(ends, u.reshape(-1)[split], side="right") & 1
    return hit


def _chunk_seq(seed: int, stream: int, chunk: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(stream, chunk))


def _array_rngs(
    seq: np.random.SeedSequence, arrays: int, cells: int
) -> list[np.random.Generator]:
    """One generator per uniform array of ``cells`` doubles that the stream of
    ``seq`` holds back to back: generator j starts ``j * cells`` doubles in.

    ``PCG64`` yields one 64-bit step per double, so ``advance`` skips exactly
    the arrays before, and generator j reads what a single generator would
    after drawing them."""
    return [np.random.Generator(np.random.PCG64(seq).advance(j * cells)) for j in range(arrays)]


#: A worker process's ``(chunk_fn, args, trials)``, set once by ``_set_worker_job``.
_worker_job: tuple = ()


def _set_worker_job(chunk_fn, args: tuple, trials: int) -> None:
    global _worker_job
    _worker_job = chunk_fn, args, trials


def _chunk(chunk_fn, args: tuple, trials: int, chunk: int):
    """``chunk_fn`` on chunk ``chunk`` of ``trials`` replications."""
    lo = chunk * CHUNK_TRIALS
    return chunk_fn(*args, chunk, lo, min(lo + CHUNK_TRIALS, trials))


def _worker_chunks(chunks: range) -> list:
    return [_chunk(*_worker_job, chunk) for chunk in chunks]


def _run_chunks(chunk_fn, trials: int, draws_per_trial: float, workers: int, *args) -> list:
    """``chunk_fn(*args, chunk, lo, hi)`` for each chunk of ``trials``
    replications, in chunk order.

    ``workers`` is an upper bound.  The chunks go to a pool of up to
    ``workers`` processes, never more than one per chunk or per CPU, only
    when the run's work, ``trials * draws_per_trial`` uniform draws, reaches
    ``POOL_MIN_DRAWS``; below it they run in this process, which then loads
    no ``concurrent.futures``.  Either way gives the same results.  A worker
    receives ``chunk_fn``, ``args`` and ``trials`` once, from the pool's
    initializer, and then a few tasks, each a ``range`` of consecutive chunk
    indices: at most ``BATCHES_PER_WORKER`` per worker.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    job = chunk_fn, args, trials
    chunks = range(-(-trials // CHUNK_TRIALS))
    workers = min(workers, len(chunks), os.cpu_count() or 1)  # fork starts every worker at once
    if workers > 1 and trials * draws_per_trial >= POOL_MIN_DRAWS:
        from concurrent.futures import ProcessPoolExecutor

        step = -(-len(chunks) // (workers * BATCHES_PER_WORKER))
        batches = (chunks[c : c + step] for c in range(0, len(chunks), step))
        with ProcessPoolExecutor(workers, initializer=_set_worker_job, initargs=job) as pool:
            return [out for batch in pool.map(_worker_chunks, batches) for out in batch]
    return [_chunk(*job, chunk) for chunk in chunks]


def _report(
    s: SimScenario, p_voter: float, altered: int, analytic: dict[str, float], **rates: float
) -> SimReport:
    """The report of a run: each empirical rate in ``rates`` with its
    standard error, the altered fraction and the analytic values."""
    voters = s.trials * s.n_voters
    alt = altered / voters
    return SimReport(
        label=s.label,
        trials=s.trials,
        seed=s.seed,
        empirical_altered_fraction=Estimate(
            alt, math.sqrt(max(alt * (1 - alt), 0.0) / voters), s.trials
        ),
        analytic={**analytic, "altered_fraction": p_voter * s.mallory.flip_prob},
        **{f"empirical_{name}": _estimate(p, s.trials) for name, p in rates.items()},
    )


def _estimate(p: float, trials: int) -> Estimate:
    return Estimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / trials), trials)


# -- parallel-testing simulation --------------------------------------------


def _parallel_chunk(
    seed: int, n_voters: int, q: float, p_voter: float, tests: _TestDraw,
    chunk: int, lo: int, hi: int,
) -> tuple[int, int]:
    """(detections, altered-voter total) for one chunk of replications."""
    n_rep = hi - lo
    n = tests.count
    rngs = _array_rngs(_chunk_seq(seed, _STREAM_TESTS, chunk), len(tests.runs) + 1, n_rep * n)
    caught = np.zeros(n_rep, dtype=bool)
    if n > 0:
        block = max(1, BLOCK_CELLS // n)
        width = min(n, BLOCK_CELLS)  # below n only in one-row blocks
        for r in range(0, n_rep, block):
            rows = min(block, n_rep - r)
            for c in range(0, n, width):
                cols = slice(c, min(c + width, n))
                fired = _triggered_tests(tests, rngs, q, rows, cols)
                caught[r + fired // (cols.stop - cols.start)] = True
    # the flips' generator stands where the one-shot draw of every array ends
    altered = int(rngs[-1].binomial(n_voters, p_voter * q, size=n_rep).sum())
    return int(caught.sum()), altered


def _draws_per_test(tests: _TestDraw, q: float) -> float:
    """Uniform draws one test costs as ``_triggered_tests`` reads it: the
    array of least mass in full, and each next one at the share of cells
    still kept, a jump counted as ``_JUMP_DRAWS`` draws, up to a full read.
    Arrays of mass 0 or 1 are not read, and after one of mass 0 none is.  A
    script's hit row is an array of its matching share that costs nothing."""
    arrays = [(q, 1.0)] + [(mass, 1.0) for mass in tests.masses]
    if tests.hit is not None:
        arrays.append((np.count_nonzero(tests.hit) / max(tests.count, 1), 0.0))  # no scripts: share 0
    draws = 0.0
    kept = 1.0
    for mass, cost in sorted(arrays, key=lambda array: array[0]):
        if mass in (0.0, 1.0):
            break
        draws += cost * min(1.0, kept * _JUMP_DRAWS)
        kept *= mass
    return draws


def run_parallel_sim(s: SimScenario, workers: int = 1) -> SimReport:
    """Empirical detection rate of the tester against the configured attack."""
    p_voter = trigger_mass(s.mallory, s.voter_dist)
    tests, analytic = _resolve_tests(s)
    draws = tests.count * _draws_per_test(tests, s.mallory.flip_prob) + BINOMIAL_DRAWS
    detected, altered = map(sum, zip(*_run_chunks(
        _parallel_chunk, s.trials, draws, workers, s.seed, s.n_voters, s.mallory.flip_prob, p_voter, tests
    )))
    return _report(s, p_voter, altered, analytic, detection=detected / s.trials)


# -- passive-testing simulation ---------------------------------------------


def _passive_chunk(
    seed: int, n_voters: int, q: float, p_voter: float, passive: PassiveParams,
    chunk: int, lo: int, hi: int,
) -> tuple[int, int, int]:
    """(null alarms, attacked alarms, altered total) for one chunk."""
    n_rep = hi - lo
    b = passive.base_rate
    d = passive.detect_rate
    k = passive.alarm_threshold

    rng0 = np.random.default_rng(_chunk_seq(seed, _STREAM_PASSIVE_NULL, chunk))
    spoils0 = rng0.binomial(n_voters, b, size=n_rep)
    alarms0 = int((spoils0 >= k).sum())

    rng1 = np.random.default_rng(_chunk_seq(seed, _STREAM_PASSIVE_ATTACKED, chunk))
    altered = rng1.binomial(n_voters, p_voter * q, size=n_rep)
    benign = rng1.binomial(n_voters - altered, b)
    # an altered voter spoils if either the benign or the noticing event fires
    extra = rng1.binomial(altered, b + d - b * d)
    alarms1 = int(((benign + extra) >= k).sum())
    return alarms0, alarms1, int(altered.sum())


def run_passive_sim(s: SimScenario, workers: int = 1) -> SimReport:
    """Empirical alarm rates with the attack disabled (fp) and enabled (fn),
    next to the Poisson-model predictions."""
    if s.passive is None:
        raise DomainError("scenario has no passive parameters")
    p_voter = trigger_mass(s.mallory, s.voter_dist)
    # a trial draws four binomials: the null spoils, then three under attack
    alarms0, alarms1, altered = map(sum, zip(*_run_chunks(
        _passive_chunk, s.trials, 4 * BINOMIAL_DRAWS, workers,
        s.seed, s.n_voters, s.mallory.flip_prob, p_voter, s.passive,
    )))
    b = s.passive.base_rate
    k = s.passive.alarm_threshold
    attack_rate = p_voter * s.mallory.flip_prob * s.passive.detect_rate
    analytic = {
        "fp": poisson_tail(s.n_voters * b, k),
        "fn": 1.0 - poisson_tail(s.n_voters * (b + attack_rate), k),
    }
    return _report(
        s, p_voter, altered, analytic, fp=alarms0 / s.trials, fn=1.0 - alarms1 / s.trials
    )


# -- plug-in estimation study ------------------------------------------------


class EstimationReport(NamedTuple):
    n_train: int
    trials: int
    seed: int
    mean_l1: float
    std_l1: float
    min_l1: float
    max_l1: float
    support_size: int
    lower_bound_at_n: float

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=False)


def _estimation_chunk(
    weights: np.ndarray, n_train: int, seed: int, chunk: int, lo: int, hi: int
) -> np.ndarray:
    rng = np.random.default_rng(_chunk_seq(seed, _STREAM_ESTIMATION, chunk))
    n_rep = hi - lo
    l1 = np.empty(n_rep)
    block = max(1, BLOCK_CELLS // len(weights))
    # successive multinomial calls continue one stream: blocking keeps the draws
    for lo in range(0, n_rep, block):
        err = rng.multinomial(n_train, weights, size=min(block, n_rep - lo)) / n_train
        err -= weights
        np.abs(err, out=err)
        l1[lo : lo + len(err)] = err.sum(axis=1)
    return l1


def run_estimation_study(
    space: TransactionSpace,
    true_dist: TransactionDistribution,
    n_train: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> EstimationReport:
    """L1 error of the plug-in estimator from ``n_train`` IID draws.

    Sampling is by multinomial counts over the points of positive mass (the
    support size reported), like tallying IID draws.  The reported bound is
    the worst case over all distributions on this support size, so it is a
    comparison column, not an assertion about this particular distribution.

    ``true_dist`` must be over ``space``, and ``trials`` at most 2**24 (``MAX_STUDY_TRIALS``).
    """
    from .minimax import hjw_lower_bound

    if true_dist.space.attributes != space.attributes:
        raise DomainError("true distribution is over a different space")
    if n_train < 1 or trials < 1:
        raise DomainError("n_train and trials must be >= 1")
    if trials > MAX_STUDY_TRIALS:
        raise DomainError(f"trials must be at most 2**24 ({MAX_STUDY_TRIALS:,}), got {trials:,}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    weights = true_dist.weights if true_dist.form == "sparse" else true_dist.to_dense()
    weights = weights[weights > 0]
    support_size = len(weights)

    # a trial's multinomial draws up to one binomial per support point
    draws = support_size * BINOMIAL_DRAWS
    l1 = np.concatenate(_run_chunks(_estimation_chunk, trials, draws, workers, weights, n_train, seed))
    bound = (
        hjw_lower_bound(n_train, support_size, 1.0) if support_size >= 2 else float("-inf")
    )
    return EstimationReport(
        n_train=n_train,
        trials=trials,
        seed=seed,
        mean_l1=float(l1.mean()),
        std_l1=float(l1.std(ddof=1)) if trials > 1 else 0.0,
        min_l1=float(l1.min()),
        max_l1=float(l1.max()),
        support_size=support_size,
        lower_bound_at_n=bound,
    )


# -- declarative scenario files ---------------------------------------------


def scenario_from_config(cfg: Mapping) -> SimScenario:
    """Scenario from a JSON-style mapping; see the repository scenarios/ for
    worked examples.  A missing key is a ``ParseError`` that names it."""
    space = space_from_config(require(cfg, "space", "scenario"))
    voter_dist = distribution_from_config(space, cfg.get("voter_distribution", {}))
    mallory_cfg = require(cfg, "mallory", "scenario")
    flip_prob = get_number(mallory_cfg, "flip_prob", "mallory")
    trigger = lists_by_name(mallory_cfg.get("trigger", {}), as_int, "mallory 'trigger'")
    mallory = MalloryStrategy.from_mapping(trigger, flip_prob, get_str(mallory_cfg, "label", "mallory"))
    if cfg.get("kind") == "passive" and cfg.get("pat") is None:
        pat_cfg = {"mode": "uniform", "test_count": 0}  # it runs no tests; a block given is still read
    else:
        pat_cfg = require(cfg, "pat", "scenario")
    mode = require(pat_cfg, "mode", "pat")
    dist = None
    scripts = None
    if mode == "distribution":
        dist = distribution_from_config(space, require(pat_cfg, "distribution", "pat"))
    if mode == "script":
        scripts = tuple(
            list_of(
                require(pat_cfg, "scripts", "pat"),
                lambda row, what: Transaction(tuple(list_of(row, as_int, what))),
                "pat 'scripts'",
            )
        )
    pat = PatStrategy(
        mode=mode,
        test_count=get_int(pat_cfg, "test_count", "pat", len(scripts) if scripts else 0),
        distribution=dist,
        scripts=scripts,
    )
    passive = None
    if cfg.get("passive") is not None:
        p = cfg["passive"]
        passive = PassiveParams(
            detect_rate=get_number(p, "detect_rate", "passive"),
            base_rate=get_number(p, "base_rate", "passive"),
            alarm_threshold=get_int(p, "alarm_threshold", "passive"),
        )
    return SimScenario(
        space=space,
        voter_dist=voter_dist,
        n_voters=get_int(cfg, "n_voters", "scenario"),
        mallory=mallory,
        pat=pat,
        trials=get_int(cfg, "trials", "scenario"),
        seed=get_int(cfg, "seed", "scenario"),
        passive=passive,
        label=get_str(cfg, "label", "scenario"),
    )


def _kind_and_scenario(cfg: Mapping) -> tuple[str, SimScenario]:
    if not isinstance(cfg, Mapping):
        raise ParseError("a scenario must be a JSON object")
    kind = cfg.get("kind", "parallel")
    if kind not in ("parallel", "passive"):
        raise ParseError(f"unknown scenario kind {kind!r}")
    if kind == "parallel" and cfg.get("passive") is not None:
        raise ParseError("kind 'parallel' does not read the 'passive' block; set kind to 'passive'")
    if kind == "passive" and cfg.get("passive") is None:
        raise ParseError("kind 'passive' needs a 'passive' block")
    return kind, scenario_from_config(cfg)


def load_scenario(path: str) -> tuple[str, SimScenario]:
    """(kind, scenario) from a JSON file; kind is 'parallel' or 'passive'."""
    return load_config(path, _kind_and_scenario)
