"""Monte Carlo engine tests: worker-count invariance, agreement with the
closed-form predictions, and degenerate scenarios with known outcomes."""

import concurrent.futures
import io
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import pickle
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmdlimits import cli, simulate

from bmdlimits.errors import DomainError
from bmdlimits.simulate import (
    CHUNK_TRIALS,
    MAX_TEST_COUNT,
    MAX_TRIALS,
    POOL_MIN_DRAWS,
    MalloryStrategy,
    PassiveParams,
    PatStrategy,
    SimScenario,
    load_scenario,
    run_estimation_study,
    run_parallel_sim,
    run_passive_sim,
    scenario_from_config,
    trigger_mass,
)
from bmdlimits.space import (
    AttributeSpec,
    Transaction,
    TransactionSpace,
    realistic_preset,
)
from bmdlimits.transactions import TransactionDistribution

SPACE = TransactionSpace(
    (AttributeSpec("profile", 10), AttributeSpec("review", 2))
)


def ref_matches(m: MalloryStrategy, tx: Transaction, space: TransactionSpace) -> bool:
    """Point-at-a-time trigger match: every triggered attribute of ``tx``
    takes one of its allowed values."""
    for name, vals in m.trigger:
        if tx.coordinates[space.index_of(name)] not in vals:
            return False
    return True


def drawn_tests(s: SimScenario, rng: np.random.Generator, n_rep: int) -> np.ndarray:
    """The simulator's trigger matrix of ``n_rep`` replications of the tests,
    each uniform array read from its own generator on the stream of ``rng``:
    the tests it alters when every flip fires."""
    tests = simulate._resolve_tests(s)[0]
    cells = n_rep * tests.count
    rngs = simulate._array_rngs(rng.bit_generator.seed_seq, len(tests.runs) + 1, cells)
    out = np.zeros(cells, dtype=bool)
    out[simulate._triggered_tests(tests, rngs, 1.0, n_rep, slice(0, tests.count))] = True
    return out.reshape(n_rep, tests.count)


def drawn_each_way(s: SimScenario, seed: int, n_rep: int) -> list[np.ndarray]:
    """``drawn_tests`` with ``_in_runs`` comparing every run end, then
    reading them through a guide table."""
    out = []
    for most in (2**62, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_COMPARE_ENDS", most)
            out.append(drawn_tests(s, np.random.default_rng(seed), n_rep))
    return out


def inline_pool(monkeypatch, cpus: int | None = 64) -> dict[str, list]:
    """Swap the ``ProcessPoolExecutor`` that the simulator imports when it
    starts a pool for a stand-in that runs in this process, so no process
    starts, and record what a real pool would send: each pool's size and the
    ``initargs`` every one of its workers receives once, then each task, a
    ``range`` of chunk indices.  ``os.cpu_count`` reads ``cpus``, so pool
    sizes do not depend on the machine."""
    sent: dict[str, list] = {"pools": [], "initargs": [], "tasks": []}
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sent["pools"].append(max_workers)
            sent["initargs"].append(initargs)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)  # a real pool submits every task before the first result
            sent["tasks"].extend(tasks)
            return [fn(task) for task in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(simulate, "_worker_job", ())  # restored after the test
    return sent


def chunk_size(chunk: int, lo: int, hi: int) -> int:
    return hi - lo


def fail_on_chunk_3(*args):
    """A chunk function, with any leading arguments, that fails in a worker;
    module level, so it pickles."""
    chunk, lo, hi = args[-3:]
    if chunk == 3:
        raise DomainError(f"chunk {chunk} failed")
    return 0, hi - lo


def scenario(**overrides) -> SimScenario:
    base = dict(
        space=SPACE,
        voter_dist=TransactionDistribution.uniform(SPACE),
        n_voters=500,
        mallory=MalloryStrategy.from_mapping({"profile": [3]}, 1.0),
        pat=PatStrategy(mode="uniform", test_count=20),
        trials=3 * CHUNK_TRIALS,  # force multiple chunks
        seed=12345,
    )
    base.update(overrides)
    return SimScenario(**base)


class TestMalloryStrategy:
    def test_trigger_validation(self):
        with pytest.raises(DomainError):
            MalloryStrategy.from_mapping({"profile": [99]}, 1.0).validate_against(SPACE)
        with pytest.raises(DomainError):
            MalloryStrategy.from_mapping({"nope": [0]}, 1.0).validate_against(SPACE)
        with pytest.raises(DomainError):
            MalloryStrategy.from_mapping({"profile": []}, 1.0).validate_against(SPACE)
        with pytest.raises(DomainError):
            MalloryStrategy.from_mapping({}, 1.5)

    def test_matches(self):
        m = MalloryStrategy.from_mapping({"profile": [3, 5]}, 1.0)
        rows = [(3, 0), (5, 1), (4, 0)]
        assert simulate._rows_match(m, SPACE, np.array(rows)).tolist() == [True, True, False]
        assert [ref_matches(m, Transaction(r), SPACE) for r in rows] == [True, True, False]

    def test_empty_trigger_matches_everything(self):
        m = MalloryStrategy.from_mapping({}, 0.5)
        assert simulate._rows_match(m, SPACE, np.array([(9, 1), (0, 0)])).all()
        assert ref_matches(m, Transaction((9, 1)), SPACE)


class TestTriggerMass:
    def test_uniform(self):
        m = MalloryStrategy.from_mapping({"profile": [3]}, 1.0)
        assert trigger_mass(m, TransactionDistribution.uniform(SPACE)) == pytest.approx(0.1)

    def test_factored_conjunction(self):
        m = MalloryStrategy.from_mapping({"profile": [0, 1], "review": [1]}, 1.0)
        d = TransactionDistribution.factored(
            SPACE, {"profile": [0.5, 0.1] + [0.05] * 8, "review": [0.25, 0.75]}
        )
        assert trigger_mass(m, d) == pytest.approx(0.6 * 0.75, abs=1e-12)

    def test_sparse(self):
        m = MalloryStrategy.from_mapping({"profile": [3]}, 1.0)
        d = TransactionDistribution.sparse(SPACE, [(3, 0), (3, 1), (4, 0)], [0.2, 0.3, 0.5])
        assert trigger_mass(m, d) == pytest.approx(0.5, abs=1e-12)

    def test_empty_trigger_has_full_mass(self):
        m = MalloryStrategy.from_mapping({}, 1.0)
        assert trigger_mass(m, TransactionDistribution.uniform(SPACE)) == 1.0

    def test_huge_uniform_attribute_is_domain_error(self):
        # 5**20 values: the uniform marginal once asked numpy for 694 TiB
        space = realistic_preset()
        uniform = TransactionDistribution.uniform(space)
        m = MalloryStrategy.from_mapping({"time_per_selection": [0]}, 1.0)
        with pytest.raises(DomainError, match="time_per_selection"):
            trigger_mass(m, uniform)
        small = MalloryStrategy.from_mapping({"languages": [0, 1]}, 1.0)
        assert trigger_mass(small, uniform) == pytest.approx(2 / 13, abs=1e-15)


@pytest.mark.usefixtures("pool_forced")
class TestWorkerInvariance:
    def test_parallel_byte_identical(self):
        s = scenario()
        a = run_parallel_sim(s, workers=1).to_json()
        b = run_parallel_sim(s, workers=3).to_json()
        assert a == b

    def test_passive_byte_identical(self):
        s = scenario(passive=PassiveParams(0.25, 0.005, 5), n_voters=1000)
        a = run_passive_sim(s, workers=1).to_json()
        b = run_passive_sim(s, workers=4).to_json()
        assert a == b

    def test_estimation_byte_identical(self):
        d = TransactionDistribution.sparse(SPACE, [(0, 0), (1, 1), (2, 0)], [0.5, 0.3, 0.2])
        a = run_estimation_study(SPACE, d, 1000, CHUNK_TRIALS + 100, 7, workers=1)
        b = run_estimation_study(SPACE, d, 1000, CHUNK_TRIALS + 100, 7, workers=3)
        assert a == b

    def test_pool_never_outnumbers_chunks(self, monkeypatch):
        sent = inline_pool(monkeypatch)

        def echo(*args):
            return args

        trials = 2 * CHUNK_TRIALS + 1
        want = [("x", 0, 0, CHUNK_TRIALS), ("x", 1, CHUNK_TRIALS, trials - 1), ("x", 2, trials - 1, trials)]
        assert simulate._run_chunks(echo, trials, 1, 64, "x") == want
        assert sent["pools"] == [3]
        # the shared arguments go to each worker once, not with every task
        assert sent["initargs"] == [(echo, ("x",), trials)]
        # a task is a run of chunk indices; each chunk's trials follow from it
        assert sent["tasks"] == [range(0, 1), range(1, 2), range(2, 3)]
        assert simulate._run_chunks(echo, 5, 1, 64, "x") == [("x", 0, 0, 5)]
        assert sent["pools"] == [3]  # one chunk runs in this process
        s = scenario(trials=100)
        assert run_parallel_sim(s, workers=1000).to_json() == run_parallel_sim(s).to_json()
        assert sent["pools"] == [3]

    @pytest.mark.parametrize("cpus, pools", [(4, [4]), (1, []), (None, [])])
    def test_pool_never_outnumbers_cpus(self, monkeypatch, cpus, pools):
        # once bounded only by the chunk count: --workers 100000 would have
        # forked one process per chunk, up to 2**18
        sent = inline_pool(monkeypatch, cpus)
        trials = 40 * CHUNK_TRIALS
        sizes = simulate._run_chunks(chunk_size, trials, POOL_MIN_DRAWS, 10**5)
        assert sizes == [CHUNK_TRIALS] * 40
        assert sent["pools"] == pools

    @pytest.mark.parametrize("workers", [2, 3, 64])
    @pytest.mark.parametrize("trials", [MAX_TRIALS, MAX_TRIALS - 1])
    def test_tasks_bounded_at_max_trials(self, monkeypatch, workers, trials):
        # one task per chunk once meant 2**18 pending futures (~0.5 GB)
        sent = inline_pool(monkeypatch)
        sizes = simulate._run_chunks(chunk_size, trials, 1, workers)
        assert len(sent["tasks"]) <= simulate.BATCHES_PER_WORKER * workers
        assert all(isinstance(task, range) for task in sent["tasks"])
        chunks = -(-trials // CHUNK_TRIALS)
        assert list(itertools.chain(*sent["tasks"])) == list(range(chunks))
        assert len(sizes) == chunks and sum(sizes) == trials
        assert sizes[-1] == trials - (chunks - 1) * CHUNK_TRIALS

    def test_chunk_error_reaches_caller(self):
        # real worker processes: the chunk's own exception, and none left running
        with pytest.raises(DomainError, match="chunk 3 failed"):
            simulate._run_chunks(fail_on_chunk_3, 40 * CHUNK_TRIALS, 1, 2, "x")
        assert multiprocessing.active_children() == []

    def test_chunk_error_is_one_cli_line(self, monkeypatch, scenario_dir, capsys):
        monkeypatch.setattr(simulate, "_parallel_chunk", fail_on_chunk_3)
        path = str(scenario_dir / "subpopulation_attack.json")
        assert cli.run(["simulate", "--scenario", path, "--workers", "2"], io.StringIO()) == 1
        assert capsys.readouterr().err == "error: chunk 3 failed\n"
        assert multiprocessing.active_children() == []

    def test_trials_limit(self, monkeypatch):
        # checked when the scenario is built: no chunk ever runs
        monkeypatch.setattr(simulate, "_chunk", None)
        assert scenario(trials=MAX_TRIALS).trials == 2**30
        with pytest.raises(DomainError, match=r"trials must be at most 2\*\*30 \(1,073,741,824\)"):
            scenario(trials=MAX_TRIALS + 1)

    def test_test_count_limit(self):
        # 10**20 tests per trial once ran in bounded memory but never ended
        assert PatStrategy("uniform", MAX_TEST_COUNT).test_count == 2**30
        for count in (MAX_TEST_COUNT + 1, 10**20, 2**63):
            message = rf"test_count must be at most 2\*\*30 \(1,073,741,824\), got {count:,}$"
            with pytest.raises(DomainError, match=message):
                PatStrategy("uniform", count)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, workers):
        # once ran on one worker without a word
        d = TransactionDistribution.sparse(SPACE, [(0, 0)], [1.0])
        passive = scenario(passive=PassiveParams(0.25, 0.005, 5), trials=10)
        runs = [
            lambda: run_parallel_sim(scenario(trials=10), workers=workers),
            lambda: run_passive_sim(passive, workers=workers),
            lambda: run_estimation_study(SPACE, d, 100, 10, 1, workers=workers),
        ]
        for run in runs:
            with pytest.raises(DomainError, match="workers must be >= 1"):
                run()

    def test_seed_changes_results(self):
        a = run_parallel_sim(scenario(seed=1))
        b = run_parallel_sim(scenario(seed=2))
        assert a.empirical_detection.value != b.empirical_detection.value


def cli_stdout(scenario_dir, name: str, workers: int) -> str:
    out = io.StringIO()
    argv = ["simulate", "--scenario", str(scenario_dir / f"{name}.json"), "--workers", str(workers)]
    assert cli.run(argv, out) == 0
    return out.getvalue()


class TestPoolBreakEven:
    """``--workers`` is an upper bound: a run starts a pool only once its
    work reaches ``POOL_MIN_DRAWS`` uniform draws."""

    def test_pool_from_the_break_even_on(self, monkeypatch):
        sent = inline_pool(monkeypatch)
        trials = 2 * CHUNK_TRIALS
        draws = -(-POOL_MIN_DRAWS // trials)  # the fewest draws a trial that reach it
        assert simulate._run_chunks(chunk_size, trials, draws - 1, 4) == [CHUNK_TRIALS] * 2
        assert sent["pools"] == []
        assert simulate._run_chunks(chunk_size, trials, draws, 4) == [CHUNK_TRIALS] * 2
        assert sent["pools"] == [2]

    def test_readme_example_builds_no_pool(self, monkeypatch, scenario_dir):
        # whole_space_flip: 25 chunks of 5 tests and a binomial a trial, 2.1 M draws
        sent = inline_pool(monkeypatch)
        assert cli_stdout(scenario_dir, "whole_space_flip", 4) == cli_stdout(scenario_dir, "whole_space_flip", 1)
        assert sent["pools"] == []

    def test_rare_flips_count_their_jumps(self, monkeypatch):
        # 1,000 tests of a 10 %-mass trigger array at a flip probability of 1e-4:
        # a trial reads the flips in full and jumps to a tenth of a trigger cell
        s = scenario(mallory=MalloryStrategy.from_mapping({"profile": [3]}, 1e-4), pat=PatStrategy("uniform", 1000))
        assert simulate._draws_per_test(simulate._resolve_tests(s)[0], 1e-4) == 1 + 1e-4 * simulate._JUMP_DRAWS
        sent = inline_pool(monkeypatch)
        run_parallel_sim(s, workers=4)  # 12,288 trials of 1,052 draws: 12.9 M
        assert sent["pools"] == []
        # at 0.5, both arrays are read in full: 12,288 trials of 2,016 draws, 24.8 M
        run_parallel_sim(s._replace(mallory=s.mallory._replace(flip_prob=0.5)), workers=4)
        assert sent["pools"] == [3]

    @pytest.mark.parametrize("q, per_test", [(0.05, 0.002 * simulate._JUMP_DRAWS), (0.0005, 1.0)])
    def test_script_hit_row_costs_no_draw(self, q, per_test):
        # the hit row (a share of 0.002) keeps the flips' cells below q, or
        # filters them after a full read above it
        tests = simulate._resolve_tests(script_read_scenario(q))[0]
        assert simulate._draws_per_test(tests, q) == pytest.approx(per_test)

    @pytest.mark.parametrize("name, pools", [
        ("passive_poisson_gap", []),  # 100,000 trials of four binomials: 6.4 M draws
        ("subpopulation_attack", [2]),  # 299 tests of one trigger array, flips certain: 31.5 M draws
        ("rare_flip_attack", [2]),  # 1,000 flips and 2 trigger cells jumped to: 34.7 M draws
        # 1,000 scripts, one matching: its flip jumped to, 376 draws a trial, 18.8 M
        ("logic_and_accuracy_scripts", [2]),
    ])
    def test_shipped_scenarios(self, monkeypatch, scenario_dir, name, pools):
        sent = inline_pool(monkeypatch)
        cli_stdout(scenario_dir, name, 2)
        assert sent["pools"] == pools

    @pytest.mark.usefixtures("pool_forced")
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "name", [
            "passive_poisson_gap", "subpopulation_attack", "whole_space_flip", "rare_flip_attack",
            "logic_and_accuracy_scripts",
        ]
    )
    def test_forced_pool_keeps_the_bytes(self, scenario_dir, name, workers):
        # real worker processes
        assert cli_stdout(scenario_dir, name, workers) == cli_stdout(scenario_dir, name, 1)
        assert multiprocessing.active_children() == []


class TestParallelSim:
    def test_agrees_with_closed_form(self):
        s = scenario()
        report = run_parallel_sim(s)
        analytic = report.analytic["detection"]
        est = report.empirical_detection
        assert abs(est.value - analytic) < 4 * max(est.std_error, 1e-4)

    def test_whole_space_flip(self):
        m = MalloryStrategy.from_mapping({}, 0.5)
        s = scenario(mallory=m, pat=PatStrategy(mode="uniform", test_count=5))
        report = run_parallel_sim(s)
        assert report.analytic["detection"] == pytest.approx(0.96875, abs=1e-12)
        assert abs(report.empirical_detection.value - 0.96875) < 0.01

    def test_disjoint_support_never_detects(self):
        # tester only ever visits profile 0; attack triggers on profile 3
        tester = TransactionDistribution.sparse(SPACE, [(0, 0)], [1.0])
        s = scenario(pat=PatStrategy(mode="distribution", test_count=50, distribution=tester))
        report = run_parallel_sim(s)
        assert report.empirical_detection.value == 0.0
        assert report.analytic["detection"] == 0.0

    def test_script_mode_counts_matches(self):
        scripts = tuple(Transaction((i % 10, 0)) for i in range(10))
        s = scenario(pat=PatStrategy(mode="script", test_count=10, scripts=scripts))
        report = run_parallel_sim(s)
        assert report.analytic["triggered_scripts"] == 1.0
        # one matching script, flip_prob 1 -> certain detection
        assert report.empirical_detection.value == 1.0

    def test_altered_fraction_tracks_trigger_mass(self):
        report = run_parallel_sim(scenario())
        est = report.empirical_altered_fraction
        assert abs(est.value - 0.1) < 5 * max(est.std_error, 1e-4)

    def test_zero_tests(self):
        s = scenario(pat=PatStrategy(mode="uniform", test_count=0))
        report = run_parallel_sim(s)
        assert report.empirical_detection.value == 0.0

    def test_zero_scripts(self):
        s = scenario(pat=PatStrategy(mode="script", test_count=0, scripts=()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty hit row has no share to divide out
            report = run_parallel_sim(s)
        assert report.empirical_detection.value == 0.0


class TestPassiveSim:
    def test_requires_passive_params(self):
        with pytest.raises(DomainError):
            run_passive_sim(scenario())

    def test_null_alarms_match_binomial(self):
        s = scenario(
            n_voters=2000,
            passive=PassiveParams(0.25, 0.01, 31),
            trials=4 * CHUNK_TRIALS,
        )
        report = run_passive_sim(s)
        fp = report.empirical_fp
        # Poisson prediction is close but the simulator draws binomials; allow
        # the model gap plus Monte Carlo noise
        assert abs(fp.value - report.analytic["fp"]) < 5 * fp.std_error + 0.002

    def test_strong_attack_always_alarms(self):
        s = scenario(
            n_voters=2000,
            mallory=MalloryStrategy.from_mapping({}, 1.0),
            passive=PassiveParams(1.0, 0.01, 31),
        )
        report = run_passive_sim(s)
        assert report.empirical_fn.value == 0.0


class TestEstimationStudy:
    def test_point_mass_has_zero_error(self):
        d = TransactionDistribution.sparse(SPACE, [[2, 1]], [1.0])
        report = run_estimation_study(SPACE, d, 100, 500, 3)
        assert report.mean_l1 == 0.0
        assert report.max_l1 == 0.0
        assert report.support_size == 1

    def test_error_shrinks_with_training_size(self):
        d = TransactionDistribution.sparse(SPACE, [(0, 0), (1, 0), (2, 0)], [0.6, 0.3, 0.1])
        small = run_estimation_study(SPACE, d, 50, 2000, 3)
        large = run_estimation_study(SPACE, d, 5000, 2000, 3)
        assert large.mean_l1 < small.mean_l1
        assert large.mean_l1 < 0.05

    def test_independent_recount(self):
        # recompute one chunk's L1 values straight from the multinomial draws
        d = TransactionDistribution.sparse(SPACE, [(0, 0), (1, 1)], [0.7, 0.3])
        n_train, trials, seed = 400, 100, 99
        report = run_estimation_study(SPACE, d, n_train, trials, seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, 0)))
        counts = rng.multinomial(n_train, [0.7, 0.3], size=trials)
        l1 = np.abs(counts / n_train - np.array([0.7, 0.3])).sum(axis=1)
        assert report.mean_l1 == pytest.approx(float(l1.mean()), abs=1e-15)

    def test_bound_column_present(self):
        d = TransactionDistribution.sparse(SPACE, [(0, 0), (1, 1)], [0.7, 0.3])
        report = run_estimation_study(SPACE, d, 400, 100, 99)
        assert report.support_size == 2
        assert math.isfinite(report.lower_bound_at_n)

    def test_zero_weight_points_are_not_support(self):
        # one law, factored with a zero-weight value and as a sparse support
        # of every point in row-major order; the sparse form once reported
        # support 6, not 4, and drew other L1 values (mean 0.1323, not 0.13168)
        space = TransactionSpace((AttributeSpec("a", 3), AttributeSpec("b", 2)))
        factored = TransactionDistribution.factored(space, {"a": [0.5, 0.5, 0.0], "b": [0.25, 0.75]})
        rows = list(itertools.product(range(3), range(2)))
        sparse = TransactionDistribution.sparse(space, rows, factored.to_dense())
        report = run_estimation_study(space, factored, 100, 500, 3)
        assert run_estimation_study(space, sparse, 100, 500, 3) == report
        assert report.support_size == 4

    def test_domain(self):
        d = TransactionDistribution.sparse(SPACE, [(0, 0)], [1.0])
        with pytest.raises(DomainError):
            run_estimation_study(SPACE, d, 0, 100, 1)
        with pytest.raises(DomainError, match="seed"):
            run_estimation_study(SPACE, d, 100, 100, -1)

    def test_true_distribution_over_another_space(self):
        other = TransactionSpace((AttributeSpec("a", 3), AttributeSpec("b", 2)))
        d = TransactionDistribution.sparse(other, [(0, 0)], [1.0])
        with pytest.raises(DomainError, match="true distribution is over a different space"):
            run_estimation_study(SPACE, d, 100, 100, 1)

    def test_trials_limit(self, monkeypatch):
        def no_chunks(*args):  # the limit is checked before any chunk runs
            raise AssertionError("chunk ran")

        monkeypatch.setattr(simulate, "_chunk", no_chunks)
        d = TransactionDistribution.sparse(SPACE, [(0, 0)], [1.0])
        with pytest.raises(DomainError, match=r"at most 2\*\*24 \(16,777,216\), got 16,777,217"):
            run_estimation_study(SPACE, d, 100, 2**24 + 1, 1)
        with pytest.raises(DomainError, match="at most 2"):
            run_estimation_study(SPACE, d, 100, 10**12, 1)


# -- sparse paths: reference loop and pinned reports -------------------------


PIN_SPACE = TransactionSpace(
    (AttributeSpec("profile", 40), AttributeSpec("review", 2), AttributeSpec("language", 5))
)


def random_sparse(seed: int, size: int) -> TransactionDistribution:
    rng = np.random.default_rng(seed)
    dims = [a.cardinality for a in PIN_SPACE.attributes]
    flat = rng.choice(PIN_SPACE.cardinality, size=size, replace=False)
    weights = rng.gamma(2.0, size=size)
    return TransactionDistribution.sparse(
        PIN_SPACE, np.stack(np.unravel_index(flat, dims), axis=1), weights / weights.sum()
    )


def pin_scenario(sparse_role: str) -> SimScenario:
    """A scenario whose tester or whose voters draw from a sparse support."""
    sparse = random_sparse(17 if sparse_role == "tester" else 18, 150)
    tester = sparse if sparse_role == "tester" else None
    return SimScenario(
        space=PIN_SPACE,
        voter_dist=sparse if sparse_role == "voter" else TransactionDistribution.uniform(PIN_SPACE),
        n_voters=800,
        mallory=MalloryStrategy.from_mapping({"profile": [3, 7, 11, 20], "language": [1, 2]}, 0.4),
        pat=PatStrategy("distribution" if tester else "uniform", 30, tester),
        trials=2 * CHUNK_TRIALS + 123,
        seed=2024,
        passive=PassiveParams(0.3, 0.01, 12),
    )


def ref_trigger_mass(m: MalloryStrategy, d: TransactionDistribution) -> float:
    """Point-at-a-time trigger mass of a sparse distribution."""
    total = 0.0
    for pt, w in zip(d.support.tolist(), d.weights):
        if ref_matches(m, Transaction(tuple(pt)), d.space):
            total += float(w)
    return total


@st.composite
def sparse_and_trigger(draw, space):
    points = st.tuples(*(st.integers(0, a.cardinality - 1) for a in space.attributes))
    support = draw(st.lists(points, min_size=1, max_size=15, unique=True))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support))))
    dist = TransactionDistribution.sparse(space, support, raw / raw.sum())
    trigger = {}
    for a in space.attributes[:4]:
        if draw(st.booleans()):
            # values seen in the support, so that the trigger can match
            seen = [pt[space.index_of(a.name)] for pt in support]
            trigger[a.name] = draw(st.lists(st.sampled_from(seen), min_size=1, max_size=3))
    return MalloryStrategy.from_mapping(trigger, 1.0), dist


def ref_sparse_triggered_tests(s: SimScenario, rng: np.random.Generator, n_rep: int) -> np.ndarray:
    """Trigger matrix of a sparse tester by inverse-CDF draws of support
    indices, then a lookup in the support's hit table."""
    dist = s.pat.distribution
    cdf = np.cumsum(dist.weights)
    cdf[-1] = 1.0
    hit = simulate._rows_match(s.mallory, s.space, dist.support)
    return hit[np.searchsorted(cdf, rng.random((n_rep, s.pat.test_count)), side="right")]


@st.composite
def sparse_tester_scenario(draw):
    points = st.tuples(*(st.integers(0, a.cardinality - 1) for a in PIN_SPACE.attributes))
    support = draw(st.lists(points, min_size=1, max_size=40, unique=True))
    # integer weights give zero-weight points; floats give sums a few ulps off 1
    raw = np.array(draw(st.one_of(
        st.lists(st.integers(0, 3), min_size=len(support), max_size=len(support)),
        st.lists(st.floats(0.0, 1.0), min_size=len(support), max_size=len(support)),
    )), dtype=float)
    if raw.sum() == 0:
        raw[0] = 1.0
    tester = TransactionDistribution.sparse(PIN_SPACE, support, raw / raw.sum())
    trigger = {}
    for a in PIN_SPACE.attributes:
        if draw(st.booleans()):
            trigger[a.name] = draw(st.lists(st.integers(0, a.cardinality - 1), min_size=1, max_size=4))
    return scenario(
        space=PIN_SPACE,
        voter_dist=tester,
        mallory=MalloryStrategy.from_mapping(trigger, 0.5),
        pat=PatStrategy("distribution", draw(st.integers(1, 40)), tester),
    )


class TestSparseTriggerAgainstReference:
    @given(sparse_and_trigger(SPACE))
    @settings(max_examples=100)
    def test_trigger_mass(self, case):
        m, d = case
        assert trigger_mass(m, d) == ref_trigger_mass(m, d)

    @given(sparse_and_trigger(realistic_preset()))
    @settings(max_examples=50)
    def test_trigger_mass_realistic_preset(self, case):
        m, d = case
        assert trigger_mass(m, d) == ref_trigger_mass(m, d)

    def test_trigger_table_matches_loop(self):
        d = random_sparse(17, 150)
        m = pin_scenario("tester").mallory
        want = [ref_matches(m, Transaction(tuple(pt)), PIN_SPACE) for pt in d.support.tolist()]
        assert simulate._rows_match(m, PIN_SPACE, d.support).tolist() == want

    @given(sparse_tester_scenario(), st.integers(1, 50), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_same_matrix_as_support_draws(self, s, n_rep, seed):
        want = ref_sparse_triggered_tests(s, np.random.default_rng(seed), n_rep)
        for got in drawn_each_way(s, seed, n_rep):
            assert np.array_equal(got, want)

    def test_thousands_of_hit_runs(self):
        space = TransactionSpace((AttributeSpec("a", 1000), AttributeSpec("b", 100)))
        rng = np.random.default_rng(11)
        flat = rng.choice(space.cardinality, size=20_000, replace=False)
        weights = rng.gamma(2.0, size=20_000)
        tester = TransactionDistribution.sparse(
            space, np.stack(np.unravel_index(flat, (1000, 100)), axis=1), weights / weights.sum()
        )
        s = scenario(
            space=space,
            voter_dist=tester,
            mallory=MalloryStrategy.from_mapping({"a": range(0, 1000, 2)}, 1.0),
            pat=PatStrategy("distribution", 300, tester),
        )
        (ends,) = simulate._resolve_tests(s)[0].runs
        assert len(ends) > 2 * 4000  # thousands of hit runs
        want = ref_sparse_triggered_tests(s, np.random.default_rng(5), 200)
        for got in drawn_each_way(s, 5, 200):
            assert np.array_equal(got, want)

    def test_sparse_frequencies(self):
        # one draw of 100,000 support indices: the trigger on value v counts
        # the draws of index v
        space = TransactionSpace((AttributeSpec("a", 3),))
        tester = TransactionDistribution.sparse(space, [(0,), (1,), (2,)], [0.5, 0.3, 0.2])
        counts = []
        for v in range(3):
            s = SimScenario(
                space=space,
                voter_dist=tester,
                n_voters=1,
                mallory=MalloryStrategy.from_mapping({"a": [v]}, 1.0),
                pat=PatStrategy("distribution", 100_000, tester),
                trials=1,
                seed=0,
            )
            counts.append(int(drawn_tests(s, np.random.default_rng(7), 1).sum()))
        assert sum(counts) == 100_000
        for c, w in zip(counts, (0.5, 0.3, 0.2)):
            sd = math.sqrt(100_000 * w * (1 - w))
            assert abs(c - 100_000 * w) < 3 * sd


#: Reports of the point-at-a-time implementation, byte for byte.
PINNED = {
    "tester_parallel": (
        '{"label": "", "trials": 8315, "seed": 2024, '
        '"empirical_detection": {"value": 0.434996993385448, '
        '"std_error": 0.005436725177270337, "trials": 8315}, '
        '"empirical_altered_fraction": {"value": 0.016059530968129884, '
        '"std_error": 4.8738787404457236e-05, "trials": 8315}, "empirical_fp": null, '
        '"empirical_fn": null, '
        '"analytic": {"trigger_mass_under_tests": 0.0473858691676196, '
        '"detection": 0.43678200267880735, "altered_fraction": 0.016000000000000004}}'
    ),
    "tester_passive": (
        '{"label": "", "trials": 8315, "seed": 2024, "empirical_detection": null, '
        '"empirical_altered_fraction": {"value": 0.015974293445580278, '
        '"std_error": 4.8611377829620326e-05, "trials": 8315}, '
        '"empirical_fp": {"value": 0.10932050511124473, '
        '"std_error": 0.0034220032300174403, "trials": 8315}, '
        '"empirical_fn": {"value": 0.4895971136500301, '
        '"std_error": 0.005482073556760303, "trials": 8315}, '
        '"analytic": {"fp": 0.11192400101851856, "fn": 0.4800126732377167, '
        '"altered_fraction": 0.016000000000000004}}'
    ),
    "voter_parallel": (
        '{"label": "", "trials": 8315, "seed": 2024, '
        '"empirical_detection": {"value": 0.38075766686710766, '
        '"std_error": 0.005325047926225588, "trials": 8315}, '
        '"empirical_altered_fraction": {"value": 0.01554990980156344, '
        '"std_error": 4.7971651321756496e-05, "trials": 8315}, "empirical_fp": null, '
        '"empirical_fn": null, '
        '"analytic": {"trigger_mass_under_tests": 0.04000000000000001, '
        '"detection": 0.38361373469388776, "altered_fraction": 0.015596502740618712}}'
    ),
    "voter_passive": (
        '{"label": "", "trials": 8315, "seed": 2024, "empirical_detection": null, '
        '"empirical_altered_fraction": {"value": 0.01557050511124474, '
        '"std_error": 4.8002907060547867e-05, "trials": 8315}, '
        '"empirical_fp": {"value": 0.10932050511124473, '
        '"std_error": 0.0034220032300174403, "trials": 8315}, '
        '"empirical_fn": {"value": 0.5023451593505712, '
        '"std_error": 0.005483200168908441, "trials": 8315}, '
        '"analytic": {"fp": 0.11192400101851856, "fn": 0.4912627979239651, '
        '"altered_fraction": 0.015596502740618712}}'
    ),
    "study": (
        '{"n_train": 500, "trials": 4146, "seed": 31, '
        '"mean_l1": 0.41347278735032816, "std_l1": 0.026190882090539134, '
        '"min_l1": 0.3302635848088096, "max_l1": 0.513232374869921, '
        '"support_size": 150, "lower_bound_at_n": -9.876444214329153}'
    ),
}


class TestSparsePins:
    @pytest.mark.parametrize("role", ["tester", "voter"])
    def test_parallel(self, role):
        assert run_parallel_sim(pin_scenario(role)).to_json() == PINNED[f"{role}_parallel"]

    @pytest.mark.parametrize("role", ["tester", "voter"])
    def test_passive(self, role):
        assert run_passive_sim(pin_scenario(role)).to_json() == PINNED[f"{role}_passive"]

    def test_estimation_study(self):
        report = run_estimation_study(PIN_SPACE, random_sparse(19, 150), 500, CHUNK_TRIALS + 50, 31)
        assert report.to_json() == PINNED["study"]

    def test_estimation_blocks_keep_the_draws(self, monkeypatch):
        d = random_sparse(19, 150)
        whole = run_estimation_study(PIN_SPACE, d, 500, 300, 5)
        # 7 rows per multinomial call instead of all 300 at once
        monkeypatch.setattr(simulate, "BLOCK_CELLS", 7 * 150 + 10)
        assert run_estimation_study(PIN_SPACE, d, 500, 300, 5) == whole


# -- uniform / factored trigger draw: searchsorted reference and pins --------


def ref_triggered_tests(s: SimScenario, rng: np.random.Generator, n_rep: int) -> np.ndarray:
    """Trigger matrix of a uniform or factored tester by inverse-CDF value
    draws: the value index of every test attribute, then a table lookup."""
    n = s.pat.test_count
    dist = s.pat.distribution if s.pat.mode == "distribution" else TransactionDistribution.uniform(s.space)
    out = np.ones((n_rep, n), dtype=bool)
    for name, vals in s.mallory.trigger:
        w = dist.marginal(dist.space.index_of(name))
        cdf = np.cumsum(w)
        cdf[-1] = 1.0
        draws = np.searchsorted(cdf, rng.random((n_rep, n)), side="right")
        allowed = np.zeros(len(w), dtype=bool)
        allowed[list(vals)] = True
        out &= allowed[draws]
    return out


@st.composite
def factored_trigger_scenario(draw):
    cards = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    space = TransactionSpace(tuple(AttributeSpec(f"a{i}", c) for i, c in enumerate(cards)))
    marginals = {}
    trigger = {}
    for a in space.attributes:
        if draw(st.booleans()):
            # integer weights give exact zeros; floats give sums a few ulps off 1
            raw = draw(st.one_of(
                st.lists(st.integers(0, 3), min_size=a.cardinality, max_size=a.cardinality),
                st.lists(st.floats(0.0, 1.0), min_size=a.cardinality, max_size=a.cardinality),
            ))
            w = np.array(raw, dtype=float)
            if w.sum() > 0:
                marginals[a.name] = w / w.sum()
        if draw(st.booleans()):
            values = range(a.cardinality)
            shape = draw(st.sampled_from(["contiguous", "scattered", "full"]))
            if shape == "full":
                trigger[a.name] = list(values)
            elif shape == "scattered":
                trigger[a.name] = draw(st.lists(st.sampled_from(values), min_size=1))
            else:
                lo = draw(st.integers(0, a.cardinality - 1))
                trigger[a.name] = list(range(lo, draw(st.integers(lo + 1, a.cardinality))))
    if draw(st.booleans()):
        pat = PatStrategy("uniform", draw(st.integers(1, 40)))
    else:
        tester = TransactionDistribution.factored(space, marginals)
        pat = PatStrategy("distribution", draw(st.integers(1, 40)), tester)
    return SimScenario(
        space=space,
        voter_dist=TransactionDistribution.uniform(space),
        n_voters=10,
        mallory=MalloryStrategy.from_mapping(trigger, 0.5),
        pat=pat,
        trials=1,
        seed=0,
    )


#: Cumulative weights reach 1.0000000000000002 before the last, zero-weight
#: value, so the CDF array is not monotone once its last entry is set to 1.
OVERSHOOT = [
    0.10263397919429064, 0.1499824281457144, 0.10381675370987502, 0.05342415508841949,
    0.0764806371484379, 0.15154024547200093, 0.11604756078091066, 0.17764959774664688,
    0.06842464271370415, 0.0,
]


class TestFactoredTriggerAgainstReference:
    @given(factored_trigger_scenario(), st.integers(1, 50), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_matrix_from_the_same_seed(self, s, n_rep, seed):
        want = ref_triggered_tests(s, np.random.default_rng(seed), n_rep)
        for got in drawn_each_way(s, seed, n_rep):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "vals", [[0], [7], [8], [9], [8, 9], [0, 2, 4, 6, 8], list(range(10))]
    )
    def test_cdf_overshoot(self, vals):
        space = TransactionSpace((AttributeSpec("a", 10),))
        tester = TransactionDistribution.factored(space, {"a": OVERSHOOT})
        assert np.cumsum(tester.marginal(0))[-2] > 1.0
        s = SimScenario(
            space=space,
            voter_dist=tester,
            n_voters=10,
            mallory=MalloryStrategy.from_mapping({"a": vals}, 1.0),
            pat=PatStrategy("distribution", 500, tester),
            trials=1,
            seed=0,
        )
        want = ref_triggered_tests(s, np.random.default_rng(1), 200)
        for got in drawn_each_way(s, 1, 200):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("most", [2**62, 0], ids=["compare", "guide"])
    def test_run_ends_and_their_neighbours(self, monkeypatch, most):
        # uniforms almost never land on a run end: put them there
        monkeypatch.setattr(simulate, "_COMPARE_ENDS", most)
        rng = np.random.default_rng(4)
        w = rng.gamma(2.0, size=1000)
        w[::7] = 0.0
        w /= w.sum()
        allowed = rng.random(1000) < 0.5
        ends = simulate._allowed_runs(w, np.flatnonzero(allowed))
        u = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0)])
        u = u[u < 1.0]
        cdf = np.cumsum(w)
        cdf[-1] = 1.0
        want = allowed[np.searchsorted(cdf, u, side="right")]
        assert np.array_equal(simulate._in_runs(u, ends, simulate._guide_table(ends)), want)

    def test_scattered_runs(self):
        # every other value of 1,000 bins: 500 runs, 1,000 ends
        space = TransactionSpace((AttributeSpec("a", 1000),))
        w = np.random.default_rng(3).gamma(2.0, size=1000)
        tester = TransactionDistribution.factored(space, {"a": w / w.sum()})
        s = scenario(
            space=space,
            voter_dist=tester,
            mallory=MalloryStrategy.from_mapping({"a": range(0, 1000, 2)}, 1.0),
            pat=PatStrategy("distribution", 300, tester),
        )
        assert [len(ends) for ends in simulate._resolve_tests(s)[0].runs] == [1000]
        want = ref_triggered_tests(s, np.random.default_rng(2), 400)
        for got in drawn_each_way(s, 2, 400):
            assert np.array_equal(got, want)


# -- guide table over many run ends ------------------------------------------


def dyadic_run_ends() -> np.ndarray:
    """Run ends of 80,000 integer weights, every seventh of them zero, that
    sum to 2**22: each cumulative weight is an exact multiple of 2**-22, so
    one end in four lies on a bucket edge of a 2**20-bucket table.  The first
    two values and the last are allowed, so the ends start at 0.0 and stop at
    1.0."""
    rng = np.random.default_rng(8)
    w = rng.integers(0, 90, size=80_000).astype(float)
    w[::7] = 0.0
    w[-1] = 2.0**22 - w[:-1].sum()
    allowed = rng.random(len(w)) < 0.5
    allowed[[0, 1, -1]] = True
    return simulate._allowed_runs(w / 2.0**22, np.flatnonzero(allowed))


class TestGuideTable:
    def test_ends(self):
        ends = dyadic_run_ends()
        buckets = len(simulate._guide_table(ends))
        assert buckets == 2**20
        assert len(ends) >= 30_000
        assert (ends[0], ends[-1]) == (0.0, 1.0)
        on_edge = ends * buckets == np.floor(ends * buckets)
        assert 0.1 < on_edge.mean() < 0.9

    def test_every_end_edge_and_neighbour(self):
        ends = dyadic_run_ends()
        guide = simulate._guide_table(ends)
        edges = np.arange(len(guide)) / len(guide)
        u = np.concatenate([
            ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0),
            edges, np.nextafter(edges, 1.0), [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        want = np.searchsorted(ends, u, side="right") & 1
        assert np.array_equal(simulate._in_runs(u, ends, guide), want.astype(bool))

    def test_codes_against_a_count_per_bucket(self):
        ends = dyadic_run_ends()
        guide = simulate._guide_table(ends)
        edges = np.arange(len(guide) + 1) / len(guide)
        at_or_below = np.searchsorted(ends, edges[:-1], side="right")
        inside = np.searchsorted(ends, edges[1:], side="left") - at_or_below
        want = np.where(inside > 0, 2, at_or_below & 1)
        assert guide.dtype == np.uint8
        assert np.array_equal(guide, want)
        assert 0.01 < np.mean(guide == 2) < 0.06

    @pytest.mark.parametrize("count", [2, 17, 18, 19, 20, 1000, 40_000])
    def test_size(self, count):
        ends = np.linspace(0.0, 1.0, count)
        guide = simulate._guide_table(ends)
        if count <= simulate._COMPARE_ENDS:
            assert guide is None
        else:
            # a power of two, 16 to 32 buckets per end
            assert len(guide) & (len(guide) - 1) == 0
            assert 16 * count <= len(guide) < 32 * count


def many_runs_scenario() -> SimScenario:
    """A sparse tester over 20,000 support points whose trigger splits into
    thousands of runs, so that its tests read the guide table."""
    space = TransactionSpace((AttributeSpec("a", 1000), AttributeSpec("b", 100)))
    rng = np.random.default_rng(23)
    flat = rng.choice(space.cardinality, size=20_000, replace=False)
    weights = rng.gamma(2.0, size=20_000)
    tester = TransactionDistribution.sparse(
        space, np.stack(np.unravel_index(flat, (1000, 100)), axis=1), weights / weights.sum()
    )
    return SimScenario(
        space=space,
        voter_dist=TransactionDistribution.uniform(space),
        n_voters=700,
        mallory=MalloryStrategy.from_mapping({"a": range(0, 1000, 2)}, 0.002),
        pat=PatStrategy("distribution", 1000, tester),
        trials=CHUNK_TRIALS + 100,
        seed=4242,
    )


#: The report of the binary search per cell that the guide table replaced.
MANY_RUNS_PINNED = (
    '{"label": "", "trials": 4196, "seed": 4242, '
    '"empirical_detection": {"value": 0.6217826501429933, '
    '"std_error": 0.007486387171387891, "trials": 4196}, '
    '"empirical_altered_fraction": {"value": 0.0009863134958463843, '
    '"std_error": 1.8315823386678016e-05, "trials": 4196}, '
    '"empirical_fp": null, "empirical_fn": null, '
    '"analytic": {"trigger_mass_under_tests": 0.49131273460633246, '
    '"detection": 0.6258537675426188, "altered_fraction": 0.0010000000000000005}}'
)


class TestManyRunsPin:
    @pytest.mark.usefixtures("pool_forced")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("blocks", ["rows", "columns"])
    def test_parallel(self, monkeypatch, blocks, workers):
        s = many_runs_scenario()
        tests = simulate._resolve_tests(s)[0]
        assert len(tests.runs[0]) > 10_000 and tests.guides[0] is not None
        if blocks == "columns":
            # one-row blocks, each row of 1,000 tests in column blocks of 400
            monkeypatch.setattr(simulate, "BLOCK_CELLS", 400)
        assert run_parallel_sim(s, workers=workers).to_json() == MANY_RUNS_PINNED


FACTORED_SPACE = TransactionSpace(
    (AttributeSpec("profile", 12), AttributeSpec("language", 5), AttributeSpec("review", 2))
)


def factored_pin_scenario() -> SimScenario:
    """A factored tester with zero-weight values; the profile trigger is three
    separate runs of values."""
    tester = TransactionDistribution.factored(
        FACTORED_SPACE,
        {
            "profile": [0.2, 0.0, 0.1, 0.05, 0.0, 0.15, 0.1, 0.05, 0.1, 0.0, 0.15, 0.1],
            "language": [0.4, 0.3, 0.0, 0.2, 0.1],
        },
    )
    return SimScenario(
        space=FACTORED_SPACE,
        voter_dist=TransactionDistribution.uniform(FACTORED_SPACE),
        n_voters=700,
        mallory=MalloryStrategy.from_mapping(
            {"profile": [1, 2, 3, 6, 7, 11], "language": [0, 2, 3]}, 0.3
        ),
        pat=PatStrategy("distribution", 25, tester),
        trials=2 * CHUNK_TRIALS + 77,
        seed=4242,
    )


#: Reports of the searchsorted implementation, byte for byte.
FACTORED_PINNED = {
    "subpopulation_attack": (
        '{"label": "attack triggered by a 1%-mass voter profile; 299 uniform tests", '
        '"trials": 100000, "seed": 20260824, '
        '"empirical_detection": {"value": 0.95052, "std_error": 0.0006857968328885748, '
        '"trials": 100000}, '
        '"empirical_altered_fraction": {"value": 0.010001185, '
        '"std_error": 3.146611081559933e-06, "trials": 100000}, '
        '"empirical_fp": null, "empirical_fn": null, '
        '"analytic": {"trigger_mass_under_tests": 0.01, "detection": 0.9504637433623375, '
        '"altered_fraction": 0.01}}'
    ),
    "factored": (
        '{"label": "", "trials": 8269, "seed": 4242, '
        '"empirical_detection": {"value": 0.840004837344298, '
        '"std_error": 0.00403151076398002, "trials": 8269}, '
        '"empirical_altered_fraction": {"value": 0.08996959383584127, '
        '"std_error": 0.00011893243636661239, "trials": 8269}, '
        '"empirical_fp": null, "empirical_fn": null, '
        '"analytic": {"trigger_mass_under_tests": 0.24, "detection": 0.845581472973999, '
        '"altered_fraction": 0.09}}'
    ),
}


class TestFactoredPins:
    @pytest.mark.usefixtures("pool_forced")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_subpopulation_attack(self, scenario_dir, workers):
        _, s = load_scenario(str(scenario_dir / "subpopulation_attack.json"))
        report = run_parallel_sim(s, workers=workers)
        assert report.to_json() == FACTORED_PINNED["subpopulation_attack"]

    @pytest.mark.usefixtures("pool_forced")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_factored_multi_run_trigger(self, workers):
        report = run_parallel_sim(factored_pin_scenario(), workers=workers)
        assert report.to_json() == FACTORED_PINNED["factored"]

    def test_to_dict_is_the_json_payload(self):
        report = run_parallel_sim(factored_pin_scenario())
        assert json.dumps(report.to_dict()) == report.to_json()
        assert json.loads(report.to_json()) == report.to_dict()


def script_pin_scenario() -> SimScenario:
    """Two scripts against a two-attribute trigger: (3, 1) matches it and
    (3, 0) does not."""
    return scenario(
        mallory=MalloryStrategy.from_mapping({"profile": [3], "review": [1]}, 0.4),
        pat=PatStrategy("script", 2, scripts=(Transaction((3, 1)), Transaction((3, 0)))),
        trials=2 * CHUNK_TRIALS + 11,
        seed=777,
    )


#: The report of the per-script ``MalloryStrategy.matches`` loop, byte for byte.
SCRIPT_PINNED = (
    '{"label": "", "trials": 8203, "seed": 777, '
    '"empirical_detection": {"value": 0.3966841399487992, '
    '"std_error": 0.005401426040837833, "trials": 8203}, '
    '"empirical_altered_fraction": {"value": 0.01999536754845788, '
    '"std_error": 6.912058452752893e-05, "trials": 8203}, '
    '"empirical_fp": null, "empirical_fn": null, '
    '"analytic": {"triggered_scripts": 1.0, "detection": 0.4, '
    '"altered_fraction": 0.020000000000000004}}'
)


class TestScriptPins:
    @pytest.mark.usefixtures("pool_forced")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel(self, workers):
        assert run_parallel_sim(script_pin_scenario(), workers=workers).to_json() == SCRIPT_PINNED


def script_read_scenario(q: float) -> SimScenario:
    """1,000 scripts against a two-attribute trigger, of which the two (3, 1)
    scripts match: a hit share of 0.002, below a flip probability ``q`` of
    0.05 and above one of 0.0005."""
    scripts = tuple(Transaction((3, 1) if i in (17, 600) else (i % 10, 0)) for i in range(1000))
    return scenario(
        mallory=MalloryStrategy.from_mapping({"profile": [3], "review": [1]}, q),
        pat=PatStrategy("script", 1000, scripts=scripts),
        trials=2 * CHUNK_TRIALS + 11,
        seed=4242,
    )


#: Reports of a script tester that reads every flip and then filters by its
#: hit row, byte for byte.
SCRIPT_READ_PINNED = {
    "hits-below-q": (
        '{"label": "", "trials": 8203, "seed": 4242, '
        '"empirical_detection": {"value": 0.10410825307814214, '
        '"std_error": 0.0033719722485444988, "trials": 8203}, '
        '"empirical_altered_fraction": {"value": 0.0025127392417408265, '
        '"std_error": 2.472043064244792e-05, "trials": 8203}, '
        '"empirical_fp": null, "empirical_fn": null, '
        '"analytic": {"triggered_scripts": 2.0, "detection": 0.0975, '
        '"altered_fraction": 0.0025000000000000005}}'
    ),
    "hits-above-q": (
        '{"label": "", "trials": 8203, "seed": 4242, '
        '"empirical_detection": {"value": 0.0014628794343532854, '
        '"std_error": 0.00042198791982195306, "trials": 8203}, '
        '"empirical_altered_fraction": {"value": 2.68194562964769e-05, '
        '"std_error": 2.557100533547039e-06, "trials": 8203}, '
        '"empirical_fp": null, "empirical_fn": null, '
        '"analytic": {"triggered_scripts": 2.0, "detection": 0.00099975, '
        '"altered_fraction": 2.5e-05}}'
    ),
}
SCRIPT_READ_Q = {"hits-below-q": 0.05, "hits-above-q": 0.0005}


class TestScriptReadPins:
    @pytest.mark.usefixtures("pool_forced")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("share", list(SCRIPT_READ_PINNED))
    def test_parallel(self, share, workers):
        report = run_parallel_sim(script_read_scenario(SCRIPT_READ_Q[share]), workers=workers)
        assert report.to_json() == SCRIPT_READ_PINNED[share]


class TestResolvedOnce:
    @pytest.mark.parametrize("run", [run_parallel_sim, run_passive_sim])
    def test_scenario_resolution_does_not_grow_with_chunks(self, monkeypatch, run):
        calls = Counter()
        tester_rows = []
        # a sparse voter law and a sparse tester: both read the predicate
        base = pin_scenario("tester")._replace(voter_dist=random_sparse(18, 150))

        def counted(name):
            fn = getattr(simulate, name)

            def wrapped(*args):
                calls[name] += 1
                if name == "_rows_match" and args[2] is base.pat.distribution.support:
                    tester_rows.append(args)
                return fn(*args)

            return wrapped

        for name in ("trigger_mass", "_rows_match"):
            monkeypatch.setattr(simulate, name, counted(name))
        seen = []
        for chunks in (1, 5):
            calls.clear()
            tester_rows.clear()
            run(base._replace(trials=chunks * CHUNK_TRIALS))
            seen.append(dict(calls))
            # one hit table serves the tests' draw and their analytic trigger mass
            assert len(tester_rows) == (run is run_parallel_sim)
        assert seen[0] == seen[1]
        assert set(seen[0]) == {"trigger_mass", "_rows_match"}


@pytest.mark.usefixtures("pool_forced")
class TestChunkJobs:
    """What a run sends to its worker processes, recorded by ``inline_pool``."""

    @pytest.mark.parametrize("run", [run_parallel_sim, run_passive_sim])
    def test_jobs_hold_no_scenario(self, monkeypatch, run):
        sent = inline_pool(monkeypatch)
        s = pin_scenario("tester")._replace(voter_dist=random_sparse(18, 150))
        run(s, workers=2)
        assert sent["tasks"] == [range(0, 1), range(1, 2), range(2, 3)]
        # what a worker receives is pickled: the sparse laws stay in this process
        [(_, args, trials)] = sent["initargs"]
        assert trials == s.trials
        for arg in itertools.chain(args, *sent["tasks"]):
            assert not isinstance(arg, (SimScenario, TransactionDistribution))

    @pytest.mark.parametrize("size", [2_000, 200_000])
    def test_sparse_tester_job_grows_with_runs_not_support(self, monkeypatch, size):
        sent = inline_pool(monkeypatch)
        space = TransactionSpace((AttributeSpec("a", size),))
        tester = TransactionDistribution.sparse(space, np.arange(size)[:, None], np.full(size, 1 / size))
        s = scenario(
            space=space,
            voter_dist=tester,
            # the hits form one run of support points
            mallory=MalloryStrategy.from_mapping({"a": range(1000, 1500)}, 0.5),
            pat=PatStrategy("distribution", 10, tester),
            trials=2 * CHUNK_TRIALS,
        )
        run_parallel_sim(s, workers=2)
        assert len(sent["tasks"]) == 2
        # two run ends, not a hit flag and a cdf entry per support point
        assert len(pickle.dumps(sent["initargs"])) < 1000

    def test_estimation_task_does_not_grow_with_support(self, monkeypatch):
        task_sizes = {}
        for size in (10, 10_000):
            sent = inline_pool(monkeypatch)
            space = TransactionSpace((AttributeSpec("a", size),))
            d = TransactionDistribution.sparse(space, np.arange(size)[:, None], np.full(size, 1 / size))
            run_estimation_study(space, d, 100, CHUNK_TRIALS + 1, 5, workers=2)
            # the weights reach each worker once, with the pool's initializer
            [(_, (weights, *_), _)] = sent["initargs"]
            assert len(weights) == size
            task_sizes[size] = [len(pickle.dumps(task)) for task in sent["tasks"]]
        assert len(task_sizes[10]) == 2
        assert task_sizes[10] == task_sizes[10_000]


class TestArrayStreams:
    """Uniform array j of a chunk read by its own ``PCG64``, advanced by
    ``j * n_rep * n``, gives the doubles of the one-shot draw of all arrays."""

    ARRAYS, N_REP, N = 4, 50, 7  # three trigger arrays, then the flips

    def streams(self):
        seq = simulate._chunk_seq(2024, simulate._STREAM_TESTS, 3)
        one_shot = np.random.default_rng(seq)
        cells = self.N_REP * self.N
        return one_shot, simulate._array_rngs(seq, self.ARRAYS, cells), cells

    @pytest.mark.parametrize("j", range(ARRAYS))
    def test_row_block_of_each_array(self, j):
        one_shot, rngs, cells = self.streams()
        whole = one_shot.random(self.ARRAYS * cells)
        rngs[j].random((11, self.N))  # rows 0-10
        block = rngs[j].random((13, self.N))  # rows 11-23
        start = j * cells + 11 * self.N
        assert np.array_equal(block.ravel(), whole[start : start + 13 * self.N])

    def test_binomial_after_the_last_flip_block(self):
        one_shot, rngs, cells = self.streams()
        one_shot.random(self.ARRAYS * cells)
        want = one_shot.binomial(900, 0.01, size=self.N_REP)
        flips = rngs[-1]
        for r in range(0, self.N_REP, 16):
            flips.random((min(16, self.N_REP - r), self.N))
        assert np.array_equal(flips.binomial(900, 0.01, size=self.N_REP), want)


def multi_block_scenario(tester: str) -> SimScenario:
    """1,000 tests against a two-attribute trigger: a chunk of 4,096 rows
    spans four row blocks of ``BLOCK_CELLS`` tests."""
    pat = (
        PatStrategy("distribution", 1000, random_sparse(17, 150))
        if tester == "sparse"
        else PatStrategy("uniform", 1000)
    )
    return SimScenario(
        space=PIN_SPACE,
        voter_dist=TransactionDistribution.uniform(PIN_SPACE),
        n_voters=900,
        mallory=MalloryStrategy.from_mapping({"profile": [3, 7, 11, 20], "language": [1, 2]}, 0.015),
        pat=pat,
        trials=CHUNK_TRIALS + 300,
        seed=909,
    )


#: Reports of the one-shot chunk draw, byte for byte.
MULTI_BLOCK_PINNED = {
    "uniform": (
        '{"label": "", "trials": 4396, "seed": 909, '
        '"empirical_detection": {"value": 0.4640582347588717, '
        '"std_error": 0.007521703349103713, "trials": 4396}, '
        '"empirical_altered_fraction": {"value": 0.000583864118895966, '
        '"std_error": 1.214448143297044e-05, "trials": 4396}, '
        '"empirical_fp": null, "empirical_fn": null, '
        '"analytic": {"trigger_mass_under_tests": 0.04000000000000001, '
        '"detection": 0.4512871806353667, "altered_fraction": 0.0006000000000000001}}'
    ),
    "sparse": (
        '{"label": "", "trials": 4396, "seed": 909, '
        '"empirical_detection": {"value": 0.5065969062784349, '
        '"std_error": 0.007540555814387249, "trials": 4396}, '
        '"empirical_altered_fraction": {"value": 0.0005957436052977454, '
        '"std_error": 1.2267334157243403e-05, "trials": 4396}, '
        '"empirical_fp": null, "empirical_fn": null, '
        '"analytic": {"trigger_mass_under_tests": 0.0473858691676196, '
        '"detection": 0.5088672234618058, "altered_fraction": 0.0006000000000000001}}'
    ),
}


class TestMultiBlockPins:
    @pytest.mark.usefixtures("pool_forced")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tester", ["uniform", "sparse"])
    def test_parallel(self, tester, workers):
        assert CHUNK_TRIALS > 3 * (simulate.BLOCK_CELLS // 1000)
        report = run_parallel_sim(multi_block_scenario(tester), workers=workers)
        assert report.to_json() == MULTI_BLOCK_PINNED[tester]

    @pytest.mark.parametrize("tester", ["uniform", "sparse"])
    def test_one_row_blocks_keep_the_draws(self, monkeypatch, tester):
        # one-row blocks, each row of 1,000 tests in column blocks of 300
        monkeypatch.setattr(simulate, "BLOCK_CELLS", 300)
        report = run_parallel_sim(multi_block_scenario(tester))
        assert report.to_json() == MULTI_BLOCK_PINNED[tester]


#: A chunk of ``{tests}`` tests and ``{trials}`` trials on two triggered
#: attributes, its blocks read as the lines ``{regime}`` set; prints the peak
#: resident set of its process in MB.
PEAK_RSS_RUN = """
import resource, sys
from bmdlimits import simulate
from bmdlimits.simulate import MalloryStrategy, PatStrategy, SimScenario, run_parallel_sim
from bmdlimits.space import AttributeSpec, TransactionSpace
from bmdlimits.transactions import TransactionDistribution
{regime}
space = TransactionSpace((AttributeSpec("profile", 40), AttributeSpec("language", 5)))
run_parallel_sim(SimScenario(
    space=space,
    voter_dist=TransactionDistribution.uniform(space),
    n_voters=1000,
    mallory=MalloryStrategy.from_mapping({{"profile": [3], "language": [1]}}, 1e-4),
    pat=PatStrategy("uniform", {tests}),
    trials={trials},
    seed=1,
), workers=1)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak / (2**20 if sys.platform == "darwin" else 2**10))
"""


class TestBoundedMemory:
    regime = ""  # Python lines the run's process executes after importing the simulator

    def peak_rss_mb(self, tests: int, trials: int) -> float:
        # a process of its own, so that the test process's memory does not count
        src = pathlib.Path(simulate.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_RUN.format(tests=tests, trials=trials, regime=self.regime)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        return float(proc.stdout)

    def test_peak_rss_at_1e5_tests(self):
        # one 512 x 10**5 float64 array alone is 410 MB
        assert self.peak_rss_mb(100_000, 512) < 200

    def test_peak_rss_at_2_24_tests(self):
        # one row of 2**24 tests is 134 MB per float64 array: the row is
        # walked in column blocks
        assert self.peak_rss_mb(2**24, 2) < 200


# -- the sparsest array drives each block --------------------------------------


#: The report of reading every array of every block in full, byte for byte.
RARE_FLIP_PINNED = (
    '{"label": "attack on a 1%-mass voter profile flipping 1 in 500 of its transactions; '
    '1,000 uniform tests", "trials": 20000, "seed": 20260824, '
    '"empirical_detection": {"value": 0.0203, "std_error": 0.000997193812656296, "trials": 20000}, '
    '"empirical_altered_fraction": {"value": 1.977e-05, '
    '"std_error": 3.144010905443873e-07, "trials": 20000}, '
    '"empirical_fp": null, "empirical_fn": null, '
    '"analytic": {"trigger_mass_under_tests": 0.01, "detection": 0.01980152273557366, '
    '"altered_fraction": 2e-05}}'
)


class TestRareFlipPin:
    @pytest.mark.usefixtures("pool_forced")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rare_flip_attack(self, scenario_dir, workers):
        _, s = load_scenario(str(scenario_dir / "rare_flip_attack.json"))
        assert run_parallel_sim(s, workers=workers).to_json() == RARE_FLIP_PINNED


class CountingGenerator:
    """A ``Generator`` that counts the doubles its ``random`` draws."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.drawn = 0

    def random(self, size: int) -> np.ndarray:
        self.drawn += size
        return self.rng.random(size)


class TestReadOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.integers(1, 2000),
        data=st.data(),
        skip=st.integers(0, 40),
        jump_draws=st.sampled_from([0, simulate._JUMP_DRAWS, 2**62]),
    )
    def test_read_at_is_a_full_read(self, cells, data, skip, jump_draws):
        at = np.array(sorted(data.draw(st.sets(st.integers(0, cells - 1), max_size=200))), dtype=np.intp)
        full, rng = np.random.default_rng(99), np.random.default_rng(99)
        full.random(skip)
        rng.random(skip)
        want = full.random(cells)[at]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_JUMP_DRAWS", jump_draws)  # 0: every position by a jump
            got = simulate._read_at(rng, at, cells)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # the generator stands where the full read left it
        assert np.array_equal(rng.random(5), full.random(5))

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_certain_flips_are_not_read(self, q):
        s = scenario(mallory=MalloryStrategy.from_mapping({"profile": [3]}, q), pat=PatStrategy("uniform", 50))
        tests = simulate._resolve_tests(s)[0]
        seq = np.random.SeedSequence(5)
        rngs = [CountingGenerator(rng) for rng in simulate._array_rngs(seq, 2, 40 * 50)]
        fired = simulate._triggered_tests(tests, rngs, q, 40, slice(0, 50))
        # the trigger array read in full unless no flip fires; the flips never
        assert [rng.drawn for rng in rngs] == [0 if q == 0 else 2000, 0]
        one_shot = np.random.default_rng(seq)
        u = one_shot.random(2 * 2000)[:2000]
        lo, hi = tests.runs[0]
        want = np.flatnonzero((lo <= u) & (u < hi)) if q == 1 else []
        assert np.array_equal(fired, want)
        # both generators stand past the block: the flips' where the binomial starts
        assert np.array_equal(rngs[1].rng.random(3), one_shot.random(3))

    @pytest.mark.parametrize("q, drawn", [(0.05, 0), (0.0005, 40 * 1000)])
    def test_script_flips_read_only_at_hits_below_q(self, q, drawn):
        tests = simulate._resolve_tests(script_read_scenario(q))[0]
        seq = np.random.SeedSequence(5)
        [rng] = [CountingGenerator(rng) for rng in simulate._array_rngs(seq, 1, 40 * 1000)]
        fired = simulate._triggered_tests(tests, [rng], q, 40, slice(0, 1000))
        # below q the flips are read by jumps at the 80 hit cells; above it in full
        assert rng.drawn == drawn
        u = np.random.default_rng(seq).random(40 * 1000)
        assert np.array_equal(fired, np.flatnonzero((u < q) & np.tile(tests.hit, 40)))
        assert np.array_equal(rng.rng.random(3), np.random.default_rng(seq).random(40 * 1000 + 3)[-3:])


# -- every pin again, with each block read another way -------------------------


@pytest.mark.usefixtures("read_regime")
class TestSparsePinsEveryRead(TestSparsePins):
    pass


@pytest.mark.usefixtures("read_regime")
class TestManyRunsPinEveryRead(TestManyRunsPin):
    pass


@pytest.mark.usefixtures("read_regime")
class TestFactoredPinsEveryRead(TestFactoredPins):
    pass


@pytest.mark.usefixtures("read_regime")
class TestScriptPinsEveryRead(TestScriptPins):
    pass


@pytest.mark.usefixtures("read_regime")
class TestScriptReadPinsEveryRead(TestScriptReadPins):
    pass


@pytest.mark.usefixtures("read_regime")
class TestMultiBlockPinsEveryRead(TestMultiBlockPins):
    pass


@pytest.mark.usefixtures("read_regime")
class TestRareFlipPinEveryRead(TestRareFlipPin):
    pass


class TestBoundedMemoryEveryRead(TestBoundedMemory):
    @pytest.fixture(autouse=True)
    def read_in_the_run(self, read_regime):
        self.regime = read_regime


class TestScenarioFiles:
    def test_load_all_repository_scenarios(self, scenario_dir):
        for path in sorted(scenario_dir.glob("*.json")):
            kind, s = load_scenario(str(path))
            assert kind in ("parallel", "passive")
            assert s.trials >= 1

    @pytest.mark.parametrize(
        "overrides,needle",
        [({"seed": -1}, "seed"), ({"n_voters": 2**51}, "n_voters"), ({"n_voters": 2**62}, "n_voters")],
    )
    def test_scenario_domain(self, overrides, needle):
        # numpy would raise its own ValueError or OverflowError for these, and
        # a chunk's int64 sum of altered counts wraps past 2**63 / CHUNK_TRIALS
        with pytest.raises(DomainError, match=needle):
            scenario(**overrides)
        scenario(n_voters=2**51 - 1, seed=0)

    @pytest.mark.parametrize("run", [run_parallel_sim, run_passive_sim])
    def test_every_voter_altered_at_the_largest_electorate(self, run):
        # a chunk sums CHUNK_TRIALS counts of 2**51 - 1: 2**63 - 4096, still an
        # int64; at 2**62 voters the sum once wrapped to a negative fraction
        s = scenario(
            n_voters=2**51 - 1,
            mallory=MalloryStrategy.from_mapping({}, 1.0),
            trials=CHUNK_TRIALS,
            passive=PassiveParams(0.25, 0.005, 1),
        )
        assert run(s).empirical_altered_fraction.value == 1.0

    @pytest.mark.parametrize(
        "overrides,needle",
        [
            (
                {
                    "pat": PatStrategy("script", 1, scripts=(Transaction((3,)),)),
                    "mallory": MalloryStrategy.from_mapping({"review": [0]}, 1.0),
                },
                "coordinates",
            ),
            (
                {"pat": PatStrategy("script", 2, scripts=(Transaction((3, 0)), Transaction((10, 0))))},
                "out of range",
            ),
            (
                {"pat": PatStrategy("distribution", 5, TransactionDistribution.uniform(PIN_SPACE))},
                "tester distribution",
            ),
        ],
        ids=["short-script-row", "script-coordinate-out-of-range", "tester-over-another-space"],
    )
    def test_tester_domain(self, overrides, needle):
        # once an IndexError, a silent simulation and a mismatched run
        with pytest.raises(DomainError, match=needle):
            scenario(**overrides)

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "quantum"}')
        with pytest.raises(DomainError):
            load_scenario(str(p))

    def test_config_round_trip(self):
        cfg = {
            "space": {"attributes": [{"name": "profile", "cardinality": 4}]},
            "mallory": {"trigger": {"profile": [1]}, "flip_prob": 0.5},
            "pat": {"mode": "uniform", "test_count": 7},
            "n_voters": 100,
            "trials": 10,
            "seed": 5,
        }
        s = scenario_from_config(cfg)
        assert s.pat.test_count == 7
        assert s.mallory.flip_prob == 0.5
        assert s.passive is None
