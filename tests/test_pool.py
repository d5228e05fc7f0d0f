"""Supervised evaluation pool: determinism, supervision, degradation.

Covers :mod:`repro.runtime.pool` — submission-order merge, worker
crash/timeout supervision with requeue and respawn, graceful
degradation to in-process serial evaluation (queued for the harness via
:func:`take_degradations`), shared-memory calibration arrays, budget
enforcement across the process tree, and the end-to-end guarantee the
whole design exists for: a parallel :class:`LayerAgent` run is
bit-for-bit identical to a serial one.

Fault plans and watchdogs must be armed *before* the pool is built:
workers are forked at construction and inherit the then-active plan and
watchdog (which is exactly how the chaos harness uses them).
"""

import copy

import numpy as np
import pytest

from repro.core import EvalOptions, HeadStartConfig, LayerAgent
from repro.runtime import (EvalPool, FaultPlan, PoolTaskError, SharedArrays,
                           StepBudget, inject, take_degradations)
from repro.runtime import watchdog
from repro.runtime.errors import DivergenceError


def score(action):
    """A cheap pure stand-in for a reward function."""
    action = np.asarray(action, dtype=np.float64)
    return float((np.arange(action.size) * action).sum() + 0.5)


def actions_for(count, size=5):
    rng = np.random.default_rng(42)
    return [rng.random(size) for _ in range(count)]


def make_pool(**overrides):
    options = dict(workers=2, worker_cache=False, retry_backoff=0.0)
    options.update(overrides)
    return EvalPool({"batch": score}, **options)


class TestMap:
    def test_matches_serial_in_submission_order(self):
        actions = actions_for(9)
        take_degradations()
        with make_pool() as pool:
            values = pool.map(actions)
        assert values == [score(a) for a in actions]
        assert pool.counts["tasks"] == 9
        assert pool.counts["worker_deaths"] == 0
        assert take_degradations() == []

    def test_empty_and_unknown_fn(self):
        with make_pool(workers=1) as pool:
            assert pool.map([]) == []
            with pytest.raises(KeyError):
                pool.map(actions_for(1), fn="nope")

    def test_multiple_named_functions(self):
        double = lambda a: 2.0 * score(a)
        actions = actions_for(4)
        with EvalPool({"batch": score, "final": double}, workers=2,
                      worker_cache=False) as pool:
            assert pool.map(actions, fn="final") == [double(a)
                                                     for a in actions]


class TestSupervision:
    def test_worker_crash_requeues_on_fresh_worker(self):
        # Every fresh worker survives one task and dies on its second;
        # with a generous death budget the map must still finish with
        # correct values, retrying the lost tasks on respawned workers.
        actions = actions_for(5)
        take_degradations()
        with inject(FaultPlan().crash_at("pool.task", 2)):
            with make_pool(workers=1, max_worker_deaths=10) as pool:
                values = pool.map(actions)
        assert values == [score(a) for a in actions]
        assert pool.counts["worker_deaths"] >= 1
        assert pool.counts["retries"] >= 1
        assert pool.counts["tasks"] + pool.counts["serial_tasks"] == 5
        take_degradations()

    def test_exhausted_pool_degrades_all_tasks_to_serial(self):
        # Every worker dies on its first task, blowing the death budget:
        # the pool fails closed and every task runs serially in-process,
        # with the degradation queued for the harness to journal.
        actions = actions_for(7)
        take_degradations()
        with inject(FaultPlan().crash_at("pool.task", 1)):
            with make_pool(workers=2, max_worker_deaths=3) as pool:
                values = pool.map(actions)
        assert values == [score(a) for a in actions]
        assert not pool.alive
        assert pool.counts["serial_tasks"] == 7
        degradations = take_degradations()
        assert [d["reason"] for d in degradations] == ["worker_deaths"]
        assert degradations[0]["scope"] == "pool"

    def test_task_out_of_retries_degrades_only_itself(self):
        # Workers always die: each task burns its attempts and then runs
        # serially, one degradation record per exhausted task (the death
        # budget is kept out of reach so the whole pool never fails).
        actions = actions_for(2)
        take_degradations()
        with inject(FaultPlan().crash_at("pool.task")):
            with make_pool(workers=1, task_retries=1,
                           max_worker_deaths=100) as pool:
                values = pool.map(actions)
        assert values == [score(a) for a in actions]
        assert pool.counts["serial_tasks"] == 2
        reasons = [d["reason"] for d in take_degradations()]
        assert reasons == ["retries_exhausted", "retries_exhausted"]

    def test_hung_worker_is_killed_and_task_retried(self):
        # The first task of every fresh worker hangs well past the
        # deadline; supervision must SIGKILL it, count a timeout, and
        # eventually deliver correct values (serially, once the death
        # budget is gone).
        actions = actions_for(3)
        take_degradations()
        with inject(FaultPlan().hang_at("pool.task", 1, seconds=30.0)):
            with make_pool(workers=1, task_seconds=0.2,
                           max_worker_deaths=1) as pool:
                values = pool.map(actions)
        assert values == [score(a) for a in actions]
        assert pool.counts["timeouts"] >= 1
        assert [d["reason"] for d in take_degradations()] == ["worker_deaths"]

    def test_worker_divergence_reraises_with_original_kind(self):
        def exploding(action):
            raise DivergenceError("reward", value=float("nan"),
                                  layer="conv1", detail="boom")

        with EvalPool({"batch": exploding}, workers=1,
                      worker_cache=False) as pool:
            with pytest.raises(PoolTaskError) as info:
                pool.map(actions_for(1))
        record = info.value.as_record()
        assert record["kind"] == "DivergenceError"
        assert record["stage"] == "reward"
        assert record["detail"] == "boom"
        assert record["layer"] == "conv1"


class TestBudgets:
    def test_eval_budget_bounds_the_process_tree(self):
        # Worker ticks at the pool.task fault site ride back on each
        # result; wherever the overrun is detected (worker-side tick or
        # parent-side merge) it must surface as the same journalable
        # budget divergence a serial overrun raises.
        actions = actions_for(6)
        with watchdog.watch(StepBudget(max_evals=3), "conv1"):
            with make_pool(workers=1) as pool:
                with pytest.raises(DivergenceError) as info:
                    pool.map(actions)
        record = info.value.as_record()
        assert record["kind"] == "BudgetExceededError"
        assert record["stage"] == "watchdog.budget"

    def test_virtual_stall_counts_across_processes(self):
        # A stall fault advances the *worker's* virtual clock; the delta
        # must reach the parent budget, so a wall-clock ceiling trips
        # without any real time passing.
        actions = actions_for(3)
        plan = FaultPlan().stall_at("pool.task", 1, seconds=120.0)
        with inject(plan):
            with watchdog.watch(StepBudget(max_seconds=60.0), "conv1"):
                with make_pool(workers=1) as pool:
                    with pytest.raises(DivergenceError) as info:
                        pool.map(actions)
        record = info.value.as_record()
        assert record["kind"] == "BudgetExceededError"
        assert "seconds" in record["detail"]


class TestSharedArrays:
    def test_roundtrip_and_close(self):
        rng = np.random.default_rng(3)
        images = rng.random((6, 3, 4, 4))
        labels = rng.integers(0, 4, size=6)
        shared = SharedArrays(images=images, labels=labels)
        np.testing.assert_array_equal(shared["images"], images)
        np.testing.assert_array_equal(shared["labels"], labels)
        assert shared["labels"].dtype == labels.dtype
        shared.close()
        assert shared.arrays == {}


class TestEndToEnd:
    def test_parallel_agent_matches_serial_bitwise(self, trained_lenet,
                                                   calibration):
        """The tentpole guarantee: workers=2 == workers=0, bit for bit.

        Also the hit-rate accounting regression test: the parent cache
        sees the identical lookup/insert sequence either way, and the
        worker caches' merged totals are internally consistent.
        """
        def run(workers):
            model = copy.deepcopy(trained_lenet)
            config = HeadStartConfig(speedup=2.0, max_iterations=4,
                                     min_iterations=3, patience=3,
                                     eval_batch=16, seed=0, mc_samples=2,
                                     eval=EvalOptions(cache=True,
                                                      workers=workers))
            unit = model.prune_units()[0]
            return LayerAgent(model, unit, *calibration, config).run()

        serial = run(0)
        parallel = run(2)
        np.testing.assert_array_equal(serial.keep_mask, parallel.keep_mask)
        assert serial.reward_history == parallel.reward_history
        assert serial.loss_history == parallel.loss_history
        assert serial.iterations == parallel.iterations
        assert serial.inception_accuracy == parallel.inception_accuracy
        for key in ("hits", "misses", "evictions"):
            assert serial.cache_stats[key] == parallel.cache_stats[key]
        workers = parallel.cache_stats["workers"]
        assert workers["requests"] == workers["hits"] + workers["misses"]
        assert workers["requests"] > 0
        assert "workers" not in serial.cache_stats
