"""Pipeline benchmark for the HeadStart reproduction.

Runs one workload (a whole prune job: pretrain, RL search, surgery and
fine-tune) as a closed loop with one client, repeating the pipeline for
``--seconds`` and reporting medians.  Between repetitions it times
batch-1 inference of the dense and the pruned model in alternating
rounds.  Times are reported in reference seconds (see ``speed.py``).
Outputs are checked on every run; see ``NOTES.md`` for the checks, the
workloads and the measured layer shares.

Usage, from the repository root::

    python3 perfbench/run.py --workload vgg11-graph-search --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced repetitions (the base of ``trace.overhead``), then one traced
repetition, and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(output checks) and ``metrics``.  Metric names, units and directions are
those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: a single-client closed loop, and steadier timings on a
# small shared machine.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Pipeline repetitions per run, at least, whatever ``--seconds`` says:
#: two are needed to check that a seed reproduces its masks.
MIN_REPEATS = 2
#: Inference timing, per block: ``INFER_WARMUP`` calls per executor, then
#: ``INFER_ROUNDS`` rounds of ``INFER_CALLS`` batch-1 calls per executor.
INFER_EXECUTORS = 8
INFER_ROUNDS = 4
INFER_CALLS = 6
INFER_WARMUP = 3
#: Test images used by the logit checks.
CHECK_IMAGES = 32


class Checks:
    """Output checks: counts attempted and failed, reports each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(trace: bool) -> dict:
    """The metrics ``BENCHMARK.json`` declares for this mode, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def _percentile(values, q: int) -> float:
    """The ``q``-th percentile as ``statistics.quantiles`` cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class InferenceTimer:
    """Batch-1 latency samples (seconds) of the dense and the pruned model.

    Each model runs through ``INFER_EXECUTORS`` separately compiled fused
    ``repro.nn.compile(...).run`` executors, because executors of one
    model measured up to 15% apart in one process.  Each :meth:`block` times
    ``INFER_ROUNDS`` rounds, alternating which model goes first; blocks
    run between pipeline repetitions, so the samples span the whole run.
    """

    def __init__(self, dense, pruned, image):
        import repro.nn
        self.image = image
        self.executors = [[repro.nn.compile(model, image, fuse=True)
                           for _ in range(INFER_EXECUTORS)]
                          for model in (dense, pruned)]
        self.samples = ([], [])

    def block(self, probe) -> None:
        """Time one block, sampling ``probe`` after each round."""
        clock = time.perf_counter
        image = self.image
        for executors in self.executors:
            for executor in executors:
                for _ in range(INFER_WARMUP):
                    executor.run(image)
        for round_index in range(INFER_ROUNDS):
            order = (0, 1) if round_index % 2 == 0 else (1, 0)
            for which in order:
                samples = self.samples[which]
                for executor in self.executors[which]:
                    for _ in range(INFER_CALLS):
                        start = clock()
                        executor.run(image)
                        samples.append(clock() - start)
            probe.sample()


def _check_outcome(checks: Checks, outcome, test_set, first) -> None:
    """Checks on one repetition; ``first`` is the first one's outcome."""
    from repro.training import evaluate_dataset

    recomputed = evaluate_dataset(outcome.model, test_set)
    checks.expect(recomputed == outcome.reported_accuracy,
                  f"recomputed accuracy {recomputed!r} != reported "
                  f"{outcome.reported_accuracy!r}")
    for name, kept in outcome.expected_kept.items():
        checks.expect(outcome.kept.get(name) == kept,
                      f"{name}: pruned size {outcome.kept.get(name)} != "
                      f"mask keeps {kept}")
    if first is not None:
        checks.expect(
            outcome.reported_accuracy == first.reported_accuracy,
            "final accuracy differs between repetitions of one seed")
        checks.expect(
            outcome.masks.keys() == first.masks.keys() and all(
                np.array_equal(outcome.masks[name], first.masks[name])
                for name in first.masks),
            "masks differ between repetitions of one seed")


def _check_logits(checks: Checks, model, images) -> None:
    """Eager vs unfused graph bit-for-bit; fused within the drift limit."""
    import repro.nn
    from repro.bench.schema import FUSED_DRIFT_LIMIT
    from repro.nn import Tensor, no_grad

    model.eval()
    with no_grad():
        eager = model(Tensor(images)).data
        eager64 = model(Tensor(images.astype(np.float64))).data
    unfused = repro.nn.compile(model, images[:1], fuse=False).run(images)
    fused = repro.nn.compile(model, images[:1].astype(np.float64),
                             fuse=True).run(images.astype(np.float64))
    for name, logits in (("eager", eager), ("unfused graph", unfused),
                         ("fused graph", fused)):
        checks.expect(bool(np.isfinite(logits).all()),
                      f"{name} logits are not finite")
    checks.expect(np.array_equal(unfused, eager),
                  "unfused graph logits differ from eager logits")
    drift = float(np.max(np.abs(fused - eager64)))
    checks.expect(drift <= FUSED_DRIFT_LIMIT,
                  f"fused graph drift {drift!r} > {FUSED_DRIFT_LIMIT!r}")


def _repeat_pipeline(workload, task, model, seed, seconds, checks, probe):
    """Alternate pipeline repetitions and inference blocks for ``seconds``.

    Runs at least ``MIN_REPEATS`` repetitions.  Returns the pipeline
    durations (wall seconds), the first and last outcomes and the
    inference timer.
    """
    durations, rounds = [], []
    first = last = timer = None
    deadline = time.perf_counter() + seconds
    while (len(durations) < MIN_REPEATS or time.perf_counter()
           + statistics.median(rounds) <= deadline):
        fresh = copy.deepcopy(model)
        start = time.perf_counter()
        outcome = workload.run(task, fresh, seed)
        durations.append(time.perf_counter() - start)
        probe.sample()
        _check_outcome(checks, outcome, task.test, first)
        if first is None:
            first = outcome
        last = outcome
        if timer is None:
            timer = InferenceTimer(model, outcome.model, task.test.images[:1])
        timer.block(probe)
        rounds.append(time.perf_counter() - start)
    return durations, first, last, timer


def _traced_repetition(workload, task, model, seed, checks, first,
                       tracer, probe, untraced_s):
    """One traced pipeline plus inference; returns per-layer metric values."""
    from layers import Wrappers
    from repro.obs import Recorder, use_recorder

    wrappers = Wrappers(tracer)
    fresh = copy.deepcopy(model)
    recorder = Recorder()
    wrappers.install()
    try:
        with use_recorder(recorder):
            with tracer.span("pipeline") as pipeline:
                outcome = workload.run(task, fresh, seed)
            with tracer.span("infer") as infer:
                InferenceTimer(model, outcome.model,
                               task.test.images[:1]).block(probe)
    finally:
        tracer.uninstall()
    _check_outcome(checks, outcome, task.test, first)
    fired = {tracer.spans[index].name for index in tracer.within(pipeline)}
    for name in sorted(wrappers.names | workload.fires):
        expected = name in workload.fires
        checks.expect((name in fired) == expected,
                      f"traced {name} {'never fired' if expected else 'fired'}"
                      f" in the {workload.name} pipeline")
    return wrappers.metrics(pipeline, infer, recorder, untraced_s)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS
    from repro.pruning.stats import profile_model
    import_s = time.perf_counter() - _STARTED
    probe = SpeedProbe()
    probe.sample()

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = _declared_metrics(args.trace)
    checks = Checks()
    tracer = Tracer() if args.trace else None

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        task, model = workload.setup(args.seed, tracer)
        setups.append(time.perf_counter() - start)
        probe.sample()

    durations, first, last, timer = _repeat_pipeline(
        workload, task, model, args.seed, args.seconds, checks, probe)
    _check_logits(checks, last.model, task.test.images[:CHECK_IMAGES])

    if args.trace:
        values = _traced_repetition(workload, task, model, args.seed, checks,
                                    first, tracer, probe,
                                    statistics.median(durations))
    else:
        # Reference seconds: wall seconds over the run's machine slowdown.
        slowdown = probe.slowdown
        dense_s, pruned_s = timer.samples
        shape = task.test.images.shape[1:]
        values = {
            "setup_s": (import_s + statistics.median(setups)) / slowdown,
            "pipeline_s": statistics.median(durations) / slowdown,
            "final_accuracy": first.reported_accuracy,
            "flops_kept": (profile_model(last.model, shape).flops
                           / profile_model(model, shape).flops),
            "infer_ms_p50": 1000.0 * statistics.median(pruned_s) / slowdown,
            "infer_ms_p90": 1000.0 * _percentile(pruned_s, 90) / slowdown,
            "infer_speedup": (statistics.median(dense_s)
                              / statistics.median(pruned_s)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    if values.keys() != declared.keys():
        print("error: measured metrics do not match BENCHMARK.json: "
              f"{sorted(values.keys() ^ declared.keys())}", file=sys.stderr)
        return 2
    print(f"workload {workload.name}  seed {args.seed}  "
          f"geometry {workload.geometry}")
    print("pipeline repetitions (wall s): "
          + " ".join(f"{seconds:.3f}" for seconds in durations))
    print(f"machine slowdown against the reference: {probe.slowdown:.3f} "
          f"(median of {len(probe.factors)} probes, "
          f"{min(probe.factors):.3f} to {max(probe.factors):.3f})")
    for name, spec in declared.items():
        print(f"{name} = {values[name]:.6g} {spec['unit']} "
              f"({spec['better']} is better)")
    print(f"check_fail_ratio = {checks.failed / checks.attempted:.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks failed; "
          "lower is better)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": spec["unit"]}
                    for name, spec in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
