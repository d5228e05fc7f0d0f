"""Where the traced run wraps the program; the per-layer metrics it derives.

Each wrapper sits on the attribute its caller looks up at call time (see
:mod:`tracing`).  Span names follow the program's module names, so a
per-layer metric names the layer it measures: ``core.reinforce.self_s``
is the REINFORCE driver's own time, excluding the policy forward and
backward, optimiser steps and reward evaluations it calls.
"""

from __future__ import annotations

import statistics
from importlib import import_module

from repro.core.agent import LayerAgent
from repro.core.blocks import BlockHeadStart
from repro.core.policy import HeadStartNetwork
from repro.core.reinforce import ReinforceDriver
from repro.nn.graph import GraphExecutor
from repro.nn.optim import SGD, RMSprop
from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = ["FUNCTIONAL_OPS", "Wrappers"]

#: ``repro.nn.functional`` ops timed per phase: ``train`` while autograd
#: records (training and the policy forward), ``eval`` under ``no_grad``.
#: Their backward closures run inside ``nn.tensor.backward``.
FUNCTIONAL_OPS = ("conv2d", "conv2d_depthwise", "batch_norm2d", "max_pool2d",
                  "linear", "global_avg_pool2d")


def _phase() -> str:
    return "train" if is_grad_enabled() else "eval"


class Wrappers:
    """Installs the wrappers on a tracer and keeps the counts they see."""

    def __init__(self, tracer):
        self.tracer = tracer
        #: Every span name :meth:`install` wrapped.
        self.names: set[str] = set()
        self.masks_scored = 0
        self.maps_removed = 0
        self.executors: list[GraphExecutor] = []

    def _count_masks(self, result, args, kwargs) -> None:
        masks = kwargs.get("masks", args[3] if len(args) > 3 else ())
        self.masks_scored += len(masks)

    def _count_removed(self, result, args, kwargs) -> None:
        self.maps_removed += int(result)

    def _keep_executor(self, result, args, kwargs) -> None:
        self.executors.append(result)

    def install(self) -> None:
        # Modules by import path: ``repro.core.finetune`` as an attribute
        # is the function the package re-exports, not the module.
        training, finetune, pruner, agent, blocks, nn, functional = (
            import_module(f"repro.{name}") for name in (
                "training", "core.finetune", "core.pruner", "core.agent",
                "core.blocks", "nn", "nn.functional"))
        t = self.tracer

        def wrap(owner, attr, name, **kwargs):
            t.wrap(owner, attr, name, **kwargs)
            self.names.add(name)

        wrap(training, "fit", "training.fit")
        wrap(finetune, "fit", "training.fit")
        wrap(pruner, "finetune", "core.finetune")
        for owner in (agent, blocks):
            wrap(owner, "evaluate", "training.evaluate")
        for owner in (training, pruner):
            wrap(owner, "evaluate_dataset", "training.evaluate_dataset")
        wrap(LayerAgent, "run", "core.agent.run")
        wrap(ReinforceDriver, "run", "core.reinforce.run")
        wrap(BlockHeadStart, "run", "core.blocks.run")
        wrap(HeadStartNetwork, "forward", "core.policy.forward")
        for owner, attr in ((agent, "graph_compile"), (nn, "compile")):
            wrap(owner, attr, "nn.graph.compile",
                 on_return=self._keep_executor)
        wrap(GraphExecutor, "masked_accuracy", "nn.graph.masked_accuracy",
             on_return=self._count_masks)
        wrap(GraphExecutor, "run", "nn.graph.run")
        wrap(Tensor, "backward", "nn.tensor.backward",
             tag=lambda: ("policy" if t.active("core.reinforce.run")
                          else "train"))
        for optimizer in (SGD, RMSprop):
            wrap(optimizer, "step", "nn.optim.step")
        for op in FUNCTIONAL_OPS:
            wrap(functional, op, f"nn.functional.{op}", tag=_phase)
        wrap(pruner, "prune_unit", "pruning.surgery.prune_unit",
             on_return=self._count_removed)

    def metrics(self, pipeline: int, infer: int, recorder,
                untraced_pipeline_s: float) -> dict[str, float]:
        """Every per-layer metric of one traced pipeline and inference phase.

        ``pipeline`` and ``infer`` index the two root spans; totals cover
        both, coverage only the pipeline.
        """
        t = self.tracer
        totals = t.totals(t.within(pipeline) + t.within(infer))

        def s(name):
            return totals.get(name, {}).get("s", 0.0)

        def self_s(name):
            return totals.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return totals.get(name, {}).get("calls", 0)

        aggregate = recorder.aggregate()
        counters = aggregate["counters"]
        hits = counters.get("evalcache/hits", 0)
        misses = counters.get("evalcache/misses", 0)
        reward_evals = counters.get("reinforce/reward_evals", 0)
        reinforce_s = s("core.reinforce.run")
        masked_s = s("nn.graph.masked_accuracy")
        synth = [span.duration for span in t.spans
                 if span.name == "data.synth"]
        build = [span.duration for span in t.spans
                 if span.name == "models.build"]
        root_s = t.spans[pipeline].duration
        covered_s = t.direct_children_s(pipeline)

        values = {
            "data.synth_s": statistics.median(synth),
            "models.build_s": statistics.median(build),
            "training.fit_s": s("training.fit"),
            "training.fit_calls": calls("training.fit"),
            "training.evaluate_s": s("training.evaluate"),
            "training.evaluate_calls": calls("training.evaluate"),
            "training.evaluate_dataset_s": s("training.evaluate_dataset"),
            "core.finetune.finetune_s": s("core.finetune"),
            "core.finetune.calls": calls("core.finetune"),
            "core.agent.run_s": s("core.agent.run"),
            "core.reinforce.run_s": reinforce_s,
            "core.reinforce.self_s": self_s("core.reinforce.run"),
            "core.reinforce.iterations": aggregate["series"].get(
                "reinforce/reward", {}).get("count", 0),
            "core.reinforce.reward_evals": reward_evals,
            "core.reinforce.evals_per_s": (reward_evals / reinforce_s
                                           if reinforce_s else 0.0),
            "core.blocks.run_s": s("core.blocks.run"),
            "core.blocks.self_s": self_s("core.blocks.run"),
            "core.policy.forward_s": s("core.policy.forward"),
            "core.policy.forward_calls": calls("core.policy.forward"),
            "core.evalcache.hits": hits,
            "core.evalcache.misses": misses,
            "core.evalcache.hit_rate": (hits / (hits + misses)
                                        if hits + misses else 0.0),
            "nn.graph.compile_s": s("nn.graph.compile"),
            "nn.graph.compile_calls": calls("nn.graph.compile"),
            "nn.graph.masked_accuracy_s": masked_s,
            "nn.graph.masks_scored": self.masks_scored,
            "nn.graph.ms_per_mask": (1000.0 * masked_s / self.masks_scored
                                     if self.masks_scored else 0.0),
            "nn.graph.run_s": s("nn.graph.run"),
            "nn.graph.arena_reuses": sum(executor.arena_stats["reuses"]
                                         for executor in self.executors),
            "nn.tensor.backward_s.train": s("nn.tensor.backward.train"),
            "nn.tensor.backward_s.policy": s("nn.tensor.backward.policy"),
            "nn.tensor.backward_calls": calls("nn.tensor.backward"),
            "nn.optim.step_s": s("nn.optim.step"),
            "nn.optim.step_calls": calls("nn.optim.step"),
            "pruning.surgery.prune_unit_s": s("pruning.surgery.prune_unit"),
            "pruning.surgery.maps_removed": self.maps_removed,
            "trace.coverage": covered_s / root_s,
            "trace.unattributed_s": root_s - covered_s,
            "trace.overhead": root_s / untraced_pipeline_s - 1.0,
        }
        for op in FUNCTIONAL_OPS:
            name = f"nn.functional.{op}"
            values[f"{name}_s.train"] = s(f"{name}.train")
            values[f"{name}_s.eval"] = s(f"{name}.eval")
            values[f"{name}_calls"] = calls(name)
        return values
