"""The benchmark's workloads: each is one prune job run to completion.

A workload owns its task geometry, how its inputs are made from a seed
(set-up) and its pipeline: pretrain, then search, surgery and fine-tune.
Pipelines call the program only through its public entry points
(``make_cifar100_like``, ``build_model``, ``training.fit``,
``HeadStartPruner.run`` / ``run_layer``, ``BlockHeadStart.run`` +
``apply``).  Every RL search runs a fixed number of iterations
(``min_iterations == max_iterations``), so the work a run does depends on
its geometry and not on when the reward happens to stop improving.

Why each workload exists, and why its geometry, is in ``NOTES.md``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import training
from repro.core import (BlockHeadStart, EvalOptions, FinetuneConfig,
                        HeadStartConfig, HeadStartPruner)
from repro.data import make_cifar100_like
from repro.models import build_model

__all__ = ["Geometry", "Outcome", "Workload", "WORKLOADS"]

#: HeadStart's target speedup per searched unit (the paper's sp = 2).
SPEEDUP = 2.0
#: Minibatch size of every pretrain and fine-tune.
BATCH_SIZE = 32


@dataclass(frozen=True)
class Geometry:
    """Task size and schedule of one workload."""

    model: str
    width: float
    classes: int
    image_size: int
    train_per_class: int
    test_per_class: int
    pretrain_epochs: int
    pretrain_lr: float
    iterations: int          # REINFORCE iterations per searched unit
    eval_batch: int          # calibration images per reward evaluation
    finetune_epochs: int
    noise: float             # synthetic-task noise: sets the difficulty


@dataclass
class Outcome:
    """What one pipeline run produced, for the output checks."""

    model: object
    masks: dict[str, np.ndarray]   # searched unit (or "blocks") -> keep mask
    kept: dict[str, int]           # the same names -> size after surgery
    expected_kept: dict[str, int]  # the same names -> size the mask implies
    reported_accuracy: float       # the engine's own final test accuracy


@dataclass(frozen=True)
class Workload:
    name: str
    geometry: Geometry
    pipeline: Callable
    #: Traced names that must fire inside this workload's pipeline; every
    #: other wrapped name must show zero calls there.
    fires: frozenset

    def setup(self, seed: int, tracer=None):
        """Make the task and the untrained model from ``seed``."""
        g = self.geometry
        with _maybe_span(tracer, "data.synth"):
            task = make_cifar100_like(
                num_classes=g.classes, image_size=g.image_size,
                train_per_class=g.train_per_class,
                test_per_class=g.test_per_class, noise=g.noise, seed=seed)
        with _maybe_span(tracer, "models.build"):
            model = build_model(g.model, num_classes=g.classes,
                                input_size=g.image_size,
                                width_multiplier=g.width,
                                rng=np.random.default_rng(seed))
        return task, model

    def run(self, task, model, seed: int) -> Outcome:
        """Pretrain ``model`` in place, then prune and fine-tune it."""
        g = self.geometry
        training.fit(model, task.train, None, training.TrainConfig(
            epochs=g.pretrain_epochs, batch_size=BATCH_SIZE,
            lr=g.pretrain_lr, seed=seed))
        return self.pipeline(self, task, model, seed)


def _maybe_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _config(g: Geometry, seed: int, options: EvalOptions) -> HeadStartConfig:
    return HeadStartConfig(speedup=SPEEDUP, max_iterations=g.iterations,
                           min_iterations=g.iterations,
                           patience=g.iterations, eval_batch=g.eval_batch,
                           seed=seed, eval=options)


def _finetune(g: Geometry, seed: int) -> FinetuneConfig:
    return FinetuneConfig(epochs=g.finetune_epochs, batch_size=BATCH_SIZE,
                          lr=0.02, max_grad_norm=5.0, seed=seed)


def _unit_sizes(model, names) -> dict[str, int]:
    return {unit.name: unit.num_maps for unit in model.prune_units()
            if unit.name in names}


def _kept_counts(masks: dict) -> dict[str, int]:
    return {name: int(np.count_nonzero(mask)) for name, mask in masks.items()}


def _layer_search(workload: Workload, task, model, seed: int) -> Outcome:
    """Whole-model layer mode: ``HeadStartPruner.run`` over every unit."""
    g = workload.geometry
    pruner = HeadStartPruner(
        model, task.train, task.test,
        config=_config(g, seed, EvalOptions(graph=True, fused=True,
                                            mask_batch=True)),
        finetune_config=_finetune(g, seed))
    result = pruner.run()
    masks = {name: np.asarray(mask, dtype=bool)
             for name, mask in result.masks.items()}
    return Outcome(model, masks, _unit_sizes(model, masks),
                   _kept_counts(masks), float(result.final_accuracy))


def _block_train(workload: Workload, task, model, seed: int) -> Outcome:
    """Block mode with dense eager eval, then ``fit`` the survivor."""
    g = workload.geometry
    calibration = (task.train.images[:g.eval_batch],
                   task.train.labels[:g.eval_batch])
    engine = BlockHeadStart(model, calibration,
                            config=_config(g, seed, EvalOptions()))
    result = engine.run()
    engine.apply(result, rng=np.random.default_rng(seed))
    pruned = engine.model
    history = training.fit(pruned, task.train, task.test,
                           _finetune(g, seed).as_train_config())
    masks = {"blocks": np.asarray(result.keep_action, dtype=bool)}
    return Outcome(pruned, masks,
                   {"blocks": sum(pruned.blocks_per_group)},
                   {"blocks": sum(result.blocks_per_group)},
                   float(history.final_test_accuracy))


#: The GoogLeNet Inception whose seven units the third workload searches.
INCEPTION = "group3.block1."


def _inception_units(workload: Workload, task, model, seed: int) -> Outcome:
    """``run_layer`` over one Inception's units, unfused bit-exact eval."""
    g = workload.geometry
    pruner = HeadStartPruner(
        model, task.train, task.test,
        config=_config(g, seed, EvalOptions(graph=True)),
        finetune_config=_finetune(g, seed))
    units = [unit for unit in model.prune_units()
             if unit.name.startswith(INCEPTION)]
    masks = {}
    log = None
    for offset, unit in enumerate(units):
        log, agent_result = pruner.run_layer(unit, seed_offset=offset)
        masks[unit.name] = np.asarray(agent_result.keep_mask, dtype=bool)
    return Outcome(model, masks, _unit_sizes(model, masks),
                   _kept_counts(masks), float(log.finetuned_accuracy))


_COMMON = frozenset({
    "training.fit", "training.evaluate", "training.evaluate_dataset",
    "core.reinforce.run", "core.policy.forward",
    "nn.tensor.backward", "nn.optim.step",
    "nn.functional.conv2d", "nn.functional.batch_norm2d",
    "nn.functional.linear"})

_LAYER_MODE = frozenset({
    "core.agent.run", "core.finetune", "nn.graph.compile",
    "nn.graph.masked_accuracy", "pruning.surgery.prune_unit"})

WORKLOADS = {w.name: w for w in (
    Workload(
        name="vgg11-graph-search",
        geometry=Geometry(model="vgg11", width=0.25, classes=10,
                          image_size=16, train_per_class=24,
                          test_per_class=24, noise=0.8, pretrain_epochs=4,
                          pretrain_lr=0.02, iterations=10, eval_batch=32,
                          finetune_epochs=1),
        pipeline=_layer_search,
        fires=_COMMON | _LAYER_MODE | {"nn.functional.max_pool2d"}),
    Workload(
        name="resnet20-block-train",
        geometry=Geometry(model="resnet20", width=0.5, classes=10,
                          image_size=12, train_per_class=24,
                          test_per_class=32, noise=1.0, pretrain_epochs=5,
                          pretrain_lr=0.05, iterations=16, eval_batch=64,
                          finetune_epochs=2),
        pipeline=_block_train,
        fires=_COMMON | {"core.blocks.run",
                         "nn.functional.global_avg_pool2d"}),
    Workload(
        name="googlenet-inception",
        geometry=Geometry(model="googlenet", width=0.5, classes=10,
                          image_size=8, train_per_class=24,
                          test_per_class=32, noise=0.5, pretrain_epochs=3,
                          pretrain_lr=0.05, iterations=8, eval_batch=32,
                          finetune_epochs=1),
        pipeline=_inception_units,
        fires=_COMMON | _LAYER_MODE | {"nn.functional.max_pool2d",
                                       "nn.functional.global_avg_pool2d"}),
)}
