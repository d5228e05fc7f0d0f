"""Per-layer HeadStart agent — paper Sections III.B/III.C.

For one prunable unit, the agent trains a head-start network with the
shared REINFORCE driver (:mod:`repro.core.reinforce`): actions are
per-feature-map keep decisions, the reward is ``R(A) = ACC - SPD``
(Eq. 2-4) measured by masking the unit and evaluating a calibration
batch, and the returned inception is the best candidate re-scored on the
full calibration set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.graph import GraphTraceError
from ..nn.graph import compile as graph_compile
from ..nn.modules import Module
from ..nn.tensor import Tensor
from ..obs import get_recorder
from ..pruning.surgery import channel_mask
from ..pruning.units import ConvUnit
from ..training import evaluate
from .config import HeadStartConfig
from .evalcache import EvalCache
from .policy import HeadStartNetwork
from .reinforce import ReinforceDriver
from .reward import reward as compute_reward

__all__ = ["AgentResult", "LayerAgent"]


@dataclass
class AgentResult:
    """Outcome of training one layer's head-start network.

    ``keep_mask`` is the learnt inception; the histories expose the
    RL dynamics for the ablation benchmarks.  ``cache_stats`` is the
    reward-memoization summary when the eval cache was enabled
    (``None`` otherwise) — runtime telemetry only, never journaled.
    """

    keep_mask: np.ndarray
    probabilities: np.ndarray
    iterations: int
    reward_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)
    inception_accuracy: float = float("nan")
    cache_stats: dict | None = None

    @property
    def kept_maps(self) -> int:
        return int(np.count_nonzero(self.keep_mask))


class LayerAgent:
    """Trains a head-start network to find one layer's optimal inception.

    Parameters
    ----------
    model:
        The (possibly partially pruned) model being compressed.
    unit:
        The prunable unit this agent controls.
    images / labels:
        Calibration data for reward evaluation.  The per-iteration batch
        is capped at ``config.eval_batch``; the full set re-scores
        finalist actions so a lucky small-batch action is not selected.
    config:
        HeadStart hyper-parameters.
    """

    def __init__(self, model: Module, unit: ConvUnit,
                 images: np.ndarray, labels: np.ndarray,
                 config: HeadStartConfig | None = None):
        self.model = model
        self.unit = unit
        config = config if config is not None else HeadStartConfig()
        self.config = config
        batch = min(config.eval_batch, len(images))
        self.images = images[:batch]
        self.labels = labels[:batch]
        self.full_images = images
        self.full_labels = labels
        self.rng = np.random.default_rng(config.seed)
        self.policy = HeadStartNetwork(unit.num_maps,
                                       noise_size=config.noise_size,
                                       hidden_channels=config.hidden_channels,
                                       keep_ratio=1.0 / config.speedup,
                                       rng=self.rng)
        #: Static-graph executor for this layer's reward evals, built
        #: lazily by :meth:`run` when ``config.eval.graph`` is on.
        self._graph = None

    # -- reward plumbing ----------------------------------------------------
    def _build_graph(self):
        """Compile the model once for this layer, or fall back to eager.

        A model the tracer cannot express (data-dependent control flow)
        raises
        :class:`~repro.nn.graph.GraphTraceError`; the agent then keeps
        the eager path and journals nothing — the ``graph/*`` counters
        are operational, so a fallen-back run still diffs clean against
        an eager one.
        """
        rec = get_recorder()
        try:
            executor = graph_compile(self.model, Tensor(self.images[:1]),
                                     fuse=self.config.eval.fused,
                                     mask_batch=self.config.eval.mask_batch)
            executor.set_mask_unit(
                self.unit.conv, self.unit.bn,
                tied=[(tie.conv, tie.bn) for tie in self.unit.tied])
        except GraphTraceError as error:
            rec.counter("graph/fallbacks", 1, operational=True,
                        layer=self.unit.name, reason=str(error))
            return None
        rec.counter("graph/compiled", 1, operational=True,
                    layer=self.unit.name, nodes=executor.num_nodes)
        return executor

    def _masked_accuracy(self, action: np.ndarray,
                         full: bool = False) -> float:
        images = self.full_images if full else self.images
        labels = self.full_labels if full else self.labels
        if self._graph is not None:
            # Distinct prefix-cache keys: the batch and full calibration
            # sets feed different boundary activations.
            key = f"{self.unit.name}@{'full' if full else 'batch'}"
            return float(self._graph.masked_accuracy(
                images, labels, [np.asarray(action) > 0.5], key=key)[0])
        with channel_mask(self.unit, action.astype(bool)):
            return evaluate(self.model, images, labels)

    def _reward(self, action: np.ndarray, original_accuracy: float,
                full: bool = False) -> float:
        accuracy = self._masked_accuracy(action, full=full)
        return compute_reward(accuracy, original_accuracy, action,
                              self.config.speedup,
                              acc_weight=self.config.acc_weight,
                              spd_weight=self.config.spd_weight)

    def _batch_reward_fn(self, original_accuracy: float):
        """List-of-actions reward evaluator over the graph executor.

        Plugs into :attr:`ReinforceDriver.batch_reward_fn`: the driver
        hands over each iteration's deduped cache misses and the
        executor scores them through one shared boundary prefix (and,
        with ``eval.mask_batch``, one folded suffix forward).  Values
        agree with :meth:`_reward` — both paths run the same suffix
        kernels per mask.
        """
        def batch_rewards(actions: list[np.ndarray]) -> list[float]:
            masks = [np.asarray(action) > 0.5 for action in actions]
            accuracies = self._graph.masked_accuracy(
                self.images, self.labels, masks,
                key=f"{self.unit.name}@batch")
            return [compute_reward(float(accuracy), original_accuracy,
                                   action, self.config.speedup,
                                   acc_weight=self.config.acc_weight,
                                   spd_weight=self.config.spd_weight)
                    for accuracy, action in zip(accuracies, actions)]
        return batch_rewards

    def _reward_fns(self, original_accuracy: float):
        """The (iteration, finalist) reward callables, cache-wrapped.

        Each run gets *fresh* caches scoped to this layer's current
        model state; the batch and full-set rewards never share entries
        (same mask, different data — different value).  Returns the
        pair plus the iteration cache (or ``None``) for stats.
        """
        reward_fn = lambda action: self._reward(action, original_accuracy)
        final_fn = lambda action: self._reward(action, original_accuracy,
                                               full=True)
        cache = None
        if self.config.eval.cache:
            cache = EvalCache(reward_fn, maxsize=self.config.eval.cache_size,
                              scope=self.unit.name)
            reward_fn = cache
        return reward_fn, final_fn, cache

    def _build_pool(self, reward_fn, final_fn, cache):
        """A supervised :class:`~repro.runtime.pool.EvalPool`, or ``None``.

        The pool gets the *raw* reward function — worker processes keep
        their own private caches; the parent cache stays authoritative
        and only ever sees values through the driver's lookup/insert
        sequence.  Calibration arrays are moved into shared memory
        first, so the workers forked by the pool constructor map one
        copy of the data.  Returns ``(pool, shared, originals)`` for the
        caller's finally-block to unwind.
        """
        from ..runtime.pool import EvalPool, SharedArrays
        shared = SharedArrays(images=self.images, labels=self.labels,
                              full_images=self.full_images,
                              full_labels=self.full_labels)
        originals = (self.images, self.labels,
                     self.full_images, self.full_labels)
        self.images = shared["images"]
        self.labels = shared["labels"]
        self.full_images = shared["full_images"]
        self.full_labels = shared["full_labels"]
        raw_fn = cache.reward_fn if cache is not None else reward_fn
        pool = EvalPool({"batch": raw_fn, "final": final_fn},
                        workers=self.config.eval.workers,
                        task_seconds=self.config.eval.task_seconds,
                        task_retries=self.config.eval.task_retries,
                        seed=self.config.seed,
                        scope=self.unit.name,
                        cache_size=self.config.eval.cache_size,
                        worker_cache=self.config.eval.cache)
        return pool, shared, originals

    # -- main loop -----------------------------------------------------------
    def run(self) -> AgentResult:
        """Train the policy until the reward stabilises; return the inception."""
        if self.config.eval.graph:
            self._graph = self._build_graph()
        original_accuracy = evaluate(self.model, self.images, self.labels)
        reward_fn, final_fn, cache = self._reward_fns(original_accuracy)
        pool = shared = originals = None
        if self.config.eval.workers > 0:
            pool, shared, originals = self._build_pool(reward_fn, final_fn,
                                                       cache)
        batch_fn = None
        if self._graph is not None and pool is None:
            batch_fn = self._batch_reward_fn(original_accuracy)
        try:
            driver = ReinforceDriver(
                self.policy, reward_fn=reward_fn,
                config=self.config, rng=self.rng,
                final_reward_fn=final_fn, pool=pool,
                batch_reward_fn=batch_fn)
            outcome = driver.run()
        finally:
            if pool is not None:
                pool.close()
            if originals is not None:
                (self.images, self.labels,
                 self.full_images, self.full_labels) = originals
            if shared is not None:
                shared.close()
        keep_mask = outcome.action.astype(bool)
        cache_stats = None
        if cache is not None:
            cache_stats = cache.stats()
            get_recorder().gauge("evalcache/hit_rate", cache.hit_rate,
                                 layer=self.unit.name)
            if pool is not None:
                cache_stats["workers"] = pool.cache_summary()
        if self._graph is not None:
            arena = self._graph.arena_stats
            get_recorder().gauge("graph/arena_reuses", arena["reuses"],
                                 operational=True, layer=self.unit.name)
        return AgentResult(
            keep_mask=keep_mask, probabilities=outcome.probabilities,
            iterations=outcome.iterations,
            reward_history=outcome.reward_history,
            loss_history=outcome.loss_history,
            inception_accuracy=self._masked_accuracy(
                keep_mask.astype(np.float64)),
            cache_stats=cache_stats)
