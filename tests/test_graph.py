"""Static-graph executor: equivalence with eager eval, and EvalOptions.

The graph executor's whole contract is *it changes nothing but speed*:

* unfused ``compile()`` output is bit-for-bit the eager forward, for
  every registered model, across repeat calls (arena buffer reuse must
  not leak state between runs);
* fused (BN-fold + ReLU-epilogue) output stays within 1e-8 on float64
  inputs;
* masked execution through ``set_mask_unit`` matches the dense
  ``channel_mask`` forward bitwise, surgered (physically pruned) models
  retrace and still match, and mask-batch scoring equals the per-mask
  loop;
* a conv with a bias and a ReLU fused into its epilogue (the policy
  net: no BN after its convs) matches eager too;
* layers and tensor ops the tracer does not record raise
  ``GraphTraceError``, and the agent then scores on the eager path;
* ``EvalOptions`` is the only spelling of the eval knobs: the removed
  flat config fields and CLI aliases are rejected, and resume digests
  ignore the whole block.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro import obs
from repro.cli import _eval_options, build_parser, main
from repro.core import EvalOptions, HeadStartConfig, LayerAgent
from repro.core.policy import HeadStartNetwork
from repro.models import available_models, build_model
from repro.nn import (AvgPool2d, Conv2d, Flatten, Linear, Module, Sequential,
                      Sigmoid, Tensor, no_grad)
from repro.nn.graph import GraphTraceError
from repro.nn.graph import compile as graph_compile
from repro.pruning.surgery import channel_mask, prune_unit

#: Small enough to keep resnet110/vgg19 cheap, big enough to exercise
#: every stage transition.
_GEOMETRY = {"num_classes": 5, "input_size": 12}


def _width(name: str) -> float:
    return 0.125 if name.startswith("vgg") else 0.25


@pytest.fixture(scope="module", params=available_models())
def compiled_case(request):
    """``(name, model, images)`` for one registry model, eval mode."""
    name = request.param
    rng = np.random.default_rng(42)
    model = build_model(name, width_multiplier=_width(name), rng=rng,
                        **_GEOMETRY)
    model.eval()
    images = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
    return name, model, images


def _eager(model, x):
    with no_grad():
        return model(Tensor(np.asarray(x))).data


class TestRegistryEquivalence:
    def test_unfused_is_bitwise_identical(self, compiled_case):
        _, model, images = compiled_case
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        reference = _eager(model, images)
        first = executor.run(images)
        assert np.array_equal(first, reference)
        # Second call reuses arena buffers; it must not see stale data.
        assert np.array_equal(executor.run(images), reference)
        assert executor.arena_stats["reuses"] > 0

    def test_fused_within_1e8_on_float64(self, compiled_case):
        _, model, images = compiled_case
        x64 = images.astype(np.float64)
        executor = graph_compile(model, Tensor(x64[:1]), fuse=True)
        reference = _eager(model, x64)
        drift = np.max(np.abs(executor.run(x64) - reference))
        # Scale-aware: untrained deep resnets emit O(1e6) logits, where
        # 1e-8 *relative* is the meaningful fused-arithmetic bound.
        assert drift <= 1e-8 * max(1.0, float(np.max(np.abs(reference))))

    def test_masked_matches_channel_mask_bitwise(self, compiled_case):
        _, model, images = compiled_case
        unit = model.prune_units()[len(model.prune_units()) // 2]
        mask = np.zeros(unit.num_maps, dtype=bool)
        mask[::2] = True
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        executor.set_mask_unit(unit.conv, unit.bn,
                               tied=[(t.conv, t.bn) for t in unit.tied])
        with channel_mask(unit, mask):
            reference = _eager(model, images)
        got = executor.masked_logits(images, [mask])[0]
        assert np.array_equal(got, reference)


class TestConvWithoutBatchNorm:
    """The policy net: biased convs with no BN, each followed by a ReLU."""

    @pytest.fixture
    def policy_case(self):
        # The body: the net's sigmoid head is not a traced op.
        rng = np.random.default_rng(5)
        body = HeadStartNetwork(6, rng=rng).body
        noise = rng.standard_normal((3, 1, 8, 8))      # float64
        return body, noise

    def test_unfused_is_bitwise_identical(self, policy_case):
        body, noise = policy_case
        executor = graph_compile(body, Tensor(noise[:1]), fuse=False)
        assert np.array_equal(executor.run(noise), _eager(body, noise))

    def test_fused_relu_epilogue_within_1e8(self, policy_case):
        body, noise = policy_case
        executor = graph_compile(body, Tensor(noise[:1]), fuse=True)
        assert [node.kind for node in executor.nodes] == \
            ["conv", "conv", "conv", "flatten", "linear"]
        assert all(node.fused_relu and node.fused_weight is None
                   for node in executor.nodes if node.kind == "conv")
        reference = _eager(body, noise)
        drift = np.max(np.abs(executor.run(noise) - reference))
        assert drift <= 1e-8 * max(1.0, float(np.max(np.abs(reference))))


class _ScaledFeatures(Module):
    """A conv whose output passes through an untraced ``* 2``."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        self.head = Sequential(Flatten(), Linear(4 * 12 * 12, 5, rng=rng))

    def forward(self, x):
        return self.head(self.conv(x) * 2)


def _lenet_with(attr, layer):
    model = build_model("lenet", rng=np.random.default_rng(1), **_GEOMETRY)
    setattr(model, attr, layer)
    return model


class TestGraphFallback:
    """What the tracer does not record falls back to eager evaluation."""

    @pytest.mark.parametrize("attr,layer", [("relu", Sigmoid()),
                                            ("pool", AvgPool2d(2))],
                             ids=["sigmoid", "avgpool"])
    def test_untraced_layer_raises(self, attr, layer):
        model = _lenet_with(attr, layer)
        images = np.zeros((2, 3, 12, 12), np.float32)
        with pytest.raises(GraphTraceError, match="did not see"):
            graph_compile(model, Tensor(images[:1]))
        assert _eager(model, images).shape == (2, 5)

    def test_untraced_tensor_op_raises(self):
        with pytest.raises(GraphTraceError, match="did not see"):
            graph_compile(_ScaledFeatures(),
                          Tensor(np.zeros((1, 3, 12, 12), np.float32)))

    def test_agent_falls_back_to_the_eager_mask(self, lenet_copy,
                                                calibration):
        lenet_copy.pool = AvgPool2d(2)
        unit = lenet_copy.prune_units()[0]
        config = HeadStartConfig(speedup=2.0, max_iterations=6,
                                 min_iterations=3, patience=3,
                                 eval_batch=32, seed=0, mc_samples=2)
        eager = LayerAgent(lenet_copy, unit, *calibration, config).run()
        rec = obs.Recorder()
        with obs.use_recorder(rec):
            graph = LayerAgent(lenet_copy, unit, *calibration,
                               dataclasses.replace(
                                   config, eval=EvalOptions(graph=True))
                               ).run()
        assert rec.counters.get("graph/fallbacks") == 1
        assert "graph/compiled" not in rec.counters
        assert np.array_equal(graph.keep_mask, eager.keep_mask)
        assert graph.reward_history == eager.reward_history


#: Depth-diverse subset for the heavier masked/surgered scenarios —
#: including both multi-branch models, so the mask-batch folded suffix
#: is exercised across a concat boundary (googlenet's last unit is a
#: branch feeding a shared ConcatLayout) and through a depthwise tie.
_SUBSET = ("lenet", "vgg11", "resnet20", "googlenet", "mobilenet")


class TestMaskedScenarios:
    @pytest.mark.parametrize("name", _SUBSET)
    def test_surgered_model_recompiles_and_matches(self, name):
        rng = np.random.default_rng(7)
        model = build_model(name, width_multiplier=_width(name), rng=rng,
                            **_GEOMETRY)
        model.eval()
        unit = model.prune_units()[0]
        keep = np.zeros(unit.num_maps, dtype=bool)
        keep[: max(1, unit.num_maps // 2)] = True
        prune_unit(unit, keep)
        images = rng.standard_normal((3, 3, 12, 12)).astype(np.float32)
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        assert np.array_equal(executor.run(images), _eager(model, images))

    @pytest.mark.parametrize("name", _SUBSET)
    @pytest.mark.parametrize("fuse", (False, True))
    def test_mask_batch_equals_per_mask_loop(self, name, fuse):
        rng = np.random.default_rng(11)
        model = build_model(name, width_multiplier=_width(name), rng=rng,
                            **_GEOMETRY)
        model.eval()
        # A depthwise-tied unit when the model has one (mobilenet: the
        # folded suffix must rezero the tied BN rows per copy), else the
        # last unit (googlenet: a branch unit scored across its concat).
        units = model.prune_units()
        unit = next((u for u in units if u.tied), units[-1])
        masks = []
        for _ in range(3):
            mask = rng.random(unit.num_maps) > 0.4
            mask[0] = True
            masks.append(mask)
        images = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
        per_mask = graph_compile(model, Tensor(images[:1]), fuse=fuse,
                                 mask_batch=False)
        folded = graph_compile(model, Tensor(images[:1]), fuse=fuse,
                               mask_batch=True)
        for executor in (per_mask, folded):
            executor.set_mask_unit(unit.conv, unit.bn,
                                   tied=[(t.conv, t.bn) for t in unit.tied])
        looped = per_mask.masked_logits(images, masks)
        batched = folded.masked_logits(images, masks)
        # Folding changes the GEMM's M dimension, which lets BLAS pick a
        # different blocking — last-ulp float32 noise, nothing more.
        scale = max(1.0, float(np.max(np.abs(looped))))
        assert np.max(np.abs(batched - looped)) <= 1e-5 * scale

    def test_masked_accuracy_matches_dense_evaluation(self, tiny_task,
                                                      trained_lenet):
        from repro.training import evaluate

        model = trained_lenet
        model.eval()
        unit = model.prune_units()[0]
        mask = np.zeros(unit.num_maps, dtype=bool)
        mask[::2] = True
        images = tiny_task.test.images
        labels = tiny_task.test.labels
        executor = graph_compile(model, Tensor(images[:1]), fuse=False)
        executor.set_mask_unit(unit.conv, unit.bn)
        with channel_mask(unit, mask):
            dense = evaluate(model, images, labels)
        got = executor.masked_accuracy(images, labels, [mask], key="t")
        assert float(got[0]) == dense


class TestEvalOptions:
    def test_validation_rejects_incoherent_combinations(self):
        with pytest.raises(ValueError):
            EvalOptions(fused=True)           # fused requires graph
        with pytest.raises(ValueError):
            EvalOptions(mask_batch=True)      # mask_batch requires graph
        with pytest.raises(ValueError):
            EvalOptions(workers=-1)

    def test_old_and_new_spellings_share_a_resume_digest(self):
        from repro.core.config import resume_relevant

        # The journaled dict form and the dataclass spell the same block.
        new = HeadStartConfig(speedup=2.0, seed=5,
                              eval=EvalOptions(cache=False, workers=4))
        old = HeadStartConfig(speedup=2.0, seed=5,
                              eval={"cache": False, "workers": 4})
        dense = HeadStartConfig(speedup=2.0, seed=5)
        graph = HeadStartConfig(speedup=2.0, seed=5,
                                eval=EvalOptions(graph=True, fused=True,
                                                 mask_batch=True))
        assert resume_relevant(new) == resume_relevant(old)
        # Every eval knob is performance-only: digests ignore all of it.
        assert resume_relevant(dense) == resume_relevant(graph)

    def test_replace_round_trips_without_warnings(self):
        config = HeadStartConfig(speedup=2.0,
                                 eval=EvalOptions(cache_size=99))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clone = dataclasses.replace(config, seed=9)
        assert clone.eval.cache_size == 99 and clone.seed == 9

    def test_journaled_dict_form_is_coerced(self):
        config = HeadStartConfig(speedup=2.0,
                                 eval={"graph": True, "cache_size": 8})
        assert config.eval.graph is True and config.eval.cache_size == 8


class TestCliEvalFlags:
    @staticmethod
    def _parse(extra):
        args = build_parser().parse_args(
            ["prune", "--model", "lenet"] + extra)
        return _eval_options(args)

    def test_eval_mode_graph_with_perf_knobs(self):
        options = self._parse(["--eval-mode", "graph", "--eval-fused",
                               "--eval-mask-batch"])
        assert options.graph and options.fused and options.mask_batch
        assert self._parse(["--eval-mode", "graph",
                            "--eval-workers", "2"]).workers == 2

    def test_mask_batch_with_workers_exits_two(self, capsys):
        code = main(["prune", "--model", "lenet", "--eval-mode", "graph",
                     "--eval-mask-batch", "--eval-workers", "2"])
        assert code == 2
        assert "mask_batch" in capsys.readouterr().err

    def test_defaults_are_cached_dense(self):
        assert self._parse([]) == EvalOptions()


def _prune_flags(*flags):
    return lambda: build_parser().parse_args(
        ["prune", "--model", "lenet", *flags])


@pytest.mark.parametrize("spelling, error", [
    pytest.param(lambda: HeadStartConfig(compressed_eval=True), TypeError,
                 id="config-compressed_eval"),
    pytest.param(lambda: EvalOptions(compressed=True), TypeError,
                 id="evaloptions-compressed"),
    pytest.param(_prune_flags("--eval-mode", "compressed"), SystemExit,
                 id="eval-mode-compressed"),
    pytest.param(_prune_flags("--workers", "2"), SystemExit,
                 id="prune-workers"),
])
def test_removed_eval_spellings_are_rejected(spelling, error):
    with pytest.raises(error) as info:
        spelling()
    if error is SystemExit:
        assert info.value.code == 2


class TestBatchedScoring:
    def test_batched_scorer_matches_serial_driver(self):
        from repro.core.policy import HeadStartNetwork
        from repro.core.reinforce import ReinforceDriver

        def reward(mask):
            return float(np.sum(mask)) / mask.size

        def batch_reward(masks):
            return [reward(m) for m in masks]

        config = HeadStartConfig(speedup=2.0, max_iterations=6,
                                 min_iterations=3, patience=4,
                                 mc_samples=3, seed=3)

        def driver(batch_fn):
            rng = np.random.default_rng(config.seed)
            policy = HeadStartNetwork(8, keep_ratio=1.0 / config.speedup,
                                      rng=rng)
            return ReinforceDriver(policy, reward, config, rng,
                                   batch_reward_fn=batch_fn)

        a, b = driver(None).run(), driver(batch_reward).run()
        assert np.array_equal(a.action, b.action)
        assert a.reward_history == b.reward_history
