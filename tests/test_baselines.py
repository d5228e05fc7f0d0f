"""Unit tests for the metric-baseline pruners."""

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, no_grad
from repro.pruning.baselines import (APoZPruner, AutoPrunerPruner,
                                     EntropyPruner, Li17Pruner, PruningContext,
                                     RandomPruner, SlimmingPruner,
                                     ThiNetPruner, available_pruners,
                                     build_pruner, collect_unit_outputs,
                                     inject_gate, mask_from_scores)
from repro.training import evaluate


def context(calibration, seed=0):
    images, labels = calibration
    return PruningContext(images, labels, np.random.default_rng(seed))


class TestRegistry:
    def test_all_registered(self):
        names = available_pruners()
        for expected in ("random", "li17", "apoz", "entropy", "thinet",
                         "autopruner", "slimming"):
            assert expected in names

    def test_build_by_name(self):
        assert isinstance(build_pruner("li17"), Li17Pruner)
        assert isinstance(build_pruner("thinet", num_samples=8), ThiNetPruner)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            build_pruner("magic")


class TestMaskFromScores:
    def test_keeps_top_k(self):
        mask = mask_from_scores(np.array([0.1, 0.9, 0.5, 0.7]), 2)
        assert np.array_equal(mask, [False, True, False, True])

    def test_clamps_keep_count(self):
        assert mask_from_scores(np.ones(3), 0).sum() == 1
        assert mask_from_scores(np.ones(3), 99).sum() == 3

    def test_stable_ties(self):
        mask = mask_from_scores(np.array([1.0, 1.0, 1.0]), 2)
        assert np.array_equal(mask, [True, True, False])


class TestCollectOutputs:
    def test_shape_and_nonnegative(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        maps = collect_unit_outputs(lenet_copy, unit, calibration[0])
        assert maps.shape[0] == len(calibration[0])
        assert maps.shape[1] == unit.num_maps
        assert np.all(maps >= 0)

    def test_pre_relu_option(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        maps = collect_unit_outputs(lenet_copy, unit, calibration[0],
                                    post_relu=False)
        assert np.any(maps < 0)

    def test_model_restored(self, lenet_copy, calibration, tiny_task):
        before = evaluate(lenet_copy, tiny_task.test.images,
                          tiny_task.test.labels)
        unit = lenet_copy.prune_units()[0]
        collect_unit_outputs(lenet_copy, unit, calibration[0])
        after = evaluate(lenet_copy, tiny_task.test.images,
                         tiny_task.test.labels)
        assert before == after


def _respects_budget(pruner, model, calibration, keep=3):
    unit = model.prune_units()[0]
    mask = pruner.select(model, unit, keep, context(calibration))
    assert mask.dtype == bool
    assert mask.shape == (unit.num_maps,)
    assert mask.sum() == keep
    return mask


class TestRandom:
    def test_budget(self, lenet_copy, calibration):
        _respects_budget(RandomPruner(), lenet_copy, calibration)

    def test_seed_determinism(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        m1 = RandomPruner().select(lenet_copy, unit, 3, context(calibration, 7))
        m2 = RandomPruner().select(lenet_copy, unit, 3, context(calibration, 7))
        assert np.array_equal(m1, m2)


class TestLi17:
    def test_budget(self, lenet_copy, calibration):
        _respects_budget(Li17Pruner(), lenet_copy, calibration)

    def test_keeps_largest_l1_filters(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        # Make filter 0 overwhelmingly large and filter 1 tiny.
        unit.conv.weight.data[0] = 10.0
        unit.conv.weight.data[1] = 1e-6
        mask = Li17Pruner().select(lenet_copy, unit, unit.num_maps - 1,
                                   context(calibration))
        assert mask[0]
        assert not mask[1]


class TestAPoZ:
    def test_budget(self, lenet_copy, calibration):
        _respects_budget(APoZPruner(), lenet_copy, calibration)

    def test_prunes_dead_map(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        # Force map 2 to be always negative pre-ReLU (all zeros post-ReLU).
        unit.conv.weight.data[2] = 0.0
        unit.conv.bias.data[2] = -100.0
        unit.bn.weight.data[2] = 1.0
        unit.bn.bias.data[2] = -100.0
        mask = APoZPruner().select(lenet_copy, unit, unit.num_maps - 1,
                                   context(calibration))
        assert not mask[2]


class TestEntropy:
    def test_budget(self, lenet_copy, calibration):
        _respects_budget(EntropyPruner(), lenet_copy, calibration)

    def test_constant_map_has_lowest_priority(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        unit.conv.weight.data[1] = 0.0
        unit.conv.bias.data[1] = 5.0
        unit.bn.weight.data[1] = 0.0
        unit.bn.bias.data[1] = 5.0  # constant positive output
        mask = EntropyPruner().select(lenet_copy, unit, unit.num_maps - 1,
                                      context(calibration))
        assert not mask[1]

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            EntropyPruner(bins=1)


class TestThiNet:
    def test_budget_conv_consumer(self, lenet_copy, calibration):
        _respects_budget(ThiNetPruner(num_samples=32,
                                      least_squares_rescale=False),
                         lenet_copy, calibration)

    def test_budget_linear_consumer(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[1]
        mask = ThiNetPruner(num_samples=32, least_squares_rescale=False) \
            .select(lenet_copy, unit, 4, context(calibration))
        assert mask.sum() == 4

    def test_better_reconstruction_than_worst(self, vgg_copy, calibration):
        """ThiNet's removal set reconstructs the next layer better than
        its complement.

        The error is ThiNet's own objective on the calibration
        contributions: the squared norm of the removed channels' summed
        contributions to sampled next-layer outputs.
        """
        pruner = ThiNetPruner(num_samples=128, least_squares_rescale=False)
        for unit in vgg_copy.prune_units()[:2]:
            keep = unit.num_maps // 2
            thinet_mask = pruner.select(vgg_copy, unit, keep,
                                        context(calibration))
            maps = collect_unit_outputs(vgg_copy, unit, calibration[0],
                                        post_relu=True)
            # Seed 0 replays the sampling select() drew from context().
            contributions = pruner._contributions(
                unit, maps, np.random.default_rng(0))

            def error(removed):
                return float((contributions[:, removed].sum(axis=1)
                              ** 2).sum())

            assert error(~thinet_mask) < error(thinet_mask)

    def test_rescale_modifies_bn(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        before = unit.bn.weight.data.copy()
        ThiNetPruner(num_samples=32, least_squares_rescale=True) \
            .select(lenet_copy, unit, 3, context(calibration))
        assert not np.allclose(unit.bn.weight.data, before)


class TestAutoPruner:
    def test_budget(self, lenet_copy, calibration):
        pruner = AutoPrunerPruner(steps=5, batch_size=16)
        _respects_budget(pruner, lenet_copy, calibration)

    def test_gate_injection_scales_output(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        gate = Parameter(np.full(unit.num_maps, -100.0))  # sigmoid ~ 0
        lenet_copy.eval()
        x = Tensor(calibration[0][:4])
        with inject_gate(unit, gate), no_grad():
            gated = lenet_copy.bn1(lenet_copy.conv1(x))
        assert np.allclose(gated.data, 0.0, atol=1e-20)

    def test_gate_restored_after_context(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        gate = Parameter(np.zeros(unit.num_maps))
        lenet_copy.eval()
        x = Tensor(calibration[0][:4])
        with no_grad():
            before = lenet_copy.bn1(lenet_copy.conv1(x)).data.copy()
        with inject_gate(unit, gate):
            pass
        with no_grad():
            after = lenet_copy.bn1(lenet_copy.conv1(x)).data
        assert np.array_equal(before, after)

    def test_gates_receive_gradient(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        gate = Parameter(np.zeros(unit.num_maps))
        from repro.nn import functional as F
        with inject_gate(unit, gate):
            logits = lenet_copy(Tensor(calibration[0][:8]))
            F.cross_entropy(logits, calibration[1][:8]).backward()
        assert gate.grad is not None
        assert np.any(gate.grad != 0)


class TestSlimming:
    def test_budget(self, lenet_copy, calibration):
        pruner = SlimmingPruner(steps=3, batch_size=16)
        _respects_budget(pruner, lenet_copy, calibration)

    def test_model_restored(self, lenet_copy, calibration):
        state_before = lenet_copy.state_dict()
        SlimmingPruner(steps=3, batch_size=16).select(
            lenet_copy, lenet_copy.prune_units()[0], 3, context(calibration))
        state_after = lenet_copy.state_dict()
        for key in state_before:
            assert np.allclose(state_before[key], state_after[key]), key

    def test_requires_batchnorm(self, lenet_copy, calibration):
        unit = lenet_copy.prune_units()[0]
        unit.bn = None
        with pytest.raises(ValueError):
            SlimmingPruner().select(lenet_copy, unit, 3, context(calibration))
