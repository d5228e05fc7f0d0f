"""Dtype discipline: every op computes in its input's dtype.

For every registered model a float32 input keeps the whole computation
float32 — each eager train and eval activation, each gradient flowing
through the backward pass, and each value the graph executor produces
(unfused, fused, the ``set_mask_unit`` suffix and ``mask_batch``).  A
float64 input gives float64 logits on both paths, which is what the
numerical grad-checks and the fused-drift reference rely on.

The hooks live here, in the test: ``Tensor._make`` sees every op
output, ``Tensor._accumulate`` every incoming gradient, and the
executor's kernel table every graph value.  The REINFORCE policy
network (``repro.core.policy``) feeds itself float64 on purpose and is
out of scope.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import available_models, build_model
from repro.nn import Tensor, functional as F, no_grad
from repro.nn.graph import GraphExecutor
from repro.nn.graph import compile as graph_compile

_GEOMETRY = {"num_classes": 5, "input_size": 12}


def _width(name: str) -> float:
    return 0.125 if name.startswith("vgg") else 0.25


@pytest.fixture(params=available_models())
def case(request):
    """``(model, images, labels)`` for one registry model."""
    name = request.param
    rng = np.random.default_rng(3)
    model = build_model(name, width_multiplier=_width(name), rng=rng,
                        **_GEOMETRY)
    images = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
    labels = rng.integers(0, _GEOMETRY["num_classes"], size=4)
    return model, images, labels


@pytest.fixture
def seen(monkeypatch):
    """Dtypes of every eager op output and every incoming gradient."""
    record = {"values": set(), "grads": set()}
    make = Tensor._make
    accumulate = Tensor._accumulate

    def hooked_make(data, parents, backward):
        record["values"].add(np.asarray(data).dtype)
        return make(data, parents, backward)

    def hooked_accumulate(self, grad):
        record["grads"].add(np.asarray(grad).dtype)
        return accumulate(self, grad)

    monkeypatch.setattr(Tensor, "_make", staticmethod(hooked_make))
    monkeypatch.setattr(Tensor, "_accumulate", hooked_accumulate)
    return record


@pytest.fixture
def graph_values(monkeypatch):
    """Dtypes of every value a graph executor kernel returns."""
    dtypes = set()

    def hooked(kernel):
        def run(self, node, *args):
            out, base = kernel(self, node, *args)
            dtypes.add(out.dtype)
            return out, base
        return run

    monkeypatch.setattr(GraphExecutor, "_KERNELS",
                        {kind: hooked(kernel) for kind, kernel
                         in GraphExecutor._KERNELS.items()})
    return dtypes


_F32 = {np.dtype(np.float32)}


def test_eager_train_and_eval_stay_float32(case, seen):
    model, images, labels = case
    model.train()
    loss = F.cross_entropy(model(Tensor(images)), labels)
    loss.backward()
    model.eval()
    with no_grad():
        logits = model(Tensor(images))
    assert logits.dtype == np.float32
    assert seen["values"] == _F32
    assert seen["grads"] == _F32
    assert {p.grad.dtype for p in model.parameters()
            if p.grad is not None} == _F32


def test_graph_values_stay_float32(case, graph_values):
    model, images, _ = case
    model.eval()
    unit = model.prune_units()[-1]
    tied = [(t.conv, t.bn) for t in unit.tied]
    masks = [np.arange(unit.num_maps) % 2 == 0,
             np.arange(unit.num_maps) % 3 != 1]
    for fuse in (False, True):
        for mask_batch in (False, True):
            executor = graph_compile(model, Tensor(images[:1]), fuse=fuse,
                                     mask_batch=mask_batch)
            assert executor.run(images).dtype == np.float32
            executor.set_mask_unit(unit.conv, unit.bn, tied=tied)
            assert executor.masked_logits(images, masks).dtype \
                == np.float32
    assert graph_values == _F32


def test_float64_input_gives_float64_logits(case):
    model, images, _ = case
    model.eval()
    x64 = images.astype(np.float64)
    with no_grad():
        assert model(Tensor(x64)).dtype == np.float64
    for fuse in (False, True):
        executor = graph_compile(model, Tensor(x64[:1]), fuse=fuse)
        assert executor.run(x64).dtype == np.float64


def test_python_scalars_take_the_tensor_dtype():
    x = Tensor(np.ones(3, dtype=np.float32))
    for out in (x + 1e-5, 1e-5 + x, x - 2, 2 - x, x * 0.5, x / 3.0,
                3.0 / x, x.mean()):
        assert out.dtype == np.float32
    # NumPy scalars and arrays keep their own dtype.
    assert (x + np.float64(1e-5)).dtype == np.float64
    assert (x * np.ones(3)).dtype == np.float64
    # A float64 tensor stays float64.
    assert (Tensor(np.ones(3)) / 3).dtype == np.float64
