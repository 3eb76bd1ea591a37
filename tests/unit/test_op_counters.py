"""The op counters: every ``repro.obs.op_span`` call adds its wall
seconds to ``tensor.op_s.<name>`` and one to ``tensor.op_calls.<name>``.

Checked here: the exact calls of one small ConvLSTM step, one batch
norm call per layer, the disabled path (nothing recorded, the loss bit
for bit the same), the counted seconds of an epoch fitting inside its
wall time, and the op names (the op table's and the literal
``op_span`` calls' in ``src/``) equalling the catalogue table in
``docs/OBSERVABILITY.md``."""

from __future__ import annotations

import ast
import os
import re
import time

import numpy as np
import pytest

from repro import nn, obs
from repro.core.training import Trainer, classification_batch
from repro.data import DataLoader
from repro.nn import functional as F
from repro.optim import Adam
from repro.tensor import Tensor
from repro.tensor.tensor import _OPS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()
    obs.set_enabled(True)


def op_counters(kind: str) -> dict:
    """``{op name: value}`` of the ``tensor.<kind>.*`` counters that
    moved since the last ``obs.reset()``."""
    prefix = f"tensor.{kind}."
    return {
        name[len(prefix):]: value
        for name, value in obs.registry.snapshot()["counters"].items()
        if name.startswith(prefix) and value
    }


def convlstm_step():
    """Loss of one forward + backward of a one-layer ConvLSTM over two
    time steps."""
    rng = np.random.default_rng(18)
    model = nn.ConvLSTM(2, [3], 3, rng=0)
    x = Tensor(rng.standard_normal((1, 2, 2, 4, 4)).astype(np.float32))
    y = Tensor(rng.standard_normal((1, 2, 3, 4, 4)).astype(np.float32))
    loss = F.mse_loss(model(x), y)
    loss.backward(free_graph=True)
    return loss.item()


class TestCounts:
    def test_convlstm_step_calls(self):
        convlstm_step()
        assert op_counters("op_calls") == {
            # One gate conv and one fused gate op per time step.
            "ops_conv.conv2d": 2,
            "ops_conv.conv2d.backward": 2,
            "ops_fused.lstm_gates": 2,
            # The gate op's two outputs, h and c, each run a backward.
            "ops_fused.lstm_gates.backward": 4,
            # One input frame sliced per time step (no gradient: the
            # input is not a parameter), the hidden states stacked.
            "tensor.getitem": 2,
            "tensor.stack": 1,
            "tensor.stack.backward": 1,
            # mse_loss: the difference, its square and its mean.
            "tensor.sub": 1,
            "tensor.sub.backward": 1,
            "tensor.mul": 2,
            "tensor.mul.backward": 2,
            "tensor.sum": 1,
            "tensor.sum.backward": 1,
        }
        assert set(op_counters("op_s")) == set(op_counters("op_calls"))

    def test_op_totals_read_the_same_counters(self):
        convlstm_step()
        totals = {name: t for name, t in obs.op_totals().items() if t[1]}
        assert {name: calls for name, (_, calls) in totals.items()} == (
            op_counters("op_calls"))
        assert {name: s for name, (s, _) in totals.items()} == op_counters("op_s")

    def test_batch_norm_counts_one_call_per_layer(self):
        from repro.core.models.raster import SatCNN

        model = SatCNN(2, 8, 8, 3, base_filters=2, rng=0)
        layers = sum(
            isinstance(m, nn.BatchNorm2d) for _, m in model.named_modules()
        )
        assert layers == 4
        x = Tensor(np.random.default_rng(0).random((4, 2, 8, 8), dtype=np.float32))
        model(x).sum().backward()
        calls = op_counters("op_calls")
        assert calls["ops_fused.batch_norm2d"] == layers
        assert calls["ops_fused.batch_norm2d.backward"] == layers


def test_no_op_span_opens_inside_another(monkeypatch):
    # The decorated ops never call one another, so op seconds add up.
    from contextlib import contextmanager

    from repro.core.models.raster import SatCNN
    from repro.tensor import tensor as tensor_mod

    depth, deepest = [0], [0]

    @contextmanager
    def nesting_probe(name):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            yield
        finally:
            depth[0] -= 1

    monkeypatch.setattr(tensor_mod, "op_span", nesting_probe)
    convlstm_step()
    model = SatCNN(2, 8, 8, 3, base_filters=2, rng=0)
    x = Tensor(np.random.default_rng(0).random((4, 2, 8, 8), dtype=np.float32))
    F.cross_entropy(model(x), np.array([0, 1, 2, 0])).backward()
    assert deepest[0] == 1


class TestDisabled:
    def test_disabled_op_span_is_shared_noop(self):
        with obs.disabled():
            first, second = obs.op_span("x"), obs.op_span("y")
            with first:
                pass
        assert first is second
        assert op_counters("op_calls") == {}

    def test_disabled_records_nothing_and_loss_is_bit_identical(self):
        observed = convlstm_step()
        assert op_counters("op_calls")
        obs.reset()
        with obs.disabled():
            unobserved = convlstm_step()
        snapshot = obs.registry.snapshot()["counters"]
        assert not any(
            value for name, value in snapshot.items() if name.startswith("tensor.op_")
        )
        assert np.float32(observed).tobytes() == np.float32(unobserved).tobytes()


def test_counted_seconds_fit_in_the_epoch():
    rng = np.random.default_rng(0)
    images = rng.normal(size=(24, 1, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 3, 24)
    model = nn.Sequential(
        nn.Conv2d(1, 4, 3, padding=1, rng=0),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 3, rng=0),
    )
    trainer = Trainer(
        model, Adam(model.parameters(), lr=0.01), nn.CrossEntropyLoss(),
        classification_batch,
    )
    loader = DataLoader(list(zip(images, labels)), batch_size=4)
    started = time.perf_counter()
    trainer.train_epoch(loader)
    wall = time.perf_counter() - started
    seconds = op_counters("op_s")
    assert op_counters("op_calls")["optim.adam.step"] == len(loader)
    assert 0 < sum(seconds.values()) <= wall


def _op_span_names() -> set:
    """Every op in the op table and its ``.backward`` (``tensor.detach``
    makes no graph node, so it has none), and every ``op_span("...")``
    literal under ``src/``."""
    names = set()
    for name in _OPS:
        names.add(name)
        if name != "tensor.detach":
            names.add(name + ".backward")
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for file in files:
            if not file.endswith(".py"):
                continue
            with open(os.path.join(folder, file)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "op_span"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    names.add(node.args[0].value)
    return names


def _catalogued_names() -> set:
    """The first column of the table under "### Op names" in
    ``docs/OBSERVABILITY.md``."""
    with open(os.path.join(ROOT, "docs", "OBSERVABILITY.md")) as handle:
        text = handle.read()
    start = text.index("\n### Op names\n")
    section = text[start:text.index("\n#", start + 1)]
    return set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE))


def test_every_op_span_is_catalogued():
    names = _op_span_names()
    assert "ops_conv.conv2d" in names
    assert names == _catalogued_names()
