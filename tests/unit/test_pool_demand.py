"""Demand-bounded array pool: unit cases for the retention rule, and
20-step training runs with the demand pool and the flat-cap oracle
(``tests/pool_oracle.py``) each swapped in as the process pool.

A bucket keeps at most its key's demand — the most arrays of the key
out at once during the last training step — so against the oracle,
which keeps 32 of every key across every step, the runs must agree bit
for bit, make the same hits and misses from the second step on, and
retain no more bytes.  Retained bytes and every key's demand must also
be flat from step 2 to step 20: arrays that are acquired and then
dropped without a release (``conv_dw``'s ``dw`` after ``zero_grad``, a
conv's padded input) count as out only until their step ends.  A key
the last step did not acquire — another model's, a ragged batch's — is
not held.  ``check.sh`` runs this file again under ``REPRO_TRACE=1``,
where every step after the first is a tape replay.  Last, SatCNN steps
with the conv forward split into one-image tiles acquire exactly the
keys they did untiled.
"""

import inspect

import numpy as np
import pytest

from repro.core.models.grid import ConvLSTMModel, STResNet
from repro.core.models.raster import SatCNN
from repro.core.training import (
    Trainer,
    classification_batch,
    periodical_batch,
    sequential_batch,
)
from repro import obs
from repro.nn import CrossEntropyLoss, MSELoss
from repro.optim import Adam
from repro.tensor import ops_conv
from repro.tensor import pool as pool_module
from repro.tensor.pool import ArrayPool
from tests.pool_oracle import OracleArrayPool

STEPS = 20
N, H, W = 2, 6, 8


class TestDemandCap:
    def test_never_acquired_key_rejects_its_first_release(self):
        pool = ArrayPool()
        assert not pool.release(np.ones(4, dtype=np.float32))
        stats = pool.stats()
        assert (stats["arrays"], stats["bytes"]) == (0, 0)
        assert stats["reject_per_key"] == 1
        assert stats["demand"] == {}

    def test_out_count_never_goes_below_zero(self):
        pool = ArrayPool()
        assert pool.release(pool.acquire((4,)))
        # Releases of arrays the pool never handed out cannot bank
        # credit against later acquires: two out at once is demand 2.
        for _ in range(2):
            assert not pool.release(np.ones(4, dtype=np.float32))
        a, b = pool.acquire((4,)), pool.acquire((4,))
        assert pool.stats()["demand"] == {"(4,):<f4": 2}
        assert pool.release(a) and pool.release(b)
        assert len(pool) == 2

    def test_second_release_of_a_held_array_is_rejected(self):
        pool = ArrayPool()
        a, b = pool.acquire((4,)), pool.acquire((4,))
        assert pool.release(a)
        assert not pool.release(a)  # would hand ``a`` out twice
        stats = pool.stats()
        assert (stats["arrays"], stats["reject_alias"]) == (1, 1)
        assert pool.acquire((4,)) is not pool.acquire((4,))
        assert pool.release(b)

    @pytest.mark.parametrize(
        "shape, dtype, error",
        [
            ((-1, 3), np.float32, ValueError),
            ((2.0, 3), np.float32, TypeError),
            ((4,), "no-such-dtype", TypeError),
        ],
    )
    def test_failed_acquire_leaves_the_pool_unchanged(self, shape, dtype, error):
        pool = ArrayPool()
        pool.release(pool.acquire((4,)))
        before = pool.stats()
        miss = obs.registry.counter("tensor.pool.miss")
        misses = miss.value
        with pytest.raises(error):
            pool.acquire(shape, dtype)
        assert pool.stats() == before
        assert miss.value == misses

    def test_end_step_caps_each_key_at_the_steps_demand(self):
        pool = ArrayPool()
        held = [pool.acquire((4,)) for _ in range(3)]
        dropped = pool.acquire((2,))
        for arr in held:
            assert pool.release(arr)
        pool.end_step()
        assert pool.stats()["demand"] == {"(4,):<f4": 3, "(2,):<f4": 1}
        # One (4,) out at once this step; (2,) not acquired at all.
        pool.release(pool.acquire((4,)))
        pool.end_step()
        stats = pool.stats()
        assert stats["demand"] == {"(4,):<f4": 1}
        assert (stats["arrays"], stats["bytes"]) == (1, 16)
        assert set(stats["high_water"]) == {"(4,):<f4"}
        assert not pool.release(dropped)
        assert pool.stats()["reject_per_key"] == 1

    # The third release with two out, zero=True on a hit and max_bytes
    # rejecting within demand are test_graph_free.py's TestArrayPool
    # and test_trace.py's TestPoolStats cases.

    def test_max_per_key_is_gone(self):
        assert list(inspect.signature(ArrayPool).parameters) == ["max_bytes"]
        with pytest.raises(TypeError):
            ArrayPool(max_per_key=32)


# ----------------------------------------------------------------------
# 20 training steps, demand pool vs flat-cap oracle
# ----------------------------------------------------------------------
def convlstm(rng):
    model = ConvLSTMModel(1, (4,), rng=0)
    batches = [
        (
            rng.standard_normal((N, 4, 1, H, W)).astype(np.float32),
            rng.standard_normal((N, 1, H, W)).astype(np.float32),
        )
        for _ in range(STEPS)
    ]
    return model, sequential_batch, MSELoss(), batches


def st_resnet(rng):
    model = STResNet(3, 1, 1, 1, H, W, nb_residual_units=2, nb_filters=4, rng=0)
    batches = [
        {
            "x_closeness": rng.standard_normal((N, 3, H, W)).astype(np.float32),
            "x_period": rng.standard_normal((N, 1, H, W)).astype(np.float32),
            "x_trend": rng.standard_normal((N, 1, H, W)).astype(np.float32),
            "y_data": rng.standard_normal((N, 1, H, W)).astype(np.float32),
        }
        for _ in range(STEPS)
    ]
    return model, periodical_batch, MSELoss(), batches


def sat_cnn(rng):
    model = SatCNN(4, 8, 8, 3, base_filters=2, rng=0)
    batches = [
        (
            rng.standard_normal((N, 4, 8, 8)).astype(np.float32),
            rng.integers(0, 3, N),
        )
        for _ in range(STEPS)
    ]
    return model, classification_batch, CrossEntropyLoss(), batches


def train(monkeypatch, pool, make):
    """Per-step losses, final parameters and pool stats after each of
    ``STEPS`` steps with ``pool`` as the process pool."""
    monkeypatch.setattr(pool_module, "_DEFAULT", pool)
    model, adapter, loss_fn, batches = make(np.random.default_rng(3))
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-2), loss_fn, adapter)
    losses, readings = [], []
    for batch in batches:
        # ``fit`` reads REPRO_TRACE; the trainer keeps its trace session
        # across calls, so steps 2.. replay under the traced lane.
        losses.append(trainer.fit([batch], epochs=1).train_losses[0])
        readings.append(pool.stats())
    session = trainer._trace_session
    if session is not None and session.stats()["state"] != "disabled":
        assert session.stats()["replays"] == STEPS - 1  # not SatCNN: batch norm
    return losses, [p.data.copy() for p in model.parameters()], readings


def per_step(readings, field):
    return [b[field] - a[field] for a, b in zip(readings, readings[1:])]


@pytest.mark.parametrize("make", [convlstm, st_resnet, sat_cnn])
def test_demand_pool_matches_the_flat_cap_oracle(monkeypatch, make):
    losses, params, demand = train(monkeypatch, ArrayPool(), make)
    o_losses, o_params, oracle = train(monkeypatch, OracleArrayPool(), make)

    assert losses == o_losses
    assert all(np.array_equal(p, q) for p, q in zip(params, o_params))
    for field in ("hits", "misses"):
        assert per_step(demand, field) == per_step(oracle, field), field
    assert all(d["bytes"] <= o["bytes"] for d, o in zip(demand, oracle))
    assert len({d["bytes"] for d in demand[1:]}) == 1
    for field in ("hits", "misses"):
        assert len(set(per_step(demand, field))) == 1, field
    # No key's demand climbs once the steps repeat; a conv's padded
    # input (acquired, never released) used to grow by its uses a step.
    assert demand[1]["demand"] == demand[-1]["demand"]
    assert demand[-1]["bytes"] < oracle[-1]["bytes"]
    final = demand[-1]
    assert all(
        depth <= final["demand"][key] for key, depth in final["high_water"].items()
    )


def held_keys(pool):
    stats = pool.stats()
    return set(stats["demand"]) | set(stats["high_water"])


def stepper(pool, make):
    """A function that trains ``make``'s model one step on a batch and
    returns the keys that step acquired from ``pool``, and the batches."""
    model, adapter, loss_fn, batches = make(np.random.default_rng(5))
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-2), loss_fn, adapter)

    def step(batch):
        trainer.fit([batch], epochs=1)
        return set(pool.stats()["demand"])

    return step, batches


def test_a_step_keeps_no_other_models_keys(monkeypatch):
    pool = ArrayPool()
    monkeypatch.setattr(pool_module, "_DEFAULT", pool)
    convlstm_step, convlstm_batches = stepper(pool, convlstm)
    st_resnet_step, st_resnet_batches = stepper(pool, st_resnet)
    convlstm_keys = convlstm_step(convlstm_batches[0])
    st_resnet_keys = st_resnet_step(st_resnet_batches[0])
    assert convlstm_keys - st_resnet_keys
    assert held_keys(pool) <= st_resnet_keys


def test_a_ragged_batchs_keys_are_gone_one_step_later(monkeypatch):
    pool = ArrayPool()
    monkeypatch.setattr(pool_module, "_DEFAULT", pool)
    step, batches = stepper(pool, convlstm)
    full_keys = step(batches[0])
    x, y = batches[1]
    ragged_keys = step((x[:1], y[:1])) - full_keys
    assert ragged_keys
    assert ragged_keys <= held_keys(pool)
    assert step(batches[2]) == full_keys
    assert not ragged_keys & held_keys(pool)


# Every key three raster_e2e-shaped SatCNN steps (batch 3) acquire, as
# read before the conv forward ran in image tiles.
SATCNN_KEYS = {
    "(144, 3072):<f4", "(144, 768):<f4", "(16, 16, 3, 3):<f4",
    "(16, 3072):<f4", "(288, 768):<f4", "(3, 10):<f4",
    "(3, 16, 16, 16):<f4", "(3, 16, 16, 16):|u1", "(3, 16, 18, 18):<f4",
    "(3, 16, 32, 32):<f4", "(3, 16, 34, 34):<f4", "(3, 32, 16, 16):<f4",
    "(3, 32, 18, 18):<f4", "(3, 32, 8, 8):<f4", "(3, 32, 8, 8):|u1",
    "(32, 16, 3, 3):<f4", "(32, 32, 3, 3):<f4", "(32, 768):<f4",
    "(4, 3, 16, 16, 16):|b1", "(4, 3, 32, 8, 8):|b1",
}


def test_conv_tiles_live_in_the_untiled_buffers(monkeypatch):
    """One image per tile, and still exactly the untiled pool keys: a
    tile fills a prefix of the full-size column and gemm buffers, and
    the weight gradient's gemm result is not pooled."""
    monkeypatch.setattr(ops_conv, "_TILE_BYTES", 1)
    assert len(ops_conv._tile_bounds(3, 16, 144, 32 * 32, np.float32)) == 4
    pool = ArrayPool()
    monkeypatch.setattr(pool_module, "_DEFAULT", pool)
    rng = np.random.default_rng(3)
    model = SatCNN(16, 32, 32, 10, rng=0)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=1e-2), CrossEntropyLoss(),
        classification_batch,
    )
    for _ in range(3):
        batch = (
            rng.standard_normal((3, 16, 32, 32)).astype(np.float32),
            rng.integers(0, 10, 3),
        )
        trainer.fit([batch], epochs=1)
    assert set(pool.stats()["demand"]) == SATCNN_KEYS
