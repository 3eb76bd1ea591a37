"""Non-perturbation property for the profiler: attaching a profiler
must never change what training computes.

For randomly drawn small models, data, and schedules, a profiled
``Trainer.fit`` run produces **bit-identical** model state to an
unprofiled run from the same initialization — the profiler only reads
clocks and shapes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn, obs
from repro.core.training import Trainer, classification_batch
from repro.data import DataLoader
from repro.obs.profiler import Profiler, schedule
from repro.optim import Adam


@st.composite
def training_setups(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    batch_size = draw(st.integers(min_value=1, max_value=6))
    samples = draw(st.integers(min_value=2, max_value=14))
    hidden = draw(st.integers(min_value=1, max_value=6))
    mode = draw(st.sampled_from(["incremental", "cumulative"]))
    wait = draw(st.integers(min_value=0, max_value=2))
    warmup = draw(st.integers(min_value=0, max_value=2))
    active = draw(st.integers(min_value=1, max_value=3))
    return seed, batch_size, samples, hidden, mode, (wait, warmup, active)


def build(seed: int, hidden: int, mode: str):
    model = nn.Sequential(
        nn.Conv2d(1, hidden, 3, padding=1, rng=seed),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(hidden, 3, rng=seed + 1),
    )
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=0.05),
        nn.CrossEntropyLoss(),
        classification_batch,
        training_mode=mode,
    )
    return model, trainer


def state_bytes(model) -> dict:
    return {name: p.data.tobytes() for name, p in model.named_parameters()}


@settings(max_examples=20, deadline=None)
@given(training_setups())
def test_profiled_training_bit_identical_state(setup):
    seed, batch_size, samples, hidden, mode, (wait, warmup, active) = setup
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(samples, 1, 6, 6)).astype(np.float32)
    labels = rng.integers(0, 3, samples)

    def run(profiler):
        loader = DataLoader(
            list(zip(images, labels)), batch_size=batch_size
        )
        model, trainer = build(seed, hidden, mode)
        trainer.fit(loader, epochs=2, profiler=profiler)
        return state_bytes(model)

    plain = run(None)
    profiled = run(
        Profiler(schedule=schedule(wait=wait, warmup=warmup, active=active))
    )
    assert set(plain) == set(profiled)
    for name in plain:
        assert plain[name] == profiled[name], f"state diverged at {name}"


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**16))
def test_obs_disabled_training_bit_identical_state(seed):
    """The dataloader metering (obs on vs off) must not perturb
    training either."""
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(8, 1, 6, 6)).astype(np.float32)
    labels = rng.integers(0, 3, 8)

    def run():
        loader = DataLoader(list(zip(images, labels)), batch_size=4)
        model, trainer = build(seed, 3, "incremental")
        trainer.fit(loader, epochs=1)
        return state_bytes(model)

    with_obs = run()
    with obs.disabled():
        without_obs = run()
    assert with_obs == without_obs
