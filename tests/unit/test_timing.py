"""The timing protocol (:mod:`repro.experiments.timing`) on a fake clock:
each arm advances the clock by the next of its scripted durations."""

from types import SimpleNamespace

import pytest

from repro.experiments import timing
from repro.experiments.timing import K, interleaved, median_ratio


@pytest.fixture
def clock(monkeypatch):
    fake = SimpleNamespace(now=0.0, calls=[])
    fake.perf_counter = lambda: fake.now
    monkeypatch.setattr(timing, "time", fake)
    return fake


def arm(clock, name, durations):
    """An arm that takes ``durations[i]`` seconds on its i-th call
    (call 0 is the warm-up)."""
    calls = iter(durations)

    def run():
        clock.calls.append(name)
        clock.now += next(calls)

    return run


def test_warm_up_runs_first_and_is_not_recorded(clock):
    result = interleaved({
        "a": arm(clock, "a", [100.0] + [1.0] * K),
        "b": arm(clock, "b", [200.0] + [2.0] * K),
    })
    assert clock.calls[:2] == ["a", "b"]
    assert result["k"] == K
    assert result["seconds"] == {"a": [1.0] * K, "b": [2.0] * K}


def test_k_rounds_reverse_the_order_every_other_round(clock):
    names = ["a", "b", "c"]
    interleaved({name: arm(clock, name, [1.0] * (K + 1)) for name in names})
    assert len(clock.calls) == 3 * (K + 1)
    assert clock.calls[:3] == names  # the warm-up
    rounds = [clock.calls[3 * r:3 * r + 3] for r in range(1, K + 1)]
    assert rounds == [names if r % 2 == 0 else names[::-1] for r in range(K)]


def test_min_ratios_and_wins(clock):
    a = [3.0 if r % 2 else 2.0 for r in range(K)]  # 2, 3, 2, ...
    b = [1.0 if r % 2 else 4.0 for r in range(K)]  # 4, 1, 4, ...
    result = interleaved({
        "a": arm(clock, "a", [9.0] + a),
        "b": arm(clock, "b", [9.0] + b),
    })
    expected = [x / y for x, y in zip(a, b)]
    assert result["min"] == {"a": 2.0, "b": 1.0}
    assert result["ratios"] == {"a / b": expected}
    assert result["wins"] == {"a / b": (K + 1) // 2}  # the rounds at 2 s vs 4 s
    assert median_ratio(result, "a", "b") == 0.5
    assert median_ratio(result, "b", "a") == 2.0


def test_every_pair_in_arm_order(clock):
    result = interleaved({name: arm(clock, name, [1.0] * (K + 1)) for name in "xyz"})
    assert list(result["ratios"]) == ["x / y", "x / z", "y / z"]
    assert list(result["wins"]) == ["x / y", "x / z", "y / z"]


def test_an_arm_slow_only_on_its_first_call_does_not_reach_the_result(clock):
    # The first model of a run used to be timed on the process's first
    # epoch: 1 s where every later epoch takes 0.1 s.
    result = interleaved({
        "first": arm(clock, "first", [1.0] + [0.1] * K),
        "other": arm(clock, "other", [0.5] * (K + 1)),
    })
    assert result["seconds"]["first"] == pytest.approx([0.1] * K)
    assert result["min"]["first"] == pytest.approx(0.1)
    assert median_ratio(result, "first", "other") == pytest.approx(0.2)
    assert result["wins"] == {"first / other": K}
