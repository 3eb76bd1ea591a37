"""The one timing protocol of the paper's timing claims.

Each arm runs once untimed (a warm-up: first-call costs land there),
then :data:`K` rounds run every arm once, the order reversed every
other round so that no arm always runs first.  A claim reads paired
ratios: both sides ran in the same round, so host drift moves both.
"""

from __future__ import annotations

import statistics
import time

#: Timed rounds per comparison (odd, so a median is one round's ratio).
K = 3


def interleaved(arms: dict) -> dict:
    """Time ``arms`` (name -> zero-argument callable): ``k``; each arm's
    k ``seconds`` in round order and their ``min``; for every two arms
    ``a`` before ``b``, under ``"a / b"``, the per-round ``ratios`` of
    a's seconds over b's and the ``wins``, the rounds a was faster in."""
    names = list(arms)
    for name in names:
        arms[name]()
    seconds = {name: [] for name in names}
    for round_ in range(K):
        for name in names[:: -1 if round_ % 2 else 1]:
            started = time.perf_counter()
            arms[name]()
            seconds[name].append(time.perf_counter() - started)
    ratios = {
        f"{a} / {b}": [x / y for x, y in zip(seconds[a], seconds[b])]
        for i, a in enumerate(names) for b in names[i + 1:]
    }
    return {
        "k": K,
        "seconds": seconds,
        "min": {name: min(values) for name, values in seconds.items()},
        "ratios": ratios,
        "wins": {pair: sum(r < 1 for r in values) for pair, values in ratios.items()},
    }


def median_ratio(timing: dict, a: str, b: str) -> float:
    """The median of the per-round ratios of arm ``a`` over arm ``b``."""
    if f"{a} / {b}" in timing["ratios"]:
        return statistics.median(timing["ratios"][f"{a} / {b}"])
    return 1 / statistics.median(timing["ratios"][f"{b} / {a}"])
