"""Metrics export: the per-operator breakdown of the registry and an
atomic JSON writer — what ``benchmarks/run_quick.py`` embeds in and
writes to ``BENCH_engine.json``.

Per-operator engine metrics live under ``engine.op.<Operator>.*``;
:func:`operator_breakdown` regroups them into one dict per operator.
"""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_json(path: str, payload, indent: int = 2, sort_keys: bool = True) -> None:
    """Serialize ``payload`` to ``path`` atomically: write a temp file
    in the same directory, then ``os.replace`` — an interrupted run can
    leave a stray temp file but never a truncated JSON at ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-" + os.path.basename(path) + "-"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def operator_breakdown(registry=None) -> dict:
    """Regroup ``engine.op.<Op>.<field>`` metrics per operator::

        {"Join": {"rows_out": ..., "partitions": ..., "seconds": ...,
                  "peak_partition_bytes": ...}, ...}
    """
    from repro import obs

    registry = registry if registry is not None else obs.registry
    snap = registry.snapshot()
    merged = dict(snap["counters"])
    merged.update(snap["gauges"])
    out: dict = {}
    for name, value in merged.items():
        if not name.startswith("engine.op."):
            continue
        _, _, rest = name.partition("engine.op.")
        op, _, field = rest.partition(".")
        if not field:
            continue
        out.setdefault(op, {})[field] = value
    return {op: dict(sorted(fields.items())) for op, fields in sorted(out.items())}

