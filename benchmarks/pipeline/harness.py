"""Pipeline-benchmark harness: bench-side spans, the pass loop, and
result assembly.

Everything here measures the program *from outside*: spans are opened
by the benchmark around calls into public functions, and counts come
from public accessors (``obs.registry.snapshot()`` deltas,
``session.last_plan_stats``, ``ArrayPool.stats()``).  Nothing under
``src/`` is patched.
"""

from __future__ import annotations

import ctypes
import gc
import os
import pickle
import resource
import statistics
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs
from repro.engine import Field, Schema
from repro.tensor.pool import default_pool

#: The traced pass must attribute at least this share of its wall time
#: to a layer; unattributed time is a failed check.
MIN_ATTRIBUTED_SHARE = 0.95

TRACED = "traced"
PROBE = "probe"


class OracleMismatch(AssertionError):
    """A workload's output disagreed with its reference."""


def require(condition: bool, message: str) -> None:
    """Oracle assertion that survives ``python -O``."""
    if not condition:
        raise OracleMismatch(message)


class Workload:
    """What the harness drives.  One instance per process.

    ``generate`` builds inputs and the numpy oracle from the seed (it
    is timed as part of set-up); ``run_pass`` is the
    pipeline exactly as a user writes it; ``check`` compares a pass's
    output with the oracle and raises :class:`OracleMismatch`;
    ``traced_pass`` does the same work with bench-side spans and
    materialisation barriers between layers; ``probes`` times single
    layer functions the pass cannot isolate; ``layer_metrics`` turns
    spans and counters into the per-layer numbers.

    A pass result is a dict; the optional keys ``legs`` (name ->
    seconds measured inside the untraced pass), ``ops`` and
    ``ops_failed`` (sub-operations attempted / failed, e.g. appends)
    are read by the harness.
    """

    name = ""
    min_passes = 3
    item_unit = "rows"
    items_per_pass = 0

    def __init__(self, seed: int, scale: float, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def scaled(self, full: int, floor: int = 1) -> int:
        return max(floor, int(round(full * self.scale)))

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> dict:
        return self.run_pass()

    def run_pass(self) -> dict:
        raise NotImplementedError

    def check(self, result: dict) -> None:
        raise NotImplementedError

    def traced_pass(self, tr: "Tracer") -> dict:
        raise NotImplementedError

    def probes(self, tr: "Tracer") -> None:
        return None

    def layer_metrics(self, ctx: "TraceContext") -> dict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def operator_rows(tree: dict) -> list[dict]:
    """Flatten ``PlanStats.to_dict`` into per-operator *self* times
    (cumulative minus the children's cumulative) with derived
    ``rows_in``."""
    rows: list[dict] = []

    def visit(node: dict) -> None:
        children = node.get("children", ())
        executed = [c for c in children if c.get("executed", True)]
        if node.get("executed", True):
            below = sum(c["elapsed_s"] for c in executed)
            rows.append(
                {
                    "operator": node["operator"],
                    "self_s": max(0.0, node["elapsed_s"] - below),
                    "rows_in": sum(c["rows_out"] for c in executed),
                    "rows_out": node["rows_out"],
                }
            )
        for child in children:
            visit(child)

    visit(tree)
    return rows


class Tracer:
    """Spans recorded in memory by the benchmark's own files; written
    out once, at the end, by the runner."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_id = TRACED
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def engine(self, name: str, session, action, foreign: dict | None = None):
        """Run one engine action inside an ``engine`` span and attach
        the executed plan's per-operator self times.  ``foreign`` maps
        an operator-label prefix to the layer whose code that operator
        runs (a ``map_partitions`` body belongs to its caller's
        module), so the layer table can carve it out of the engine."""
        with self.span(name, "engine") as record:
            out = action()
        operators = operator_rows(
            session.last_plan_stats.to_dict(session.last_plan)
        )
        for op in operators:
            for prefix, layer in (foreign or {}).items():
                if op["operator"].startswith(prefix):
                    op["layer"] = layer
        record["operators"] = operators
        return out

    def materialise(self, name: str, df, foreign: dict | None = None):
        """Materialisation barrier: drain ``df`` under an engine span
        and return a DataFrame replaying the drained partitions.
        (``DataFrame.cache()`` is not used: a Cache node stops the
        optimizer and stage compiler from rewriting the plan beneath
        it, so the traced pass would time a different plan.)"""
        session = df.session
        parts = self.engine(
            name, session, lambda: list(df.iter_partitions()), foreign
        )
        schema = Schema(
            [Field(n, a.dtype) for n, a in parts[0].columns.items()]
        )
        return session.from_partitions(
            [lambda p=p: p for p in parts], schema
        )

    # -- queries over the recorded spans --------------------------------
    def select(self, prefix: str, pass_id: str = TRACED) -> list[dict]:
        """Spans named ``prefix`` or ``prefix.<more>`` (whole dotted
        components: ``x.convlstm`` does not select ``x.convlstm_traced``)."""
        return [
            s
            for s in self.spans
            if s["pass"] == pass_id
            and (s["name"] + ".").startswith(prefix + ".")
        ]

    def total(self, prefix: str, pass_id: str = TRACED) -> float:
        """Summed duration of the spans ``select`` returns."""
        return sum(s["end"] - s["start"] for s in self.select(prefix, pass_id))

    def operators(self, label_prefixes: tuple) -> list[dict]:
        """Operators of the traced pass's engine spans, by label."""
        return [
            op
            for s in self.spans
            for op in s.get("operators", ())
            if op["operator"].startswith(label_prefixes)
        ]

    def operator_seconds(self, *label_prefixes: str) -> float:
        return sum(op["self_s"] for op in self.operators(label_prefixes))

    def layer_table(self, pass_id: str = TRACED) -> dict:
        """Self time per layer: a span's duration minus what its child
        spans cover, with foreign operators moved to their own layer."""
        spans = [s for s in self.spans if s["pass"] == pass_id]
        covered: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (
                    covered.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        table: dict[str, float] = {}
        for s in spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            for op in s.get("operators", ()):
                if "layer" in op:
                    table[op["layer"]] = table.get(op["layer"], 0.0) + op["self_s"]
                    own -= op["self_s"]
            table[s["layer"]] = table.get(s["layer"], 0.0) + own
        return table


def train_steps(tr: Tracer, tag: str, loader, adapter, zero_grad, compute, step):
    """The step loop ``Trainer.train_epoch`` runs, issued from the
    bench with a span per layer call.  ``compute(inputs, target)``
    opens its own forward/backward spans and returns the batch loss
    as a float.  Returns the mean batch loss (the value
    ``train_epoch`` returns)."""
    total, batches = 0.0, 0
    with tr.span(f"training.epoch.{tag}", "core.training"):
        iterator = iter(loader)
        while True:
            with tr.span(f"data.loader_wait.{tag}", "data"):
                batch = next(iterator, None)
            if batch is None:
                break
            with tr.span(f"training.adapter.{tag}", "core.training"):
                inputs, target = adapter(batch)
            with tr.span(f"optim.zero_grad.{tag}", "optim"):
                zero_grad()
            total += compute(inputs, target)
            with tr.span(f"optim.step.{tag}", "optim"):
                step()
            batches += 1
    return total / max(batches, 1)


def eager_compute(tr: Tracer, tag: str, model, loss_fn):
    """Forward / backward of one eager step, a span each."""

    def compute(inputs, target) -> float:
        with tr.span(f"nn.forward.{tag}", "nn"):
            loss = loss_fn(model(*inputs), target)
        with tr.span(f"tensor.backward.{tag}", "tensor"):
            loss.backward(free_graph=True)
        return loss.item()

    return compute


def step_metrics(tr: Tracer, tag: str) -> dict:
    """forward / backward / optimizer seconds of the eager step loops
    tagged ``tag`` or ``tag.<leg>``."""
    return {
        f"nn.forward_s.{tag}": tr.total(f"nn.forward.{tag}"),
        f"tensor.backward_s.{tag}": tr.total(f"tensor.backward.{tag}"),
        f"optim.step_s.{tag}": tr.total(f"optim.zero_grad.{tag}")
        + tr.total(f"optim.step.{tag}"),
    }


@dataclass
class TraceContext:
    """What ``layer_metrics`` reads besides the spans: the traced
    pass's result, registry counter deltas and array-pool hit/miss
    deltas taken around it, current gauges, and the untraced medians
    (``legs``)."""

    tr: Tracer
    traced_result: dict
    traced_counters: dict
    gauges: dict
    pool_delta: dict
    legs: dict

    @property
    def pool_hit_rate(self) -> float:
        pool = self.pool_delta
        return pool["hits"] / (pool["hits"] + pool["misses"])


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _counters() -> dict:
    return dict(obs.registry.snapshot()["counters"])


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _pool_counts() -> dict:
    stats = default_pool().stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_freed_heap() -> None:
    """Return freed heap to the operating system.  glibc keeps it
    resident (61 MiB after ``trip_prep``'s set-up), and a pipeline that
    only refilled it would not move the high-water mark."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the child's starting point includes freed heap


def in_child(action):
    """``action()`` in a forked child; returns what it returned.

    ``ru_maxrss`` never falls, so in the process that generated the
    inputs it would report the generator's and the oracle's
    temporaries.  A forked child starts its high-water mark at what is
    resident at the fork (inputs, oracle, imports), shares the inputs
    copy-on-write, and so peaks where the pipeline puts it.
    """
    if threading.active_count() != 1:
        raise RuntimeError("set-up left threads running: fork is unsafe")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as sink:
                try:
                    payload = (True, action())
                except Exception:
                    payload = (False, traceback.format_exc())
                pickle.dump(payload, sink)
            status = 0
        finally:
            os._exit(status)  # never unwind into the parent's handlers
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as source:
        data = source.read()  # drained before the wait: no pipe deadlock
    _, wait_status = os.waitpid(pid, 0)
    if wait_status != 0 or not data:
        raise RuntimeError(f"measuring child ended with status {wait_status}")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError("measuring child failed:\n" + value)
    return value


class Outcome:
    """Attempted / failed operations and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, label: str, action):
        """One operation: a raised exception (an oracle mismatch is
        one) makes it a failed operation and returns None."""
        self.attempted += 1
        try:
            return action()
        except Exception as exc:
            self.failed += 1
            self.failures.append(
                f"{label}: {type(exc).__name__}: {exc}\n"
                + traceback.format_exc(limit=6)
            )
            return None

    def run(self, label: str, workload: Workload, action) -> tuple:
        """Run one pass, then its oracle outside the timed region.
        Returns ``(result, seconds)``, or ``(None, None)`` on failure."""

        def timed_and_checked():
            gc.collect()
            started = time.perf_counter()
            result = action()
            elapsed = time.perf_counter() - started
            self.attempted += result.get("ops", 0)
            self.failed += result.get("ops_failed", 0)
            workload.check(result)
            return result, elapsed

        return self.attempt(label, timed_and_checked) or (None, None)


def _trace(workload: Workload, outcome: Outcome, record: dict,
           untraced_counters: dict) -> None:
    """One traced pass, the probes, and the per-layer metrics."""
    run_s = record["end_to_end"]["run_s"]
    tr = Tracer(workload.name)
    counters_before, pool_before = _counters(), _pool_counts()
    result, _ = outcome.run(
        "traced pass", workload, lambda: workload.traced_pass(tr)
    )
    if result is None:
        return
    traced_counters = _delta(_counters(), counters_before)
    pool_delta = _delta(_pool_counts(), pool_before)
    root = tr.spans[0]
    traced_wall = root["end"] - root["start"]
    layers = tr.layer_table()
    attributed = (traced_wall - layers.get("bench", 0.0)) / traced_wall

    def layer_metrics() -> dict:
        tr.pass_id = PROBE
        workload.probes(tr)
        ctx = TraceContext(
            tr, result, traced_counters,
            dict(obs.registry.snapshot()["gauges"]), pool_delta,
            record["legs"],
        )
        per_layer = workload.layer_metrics(ctx)
        per_layer["engine.plan_executions"] = untraced_counters.get(
            "engine.queries", 0
        )
        per_layer["engine.spilled_bytes"] = _counters().get(
            "engine.spill.bytes_written", 0
        )
        per_layer["bench.attributed_share"] = attributed
        per_layer["trace_overhead_ratio"] = traced_wall / run_s
        require(
            attributed >= MIN_ATTRIBUTED_SHARE,
            f"bench.attributed_share {attributed:.3f} < {MIN_ATTRIBUTED_SHARE}",
        )
        return per_layer

    per_layer = outcome.attempt("probes and layer metrics", layer_metrics)
    if per_layer is not None:
        record["per_layer"] = per_layer
    record["layers"] = layers
    record["traced_wall_s"] = traced_wall
    record["spans"] = tr.spans


def _passes(workload: Workload, seconds: float, traced: bool) -> dict:
    """Warm-up, untraced timed passes, and (``traced``) one traced pass
    plus probes.  Runs in the measuring child."""
    outcome = Outcome()
    rss_at_start = peak_rss_mb()
    _, warm_s = outcome.run("warm-up", workload, workload.warm_up)
    if warm_s is None:
        raise RuntimeError("warm-up failed:\n" + outcome.failures[-1])

    # Timed passes, tracing off: whole passes until ``seconds`` have
    # gone by, never fewer than the workload's minimum.
    times: list[float] = []
    legs: dict[str, list] = {}
    untraced_counters: dict = {}
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < workload.min_passes or time.perf_counter() < deadline:
        passes += 1
        before = _counters() if traced else {}
        result, elapsed = outcome.run(
            f"pass {passes}", workload, workload.run_pass
        )
        if result is None:
            continue
        if traced:
            untraced_counters = _delta(_counters(), before)
        times.append(elapsed)
        for key, value in result.get("legs", {}).items():
            legs.setdefault(key, []).append(value)
    if not times:
        raise RuntimeError(
            "no timed pass succeeded:\n" + "\n".join(outcome.failures)
        )
    # Read before the traced pass, whose barriers hold whole
    # intermediate results resident.
    peak = peak_rss_mb()
    outcome.attempt(
        "peak_rss_mb",
        lambda: require(
            peak > rss_at_start,
            f"the passes did not raise the memory high-water mark "
            f"({rss_at_start:.1f} MiB at the fork): peak_rss_mb would "
            "report set-up, not the pipeline",
        ),
    )
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "scale": workload.scale,
        "items_per_pass": workload.items_per_pass,
        "item_unit": workload.item_unit,
        "samples": {
            "run_s": times,
            "n": len(times),
            "min": min(times),
            "max": max(times),
        },
        "warm_up_s": warm_s,
        "rss_at_start_mb": rss_at_start,
        "end_to_end": {
            "run_s": statistics.median(times),
            "peak_rss_mb": peak,
        },
        "legs": {k: statistics.median(v) for k, v in legs.items()},
    }
    if traced:
        _trace(workload, outcome, record, untraced_counters)
    record["attempted"] = outcome.attempted
    record["failed"] = outcome.failed
    record["failures"] = outcome.failures
    record["end_to_end"]["failed_share"] = outcome.failed / outcome.attempted
    return record


def measure(
    workload: Workload, seconds: float, traced: bool, import_s: float
) -> dict:
    """Set-up here, everything measured in a forked child (see
    :func:`in_child`).  Returns the full result record."""
    started = time.perf_counter()
    workload.generate()
    generate_s = time.perf_counter() - started
    release_freed_heap()
    record = in_child(lambda: _passes(workload, seconds, traced))
    warm_s = record.pop("warm_up_s")
    record["setup"] = {
        "import_s": import_s,
        "generate_s": generate_s,
        "warm_up_s": warm_s,
    }
    record["end_to_end"] = {
        "setup_s": import_s + generate_s + warm_s,
        **record["end_to_end"],
    }
    return record
