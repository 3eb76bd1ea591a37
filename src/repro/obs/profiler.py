"""Module/op-level training profiler (``torch.profiler`` analogue).

The :class:`Profiler` attaches forward pre/post hooks to every module
in a model tree (via :meth:`Module.named_modules`) and records one
:class:`ProfilerEvent` per forward call, attributing

- **wall time** per module path, split into total and *self* time
  (total minus time spent in child module / kernel events),
- **analytic FLOPs** from layer shapes (conv / linear / recurrent /
  normalization / activation formulas — each module is charged only
  for the math it computes itself, so summing events never double
  counts a container and its children),
- **parameter bytes** (the module's own parameters, not recursive) and
  **activation bytes** (output array sizes).

Kernel-level events from :mod:`repro.tensor.ops_conv` and DataLoader
batch-fetch events nest under the innermost open module span through
the module-level :func:`op_span` API.  That API is the only coupling
the tensor layer has to the profiler, and its disabled fast path is a
single global read plus a ``None`` check — no profiler active means
near-zero cost.

A :func:`schedule` (wait / warmup / active, optionally repeating)
gates recording per training step so steady-state steps are profiled
without warmup skew; :meth:`Trainer.fit(profiler=...)
<repro.core.training.trainer.Trainer.fit>` steps the profiler once
per batch.  Results are summarized by :meth:`Profiler.key_averages`
(one row per module path or op type; the Table VII runner reads its
slowest modules and :meth:`Profiler.total_flops` from them).

>>> from repro.obs.profiler import Profiler, schedule
>>> prof = Profiler(model, schedule=schedule(wait=1, warmup=1, active=3))
>>> trainer.fit(loader, epochs=1, profiler=prof)
>>> prof.key_averages().rows[0]["name"]
"""

from __future__ import annotations

import time


class ProfilerAction:
    """What the schedule asks for at one step."""

    NONE = "none"
    WARMUP = "warmup"
    RECORD = "record"


def schedule(*, wait: int = 0, warmup: int = 0, active: int = 1, repeat: int = 0):
    """Return a ``step -> action`` callable (torch.profiler style).

    Each cycle is ``wait`` idle steps, then ``warmup`` steps where
    hooks run but their events are discarded, then ``active`` recorded
    steps.  ``repeat=0`` cycles forever; ``repeat=N`` stops after N
    cycles.
    """
    if active <= 0:
        raise ValueError("active must be positive")
    if wait < 0 or warmup < 0 or repeat < 0:
        raise ValueError("wait, warmup, and repeat must be non-negative")
    cycle = wait + warmup + active

    def fn(step: int) -> str:
        if repeat and step >= cycle * repeat:
            return ProfilerAction.NONE
        position = step % cycle
        if position < wait:
            return ProfilerAction.NONE
        if position < wait + warmup:
            return ProfilerAction.WARMUP
        return ProfilerAction.RECORD

    return fn


class ProfilerEvent:
    """One completed forward / kernel / data-fetch region."""

    __slots__ = (
        "name", "kind", "op_type", "ts", "dur", "self_dur",
        "flops", "param_bytes", "activation_bytes", "depth", "step",
    )

    def __init__(self, name, kind, op_type, ts, dur, self_dur,
                 flops, param_bytes, activation_bytes, depth, step):
        self.name = name
        self.kind = kind            # "module" | "op" | "data"
        self.op_type = op_type      # module class name or op name
        self.ts = ts                # perf_counter seconds at entry
        self.dur = dur              # wall seconds, children included
        self.self_dur = self_dur    # wall seconds minus child events
        self.flops = flops
        self.param_bytes = param_bytes
        self.activation_bytes = activation_bytes
        self.depth = depth          # nesting depth at entry
        self.step = step            # profiler step the event belongs to

    def __repr__(self):
        return (
            f"ProfilerEvent({self.name!r}, kind={self.kind!r}, "
            f"dur={self.dur:.6f}, flops={self.flops:.0f})"
        )


class _Frame:
    """An open (not yet finished) event on the profiler stack."""

    __slots__ = ("label", "op_type", "kind", "start", "child_dur")

    def __init__(self, label: str, op_type: str, kind: str):
        self.label = label
        self.op_type = op_type
        self.kind = kind
        self.start = 0.0
        self.child_dur = 0.0


# ----------------------------------------------------------------------
# Analytic FLOPs, keyed by module class name so the profiler never has
# to import repro.nn (which would be circular: nn -> tensor -> here).
# Each formula counts only the module's *own* math — gate transforms
# inside recurrent cells are charged to the child Linear/Conv2d module
# whose hook fires separately.
# ----------------------------------------------------------------------

def _numel(tensor) -> int:
    data = getattr(tensor, "data", tensor)
    return int(getattr(data, "size", 0))


def _flops_linear(module, args, output):
    x = args[0]
    batch = _numel(x) // max(int(x.shape[-1]), 1)
    flops = 2.0 * batch * module.in_features * module.out_features
    if module.bias is not None:
        flops += batch * module.out_features
    return flops


def _flops_conv2d(module, args, output):
    n, f, oh, ow = output.shape
    flops = 2.0 * n * f * oh * ow * module.in_channels * module.kernel_size**2
    if module.bias is not None:
        flops += float(n * f * oh * ow)
    return flops


def _flops_conv_transpose2d(module, args, output):
    x = args[0]
    n, c, h, w = x.shape
    flops = 2.0 * n * c * h * w * module.out_channels * module.kernel_size**2
    if module.bias is not None:
        flops += float(_numel(output))
    return flops


def _flops_conv_lstm_cell(module, args, output):
    x = args[0]
    n, _, h, w = x.shape
    return 9.0 * n * module.hidden_channels * h * w


def _flops_per_output(multiplier: float):
    def fn(module, args, output):
        return multiplier * _numel(output)

    return fn


def _flops_pool(module, args, output):
    return float(module.kernel_size * module.kernel_size) * _numel(output)


FLOP_FORMULAS = {
    "Linear": _flops_linear,
    "Conv2d": _flops_conv2d,
    "ConvTranspose2d": _flops_conv_transpose2d,
    "ConvLSTMCell": _flops_conv_lstm_cell,
    "MaxPool2d": _flops_pool,
    "GlobalAvgPool2d": _flops_per_output(1.0),
    "BatchNorm2d": _flops_per_output(5.0),
    "ReLU": _flops_per_output(1.0),
    "Dropout": _flops_per_output(1.0),
}


def flops_of(module, args, output) -> float:
    """Analytic FLOPs for one forward call; 0.0 for containers and
    unknown layer types.  Never raises — a formula failure (unexpected
    shapes) degrades to 0 rather than breaking training."""
    formula = FLOP_FORMULAS.get(type(module).__name__)
    if formula is None:
        return 0.0
    try:
        return float(formula(module, args, output))
    except Exception:
        return 0.0


def activation_bytes(output) -> int:
    """Recursive byte size of a forward output (tensor, or nested
    tuple/list/dict of tensors)."""
    if isinstance(output, (tuple, list)):
        return sum(activation_bytes(item) for item in output)
    if isinstance(output, dict):
        return sum(activation_bytes(item) for item in output.values())
    data = getattr(output, "data", output)
    return int(getattr(data, "nbytes", 0))


# ----------------------------------------------------------------------
# The op-event API: tensor kernels and the DataLoader call
# ``op_span(name)`` around their hot section.  With no profiler active
# (or recording off) this returns a shared no-op context manager.
# ----------------------------------------------------------------------

_ACTIVE: "Profiler | None" = None


class _NullOpSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set_bytes(self, nbytes):
        pass


_NULL_OP_SPAN = _NullOpSpan()


class _OpSpan:
    """Context manager recording one kernel/data event into the
    active profiler, nested under the innermost open module span."""

    __slots__ = ("_profiler", "_name", "_kind", "_bytes")

    def __init__(self, profiler: "Profiler", name: str, kind: str):
        self._profiler = profiler
        self._name = name
        self._kind = kind
        self._bytes = 0

    def set_bytes(self, nbytes: int) -> None:
        self._bytes = int(nbytes)

    def __enter__(self):
        self._profiler._push(self._name, self._name, self._kind)
        return self

    def __exit__(self, *exc):
        self._profiler._pop(
            self._name, flops=0.0, param_bytes=0, act_bytes=self._bytes
        )
        return False


def op_span(name: str, kind: str = "op"):
    """Time one kernel-level region under the active profiler.

    Usage: ``with op_span("ops_conv.conv2d") as op: ...``; the region
    nests under whichever module forward is currently open.  Returns a
    shared no-op when no profiler is recording.
    """
    profiler = _ACTIVE
    if profiler is None or not profiler._recording:
        return _NULL_OP_SPAN
    return _OpSpan(profiler, name, kind)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

class KeyAverages:
    """Aggregated view over profiler events: one row dict per key."""

    def __init__(self, rows: list[dict], group_by: str):
        self.rows = rows
        self.group_by = group_by

    @property
    def total_param_bytes(self) -> int:
        return sum(row["param_bytes"] for row in self.rows)

    def as_dicts(self) -> list[dict]:
        return [dict(row) for row in self.rows]

# ----------------------------------------------------------------------
# The profiler
# ----------------------------------------------------------------------

class Profiler:
    """Hierarchical module/op profiler.

    Parameters
    ----------
    model:
        The module tree to hook.  May be ``None`` at construction and
        supplied later (``Trainer.fit`` fills it in from its model).
    schedule:
        Optional ``step -> action`` callable from :func:`schedule`.
        Without one, every step is recorded.
    on_trace_ready:
        Optional callback ``fn(profiler)`` fired at the end of each
        active window (and at ``stop()`` if one is open).
    max_events:
        Hard cap on retained events; once reached, further events are
        counted in ``dropped_events`` instead of stored, so a run
        without a schedule cannot grow memory without bound.
    """

    def __init__(self, model=None, schedule=None, on_trace_ready=None,
                 max_events: int = 100_000):
        self.model = model
        self.schedule = schedule
        self.on_trace_ready = on_trace_ready
        self.max_events = max_events
        self.events: list[ProfilerEvent] = []
        self.dropped_events = 0
        self.step_num = 0
        self._handles: list = []
        self._stack: list[_Frame] = []
        self._recording = False
        self._action = ProfilerAction.NONE
        self._warmup_mark = 0
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "Profiler":
        global _ACTIVE
        if self._started:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another Profiler is already active")
        _ACTIVE = self
        self._started = True
        if self.model is not None:
            self._attach(self.model)
        self._apply_action(self._current_action())
        return self

    def stop(self) -> None:
        global _ACTIVE
        if not self._started:
            return
        if self._action == ProfilerAction.RECORD and self.on_trace_ready:
            self.on_trace_ready(self)
        for handle in self._handles:
            handle.remove()
        self._handles.clear()
        self._stack.clear()
        self._recording = False
        self._started = False
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def step(self) -> None:
        """Advance to the next training step (call once per batch)."""
        previous = self._action
        self.step_num += 1
        action = self._current_action()
        if previous == ProfilerAction.RECORD and action != ProfilerAction.RECORD:
            if self.on_trace_ready:
                self.on_trace_ready(self)
        self._apply_action(action)

    def _current_action(self) -> str:
        if self.schedule is None:
            return ProfilerAction.RECORD
        return self.schedule(self.step_num)

    def _apply_action(self, action: str) -> None:
        if action == ProfilerAction.WARMUP and self._action != ProfilerAction.WARMUP:
            self._warmup_mark = len(self.events)
        if self._action == ProfilerAction.WARMUP and action == ProfilerAction.RECORD:
            # Warmup events existed only to stabilize timing; drop them.
            del self.events[self._warmup_mark:]
        self._action = action
        self._recording = action in (ProfilerAction.WARMUP, ProfilerAction.RECORD)

    # -- hooks ----------------------------------------------------------
    def _attach(self, model) -> None:
        root_name = type(model).__name__
        for path, module in model.named_modules():
            label = f"{root_name}.{path}" if path else root_name
            self._handles.append(
                module.register_forward_pre_hook(self._make_pre_hook(label))
            )
            self._handles.append(
                module.register_forward_hook(self._make_post_hook(label))
            )

    def _make_pre_hook(self, label: str):
        def pre_hook(module, args):
            if self._recording:
                self._push(label, type(module).__name__, "module")

        return pre_hook

    def _make_post_hook(self, label: str):
        def post_hook(module, args, output):
            if not self._recording:
                return
            param_bytes = sum(
                p.data.nbytes for p in module._parameters.values()
            )
            self._pop(
                label,
                flops=flops_of(module, args, output),
                param_bytes=param_bytes,
                act_bytes=activation_bytes(output),
            )

        return post_hook

    # -- event stack ----------------------------------------------------
    def _push(self, label: str, op_type: str, kind: str) -> None:
        frame = _Frame(label, op_type, kind)
        self._stack.append(frame)
        frame.start = time.perf_counter()

    def _pop(self, label: str, flops: float, param_bytes: int, act_bytes: int) -> None:
        end = time.perf_counter()
        # Pop until the matching frame: an exception inside a forward
        # leaves orphaned frames, which are discarded here rather than
        # corrupting later attribution.
        while self._stack:
            frame = self._stack.pop()
            if frame.label == label:
                break
        else:
            return
        dur = end - frame.start
        if self._stack:
            self._stack[-1].child_dur += dur
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(
            ProfilerEvent(
                name=label,
                kind=frame.kind,
                op_type=frame.op_type,
                ts=frame.start,
                dur=dur,
                self_dur=dur - frame.child_dur,
                flops=flops,
                param_bytes=param_bytes,
                activation_bytes=act_bytes,
                depth=len(self._stack),
                step=self.step_num,
            )
        )

    # -- results --------------------------------------------------------
    def key_averages(self, group_by: str = "module") -> KeyAverages:
        """Aggregate events by ``module`` path or ``op_type``.

        Parameter bytes are de-duplicated per module path (calling a
        layer N times does not multiply its weights), then summed
        across the paths a group covers.
        """
        if group_by not in ("module", "op_type"):
            raise ValueError(
                f"group_by must be 'module' or 'op_type', got {group_by!r}"
            )
        per_path_params: dict[str, int] = {}
        groups: dict[str, dict] = {}
        grouped_paths: dict[str, set] = {}
        for event in self.events:
            key = event.name if group_by == "module" else event.op_type
            row = groups.get(key)
            if row is None:
                row = groups[key] = {
                    "name": key,
                    "op_type": event.op_type,
                    "calls": 0,
                    "total_s": 0.0,
                    "self_s": 0.0,
                    "flops": 0.0,
                    "param_bytes": 0,
                    "activation_bytes": 0,
                }
                grouped_paths[key] = set()
            row["calls"] += 1
            row["total_s"] += event.dur
            row["self_s"] += event.self_dur
            row["flops"] += event.flops
            row["activation_bytes"] += event.activation_bytes
            grouped_paths[key].add(event.name)
            previous = per_path_params.get(event.name, 0)
            if event.param_bytes > previous:
                per_path_params[event.name] = event.param_bytes
        for key, row in groups.items():
            row["param_bytes"] = sum(
                per_path_params.get(path, 0) for path in grouped_paths[key]
            )
        return KeyAverages(list(groups.values()), group_by)

    def total_flops(self) -> float:
        """Sum of per-module analytic FLOPs over all recorded events."""
        return sum(e.flops for e in self.events if e.kind == "module")
