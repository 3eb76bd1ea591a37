"""Tape replay: record a training step once, re-run its ops.

Steady-state training re-executes the *same* op sequence every batch:
same shapes, same dtypes, same topology.  :class:`TraceSession` wraps a
``(model, loss_fn)`` pair (``Trainer.fit(trace=True)`` constructs one)
and turns that sequence into a flat tape the first time it runs, so
later steps skip the Python of ``model.forward`` / ``loss_fn`` — and
nothing else.

How it works
------------

1. **Record** — the first step runs *eagerly and unchanged* while a
   :class:`TraceRecorder` listens: ``repro.tensor.tensor._op``, under
   which every differentiable op is defined, records each call (the op
   and its own ``args`` / ``kwargs``), and :meth:`Tensor._make`
   reports every graph node it wires (``saw``).  Tensors among the
   arguments, in lists and tuples too, map to integer *slots*: the
   model's parameters (the live objects, shared with the optimizer),
   the batch externals (rebound every replay), captured constants
   (scalars and ``zeros`` results, copied) and op outputs.
2. **Replay** — a later step with a matching input signature binds the
   batch tensors into the external slots, calls each recorded op over
   the slot tensors in order — the real ``Tensor.__add__``,
   ``ops_conv.conv2d``, ``ops_fused.fused_lstm_gates``, … building a
   real graph — then runs ``loss.backward(free_graph=True)`` and reads
   ``loss.data.item()`` exactly as an eager step does.

An op is traceable because it is defined under ``_op``; this module
holds no per-op code.

Bit-identity
------------

Replay is **bit-identical** to eager by construction: the same
functions run on corresponding tensors in the same order, so the same
graph is built, ``backward()`` walks it in the same topological order
and gradients accumulate in the same order.  Ops dispatch on the
backend, allocate from the array pool and open their ``op_span``\\ s
when called, so a replayed step also makes eager's pool traffic and
eager's ``tensor.op_calls.*`` counts.  Pinned by
``tests/property/test_property_trace.py``.

Guards and fallback
-------------------

Anything the tape cannot prove safe falls back to eager — never to
wrong results:

- input shape/dtype/``requires_grad`` signature mismatch (e.g. a
  smaller last batch), or batch tensors aliasing each other differently
  than in the recorded step → that step runs eagerly, the tape is kept;
- parameter identity / ``requires_grad`` / module-mode change
  → the tape is dropped and re-recorded;
- ``no_grad()`` active, RNG-dependent ops (dropout), running-stat
  mutation (training BatchNorm), data-dependent indexing
  (``cross_entropy``'s gather), graph nodes no ``_op`` made, or
  arrays and tensors created outside the traced ops → tracing is
  disabled for the session and every step runs eagerly.

Host-side Python that inspects tensor *values* (not shapes) during the
forward cannot be observed by the recorder — the same caveat as
``torch.jit.trace``.  The strict capture rule above (only scalars and
registered ``zeros`` constants may enter a tape unrecorded) turns the
common cases of that mistake into a loud fallback instead of a silent
wrong replay.
"""

from __future__ import annotations

from importlib import import_module
from typing import NamedTuple

import numpy as np

from repro.tensor.tensor import Tensor

# The tensor *module* (the package re-exports a same-named function):
# recording installs and clears the recorder hook on it.
_core = import_module("repro.tensor.tensor")

__all__ = [
    "TraceRecorder",
    "TraceSession",
    "notify_trace_unsafe",
]


def notify_trace_unsafe(reason: str) -> None:
    """Abort any in-progress trace recording.

    Layers with behaviour a tape cannot replay (RNG masks, running
    statistics updates) call this at the top of their forward; when no
    recording is active it is a global read and a ``None`` check.
    """
    rec = _core._TRACE
    if rec is not None:
        rec.abort(reason)


class Tape(NamedTuple):
    """A recorded, replayable step."""

    #: Per slot: the live Parameter, a captured constant, or ``None``
    #: for the external and op-output slots each replay fills.
    slots: tuple
    ext_slots: tuple
    #: ``(call, args, kwargs, out_slots)`` in program order, each
    #: tensor argument replaced by its :class:`_Slot`.
    instrs: tuple
    root_slot: int


class _Slot(int):
    """A recorded call's tensor argument: the index of its slot."""


class _Seq(NamedTuple):
    """A recorded list or tuple argument that holds tensors."""

    kind: type
    items: tuple


def _bind(value, slots):
    """A recorded argument with each slot replaced by its tensor."""
    kind = type(value)
    if kind is _Slot:
        return slots[value]
    if kind is _Seq:
        return value.kind(_bind(item, slots) for item in value.items)
    return value


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class TraceRecorder:
    """Listens to one eager step and emits a flat instruction list.

    The recording step is a *normal* eager step — parameters receive
    real gradients and the loss is real; the recorder only takes
    notes.  ``abort()`` permanently stops note-taking (the step still
    completes eagerly) and records the reason.
    """

    def __init__(self):
        self.abort_reason: str | None = None
        self.slots: list[Tensor | None] = []
        self.instrs: list[tuple] = []
        self.slot_of: dict[int, int] = {}
        self.const_ids: set[int] = set()
        self.saw_nodes: list[Tensor] = []
        self.root_slot: int | None = None
        self.ext_slots: list[int] = []
        # Strong refs to every tensor we keyed by id(): prevents id
        # reuse from corrupting slot_of mid-recording (untracked
        # intermediates like input frames are otherwise collectable).
        self.keepalive: list[Tensor] = []

    # -- setup ----------------------------------------------------------
    def register_params(self, model) -> None:
        for p in model.parameters():
            self._new_slot(p, p)

    def register_externals(self, tensors) -> None:
        for t in tensors:
            if not isinstance(t, Tensor):
                self.abort("trace inputs must be Tensors")
                return
            if t.requires_grad or t._prev:
                self.abort("trace inputs must be gradient-free leaf tensors")
                return
            self.ext_slots.append(self._new_slot(t))

    def _new_slot(self, t: Tensor, held: Tensor | None = None) -> int:
        """Map ``t`` to a fresh slot; ``held`` is what every replay
        finds there before it starts (nothing for per-step tensors)."""
        self.slots.append(held)
        self.keepalive.append(t)
        slot = self.slot_of[id(t)] = len(self.slots) - 1
        return slot

    # -- hooks (called from repro.tensor.tensor) ------------------------
    def abort(self, reason: str) -> None:
        if self.abort_reason is None:
            self.abort_reason = reason

    def register_const(self, t: Tensor) -> None:
        """Mark a tensor as a safe capture (zeros/ones/full construct
        values that depend only on shape, which the signature guards)."""
        if self.abort_reason is None:
            self.const_ids.add(id(t))
            self.keepalive.append(t)

    def saw(self, t: Tensor) -> None:
        """Every tracked graph node passes through here; any node no
        ``_op`` returned came from an op the tape cannot replay."""
        if self.abort_reason is None:
            self.saw_nodes.append(t)

    def record(self, call, args, kwargs, ret) -> None:
        """Note that ``call(*args, **kwargs)`` just returned ``ret``."""
        if self.abort_reason is not None:
            return
        if not _core._grad_enabled:
            self.abort("no_grad() inside the traced region")
            return
        args = tuple(self._argument(a) for a in args)
        kwargs = {k: self._argument(v) for k, v in kwargs.items()}
        if self.abort_reason is not None:
            return
        outs = ret if type(ret) is tuple else (ret,)
        self.instrs.append(
            (call, args, kwargs, tuple(self._new_slot(t) for t in outs))
        )

    def _argument(self, value):
        """``value`` as the tape holds it: a tensor as its slot, a list
        or tuple holding tensors as a :class:`_Seq`, anything else as it
        is.  Only scalars and ``zeros`` results enter the tape
        unrecorded, as copies; any other tensor or array made outside
        the traced ops aborts the recording."""
        if isinstance(value, (list, tuple)):
            items = tuple(self._argument(item) for item in value)
            if any(type(item) in (_Slot, _Seq) for item in items):
                return _Seq(type(value), items)
            return value
        if isinstance(value, Tensor):
            slot = self.slot_of.get(id(value))
            if slot is not None:
                return _Slot(slot)
            if value.requires_grad or value._prev or value._freed:
                self.abort(
                    "op consumed a graph tensor created outside the traced region"
                )
                return None
            if id(value) in self.const_ids or value.size <= 1:
                copy = Tensor(value.data.copy(), dtype=value.dtype)
                return _Slot(self._new_slot(value, copy))
        elif not isinstance(value, np.ndarray):
            return value
        elif value.size <= 1:
            return value.copy()
        kind = "a tensor" if isinstance(value, Tensor) else "an array"
        self.abort(
            f"op consumed {kind} of shape {value.shape} created outside the "
            "traced ops (only scalars and zeros/ones/full are capturable)"
        )
        return None

    def set_root(self, loss: Tensor) -> None:
        s = self.slot_of.get(id(loss))
        if s is None:
            self.abort("loss tensor was not produced by traced ops")
        self.root_slot = s

    # -- finalize -------------------------------------------------------
    def validate(self) -> str | None:
        """Return a rejection reason, or None when the recording is a
        complete, replayable step."""
        if self.abort_reason is not None:
            return self.abort_reason
        for t in self.saw_nodes:
            if t._grad_span is None:  # no _op returned it
                return (
                    "graph contains an op the tracer does not support "
                    f"(node shape {t.shape})"
                )
        return None

    def tape(self) -> Tape:
        return Tape(
            tuple(self.slots),
            tuple(self.ext_slots),
            tuple(self.instrs),
            self.root_slot,
        )


# ----------------------------------------------------------------------
# Session: the record/replay state machine
# ----------------------------------------------------------------------
_metrics = None


def _trace_counters():
    global _metrics
    if _metrics is None:
        from repro import obs

        _metrics = {
            "capture": obs.registry.counter("tensor.trace.capture"),
            "replay": obs.registry.counter("tensor.trace.replay"),
            "fallback": obs.registry.counter("tensor.trace.fallback"),
            "invalidate": obs.registry.counter("tensor.trace.invalidate"),
        }
    return _metrics


_reason_counters: dict = {}


def _slug(reason: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in reason.lower()).strip("_")


def _reason_counter(kind: str, reason: str):
    """Get-or-create ``tensor.trace.<kind>.<reason-slug>`` so fallback
    and invalidation *causes* are visible in the process-wide registry
    (not only on the session object)."""
    key = (kind, reason)
    counter = _reason_counters.get(key)
    if counter is None:
        from repro import obs

        counter = _reason_counters[key] = obs.registry.counter(
            f"tensor.trace.{kind}.{_slug(reason)}"
        )
    return counter


class TraceSession:
    """Per-(model, loss_fn) record/replay driver.

    ``step(inputs, target)`` behaves exactly like the eager
    forward/loss/backward triple and returns the loss value; whether a
    given step was captured, replayed, or fell back to eager is
    observable through :meth:`stats` and never changes the numbers.
    """

    #: Re-records past this many invalidations disable the session —
    #: a model mutating parameters every few steps would otherwise pay
    #: a capture step each time without ever replaying.
    MAX_INVALIDATIONS = 8

    def __init__(self, model, loss_fn):
        self.model = model
        self.loss_fn = loss_fn
        self.program: Tape | None = None
        self.disabled_reason: str | None = None
        self._sig = None
        self._params: list | None = None
        self._modes: list | None = None
        self.counters = {
            "captures": 0,
            "replays": 0,
            "eager_steps": 0,
            "fallbacks": 0,
            "invalidations": 0,
        }

    # -- public ---------------------------------------------------------
    def step(self, inputs, target) -> float:
        target = target if isinstance(target, Tensor) else Tensor(target)
        if self.disabled_reason is not None:
            return self._eager(inputs, target, fallback=True, reason="disabled")
        if not _core._grad_enabled:
            # no_grad() around the whole step: nothing to record.
            return self._eager(inputs, target, fallback=True, reason="no_grad")
        if not all(isinstance(t, Tensor) for t in inputs):
            self._disable("model inputs are not Tensors")
            return self._eager(
                inputs, target, fallback=True, reason="non_tensor_inputs"
            )

        sig = self._signature(inputs, target)
        if self.program is not None:
            if self._guards_changed():
                self._invalidate("parameter or module-mode change")
                if self.disabled_reason is not None:
                    return self._eager(
                        inputs, target, fallback=True, reason="disabled"
                    )
            elif sig == self._sig:
                self.counters["replays"] += 1
                _trace_counters()["replay"].inc()
                return self._replay(inputs, target)
            else:
                # Shape/dtype mismatch (e.g. a smaller final batch):
                # run this step eagerly, keep the tape for the next
                # full-size batch.
                return self._eager(
                    inputs, target, fallback=True, reason="signature_mismatch"
                )
        return self._capture(inputs, target, sig)

    def close(self) -> None:
        """Drop the tape (it owns no buffers; the pool is untouched)."""
        self.program = None

    def stats(self) -> dict:
        state = "ready" if self.program is not None else "idle"
        if self.disabled_reason is not None:
            state = "disabled"
        out = {
            "state": state,
            "disabled_reason": self.disabled_reason,
            **self.counters,
        }
        if self.program is not None:
            out["program"] = {"instrs": len(self.program.instrs)}
        return out

    # -- internals ------------------------------------------------------
    def _signature(self, inputs, target):
        # Each batch tensor's shape, dtype, grad flag and the position
        # of the first batch tensor that is the same object: ops were
        # recorded against one slot per *object*, so a step that passes
        # two tensors where the recorded one passed one twice (an
        # autoencoder's ``target is inputs[0]``) must not replay.
        tensors = (*inputs, target)
        ids = [id(t) for t in tensors]
        return tuple(
            (t.shape, str(t.dtype), bool(t.requires_grad), ids.index(id(t)))
            for t in tensors
        )

    def _guards_changed(self) -> bool:
        params = list(self.model.parameters())
        if self._params is None or len(params) != len(self._params):
            return True
        for cur, (ref, rg) in zip(params, self._params):
            if cur is not ref or cur.requires_grad != rg:
                return True
        for module, flag in self._modes:
            if module.training != flag:
                return True
        return False

    def _disable(self, reason: str) -> None:
        self.disabled_reason = reason
        self.close()

    def _invalidate(self, reason: str) -> None:
        self.counters["invalidations"] += 1
        _trace_counters()["invalidate"].inc()
        _reason_counter("invalidate", reason).inc()
        self.close()
        self._sig = None
        if self.counters["invalidations"] > self.MAX_INVALIDATIONS:
            self._disable(f"unstable trace: repeated {reason}")

    def _eager(
        self, inputs, target, fallback: bool = False, reason: str | None = None
    ) -> float:
        if fallback:
            self.counters["fallbacks"] += 1
            _trace_counters()["fallback"].inc()
            if reason is not None:
                _reason_counter("fallback", reason).inc()
        self.counters["eager_steps"] += 1
        output = self.model(*inputs)
        loss = self.loss_fn(output, target)
        if loss.requires_grad:
            loss.backward(free_graph=True)
        return loss.data.item()

    def _replay(self, inputs, target) -> float:
        """Re-run the recorded ops over this batch: the eager step
        minus the Python of ``model.forward`` and ``loss_fn``."""
        tape = self.program
        slots = list(tape.slots)
        for slot, t in zip(tape.ext_slots, (*inputs, target)):
            slots[slot] = t
        for call, args, kwargs, outs in tape.instrs:
            ret = call(
                *[_bind(a, slots) for a in args],
                **{k: _bind(v, slots) for k, v in kwargs.items()},
            )
            if len(outs) == 1:
                slots[outs[0]] = ret
            else:
                for s, t in zip(outs, ret):
                    slots[s] = t
        loss = slots[tape.root_slot]
        loss.backward(free_graph=True)
        return loss.data.item()

    def _capture(self, inputs, target, sig) -> float:
        rec = TraceRecorder()
        rec.register_params(self.model)
        rec.register_externals((*inputs, target))
        self.counters["captures"] += 1
        self.counters["eager_steps"] += 1
        _trace_counters()["capture"].inc()
        _core._TRACE = rec
        try:
            output = self.model(*inputs)
            loss = self.loss_fn(output, target)
            if isinstance(loss, Tensor):
                rec.set_root(loss)
                if loss.requires_grad:
                    loss.backward(free_graph=True)
                else:
                    rec.abort("loss does not require grad")
            else:
                rec.abort("loss_fn did not return a Tensor")
        finally:
            _core._TRACE = None
        loss_value = loss.data.item() if isinstance(loss, Tensor) else loss

        reason = rec.validate()
        if reason is not None:
            self._disable(reason)
            return loss_value
        self.program = rec.tape()
        self._sig = sig
        self._params = [
            (p, p.requires_grad) for p in self.model.parameters()
        ]
        self._modes = [
            (module, module.training)
            for _, module in self.model.named_modules()
        ]
        return loss_value
