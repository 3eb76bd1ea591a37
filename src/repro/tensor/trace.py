"""Trace-based autograd fuser: record a training step once, replay it.

Steady-state training re-executes the *same* op graph every batch:
same shapes, same dtypes, same topology.  The eager autograd pays the
full Python construction bill each time — one ``Tensor`` allocation,
one closure, one ``_prev`` tuple, and one output array per op, plus a
topological sort and a graph-freeing walk per backward.  PR 4's
hand-written fused kernels (:mod:`repro.tensor.ops_fused`) clawed some
of that back for one specific gate pattern; this module generalizes
the idea to whole training steps.

How it works
------------

:class:`TraceSession` wraps a ``(model, loss_fn)`` pair (the
``Trainer.fit(trace=True)`` knob constructs one):

1. **Record** — the first step runs *eagerly and unchanged* while a
   :class:`TraceRecorder` (installed as ``repro.tensor.tensor._TRACE``)
   listens to three hooks: every instrumented op reports its
   ``(op, inputs, outputs, attrs)`` tuple, :meth:`Tensor._make`
   reports every graph node it wires (``saw``), and ``backward()``
   reports the exact order in which node closures execute
   (``note_backward``).  Tensors are mapped to integer *slots*:
   parameters, batch externals, captured constants, and op outputs.
2. **Compile** — the flat instruction list becomes a
   :class:`TracedProgram`: a linear forward schedule of closure-free
   kernel thunks writing into persistent :class:`~repro.tensor.pool.
   ArrayPool`-acquired buffers, and a backward schedule replaying the
   recorded closure order.  A peephole pass fuses ``conv2d``+``relu``
   into the existing fused-epilogue form of
   :func:`~repro.tensor.ops_conv.conv2d` and groups elementwise runs
   (sigmoid/tanh/add/mul chains) into single schedule entries executed
   back-to-back over the pooled buffers.  The two hot compound ops
   compile all the way down: ``conv2d`` (accelerated backend) replays
   by calling :mod:`~repro.tensor.ops_conv`'s own kernel functions
   over persistent column/padding/gradient buffers, and
   ``fused_lstm_gates`` writes its activations and the packed gate
   gradient into program-owned blocks.  The remaining compound ops
   (transposed conv, pooling, ``fused_linear``) call through to their
   real kernels over the slot tensors.
3. **Replay** — subsequent steps with a matching input signature skip
   Python graph construction entirely: rebind the batch arrays into
   the external slots, run the forward thunks, seed the loss gradient
   exactly like ``backward()`` does, and run the backward entries in
   recorded order.  The whole step runs under a small program-private
   pool (:func:`~repro.tensor.pool.use_pool`), so per-step gradient
   churn recycles within the program and the shared pool's residency
   stays flat across replays.

Bit-identity
------------

Replay is **bit-identical** to eager: every kernel replicates its
eager closure expression-for-expression (same operand order, same
dtype promotions, same ``_unbroadcast``/donate semantics), writes go
through the same ufuncs (``out=`` into a preallocated buffer produces
the same bits as a fresh allocation), and the backward runs in the
*recorded eager execution order*, so gradient accumulation order —
the one thing floating point cares about — is preserved.  Pinned by
``tests/property/test_property_trace.py``.

Guards and fallback
-------------------

Anything the trace cannot prove safe falls back to eager — never to
wrong results:

- input shape/dtype signature mismatch (e.g. a smaller last batch) or
  a backend switch → that step runs eagerly, the program is kept;
- parameter identity / ``requires_grad`` / module-mode change
  → the program is invalidated and re-recorded;
- ``no_grad()`` active, RNG-dependent ops (dropout), running-stat
  mutation (training BatchNorm), data-dependent indexing
  (``cross_entropy``'s gather), unsupported ops, or tensors created
  outside the traced ops → tracing is disabled for the session and
  every step runs eagerly.

Host-side Python that inspects tensor *values* (not shapes) during the
forward cannot be observed by the tracer — the same caveat as
``torch.jit.trace``.  The strict capture rule above (only scalars and
registered ``zeros``/``ones``/``full`` constants may enter a trace
unrecorded) turns the common cases of that mistake into a loud
fallback instead of a silent wrong replay.
"""

from __future__ import annotations

import numpy as np

from importlib import import_module

from repro.obs.profiler import op_span, profiler_recording
from repro.tensor import ops_conv, ops_fused
from repro.tensor.backend import ACCELERATED, get_backend
from repro.tensor.pool import ArrayPool, default_pool, use_pool
from repro.tensor.tensor import Tensor, _unbroadcast

# The tensor *module* (the package re-exports a same-named function):
# recording installs/clears the ``_TRACE`` hook on it.
_core = import_module("repro.tensor.tensor")

__all__ = [
    "TraceRecorder",
    "TracedProgram",
    "TraceSession",
    "TraceBuildError",
    "notify_trace_unsafe",
]

# Slot kinds
EXTERNAL = 0  # batch input / target: data rebound every replay
PARAM = 1     # live Parameter object, shared with the optimizer
CONST = 2     # captured constant (scalars, zeros/ones/full)
NODE = 3      # op output


def notify_trace_unsafe(reason: str) -> None:
    """Abort any in-progress trace recording.

    Layers with behaviour a trace cannot replay (RNG masks, running
    statistics updates) call this at the top of their forward; when no
    recording is active it is a global read and a ``None`` check.
    """
    rec = _core._TRACE
    if rec is not None:
        rec.abort(reason)


class TraceBuildError(RuntimeError):
    """A recorded graph could not be compiled into a TracedProgram."""


class _Slot:
    __slots__ = ("kind", "shape", "dtype", "requires_grad", "ref", "value")

    def __init__(self, kind, shape, dtype, requires_grad, ref=None, value=None):
        self.kind = kind
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.requires_grad = bool(requires_grad)
        self.ref = ref      # the live Parameter for PARAM slots
        self.value = value  # the captured array for CONST slots


class Instr:
    """One recorded op: slot-indexed inputs/outputs plus kernel attrs."""

    __slots__ = ("op", "ins", "outs", "attrs", "in_rg")

    def __init__(self, op, ins, outs, attrs, in_rg):
        self.op = op
        self.ins = ins
        self.outs = outs
        self.attrs = attrs
        self.in_rg = in_rg

    def __repr__(self):
        return f"Instr({self.op!r}, ins={self.ins}, outs={self.outs})"


def _shell(data, requires_grad: bool) -> Tensor:
    """A bare Tensor wrapper that bypasses ``__init__``'s dtype
    coercion — replay slots must hold exactly the recorded dtype."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = requires_grad
    t._backward = None
    t._prev = ()
    t._freed = False
    return t


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
        self.slots: list[_Slot] = []
        self.instrs: list[Instr] = []
        self.slot_of: dict[int, int] = {}
        self.const_ids: set[int] = set()
        self.claimed: set[int] = set()
        self.saw_nodes: list[Tensor] = []
        self.backward_order: list[int] = []
        self.root_slot: int | None = None
        self.ext_slots: list[int] = []
        # Strong refs to every tensor we keyed by id(): prevents id
        # reuse from corrupting slot_of mid-recording (untracked
        # intermediates like input frames are otherwise collectable).
        self.keepalive: list[Tensor] = []

    # -- setup ----------------------------------------------------------
    def register_params(self, model) -> None:
        for p in model.parameters():
            s = self._new_slot(
                _Slot(PARAM, p.shape, p.dtype, p.requires_grad, ref=p)
            )
            self.slot_of[id(p)] = s
            self.keepalive.append(p)

    def register_externals(self, tensors) -> None:
        for t in tensors:
            if not isinstance(t, Tensor):
                self.abort("trace inputs must be Tensors")
                return
            if t.requires_grad or t._prev:
                self.abort("trace inputs must be gradient-free leaf tensors")
                return
            s = self._new_slot(_Slot(EXTERNAL, t.shape, t.dtype, False))
            self.slot_of[id(t)] = s
            self.ext_slots.append(s)
            self.keepalive.append(t)

    def _new_slot(self, slot: _Slot) -> int:
        self.slots.append(slot)
        return len(self.slots) - 1

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
        instrumented op claims is an op the tracer cannot replay."""
        if self.abort_reason is None:
            self.saw_nodes.append(t)

    def note_backward(self, node: Tensor) -> None:
        """Called just before a node's backward closure runs — this is
        the accumulation order replay must reproduce."""
        if self.abort_reason is not None:
            return
        s = self.slot_of.get(id(node))
        if s is None:
            self.abort("backward reached a node outside the trace")
            return
        self.backward_order.append(s)

    def record(self, op, inputs, outputs, attrs=None) -> None:
        if self.abort_reason is not None:
            return
        if not _core._grad_enabled:
            self.abort("no_grad() inside the traced region")
            return
        in_slots = []
        for t in inputs:
            s = self.slot_of.get(id(t))
            if s is None:
                s = self._capture_unknown(t)
                if s is None:
                    return
            in_slots.append(s)
        out_slots = []
        for t in outputs:
            s = self._new_slot(
                _Slot(NODE, t.shape, t.dtype, t.requires_grad)
            )
            self.slot_of[id(t)] = s
            self.claimed.add(id(t))
            self.keepalive.append(t)
            out_slots.append(s)
        self.instrs.append(
            Instr(
                op,
                tuple(in_slots),
                tuple(out_slots),
                attrs or {},
                tuple(bool(t.requires_grad) for t in inputs),
            )
        )

    def _capture_unknown(self, t: Tensor) -> int | None:
        if t.requires_grad or t._prev or t._freed:
            self.abort(
                "op consumed a graph tensor created outside the traced region"
            )
            return None
        if id(t) in self.const_ids or t.data.size <= 1:
            s = self._new_slot(
                _Slot(
                    CONST, t.shape, t.dtype, False,
                    value=np.array(t.data, copy=True),
                )
            )
            self.slot_of[id(t)] = s
            self.keepalive.append(t)
            return s
        self.abort(
            f"op consumed a tensor of shape {t.shape} created outside the "
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
        complete, replayable program."""
        if self.abort_reason is not None:
            return self.abort_reason
        for t in self.saw_nodes:
            if id(t) not in self.claimed:
                return (
                    "graph contains an op the tracer does not support "
                    f"(node shape {t.shape})"
                )
        if self.root_slot is None:
            return "loss tensor was not produced by traced ops"
        if not self.backward_order:
            return "recorded step had no backward pass"
        return None


# ----------------------------------------------------------------------
# Replay kernels
#
# Each builder takes (program, instr) and returns (fwd, bwd_map) where
# fwd() advances the forward schedule and bwd_map maps output slots to
# grad-consuming callables.  Every expression replicates the matching
# eager closure in tensor.py exactly — operand order, dtype promotion,
# donate flags — so replay bits equal eager bits.
# ----------------------------------------------------------------------

def _build_add(p, ins):
    (ia, ib), (io,) = ins.ins, ins.outs
    ra, rb = ins.in_rg
    S = p.S
    buf = p.bind_buffer(io)
    sa, sb = p.shape(ia), p.shape(ib)
    so = p.shape(io)
    fast_a = ra and sa == so and p.fast_edge(ia, io)
    fast_b = rb and sb == so and ia != ib and p.fast_edge(ib, io)

    def fwd():
        np.add(S[ia].data, S[ib].data, out=buf)

    def bwd(grad):
        if ra:
            if fast_a:
                S[ia].grad = grad
            else:
                g = _unbroadcast(grad, sa)
                S[ia]._accumulate(g, donate=g is not grad)
        if rb:
            if fast_b:
                S[ib].grad = grad
            else:
                g = _unbroadcast(grad, sb)
                S[ib]._accumulate(g, donate=g is not grad)

    return fwd, {io: bwd}


def _build_sub(p, ins):
    (ia, ib), (io,) = ins.ins, ins.outs
    ra, rb = ins.in_rg
    S = p.S
    buf = p.bind_buffer(io)
    sa, sb = p.shape(ia), p.shape(ib)
    fast_a = ra and sa == p.shape(io) and p.fast_edge(ia, io)

    def fwd():
        np.subtract(S[ia].data, S[ib].data, out=buf)

    def bwd(grad):
        if ra:
            if fast_a:
                S[ia].grad = grad
            else:
                g = _unbroadcast(grad, sa)
                S[ia]._accumulate(g, donate=g is not grad)
        if rb:
            S[ib]._accumulate(_unbroadcast(-grad, sb), donate=True)

    return fwd, {io: bwd}


def _build_mul(p, ins):
    (ia, ib), (io,) = ins.ins, ins.outs
    ra, rb = ins.in_rg
    S = p.S
    buf = p.bind_buffer(io)
    sa, sb = p.shape(ia), p.shape(ib)

    def fwd():
        np.multiply(S[ia].data, S[ib].data, out=buf)

    def bwd(grad):
        if ra:
            S[ia]._accumulate(
                _unbroadcast(grad * S[ib].data, sa), donate=True
            )
        if rb:
            S[ib]._accumulate(
                _unbroadcast(grad * S[ia].data, sb), donate=True
            )

    return fwd, {io: bwd}


def _build_div(p, ins):
    (ia, ib), (io,) = ins.ins, ins.outs
    ra, rb = ins.in_rg
    S = p.S
    buf = p.bind_buffer(io)
    sa, sb = p.shape(ia), p.shape(ib)

    def fwd():
        np.divide(S[ia].data, S[ib].data, out=buf)

    def bwd(grad):
        if ra:
            S[ia]._accumulate(
                _unbroadcast(grad / S[ib].data, sa), donate=True
            )
        if rb:
            S[ib]._accumulate(
                _unbroadcast(
                    -grad * S[ia].data / S[ib].data**2, sb
                ),
                donate=True,
            )

    return fwd, {io: bwd}


def _build_neg(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S
    buf = p.bind_buffer(io)

    def fwd():
        np.negative(S[ii].data, out=buf)

    def bwd(grad):
        S[ii]._accumulate(-grad, donate=True)

    return fwd, {io: bwd}


def _build_pow(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    exponent = ins.attrs["exponent"]
    S = p.S
    buf = p.bind_buffer(io)

    def fwd():
        np.power(S[ii].data, exponent, out=buf)

    def bwd(grad):
        S[ii]._accumulate(
            grad * exponent * S[ii].data ** (exponent - 1), donate=True
        )

    return fwd, {io: bwd}


def _build_matmul(p, ins):
    (ia, ib), (io,) = ins.ins, ins.outs
    ra, rb = ins.in_rg
    S = p.S
    buf = p.bind_buffer(io)
    sa, sb = p.shape(ia), p.shape(ib)

    def fwd():
        np.matmul(S[ia].data, S[ib].data, out=buf)

    def bwd(grad):
        ad, bd = S[ia].data, S[ib].data
        if ra:
            if bd.ndim == 1:
                g = np.outer(grad, bd) if grad.ndim == 1 else (
                    grad[..., None] * bd
                )
            else:
                g = grad @ np.swapaxes(bd, -1, -2)
            S[ia]._accumulate(_unbroadcast(np.asarray(g), sa))
        if rb:
            if ad.ndim == 1:
                g = np.outer(ad, grad)
            else:
                g = np.swapaxes(ad, -1, -2) @ grad
            S[ib]._accumulate(_unbroadcast(np.asarray(g), sb))

    return fwd, {io: bwd}


def _build_exp(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S
    buf = p.bind_buffer(io)

    def fwd():
        np.exp(S[ii].data, out=buf)

    def bwd(grad):
        S[ii]._accumulate(grad * buf, donate=True)

    return fwd, {io: bwd}


def _build_log(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S
    buf = p.bind_buffer(io)

    def fwd():
        np.log(S[ii].data, out=buf)

    def bwd(grad):
        S[ii]._accumulate(grad / S[ii].data, donate=True)

    return fwd, {io: bwd}


def _build_sqrt(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S
    buf = p.bind_buffer(io)

    def fwd():
        np.sqrt(S[ii].data, out=buf)

    def bwd(grad):
        S[ii]._accumulate(
            grad * 0.5 / np.maximum(buf, 1e-12), donate=True
        )

    return fwd, {io: bwd}


def _build_abs(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S
    buf = p.bind_buffer(io)

    def fwd():
        np.absolute(S[ii].data, out=buf)

    def bwd(grad):
        S[ii]._accumulate(grad * np.sign(S[ii].data), donate=True)

    return fwd, {io: bwd}


def _build_tanh(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S
    buf = p.bind_buffer(io)

    def fwd():
        np.tanh(S[ii].data, out=buf)

    def bwd(grad):
        S[ii]._accumulate(grad * (1.0 - buf**2), donate=True)

    return fwd, {io: bwd}


def _build_sigmoid(p, ins):
    # np.where has no out= form, and bit-identity requires evaluating
    # both branch arrays exactly like Tensor.sigmoid does — so this is
    # the one elementwise kernel that rebinds a fresh array per step.
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S

    def fwd():
        x = S[ii].data
        positive = x >= 0
        exp_neg_abs = np.exp(-np.abs(x))
        S[io].data = np.where(
            positive,
            1.0 / (1.0 + exp_neg_abs),
            exp_neg_abs / (1.0 + exp_neg_abs),
        ).astype(x.dtype, copy=False)

    def bwd(grad):
        d = S[io].data
        S[ii]._accumulate(grad * d * (1.0 - d), donate=True)

    return fwd, {io: bwd}


def _build_relu(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S
    buf = p.bind_buffer(io)
    mask = p.scratch(p.shape(ii), np.bool_)

    def fwd():
        x = S[ii].data
        np.greater(x, 0, out=mask)
        np.multiply(x, mask, out=buf)

    def bwd(grad):
        S[ii]._accumulate(grad * mask, donate=True)

    return fwd, {io: bwd}


def _build_sum(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    axis = ins.attrs["axis"]
    keepdims = ins.attrs["keepdims"]
    S = p.S
    buf = p.bind_buffer(io)
    shape_in = p.shape(ii)

    def fwd():
        np.sum(S[ii].data, axis=axis, keepdims=keepdims, out=buf)

    def bwd(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        S[ii]._accumulate(
            np.broadcast_to(g, shape_in).copy(), donate=True
        )

    return fwd, {io: bwd}


def _build_reshape(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S
    out_shape, in_shape = p.shape(io), p.shape(ii)
    fast = ins.in_rg[0] and p.fast_edge(ii, io)

    def fwd():
        S[io].data = S[ii].data.reshape(out_shape)

    def bwd(grad):
        g = grad.reshape(in_shape)
        if fast:
            S[ii].grad = g
        else:
            S[ii]._accumulate(g)

    return fwd, {io: bwd}


def _build_transpose(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    axes = ins.attrs["axes"]
    inverse = np.argsort(axes)
    S = p.S
    fast = ins.in_rg[0] and p.fast_edge(ii, io)

    def fwd():
        S[io].data = S[ii].data.transpose(axes)

    def bwd(grad):
        g = grad.transpose(inverse)
        if fast:
            S[ii].grad = g
        else:
            S[ii]._accumulate(g)

    return fwd, {io: bwd}


def _build_expand_dims(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    axis = ins.attrs["axis"]
    S = p.S
    fast = ins.in_rg[0] and p.fast_edge(ii, io)

    def fwd():
        S[io].data = np.expand_dims(S[ii].data, axis)

    def bwd(grad):
        g = np.squeeze(grad, axis=axis)
        if fast:
            S[ii].grad = g
        else:
            S[ii]._accumulate(g)

    return fwd, {io: bwd}


def _build_squeeze(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    axis = ins.attrs["axis"]
    S = p.S
    fast = ins.in_rg[0] and p.fast_edge(ii, io)

    def fwd():
        S[io].data = np.squeeze(S[ii].data, axis=axis)

    def bwd(grad):
        g = np.expand_dims(grad, axis)
        if fast:
            S[ii].grad = g
        else:
            S[ii]._accumulate(g)

    return fwd, {io: bwd}


def _build_getitem(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    key = ins.attrs["key"]
    S = p.S
    shape_in, dtype_in = p.shape(ii), p.dtype(ii)
    rg = ins.in_rg[0]

    def fwd():
        S[io].data = S[ii].data[key]

    def bwd(grad):
        # Keys are guaranteed basic at record time, so the strided
        # assignment replicates the eager closure exactly.
        full = default_pool().acquire(shape_in, dtype_in, zero=True)
        full[key] = grad
        S[ii]._accumulate(full, donate=True)

    return fwd, ({io: bwd} if rg else {})


def _build_pad2d(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    ph, pw = ins.attrs["pad_h"], ins.attrs["pad_w"]
    value = ins.attrs["value"]
    S = p.S
    shape_in = p.shape(ii)
    width = [(0, 0)] * (len(shape_in) - 2) + [(ph, ph), (pw, pw)]
    h, w = shape_in[-2], shape_in[-1]
    sl = (Ellipsis, slice(ph, ph + h), slice(pw, pw + w))
    fast = ins.in_rg[0] and p.fast_edge(ii, io)

    def fwd():
        S[io].data = np.pad(S[ii].data, width, constant_values=value)

    def bwd(grad):
        g = grad[sl]
        if fast:
            S[ii].grad = g
        else:
            S[ii]._accumulate(g)

    return fwd, {io: bwd}


def _build_detach(p, ins):
    (ii,), (io,) = ins.ins, ins.outs
    S = p.S

    def fwd():
        S[io].data = S[ii].data

    return fwd, {}


def _build_concatenate(p, ins):
    axis = ins.attrs["axis"]
    (io,) = ins.outs
    S = p.S
    buf = p.bind_buffer(io)
    in_slots = ins.ins
    sizes = [p.shape(s)[axis] for s in in_slots]
    offsets = np.cumsum([0] + sizes)
    ndim = len(p.shape(io))
    edges = []
    for s, rg, start, stop in zip(
        in_slots, ins.in_rg, offsets[:-1], offsets[1:]
    ):
        fast = (
            rg
            and in_slots.count(s) == 1
            and p.fast_edge(s, io)
        )
        edges.append((s, rg, int(start), int(stop), fast))

    def fwd():
        np.concatenate(
            [S[s].data for s in in_slots], axis=axis, out=buf
        )

    def bwd(grad):
        for s, rg, start, stop, fast in edges:
            if not rg:
                continue
            sl = [slice(None)] * ndim
            sl[axis] = slice(start, stop)
            g = grad[tuple(sl)]
            if fast:
                S[s].grad = g
            else:
                S[s]._accumulate(g)

    return fwd, {io: bwd}


def _build_stack(p, ins):
    axis = ins.attrs["axis"]
    (io,) = ins.outs
    S = p.S
    buf = p.bind_buffer(io)
    in_slots = ins.ins
    edges = []
    for k, (s, rg) in enumerate(zip(in_slots, ins.in_rg)):
        fast = (
            rg
            and in_slots.count(s) == 1
            and p.fast_edge(s, io)
        )
        edges.append((k, s, rg, fast))

    def fwd():
        np.stack([S[s].data for s in in_slots], axis=axis, out=buf)

    def bwd(grad):
        slices = np.moveaxis(grad, axis, 0)
        for k, s, rg, fast in edges:
            if not rg:
                continue
            g = slices[k]
            if fast:
                S[s].grad = g
            else:
                S[s]._accumulate(g)

    return fwd, {io: bwd}


# -- compound kernels --------------------------------------------------
# The hot compound ops (conv2d on the accelerated backend, the LSTM
# gate tail) compile to buffer kernels below.  The rest are replayed by
# re-invoking the real op over the slot tensors: the op re-derives its
# closure each step (its internals are already pooled and fused) and
# the backward entry runs that closure at the recorded position.

def _call_through(p, ins, invoke):
    S = p.S
    out_slots = ins.outs

    def fwd():
        rets = invoke()
        if not isinstance(rets, tuple):
            rets = (rets,)
        for s, ret in zip(out_slots, rets):
            S[s] = ret

    bwds = {}
    for s in out_slots:
        def bwd(grad, _s=s):
            S[_s]._backward(grad)

        bwds[s] = bwd
    return fwd, bwds


def _build_conv2d(p, ins):
    """Compiled im2col convolution over persistent buffers.

    Replays the accelerated strategy of
    :func:`~repro.tensor.ops_conv.conv2d` by calling the very kernel
    functions it calls, with every recurring allocation — padded
    input, column buffers, gemm outputs, ReLU mask, input gradient —
    owned by the program and reused each step, so replay bits equal
    eager bits by construction.  The forward column buffer stays
    filled until backward (eager refills a pooled one); parameter
    gradients stay freshly allocated because ``_accumulate`` may adopt
    them as ``param.grad`` across steps.  The naive backend keeps its
    per-pixel loops via call-through.
    """
    S = p.S
    at = ins.attrs
    stride, padding = at["stride"], at["padding"]
    has_bias = len(ins.ins) == 3
    ix, iw = ins.ins[0], ins.ins[1]
    ib = ins.ins[2] if has_bias else None

    # Compile only the uniform-dtype accelerated form; anything else
    # (naive backend, mixed dtypes whose promotion points differ from
    # the buffered expressions) replays the real kernel.
    uniform = len({p.dtype(s) for s in (*ins.ins, ins.outs[0])}) == 1
    if get_backend() != ACCELERATED or not uniform:
        def invoke():
            return ops_conv.conv2d(
                S[ix],
                S[iw],
                S[ib] if has_bias else None,
                stride=stride,
                padding=padding,
                activation=at["activation"],
            )

        return _call_through(p, ins, invoke)

    rx, rw = ins.in_rg[0], ins.in_rg[1]
    rb = ins.in_rg[2] if has_bias else False
    (io,) = ins.outs
    n, c, h, w = x_shape = p.shape(ix)
    f, _, kh, kw = w_shape = p.shape(iw)
    _, _, oh, ow = p.shape(io)
    dt = p.dtype(ix)
    k2, rows = kh * kw, n * oh * ow

    def zero_bordered(shape):
        buf = p.scratch(shape, dt)
        buf.fill(0)  # borders stay zero; the interior is rewritten
        return buf

    out_buf = p.bind_buffer(io)
    cols = p.scratch((c * k2, rows), dt)
    fm = p.scratch((f, rows), dt)
    xp = zero_bordered((n, c, h + 2 * padding, w + 2 * padding)) if padding else None
    mask = gbuf = gfm = None
    if at["activation"] == "relu":
        mask = p.scratch((n, f, oh, ow), np.bool_)
        gbuf = p.scratch((n, f, oh, ow), dt)
    correlate = ops_conv.dx_by_correlation(f, c, kh, kw, stride, padding)
    if rw or (rx and not correlate):
        gfm = p.scratch((f, rows), dt)
    if rx:
        xgrad = p.adopt_grad(ix)
        if correlate:
            ph, pw = kh - 1 - padding, kw - 1 - padding
            gp = zero_bordered((n, f, oh + 2 * ph, ow + 2 * pw)) if ph or pw else None
            dx = xgrad if xgrad is not None else p.scratch(x_shape, dt)
            dcols = p.scratch((f * k2, n * h * w), dt)
            dfm = p.scratch((c, n * h * w), dt)
        else:
            dcols = p.scratch((c * k2, rows), dt)
            if padding:
                dxp = p.scratch(xp.shape, dt)
                dx = dxp[:, :, padding:-padding, padding:-padding]
            else:
                dx = dxp = xgrad if xgrad is not None else p.scratch(x_shape, dt)

    def fwd():
        src = S[ix].data
        if padding:
            src = ops_conv.pad_into(xp, src)
        ops_conv.conv_forward(
            src, S[iw].data, S[ib].data if has_bias else None,
            stride, out_buf, cols, fm, mask,
        )

    def bwd(grad):
        if mask is not None:
            grad = np.multiply(grad, mask, out=gbuf)
        if gfm is not None:
            ops_conv.grad_feature_major(grad, gfm)
        if rw:
            S[iw]._accumulate(ops_conv.conv_dw(gfm, cols, w_shape), donate=True)
        if rb:
            S[ib]._accumulate(grad.sum(axis=(0, 2, 3)), donate=True)
        if rx:
            if correlate:
                src = grad if gp is None else ops_conv.pad_into(gp, grad)
                ops_conv.conv_forward(
                    src, ops_conv.flipped(S[iw].data), None, 1, dx, dcols, dfm
                )
            else:
                ops_conv.conv_dx_scatter(
                    gfm, S[iw].data, stride, oh, ow, dcols, dxp
                )
            if xgrad is None:
                S[ix]._accumulate(dx)
            else:
                if dx is not xgrad:
                    np.copyto(xgrad, dx)
                S[ix].grad = xgrad

    fwd._span = "ops_conv.conv2d"
    return fwd, {io: bwd}


def _build_conv_transpose2d(p, ins):
    S = p.S
    at = ins.attrs
    has_bias = len(ins.ins) == 3
    ix, iw = ins.ins[0], ins.ins[1]
    ib = ins.ins[2] if has_bias else None

    def invoke():
        return ops_conv.conv_transpose2d(
            S[ix],
            S[iw],
            S[ib] if has_bias else None,
            stride=at["stride"],
            padding=at["padding"],
        )

    return _call_through(p, ins, invoke)


def _build_max_pool2d(p, ins):
    S = p.S
    at = ins.attrs
    (ix,) = ins.ins

    def invoke():
        return ops_conv.max_pool2d(S[ix], at["kernel"], at["stride"])

    return _call_through(p, ins, invoke)


def _build_avg_pool2d(p, ins):
    S = p.S
    at = ins.attrs
    (ix,) = ins.ins

    def invoke():
        return ops_conv.avg_pool2d(S[ix], at["kernel"], at["stride"])

    return _call_through(p, ins, invoke)


def _build_upsample_nearest2d(p, ins):
    S = p.S
    at = ins.attrs
    (ix,) = ins.ins

    def invoke():
        return ops_conv.upsample_nearest2d(S[ix], at["scale"])

    return _call_through(p, ins, invoke)


def _build_fused_linear(p, ins):
    S = p.S
    has_bias = len(ins.ins) == 3
    ix, iw = ins.ins[0], ins.ins[1]
    ib = ins.ins[2] if has_bias else None

    def invoke():
        return ops_fused.fused_linear(
            S[ix], S[iw], S[ib] if has_bias else None
        )

    return _call_through(p, ins, invoke)


def _build_fused_lstm_gates(p, ins):
    """Compiled LSTM gate tail over persistent buffers.

    Replays :func:`~repro.tensor.ops_fused.fused_lstm_gates` with the
    four activation blocks, ``tanh(c)``, and the packed gate gradient
    all program-owned: the backward writes ``di/df/dg/do`` straight
    into disjoint slices of the persistent packed buffer (exactly the
    values eager's ``np.concatenate`` assembles) and adopts it as the
    gate tensor's gradient.  Every expression keeps the eager operand
    order, so the bits match the closure pair it replaces.
    """
    S = p.S
    hidden = ins.attrs["hidden"]
    ig, ic = ins.ins
    rg_g, rg_c = ins.in_rg
    ih_s, ic_s = ins.outs

    uniform = (
        len({p.dtype(s) for s in (ig, ic, ih_s, ic_s)}) == 1
    )
    packed = p.adopt_grad(ig) if rg_g and uniform else None
    if not uniform or (rg_g and packed is None):
        # Mixed dtypes, or the gate tensor has other gradient
        # contributions — replay the real kernel so promotion and
        # ``_accumulate`` ordering stay eager's.
        def invoke():
            return ops_fused.fused_lstm_gates(S[ig], S[ic], hidden)

        return _call_through(p, ins, invoke)

    h1, h2, h3 = hidden, 2 * hidden, 3 * hidden
    gshape = p.shape(ig)
    bshape = (gshape[0], hidden) + tuple(gshape[2:])
    dt = p.dtype(ig)
    rcn = p.rec_slots[ic_s].requires_grad

    h_buf = p.bind_buffer(ih_s)
    c_buf = p.bind_buffer(ic_s)
    i_b = p.scratch(bshape, dt)
    f_b = p.scratch(bshape, dt)
    g_b = p.scratch(bshape, dt)
    o_b = p.scratch(bshape, dt)
    t_b = p.scratch(bshape, dt)
    pos = p.scratch(bshape, np.bool_)
    npos = p.scratch(bshape, np.bool_)
    tmp = p.scratch(bshape, dt)
    den = p.scratch(bshape, dt)
    br2 = p.scratch(bshape, dt)

    def sigmoid_into(x, dst):
        # ops_fused._sigmoid, buffered: both where-branches evaluated
        # over the whole block, then selected (NaN goes to the negative
        # branch exactly like np.where).
        np.greater_equal(x, 0, out=pos)
        np.abs(x, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)  # exp(-|x|)
        np.add(1.0, tmp, out=den)
        np.divide(tmp, den, out=br2)
        np.divide(1.0, den, out=dst)
        np.logical_not(pos, out=npos)
        np.copyto(dst, br2, where=npos)

    def fwd():
        a = S[ig].data
        sigmoid_into(a[:, :h1], i_b)
        sigmoid_into(a[:, h1:h2], f_b)
        np.tanh(a[:, h2:h3], out=g_b)
        sigmoid_into(a[:, h3:], o_b)
        # c_next = f * c_prev + i * g, h_next = o * tanh(c_next)
        np.multiply(f_b, S[ic].data, out=c_buf)
        np.multiply(i_b, g_b, out=tmp)
        np.add(c_buf, tmp, out=c_buf)
        np.tanh(c_buf, out=t_b)
        np.multiply(o_b, t_b, out=h_buf)

    # Backward scratch (the forward's sigmoid temporaries are dead by
    # then); whether h_next ever delivered the o-gate gradient mirrors
    # the eager closures' handoff dict.
    blk, sub = tmp, den
    got_do = [False]

    def bwd_h(dh):
        if rg_g:
            # do = ((dh * t) * o) * (1 - o), straight into the o slice
            np.multiply(dh, t_b, out=blk)
            np.multiply(blk, o_b, out=blk)
            np.subtract(1.0, o_b, out=sub)
            np.multiply(blk, sub, out=packed[:, h3:])
            got_do[0] = True
        if rcn:
            S[ic_s]._accumulate((dh * o_b) * (1.0 - t_b**2), donate=True)

    def bwd_c(dcn):
        if rg_g:
            # di = ((dcn * g) * i) * (1 - i)
            np.multiply(dcn, g_b, out=blk)
            np.multiply(blk, i_b, out=blk)
            np.subtract(1.0, i_b, out=sub)
            np.multiply(blk, sub, out=packed[:, :h1])
            # df = ((dcn * c_prev) * f) * (1 - f)
            np.multiply(dcn, S[ic].data, out=blk)
            np.multiply(blk, f_b, out=blk)
            np.subtract(1.0, f_b, out=sub)
            np.multiply(blk, sub, out=packed[:, h1:h2])
            # dg = (dcn * i) * (1 - g**2)
            np.multiply(dcn, i_b, out=blk)
            np.power(g_b, 2, out=sub)
            np.subtract(1.0, sub, out=sub)
            np.multiply(blk, sub, out=packed[:, h2:h3])
            if not got_do[0]:
                packed[:, h3:].fill(0)
            got_do[0] = False
            S[ig].grad = packed
        if rg_c:
            S[ic]._accumulate(dcn * f_b, donate=True)

    fwd._span = "ops_fused.lstm_gates"
    return fwd, {ih_s: bwd_h, ic_s: bwd_c}


_BUILDERS = {
    "add": _build_add,
    "sub": _build_sub,
    "mul": _build_mul,
    "div": _build_div,
    "neg": _build_neg,
    "pow": _build_pow,
    "matmul": _build_matmul,
    "exp": _build_exp,
    "log": _build_log,
    "sqrt": _build_sqrt,
    "abs": _build_abs,
    "tanh": _build_tanh,
    "sigmoid": _build_sigmoid,
    "relu": _build_relu,
    "sum": _build_sum,
    "reshape": _build_reshape,
    "transpose": _build_transpose,
    "expand_dims": _build_expand_dims,
    "squeeze": _build_squeeze,
    "getitem": _build_getitem,
    "pad2d": _build_pad2d,
    "detach": _build_detach,
    "concatenate": _build_concatenate,
    "stack": _build_stack,
    "conv2d": _build_conv2d,
    "conv_transpose2d": _build_conv_transpose2d,
    "max_pool2d": _build_max_pool2d,
    "avg_pool2d": _build_avg_pool2d,
    "upsample_nearest2d": _build_upsample_nearest2d,
    "fused_linear": _build_fused_linear,
    "fused_lstm_gates": _build_fused_lstm_gates,
}

#: Elementwise kernels eligible for schedule-level run fusion.
_ELTWISE = frozenset(
    {
        "add", "sub", "mul", "div", "neg", "pow", "exp", "log",
        "sqrt", "abs", "tanh", "sigmoid", "relu",
    }
)

#: Kernels the profiler attributes under the same names eager uses
#: (the satellite op_span instrumentation in tensor.py).
_SPAN_NAMES = {
    "add": "tensor.add",
    "mul": "tensor.mul",
    "matmul": "tensor.matmul",
    "sigmoid": "tensor.sigmoid",
    "tanh": "tensor.tanh",
    "sum": "tensor.sum",
}


# ----------------------------------------------------------------------
# Compiled program
# ----------------------------------------------------------------------
class TracedProgram:
    """A compiled, replayable training step.

    Owns persistent output buffers acquired from the array pool (one
    per compute kernel output, reused every replay) and two linear
    schedules: forward thunks in recorded program order (elementwise
    runs grouped into single entries) and backward entries in the
    recorded eager closure-execution order.
    """

    def __init__(self, rec: TraceRecorder, pool=None):
        self._pool = pool if pool is not None else default_pool()
        # Replays run under this private pool (see replay()): the
        # gradient churn of a replayed step — releases with no matching
        # acquirer and vice versa — lands here, capped at two arrays
        # per (shape, dtype), instead of perturbing the shared pool.
        # Residency therefore reaches steady state by the second
        # replay and stays flat.
        self._replay_pool = ArrayPool(max_per_key=2)
        self._owned: list[np.ndarray] = []
        self._closed = False
        self.rec_slots = rec.slots
        self.root_slot = rec.root_slot
        self.ext_slots = list(rec.ext_slots)
        self.no_release: set[int] = set()
        self.signature = None  # set by TraceSession

        instrs = list(rec.instrs)
        order = list(rec.backward_order)
        self.fused_conv_relu = self._fuse_conv_relu(instrs, order)

        # Per-slot gradient-contribution counts over the *final* instr
        # list (+1 for the root seed).  A slot with exactly one
        # contribution can adopt a grad view directly — the basis of
        # the pass-through fast path in the view kernels.
        contrib: dict[int, int] = {}
        for ins in instrs:
            for s, rg in zip(ins.ins, ins.in_rg):
                if rg:
                    contrib[s] = contrib.get(s, 0) + 1
            if ins.op == "fused_lstm_gates" and ins.in_rg[0]:
                # h_next's backward hands a gradient to its sibling
                # c_next output — a contribution no input edge records.
                cn = ins.outs[1]
                contrib[cn] = contrib.get(cn, 0) + 1
        contrib[self.root_slot] = contrib.get(self.root_slot, 0) + 1
        self.contrib = contrib
        # Eager never pools the root's seed gradient (the free-graph
        # walk keeps the root readable); releasing it here would grow
        # the pool by one scalar per replay with no acquirer.
        self.no_release.add(self.root_slot)

        # Runtime slot table.  PARAM slots ARE the live parameters (so
        # flat-optimizer rebinds of ``param.data`` are picked up every
        # step); NODE/EXTERNAL slots are bare shells.
        S: list[Tensor] = []
        for sl in self.rec_slots:
            if sl.kind == PARAM:
                S.append(sl.ref)
            elif sl.kind == CONST:
                S.append(_shell(sl.value, False))
            else:
                S.append(_shell(None, sl.requires_grad))
        self.S = S

        try:
            fwd_entries = []  # (op, span_name, fn)
            bwd_map: dict[int, tuple] = {}
            for ins in instrs:
                builder = _BUILDERS.get(ins.op)
                if builder is None:
                    raise TraceBuildError(
                        f"no replay kernel for op {ins.op!r}"
                    )
                fwd, bwds = builder(self, ins)
                # Compiled compound kernels carry the op-span name the
                # real kernel would have opened itself (call-through
                # ops span themselves, so they stay unwrapped here).
                span = getattr(fwd, "_span", None) or _SPAN_NAMES.get(ins.op)
                fwd_entries.append((ins.op, span, fwd))
                for s, fn in bwds.items():
                    bwd_map[s] = (fn, span)

            sched = []
            for s in order:
                entry = bwd_map.get(s)
                if entry is None:
                    raise TraceBuildError(
                        f"no backward kernel recorded for slot {s}"
                    )
                fn, span = entry
                sched.append(
                    (s, fn, span + ".backward" if span else None)
                )
            self.bwd_sched = sched
            self.fwd_named = [(span, fn) for _, span, fn in fwd_entries]
            self.fwd_fast, self.eltwise_runs = self._group_eltwise(
                fwd_entries
            )
        except Exception:
            self.close()
            raise

        self.n_instrs = len(instrs)
        self.buffer_bytes = sum(a.nbytes for a in self._owned)

    # -- build helpers (used by the kernel builders) --------------------
    def shape(self, slot: int) -> tuple:
        return self.rec_slots[slot].shape

    def dtype(self, slot: int):
        return self.rec_slots[slot].dtype

    def bind_buffer(self, slot: int) -> np.ndarray:
        """Acquire a persistent output buffer for ``slot`` and bind it
        as the slot tensor's data (kernels then write with ``out=``)."""
        sl = self.rec_slots[slot]
        buf = self._pool.acquire(sl.shape, sl.dtype)
        self._owned.append(buf)
        self.S[slot].data = buf
        return buf

    def scratch(self, shape, dtype) -> np.ndarray:
        """A persistent scratch array not bound to any slot (masks)."""
        arr = self._pool.acquire(shape, dtype)
        self._owned.append(arr)
        return arr

    def adopt_grad(self, slot: int) -> np.ndarray | None:
        """A persistent gradient buffer for ``slot``, or None.

        Only granted for NODE slots with exactly one gradient
        contribution: the owning kernel writes the gradient into the
        buffer and assigns ``S[slot].grad`` directly — the same values
        ``_accumulate`` would have copied in, without the per-step
        allocation.  The slot is excluded from pool release so the
        buffer survives the backward walk.
        """
        sl = self.rec_slots[slot]
        if sl.kind != NODE or self.contrib.get(slot, 0) != 1:
            return None
        buf = self._pool.acquire(sl.shape, sl.dtype)
        self._owned.append(buf)
        self.no_release.add(slot)
        return buf

    def fast_edge(self, in_slot: int, out_slot: int) -> bool:
        """True when the single gradient contribution to ``in_slot``
        may be stored as a view of ``out_slot``'s gradient instead of
        the defensive copy ``_accumulate`` makes.  Both slots are then
        excluded from pool release (the view pins the base)."""
        sl_in = self.rec_slots[in_slot]
        if sl_in.kind != NODE:
            return False
        if self.contrib.get(in_slot, 0) != 1:
            return False
        if sl_in.dtype != self.rec_slots[out_slot].dtype:
            return False
        self.no_release.add(in_slot)
        self.no_release.add(out_slot)
        return True

    # -- peephole passes ------------------------------------------------
    @staticmethod
    def _fuse_conv_relu(instrs: list, order: list) -> int:
        """Rewrite ``conv2d`` (activation=None) followed by its sole
        consumer ``relu`` into one ``conv2d(activation="relu")`` node —
        the fused epilogue :func:`~repro.tensor.ops_conv.conv2d`
        documents as bit-identical to the composed form.  The fused
        backward runs at the conv's recorded position; every
        contribution to the relu output lands strictly earlier (the
        relu's own position precedes the conv's in the recorded
        order), so accumulation order is unchanged."""
        consumers: dict[int, list] = {}
        for ins in instrs:
            for s in ins.ins:
                consumers.setdefault(s, []).append(ins)
        fused = 0
        for ins in list(instrs):
            if ins.op != "conv2d" or ins.attrs.get("activation") is not None:
                continue
            (out,) = ins.outs
            users = consumers.get(out, [])
            if len(users) != 1 or users[0].op != "relu":
                continue
            relu_ins = users[0]
            if relu_ins.ins.count(out) != 1:
                continue
            ins.attrs = dict(ins.attrs, activation="relu")
            relu_out = relu_ins.outs[0]
            ins.outs = (relu_out,)
            instrs.remove(relu_ins)
            # The conv's backward entry now belongs to the fused output
            # slot; the relu's own entry disappears.
            order[:] = [
                relu_out if s == out else s
                for s in order
                if s != relu_out
            ]
            fused += 1
        return fused

    @staticmethod
    def _group_eltwise(fwd_entries: list) -> tuple[list, int]:
        """Group consecutive elementwise kernels into single schedule
        entries: one Python call dispatches the whole run of in-place
        epilogues over the pooled buffers."""
        fast: list = []
        runs = 0
        pending: list = []

        def flush():
            nonlocal runs
            if len(pending) == 1:
                fast.append(pending[0])
            elif pending:
                chain = tuple(pending)

                def run(chain=chain):
                    for fn in chain:
                        fn()

                fast.append(run)
                runs += 1
            pending.clear()

        for op, _span, fn in fwd_entries:
            if op in _ELTWISE:
                pending.append(fn)
            else:
                flush()
                fast.append(fn)
        flush()
        return fast, runs

    # -- execution ------------------------------------------------------
    def replay(self, inputs, target) -> float:
        """Run one recorded step over fresh batch data; returns the
        loss value.  Parameter gradients accumulate exactly as in the
        eager step that was recorded."""
        if self._closed:
            raise RuntimeError("replay() on a closed TracedProgram")
        S = self.S
        for slot, t in zip(self.ext_slots, (*inputs, target)):
            S[slot].data = t.data

        # The whole step runs under the program's private pool: grads
        # released below are re-acquired by next replay's kernels, and
        # the shared pool's residency is untouched by replaying.
        with use_pool(self._replay_pool):
            instrumented = profiler_recording()
            if instrumented:
                for span, fn in self.fwd_named:
                    if span is None:
                        fn()
                    else:
                        with op_span(span):
                            fn()
            else:
                for fn in self.fwd_fast:
                    fn()

            root = S[self.root_slot]
            loss_value = root.data.item()
            # Seed the root gradient exactly like Tensor.backward().
            root._accumulate(np.ones_like(root.data))

            pool = self._replay_pool
            no_release = self.no_release
            for s, fn, span in self.bwd_sched:
                t = S[s]
                g = t.grad
                if g is None:
                    continue
                if instrumented and span is not None:
                    with op_span(span):
                        fn(g)
                else:
                    fn(g)
                t.grad = None
                # Mirror the graph-freeing walk: finished intermediate
                # gradients go back to the pool (same pre-filter as
                # Tensor._release).
                if (
                    s not in no_release
                    and g.base is None
                    and g.flags.c_contiguous
                    and g.nbytes
                ):
                    pool.release(g)
        return loss_value

    def close(self) -> None:
        """Release the persistent buffers back to the pool."""
        if self._closed:
            return
        self._closed = True
        for arr in self._owned:
            self._pool.release(arr)
        self._owned = []
        self._replay_pool.reset()

    def stats(self) -> dict:
        return {
            "instrs": self.n_instrs,
            "fused_conv_relu": self.fused_conv_relu,
            "eltwise_runs": self.eltwise_runs,
            "buffer_bytes": self.buffer_bytes,
            "backward_entries": len(self.bwd_sched),
            "replay_pool_arrays": len(self._replay_pool),
            "replay_pool_bytes": self._replay_pool.bytes,
        }


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

    def __init__(self, model, loss_fn, free_graph: bool = True):
        self.model = model
        self.loss_fn = loss_fn
        self.free_graph = free_graph
        self.program: TracedProgram | None = None
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
                return self.program.replay(inputs, target)
            else:
                # Shape/dtype mismatch (e.g. a smaller final batch):
                # run this step eagerly, keep the program for the next
                # full-size batch.
                return self._eager(
                    inputs, target, fallback=True, reason="signature_mismatch"
                )
        return self._capture(inputs, target, sig)

    def close(self) -> None:
        if self.program is not None:
            self.program.close()
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
            out["program"] = self.program.stats()
        return out

    # -- internals ------------------------------------------------------
    def _signature(self, inputs, target):
        # The backend is part of the signature: compiled conv kernels
        # bake in the accelerated strategy, so a backend switch must
        # fall back to eager rather than replay stale kernels.
        return (
            get_backend(),
            tuple(
                (t.shape, str(t.dtype), bool(t.requires_grad))
                for t in (*inputs, target)
            ),
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
            loss.backward(free_graph=self.free_graph)
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
                    loss.backward(free_graph=self.free_graph)
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
        try:
            program = TracedProgram(rec)
        except TraceBuildError as exc:
            self._disable(str(exc))
            return loss_value
        program.signature = sig
        self.program = program
        self._sig = sig
        self._params = [
            (p, p.requires_grad) for p in self.model.parameters()
        ]
        self._modes = [
            (module, module.training)
            for _, module in self.model.named_modules()
        ]
        return loss_value
