"""Span tracer that times rknet's layers from outside the package.

``Tracer.installed()`` replaces the public functions and block methods of
``rknet.tensor``, ``ops``, ``blocks``, ``network``, ``train`` and ``data`` with
wrappers that record one span per call, and restores the originals on exit.
Every tape node's ``backward_fn`` is wrapped too, so backward time is measured
per node and charged to the op call (and through it the scope and the blocks)
that recorded the node.  Nothing in ``src/rknet`` changes.

A span holds its name, start, end, parent span and batch id.  Spans stay in
memory; ``Tracer.spans`` is written out by the caller when the run ends.
"""

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from rknet import blocks, data, network, ops, tensor, train

# every public op that records tape nodes, so that no node's backward goes
# unattributed; BENCHMARK.json reports the first eleven
TRACED_OPS = ("conv2d", "batchnorm2d", "relu", "dropout", "concat_channels", "add",
              "avgpool2d", "global_avg_pool", "fully_connected", "mul_channelwise",
              "softmax_cross_entropy", "sigmoid", "exp", "scale", "mul_scalar",
              "split_channels", "broadcast_plane", "sum_all")
BLOCKS = {"erk": blocks.ErkStepBlock, "irk": blocks.IrkStepBlock,
          "time_channel": blocks.TimeChannelStepBlock, "growth_unit": blocks.GrowthUnit,
          "transition": blocks.TransitionLayer, "attentional_gate": blocks.AttentionalGate}
# module-level functions wrapped as spans; train.py imports augment_cifar and
# backward by name, so those are patched in both modules
FUNCTIONS = (
    (network, "forward", "network.forward"),
    (network, "build_model", "network.build_model"),
    (train, "train_epochs", "train.train_epochs"),
    (train, "evaluate", "train.evaluate"),
    (train, "sgd_nesterov_step", "train.sgd_nesterov_step"),
    (data, "gen_synthetic_shapes", "data.gen_synthetic_shapes"),
    (data, "augment_cifar", "data.augment_cifar"),
    (train, "augment_cifar", "data.augment_cifar"),
)
ACCOUNTING = "trace.tape_accounting"
BACKWARD = "tensor.backward"


class Span:
    __slots__ = ("name", "start", "end", "parent", "batch", "scope", "origin",
                 "tape_bytes", "flop", "operand_bytes")

    def __init__(self, name, start, parent, batch):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent       # index of the enclosing span, -1 at the root
        self.batch = batch         # -(i+1) in set-up repeat i, else the window's batch id
        self.scope = None          # op calls: op_scope path
        self.origin = None         # backward spans: index of the op call that made the node
        self.tape_bytes = 0        # op calls: bytes first kept alive by their nodes
        self.flop = 0              # conv2d calls: forward operations, computed from shapes
        self.operand_bytes = ()    # conv2d: (x, w, out) bytes; concat_channels: (out,)


class _TimedBackward:
    """Stands in for a node's backward_fn and records a span around it."""

    __slots__ = ("fn", "tracer", "origin")

    def __init__(self, fn, tracer, origin):
        self.fn = fn
        self.tracer = tracer
        self.origin = origin

    def __call__(self, gout):
        tracer = self.tracer
        name = tracer.spans[self.origin].name if self.origin >= 0 else "tape.node"
        span = tracer.open(name + ":bwd")
        span.origin = self.origin
        try:
            return self.fn(gout)
        finally:
            tracer.close(span)


def _base(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _held_arrays(obj, out):
    if isinstance(obj, np.ndarray):
        out.append(obj)
    elif isinstance(obj, tensor.Tensor):
        out.append(obj.data)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _held_arrays(item, out)


def node_arrays(node):
    """The output array of a tape node plus the arrays its backward closure captures."""
    fn = node.backward_fn
    fn = fn.fn if isinstance(fn, _TimedBackward) else fn
    held = [node.output.data]
    for cell in fn.__closure__ or ():
        try:
            _held_arrays(cell.cell_contents, held)
        except ValueError:   # empty cell
            pass
    return held


class Tracer:
    """Records spans at the layer boundaries of rknet while installed."""

    def __init__(self, batch_span):
        self.spans = []
        self.tapes = []            # (batch, nodes, bytes) per backward pass
        self.batch = -1
        self.batch_span = batch_span   # the span whose end closes a batch
        self._stack = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1, self.batch)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name == self.batch_span and self.batch >= 0:
            self.batch += 1

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
        return traced

    def _wrap_op(self, op, fn):
        tracer = self
        name = "ops." + op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            span.scope = tensor.current_scope()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if op == "conv2d":
                x, w = args[0], args[1]
                n, o, oh, ow = out.shape
                span.flop = 2 * n * oh * ow * o * w.data[0].size
                span.operand_bytes = (x.data.nbytes, w.data.nbytes, out.data.nbytes)
            elif op == "concat_channels":
                span.operand_bytes = (out.data.nbytes,)
            return out
        return traced

    def _wrap_record(self, record):
        tracer = self

        @functools.wraps(record)
        def traced(tape, inputs, output, backward_fn):
            origin = tracer._stack[-1] if tracer._stack else -1
            return record(tape, inputs, output, _TimedBackward(backward_fn, tracer, origin))
        return traced

    def _wrap_backward(self, backward):
        tracer = self

        @functools.wraps(backward)
        def traced(tape, loss):
            acct = tracer.open(ACCOUNTING)
            try:
                tracer.account_tape(tape)
            finally:
                tracer.close(acct)
            span = tracer.open(BACKWARD)
            try:
                return backward(tape, loss)
            finally:
                tracer.close(span)
        return traced

    def account_tape(self, tape):
        """Charge every byte the tape keeps alive to the op call that first holds it.

        Parameters are excluded: they live whether or not a tape exists.
        """
        seen = {id(_base(p.value.data)) for p in tape._param_tensors.values()}
        total = 0
        for node in tape._nodes:
            fn = node.backward_fn
            owner = self.spans[fn.origin] if isinstance(fn, _TimedBackward) and fn.origin >= 0 else None
            for arr in node_arrays(node):
                base = _base(arr)
                if id(base) in seen:
                    continue
                seen.add(id(base))
                total += base.nbytes
                if owner is not None:
                    owner.tape_bytes += base.nbytes
        self.tapes.append((self.batch, len(tape._nodes), total))

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the wrappers in; the originals are restored on exit."""
        patches = [(tensor.Tape, "record", self._wrap_record(tensor.Tape.record))]
        traced_backward = self._wrap_backward(tensor.backward)
        patches += [(tensor, "backward", traced_backward), (train, "backward", traced_backward)]
        patches += [(ops, op, self._wrap_op(op, getattr(ops, op))) for op in TRACED_OPS]
        patches += [(cls, "forward", self._wrap("blocks." + kind, cls.forward))
                    for kind, cls in BLOCKS.items()]
        patches += [(mod, attr, self._wrap(name, getattr(mod, attr)))
                    for mod, attr, name in FUNCTIONS]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapper in patches:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)


def _ms(seconds):
    return seconds * 1e3


def summarize(tracer, batches):
    """Per-layer metrics and the per-scope table of the traced window.

    Every value is per batch of the window.  Self time is a span's duration
    minus the time its child spans cover.
    """
    spans = tracer.spans
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.end - s.start
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    block_bwd, tape_bytes, flop, moved = (defaultdict(float), defaultdict(int),
                                          defaultdict(int), defaultdict(int))
    scopes = defaultdict(lambda: [0.0, 0.0, 0])   # fwd seconds, bwd seconds, tape bytes
    accounted = 0.0
    for i, s in enumerate(spans):
        if s.batch < 0:
            continue
        d = s.end - s.start
        calls[s.name] += 1
        total[s.name] += d
        self_time[s.name] += d - children[i]
        if s.name != ACCOUNTING:
            accounted += d - children[i]
        if s.name.startswith("ops.") and s.origin is None:
            scopes[s.scope][0] += d
            scopes[s.scope][2] += s.tape_bytes
            tape_bytes[s.name] += s.tape_bytes
            flop[s.name] += s.flop
            moved[s.name] += sum(s.operand_bytes)
        elif s.origin is not None and s.origin >= 0:
            op = spans[s.origin]
            scopes[op.scope][1] += d
            if op.name == "ops.conv2d":  # gx and gw: twice the forward work
                x_bytes, w_bytes, out_bytes = op.operand_bytes
                flop[op.name] += 2 * op.flop
                moved[op.name] += out_bytes + 2 * x_bytes + 2 * w_bytes
            kinds, p = set(), op.parent
            while p >= 0:
                if spans[p].name.startswith("blocks."):
                    kinds.add(spans[p].name)
                p = spans[p].parent
            for kind in kinds:
                block_bwd[kind] += d

    per = max(batches, 1)
    mib = 1.0 / (1 << 20)
    m = {}
    for op in TRACED_OPS:
        name = "ops." + op
        m[name + ".calls"] = calls[name] / per
        m[name + ".fwd_ms"] = _ms(total[name]) / per
        m[name + ".bwd_ms"] = _ms(total[name + ":bwd"]) / per
        m[name + ".tape_mib"] = tape_bytes[name] * mib / per
    conv_s = total["ops.conv2d"] + total["ops.conv2d:bwd"]
    m["ops.conv2d.gflop"] = flop["ops.conv2d"] / 1e9 / per
    m["ops.conv2d.mib_moved"] = moved["ops.conv2d"] * mib / per
    m["ops.conv2d.gflops_per_s"] = flop["ops.conv2d"] / 1e9 / conv_s if conv_s else 0.0
    m["ops.concat_channels.mib_copied"] = moved["ops.concat_channels"] * mib / per
    for kind in BLOCKS:
        name = "blocks." + kind
        m[name + ".calls"] = calls[name] / per
        m[name + ".fwd_ms"] = _ms(total[name]) / per
        m[name + ".bwd_ms"] = _ms(block_bwd[name]) / per
    window_tapes = [t for t in tracer.tapes if t[0] >= 0]
    m["tensor.nodes"] = sum(t[1] for t in window_tapes) / per
    m["tensor.tape_mib"] = sum(t[2] for t in window_tapes) * mib / per
    m["tensor.backward_ms"] = _ms(total[BACKWARD]) / per
    m["tensor.backward_self_ms"] = _ms(self_time[BACKWARD]) / per
    m["train.step_ms"] = _ms(max(0.0, total["train.train_epochs"] - total["train.evaluate"])) / per
    m["train.sgd_step_ms"] = _ms(total["train.sgd_nesterov_step"]) / per
    m["train.evaluate_ms"] = _ms(total["train.evaluate"]) / per
    m["train.self_ms"] = _ms(self_time["train.train_epochs"] + self_time["train.evaluate"]) / per
    m["data.augment_cifar.calls"] = calls["data.augment_cifar"] / per
    m["data.augment_cifar.ms"] = _ms(total["data.augment_cifar"]) / per
    m["network.forward_ms"] = _ms(total["network.forward"]) / per
    m["network.forward_self_ms"] = _ms(self_time["network.forward"]) / per
    for name in ("network.build_model", "data.gen_synthetic_shapes"):
        m[name + "_ms"] = _ms(_median_setup_total(spans, name))
    m["trace.accounted_batch_ms"] = _ms(accounted) / per
    scope_table = {scope: {"fwd_ms": _ms(f) / per, "bwd_ms": _ms(b) / per, "tape_mib": t * mib / per}
                   for scope, (f, b, t) in sorted(scopes.items())}
    return m, scope_table


def _median_setup_total(spans, name):
    """Median over set-up repeats of the time one repeat spends in spans called ``name``."""
    per_repeat = {}
    for s in spans:
        if s.batch < 0:
            per_repeat[s.batch] = per_repeat.get(s.batch, 0.0) + (
                s.end - s.start if s.name == name else 0.0)
    return statistics.median(per_repeat.values()) if per_repeat else 0.0


def span_rows(tracer):
    """Spans as compact rows for the result file: name, start, end, parent, batch."""
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    return [[s.name, round(_ms(s.start - t0), 4), round(_ms(s.end - t0), 4), s.parent, s.batch]
            for s in tracer.spans]
