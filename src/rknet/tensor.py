"""Dense tensors, named parameters, and a reverse-mode gradient tape.

The tape records every differentiable op executed while it is active and
replays them in exact reverse order on ``backward``.  A tape is single-use.
Gradients accumulate additively into ``Parameter.grad`` until ``zero_grad``.

Every tensor has a serial number, unique in the process.  A tape node keeps
the serials of its op's inputs and output and only a weak reference to the
output, so an intermediate that no backward closure reads is freed as soon as
the forward drops it.  Gradients are keyed by serial, not by ``id()``, which
a new tensor can take over from a freed one.
"""

import itertools
import weakref
from contextlib import contextmanager

import numpy as np

DTYPES = {"float32": np.float32, "float64": np.float64}


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class TapeError(RuntimeError):
    """Raised on misuse of the gradient tape (reuse, non-scalar loss, ...)."""


class NonFiniteError(FloatingPointError):
    """Raised in debug mode when an op produces a NaN/Inf value."""

    def __init__(self, label):
        super().__init__(f"non-finite tensor produced at '{label}'")
        self.label = label


_SERIALS = itertools.count()


class Tensor:
    """A dense float array (row-major) used by all network math."""

    __slots__ = ("data", "_param", "serial", "__weakref__")

    def __init__(self, data, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(DTYPES[dtype], copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self._param = None
        self.serial = next(_SERIALS)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return str(self.data.dtype)

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class Parameter:
    """A trainable tensor with a gradient slot and a stable name."""

    def __init__(self, value, name):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.grad = Tensor(np.zeros_like(self.value.data))
        self.name = name
        self.value._param = self

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad.data[...] = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class _Node:
    """One recorded op: its input serials, its output serial, a weak reference
    to its output and the closure that maps the output's gradient to its inputs'."""

    __slots__ = ("inputs", "output_serial", "_output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = tuple(t.serial for t in inputs)
        self.output_serial = output.serial
        self._output = weakref.ref(output)
        self.backward_fn = backward_fn

    @property
    def output(self):
        """The output tensor while anything else holds it, else an empty tensor."""
        out = self._output()
        return Tensor(np.empty(0)) if out is None else out


_TAPE_STACK = []


class Tape:
    """Ordered record of executed differentiable operations."""

    def __init__(self):
        self._nodes = []
        self._param_tensors = {}
        self.consumed = False

    def record(self, inputs, output, backward_fn):
        self._nodes.append(_Node(inputs, output, backward_fn))
        for t in inputs:
            if t._param is not None:
                self._param_tensors[t.serial] = t._param

    def __len__(self):
        return len(self._nodes)

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _sums_into(target, acc, g):
    """Whether ``target`` (acc or g) can take acc + g in place: it has the
    sum's shape and dtype, so a mixed-dtype sum still promotes."""
    return target.shape == acc.shape == g.shape and target.dtype == np.result_type(acc, g)


def backward(tape, loss):
    """Run the tape in reverse, accumulating d(loss)/d(param) into grads.

    ``loss`` must be a scalar tensor produced while ``tape`` was active.
    Parameters not reachable from the loss keep their current grads.

    A tensor read by several ops gets the sum of their gradients, in tape
    order.  The pass sums in place into a gradient it owns: one it summed
    itself, or a fresh array a closure returned, that is an ndarray with no
    base, not the closure's ``gout`` and only once in its tuple.  This rests
    on the contract every backward closure keeps (see ``ops``): for each
    input it returns None, ``gout`` itself, a view of ``gout``, or an array
    it allocated for that input alone and keeps no reference to.  Any other
    gradient (``gout`` handed on, a view, a numpy scalar) is never written.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if not any(node.output_serial == loss.serial for node in tape._nodes):
        raise TapeError("loss was not produced under this tape")
    tape.consumed = True

    grads = {loss.serial: np.ones_like(loss.data)}
    owned = set()   # serials whose stored gradient nothing but grads holds
    # pop each node as it runs, so its closure's arrays are freed during the pass
    nodes = tape._nodes
    while nodes:
        node = nodes.pop()
        gout = grads.pop(node.output_serial, None)
        owned.discard(node.output_serial)
        if gout is None:
            continue
        gins = tuple(node.backward_fn(gout))
        for serial, g in zip(node.inputs, gins):
            if g is None:
                continue
            fresh = (isinstance(g, np.ndarray) and g.base is None and g is not gout
                     and sum(x is g for x in gins) == 1)
            acc = grads.get(serial)
            if acc is not None:
                # in place only where acc + g has the array's shape and dtype;
                # g += acc is bitwise acc + g, as IEEE addition commutes
                if serial in owned and _sums_into(acc, acc, g):
                    acc += g
                    continue
                if fresh and _sums_into(g, acc, g):
                    g += acc
                else:
                    g = acc + g
                    fresh = isinstance(g, np.ndarray)   # a 0-d sum is a numpy scalar
            grads[serial] = g
            (owned.add if fresh else owned.discard)(serial)
        gins = acc = g = None   # dead once summed; freed before the next node's backward_fn

    for serial, param in tape._param_tensors.items():
        g = grads.get(serial)
        if g is not None:
            param.grad.data += g


# ---------------------------------------------------------------------------
# Debug-mode finite checks with op scope labels (used for NaN diagnostics).

_DEBUG_FINITE = False
_SCOPE_STACK = []


def set_debug(flag):
    """Enable per-op finite checks; ops raise NonFiniteError with a scope label."""
    global _DEBUG_FINITE
    _DEBUG_FINITE = bool(flag)


@contextmanager
def op_scope(label):
    """Name the region of the network currently executing (for diagnostics)."""
    _SCOPE_STACK.append(label)
    try:
        yield
    finally:
        _SCOPE_STACK.pop()


def current_scope():
    return "/".join(_SCOPE_STACK) if _SCOPE_STACK else "<unscoped>"


def check_finite(arr, what):
    if _DEBUG_FINITE and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{current_scope()}:{what}")
