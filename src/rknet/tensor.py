"""Dense tensors, named parameters, and a reverse-mode gradient tape.

The tape records every differentiable op executed while it is active and
replays them in exact reverse order on ``backward``.  A tape is single-use.
Gradients accumulate additively into ``Parameter.grad`` until ``zero_grad``.
"""

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


class Tensor:
    """A dense float array (row-major) used by all network math."""

    __slots__ = ("data", "_param")

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

    @property
    def dtype(self):
        return self.value.dtype

    def zero_grad(self):
        self.grad.data[...] = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class _Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_TAPE_STACK = []


class Tape:
    """Ordered record of executed differentiable operations."""

    def __init__(self):
        self._nodes = []
        self._param_tensors = {}
        self.consumed = False

    def record(self, inputs, output, backward_fn):
        self._nodes.append(_Node(tuple(inputs), output, backward_fn))
        for t in inputs:
            if t._param is not None:
                self._param_tensors[id(t)] = t._param

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


def backward(tape, loss):
    """Run the tape in reverse, accumulating d(loss)/d(param) into grads.

    ``loss`` must be a scalar tensor produced while ``tape`` was active.
    Parameters not reachable from the loss keep their current grads.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    tape.consumed = True

    grads = {id(loss): np.ones_like(loss.data)}
    produced = {id(node.output) for node in tape._nodes}
    if id(loss) not in produced:
        raise TapeError("loss was not produced under this tape")

    # pop each node as it runs, so its closure's arrays are freed during the pass
    nodes = tape._nodes
    while nodes:
        node = nodes.pop()
        gout = grads.pop(id(node.output), None)
        if gout is None:
            continue
        gins = node.backward_fn(gout)
        for t, g in zip(node.inputs, gins):
            if g is None:
                continue
            acc = grads.get(id(t))
            # never accumulate in place: a backward_fn may hand the same array
            # to several inputs (e.g. add), so stored grads must stay frozen
            grads[id(t)] = g if acc is None else acc + g

    for tid, param in tape._param_tensors.items():
        g = grads.get(tid)
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
