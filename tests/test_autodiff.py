"""Tape semantics and gradient correctness of the autodiff engine."""

import inspect
import tracemalloc

import numpy as np
import pytest

from rknet import model_spec as ms
from rknet import network, ops
from rknet.tensor import Parameter, ShapeError, Tape, TapeError, Tensor, backward

from oracles import fd_gradcheck, mean_all


def make_param(rng, shape, name, scale=0.5):
    return Parameter(Tensor(rng.normal(size=shape) * scale, dtype="float64"), name)


def test_linear_map_gradient_is_input():
    # loss = sum(w . x) with fixed x  =>  d loss / d w = x
    x = Tensor(np.array([[1.0, -2.0, 3.0]]), dtype="float64")
    w = Parameter(Tensor(np.zeros((3, 1)), dtype="float64"), "w")
    b = Parameter(Tensor(np.zeros(1), dtype="float64"), "b")
    with Tape() as tape:
        loss = ops.sum_all(ops.fully_connected(x, w.value, b.value))
    backward(tape, loss)
    assert np.array_equal(w.grad.data, x.data.T)
    assert np.array_equal(b.grad.data, np.ones(1))


def test_grads_accumulate_over_fresh_tapes():
    x = Tensor(np.array([[1.0, 2.0]]), dtype="float64")
    w = Parameter(Tensor(np.ones((2, 1)), dtype="float64"), "w")
    b = Parameter(Tensor(np.zeros(1), dtype="float64"), "b")

    def run():
        with Tape() as tape:
            loss = ops.sum_all(ops.fully_connected(x, w.value, b.value))
        backward(tape, loss)

    run()
    once = w.grad.data.copy()
    run()
    assert np.array_equal(w.grad.data, 2 * once)
    w.zero_grad()
    assert np.all(w.grad.data == 0)


def test_unreached_parameters_keep_zero_grads():
    x = Tensor(np.ones((1, 2)), dtype="float64")
    used = Parameter(Tensor(np.ones((2, 1)), dtype="float64"), "used")
    unused = Parameter(Tensor(np.ones((2, 1)), dtype="float64"), "unused")
    b = Parameter(Tensor(np.zeros(1), dtype="float64"), "b")
    with Tape() as tape:
        loss = ops.sum_all(ops.fully_connected(x, used.value, b.value))
        ops.fully_connected(x, unused.value, b.value)  # computed but not in the loss
    backward(tape, loss)
    assert np.any(used.grad.data != 0)
    assert np.all(unused.grad.data == 0)


def test_tape_is_single_use():
    x = Tensor(np.ones((1, 2)), dtype="float64")
    w = Parameter(Tensor(np.ones((2, 1)), dtype="float64"), "w")
    b = Parameter(Tensor(np.zeros(1), dtype="float64"), "b")
    with Tape() as tape:
        loss = ops.sum_all(ops.fully_connected(x, w.value, b.value))
    backward(tape, loss)
    with pytest.raises(TapeError, match="consumed"):
        backward(tape, loss)


def test_backward_releases_the_tape_as_it_runs():
    # with the tape object still referenced, the arrays its nodes held are freed
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 8, 16, 16)), dtype="float64")
    w = make_param(rng, (8, 8, 3, 3), "w", scale=0.1)

    def forward():
        h = x
        for _ in range(6):
            h = ops.relu(ops.conv2d(h, w.value, stride=1, pad=1))
        return mean_all(h)

    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = forward()
        after_forward, _ = tracemalloc.get_traced_memory()
        backward(tape, loss)
        after_backward, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.any(w.grad.data != 0)
    assert after_backward < after_forward / 10, (after_forward, after_backward)


def captured(fn):
    """What a backward closure holds: its cells' contents, tuples and lists
    opened, and what the functions among them hold in turn."""
    held, todo = [], [fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            value = cell.cell_contents
            values = list(value) if isinstance(value, (tuple, list)) else [value]
            held += values
            todo += [v for v in values if inspect.isfunction(v)]
    return held


def test_backward_closures_hold_arrays_not_tensors():
    # the nodes name a closure's tensors; a closure that kept one as well would
    # keep its data alive for as long as the closure
    cfg = {"name": "RKNet-2x1_1x2_2x1", "kind": ["erk", "time_channel", "irk"], "k": 4,
           "input_shape": [3, 8, 8], "num_classes": 4, "attentional_transition": True,
           "multiscale": True}
    model = network.build_model(ms.spec_from_config(cfg), seed=0)
    model.dropout_p = 0.2
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
    nodes = []
    for mode in ("train", "eval"):
        with Tape() as tape:
            logits, _ = network.forward(model, x, mode=mode, rng=np.random.default_rng(1))
            ops.softmax_cross_entropy(logits, np.array([0, 1]))
        nodes += tape._nodes
    with Tape() as tape:   # the ops the model does not run
        parts = ops.split_channels(Tensor(np.ones((2, 3, 4, 4))), [1, 2])
        ops.scale(ops.sum_all(ops.concat_channels(parts)), 0.5)
    nodes += tape._nodes

    names = [node.backward_fn.__qualname__.split(".")[0] for node in nodes]
    recording = {name for name, fn in vars(ops).items() if inspect.isfunction(fn)
                 and name != "_emit" and "_emit(" in inspect.getsource(fn)}
    assert set(names) == recording
    for name, node in zip(names, nodes):
        held = captured(node.backward_fn)
        assert not any(isinstance(v, Tensor) for v in held), name
        if name == "batchnorm2d":   # it reads x and per-channel numbers, never its output
            assert all(v is not node.output.data for v in held)
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        if name == "conv2d":   # the input itself and the taps, no padded copy
            x_data, w_data = (t.data for t in node.inputs)
            assert any(v is x_data for v in arrays)
            assert all(v.size == w_data.size for v in arrays if v is not x_data)
        if name == "dropout":   # a boolean mask, not the scaled factors
            size = node.output.data.size
            assert [v.dtype for v in arrays if v.size == size] == [np.dtype(bool)]


def test_non_scalar_loss_rejected():
    x = Tensor(np.ones((2, 2)), dtype="float64")
    w = Parameter(Tensor(np.ones((2, 2)), dtype="float64"), "w")
    b = Parameter(Tensor(np.zeros(2), dtype="float64"), "b")
    with Tape() as tape:
        out = ops.fully_connected(x, w.value, b.value)
    with pytest.raises(TapeError, match="scalar"):
        backward(tape, out)


def test_loss_from_other_tape_rejected():
    x = Tensor(np.ones((1, 1)), dtype="float64")
    with Tape():
        loss = ops.sum_all(x)
    with Tape() as other:
        ops.sum_all(x)
    with pytest.raises(TapeError, match="not produced"):
        backward(other, loss)


def test_parameter_grad_shape_tracks_value():
    p = Parameter(Tensor(np.zeros((3, 4)), dtype="float32"), "p")
    assert p.grad.shape == p.value.shape
    assert p.grad.dtype == "float32"


def test_composed_network_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)), dtype="float64")
    w = make_param(rng, (4, 3, 3, 3), "conv.w")
    gamma = Parameter(Tensor(np.ones(4), dtype="float64"), "gamma")
    beta = Parameter(Tensor(np.zeros(4), dtype="float64"), "beta")
    fcw = make_param(rng, (4, 5), "fc.w")
    fcb = Parameter(Tensor(np.zeros(5), dtype="float64"), "fc.b")
    stats = (np.zeros(4), np.ones(4))
    labels = [0, 3]

    def loss_fn():
        h = ops.conv2d(x, w.value, stride=1, pad=1)
        h = ops.relu(ops.batchnorm2d(h, gamma.value, beta.value, *stats, "train"))
        h = ops.avgpool2d(h, 2, 2)
        logits = ops.fully_connected(ops.global_avg_pool(h), fcw.value, fcb.value)
        return ops.softmax_cross_entropy(logits, labels).data

    params = [w, gamma, beta, fcw, fcb]
    with Tape() as tape:
        h = ops.conv2d(x, w.value, stride=1, pad=1)
        h = ops.relu(ops.batchnorm2d(h, gamma.value, beta.value, *stats, "train"))
        h = ops.avgpool2d(h, 2, 2)
        logits = ops.fully_connected(ops.global_avg_pool(h), fcw.value, fcb.value)
        loss = ops.softmax_cross_entropy(logits, labels)
    backward(tape, loss)
    worst = fd_gradcheck(loss_fn, params, rng, n_coords=25)
    assert worst < 1e-4, f"max relative FD error {worst}"


@pytest.mark.parametrize("opname", ["relu", "sigmoid", "exp"])
def test_pointwise_gradients(opname):
    rng = np.random.default_rng(3)
    x = Parameter(Tensor(rng.normal(size=(2, 3, 4, 4)) * 0.7, dtype="float64"), "x")
    op = getattr(ops, opname)

    def loss_fn():
        return mean_all(ops.mul_scalar(op(x.value), s.value)).data

    s = Parameter(Tensor(np.array(1.3), dtype="float64"), "s")
    with Tape() as tape:
        loss = mean_all(ops.mul_scalar(op(x.value), s.value))
    backward(tape, loss)
    assert fd_gradcheck(loss_fn, [x, s], rng, n_coords=20) < 1e-4


def test_dtype_mismatch_and_shape_errors():
    a = Tensor(np.ones((2, 2)), dtype="float64")
    b = Tensor(np.ones((2, 3)), dtype="float64")
    with pytest.raises(ShapeError):
        ops.add(a, b)


def test_debug_mode_flags_nonfinite_outputs_with_scope():
    from rknet.tensor import NonFiniteError, op_scope, set_debug

    x = Tensor(np.array([[800.0]]), dtype="float64")
    set_debug(True)
    try:
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="stem.*exp"):
                with op_scope("stem"):
                    ops.exp(x)  # exp(800) overflows to inf
        with op_scope("stem"):
            ops.exp(Tensor(np.array([[1.0]]), dtype="float64"))  # finite passes
    finally:
        set_debug(False)
    # checks are off outside debug mode
    with np.errstate(over="ignore"):
        assert np.isinf(ops.exp(x).data[0, 0])
