"""Checks of the test oracles themselves."""

import numpy as np

from rknet import ops
from rknet.tensor import Parameter, Tape, Tensor, backward

from oracles import fd_gradcheck, mean_all, nearest_relu_input


def relu_of_scaled_input(w_value):
    """A float64 model relu(w * x) with one weight: its ReLU inputs are w and 2w."""
    w = Parameter(Tensor(np.full((1, 1, 1, 1), w_value), dtype="float64"), "w")
    x = Tensor(np.array([[[[1.0, 2.0]]]]), dtype="float64")

    def loss_fn():
        return mean_all(ops.relu(ops.conv2d(x, w.value))).data

    with Tape() as tape:
        loss = mean_all(ops.relu(ops.conv2d(x, w.value)))
    backward(tape, loss)
    return w, loss_fn


def test_a_relu_input_1e_7_from_0_is_named_as_a_kink():
    w, loss_fn = relu_of_scaled_input(1e-7)
    worst = fd_gradcheck(loss_fn, [w], np.random.default_rng(0), n_coords=1)
    assert worst > 0.1   # the difference straddles the kink
    assert nearest_relu_input(loss_fn, w, 0, 1e-5) < 1e-5
    assert "w[0]; a ReLU input within h=1e-05 of 0" in repr(worst)
    assert str(worst) == repr(worst)
    assert w.value.data[0, 0, 0, 0] == 1e-7   # the evaluations restore the value


def test_a_relu_input_far_from_0_is_not_named_as_a_kink():
    w, loss_fn = relu_of_scaled_input(0.5)
    worst = fd_gradcheck(loss_fn, [w], np.random.default_rng(0), n_coords=1)
    assert worst < 1e-8
    assert nearest_relu_input(loss_fn, w, 0, 1e-5) > 0.4
    assert "w[0]; no ReLU input within h=1e-05 of 0" in repr(worst)
    assert ops.relu.__name__ == "relu"   # the watch is removed again


def test_a_nan_gradient_is_the_worst_error_and_named():
    w = Parameter(Tensor(np.array([1.0, 2.0, 3.0]), dtype="float64"), "w")

    def loss_fn():
        return ops.sum_all(w.value).data

    w.grad.data[...] = np.nan   # a backward that returned NaN
    worst = fd_gradcheck(loss_fn, [w], np.random.default_rng(0), n_coords=3)
    assert np.isnan(worst)
    assert worst.where[1] is w
    assert repr(worst).startswith("nan at w[")
    # one NaN coordinate, checked first (seed 1 visits 0, 1, 2), stays the worst
    w.grad.data[...] = [np.nan, 1.0, 1.0]
    worst = fd_gradcheck(loss_fn, [w], np.random.default_rng(1), n_coords=3)
    assert np.isnan(worst) and worst.where[2] == 0
