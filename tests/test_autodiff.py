"""Tape semantics and gradient correctness of the autodiff engine."""

import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from rknet import model_spec as ms
from rknet import network, ops
from rknet.blocks import ErkStepBlock, ParamStore
from rknet.rng import make_rng
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


def test_the_backward_holds_at_most_a_slack_beyond_the_tape():
    # A paper-shaped multiscale model at 16x16 and batch 16.  When each node's
    # backward starts, the pass may hold the tape the forward left plus a
    # slack: the gradients of a few of the last period's features.  So its
    # peak above the tape is at most one node's own pass, as the largest
    # growth unit's input gradients and scratch, plus the slack.  A dense
    # head gradient, (N, C, H, W) per pooled state where (N, C) would do,
    # would sit through the later periods' backward and break the bound.
    cfg = {"name": "ERKNet-3x2_3x2_3x2", "k": 12, "input_shape": [3, 16, 16],
           "num_classes": 4, "multiscale": True, "attentional_transition": True}
    model = network.build_model(ms.spec_from_config(cfg), seed=0, dtype="float32")
    x = np.random.default_rng(8).normal(size=(16, 3, 16, 16))
    labels = np.arange(16) % 4
    network.forward(model, x, mode="train")   # starts the chunk pool outside the measurement
    starts = []

    def watched(fn):
        def backward_fn(gout):
            starts.append(tracemalloc.get_traced_memory()[0])
            return fn(gout)
        return backward_fn

    tracemalloc.start()
    try:
        with Tape() as tape:
            logits, states = network.forward(model, x, mode="train")
            loss = ops.softmax_cross_entropy(logits, labels)
        slack = 4 * states[-1].data.nbytes   # 48 KiB
        del logits, states
        for node in tape._nodes:
            node.backward_fn = watched(node.backward_fn)
        tape_bytes, _ = tracemalloc.get_traced_memory()
        backward(tape, loss)
    finally:
        tracemalloc.stop()
    held = max(starts) - tape_bytes
    assert held <= slack, (held, slack)


def test_backward_frees_each_readers_gradient_once_it_is_summed():
    # y has two readers; when y's producer runs, at most one of their arrays
    # may be alive, and only as the sum itself: the backward sums the second
    # reader's gradient into the first's fresh array, and frees the second
    per_reader, alive = [], []

    def reader_backward(g):
        gin = g * np.ones(3)   # a fresh array per reader
        per_reader.append(weakref.ref(gin))
        return (gin,)

    def producer_backward(g):
        alive.append([ref() for ref in per_reader if ref() is not None])
        alive.append(g)
        return (None,)

    x = Tensor(np.ones(3), dtype="float64")
    with Tape() as tape:
        y, a, b = (Tensor(np.ones(3), dtype="float64") for _ in range(3))
        tape.record((x,), y, producer_backward)
        tape.record((y,), a, reader_backward)
        tape.record((y,), b, reader_backward)
        loss = ops.sum_all(ops.add(a, b))
    backward(tape, loss)
    held, total = alive
    assert len(held) <= 1 and all(arr is total for arr in held), len(held)
    assert np.array_equal(total, np.full(3, 2.0))


def out_of_place_grads(tape, loss):
    """Every tensor's gradient by the rule that owns nothing: each sum a new
    array, ``acc + g``, in tape order."""
    grads = {loss.serial: np.ones_like(loss.data)}
    for node in reversed(tape._nodes):
        gout = grads.pop(node.output_serial, None)
        if gout is not None:
            for serial, g in zip(node.inputs, node.backward_fn(gout)):
                if g is not None:
                    grads[serial] = grads[serial] + g if serial in grads else g
    return grads


def check_in_place_sums(build):
    """``build()`` returns (params, tape, loss, held): a fresh graph under a
    tape, and (array, copy) pairs for arrays that its closures hold.
    Backward must give every parameter the out-of-place rule's gradient
    bitwise, and write none of the held arrays or the parameters' values."""
    params, tape, loss, _ = build()
    grads = out_of_place_grads(tape, loss)
    want = []
    for p in params:
        ref = np.zeros_like(p.grad.data)
        ref += grads[p.value.serial]
        want.append(ref)
    params, tape, loss, held = build()
    held += [(p.value.data, p.value.data.copy()) for p in params]
    backward(tape, loss)
    for p, ref in zip(params, want):
        assert p.grad.data.dtype == ref.dtype and p.grad.data.tobytes() == ref.tobytes(), p.name
    for arr, copy in held:
        assert arr.tobytes() == copy.tobytes()


def leaf(name, shape, seed, dtype="float64"):
    rng = np.random.default_rng(seed)
    return Parameter(Tensor(rng.normal(size=shape), dtype=dtype), name)


def reader(held, fn):
    """A one-input op whose backward is fn(gout), with every array it
    returns and gout recorded in ``held`` as (array, copy) at return time."""
    def backward_fn(gout):
        gins = fn(gout)
        held.extend((a, a.copy()) for a in (gout, *gins) if isinstance(a, np.ndarray))
        return gins
    return backward_fn


def record(tape, inputs, backward_fn):
    out = Tensor(np.ones(inputs[0].shape), dtype=inputs[0].dtype)
    tape.record(inputs, out, backward_fn)
    return out


def test_a_fresh_array_handed_to_two_inputs_is_not_summed_into():
    # pair hands one new array to u and v; a later-summed reader of u must
    # not add into it, or v's gradient would change with u's
    def build():
        u, v = leaf("u", (2, 3), 1), leaf("v", (2, 3), 2)
        held = []
        with Tape() as tape:
            m = record(tape, (u.value,), lambda g: (g * 3.0,))

            def pair(g):
                shared = g * 2.0
                held.append((shared, shared.copy()))
                return shared, shared

            t = record(tape, (u.value, v.value), pair)
            loss = ops.sum_all(ops.add(m, t))
        return [u, v], tape, loss, held

    check_in_place_sums(build)


def test_adds_shared_gradient_is_not_summed_into_through_an_identity_reader():
    # add hands its gout to every term; an identity closure hands it on to
    # y, so y's gradient is add's array, which c's gradient still is
    def build():
        y, c = leaf("y", (2, 3), 3), leaf("c", (2, 3), 4)
        held = []
        with Tape() as tape:
            a = record(tape, (y.value,), reader(held, lambda g: (g,)))
            b = record(tape, (y.value,), reader(held, lambda g: (g,)))
            loss = ops.sum_all(ops.add(a, b, c.value))
        return [y, c], tape, loss, held

    check_in_place_sums(build)


def test_concat_channels_views_are_not_summed_into():
    # concat hands u and v views of its gout; u's later reader must not add
    # into u's view
    def build():
        u, v = leaf("u", (2, 3, 2, 2), 5), leaf("v", (2, 2, 2, 2), 6)
        held = []
        with Tape() as tape:
            s = ops.sigmoid(u.value)
            joined = ops.concat_channels([u.value, v.value])
            out = record(tape, (joined,), reader(held, lambda g: (g * 2.0,)))
            loss = ops.add(ops.sum_all(out), ops.sum_all(s))
        return [u, v], tape, loss, held

    check_in_place_sums(build)


def test_a_0d_gradient_chain_keeps_every_term():
    # exp's and scale's 0-d gradients are numpy scalars, which no sum may own
    def build():
        theta, x = leaf("theta", (), 7), leaf("x", (2, 3), 8)
        with Tape() as tape:
            ratios = [ops.exp(theta.value), ops.scale(theta.value, 3.0), ops.exp(theta.value)]
            loss = ops.sum_all(ops.add(*(ops.mul_scalar(x.value, r) for r in ratios)))
        return [theta, x], tape, loss, []

    check_in_place_sums(build)


def test_float32_and_float64_terms_sum_as_acc_plus_g():
    # the float32 array that owns y's first sum must not take a float64
    # term in place: acc + g promotes it, and y's producer hands the
    # float64 sum on to a float64 parameter
    def build():
        p = leaf("p", (2, 3), 9)
        with Tape() as tape:
            y = Tensor(np.ones((2, 3)), dtype="float32")
            tape.record((p.value,), y, lambda g: (g / np.float64(3.0),))
            wide = record(tape, (y,), lambda g: (g / np.float64(3.0),))
            narrow = [record(tape, (y,), lambda g, d=d: (g / np.float32(d),))
                      for d in (7.0, 11.0)]
            loss = ops.sum_all(ops.add(wide, *narrow))
        return [p], tape, loss, []

    check_in_place_sums(build)


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
    # a closure that kept a tensor would keep its data alive for as long as the closure
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
        ops.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3),
                        "train")
    nodes += tape._nodes

    names = [node.backward_fn.__qualname__.split(".")[0] for node in nodes]
    recording = {name for name, fn in vars(ops).items() if inspect.isfunction(fn)
                 and name != "_emit" and "_emit(" in inspect.getsource(fn)}
    assert set(names) == recording
    for name, node in zip(names, nodes):
        assert not any(isinstance(v, Tensor) for v in captured(node.backward_fn)), name

    # what three closures hold, each checked while the test holds the op's tensors
    w = Tensor(np.random.default_rng(1).normal(size=(4, 3, 3, 3)))
    with Tape() as tape:
        ops.conv2d(x, w, stride=1, pad=1)
    arrays = [v for v in captured(tape._nodes[-1].backward_fn) if isinstance(v, np.ndarray)]
    # the input itself and the taps, no padded copy
    assert any(v is x.data for v in arrays)
    assert all(v.size == w.size for v in arrays if v is not x.data)
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    for mode in ("train", "eval"):
        with Tape() as tape:
            out = ops.batchnorm2d(x, gamma, beta, np.zeros(3), np.ones(3), mode)
        # it reads x and per-channel numbers, never its output
        assert all(v is not out.data for v in captured(tape._nodes[-1].backward_fn)), mode
    with Tape() as tape:
        out = ops.dropout(x, 0.2, "train", np.random.default_rng(2))
    arrays = [v for v in captured(tape._nodes[-1].backward_fn) if isinstance(v, np.ndarray)]
    # a boolean mask, not the scaled factors
    assert [v.dtype for v in arrays if v.size == out.size] == [np.dtype(bool)]


def test_a_growth_units_conv_closure_holds_the_feature_arrays_themselves():
    # stage 2 reads [y, o_0, o_1] as they are: no concat, batchnorm or relu output
    blk = ErkStepBlock(ParamStore("float32"), "b", 3, 1, 4, rng=make_rng(0, "closure"))
    y = Tensor(np.random.default_rng(5).normal(size=(2, 4, 6, 6)), dtype="float32")
    with Tape() as tape:
        _, groups = blk.forward(y, mode="train")
    feats = [y, *groups[:2]]
    node = next(n for n in tape._nodes if n.inputs[:3] == tuple(t.serial for t in feats))
    assert node.backward_fn.__qualname__.startswith("conv2d.")
    arrays = [v for v in captured(node.backward_fn) if isinstance(v, np.ndarray)]
    for t in feats:
        assert any(v is t.data for v in arrays)
    others = [v for v in arrays if not any(v is t.data for t in feats)]
    w = blk.stages[2][0].w.value
    # the taps, and per-channel numbers of the 12 normalized channels
    assert others and all(v.size in (w.size, 12) for v in others), [v.shape for v in others]


def test_an_erk_steps_forward_keeps_about_its_feature_arrays():
    # what stays after the forward is y_{n+1} and the stage outputs, which
    # later units read, plus small change: the concats the units read and the
    # relu outputs conv2d read, 2.8 times those bytes here, no longer exist
    blk = ErkStepBlock(ParamStore("float32"), "b", 3, 1, 8, rng=make_rng(0, "features"))
    y = Tensor(np.random.default_rng(6).normal(size=(16, 8, 16, 16)), dtype="float32")
    blk.forward(y, mode="train")   # starts the chunk pool outside the measurement
    tracemalloc.start()
    try:
        with Tape() as tape:
            y_next, groups = blk.forward(y, mode="train")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    features = y_next.data.nbytes + sum(g.data.nbytes for g in groups)   # 512 KiB
    slack = 64 << 10   # tape nodes, closures, taps and per-channel numbers
    assert retained <= features + slack, (retained, features)
    assert len(tape) == 4   # one conv per stage and the summation layer


def test_an_intermediate_no_closure_reads_is_freed_during_the_forward():
    # relu's backward reads its output and concat's only channel offsets, so the
    # batchnorm output goes once relu has read it and the conv output once
    # concat_channels has copied it; the tape's weak view then reads empty
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)), dtype="float64")
    w = make_param(rng, (4, 3, 3, 3), "w")
    gamma = Parameter(Tensor(np.ones(3), dtype="float64"), "gamma")
    beta = Parameter(Tensor(np.zeros(3), dtype="float64"), "beta")

    def run(held):
        """One forward and backward; ``held`` is None or a list that keeps the
        intermediates alive.  Returns which arrays were freed by the end of the
        forward, the sizes of the tape's output views and the gradients."""
        with Tape() as tape:
            normed = ops.batchnorm2d(x, gamma.value, beta.value, np.zeros(3), np.ones(3), "train")
            normed_data = weakref.ref(normed.data)
            h = ops.relu(normed)
            conv = ops.conv2d(h, w.value, stride=1, pad=1)
            conv_data = weakref.ref(conv.data)
            joined = ops.concat_channels([h, conv])
            if held is not None:
                held += [normed, conv]
            del normed, conv
            loss = ops.sum_all(joined)
        freed = (normed_data() is None, conv_data() is None)
        sizes = [node.output.size for node in tape._nodes]
        backward(tape, loss)
        grads = [p.grad.data.copy() for p in (w, gamma, beta)]
        for p in (w, gamma, beta):
            p.zero_grad()
        return freed, sizes, grads

    freed, sizes, grads_held = run([])
    assert freed == (False, False)
    assert sizes[:4] == [x.size, x.size, 2 * 4 * 8 * 8, 2 * 7 * 8 * 8]
    freed, sizes, grads = run(None)
    assert freed == (True, True)
    assert sizes[:4] == [0, x.size, 0, 2 * 7 * 8 * 8]   # batchnorm, relu, conv, concat
    for p, before, after in zip((w, gamma, beta), grads_held, grads):
        assert np.array_equal(after, before), p.name


def test_gradients_stay_correct_when_a_freed_tensors_id_is_reused():
    # CPython hands a freed object's id() to a new one; keyed by id, the new
    # leaf's gradient would be added to the freed tensor's
    p = Parameter(Tensor(np.ones(3), dtype="float64"), "p")
    with Tape() as tape:
        doubled = ops.scale(p.value, 2.0)
        tripled = ops.scale(doubled, 3.0)   # its closure keeps only the constant
        freed = id(doubled)
        # made before the free, so that the loop allocates nothing but tensors
        # (a keyword-argument dict or an array could take the freed block)
        fresh, arrays = [None] * 100, [np.ones(3) for _ in range(100)]
        del doubled
        for i in range(len(fresh)):
            fresh[i] = Tensor(arrays[i])
            if id(fresh[i]) == freed:
                break
        leaf = fresh[i]
        assert id(leaf) == freed, "the scaled tensor was not freed, so its id stays taken"
        loss = ops.sum_all(ops.add(tripled, leaf))
    backward(tape, loss)
    assert np.array_equal(p.grad.data, np.full(3, 6.0))


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


def test_a_rejected_loss_leaves_the_tape_usable():
    # every check runs before the tape is consumed
    x = Tensor(np.array([[1.0, -2.0, 3.0]]), dtype="float64")
    w = Parameter(Tensor(np.zeros((3, 1)), dtype="float64"), "w")
    b = Parameter(Tensor(np.zeros(1), dtype="float64"), "b")
    with Tape() as tape:
        loss = ops.sum_all(ops.fully_connected(x, w.value, b.value))
    with Tape():
        stray = ops.sum_all(x)
    with pytest.raises(TapeError, match="not produced"):
        backward(tape, stray)
    with pytest.raises(TapeError, match="scalar"):
        backward(tape, ops.scale(x, 1.0))
    backward(tape, loss)
    assert np.array_equal(w.grad.data, x.data.T)


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
