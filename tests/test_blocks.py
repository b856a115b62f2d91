"""Step blocks: integrator equivalence, dataflow causality, identity behavior,
transitions, and the attentional gate."""

import numpy as np
import pytest

from rknet import ops, rk
from rknet.blocks import (AttentionalGate, ErkStepBlock, IrkStepBlock, ParamStore,
                          SubnetConfig, TimeChannelStepBlock, TransitionLayer)
from rknet.rng import make_rng
from rknet.tensor import ShapeError, Tape, Tensor, backward

from oracles import fd_gradcheck, wire_erk_linear, wire_irk_gauss_scalar

LINEAR = SubnetConfig(linear_test_mode=True)


def build_erk(s=3, m=1, k=4, subnet=None, dtype="float32", seed=0):
    store = ParamStore(dtype)
    blk = ErkStepBlock(store, "blk", s, m, k, subnet=subnet, rng=make_rng(seed, "t"))
    return store, blk


def build_irk(s=2, k=4, subnet=None, dtype="float32", seed=0):
    store = ParamStore(dtype)
    blk = IrkStepBlock(store, "blk", s, k, subnet=subnet, rng=make_rng(seed, "t"))
    return store, blk


def rand_state(rng, channels, hw=6, n=2, dtype="float32"):
    return Tensor(rng.normal(size=(n, channels, hw, hw)), dtype=dtype)


class TestErkStepBlock:
    def test_zero_final_weights_make_identity(self):
        store, blk = build_erk(s=3, m=2, k=4, seed=1)
        for units in blk.stages:
            for u in units:
                u.w.value.data[...] = 0
        y = rand_state(np.random.default_rng(0), blk.channels)
        y_next, groups = blk.forward(y, mode="eval")
        assert np.array_equal(y_next.data, y.data)
        assert all(np.all(g.data == 0) for g in groups)

    @pytest.mark.parametrize("method", ["euler", "heun", "rk4"])
    def test_affine_weights_reproduce_explicit_integrators(self, method):
        tab = rk.tableau_library(method)
        mat = np.array([[0.0, 1.0], [-2.0, -0.3]])
        h = 0.1
        store = ParamStore("float64")
        blk = ErkStepBlock(store, "b", tab.s, 1, 2, subnet=LINEAR)
        wire_erk_linear(blk, tab, mat, h)
        y_ref = np.array([1.0, -0.5])
        y_net = Tensor(y_ref.reshape(1, 2, 1, 1).copy(), dtype="float64")
        for n in range(10):
            y_ref = rk.rk_step(tab, lambda t, y: mat @ y, n * h, y_ref, h)
            y_net, _ = blk.forward(y_net, mode="eval")
        rel = np.max(np.abs(y_net.data.reshape(-1) - y_ref)) / np.max(np.abs(y_ref))
        assert rel < 1e-6

    def test_groups_only_depend_on_earlier_stages(self):
        # perturbing the parameters of stage j leaves all groups i <= j-1 bitwise unchanged
        store, blk = build_erk(s=4, m=1, k=3, seed=2)
        y = rand_state(np.random.default_rng(1), blk.channels)
        _, base_groups = blk.forward(y, mode="eval")
        for j in range(blk.s):
            w = blk.stages[j][0].w.value.data
            saved = w.copy()
            w += 0.37
            _, groups = blk.forward(y, mode="eval")
            for i in range(j):
                assert np.array_equal(groups[i].data, base_groups[i].data)
            assert not np.array_equal(groups[j].data, base_groups[j].data)
            w[...] = saved

    def test_stage_input_channel_contract(self):
        store, blk = build_erk(s=3, m=2, k=4, seed=3)
        t = 0
        for i, units in enumerate(blk.stages):
            assert units[0].in_ch == (1 + i) * blk.m * blk.k
            for u in units:
                assert u.in_ch == blk.channels + t * blk.k
                t += 1

    def test_channel_mismatch_rejected(self):
        store, blk = build_erk()
        with pytest.raises(ShapeError, match="channels"):
            blk.forward(rand_state(np.random.default_rng(2), blk.channels + 1))

    def test_output_adds_groups_to_state(self):
        store, blk = build_erk(s=2, m=1, k=3, seed=4)
        y = rand_state(np.random.default_rng(3), blk.channels)
        y_next, groups = blk.forward(y, mode="eval")
        assert np.allclose(y_next.data, y.data + sum(g.data for g in groups))


@pytest.mark.parametrize("kind", ["erk", "irk"])
def test_summation_layer_is_one_add_node_in_stage_order(kind):
    store, blk = build_erk(s=3, m=2) if kind == "erk" else build_irk(s=3)
    y = rand_state(np.random.default_rng(12), blk.channels)
    with Tape() as tape:
        y_next, *_, groups = blk.forward(y, mode="train", dropout_p=0.2, rng=make_rng(0, "sum"))
    adds = [node for node in tape._nodes if node.backward_fn.__qualname__.startswith("add.")]
    assert len(adds) == 1
    assert adds[0].inputs == (y, *groups) and adds[0].output is y_next
    chain = y.data
    for g in groups:
        chain = chain + g.data
    assert np.array_equal(y_next.data, chain)   # ((y + g_0) + g_1) + g_2, bit for bit


class TestIrkStepBlock:
    def test_zero_update_weights_make_identity(self):
        store, blk = build_irk(s=3, k=4, seed=5)
        for u in blk.updaters:
            u.w.value.data[...] = 0
        y = rand_state(np.random.default_rng(4), blk.channels)
        y_next, initials, updated = blk.forward(y, mode="eval")
        assert np.array_equal(y_next.data, y.data)
        assert all(np.all(u.data == 0) for u in updated)
        assert any(np.any(v.data != 0) for v in initials)

    def test_affine_weights_reproduce_gauss2(self):
        tab = rk.tableau_library("gauss2")
        lam, h = -1.0, 0.1
        store = ParamStore("float64")
        blk = IrkStepBlock(store, "b", 2, 1, subnet=LINEAR)
        wire_irk_gauss_scalar(blk, tab, lam, h)
        y_ref = np.array([1.0])
        y_net = Tensor(np.ones((1, 1, 1, 1)), dtype="float64")
        for n in range(10):
            y_ref = rk.rk_step(tab, lambda t, y: lam * y, n * h, y_ref, h)
            y_net, _, _ = blk.forward(y_net, mode="eval")
        assert abs(float(y_net.data.reshape(())) - y_ref[0]) / abs(y_ref[0]) < 1e-6

    def test_single_stage_rejected(self):
        with pytest.raises(ValueError, match="s > 1"):
            build_irk(s=1)

    def test_stage_two_input_widths(self):
        store, blk = build_irk(s=4, k=3, seed=6)
        for j, u in enumerate(blk.initializers):
            assert u.in_ch == (j + 1) * blk.k
        for u in blk.updaters:
            assert u.in_ch == (blk.s - 1) * blk.k

    def test_dataflow_causality(self):
        # perturbing an initializer changes later updates; perturbing an
        # updater never changes any Stage-I value
        store, blk = build_irk(s=3, k=2, seed=7)
        y = rand_state(np.random.default_rng(5), blk.channels)
        _, base_init, base_upd = blk.forward(y, mode="eval")

        saved = blk.initializers[0].w.value.data.copy()
        blk.initializers[0].w.value.data += 0.31
        _, init2, upd2 = blk.forward(y, mode="eval")
        assert not np.array_equal(init2[0].data, base_init[0].data)
        assert not np.array_equal(upd2[1].data, base_upd[1].data)
        blk.initializers[0].w.value.data[...] = saved

        blk.updaters[0].w.value.data += 0.31
        _, init3, _ = blk.forward(y, mode="eval")
        for a, b in zip(init3, base_init):
            assert np.array_equal(a.data, b.data)

    def test_each_updater_runs_exactly_once(self):
        store, blk = build_irk(s=3, k=2, seed=8)
        y = rand_state(np.random.default_rng(6), blk.channels)
        units, calls = blk.updaters + blk.initializers, []
        for u in units:
            u.forward = lambda *a, _u=u, _f=u.forward, **kw: calls.append(_u) or _f(*a, **kw)
        blk.forward(y, mode="eval")
        assert sorted(map(id, calls)) == sorted(map(id, units))


class TestTimeChannelStepBlock:
    def build(self, m=1, k=4, subnet=None, dtype="float32", seed=0):
        store = ParamStore(dtype)
        blk = TimeChannelStepBlock(store, "blk", m, k, subnet=subnet,
                                   rng=make_rng(seed, "t"))
        return store, blk

    def test_zero_subnet_keeps_state_but_time_flows(self):
        store, blk = self.build(m=2, k=3, seed=9)
        for u in blk.units:
            u.w.value.data[...] = 0
        y = rand_state(np.random.default_rng(7), blk.channels)
        y_next, t_next = blk.forward(y, 0.0, mode="eval")
        assert np.array_equal(y_next.data, y.data)
        assert float(t_next.data.reshape(())) == pytest.approx(1.0)  # theta=0 -> ratio 1

    def test_first_step_has_zero_time_plane(self):
        # a linear unit that copies only the time channel exposes the plane value
        store, blk = self.build(m=1, k=1, subnet=LINEAR)
        blk.units[0].w.value.data[...] = 0
        blk.units[0].w.value.data[0, 1, 0, 0] = 1.0  # input layout: [y, time]
        y = Tensor(np.full((1, 1, 3, 3), 0.5), dtype="float32")
        y_next, _ = blk.forward(y, 0.0, mode="eval")
        assert np.array_equal(y_next.data, y.data)  # increment = ratio * plane(0) = 0

    def test_constant_q_acts_as_euler_step(self):
        # Q == plane(c): with ratio 1 the step adds exactly c
        store, blk = self.build(m=1, k=1, subnet=LINEAR)
        blk.units[0].w.value.data[...] = 0
        blk.units[0].w.value.data[0, 1, 0, 0] = 1.0
        c = 0.75
        y = Tensor(np.full((2, 1, 4, 4), 0.25), dtype="float32")
        y_next, t_next = blk.forward(y, c, mode="eval")
        assert np.allclose(y_next.data, 0.25 + c)
        assert float(t_next.data.reshape(())) == pytest.approx(c + 1.0)

    def test_time_plane_joins_after_bn_relu(self):
        # the unit is linear in the plane it appends after BN/ReLU, so moving
        # T/u moves the step by the conv of the plane alone (ratio 1)
        store, blk = self.build(m=1, k=3, dtype="float64", seed=3)
        y = rand_state(np.random.default_rng(6), blk.channels, dtype="float64")
        base, _ = blk.forward(y, 0.0, mode="eval")
        moved, _ = blk.forward(y, 0.5, mode="eval")
        plane = Tensor(np.full((2, 1, 6, 6), 0.5), dtype="float64")
        shift = ops.conv2d(plane, Tensor(blk.units[0].w.value.data[:, -1:]), pad=1).data
        assert np.abs(shift).min() > 1e-3
        assert np.allclose(moved.data - base.data, shift, rtol=0, atol=1e-12)

    def test_units_grow_densely(self):
        # unit j reads the state plus units 0..j-1; unit 0 never sees unit 1
        m, k = 2, 3
        store, blk = self.build(m=m, k=k, seed=4)
        assert [u.in_ch for u in blk.units] == [m * k + j * k for j in range(m)]
        y = rand_state(np.random.default_rng(5), blk.channels)
        before, _ = blk.forward(y, 0.5, mode="eval")
        blk.units[1].w.value.data += 0.1
        after, _ = blk.forward(y, 0.5, mode="eval")
        assert np.array_equal(after.data[:, :k], before.data[:, :k])
        assert not np.allclose(after.data[:, k:2 * k], before.data[:, k:2 * k])

    def test_ratio_is_exp_theta(self):
        store, blk = self.build()
        blk.theta.value.data[...] = 0.5
        assert blk.step_ratio() == pytest.approx(np.exp(0.5))

    def test_theta_gradient_nonzero_and_matches_fd(self):
        # two chained steps so the accumulated-time path contributes too
        store = ParamStore("float64")
        rng = make_rng(11, "init")
        blocks = [TimeChannelStepBlock(store, f"s{i}", 1, 3, rng=rng) for i in range(2)]
        y0 = rand_state(np.random.default_rng(8), 3, hw=4, dtype="float64")

        def run():
            y, t = y0, 0.0
            for blk in blocks:
                y, t = blk.forward(y, t, mode="eval")
            return ops.scale(ops.sum_all(ops.sigmoid(y)), 1.0 / y.size)

        with Tape() as tape:
            loss = run()
        backward(tape, loss)
        thetas = [blk.theta for blk in blocks]
        assert all(abs(float(t.grad.data)) > 1e-12 for t in thetas)
        worst = fd_gradcheck(lambda: run().data, thetas, np.random.default_rng(9), n_coords=2)
        assert worst < 1e-4


class TestTransitionLayer:
    def test_halves_spatial_dims(self):
        store = ParamStore("float32")
        tr = TransitionLayer(store, "t", 4, 6, rng=make_rng(0, "tr"))
        out = tr.forward(rand_state(np.random.default_rng(10), 4, hw=32), mode="eval")
        assert out.shape == (2, 6, 16, 16)

    def test_identity_conv_preserves_constant_plane(self):
        store = ParamStore("float64")
        tr = TransitionLayer(store, "t", 3, 3, rng=make_rng(1, "tr"))
        tr.w.value.data[...] = np.eye(3).reshape(3, 3, 1, 1)
        tr.bn.running_var[...] = 1.0 - 1e-5  # makes eval-mode normalization exact
        v = 0.75
        out = tr.forward(Tensor(np.full((1, 3, 8, 8), v), dtype="float64"), mode="eval")
        assert np.all(out.data == v)

    def test_odd_spatial_dims_rejected(self):
        store = ParamStore("float32")
        tr = TransitionLayer(store, "t", 4, 4, rng=make_rng(2, "tr"))
        with pytest.raises(ShapeError, match="even"):
            tr.forward(rand_state(np.random.default_rng(11), 4, hw=7), mode="eval")

    def test_attentional_zero_logits_scale_by_half(self):
        store = ParamStore("float64")
        tr = TransitionLayer(store, "t", 4, 4, attentional=True, rng=make_rng(3, "tr"))
        tr.gate.w2.value.data[...] = 0
        tr.gate.b2.value.data[...] = 0
        x = rand_state(np.random.default_rng(12), 4, hw=8, dtype="float64")
        gated = tr.gate.forward(x)
        assert np.array_equal(gated.data, 0.5 * x.data)  # sigmoid(0) = 0.5 exactly


class TestAttentionalGate:
    def build(self, channels=6):
        store = ParamStore("float64")
        return AttentionalGate(store, "g", channels, rng=make_rng(4, "g"))

    def test_saturated_gate_is_identity_or_zero(self):
        gate = self.build()
        x = rand_state(np.random.default_rng(13), 6, dtype="float64")
        gate.w2.value.data[...] = 0
        gate.b2.value.data[...] = 800.0   # exp(-800) underflows: sigmoid exactly 1.0
        assert np.array_equal(gate.forward(x).data, x.data)
        gate.b2.value.data[...] = -800.0  # sigmoid exactly 0.0
        assert np.all(gate.forward(x).data == 0)

    def test_each_channel_scaled_by_scalar_in_unit_interval(self):
        gate = self.build()
        x = rand_state(np.random.default_rng(14), 6, dtype="float64")
        out = gate.forward(x)
        ratio = out.data / x.data
        for n in range(x.shape[0]):
            for c in range(6):
                vals = ratio[n, c]
                assert np.allclose(vals, vals.flat[0])
                assert 0.0 < vals.flat[0] < 1.0

    def test_needs_two_channels(self):
        store = ParamStore("float64")
        with pytest.raises(ValueError, match="2 channels"):
            AttentionalGate(store, "g", 1, rng=make_rng(5, "g"))


def test_forward_deterministic_with_dropout():
    store, blk = build_erk(s=2, m=1, k=4, seed=12)
    y = rand_state(np.random.default_rng(15), blk.channels)
    a = blk.forward(y, mode="train", dropout_p=0.2, rng=make_rng(5, "d"))[0].data
    b = blk.forward(y, mode="train", dropout_p=0.2, rng=make_rng(5, "d"))[0].data
    assert np.array_equal(a, b)
