"""Network building blocks: one time-step realized as a dense block (erk),
a clique block (irk), or a time-channel Euler step, plus transitions.

A step block maps the state y_n to y_{n+1} = y_n + sum of per-stage increment
groups, produced by convolutional subnetworks wired as the stage structure of
the Runge-Kutta family dictates; that summation layer is one ``ops.add``.  All
three kinds share one dense-growth rule: growth unit t reads
concat(y_n, outputs of units 0..t-1) and emits k channels.  A unit's input
is a list of tensors, never a concat: the feature list itself.  Two helpers
own the rule.  ``_growth_units`` builds a run of units whose input widens by
k, and ``_dense_growth`` runs groups of them, each group under its own
scope, and owns the feature list.  erk's groups are its stages, irk's are
its Stage-I initializers, time-channel's are its units (whose lists end
with the raw time plane).  irk Stage-II is the one read that is not a
prefix of that list; it hands each updater a list of its own.  Every BN ->
ReLU -> conv -> dropout sequence, in growth units, both bottleneck halves
and transitions, is one pre-activation unit (``_preact_conv``; He et al.,
arXiv:1603.05027), the increment a residual step reads as forward Euler,
and one ``ops.conv2d`` call, which normalizes the list's leading tensors
whole, plus dropout; a growth unit is a list of such layers run in one
loop.  With ``linear_test_mode`` every growth unit is one layer without a
BatchNorm, a single bias-free 1x1 convolution, so the whole step becomes an
affine map that can be compared against a classical integrator.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import DTYPES, Parameter, ShapeError, Tensor, op_scope


class ParamStore:
    """Ordered registry of named parameters and persistent buffers."""

    def __init__(self, dtype="float32"):
        self.dtype = dtype
        self.params = {}
        self.buffers = {}

    def add_param(self, name, array):
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(Tensor(np.asarray(array, dtype=DTYPES[self.dtype])), name)
        self.params[name] = p
        return p

    def add_buffer(self, name, array):
        if name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        self.buffers[name] = array
        return array

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def he_normal(rng, shape):
    """Kaiming-normal init for conv kernels (fan_in from input channels * k * k)."""
    fan_in = int(np.prod(shape[1:]))
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def xavier_uniform(rng, shape):
    """Glorot-uniform init for fully connected weights (in, out)."""
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class SubnetConfig:
    """How each growth unit is realized (shared by all block kinds).

    A ``bottleneck_width`` of 0 means no bottleneck.
    """

    bottleneck_width: int = 0
    linear_test_mode: bool = False


class BatchNorm:
    def __init__(self, store, prefix, channels):
        self.gamma = store.add_param(f"{prefix}.gamma", np.ones(channels))
        self.beta = store.add_param(f"{prefix}.beta", np.zeros(channels))
        dtype = DTYPES[store.dtype]
        self.running_mean = store.add_buffer(f"{prefix}.running_mean", np.zeros(channels, dtype))
        self.running_var = store.add_buffer(f"{prefix}.running_var", np.ones(channels, dtype))

    def norm(self, mode):
        """The arguments of batchnorm2d after its input, as conv2d's ``norm`` takes them."""
        return self.gamma.value, self.beta.value, self.running_mean, self.running_var, mode

    def __call__(self, x, mode):
        return ops.batchnorm2d(x, *self.norm(mode))


def _preact_conv(bn, w, xs, mode, dropout_p, rng):
    """One pre-activation unit: BN -> ReLU -> stride-1 conv -> dropout.

    The unit reads the channel concatenation of the tensors in ``xs``, which
    is never built: the first three steps are one ``ops.conv2d`` call, which
    normalizes the leading tensors that ``bn`` covers and passes a trailing
    time plane raw.  Without a BatchNorm (``bn is None``, linear test mode)
    the input goes straight to the conv, so the unit is linear in it.
    """
    h = ops.conv2d(xs[0], w.value, stride=1, pad=w.value.shape[-1] // 2, rest=xs[1:],
                   norm=None if bn is None else bn.norm(mode))
    return ops.dropout(h, dropout_p, mode, rng)


class GrowthUnit:
    """A chain of pre-activation units producing k new channels.

    ``layers`` lists (BatchNorm or None, conv weight) pairs, run in order
    by ``_preact_conv``: a plain unit is BN -> ReLU -> 3x3 conv; with a
    bottleneck, a 1x1 conv to ``subnet.bottleneck_width`` channels comes
    first (two pre-activation units); in linear test mode the unit is one
    bias-free 1x1 conv with no BatchNorm.  The first layer reads the unit's
    input, a list of feature tensors; a time-channel unit's list ends with
    the time plane, which its BatchNorm does not cover, so it joins the conv
    input raw.  Each later layer reads only the one before it.  Dropout
    follows each convolution.
    """

    def __init__(self, store, prefix, in_ch, k, subnet=None, time_plane=False, rng=None):
        subnet = subnet or SubnetConfig()
        self.in_ch = in_ch
        conv_in = in_ch + (1 if time_plane else 0)
        if subnet.linear_test_mode:
            self.w = store.add_param(f"{prefix}.conv.w", np.zeros((k, conv_in, 1, 1)))
            self.layers = [(None, self.w)]
            return
        self.bn = BatchNorm(store, f"{prefix}.bn", in_ch)
        if subnet.bottleneck_width:
            bw = subnet.bottleneck_width
            self.w1 = store.add_param(f"{prefix}.conv1x1.w", he_normal(rng, (bw, conv_in, 1, 1)))
            self.bn2 = BatchNorm(store, f"{prefix}.bn2", bw)
            self.w = store.add_param(f"{prefix}.conv.w", he_normal(rng, (k, bw, 3, 3)))
            self.layers = [(self.bn, self.w1), (self.bn2, self.w)]
        else:
            self.w = store.add_param(f"{prefix}.conv.w", he_normal(rng, (k, conv_in, 3, 3)))
            self.layers = [(self.bn, self.w)]

    def forward(self, xs, mode="train", dropout_p=0.0, rng=None):
        """The unit's output for the channel concatenation of the tensors in xs."""
        for bn, w in self.layers:
            xs = [_preact_conv(bn, w, xs, mode, dropout_p, rng)]
        return xs[0]


def _concat(xs):
    return xs[0] if len(xs) == 1 else ops.concat_channels(xs)


def _growth_units(store, names, in_ch, k, subnet, rng, time_plane=False):
    """One growth unit per name; unit t reads in_ch + t*k channels.

    This is the run of units ``model_spec._growth_run`` counts.
    """
    return [GrowthUnit(store, name, in_ch + t * k, k, subnet, time_plane=time_plane, rng=rng)
            for t, name in enumerate(names)]


def _dense_growth(y, groups, label, time=None, mode="train", dropout_p=0.0, rng=None):
    """The dense-growth rule: each unit reads concat(y, every earlier output),
    handed to it as the feature list itself, with the time plane ``time``, if
    given, as the list's last entry.

    Group i of units runs under ``op_scope(f"{label}{i}")``; returns the
    concat of each group's outputs, in order.
    """
    feats = [y]
    outs = []
    for i, units in enumerate(groups):
        with op_scope(f"{label}{i}"):
            start = len(feats)
            for u in units:
                xs = feats if time is None else [*feats, time]
                feats.append(u.forward(xs, mode=mode, dropout_p=dropout_p, rng=rng))
            outs.append(_concat(feats[start:]))
    return outs


class ErkStepBlock:
    """One explicit time-step: a dense block of s stage subnetworks plus the
    summation layer.  Stage i runs m dense growth units and emits their
    mk-channel group; y_{n+1} = y_n + sum of groups.
    """

    def __init__(self, store, prefix, s, m, k, subnet=None, rng=None):
        self.s, self.m, self.k = s, m, k
        self.channels = m * k
        self.stages = [
            _growth_units(store, [f"{prefix}.stage{i}.growth{j}" for j in range(m)],
                          (i + 1) * m * k, k, subnet, rng)
            for i in range(s)]

    def forward(self, y, mode="train", dropout_p=0.0, rng=None):
        groups = _dense_growth(y, self.stages, "stage", mode=mode, dropout_p=dropout_p, rng=rng)
        return ops.add(y, *groups), groups


class IrkStepBlock:
    """One implicit time-step: a clique block plus the summation layer.

    Stage-I initializers run densely (v_j from y_n and v_1..v_{j-1}); Stage-II
    updates each increment exactly once from the other stages' current values
    -- updated groups before it, initial groups after it, y_n excluded.
    """

    def __init__(self, store, prefix, s, k, subnet=None, rng=None):
        if s <= 1:
            raise ValueError(f"irk step needs s > 1 for alternate updating, got s={s}")
        self.s, self.k = s, k
        self.channels = k
        self.initializers = _growth_units(store, [f"{prefix}.init{j}" for j in range(s)],
                                          k, k, subnet, rng)
        self.updaters = [
            GrowthUnit(store, f"{prefix}.update{i}", (s - 1) * k, k, subnet, rng=rng)
            for i in range(s)]

    def forward(self, y, mode="train", dropout_p=0.0, rng=None):
        initials = _dense_growth(y, [[u] for u in self.initializers], "init",
                                 mode=mode, dropout_p=dropout_p, rng=rng)
        updated = []
        for i, unit in enumerate(self.updaters):
            with op_scope(f"update{i}"):
                # not a prefix of the feature list: a list of its own, in this order
                updated.append(unit.forward(updated[:i] + initials[i + 1:], mode=mode,
                                            dropout_p=dropout_p, rng=rng))
        return ops.add(y, *updated), initials, updated


class TimeChannelStepBlock:
    """One Euler time-step with an explicit trainable step-size ratio.

    The subnetwork sees the state plus a constant plane holding accumulated
    scaled time T/u; its output is multiplied by the positive ratio
    h_n/u = exp(theta_n) to form the increment, and T/u advances by that
    ratio.  BN and ReLU never touch the time plane.
    """

    def __init__(self, store, prefix, m, k, subnet=None, rng=None, units=None):
        self.m, self.k = m, k
        self.channels = m * k
        # units may be shared across a period's steps; the step-size scalar never is
        self.units = units if units is not None else _growth_units(
            store, [f"{prefix}.growth{j}" for j in range(m)], self.channels, k, subnet, rng,
            time_plane=True)
        self.theta = store.add_param(f"{prefix}.log_step_ratio", np.zeros(()))

    def step_ratio(self):
        """Current trained value of h_n/u."""
        return float(np.exp(self.theta.value.data))

    def forward(self, y, t_over_u, mode="train", dropout_p=0.0, rng=None):
        n, _, h, w = y.shape
        if not isinstance(t_over_u, Tensor):
            t_over_u = Tensor(np.asarray(t_over_u, dtype=y.data.dtype).reshape(()))
        plane = ops.broadcast_plane(t_over_u, n, 1, h, w)
        q = _concat(_dense_growth(y, [[u] for u in self.units], "growth", time=plane,
                                  mode=mode, dropout_p=dropout_p, rng=rng))
        ratio = ops.exp(self.theta.value)
        y_next = ops.add(y, ops.mul_scalar(q, ratio))
        return y_next, ops.add(t_over_u, ratio)


class AttentionalGate:
    """Channelwise attention: pool -> FC(C -> C/2) + ReLU -> FC(C/2 -> C) +
    sigmoid, multiplied filter-wise onto the input."""

    def __init__(self, store, prefix, channels, rng=None):
        if channels < 2:
            raise ValueError(f"attentional gate needs at least 2 channels, got {channels}")
        hidden = channels // 2
        self.channels = channels
        self.w1 = store.add_param(f"{prefix}.fc1.w", xavier_uniform(rng, (channels, hidden)))
        self.b1 = store.add_param(f"{prefix}.fc1.b", np.zeros(hidden))
        self.w2 = store.add_param(f"{prefix}.fc2.w", xavier_uniform(rng, (hidden, channels)))
        self.b2 = store.add_param(f"{prefix}.fc2.b", np.zeros(channels))

    def forward(self, x):
        g = ops.global_avg_pool(x)
        g = ops.relu(ops.fully_connected(g, self.w1.value, self.b1.value))
        g = ops.sigmoid(ops.fully_connected(g, self.w2.value, self.b2.value))
        return ops.mul_channelwise(x, g)


class TransitionLayer:
    """BN -> ReLU -> 1x1 conv to the next period's width, optional attentional
    gating, then 2x2 average pooling with stride 2."""

    def __init__(self, store, prefix, in_ch, out_ch, attentional=False, rng=None):
        self.bn = BatchNorm(store, f"{prefix}.bn", in_ch)
        self.w = store.add_param(f"{prefix}.conv.w", he_normal(rng, (out_ch, in_ch, 1, 1)))
        self.gate = AttentionalGate(store, f"{prefix}.gate", out_ch, rng) if attentional else None

    def forward(self, y, mode="train", dropout_p=0.0, rng=None):
        if y.shape[2] % 2 or y.shape[3] % 2:
            raise ShapeError(f"transition needs even spatial dims to halve, got {y.shape}")
        h = _preact_conv(self.bn, self.w, [y], mode, dropout_p, rng)
        if self.gate is not None:
            h = self.gate.forward(h)
        return ops.avgpool2d(h, 2, 2)
