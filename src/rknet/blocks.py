"""Network building blocks: one time-step realized as a dense block (erk),
a clique block (irk), or a time-channel Euler step, plus transitions.

A step block maps the state y_n to y_{n+1} = y_n + sum of per-stage increment
groups, produced by convolutional subnetworks wired as the stage structure of
the Runge-Kutta family dictates; that summation layer is one ``ops.add``.  All
three kinds share one dense-growth rule (``_dense_growth``): growth unit t
reads concat(y_n, outputs of units 0..t-1) and emits k channels.  erk runs it
for every stage, irk for its Stage-I initializers, time-channel for its units.
irk Stage-II is the one read that is not a prefix of that list.  Every
BN -> ReLU -> conv -> dropout sequence, in growth units, both bottleneck
halves and transitions, is one pre-activation unit (``_preact_conv``; He et
al., arXiv:1603.05027), the increment a residual step reads as forward
Euler.  With ``linear_test_mode`` every growth unit collapses to a single
bias-free 1x1 convolution so the whole step becomes an affine map that can be
compared against a classical integrator.
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

    def __call__(self, x, mode):
        return ops.batchnorm2d(x, self.gamma.value, self.beta.value, self.running_mean,
                               self.running_var, mode)


def _preact_conv(bn, w, x, time, mode, dropout_p, rng):
    """One pre-activation unit: BN -> ReLU -> (time plane appended) -> stride-1 conv -> dropout."""
    h = ops.relu(bn(x, mode))
    if time is not None:
        h = ops.concat_channels([h, time])
    h = ops.conv2d(h, w.value, stride=1, pad=w.value.shape[-1] // 2)
    return ops.dropout(h, dropout_p, mode, rng)


class GrowthUnit:
    """BN -> ReLU -> 3x3 conv producing k new channels.

    With a bottleneck, a 1x1 conv to ``subnet.bottleneck_width`` channels
    (then BN -> ReLU) precedes the 3x3 conv: two pre-activation units.
    A raw time plane, when given, is concatenated after BN/ReLU so that
    normalization never touches it (the 1x1 half's input, with a bottleneck).
    Dropout follows each convolution.
    """

    def __init__(self, store, prefix, in_ch, k, subnet, time_plane=False, rng=None):
        self.in_ch = in_ch
        self.subnet = subnet
        conv_in = in_ch + (1 if time_plane else 0)
        if subnet.linear_test_mode:
            self.w = store.add_param(f"{prefix}.conv.w", np.zeros((k, conv_in, 1, 1)))
            return
        self.bn = BatchNorm(store, f"{prefix}.bn", in_ch)
        if subnet.bottleneck_width:
            bw = subnet.bottleneck_width
            self.w1 = store.add_param(f"{prefix}.conv1x1.w", he_normal(rng, (bw, conv_in, 1, 1)))
            self.bn2 = BatchNorm(store, f"{prefix}.bn2", bw)
            self.w = store.add_param(f"{prefix}.conv.w", he_normal(rng, (k, bw, 3, 3)))
        else:
            self.w = store.add_param(f"{prefix}.conv.w", he_normal(rng, (k, conv_in, 3, 3)))

    def forward(self, x, time=None, mode="train", dropout_p=0.0, rng=None):
        if x.shape[1] != self.in_ch:
            raise ShapeError(f"growth unit expects {self.in_ch} input channels, "
                             f"got {x.shape[1]} (input shape {x.shape})")
        if self.subnet.linear_test_mode:
            h = ops.concat_channels([x, time]) if time is not None else x
            return ops.conv2d(h, self.w.value, stride=1, pad=0)
        if self.subnet.bottleneck_width:
            x = _preact_conv(self.bn, self.w1, x, time, mode, dropout_p, rng)
            return _preact_conv(self.bn2, self.w, x, None, mode, dropout_p, rng)
        return _preact_conv(self.bn, self.w, x, time, mode, dropout_p, rng)


def _concat(xs):
    return xs[0] if len(xs) == 1 else ops.concat_channels(xs)


def _dense_growth(feats, units, time=None, mode="train", dropout_p=0.0, rng=None):
    """The dense-growth rule: each unit reads concat(feats) and appends its output.

    ``feats`` grows in place; the new outputs are returned in order.
    """
    start = len(feats)
    for u in units:
        feats.append(u.forward(_concat(feats), time=time, mode=mode,
                               dropout_p=dropout_p, rng=rng))
    return feats[start:]


class ErkStepBlock:
    """One explicit time-step: a dense block of s stage subnetworks plus the
    summation layer.  Stage i runs m dense growth units and emits their
    mk-channel group; y_{n+1} = y_n + sum of groups.
    """

    kind = "erk"

    def __init__(self, store, prefix, s, m, k, subnet=None, rng=None):
        self.s, self.m, self.k = s, m, k
        self.channels = m * k
        subnet = subnet or SubnetConfig()
        self.stages = []
        t = 0
        for i in range(s):
            units = []
            for j in range(m):
                units.append(GrowthUnit(store, f"{prefix}.stage{i}.growth{j}",
                                        self.channels + t * k, k, subnet, rng=rng))
                t += 1
            self.stages.append(units)

    def forward(self, y, mode="train", dropout_p=0.0, rng=None):
        if y.shape[1] != self.channels:
            raise ShapeError(f"erk step expects {self.channels} channels (m*k), got {y.shape[1]}")
        feats = [y]
        groups = []
        for i, units in enumerate(self.stages):
            with op_scope(f"stage{i}"):
                groups.append(_concat(_dense_growth(feats, units, mode=mode,
                                                    dropout_p=dropout_p, rng=rng)))
        return ops.add(y, *groups), groups


class IrkStepBlock:
    """One implicit time-step: a clique block plus the summation layer.

    Stage-I initializers run densely (v_j from y_n and v_1..v_{j-1}); Stage-II
    updates each increment exactly once from the other stages' current values
    -- updated groups before it, initial groups after it, y_n excluded.
    """

    kind = "irk"

    def __init__(self, store, prefix, s, k, subnet=None, rng=None):
        if s <= 1:
            raise ValueError(f"irk step needs s > 1 for alternate updating, got s={s}")
        self.s, self.k = s, k
        self.channels = k
        subnet = subnet or SubnetConfig()
        self.initializers = [
            GrowthUnit(store, f"{prefix}.init{j}", (j + 1) * k, k, subnet, rng=rng)
            for j in range(s)]
        self.updaters = [
            GrowthUnit(store, f"{prefix}.update{i}", (s - 1) * k, k, subnet, rng=rng)
            for i in range(s)]

    def forward(self, y, mode="train", dropout_p=0.0, rng=None):
        if y.shape[1] != self.channels:
            raise ShapeError(f"irk step expects {self.channels} channels (k), got {y.shape[1]}")
        feats = [y]
        for j, unit in enumerate(self.initializers):
            with op_scope(f"init{j}"):
                _dense_growth(feats, [unit], mode=mode, dropout_p=dropout_p, rng=rng)
        initials = feats[1:]
        updated = []
        for i, unit in enumerate(self.updaters):
            with op_scope(f"update{i}"):
                # not a channel prefix of one list, so Stage-II keeps its own concat
                x = _concat(updated[:i] + initials[i + 1:])
                updated.append(unit.forward(x, mode=mode, dropout_p=dropout_p, rng=rng))
        return ops.add(y, *updated), initials, updated


class TimeChannelStepBlock:
    """One Euler time-step with an explicit trainable step-size ratio.

    The subnetwork sees the state plus a constant plane holding accumulated
    scaled time T/u; its output is multiplied by the positive ratio
    h_n/u = exp(theta_n) to form the increment, and T/u advances by that
    ratio.  BN and ReLU never touch the time plane.
    """

    kind = "time_channel"

    def __init__(self, store, prefix, m, k, subnet=None, rng=None, units=None):
        self.m, self.k = m, k
        self.channels = m * k
        subnet = subnet or SubnetConfig()
        # units may be shared across a period's steps; the step-size scalar never is
        self.units = units if units is not None else [
            GrowthUnit(store, f"{prefix}.growth{j}", self.channels + j * k, k,
                       subnet, time_plane=True, rng=rng)
            for j in range(m)]
        self.theta = store.add_param(f"{prefix}.log_step_ratio", np.zeros(()))

    def step_ratio(self):
        """Current trained value of h_n/u."""
        return float(np.exp(self.theta.value.data))

    def forward(self, y, t_over_u, mode="train", dropout_p=0.0, rng=None):
        if y.shape[1] != self.channels:
            raise ShapeError(f"time-channel step expects {self.channels} channels, got {y.shape[1]}")
        n, _, h, w = y.shape
        if not isinstance(t_over_u, Tensor):
            t_over_u = Tensor(np.asarray(t_over_u, dtype=y.data.dtype).reshape(()))
        plane = ops.broadcast_plane(t_over_u, n, 1, h, w)
        feats = [y]
        for j, u in enumerate(self.units):
            with op_scope(f"growth{j}"):
                _dense_growth(feats, [u], time=plane, mode=mode, dropout_p=dropout_p, rng=rng)
        q = _concat(feats[1:])
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
        if x.shape[1] != self.channels:
            raise ShapeError(f"attentional gate expects {self.channels} channels, got {x.shape[1]}")
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
        h = _preact_conv(self.bn, self.w, y, None, mode, dropout_p, rng)
        if self.gate is not None:
            h = self.gate.forward(h)
        return ops.avgpool2d(h, 2, 2)
