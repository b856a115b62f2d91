"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own computational paths: convolution is
a triple-loop sliding window, batchnorm a two-pass statistic, gradients come
from central finite differences (with a check for a ReLU kink within the
step), the integrator-equivalence weights are derived by direct linear algebra
on the stage equations, and a step's parameter count is summed growth unit by
growth unit.
"""

import json
import struct

import numpy as np

from rknet import ops
from rknet.model_spec import _growth_params


def mean_all(t):
    """Mean-reduced scalar loss; keeps |loss| ~ O(1) so the finite-difference
    noise floor stays far below the gradient tolerance."""
    return ops.scale(ops.sum_all(t), 1.0 / t.size)


def _one_tensor(code, dims, payload, name=b"w"):
    return (b"RKNT" + struct.pack("<IIH", 1, 1, len(name)) + name
            + struct.pack("<BB", code, len(dims))
            + b"".join(struct.pack("<I", d) for d in dims) + payload)


def forged_checkpoints():
    """Checkpoint files, written by hand, whose one tensor header declares far
    more data than follows: a 2^31 x 16 float64 tensor (256 GiB), and a
    65536^4 float32 tensor whose element count overflows int64 to 0."""
    return _one_tensor(1, (2 ** 31, 16), bytes(8)), _one_tensor(0, (65536,) * 4, b"")


def forged_headers():
    """Checkpoint files, written by hand, whose one tensor header UTF-8 or numpy
    rejects: a name that is not UTF-8 (at byte 14), a rank of 65 (numpy allows
    64), and an empty tensor whose other dimensions exceed numpy's size limit."""
    return (_one_tensor(0, (1,), bytes(4), name=b"\xff\xfe"),
            _one_tensor(0, (1,) * 65, bytes(4)),
            _one_tensor(0, (0,) + (2 ** 32 - 1,) * 3, b""))


def forged_metadata(tensors):
    """Checkpoint files, packed by hand, that each copy the ordered {name:
    ndarray} dict of a valid checkpoint but replace one entry with a
    bad one: an unknown dtype; a config that is not UTF-8, not JSON, not a JSON
    object, nested 100000 deep, breaks a spec range, has an unknown key or
    describes far more parameters than the file holds (k=100000, or 99999999
    time-steps); a 2-element seed; a fractional or negative epoch; and the
    first parameter stored as float64, uint8 or int64 in a float32 file."""
    def text(data):
        return np.frombuffer(data, dtype=np.uint8)

    def pack(entries):
        codes = {"float32": 0, "float64": 1, "uint8": 2, "int64": 3, "uint64": 4}
        out = [b"RKNT", struct.pack("<II", 1, len(entries))]
        for name, arr in entries.items():
            out += [struct.pack("<H", len(name)), name.encode(),
                    struct.pack("<BB", codes[str(arr.dtype)], arr.ndim),
                    *(struct.pack("<I", d) for d in arr.shape),
                    arr.astype(arr.dtype.newbyteorder("<")).tobytes()]
        return b"".join(out)

    cfg = json.loads(tensors["__config__"].tobytes())
    bad = [
        {"__dtype__": text(b"float16")},
        {"__config__": text(b"\xff\xfe")},
        {"__config__": text(b"{not json")},
        {"__config__": text(b'"name"')},
        {"__config__": text(b"[" * 100000)},
        {"__config__": text(json.dumps({**cfg, "k": [0]}).encode())},
        {"__config__": text(json.dumps({**cfg, "bottelneck": True}).encode())},
        {"__config__": text(json.dumps({**cfg, "k": 100000}).encode())},
        {"__config__": text(json.dumps({**cfg, "name": "RKNet-1x99999999"}).encode())},
        {"__seed__": np.zeros(2, dtype=np.uint64)},
        {"__epoch__": np.asarray(1.5)},
        {"__epoch__": np.asarray(-1, dtype=np.int64)},
    ]
    first = next(name for name in tensors if not name.startswith("__"))
    bad += [{first: np.ones_like(tensors[first], dtype=dtype)}
            for dtype in (np.float64, np.uint8, np.int64)]
    return [pack({**tensors, **entry}) for entry in bad]


def looped_step_params(p):
    """Parameters of one step of period p, summed growth unit by growth unit."""
    k, s, m, bw = p.k, p.s, p.m, p.bottleneck_width
    if p.kind == "erk":
        return sum(_growth_params(p.channels + (t - 1) * k, k, bw) for t in range(1, m * s + 1))
    if p.kind == "irk":
        stage1 = sum(_growth_params(j * k, k, bw) for j in range(1, s + 1))
        stage2 = s * _growth_params((s - 1) * k, k, bw)
        return stage1 + stage2
    return sum(_growth_params(p.channels + (t - 1) * k, k, bw, time_plane=True)
               for t in range(1, m + 1))


def naive_conv2d(x, w, stride=1, pad=0):
    """Triple-loop sliding-window cross-correlation (NCHW x, OIKK w)."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    patch = xp[ni, :, yi * stride:yi * stride + kh, xi * stride:xi * stride + kw]
                    out[ni, oi, yi, xi] = np.sum(patch * w[oi])
    return out


def naive_conv2d_grads(x, w, gout, stride=1, pad=0):
    """Input and kernel gradients of ``naive_conv2d`` for the output gradient
    ``gout``, by the same loops: each output element spreads its gradient over
    the window it read."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for ni in range(n):
        for oi in range(o):
            for yi in range(gout.shape[2]):
                for xi in range(gout.shape[3]):
                    win = (ni, slice(None), slice(yi * stride, yi * stride + kh),
                           slice(xi * stride, xi * stride + kw))
                    gxp[win] += gout[ni, oi, yi, xi] * w[oi]
                    gw[oi] += gout[ni, oi, yi, xi] * xp[win]
    return gxp[:, :, pad:pad + h, pad:pad + wd], gw


def two_pass_batchnorm(x, gamma, beta, eps=1e-5):
    """Straightforward two-pass mean/variance normalization oracle."""
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        vals = x[:, c]
        mu = vals.sum() / vals.size
        var = ((vals - mu) ** 2).sum() / vals.size
        out[:, c] = gamma[c] * (vals - mu) / np.sqrt(var + eps) + beta[c]
    return out


def two_pass_batchnorm_grads(x, gamma, gout, eps=1e-5):
    """Train-mode gradients of ``two_pass_batchnorm`` for the output gradient
    ``gout``, in float64 from the textbook form: gx = a*(g - mean g - xhat *
    mean(g*xhat)) with a = gamma*inv, dgamma = sum g*xhat, dbeta = sum g."""
    x, gamma, g = (np.asarray(v, dtype=np.float64) for v in (x, gamma, gout))
    axes = (0, 2, 3)
    mu = x.mean(axis=axes, keepdims=True)
    inv = 1 / np.sqrt(((x - mu) ** 2).mean(axis=axes, keepdims=True) + eps)
    xhat = (x - mu) * inv
    a = gamma.reshape(1, -1, 1, 1) * inv
    gx = a * (g - g.mean(axis=axes, keepdims=True)
              - xhat * (g * xhat).mean(axis=axes, keepdims=True))
    return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def naive_softmax_cross_entropy(logits, labels):
    """Direct formula without max-stabilization (valid at small magnitudes)."""
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return float(np.mean([-np.log(probs[i, lab]) for i, lab in enumerate(labels)]))


def nearest_relu_input(loss_fn, param, index, h):
    """The smallest |ReLU input| over the two evaluations of ``fd_gradcheck``'s
    central difference at flat ``index`` of ``param`` (its value + h and - h).

    Within h of 0, the difference may straddle the ReLU's kink, so a large
    relative error there need not be a gradient error."""
    flat = param.value.data.reshape(-1)
    orig, relu, seen = flat[index], ops.relu, [np.inf]

    def watched(x):
        seen.append(float(np.min(np.abs(x.data), initial=np.inf)))
        return relu(x)

    ops.relu = watched
    try:
        for value in (orig + h, orig - h):
            flat[index] = value
            loss_fn()
    finally:
        flat[index] = orig
        ops.relu = relu
    return min(seen)


class GradcheckResult(float):
    """``fd_gradcheck``'s worst relative error.  Printed, it also names the
    worst coordinate and says whether a ReLU input lay within h of 0 in its
    evaluations (``nearest_relu_input``, run only when printed)."""

    def __new__(cls, worst, where=None):
        self = super().__new__(cls, worst)
        self.where = where   # (loss_fn, param, flat index, h) of the worst coordinate
        return self

    def __repr__(self):
        if self.where is None:
            return float.__repr__(self)
        loss_fn, param, index, h = self.where
        near = nearest_relu_input(loss_fn, param, index, h)
        return (f"{float.__repr__(self)} at {param.name}[{index}]; "
                f"{'a' if near <= h else 'no'} ReLU input within h={h:g} of 0 "
                f"(nearest {near:.1e})")

    __str__ = __repr__


def fd_gradcheck(loss_fn, params, rng, n_coords=50, h=1e-5):
    """Max relative error between Parameter.grad and central differences, as
    a ``GradcheckResult``.

    ``loss_fn`` must run the forward pass afresh (no tape needed); grads must
    already be populated on the parameters.
    """
    worst, where = 0.0, None
    for p in params:
        flat_v = p.value.data.reshape(-1)
        flat_g = p.grad.data.reshape(-1)
        n = min(n_coords, flat_v.size)
        idxs = rng.choice(flat_v.size, size=n, replace=False)
        for i in idxs:
            orig = flat_v[i]
            flat_v[i] = orig + h
            lp = float(loss_fn())
            flat_v[i] = orig - h
            lm = float(loss_fn())
            flat_v[i] = orig
            fd = (lp - lm) / (2 * h)
            g = float(flat_g[i])
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
            if rel > worst or np.isnan(rel):   # a NaN gradient is the worst error
                worst, where = rel, (loss_fn, p, int(i), h)
    return GradcheckResult(worst, where)


def wire_erk_linear(block, tab, mat, h):
    """Set a linear-mode erk block's 1x1 convs so one forward pass equals one
    explicit RK step on y' = mat @ y.

    Stage i must produce h*b_i*mat @ (y_n + sum_j (a_ij/b_j) g_j) with
    g_j = h*b_j*z_j, which is an affine map of the concatenated block input.
    Requires m=1 and nonzero weights b_j.
    """
    k = mat.shape[0]
    for i in range(block.s):
        w = np.zeros((k, (i + 1) * k, 1, 1))
        w[:, :k, 0, 0] = h * tab.b[i] * mat
        for j in range(i):
            w[:, (j + 1) * k:(j + 2) * k, 0, 0] = h * tab.b[i] * (tab.a[i, j] / tab.b[j]) * mat
        block.stages[i][0].w.value.data[...] = w


def gauss_stage_multipliers(tab, lam, h):
    """For scalar y' = lam*y the stage slopes are z_i = mu_i * y_n with
    mu = (I - h*lam*a)^{-1} lam 1; returns gamma_i = h*b_i*mu_i."""
    s = tab.s
    mu = np.linalg.solve(np.eye(s) - h * lam * tab.a, lam * np.ones(s))
    return h * tab.b * mu


def wire_irk_gauss_scalar(block, tab, lam, h):
    """Set a 2-stage linear-mode irk block (k=1) so one forward pass equals one
    gauss2 step on scalar y' = lam*y.

    Stage-I passes y_n through (v_1 = v_2 = y_n); the Stage-II updaters scale
    their single input by gamma_1 and gamma_2/gamma_1 respectively, so the
    updated groups are exactly h*b_i*z_i.
    """
    gamma = gauss_stage_multipliers(tab, lam, h)
    block.initializers[0].w.value.data[...] = np.array([[[[1.0]]]])
    block.initializers[1].w.value.data[...] = np.array([1.0, 0.0]).reshape(1, 2, 1, 1)
    block.updaters[0].w.value.data[...] = np.array([[[[gamma[0]]]]])
    block.updaters[1].w.value.data[...] = np.array([[[[gamma[1] / gamma[0]]]]])
    return gamma
