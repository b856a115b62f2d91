"""Differentiable layer primitives (numpy forward + hand-written backward).

Convolution stacks every kernel tap into one GEMM per cache-sized block of a
padded channel-major copy of the input and shift-adds the partial products
(see ``conv2d``); the naive sliding-window version lives in the test suite as
an independent oracle.  The BN -> ReLU -> conv chain of the pre-activation
unit (``blocks._preact_conv``) is written to touch each activation as few
times as numpy allows: batchnorm is one per-channel affine map of its input,
allocates only its output and builds its backward from its input and
per-channel sums, with no normalized copy; relu keeps no mask;
conv2d keeps no padded copy and rebuilds it in its backward from the input.
Dropout keeps a boolean mask, not the scaled factors.  Each op computes in
its input's dtype.  conv2d, batchnorm2d, relu, concat_channels and add run
their passes in chunks on the calling thread plus a worker pool
(``parallel.run``); a chunk never splits a sum, so results do not depend on
the number of threads.

Backward closures capture the arrays and shapes they read, never a tensor.
Tape nodes keep only serial numbers and a weak reference to the output, so
the closures are the only owners the tape adds: an output that no closure
reads, such as batchnorm's (relu reads its own output) or conv2d's (concat
copies it), is freed as soon as the forward drops it.  The closures of
conv2d, batchnorm2d and fully_connected read the op's input itself (relu's
reads its output), so an array an op has read or written must not change
between its forward and its backward.  Every op records itself on the
active tape (if any) and is pure given its inputs and rng.
"""

import numpy as np

from . import parallel
from .tensor import ShapeError, Tensor, active_tape, check_finite


def _emit(inputs, out_data, backward_fn, what):
    check_finite(out_data, what)
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        tape.record(inputs, out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# Convolution

# Columns of the wide (O, N*Hp*Wp) layout per conv block.  4096 float32
# columns of a 3x3, 12-output tap stack (108 rows) are 1.7 MiB: the stacked
# GEMM result and the backward scratch stay cache-sized while every GEMM is
# still long enough to run at full speed.
CONV_BLOCK = 4096


def conv2d(x, w, stride=1, pad=0):
    """Cross-correlate NCHW input with OIKK kernels (no bias).

    The padded input is laid out channel-major as ``xf`` of shape
    (C, N*Hp*Wp + tail), the tail being zeros.  Kernel tap (i, j) then reads
    the contiguous slice starting at off = i*Wp + j, so the forward sums
    k*k shifted GEMMs into a "wide" (O, N*Hp*Wp) output that holds every
    padded position.  Positions whose window crosses a row or image edge are
    cropped away; the output is the strided view of the wide result at the
    top-left corners of the valid windows, so every stride, pad and kernel
    size takes the same path.

    The wide output is built in column blocks of ``CONV_BLOCK``: one GEMM of
    all k*k*O stacked taps against the block's slice of ``xf`` (plus the
    tail), then its k*k row groups are shifted by their offsets and added in
    tap order.  This is the kn2row scheme of Anderson et al.,
    arXiv:1709.03395, per cache-sized block.  ``xf`` is freed when the
    forward returns; the backward closure keeps x and rebuilds ``xf`` from
    it, so x must not change between the two passes (rebuilding a cheap copy
    instead of keeping it, as in Pleiss et al., arXiv:1707.06990).  The
    backward walks the same blocks: it fills a fixed (k*k, O, block) scratch
    with the wide output gradient shifted back by each tap's offset and gets
    one block of gw and of the gradient of ``xf`` from one GEMM each.  Each
    block reads only its own columns of ``xf``, so it writes its gradient
    over them, and the rebuilt copy is the only xf-sized array the backward
    allocates.  The tape keeps neither ``xf`` nor a copy of every window.

    Blocks, and groups of images for the pad, the crop and the gradient
    scatter, are chunks of ``parallel.run``.  Each participant has its own
    scratch, and each block keeps its own gw partial, summed in block order
    afterwards, so the result does not depend on which thread ran a block.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW x and OIKK w, got {x.shape} and {w.shape}")
    if w.shape[1] != x.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} has {x.shape[1]} channels, "
            f"kernel {w.shape} expects {w.shape[1]}")
    if w.shape[2] != w.shape[3]:
        raise ShapeError(f"conv2d expects square kernels, got {w.shape}")
    if stride < 1 or pad < 0:
        raise ValueError(f"conv2d: stride must be >= 1 and pad >= 0, got {stride}, {pad}")
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    if h + 2 * pad < kh or wd + 2 * pad < kw:
        raise ShapeError(f"conv2d: kernel {w.shape} larger than padded input {x.shape}")

    hp, wp = h + 2 * pad, wd + 2 * pad
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    m = n * hp * wp
    kk = kh * kw
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    tail = offsets[-1]
    xd = x.data
    dtype = xd.dtype
    images = parallel.spans(n, c * hp * wp * dtype.itemsize)
    block = max(1, min(CONV_BLOCK, m))
    blocks = [slice(a, min(a + block, m)) for a in range(0, m, block)]
    # the rows and columns of the valid window corners in the (Hp, Wp) wide layout
    rows, cols = slice(0, (oh - 1) * stride + 1, stride), slice(0, (ow - 1) * stride + 1, stride)

    def padded():
        # xd channel-major and zero-padded, with a zero tail: (C, N*Hp*Wp + tail)
        xf = np.zeros((c, m + tail), dtype=dtype)
        xf_images = xf[:, :m].reshape(c, n, hp, wp)
        x_cn = xd.transpose(1, 0, 2, 3)

        def pad_images(s, slot):
            xf_images[:, s, pad:pad + h, pad:pad + wd] = x_cn[:, s]

        parallel.run(pad_images, images)
        return xf

    xf = padded()
    taps = w.data.transpose(2, 3, 0, 1).reshape(kk * o, c)
    wide = np.empty((o, m), dtype=dtype)
    scratch = np.empty((parallel.width(blocks), kk * o * (block + tail)), dtype=dtype)

    def forward_block(s, slot):
        a, b = s.start, s.stop
        # stacked[t*O + r, q] = taps[t][r] . xf[:, a + q]; tap t adds its
        # columns off_t.. to wide[:, a:b]
        stacked = scratch[slot, :kk * o * (b - a + tail)].reshape(kk * o, b - a + tail)
        np.matmul(taps, xf[:, a:b + tail], out=stacked)
        wide[:, a:b] = stacked[:o, :b - a]
        for t in range(1, kk):
            wide[:, a:b] += stacked[t * o:(t + 1) * o, offsets[t]:offsets[t] + b - a]

    parallel.run(forward_block, blocks)
    # scratch is freed before the output is allocated; xf only when conv2d
    # returns, as freeing it here as well raised eval-mode peak RSS by 5%
    scratch = None
    wide_images = wide.reshape(o, n, hp, wp)
    out = np.empty((n, o, oh, ow), dtype=dtype)

    def crop_images(s, slot):
        out[s] = wide_images[:, s, rows, cols].transpose(1, 0, 2, 3)

    parallel.run(crop_images, images)

    def backward_fn(gout):
        # gpad[:, tail + p] is the gradient of wide column p; tap t read xf
        # column q into wide column q - off_t, so its shifted gradient at q
        # is gpad[:, tail - off_t + q] (zero where q - off_t < 0).  Columns
        # q >= m of xf (the zero tail) only ever met zero gradient.
        gpad = np.zeros((o, tail + m), dtype=dtype)
        gpad_images = gpad[:, tail:].reshape(o, n, hp, wp)
        gout_cn = gout.transpose(1, 0, 2, 3)

        def scatter_images(s, slot):
            gpad_images[:, s, rows, cols] = gout_cn[:, s]

        parallel.run(scatter_images, images)
        # one gw partial per block, summed in block order below
        gw_blocks = np.empty((len(blocks), kk * o, c), dtype=dtype)
        # each block reads its own columns of xf for gw, then overwrites them
        # with the same columns of the gradient of xf
        xf = padded()
        scratch = np.empty((parallel.width(blocks), kk * o * block), dtype=dtype)
        taps_t = np.ascontiguousarray(taps.T)

        def backward_block(s, slot):
            a, b = s.start, s.stop
            shifted = scratch[slot, :kk * o * (b - a)].reshape(kk, o, b - a)
            for t in range(kk):
                shifted[t] = gpad[:, tail - offsets[t] + a:tail - offsets[t] + b]
            shifted = shifted.reshape(kk * o, b - a)
            np.matmul(shifted, xf[:, a:b].T, out=gw_blocks[a // block])
            np.matmul(taps_t, shifted, out=xf[:, a:b])

        parallel.run(backward_block, blocks)
        gpad = scratch = None  # freed, so the copy into gx peaks at gx + xf + gw
        gw = np.zeros((kk * o, c), dtype=dtype)
        for part in gw_blocks:
            gw += part
        gw_blocks = None
        gxf_images = xf[:, :m].reshape(c, n, hp, wp)
        gx = np.empty((n, c, h, wd), dtype=dtype)

        def crop_gradient(s, slot):
            gx[s] = gxf_images[:, s, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3)

        parallel.run(crop_gradient, images)
        gw = gw.reshape(kh, kw, o, c).transpose(2, 3, 0, 1)
        return gx, np.ascontiguousarray(gw)

    return _emit((x, w), out, backward_fn, "conv2d")


# ---------------------------------------------------------------------------
# Batch normalization

BN_MOMENTUM = 0.1  # running += BN_MOMENTUM * (batch statistic - running)
BN_EPS = 1e-5


def batchnorm2d(x, gamma, beta, running_mean, running_var, mode):
    """Per-channel normalization over (N, H, W): ``(x - mu) * a + beta`` with
    ``a = gamma / sqrt(var + BN_EPS)``, computed in x's dtype.

    Train mode takes mu and var from the batch, var from the centred values,
    and moves the caller's per-channel arrays running_mean and running_var
    toward them in place, by ``BN_MOMENTUM``.  Eval mode takes them from a
    copy of those arrays and leaves them.  The output is the only x-sized
    array the forward allocates: x is centred into it, then scaled and
    shifted in place (eval mode centres in the same pass, per group of
    images).  Centring first keeps the rounding of the output small
    when |mu| >> sigma, where ``x * a + (beta - mu * a)`` would not.

    The backward closure keeps x, the only x-sized array it holds, and
    per-channel numbers, so the output is freed once its reader is done.
    The channel sums of g and of g*x give ``sum g*xhat = inv * (sum g*x -
    mu * sum g)`` (Ioffe & Szegedy, arXiv:1502.03167); they are
    taken in float64, as the difference cancels when |mu| >> sigma.  Then
    ``gx = a * (g + r*x) + q`` with per-channel r and q in train mode, and
    ``gx = a * g`` in eval mode, where the statistics do not depend on x; no
    normalized copy of x is built.  Channel sums, and the centring between
    train mode's mean and variance, run per group of channels; the other
    elementwise passes run per group of images.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm2d: mode must be 'train' or 'eval', got {mode!r}")
    c = x.shape[1]
    if gamma.size != c or beta.size != c:
        raise ShapeError(
            f"batchnorm2d channel mismatch: input has {c} channels, "
            f"gamma has {gamma.size}, beta has {beta.size}")
    per_channel = (1, c, 1, 1)
    xd = x.data
    m = x.shape[0] * x.shape[2] * x.shape[3]
    train = mode == "train"
    groups = parallel.spans(c, xd.nbytes // max(1, c))
    images = parallel.spans(len(xd), xd.nbytes // max(1, len(xd)))
    out = np.empty_like(xd)
    if train:
        mu, var = np.empty(c, dtype=xd.dtype), np.empty(c, dtype=xd.dtype)

        def statistics(s, slot):   # the mean, then the variance of x centred into out
            mu[s] = np.einsum("nchw->c", xd[:, s]) / m
            centred = np.subtract(xd[:, s], mu[s].reshape(-1, 1, 1), out=out[:, s])
            var[s] = np.einsum("nchw,nchw->c", centred, centred) / m

        parallel.run(statistics, groups)
        running_mean += BN_MOMENTUM * (mu - running_mean)
        running_var += BN_MOMENTUM * (var - running_var)
    else:
        # a copy: a later train-mode call updates running_mean in place
        # before this call's backward runs
        mu, var = running_mean.copy(), running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    a = (gamma.data * inv).reshape(per_channel)
    b = beta.data.reshape(per_channel)
    centre = mu.reshape(per_channel)

    def normalize(s, slot):   # train mode's out already holds x - mu
        outs = out[s] if train else np.subtract(xd[s], centre, out=out[s])
        outs *= a
        outs += b

    parallel.run(normalize, images)

    def backward_fn(gout):
        gsum, gxsum = np.empty(c), np.empty(c)

        def sums(s, slot):
            gsum[s] = np.einsum("nchw->c", gout[:, s], dtype=np.float64)
            gxsum[s] = np.einsum("nchw,nchw->c", gout[:, s], xd[:, s], dtype=np.float64)

        parallel.run(sums, groups)
        gdot = inv * (gxsum - mu * gsum)   # sum of gout * xhat
        # gx = a * (gout - mean gout - xhat * mean(gout * xhat)) = a * (gout + r*x) + q
        r = -inv * gdot / m
        q = -a * (gsum / m + r * mu).reshape(per_channel)
        r, q = r.astype(xd.dtype).reshape(per_channel), q.astype(xd.dtype)
        gx = np.empty_like(xd)

        def differentiate(s, slot):
            if train:   # the batch statistics depend on x too
                gxs = np.multiply(xd[s], r, out=gx[s])
                gxs += gout[s]
                gxs *= a
                gxs += q
            else:
                np.multiply(gout[s], a, out=gx[s])

        parallel.run(differentiate, images)
        return gx, gdot.astype(xd.dtype), gsum.astype(xd.dtype)

    return _emit((x, gamma, beta), out, backward_fn, "batchnorm2d")


# ---------------------------------------------------------------------------
# Pointwise and structural ops

def _images(arr):
    """``parallel.spans`` chunks of arr's leading axis; a 0-d array is one chunk."""
    return parallel.spans(len(arr), arr[:1].nbytes) if arr.ndim else [...]


def relu(x):
    """max(x, 0), with gradient g * [x > 0].

    The backward closure keeps the output and rebuilds the mask from it, so
    no mask is kept and the input can be freed.  -0.0 maps to +0.0 and a NaN
    input stays NaN (``np.maximum`` propagates it); its gradient is 0.
    """
    xd = x.data
    out = np.empty(xd.shape, dtype=xd.dtype)
    images = _images(xd)
    parallel.run(lambda s, slot: np.maximum(xd[s], 0, out=out[s]), images)

    def backward_fn(g):
        gx = np.empty(g.shape, dtype=g.dtype)
        parallel.run(lambda s, slot: np.multiply(g[s], out[s] > 0, out=gx[s]), images)
        return (gx,)

    return _emit((x,), out, backward_fn, "relu")


def sigmoid(x):
    z = x.data
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _emit((x,), s, lambda g: (g * s * (1 - s),), "sigmoid")


def exp(x):
    e = np.exp(x.data)
    return _emit((x,), e, lambda g: (g * e,), "exp")


def add(a, b, *rest):
    """((a + b) + c) + ... into one array, in the dtype of all terms, and one tape node;
    each gradient is gout."""
    terms = (a, b, *rest)
    if any(t.shape != a.shape for t in terms):
        raise ShapeError(f"add shape mismatch: {' vs '.join(str(t.shape) for t in terms)}")
    ad, bd = a.data, b.data
    out = np.empty(ad.shape, dtype=np.result_type(*(t.data for t in terms)))

    def add_images(s, slot):
        outs = np.add(ad[s], bd[s], out=out[s])
        for t in rest:
            np.add(outs, t.data[s], out=outs)

    parallel.run(add_images, _images(ad))
    count = len(terms)
    return _emit(terms, out, lambda g: (g,) * count, "add")


def scale(x, c):
    """Multiply by a python constant (no gradient to the constant)."""
    c = float(c)
    return _emit((x,), x.data * np.asarray(c, dtype=x.data.dtype),
                 lambda g: (g * c,), "scale")


def mul_scalar(x, s):
    """Multiply a tensor by a trainable scalar tensor (shape () or (1,))."""
    if s.size != 1:
        raise ShapeError(f"mul_scalar expects a scalar tensor, got shape {s.shape}")
    xd, sval = x.data, s.data.reshape(())
    s_dtype, s_shape = s.data.dtype, s.shape

    def backward_fn(gout):
        return gout * sval, np.asarray((gout * xd).sum(), dtype=s_dtype).reshape(s_shape)

    return _emit((x, s), xd * sval, backward_fn, "mul_scalar")


def mul_channelwise(x, s):
    """Scale each (n, c) feature plane of NCHW x by s[n, c]."""
    if x.ndim != 4 or s.shape != x.shape[:2]:
        raise ShapeError(f"mul_channelwise: x {x.shape} needs s of shape {x.shape[:2]}, got {s.shape}")
    xd, s4 = x.data, s.data[:, :, None, None]

    def backward_fn(gout):
        return gout * s4, (gout * xd).sum(axis=(2, 3))

    return _emit((x, s), xd * s4, backward_fn, "mul_channelwise")


def concat_channels(xs):
    xs = list(xs)
    if not xs:
        raise ShapeError("concat_channels: empty input list")
    base = xs[0].shape
    for t in xs[1:]:
        if t.ndim != xs[0].ndim or t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ShapeError(f"concat_channels shape mismatch: {[t.shape for t in xs]}")
    bounds = np.cumsum([0, *(t.shape[1] for t in xs)])
    out = np.empty((base[0], bounds[-1], *base[2:]), dtype=np.result_type(*(t.data for t in xs)))

    def copy_images(s, slot):
        for t, start, stop in zip(xs, bounds[:-1], bounds[1:]):
            out[s, start:stop] = t.data[s]

    parallel.run(copy_images, _images(out))

    def backward_fn(gout):
        return tuple(np.split(gout, bounds[1:-1], axis=1))

    return _emit(tuple(xs), out, backward_fn, "concat_channels")


def _slice_channels(x, start, size):
    sl = (slice(None), slice(start, start + size))
    shape, dtype = x.shape, x.data.dtype

    def backward_fn(gout):
        gx = np.zeros(shape, dtype=dtype)
        gx[sl] = gout
        return (gx,)

    return _emit((x,), x.data[sl].copy(), backward_fn, "slice_channels")


def split_channels(x, sizes):
    if sum(sizes) != x.shape[1]:
        raise ShapeError(f"split_channels: sizes {sizes} do not sum to {x.shape[1]} channels")
    if any(s <= 0 for s in sizes):
        raise ShapeError(f"split_channels: sizes must be positive, got {sizes}")
    outs, start = [], 0
    for s in sizes:
        outs.append(_slice_channels(x, start, s))
        start += s
    return outs


def avgpool2d(x, k, stride):
    n, c, h, w = x.shape
    if h < k or w < k:
        raise ShapeError(f"avgpool2d: window {k} larger than input {x.shape}")
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.data.dtype)
    for i in range(k):
        for j in range(k):
            out += x.data[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    out /= k * k
    shape, dtype = x.shape, x.data.dtype

    def backward_fn(gout):
        gx = np.zeros(shape, dtype=dtype)
        gshare = gout / (k * k)
        for i in range(k):
            for j in range(k):
                gx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gshare
        return (gx,)

    return _emit((x,), out, backward_fn, "avgpool2d")


def global_avg_pool(x):
    shape, dtype = x.shape, x.data.dtype
    n, c, h, w = shape
    out = x.data.mean(axis=(2, 3))

    def backward_fn(gout):
        return (np.broadcast_to(gout[:, :, None, None] / (h * w), shape).astype(dtype),)

    return _emit((x,), out, backward_fn, "global_avg_pool")


def broadcast_plane(s, n, channels, h, w):
    """Fill an (n, channels, h, w) tensor with a scalar tensor's value."""
    if s.size != 1:
        raise ShapeError(f"broadcast_plane expects a scalar tensor, got shape {s.shape}")
    shape, dtype = s.shape, s.data.dtype
    out = np.full((n, channels, h, w), s.data.reshape(()), dtype=dtype)

    def backward_fn(gout):
        return (np.asarray(gout.sum(), dtype=dtype).reshape(shape),)

    return _emit((s,), out, backward_fn, "broadcast_plane")


def fully_connected(x, w, b):
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"fully_connected: x {x.shape} incompatible with w {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"fully_connected: bias {b.shape} must be ({w.shape[1]},)")
    xd, wd = x.data, w.data
    out = xd @ wd + b.data

    def backward_fn(gout):
        return gout @ wd.T, xd.T @ gout, gout.sum(axis=0)

    return _emit((x, w, b), out, backward_fn, "fully_connected")


def dropout(x, p, mode, rng):
    """Zero activations with probability p in train mode, scaling survivors.

    Eval mode and p == 0 are exact identities (the input tensor is returned).
    The tape keeps the boolean mask of survivors; the backward recomputes
    the factors ``kept / (1 - p)`` with the forward's division, so they are
    bitwise the forward's.
    """
    if not 0 <= p < 1:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout: mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or p == 0:
        return x
    draw_dtype = np.float32 if x.data.dtype == np.float32 else np.float64
    kept = rng.random(x.shape, dtype=draw_dtype) >= p
    keep_p = np.asarray(1 - p, dtype=x.data.dtype)
    return _emit((x,), x.data * (kept / keep_p), lambda g: (g * (kept / keep_p),), "dropout")


def sum_all(x):
    shape, dtype = x.shape, x.data.dtype
    out = np.asarray(x.data.sum(), dtype=dtype).reshape(())

    def backward_fn(gout):
        return (np.full(shape, gout.reshape(()), dtype=dtype),)

    return _emit((x,), out, backward_fn, "sum_all")


def softmax_cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (N, K) logits, got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"softmax_cross_entropy: {n} rows need {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"softmax_cross_entropy: labels must lie in [0, {k}), "
                         f"got range [{labels.min()}, {labels.max()}]")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n), labels] - np.log(ez.sum(axis=1)))
    out = np.asarray(nll.mean(), dtype=logits.data.dtype).reshape(())

    def backward_fn(gout):
        g = probs.copy()
        g[np.arange(n), labels] -= 1
        return (g * (gout.reshape(()) / n),)

    return _emit((logits,), out, backward_fn, "softmax_cross_entropy")
