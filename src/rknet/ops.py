"""Differentiable layer primitives (numpy forward + hand-written backward).

Convolution walks the batch in groups of whole images: per group, one GEMM
of every stacked kernel tap against a cache-sized, padded channel-major copy
of the group's input, then a shift-add of the partial products (see
``conv2d``), so neither pass builds a batch-sized intermediate.  The naive
sliding-window version lives in the test suite as an independent oracle.
conv2d is also the whole BN -> ReLU -> conv chain of the pre-activation
unit (``blocks._preact_conv``): it reads the unit's list of whole tensors as
they are, with no concat, normalizes the leading ones as batchnorm2d does
(``_normalize``, which both share) and writes relu of that straight into its
padded group buffer, and a trailing time plane raw, so a growth unit makes
no concat, batchnorm or relu output.  Its backward closure keeps the
feature arrays themselves, the taps and per-channel numbers, and rebuilds
each group's padded buffer from them.  batchnorm2d, left for
the classifier head, and the fused conv share one statistics pass and one
per-channel backward (``_statistics``, ``_coefficients``,
``_input_gradient``), with no normalized copy of the input; relu keeps no
mask.  Dropout keeps a boolean mask, not the scaled factors.  Each op
computes in its input's dtype.  conv2d, add, and batchnorm's channel
statistics and gradient sums run their passes in chunks on the calling
thread plus a worker pool (``parallel.run``); a chunk never splits a sum,
so results do not depend on the number of threads.  relu, concat_channels
and batchnorm2d's own normalize and input-gradient passes, which no growth
unit runs, are one numpy call each over the whole array.

Backward closures capture the arrays and shapes they read, never a tensor.
Tape nodes keep only serial numbers and a weak reference to the output, so
the closures are the only owners the tape adds: an output that no closure
reads, such as batchnorm's (relu reads its own output) or a conv's that
dropout has scaled, is freed as soon as the forward drops it.  A growth
unit's output lives until backward, held by the conv closure of every later
unit that reads it.  The closures of conv2d, batchnorm2d and fully_connected
read the op's inputs themselves (relu's reads its output), so an array an op
has read or written must not change between its forward and its backward.
Every op records itself on the active tape (if any) and is pure given its
inputs and rng.

For each input, a backward closure returns None, ``gout`` itself, a view of
``gout``, or an array it allocated for that input alone and keeps no
reference to; and it never writes into ``gout``.  ``tensor.backward`` sums a
tensor's gradients in place into such a fresh array, so an op that broke
this would have its arrays written.  conv2d's input gradients, batchnorm's
and relu's are fresh; add hands ``gout`` to every term,
concat_channels returns views of it, and global_avg_pool a read-only
broadcast of the (N, C) gradient.
"""

import itertools

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


def _check_mode(op, mode):
    if mode not in ("train", "eval"):
        raise ValueError(f"{op}: mode must be 'train' or 'eval', got {mode!r}")


# ---------------------------------------------------------------------------
# Convolution

# Wide columns (padded positions) per group of whole images.  4096 float32
# columns of a 3x3, 12-output tap stack (108 rows) are 1.7 MiB: a group's
# buffers stay cache-sized while every GEMM is still long enough to run at
# full speed.  A group holds at least one image.
CONV_BLOCK = 4096


def conv2d(x, w, stride=1, pad=0, rest=(), norm=None):
    """Cross-correlate NCHW input with OIKK kernels (no bias), optionally
    behind batchnorm and relu.

    The input is the channel concatenation of x and the tensors in ``rest``,
    which is never built: each tensor is written straight into the padded
    buffer below.  ``norm = (gamma, beta, running_mean, running_var, mode)``
    makes the op a whole pre-activation unit: the leading inputs ``gamma``
    covers go in as ``relu((x - mu) * a + beta)``, with mu, a and the
    running-buffer update computed as ``batchnorm2d`` computes them, and a
    trailing time plane goes in raw.  ``gamma.size`` must be the channel
    count of some leading inputs, whole, or the op raises ``ShapeError``.
    So no concat, batchnorm or relu output exists (the shared storage of
    Pleiss et al., arXiv:1707.06990, and the rebuilt activations of Rota
    Bulo et al., arXiv:1712.02616).

    Both passes walk groups of whole images, about ``CONV_BLOCK`` padded
    positions each, from start to finish.  A valid output of an image reads
    only that image's padded region, whatever the stride, so no batch-sized
    intermediate exists (the per-partition lowering of Cho & Brand's MEC,
    arXiv:1706.06873).  A group of G images is laid out channel-major and
    zero-padded as ``xf`` of shape (C, G*Hp*Wp + tail), the tail being zeros.
    Kernel tap (i, j) then reads the contiguous slice starting at
    off = i*Wp + j.  The forward runs one GEMM of all k*k*O stacked taps
    against ``xf`` and adds the k*k row groups, shifted by their offsets, in
    tap order into the first: a "wide" (O, G*Hp*Wp) output that holds every
    padded position.  Positions whose window crosses a row or image edge are
    cropped away; the output is the strided view of the wide result at the
    top-left corners of the valid windows, so every stride, pad and kernel
    size takes the same path.  This is the kn2row scheme of Anderson et al.,
    arXiv:1709.03395.

    The backward closure keeps the input arrays themselves (for a growth
    unit, the step's feature arrays, which later units and the summation
    layer read too), the taps and per-channel numbers, so no input may
    change between the two passes.  Per group it scatters the output
    gradient into a wide gradient, rebuilds ``xf``, prologue included, fills
    a (k*k*O, G*Hp*Wp) stack with the wide gradient shifted back by each
    tap's offset, and gets the group's gw partial and the gradient of ``xf``
    from one GEMM each.  The latter, times relu's mask in the normalized rows
    (``xf > 0``), is cropped into one gradient per input.  Batchnorm's
    backward then runs on the normalized inputs' gradients in place: a
    second pass, as its channel sums need the whole batch.

    Groups are chunks of ``parallel.run``.  Each participant cuts its
    buffers from one scratch that the calling thread allocates per pass.
    ``xf`` and the wide gradient start as zeros, and only image interiors
    and valid corners are written, so their borders stay zero from group to
    group.  Each group keeps its own gw partial, summed in group order
    afterwards, so the result does not depend on which thread ran a group.
    The backward returns one gradient per input, then w's, then gamma's and
    beta's if ``norm`` is given.
    """
    inputs = (x, *rest)
    shapes = " + ".join(str(t.shape) for t in inputs)
    if any(t.ndim != 4 for t in inputs) or w.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW x and OIKK w, got {shapes} and {w.shape}")
    n, _, h, wd = x.shape
    if any(t.shape[0] != n or t.shape[2:] != x.shape[2:] for t in rest):
        raise ShapeError(f"conv2d: every input needs x's batch and spatial size, got {shapes}")
    bounds = [0]   # each input's first channel in the concatenation, then the total
    for t in inputs:
        bounds.append(bounds[-1] + t.shape[1])
    c = bounds[-1]
    if w.shape[1] != c:
        raise ShapeError(
            f"conv2d channel mismatch: input {(n, c, h, wd)} has {c} channels, "
            f"kernel {w.shape} expects {w.shape[1]}")
    if w.shape[2] != w.shape[3]:
        raise ShapeError(f"conv2d expects square kernels, got {w.shape}")
    if stride < 1 or pad < 0:
        raise ValueError(f"conv2d: stride must be >= 1 and pad >= 0, got {stride}, {pad}")
    o, _, kh, kw = w.shape
    if h + 2 * pad < kh or wd + 2 * pad < kw:
        raise ShapeError(f"conv2d: kernel {w.shape} larger than padded input {(n, c, h, wd)}")
    arrays = [t.data for t in inputs]
    dtype = np.result_type(*arrays)
    cn = j = 0   # the normalized channels, and the leading inputs that hold them
    # batchnorm's per-channel numbers, from ``_statistics``, and beta's array
    mu = inv = a = beta = train = None
    if norm is not None:
        gamma, beta = norm[0].data, norm[1].data
        running_mean, running_var, mode = norm[2:]
        _check_mode("conv2d", mode)
        cn = gamma.size
        if beta.size != cn or cn not in bounds[1:]:
            raise ShapeError(f"conv2d: a norm of {cn} gamma and {beta.size} beta channels "
                             f"does not cover whole leading inputs of {shapes}")
        j = bounds.index(cn, 1)
        train = mode == "train"
        mu, inv, a = _statistics(list(zip(arrays[:j], bounds)),
                                 gamma, dtype, running_mean, running_var, mode)

    hp, wp = h + 2 * pad, wd + 2 * pad
    hw = hp * wp
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    kk = kh * kw
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    tail = offsets[-1]
    groups = parallel.spans(n, hw, CONV_BLOCK)
    most = max((s.stop - s.start for s in groups), default=0)   # images in the largest group
    span = most * hw + tail   # the columns of a participant's xf
    # the rows and columns of the valid window corners in the (Hp, Wp) wide layout
    rows, cols = slice(0, (oh - 1) * stride + 1, stride), slice(0, (ow - 1) * stride + 1, stride)
    # one group of the widest normalized input, for the prologue and batchnorm's backward
    most_normed = most * max((arr.shape[1] for arr in arrays[:j]), default=0) * h * wd

    def scratch(zeroed, *sizes):
        # one buffer per pass, cut per participant into regions of these
        # sizes, of which the first ``zeroed`` start as zeros
        buf = np.empty((parallel.width(groups), sum(sizes)), dtype=dtype)
        ends = list(itertools.accumulate(sizes))
        buf[:, :ends[zeroed - 1]] = 0
        return lambda slot: [buf[slot, lo:hi] for lo, hi in zip([0, *ends], ends)]

    def fill(s, xf, tmp):
        # images s of the input, channel-major, into the interiors of the
        # zero-bordered (C, span) xf; returns the group's xf, tail included
        g = s.stop - s.start
        xf[:, g * hw:g * hw + tail] = 0   # where an image of a larger group may lie
        xf_images = xf[:, :g * hw].reshape(c, g, hp, wp)
        for i, (arr, lo, hi) in enumerate(zip(arrays, bounds, bounds[1:])):
            src = arr[s]
            if i < j:   # the prologue, relu of batchnorm's map, in a contiguous scratch
                src = _normalize(src, slice(lo, hi), mu, a, beta,
                                 tmp[:src.size].reshape(src.shape))
                check_finite(src, "batchnorm2d")   # a non-finite value is batchnorm's, and named so
                np.maximum(src, 0, out=src)
            xf_images[lo:hi, :, pad:pad + h, pad:pad + wd] = src.transpose(1, 0, 2, 3)
        return xf[:, :g * hw + tail]

    taps = w.data.transpose(2, 3, 0, 1).reshape(kk * o, c)
    out = np.empty((n, o, oh, ow), dtype=dtype)
    regions = scratch(1, c * span, kk * o * span, most_normed)

    def forward_group(s, slot):
        xf, stack, tmp = regions(slot)
        gm = (s.stop - s.start) * hw   # the group's wide columns
        xf = fill(s, xf.reshape(c, span), tmp)
        # stacked[t*O + r, q] = taps[t][r] . xf[:, q]; tap t adds its columns
        # off_t.. to the wide output, the first row group
        stacked = stack[:kk * o * (gm + tail)].reshape(kk * o, gm + tail)
        np.matmul(taps, xf, out=stacked)
        wide = stacked[:o, :gm]
        for t in range(1, kk):
            wide += stacked[t * o:(t + 1) * o, offsets[t]:offsets[t] + gm]
        out[s] = wide.reshape(o, -1, hp, wp)[:, :, rows, cols].transpose(1, 0, 2, 3)

    parallel.run(forward_group, groups)

    def backward_fn(gout):
        gout_cn = gout.transpose(1, 0, 2, 3)
        taps_t = np.ascontiguousarray(taps.T)
        gxs = [np.empty(arr.shape, dtype=dtype) for arr in arrays]
        gw_parts = np.empty((len(groups), kk * o, c), dtype=dtype)   # one per group
        regions = scratch(2, c * span, o * span, kk * o * most * hw, c * most * hw, most_normed)

        def backward_group(job, slot):
            i, s = job
            xf, gpad, stack, gxf, tmp = regions(slot)
            gm = (s.stop - s.start) * hw
            xf = fill(s, xf.reshape(c, span), tmp)[:, :gm]
            # gpad[:, tail + p] is the gradient of wide column p; tap t read xf
            # column q into wide column q - off_t, so its shifted gradient at q
            # is gpad[:, tail - off_t + q] (zero where q - off_t < 0).  Columns
            # q >= gm of xf (the zero tail) only ever met zero gradient.
            gpad = gpad.reshape(o, span)
            gpad[:, tail:tail + gm].reshape(o, -1, hp, wp)[:, :, rows, cols] = gout_cn[:, s]
            shifted = stack[:kk * o * gm].reshape(kk, o, gm)
            for t in range(kk):
                shifted[t] = gpad[:, tail - offsets[t]:tail - offsets[t] + gm]
            shifted = shifted.reshape(kk * o, gm)
            np.matmul(shifted, xf.T, out=gw_parts[i])
            gxf = np.matmul(taps_t, shifted, out=gxf[:c * gm].reshape(c, gm))
            # relu's gradient: g where its input is > 0, so -0.0 where g < 0 and it is not
            gxf[:cn] *= xf[:cn] > 0
            gxf_images = gxf.reshape(c, -1, hp, wp)
            for gx, lo, hi in zip(gxs, bounds, bounds[1:]):
                gx[s] = gxf_images[lo:hi, :, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3)

        parallel.run(backward_group, list(enumerate(groups)))
        gw = np.zeros((kk * o, c), dtype=dtype)
        for part in gw_parts:
            gw += part
        gw = gw.reshape(kh, kw, o, c).transpose(2, 3, 0, 1)
        grads = (*gxs, np.ascontiguousarray(gw))
        if not j:
            return grads
        dgamma, dbeta, r, q = _coefficients(list(zip(gxs[:j], arrays[:j], bounds)),
                                            mu, inv, a, train, dtype)
        a3 = a.reshape(-1, 1, 1)

        def differentiate(s, slot):
            tmp = regions(slot)[-1]
            for arr, gx, lo, hi in zip(arrays[:j], gxs, bounds, bounds[1:]):
                g = gx[s]   # batchnorm's backward, in place
                _input_gradient(arr[s], g, slice(lo, hi), a3, r, q, g,
                                tmp[:g.size].reshape(g.shape))

        parallel.run(differentiate, groups)
        return (*grads, dgamma, dbeta)

    params = () if norm is None else norm[:2]
    return _emit((*inputs, w, *params), out, backward_fn, "conv2d")


# ---------------------------------------------------------------------------
# Batch normalization

BN_MOMENTUM = 0.1  # running += BN_MOMENTUM * (batch statistic - running)
BN_EPS = 1e-5


def _plane_sums(a, b=None, dtype=None):
    """Per-channel sums of NCHW a, or of a*b if b is given, in dtype (a's if
    None).  Each (n, c) plane is reduced alone, then each channel's n plane
    partials are summed as one contiguous row, so a channel's sum does not
    depend on the channels beside it: it is the same alone, in a group of
    channels or inside a wider array."""
    planes = [t.reshape(*t.shape[:2], -1) for t in (a, b) if t is not None]
    p = np.einsum("nci,nci->nc" if b is not None else "nci->nc", *planes, dtype=dtype)
    return np.ascontiguousarray(p.T).sum(axis=1)


def _statistics(parts, gamma, dtype, running_mean, running_var, mode):
    """Batchnorm's per-channel mu, ``inv = 1 / sqrt(var + BN_EPS)`` and ``a =
    gamma * inv``, in dtype, of the channel concatenation of ``parts``: (NCHW
    array, first channel) pairs that together hold gamma's channels.

    Train mode takes mu and var from the batch, var from the values centred
    per group of channels into a scratch of one group, and moves the caller's
    per-channel arrays running_mean and running_var toward them in place, by
    ``BN_MOMENTUM``; a batch with no values raises ``ShapeError`` before
    either moves.  Eval mode takes a copy of running_mean (a later train-mode
    call updates it in place before this call's backward runs) and
    running_var.
    """
    if mode == "eval":
        mu, var = running_mean.copy(), running_var
    else:
        n, _, h, w = parts[0][0].shape
        m = n * h * w
        if not m:
            raise ShapeError(f"batchnorm: train-mode statistics need at least one value per "
                             f"channel, got inputs {' + '.join(str(x.shape) for x, _ in parts)}")
        jobs = [(arr, lo, s) for arr, lo in parts
                for s in parallel.spans(arr.shape[1], arr[:, :1].nbytes)]
        widest = max(s.stop - s.start for _, _, s in jobs)
        scratch = np.empty((parallel.width(jobs), n, widest, h, w), dtype=dtype)
        mu, var = np.empty(gamma.size, dtype=dtype), np.empty(gamma.size, dtype=dtype)

        def statistics(job, slot):   # the mean, then the variance of the centred values
            arr, lo, s = job
            xs, ch = arr[:, s], slice(lo + s.start, lo + s.stop)
            mu[ch] = _plane_sums(xs) / m
            centred = np.subtract(xs, mu[ch].reshape(-1, 1, 1),
                                  out=scratch[slot, :, :s.stop - s.start])
            var[ch] = _plane_sums(centred, centred) / m

        parallel.run(statistics, jobs)
        running_mean += BN_MOMENTUM * (mu - running_mean)
        running_var += BN_MOMENTUM * (var - running_var)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    return mu, inv, gamma * inv


def _coefficients(parts, mu, inv, a, train, dtype):
    """Batchnorm's per-channel backward numbers from the output gradient g
    over (g, x, first channel) triples of NCHW arrays that together hold mu's
    channels: dgamma = sum g*xhat and dbeta = sum g, then the (C, 1, 1) r and
    q of the train-mode input gradient ``a * (g + r*x) + q`` (None in eval
    mode, where the statistics do not depend on x and the gradient is
    ``a * g``), all in dtype.  mu, inv and a are ``_statistics``' numbers.

    The sums of g and of g*x are taken in float64, each group of channels one
    chunk.  They give ``sum g*xhat = inv * (sum g*x - mu * sum g)`` (Ioffe &
    Szegedy, arXiv:1502.03167), whose difference cancels when |mu| >> sigma.
    """
    n, _, h, w = parts[0][1].shape
    m = n * h * w   # the count each channel's statistics are taken over
    gsum, gxsum = np.empty(mu.size), np.empty(mu.size)
    jobs = [(g, x, lo, s) for g, x, lo in parts
            for s in parallel.spans(x.shape[1], x[:, :1].nbytes)]

    def sums(job, slot):
        g, x, lo, s = job
        ch = slice(lo + s.start, lo + s.stop)
        gsum[ch] = _plane_sums(g[:, s], dtype=np.float64)
        gxsum[ch] = _plane_sums(g[:, s], x[:, s], dtype=np.float64)

    parallel.run(sums, jobs)
    gdot = inv * (gxsum - mu * gsum)
    params = gdot.astype(dtype), gsum.astype(dtype)
    if not train:
        return (*params, None, None)
    # gx = a * (g - mean g - xhat * mean(g * xhat)) = a * (g + r*x) + q
    r = -inv * gdot / m
    q = -a * (gsum / m + r * mu)
    return (*params, r.astype(dtype).reshape(-1, 1, 1), q.astype(dtype).reshape(-1, 1, 1))


def _normalize(x, ch, mu, a, beta, out=None):
    """Batchnorm's map ``(x - mu) * a + beta`` of NCHW x, over channels ``ch``
    of the per-channel arrays mu, a and beta, into out (a new array if None).
    Centring first keeps its rounding small when |mu| >> sigma, where ``x * a
    + (beta - mu * a)`` would not."""
    v = np.subtract(x, mu[ch].reshape(-1, 1, 1), out=out)
    v *= a[ch].reshape(-1, 1, 1)
    v += beta[ch].reshape(-1, 1, 1)
    return v


def _input_gradient(x, g, ch, a, r, q, out, tmp):
    """Batchnorm's input gradient of NCHW channels ``ch`` of the (C, 1, 1)
    arrays a, r and q: ``a * (g + r*x) + q``, or ``a * g`` when r is None,
    into out.  tmp takes r*x; it may be out, unless out is g."""
    if r is None:
        return np.multiply(g, a[ch], out=out)
    gx = np.add(g, np.multiply(x, r[ch], out=tmp), out=out)
    gx *= a[ch]
    gx += q[ch]
    return gx


def batchnorm2d(x, gamma, beta, running_mean, running_var, mode):
    """Per-channel normalization over (N, H, W): ``(x - mu) * a + beta`` with
    ``a = gamma / sqrt(var + BN_EPS)``, computed in x's dtype.

    Train mode takes mu and var from the batch, var from the centred values,
    and moves the caller's per-channel arrays running_mean and running_var
    toward them in place, by ``BN_MOMENTUM``.  Eval mode takes them from a
    copy of those arrays and leaves them (``_statistics``, which conv2d's
    prologue shares).  The output is the only x-sized array the forward
    allocates: x is centred into it, then scaled and shifted in place
    (``_normalize``, which conv2d's prologue shares).

    The backward closure keeps x, the only x-sized array it holds, and
    per-channel numbers, so the output is freed once its reader is done.
    From the float64 channel sums of g and of g*x it gets ``gx = a * (g +
    r*x) + q`` with per-channel r and q in train mode, and ``gx = a * g`` in
    eval mode, where the statistics do not depend on x; no normalized copy
    of x is built.
    """
    _check_mode("batchnorm2d", mode)
    c = x.shape[1]
    if gamma.size != c or beta.size != c:
        raise ShapeError(
            f"batchnorm2d channel mismatch: input has {c} channels, "
            f"gamma has {gamma.size}, beta has {beta.size}")
    xd = x.data
    mu, inv, a = _statistics([(xd, 0)], gamma.data, xd.dtype, running_mean, running_var, mode)
    out = _normalize(xd, slice(None), mu, a, beta.data)

    def backward_fn(gout):
        dgamma, dbeta, r, q = _coefficients([(gout, xd, 0)], mu, inv, a, mode == "train",
                                            xd.dtype)
        gx = np.empty_like(xd)
        _input_gradient(xd, gout, slice(None), a.reshape(-1, 1, 1), r, q, gx, gx)
        return gx, dgamma, dbeta

    return _emit((x, gamma, beta), out, backward_fn, "batchnorm2d")


# ---------------------------------------------------------------------------
# Pointwise and structural ops

def relu(x):
    """max(x, 0), with gradient g * [x > 0].

    The backward closure keeps the output and rebuilds the mask from it, so
    no mask is kept and the input can be freed.  -0.0 maps to +0.0 and a NaN
    input stays NaN (``np.maximum`` propagates it); its gradient is 0.
    """
    xd = x.data
    # out= keeps a 0-d input's output and gradient arrays, not numpy scalars
    out = np.maximum(xd, 0, out=np.empty_like(xd))

    def backward_fn(g):
        return (np.multiply(g, out > 0, out=np.empty_like(g)),)

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

    # chunks of whole images; a 0-d array is one chunk
    parallel.run(add_images, parallel.spans(len(ad), ad[:1].nbytes) if ad.ndim else [...])
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
    if any(t.ndim < 2 for t in xs):
        raise ShapeError(f"concat_channels needs a channel axis (ndim >= 2), "
                         f"got {[t.shape for t in xs]}")
    base = xs[0].shape
    for t in xs[1:]:
        if t.ndim != xs[0].ndim or t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ShapeError(f"concat_channels shape mismatch: {[t.shape for t in xs]}")
    bounds = np.cumsum([0, *(t.shape[1] for t in xs)])   # for the backward's split
    out = np.concatenate([t.data for t in xs], axis=1)

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
    if k < 1 or stride < 1:
        raise ValueError(f"avgpool2d: k and stride must be >= 1, got {k}, {stride}")
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
        # a read-only stride-0 view, so no (N, C, H, W) array waits for x's other readers
        return (np.broadcast_to((gout / (h * w)).astype(dtype, copy=False)[:, :, None, None],
                                shape),)

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
    _check_mode("dropout", mode)
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
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"softmax_cross_entropy: labels need an integer dtype, "
                         f"got {labels.dtype}")
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
