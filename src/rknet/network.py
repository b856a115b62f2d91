"""Assemble preprocessor, periods of step blocks, transitions, and the
classifier head into a trainable model; binary checkpoint serialization.
"""

import json
import math
import os
import struct

import numpy as np

from . import ops
from .atomic import atomic_write
from .blocks import (BatchNorm, ErkStepBlock, IrkStepBlock, ParamStore, SubnetConfig,
                     TimeChannelStepBlock, TransitionLayer, he_normal, xavier_uniform)
from .model_spec import count_parameters, spec_from_config, spec_to_config
from .rng import make_rng
from .tensor import DTYPES, ShapeError, Tensor, op_scope


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or incompatible checkpoint file."""


class RkNetModel:
    """A built classifier: parameter store plus the period/transition wiring."""

    def __init__(self, spec, store, preproc_w, periods, transitions, post_bn, fc_w, fc_b):
        self.spec = spec
        self.store = store
        self.preproc_w = preproc_w
        self.periods = periods            # list of lists of step blocks
        self.transitions = transitions    # len(periods) - 1 TransitionLayers
        self.post_bn = post_bn            # None when multiscale collects features
        self.fc_w = fc_w
        self.fc_b = fc_b
        self.dropout_p = 0.0
        self.epoch = 0
        self.seed = 0

    @property
    def dtype(self):
        return self.store.dtype

    def parameters(self):
        return list(self.store.params.values())

    def zero_grad(self):
        self.store.zero_grad()

    def time_channel_ratios(self):
        """(period_index, step_index, trained h_n/u) for time-channel steps."""
        rows = []
        for p_idx, blocks in enumerate(self.periods):
            for s_idx, blk in enumerate(blocks):
                if isinstance(blk, TimeChannelStepBlock):
                    rows.append((p_idx, s_idx, blk.step_ratio()))
        return rows


def build_model(spec, seed=0, dtype="float32"):
    """Deterministically initialize a model for the given spec.

    Conv weights use He-normal init, fully connected weights Xavier-uniform.
    """
    rng = make_rng(seed, "init")
    store = ParamStore(dtype)

    ch0 = spec.periods[0].channels
    preproc_w = store.add_param("preprocessor.conv.w",
                                he_normal(rng, (ch0, spec.input_shape[0], 3, 3)))

    periods = []
    for p_idx, p in enumerate(spec.periods):
        subnet = SubnetConfig(bottleneck_width=p.bottleneck_width)
        prefix = f"period{p_idx}"
        blocks = []
        for step in range(p.r):
            sp = f"{prefix}.step{step}"
            # shared weights: step n > 0 reuses step 0's block, or for a
            # time-channel step its units (each step keeps its own step size)
            first = blocks[0] if spec.share_weights and blocks else None
            if p.kind == "time_channel":
                blk = TimeChannelStepBlock(store, sp, p.m, p.k, subnet=subnet, rng=rng,
                                           units=first and first.units)
            elif first is not None:
                blk = first
            elif p.kind == "erk":
                blk = ErkStepBlock(store, sp, p.s, p.m, p.k, subnet=subnet, rng=rng)
            else:
                blk = IrkStepBlock(store, sp, p.s, p.k, subnet=subnet, rng=rng)
            blocks.append(blk)
        periods.append(blocks)

    transitions = []
    for p_idx in range(len(spec.periods) - 1):
        transitions.append(TransitionLayer(
            store, f"transition{p_idx}",
            spec.periods[p_idx].channels, spec.periods[p_idx + 1].channels,
            attentional=spec.periods[p_idx].attentional_transition, rng=rng))

    if spec.multiscale:
        post_bn = None
        feat = sum(p.channels for p in spec.periods)
    else:
        post_bn = BatchNorm(store, "postprocessor.bn", spec.periods[-1].channels)
        feat = spec.periods[-1].channels
    fc_w = store.add_param("classifier.w", xavier_uniform(rng, (feat, spec.num_classes)))
    fc_b = store.add_param("classifier.b", np.zeros(spec.num_classes))

    model = RkNetModel(spec, store, preproc_w, periods, transitions, post_bn, fc_w, fc_b)
    model.seed = seed
    return model


def forward(model, x, mode="eval", rng=None):
    """Run the full network; returns (logits, per-period final states)."""
    x = Tensor(x, dtype=model.dtype)
    if tuple(x.shape[1:]) != tuple(model.spec.input_shape):
        raise ShapeError(f"input shape {tuple(x.shape[1:])} does not match "
                         f"model input_shape {tuple(model.spec.input_shape)}")
    with op_scope("preprocessor"):
        h = ops.conv2d(x, model.preproc_w.value, stride=1, pad=1)
    states = []
    for p_idx, blocks in enumerate(model.periods):
        with op_scope(f"period{p_idx}"):
            t_over_u = 0.0
            for s_idx, blk in enumerate(blocks):
                with op_scope(f"step{s_idx}"):
                    if blk.kind == "time_channel":
                        h, t_over_u = blk.forward(h, t_over_u, mode=mode,
                                                  dropout_p=model.dropout_p, rng=rng)
                    else:
                        h = blk.forward(h, mode=mode, dropout_p=model.dropout_p, rng=rng)[0]
            states.append(h)
        if p_idx < len(model.transitions):
            with op_scope(f"transition{p_idx}"):
                h = model.transitions[p_idx].forward(h, mode=mode,
                                                     dropout_p=model.dropout_p, rng=rng)
    with op_scope("postprocessor"):
        if model.spec.multiscale:
            feats = multiscale_collect(states)
        else:
            feats = ops.global_avg_pool(ops.relu(model.post_bn(states[-1], mode)))
        logits = ops.fully_connected(feats, model.fc_w.value, model.fc_b.value)
    return logits, states


def multiscale_collect(states):
    """Global-average-pool each period's final state and concatenate in order."""
    if not states:
        raise ValueError("multiscale_collect: empty state list")
    pooled = [ops.global_avg_pool(s) for s in states]
    return pooled[0] if len(pooled) == 1 else ops.concat_channels(pooled)


# ---------------------------------------------------------------------------
# Checkpoints: magic "RKNT", u32 version, u32 tensor count; per tensor a u16
# name length, UTF-8 name, u8 dtype code, u8 rank, u32 dims, raw LE values.

_MAGIC = b"RKNT"
_VERSION = 1
_DTYPE_CODES = {"float32": 0, "float64": 1, "uint8": 2, "int64": 3, "uint64": 4}
_CODE_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_CODES.items()}


def _state_tensors(model):
    out = {}
    blob = json.dumps(spec_to_config(model.spec), sort_keys=True).encode("utf-8")
    out["__config__"] = np.frombuffer(blob, dtype=np.uint8)
    out["__epoch__"] = np.asarray(model.epoch, dtype=np.int64)
    out["__seed__"] = np.asarray(model.seed, dtype=np.uint64)
    out["__dtype__"] = np.frombuffer(model.dtype.encode(), dtype=np.uint8)
    for name, p in model.store.params.items():
        out[name] = p.value.data
    for name, buf in model.store.buffers.items():
        out[name] = buf
    return out


def _write_tensor(fh, name, arr):
    shape = arr.shape
    arr = np.ascontiguousarray(arr)  # note: promotes 0-d to 1-d, hence explicit shape
    code = _DTYPE_CODES[str(arr.dtype)]
    nb = name.encode("utf-8")
    fh.write(struct.pack("<H", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<BB", code, len(shape)))
    for d in shape:
        fh.write(struct.pack("<I", d))
    fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def save_checkpoint(model, path):
    tensors = _state_tensors(model)
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, arr in tensors.items():
            _write_tensor(fh, name, arr)


def _read_exact(fh, n, what):
    # bounded by the bytes left, so a forged header cannot size an allocation
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(n) if n <= left else b""
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint: expected {n} bytes for {what}, "
                              f"{left} left in the file")
    return data


def read_checkpoint_tensors(path):
    """Parse a checkpoint into an ordered {name: ndarray} dict."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != _MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != _VERSION:
            raise CheckpointError(f"{path}: version {version} unsupported (expected {_VERSION})")
        tensors = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            offset = fh.tell()
            try:
                name = _read_exact(fh, nlen, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor name at byte {offset} "
                                      f"is not UTF-8") from None
            code, rank = struct.unpack("<BB", _read_exact(fh, 2, "dtype/rank"))
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code} for tensor {name!r}")
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, "dim"))[0] for _ in range(rank))
            dt = _CODE_DTYPES[code].newbyteorder("<")
            raw = _read_exact(fh, math.prod(shape) * dt.itemsize, f"data of {name!r}")
            try:
                # numpy caps the rank at 64, and the size even of an empty array
                arr = np.frombuffer(raw, dtype=dt).reshape(shape)
            except ValueError as exc:
                raise CheckpointError(f"{path}: tensor {name!r} of rank {rank}: {exc}") from None
            tensors[name] = arr.astype(_CODE_DTYPES[code])
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after {count} tensors")
    return tensors


def _count(arr, key):
    if arr.ndim != 0 or arr.dtype.kind not in "iu" or arr < 0:
        raise ValueError(f"{key} must be a nonnegative integer scalar, got {arr!r}")
    return int(arr)


def load_checkpoint(path):
    """Rebuild the model recorded in a checkpoint (bitwise parameter round trip)."""
    tensors = read_checkpoint_tensors(path)
    for key in ("__config__", "__epoch__", "__seed__", "__dtype__"):
        if key not in tensors:
            raise CheckpointError(f"{path}: missing {key} entry")
    try:
        seed, epoch = (_count(tensors[key], key) for key in ("__seed__", "__epoch__"))
        dtype = tensors["__dtype__"].tobytes().decode("utf-8")
        if dtype not in DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}")
        cfg = json.loads(tensors["__config__"].tobytes().decode("utf-8"))
        if not isinstance(cfg, dict):
            raise ValueError("__config__ is not a JSON object")
        spec = spec_from_config(cfg)
        # checked before building, so a forged config cannot size an allocation
        values = sum(arr.size for name, arr in tensors.items() if not name.startswith("__"))
        if (wanted := count_parameters(spec)) > values:
            raise CheckpointError(f"{path}: __config__ describes {wanted} parameters, "
                                  f"the file holds {values} values")
        model = build_model(spec, seed=seed, dtype=dtype)
    except (ValueError, RecursionError) as exc:  # RecursionError: too deeply nested JSON
        raise CheckpointError(f"{path}: bad metadata: {exc}") from None
    model.epoch = epoch

    arrays = {name: p.value.data for name, p in model.store.params.items()}
    arrays.update(model.store.buffers)
    expected = arrays.keys()
    stored = {k for k in tensors if not k.startswith("__")}
    if stored != expected:
        unknown = sorted(stored - expected)
        missing = sorted(expected - stored)
        raise CheckpointError(f"{path}: tensor names do not match the model "
                              f"(unknown: {unknown[:5]}, missing: {missing[:5]})")
    for name, dst in arrays.items():
        arr = tensors[name]
        if arr.shape != dst.shape or arr.dtype != dst.dtype:
            raise CheckpointError(f"{path}: tensor {name!r} is {arr.dtype} of shape {arr.shape}, "
                                  f"expected {dst.dtype} of shape {dst.shape}")
        dst[...] = arr
    return model
