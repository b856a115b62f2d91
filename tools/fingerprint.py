"""Bitwise fingerprint of rknet's training math, one line per model/dtype case.

For each case the script builds the model (seed 0) and runs one train-mode
pass (dropout 0.2) and one eval-mode pass, each forward and backward, on a
fixed batch.  It prints two SHA-256 digests per case:

- ``values``: the train logits, every parameter gradient, the batchnorm running
  buffers, and the eval logits and every gradient of the eval pass;
- ``structure``: the op sequence of the train-mode tape and its node count.

A change that claims to be bitwise identical keeps every ``values`` digest.
Compare two trees by running the script against each one's ``src``:

    PYTHONPATH=<parent tree>/src python tools/fingerprint.py > before.txt
    PYTHONPATH=src python tools/fingerprint.py > after.txt
    diff before.txt after.txt

Only the standard library and numpy are used.
"""

import hashlib
import sys

import numpy as np

from rknet import model_spec, network, ops
from rknet.rng import make_rng
from rknet.tensor import Tape, backward

BATCH = 4
SMALL = {"k": 4, "input_shape": [3, 8, 8], "num_classes": 4}
MODELS = {
    "paper_erknet": {"name": "ERKNet-3x2_3x2_3x2", "k": 12, "input_shape": [3, 32, 32],
                     "num_classes": 4, "multiscale": True, "attentional_transition": True},
    "erk_m2_bottleneck": {**SMALL, "name": "ERKNet-2x1_2x1", "m": 2, "bottleneck": True},
    "erk_shared": {**SMALL, "name": "ERKNet-2x2_2x1", "share_weights": True},
    "irk_s3": {**SMALL, "name": "IRKNet-3x1_2x1"},
    "irk_bottleneck": {**SMALL, "name": "IRKNet-2x2", "bottleneck": True},
    "time_channel_m3_shared": {**SMALL, "name": "RKNet-1x3", "kind": "time_channel", "m": 3,
                               "share_weights": True},
    "time_channel_m2_bottleneck": {**SMALL, "name": "RKNet-1x2", "kind": "time_channel",
                                   "m": 2, "bottleneck": True},
    "mixed": {**SMALL, "name": "RKNet-2x1_1x2_2x1", "kind": ["erk", "time_channel", "irk"],
              "attentional_transition": True},
}
CASES = [(name, dtype) for name in MODELS for dtype in ("float32", "float64")]


def _op_name(node):
    # every op's backward_fn is defined inside the op, so its qualified name starts with it
    return node.backward_fn.__qualname__.split(".")[0]


def _pass(model, x, labels, mode, rng):
    """Forward and backward once; returns the logits and the tape's op names."""
    with Tape() as tape:
        logits, _ = network.forward(model, x, mode=mode, rng=rng)
        loss = ops.softmax_cross_entropy(logits, labels)
    names = [_op_name(node) for node in tape._nodes]
    backward(tape, loss)
    return logits.data, names


def case_arrays(name, dtype):
    """The (label, array) pairs the values digest covers, and the train tape's op names."""
    spec = model_spec.spec_from_config(MODELS[name])
    model = network.build_model(spec, seed=0, dtype=dtype)
    model.dropout_p = 0.2
    x = make_rng(0, "fingerprint", "x").normal(size=(BATCH, *spec.input_shape))
    labels = np.arange(BATCH) % spec.num_classes
    values = []
    for mode in ("train", "eval"):
        logits, names = _pass(model, x, labels, mode, make_rng(0, "fingerprint", "dropout"))
        values.append((f"{mode}.logits", logits))
        values += [(f"{mode}.grad.{p.name}", p.grad.data.copy()) for p in model.parameters()]
        model.zero_grad()
        if mode == "train":
            structure = names
            values += [(f"buffer.{key}", buf.copy()) for key, buf in model.store.buffers.items()]
    return values, structure


def digest(values):
    """SHA-256 over every label, dtype, shape and byte of the (label, array) pairs."""
    h = hashlib.sha256()
    for label, arr in values:
        arr = np.ascontiguousarray(arr)
        h.update(f"{label}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def structure_digest(names):
    return hashlib.sha256(f"{len(names)}|{','.join(names)}".encode()).hexdigest()


def main():
    for name, dtype in CASES:
        values, names = case_arrays(name, dtype)
        print(f"{name:<27} {dtype}  values {digest(values)[:16]}  "
              f"structure {structure_digest(names)[:16]}  nodes {len(names)}  "
              f"add {names.count('add')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
