"""The fingerprint script: the same run hashes the same, and one bit moves it.

No digest is pinned here; a declared rounding change would otherwise have to
edit it.  The script compares two trees by running it against each.
"""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_a_case_hashes_the_same_twice_and_differently_after_one_gradient_bit_flips():
    values, names = fingerprint.case_arrays("irk_s3", "float32")
    again, names_again = fingerprint.case_arrays("irk_s3", "float32")
    assert fingerprint.digest(values) == fingerprint.digest(again)
    assert fingerprint.structure_digest(names) == fingerprint.structure_digest(names_again)

    label, grad = next((label, arr) for label, arr in again if label.startswith("train.grad."))
    grad.view(np.uint8).reshape(-1)[0] ^= 1   # the lowest bit of the first element
    assert fingerprint.digest(values) != fingerprint.digest(again), label


def test_a_case_covers_both_passes_and_the_buffers():
    assert len(fingerprint.CASES) == 16   # eight models, float32 and float64
    values, names = fingerprint.case_arrays("time_channel_m2_bottleneck", "float64")
    labels = [label for label, _ in values]
    assert labels[0] == "train.logits" and "eval.logits" in labels
    assert any(label.startswith("buffer.") for label in labels)
    assert all(arr.dtype == np.float64 for _, arr in values)
    assert names[-1] == "softmax_cross_entropy"


def test_the_eval_digest_is_stable_and_moves_when_one_weight_bit_flips():
    digests = []
    for flip in (False, False, True):
        model, x, labels = fingerprint.case_model("irk_s3", "float32")
        if flip:   # the sign bit of the first classifier weight
            w = model.store.params["classifier.w"].value.data
            w.reshape(-1)[:1].view(np.uint8)[-1] ^= 0x80
        digests.append(fingerprint.digest(fingerprint.eval_values(model, x, labels)))
    assert digests[0] == digests[1] != digests[2]
