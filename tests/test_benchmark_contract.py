"""The benchmark's span tracer (``perfbench/tracer.py``) patches rknet by name.

It is loaded here read-only, so that renaming or dropping an op, a block class
or a traced function fails these fast tests, not only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from rknet import data, network, ops, tensor, train
from rknet import model_spec as ms

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # builds BLOCKS, so a missing class fails here
    return module


tracing = load_tracer()


def patched_attributes():
    return ([(ops, op) for op in tracing.TRACED_OPS]
            + [(cls, "forward") for cls in tracing.BLOCKS.values()]
            + [(mod, attr) for mod, attr, _ in tracing.FUNCTIONS]
            + [(tensor, "backward"), (train, "backward"), (tensor.Tape, "record")])


def test_every_traced_name_exists():
    missing = [f"{getattr(obj, '__name__', obj)}.{attr}" for obj, attr in patched_attributes()
               if not callable(getattr(obj, attr, None))]
    assert missing == []


def test_installed_tracer_times_a_train_step_and_restores_the_originals():
    # every block kind, an attentional transition and augmentation in one step
    spec = ms.spec_from_config({"name": "RKNet-1x1_1x1_2x1", "kind": ["erk", "time_channel", "irk"],
                                "k": 4, "attentional_transition": [True, False, False],
                                "input_shape": [3, 32, 32], "num_classes": 4})
    model = network.build_model(spec, seed=0)
    split = data.gen_synthetic_shapes(1, classes=4, size=32, seed=0)
    config = train.TrainConfig(epochs=1, batch_size=len(split), augment=True)
    before = [getattr(obj, attr) for obj, attr in patched_attributes()]

    tracer = tracing.Tracer("train.sgd_nesterov_step")
    tracer.batch = 0
    with tracer.installed():
        train.train_epochs(model, split, split, config)

    after = [getattr(obj, attr) for obj, attr in patched_attributes()]
    assert all(a is b for a, b in zip(after, before))
    metrics, scopes = tracing.summarize(tracer, 1)
    for kind in tracing.BLOCKS:
        assert metrics[f"blocks.{kind}.calls"] > 0, kind
    assert metrics["ops.conv2d.calls"] > 0 and metrics["data.augment_cifar.calls"] == len(split)
    assert metrics["tensor.nodes"] > 0 and metrics["tensor.tape_mib"] > 0
    # every tape node was recorded inside a traced op, so its backward is charged to one
    backward_spans = [s for s in tracer.spans if s.origin is not None]
    assert backward_spans
    assert all(s.origin >= 0 and tracer.spans[s.origin].name.startswith("ops.")
               for s in backward_spans)
    assert any(scope.startswith("period2/") for scope in scopes)
