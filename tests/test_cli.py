"""Subcommand behavior and the exit-code contract (0 ok / 1 validation / 2 runtime)."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rknet import cli, network, rk
from rknet import model_spec as ms
from rknet.train import TrainConfig

from oracles import forged_checkpoints, forged_headers, forged_metadata

TINY = {"name": "ERKNet-1x1", "k": 4, "input_shape": [3, 8, 8], "num_classes": 4}
SYN = ["--synthetic-train", "32", "--synthetic-test", "8"]
SRC = Path(cli.__file__).resolve().parents[1]


def write_config(tmp_path, filename="model.json", **overrides):
    cfg = {**TINY, **overrides}
    path = tmp_path / filename
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_rejected(argv, capsys, out):
    """Exit 1 with an error line, no traceback, and no output directory; returns stderr."""
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not out.exists()
    return err


@pytest.mark.parametrize("sub", ["build", "train", "eval", "convert",
                                 "verify-order", "inspect-steps"])
def test_help_exits_zero(sub, capsys):
    assert cli.main([sub, "--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


class TestBuild:
    def test_valid_config_prints_period_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, filename="two.json", **{"name": "ERKNet-2x1_2x1", "k": 4})
        assert cli.main(["build", "--config", cfg]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.strip() and l.split()[0].isdigit()]
        assert len(rows) == 2
        assert "total parameters:" in out

    def test_invalid_irk_config_exits_1_citing_rule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"name": "IRKNet-1x1"})
        assert cli.main(["build", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "[IRK Rule 3]" in captured.err
        assert captured.out == ""

    def test_attentional_gate_on_one_channel_exits_1_citing_rule(self, tmp_path, capsys):
        # the gate halves its width, so one channel would leave it no hidden unit
        cfg = write_config(tmp_path, **{"name": "ERKNet-1x1_1x1", "k": 1,
                                        "attentional_transition": [True, False]})
        assert cli.main(["build", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "[attentional transition]" in captured.err
        assert captured.out == ""

    def test_count_below_1_exits_1_naming_its_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, name="ERKNet-1x1_1x1", k=[12, 0])
        err = assert_rejected(["build", "--config", cfg], capsys, tmp_path / "run")
        assert err == "error: config key 'k': expected an integer of at least 1, got 0\n"

    def test_summary_off_prints_single_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["build", "--config", cfg, "--no-print-summary"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("total parameters:")

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli.main(["build", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("sub,overrides", [
    ("build", {"input_shape": 5}),
    ("build", {"name": 5}),
    ("build", {"k": None}),
    ("build", {"num_classes": 0}),
    ("train", {"num_classes": 0}),
    ("train", {"train": 5}),
    ("train", {"train": {"epochs": 1, "warmup": 3}}),
    ("train", {"train": {"epochs": "1"}}),
    ("build", {"multiscale": "false"}),
    ("build", {"bottleneck": "false"}),
    ("build", {"attentional_transition": [0]}),
    ("build", {"share_weights": "no"}),
    ("build", {"k": 2.7}),
    ("build", {"m": 1.5}),
    ("build", {"num_classes": 4.2}),
    ("build", {"input_shape": [0, 8, 8]}),
    ("train", {"train": {"epochs": 1, "dropout_p": 1.5}}),
    ("train", {"train": {"epochs": 1, "dropout_p": -0.1}}),
    ("train", {"train": {"epochs": 1, "momentum": float("nan")}}),
    ("train", {"train": {"epochs": 1, "lr0": float("inf")}}),
    ("train", {"train": {"epochs": 1, "lr_drop_factor": 0}}),
    ("build", {"bottelneck": True}),
    ("train", {"train": {"epochs": 1, "augment": True}}),
    pytest.param("build", "[" * 100000, id="build-deeply-nested"),
    pytest.param("build", None, id="build-without-config"),
])
def test_malformed_config_exits_1_with_an_error_line(tmp_path, capsys, sub, overrides):
    if overrides is None:  # no --config flag at all
        argv = [sub]
    elif isinstance(overrides, str):  # a whole document, not changes to TINY
        (tmp_path / "model.json").write_text(overrides)
        argv = [sub, "--config", str(tmp_path / "model.json")]
    else:
        argv = [sub, "--config", write_config(tmp_path, **overrides)]
    if sub == "train":
        argv += ["--data", "synthetic", *SYN, "--out", str(tmp_path / "run")]
    assert_rejected(argv, capsys, tmp_path / "run")


@pytest.mark.parametrize("flags", [
    ["--lr", "nan"],
    ["--synthetic-train", "0"],
    ["--synthetic-test", "0"],
    ["--dropout", "1.5"],
    ["--batch-size", "0"],
    ["--epochs", "0"],
    ["--seed", "-1"],
    ["--synthetic-noise", "nan"],
    ["--synthetic-noise", "-1"],
    ["--epochs", "abc"],
])
def test_bad_train_flag_exits_1_with_an_error_line(tmp_path, capsys, flags):
    out = tmp_path / "run"
    argv = ["train", "--config", write_config(tmp_path), "--data", "synthetic", *SYN,
            "--epochs", "1", *flags, "--out", str(out)]
    err = assert_rejected(argv, capsys, out)
    assert err.startswith(f"error: argument {flags[0]}: ")


@pytest.mark.parametrize("flags", [["--synthetic-noise", "inf"], ["--synthetic-test", "0"]])
def test_bad_eval_data_flag_is_named_before_the_checkpoint_is_read(tmp_path, capsys, flags):
    argv = ["eval", "--checkpoint", str(tmp_path / "missing.ckpt"), "--data", "synthetic", *flags]
    err = assert_rejected(argv, capsys, tmp_path / "missing.ckpt")
    assert err.startswith(f"error: argument {flags[0]}: ")


def test_bad_train_key_is_named_by_its_key_not_a_flag(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--config", write_config(tmp_path, train={"lr0": float("nan")}),
            "--data", "synthetic", *SYN, "--epochs", "1", "--out", str(out)]
    err = assert_rejected(argv, capsys, out)
    assert "'lr0'" in err and "--" not in err


def test_augment_on_images_not_32x32_exits_1_before_the_model_is_built(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.network, "build_model", lambda *a, **k: pytest.fail("model built"))
    out = tmp_path / "run"
    argv = ["train", "--config", write_config(tmp_path), "--data", "synthetic", *SYN,
            "--epochs", "1", "--augment", "--out", str(out)]
    err = assert_rejected(argv, capsys, out)
    assert err.startswith("error: augment needs 32x32 images, config has input_shape (3, 8, 8)")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TrainConfig)])
def test_every_train_setting_is_checked_by_train_config(tmp_path, capsys, name):
    # TrainConfig is the one validator: a field added later is checked on
    # every path, the library call and the config's "train" section alike
    section = {"epochs": 1, name: "1"}
    with pytest.raises(ValueError, match=name):
        TrainConfig(**section)
    out = tmp_path / "run"
    argv = ["train", "--config", write_config(tmp_path, train=section), "--data", "synthetic",
            *SYN, "--out", str(out)]
    assert_rejected(argv, capsys, out)


SPEC_FIELDS = [(cls, f.name) for cls in (ms.PeriodSpec, ms.ModelSpec)
               for f in dataclasses.fields(cls)]
CONFIG_KEYS = set(ms.spec_to_config(ms.ModelSpec([ms.PeriodSpec(s=1, r=1, k=4)])))


@pytest.mark.parametrize("cls,name", SPEC_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in SPEC_FIELDS])
def test_every_spec_field_is_checked_by_its_dataclass(tmp_path, capsys, cls, name):
    # the dataclasses read their own fields, so a library call, a config file
    # and a checkpoint's __config__ take one path; s, r and periods are set by
    # the model name, every other field by the config key of the same name
    valid = {"periods": [ms.PeriodSpec(s=1, r=1, k=4)]} if cls is ms.ModelSpec else \
        {"s": 1, "r": 1, "k": 4}
    with pytest.raises(ms.ConfigError, match=name):
        cls(**{**valid, name: "1"})
    if name not in ("s", "r", "periods"):
        assert name in CONFIG_KEYS
        assert_rejected(["build", "--config", write_config(tmp_path, **{name: "1"})], capsys,
                        tmp_path / "run")


FUZZ_CONFIG = {"name": "ERKNet-1x1", "kind": "erk", "k": 4, "m": 1, "bottleneck": False,
               "attentional_transition": False, "multiscale": False, "num_classes": 4,
               "input_shape": [3, 8, 8], "share_weights": False,
               "train": {"epochs": 1, "batch_size": 16, "lr0": 0.1, "momentum": 0.9,
                         "weight_decay": 1e-4, "lr_drop_points": [0.5, 0.75],
                         "lr_drop_factor": 10.0, "augment": False, "dropout_p": None, "seed": 0}}
FUZZ_SLOTS = [(None, key) for key in FUZZ_CONFIG] + [("train", key) for key in FUZZ_CONFIG["train"]]
# no large numbers, so no mutation sizes a big allocation
FUZZ_VALUES = ["", "1", "irk", "false", True, False, None, 0, -1, 2.5, float("nan"),
               float("inf"), [], [1], [True, "x"]]


@settings(max_examples=300)
@given(st.sampled_from(FUZZ_SLOTS), st.sampled_from(FUZZ_VALUES))
def test_config_fuzz_exits_0_or_1_with_an_error_line(slot, value):
    section, key = slot
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    (cfg[section] if section else cfg)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "model.json"), os.path.join(tmp, "run")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        for argv in (["build", "--config", path],
                     ["train", "--config", path, "--data", "synthetic", "--synthetic-train", "4",
                      "--synthetic-test", "1", "--out", out]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            assert code in (0, 1), (argv[0], stderr.getvalue())
            if code == 1:
                assert stderr.getvalue().startswith("error: ")
                assert not os.path.exists(out)


# each command's flags that take a value, other than the paths it reads or writes
FLAG_SLOTS = [("build", "--print-summary")] + [
    ("train", flag) for flag in ("--data", "--synthetic-noise", "--synthetic-train",
                                 "--synthetic-test", "--seed", "--epochs", "--batch-size",
                                 "--lr", "--augment", "--dropout")] + [
    ("eval", flag) for flag in ("--data", "--synthetic-noise", "--synthetic-train",
                                "--synthetic-test")] + [
    ("convert", flag) for flag in ("--from", "--layers", "--growth", "--channels")] + [
    ("verify-order", flag) for flag in ("--methods", "--problem", "--h0", "--levels")]
FLAG_VALUES = ["NaN", "Infinity", "-Infinity", "0", "-1", "1e-300", "1e300", "x"]


@pytest.fixture(scope="module")
def flag_fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    write_config(root)
    network.save_checkpoint(network.build_model(ms.spec_from_config(TINY)), root / "tiny.ckpt")
    return root


@settings(max_examples=200)
@given(st.sampled_from(FLAG_SLOTS), st.sampled_from(FLAG_VALUES))
def test_flag_fuzz_exits_0_names_the_flag_or_reports_divergence(flag_fuzz_files, slot, value):
    command, flag = slot
    cfg, ckpt = str(flag_fuzz_files / "model.json"), str(flag_fuzz_files / "tiny.ckpt")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = {"build": ["build", "--config", cfg],
                "train": ["train", "--config", cfg, "--data", "synthetic", "--synthetic-train",
                          "2", "--synthetic-test", "1", "--epochs", "1", "--out", out],
                "eval": ["eval", "--checkpoint", ckpt, "--data", "synthetic",
                         "--synthetic-test", "1"],
                "convert": ["convert", "--from", "densenet", "--layers", "2", "--growth", "2",
                            "--channels", "2", "--out", out],
                "verify-order": ["verify-order", "--methods", "euler", "--problem", "decay",
                                 "--h0", "0.5", "--levels", "3", "--out", out]}[command]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, f"{flag}={value}"])  # the last value of a flag wins
        err = stderr.getvalue()
        last = err.splitlines()[-1] if err else ""
        assert len(err.splitlines()) <= 1, err
        if code == 1:
            assert last.startswith(f"error: argument {flag}"), err
            assert not os.path.exists(out)
        elif code == 2:  # a setting the flag accepts, on a run that diverges or data that overflows
            assert command in ("train", "eval") and last.startswith("error: non-finite"), err
        else:
            assert code == 0, err
        # a failed run leaves no file behind (no temp file either), a finished
        # one its whole outputs, with finite weights
        written = sorted(os.path.relpath(os.path.join(d, f), tmp)
                         for d, _, files in os.walk(tmp) for f in files)
        outputs = {"train": ["out/best.ckpt", "out/final.ckpt", "out/metrics.csv"],
                   "convert": ["out"], "verify-order": ["out"]}
        assert written == (outputs.get(command, []) if code == 0 else [])
        if command == "train" and code == 0:
            model = network.load_checkpoint(os.path.join(out, "final.ckpt"))
            assert all(np.isfinite(p.value.data).all() for p in model.parameters())


FUZZ_MODEL = {"name": "RKNet-1x1", "k": 1, "input_shape": [1, 2, 2], "num_classes": 2}


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.ckpt"
    network.save_checkpoint(network.build_model(ms.spec_from_config(FUZZ_MODEL)), path)
    return path.read_bytes()


@settings(max_examples=400)
@given(st.data())
def test_checkpoint_fuzz_loads_or_exits_2(fuzz_checkpoint, data):
    # a flipped, truncated or lengthened checkpoint loads, or fails as a
    # CheckpointError; any other exception fails the test
    raw = fuzz_checkpoint
    at = data.draw(st.integers(0, len(raw) - 1), "at")
    how = data.draw(st.sampled_from(["flip", "truncate", "insert"]), "how")
    if how == "flip":
        blob = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), "mask")]) + raw[at + 1:]
    elif how == "truncate":
        blob = raw[:at]
    else:
        blob = raw[:at] + data.draw(st.binary(min_size=1, max_size=4), "bytes") + raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            network.load_checkpoint(path)
        except network.CheckpointError:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                assert cli.main(["eval", "--checkpoint", path, "--data", "synthetic"]) == 2
            assert stderr.getvalue().startswith("error: ")


class TestConvert:
    def test_cliquenet_555_names_table2_model(self, tmp_path, capsys):
        out_cfg = tmp_path / "irk.json"
        code = cli.main(["convert", "--from", "cliquenet", "--layers", "5,5,5",
                         "--growth", "80", "--out", str(out_cfg)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "RKNet-5x1_5x1_5x1"
        emitted = json.loads(out_cfg.read_text())
        assert emitted["kind"] == ["irk"] * 3
        assert emitted["k"] == [80] * 3
        assert cli.main(["build", "--config", str(out_cfg)]) == 0

    def test_densenet_conversion_rules_1_and_3(self, tmp_path, capsys):
        out_cfg = tmp_path / "erk.json"
        code = cli.main(["convert", "--from", "densenet", "--layers", "12",
                         "--growth", "12", "--channels", "24", "--out", str(out_cfg)])
        assert code == 0
        emitted = json.loads(out_cfg.read_text())
        assert emitted["name"] == "RKNet-6x1"
        assert emitted["m"] == [2]

    def test_rule_violations_exit_1_naming_rule(self, capsys):
        assert cli.main(["convert", "--from", "densenet", "--layers", "12",
                         "--growth", "12", "--channels", "25"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "[ERK Rule 1]" in captured.err
        assert captured.out == ""
        assert cli.main(["convert", "--from", "cliquenet", "--layers", "1",
                         "--growth", "36"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "[IRK Rule 3]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("growth", ["0", "-12"])
    def test_growth_below_1_exits_1_naming_it(self, tmp_path, capsys, growth):
        out = tmp_path / "erk.json"
        err = assert_rejected(["convert", "--from", "densenet", "--layers", "12", "--growth",
                               growth, "--channels", "24", "--out", str(out)], capsys, out)
        assert "growth_rate" in err


class TestVerifyOrder:
    def test_orders_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "orders.csv"
        code = cli.main(["verify-order", "--methods", "euler,rk4", "--problem", "decay",
                         "--h0", "0.1", "--levels", "3", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "method,problem,h,error,estimated_order"
        assert len(lines) == 1 + 2 * 3
        orders = {}
        for line in lines[1:]:
            method, problem, h, err, order = line.split(",")
            assert problem == "decay"
            assert float(err) > 0
            orders[method] = float(order)
        assert abs(orders["euler"] - 1.0) < 0.3
        assert abs(orders["rk4"] - 4.0) < 0.3

    def test_unknown_method_exits_1(self, capsys):
        assert cli.main(["verify-order", "--methods", "rk99"]) == 1
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--h0", "0"],
        ["--h0", "nan"],
        ["--h0", "-0.1"],
        ["--h0", "0.3"],
        ["--h0", "1e-300", "--levels", "3"],  # about 7e300 steps
        ["--levels", "100000"],
        ["--levels", "2"],
        ["--levels", "40"],
        ["--levels", "2.5"],
    ])
    def test_bad_flag_exits_1_naming_it_before_any_step_runs(self, tmp_path, capsys, flags):
        out = tmp_path / "orders.csv"
        t0 = time.monotonic()
        err = assert_rejected(["verify-order", *flags, "--out", str(out)], capsys, out)
        assert time.monotonic() - t0 < 1
        named = "--h0" if "1e-300" in flags else flags[0]
        assert err.startswith(f"error: argument {named}: ")

    def test_step_count_is_bounded_for_every_accepted_setting(self):
        for levels in range(3, 17):
            for h0 in (1.0, 0.5, 0.1, 1e-3, 1e-5):
                try:
                    study = rk.OrderStudy(h0, levels)
                except ms.ConfigError:
                    continue
                steps = sum(round(1 / h) for h in (study.h0 / 2 ** lv for lv in range(levels)))
                assert steps <= rk.MAX_STUDY_STEPS


def run_cli_process(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                                     os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "rknet.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


# conv2d runs inline on the 8x8 model; at 32x32 its column blocks go to the
# pool's workers, whose numpy error state is the caller's only if run passes it on
@pytest.mark.parametrize("size", [8, 32], ids=["inline", "pooled"])
def test_a_failing_run_prints_exactly_one_stderr_line(tmp_path, size):
    cfg = {**TINY, "input_shape": [3, size, size]}
    path = write_config(tmp_path, **cfg)
    ckpt = tmp_path / "model.ckpt"
    network.save_checkpoint(network.build_model(ms.spec_from_config(cfg)), ckpt)
    for argv in (["train", "--config", path, "--data", "synthetic", "--synthetic-train", "4",
                  "--synthetic-test", "2", "--epochs", "1", "--lr", "1e300",
                  "--out", str(tmp_path / "run")],
                 ["eval", "--checkpoint", str(ckpt), "--data", "synthetic",
                  "--synthetic-test", "2", "--synthetic-noise", "1e300"]):
        done = run_cli_process(*argv)
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines() == [done.stderr.strip()], done.stderr
        assert done.stderr.startswith("error: non-finite test loss")


class TestTrainEvalInspect:
    def _train(self, tmp_path, out_name, seed="0", extra=(), cfg_over=None):
        cfg = write_config(tmp_path, **(cfg_over or {}))
        out = tmp_path / out_name
        code = cli.main(["train", "--config", cfg, "--data", "synthetic", *SYN,
                         "--out", str(out), "--seed", seed, "--epochs", "2",
                         "--batch-size", "16", *extra])
        return code, out

    def test_train_writes_outputs_and_nothing_else(self, tmp_path, capsys):
        code, out = self._train(tmp_path, "run")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["best.ckpt", "final.ckpt", "metrics.csv"]
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 epochs

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        _, out_a = self._train(tmp_path, "a", seed="7")
        _, out_b = self._train(tmp_path, "b", seed="7")
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "final.ckpt").read_bytes() == (out_b / "final.ckpt").read_bytes()

    def test_run_whose_last_update_diverges_exits_2(self, tmp_path, capsys):
        # every batch loss is finite; only the update after the last batch blows up
        cfg = write_config(tmp_path, k=2)
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("earlier run")
        for out in (tmp_path / "run", kept):
            code = cli.main(["train", "--config", cfg, "--data", "synthetic", "--synthetic-train",
                             "4", "--synthetic-test", "2", "--epochs", "1", "--lr", "1e300",
                             "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err == "error: non-finite test loss; epochs trained: 1\n"
        assert not (tmp_path / "run").exists()   # the directory is made at the first write
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "earlier run"

    @pytest.mark.parametrize("out_kind", ["file", "under-file", "dangling-link"])
    def test_out_that_cannot_be_a_directory_exits_1_before_any_data_is_made(
            self, tmp_path, capsys, monkeypatch, out_kind):
        taken = tmp_path / "taken"
        if out_kind == "dangling-link":
            taken.symlink_to(tmp_path / "missing")
        else:
            taken.write_text("earlier file")
        out = taken / "run" if out_kind == "under-file" else taken
        monkeypatch.setattr(cli.datamod, "gen_synthetic_shapes",
                            lambda *a, **k: pytest.fail("data made before --out was checked"))
        code = cli.main(["train", "--config", write_config(tmp_path), "--data", "synthetic",
                         *SYN, "--epochs", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: argument --out: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "taken"]
        if out_kind == "dangling-link":
            assert taken.is_symlink() and not taken.exists()
        else:
            assert taken.read_text() == "earlier file"

    def test_eval_on_non_finite_inputs_exits_2(self, tmp_path, capsys):
        _, out = self._train(tmp_path, "run")
        capsys.readouterr()
        code = cli.main(["eval", "--checkpoint", str(out / "final.ckpt"), "--data", "synthetic",
                         *SYN, "--synthetic-noise", "1e300"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite test loss; epochs trained: 2\n"

    def test_zero_epochs_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli.main(["train", "--config", cfg, "--data", "synthetic", *SYN,
                         "--out", str(tmp_path / "x"), "--epochs", "0"])
        assert code == 1
        assert "at least 1 epoch" in capsys.readouterr().err

    def test_eval_matches_last_csv_row(self, tmp_path, capsys):
        _, out = self._train(tmp_path, "run")
        capsys.readouterr()
        code = cli.main(["eval", "--checkpoint", str(out / "final.ckpt"),
                         "--data", "synthetic", *SYN])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        loss = float(printed.split()[0].split("=")[1])
        acc = float(printed.split()[1].split("=")[1])
        last = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert abs(loss - float(last[4])) < 1e-6
        assert abs(acc - float(last[5])) < 1e-6

    def test_eval_is_deterministic(self, tmp_path, capsys):
        _, out = self._train(tmp_path, "run")
        argv = ["eval", "--checkpoint", str(out / "final.ckpt"), "--data", "synthetic", *SYN]
        capsys.readouterr()
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_corrupted_checkpoint_exits_2(self, tmp_path, capsys):
        _, out = self._train(tmp_path, "run")
        blob = bytearray((out / "final.ckpt").read_bytes())
        blob[:4] = b"ZZZZ"
        bad = tmp_path / "bad.ckpt"
        forged = forged_metadata(network.read_checkpoint_tensors(out / "final.ckpt"))
        for data in [bytes(blob), *forged_checkpoints(), *forged_headers(), *forged]:
            bad.write_bytes(data)
            with pytest.raises(network.CheckpointError):
                network.load_checkpoint(bad)
            assert cli.main(["eval", "--checkpoint", str(bad), "--data", "synthetic", *SYN]) == 2

    def test_inspect_steps_on_fresh_time_channel_model(self, tmp_path, capsys):
        cfg_over = {"name": "RKNet-1x3", "kind": "time_channel", "k": 4,
                    "input_shape": [3, 8, 8], "num_classes": 4}
        from rknet import model_spec as ms
        model = network.build_model(ms.spec_from_config(cfg_over), seed=0)
        path = tmp_path / "tc.ckpt"
        network.save_checkpoint(model, path)
        assert cli.main(["inspect-steps", "--checkpoint", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "period,step,ratio"
        assert lines[1:] == ["1,1,1", "1,2,1", "1,3,1"]

    def test_inspect_steps_rejects_models_without_time_channels(self, tmp_path, capsys):
        _, out = self._train(tmp_path, "run")
        capsys.readouterr()
        code = cli.main(["inspect-steps", "--checkpoint", str(out / "final.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no time-channel" in err
