"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The CIFAR-10 smoke test
(criterion 11) only runs when RKNET_CIFAR10_DIR points at the six binary
batch files; it is not CI-gating.
"""

import json
import os
import re
import time

import numpy as np
import pytest

from rknet import cli, ops, rk
from rknet import model_spec as ms
from rknet import network
from rknet import train as T
from rknet.blocks import ErkStepBlock, IrkStepBlock, ParamStore, SubnetConfig
from rknet.data import gen_synthetic_shapes, load_cifar10_binary
from rknet.rng import make_rng
from rknet.tensor import Tape, Tensor, backward

from oracles import fd_gradcheck, mean_all, wire_erk_linear, wire_irk_gauss_scalar

LINEAR = SubnetConfig(linear_test_mode=True)


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def shapes_data():
    train = gen_synthetic_shapes(500, size=16, noise=0.15, seed=0, split="train")
    test = gen_synthetic_shapes(100, size=16, noise=0.15, seed=0, split="test")
    return train, test


def test_criterion_01_integrator_orders(tmp_path):
    t0 = time.monotonic()
    out_csv = tmp_path / "orders.csv"
    code = cli.main(["verify-order", "--methods", ",".join(rk.tableau_names()),
                     "--problem", "decay,logistic", "--h0", "0.1", "--levels", "4",
                     "--out", str(out_csv)])
    assert code == 0
    orders = {}
    for line in out_csv.read_text().splitlines()[1:]:
        method, problem, _, _, order = line.split(",")
        orders[(method, problem)] = float(order)
    nominal = {"euler": 1.0, "heun": 2.0, "rk4": 4.0, "implicit_midpoint": 2.0, "gauss2": 4.0}
    bad = {key: val for key, val in orders.items()
           if abs(val - nominal[key[0]]) > 0.3}
    elapsed = time.monotonic() - t0
    summary = ", ".join(f"{m}/{p}={orders[(m, p)]:.2f}"
                        for m in nominal for p in ("decay", "logistic"))
    report(1, not bad and elapsed < 10,
           f"orders within ±0.3 of nominal in {elapsed:.1f}s ({summary})")


def test_criterion_02_erk_block_is_rk4():
    t0 = time.monotonic()
    tab = rk.tableau_library("rk4")
    mat = np.array([[0.0, 1.0], [-2.0, -0.3]])
    h = 0.1
    store = ParamStore("float64")
    blk = ErkStepBlock(store, "b", tab.s, 1, 2, subnet=LINEAR)
    wire_erk_linear(blk, tab, mat, h)
    y_ref = np.array([1.0, -0.5])
    y_net = Tensor(y_ref.reshape(1, 2, 1, 1).copy(), dtype="float64")
    for n in range(10):
        y_ref = rk.rk_step(tab, lambda t, y: mat @ y, n * h, y_ref, h)
        y_net, _ = blk.forward(y_net, mode="eval")
    rel = float(np.max(np.abs(y_net.data.reshape(-1) - y_ref)) / np.max(np.abs(y_ref)))
    elapsed = time.monotonic() - t0
    report(2, rel < 1e-6 and elapsed < 1,
           f"erk block matches rk4 on y'=Ay over 10 steps, rel err {rel:.2e} in {elapsed:.2f}s")


def test_criterion_03_irk_block_is_gauss2():
    t0 = time.monotonic()
    tab = rk.tableau_library("gauss2")
    lam, h = -1.0, 0.1
    store = ParamStore("float64")
    blk = IrkStepBlock(store, "b", 2, 1, subnet=LINEAR)
    wire_irk_gauss_scalar(blk, tab, lam, h)
    y_ref = np.array([1.0])
    y_net = Tensor(np.ones((1, 1, 1, 1)), dtype="float64")
    for n in range(10):
        y_ref = rk.rk_step(tab, lambda t, y: lam * y, n * h, y_ref, h)
        y_net, _, _ = blk.forward(y_net, mode="eval")
    rel = abs(float(y_net.data.reshape(())) - y_ref[0]) / abs(y_ref[0])
    elapsed = time.monotonic() - t0
    report(3, rel < 1e-6 and elapsed < 1,
           f"irk block matches gauss2 on y'=-y over 10 steps, rel err {rel:.2e} in {elapsed:.2f}s")


def _op_gradient_cases():
    """One finite-difference case per layer op (>= 50 coordinates each)."""
    rng = np.random.default_rng(0)
    cases = []

    def add_case(name, build):
        cases.append((name, build))

    def tensor(shape, scale=0.6):
        from rknet.tensor import Parameter
        return Parameter(Tensor(rng.normal(size=shape) * scale, dtype="float64"), name=f"{len(cases)}")

    # conv2d (+ relu)
    x, w = tensor((2, 3, 6, 6)), tensor((4, 3, 3, 3))
    add_case("conv2d", (lambda x=x, w=w: mean_all(
        ops.relu(ops.conv2d(x.value, w.value, 2, 1))), [x, w], (30, 30)))
    # batchnorm2d (train) + sigmoid
    xb, g, b = tensor((3, 4, 5, 5)), tensor((4,), 1.0), tensor((4,), 0.3)
    stats = (np.zeros(4), np.ones(4))
    add_case("batchnorm2d", (lambda x=xb, g=g, b=b: mean_all(
        ops.sigmoid(ops.batchnorm2d(x.value, g.value, b.value, *stats, "train"))),
        [xb, g, b], (44, 4, 4)))
    # concat/split/add/avgpool
    xa, xc = tensor((2, 2, 4, 4)), tensor((2, 3, 4, 4))
    def structural(xa=xa, xc=xc):
        whole = ops.concat_channels([xa.value, xc.value])
        left, right = ops.split_channels(whole, [3, 2])
        return mean_all(ops.avgpool2d(ops.add(right, xa.value), 2, 2))
    add_case("concat/split/add/avgpool", (structural, [xa, xc], (26, 26)))
    # global pool + fully connected + softmax CE
    xf, fw, fb = tensor((3, 5, 4, 4)), tensor((5, 4)), tensor((4,), 0.1)
    labels = [0, 2, 3]
    def head(xf=xf, fw=fw, fb=fb):
        feats = ops.global_avg_pool(xf.value)
        return ops.softmax_cross_entropy(ops.fully_connected(feats, fw.value, fb.value), labels)
    add_case("global_pool/fc/softmax_ce", (head, [xf, fw, fb], (28, 20, 4)))
    # dropout with a fixed mask key
    xd = tensor((4, 4, 4, 4))
    add_case("dropout", (lambda xd=xd: mean_all(
        ops.dropout(ops.sigmoid(xd.value), 0.3, "train", make_rng(1, "fd"))), [xd], (52,)))
    # exp / scale / mul_scalar / broadcast_plane / mul_channelwise
    xs, s, gate = tensor((2, 3, 3, 3)), tensor(()), tensor((2, 3), 0.4)
    def scalar_ops(xs=xs, s=s, gate=gate):
        plane = ops.broadcast_plane(ops.exp(s.value), 2, 1, 3, 3)
        h = ops.concat_channels([ops.mul_channelwise(xs.value, gate.value), plane])
        return mean_all(ops.mul_scalar(ops.scale(h, 0.7), ops.exp(s.value)))
    add_case("exp/scale/mul_scalar/broadcast/channelwise", (scalar_ops, [xs, s, gate], (45, 1, 6)))
    return cases


def test_criterion_04_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    failures = []
    for name, (fn, params, counts) in _op_gradient_cases():
        assert sum(min(c, p.value.size) for c, p in zip(counts, params)) >= 50
        for p in params:
            p.zero_grad()
        with Tape() as tape:
            loss = fn()
        backward(tape, loss)
        for p, n in zip(params, counts):
            worst = fd_gradcheck(lambda: fn().data, [p], rng, n_coords=n)
            if worst >= 1e-4:
                failures.append(f"{name}:{p.name} rel {worst}")  # names a ReLU kink, if any

    # full tiny model, float64, 50 sampled parameter coordinates
    cfg = {"name": "ERKNet-2x1", "k": 4, "input_shape": [3, 8, 8], "num_classes": 4}
    model = network.build_model(ms.spec_from_config(cfg), seed=1, dtype="float64")
    model.dropout_p = 0.2
    x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
    labels = [0, 3]

    def model_loss():
        logits, _ = network.forward(model, x, mode="train", rng=make_rng(2, "fd"))
        return ops.softmax_cross_entropy(logits, labels)

    model.zero_grad()
    with Tape() as tape:
        loss = model_loss()
    backward(tape, loss)
    params = model.parameters()
    per_param = max(1, 50 // len(params) + 1)
    worst_model = max(fd_gradcheck(lambda: model_loss().data, [p], rng, n_coords=per_param)
                      for p in params)
    if worst_model >= 1e-4:
        failures.append(f"tiny model rel {worst_model}")
    elapsed = time.monotonic() - t0
    report(4, not failures and elapsed < 60,
           f"all layer ops and a tiny model match finite differences "
           f"(worst model rel {worst_model:.2e}) in {elapsed:.1f}s"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_05_causality_and_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    checks = []

    # erk dense-connectivity causality (bitwise)
    store = ParamStore("float32")
    blk = ErkStepBlock(store, "e", 4, 1, 3, rng=make_rng(0, "a"))
    y = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32))
    _, base_groups = blk.forward(y, mode="eval")
    ok = True
    for j in range(blk.s):
        saved = blk.stages[j][0].w.value.data.copy()
        blk.stages[j][0].w.value.data += 0.5
        _, groups = blk.forward(y, mode="eval")
        ok &= all(np.array_equal(groups[i].data, base_groups[i].data) for i in range(j))
        blk.stages[j][0].w.value.data[...] = saved
    checks.append(("erk causality", ok))

    # irk stage-II dataflow (bitwise): updaters never influence Stage-I values
    store = ParamStore("float32")
    iblk = IrkStepBlock(store, "i", 3, 3, rng=make_rng(0, "b"))
    yi = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32))
    _, base_init, base_upd = iblk.forward(yi, mode="eval")
    iblk.updaters[0].w.value.data += 0.5
    _, init2, _ = iblk.forward(yi, mode="eval")
    ok = all(np.array_equal(a.data, b.data) for a, b in zip(init2, base_init))
    iblk.initializers[0].w.value.data += 0.5
    _, init3, upd3 = iblk.forward(yi, mode="eval")
    ok &= not np.array_equal(init3[1].data, base_init[1].data)
    ok &= not np.array_equal(upd3[1].data, base_upd[1].data)
    checks.append(("irk dataflow", ok))

    # zero-increment identity (bitwise), whole period
    cfg = {"name": "IRKNet-2x2", "k": 4, "input_shape": [3, 8, 8], "num_classes": 4}
    model = network.build_model(ms.spec_from_config(cfg), seed=2)
    for blkk in model.periods[0]:
        for u in blkk.updaters:
            u.w.value.data[...] = 0
    x = Tensor(rng.normal(size=(1, 3, 8, 8)).astype(np.float32))
    h = ops.conv2d(x, model.preproc_w.value, stride=1, pad=1)
    state = h
    for blkk in model.periods[0]:
        state = blkk.forward(state, mode="eval")[0]
    checks.append(("zero-increment identity", np.array_equal(state.data, h.data)))

    elapsed = time.monotonic() - t0
    failed = [name for name, ok in checks if not ok]
    report(5, not failed and elapsed < 10,
           f"bitwise causality/identity checks pass in {elapsed:.1f}s"
           + (f"; failed: {failed}" if failed else ""))


@pytest.mark.slow
def test_criterion_06_stage_trend(shapes_data):
    t0 = time.monotonic()
    train, test = shapes_data
    mean_err = {}
    for name, s in (("ERKNet-1x1", 1), ("ERKNet-3x1", 3)):
        errs = []
        for seed in (0, 1, 2):
            cfg = {"name": name, "k": 8, "m": 1, "input_shape": [3, 16, 16], "num_classes": 4}
            model = network.build_model(ms.spec_from_config(cfg), seed=seed)
            tc = T.TrainConfig(epochs=10, batch_size=64, seed=seed)
            hist = T.train_epochs(model, train, test, tc)
            errs.append(100.0 * (1.0 - hist[-1]["test_acc"]))
        mean_err[name] = sum(errs) / len(errs)
    elapsed = time.monotonic() - t0
    gap = mean_err["ERKNet-3x1"] - mean_err["ERKNet-1x1"]
    report(6, gap <= 1.0 and elapsed < 15 * 60,
           f"3-stage mean test error {mean_err['ERKNet-3x1']:.2f}% vs 1-stage "
           f"{mean_err['ERKNet-1x1']:.2f}% (gap {gap:+.2f}pp <= +1.0pp) in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_training_sanity(shapes_data):
    t0 = time.monotonic()
    train, test = shapes_data
    cfg = {"name": "IRKNet-2x1_2x1", "k": 12, "input_shape": [3, 16, 16], "num_classes": 4}
    model = network.build_model(ms.spec_from_config(cfg), seed=0)
    hist = T.train_epochs(model, train, test, T.TrainConfig(epochs=6, batch_size=64, seed=0))
    best = max(row["train_acc"] for row in hist)
    reached = next((row["epoch"] for row in hist if row["train_acc"] >= 0.95), None)
    elapsed = time.monotonic() - t0
    report(7, best >= 0.95 and elapsed < 10 * 60,
           f"IRKNet-2x1_2x1 reached {100 * best:.1f}% train accuracy "
           f"(>= 95% at epoch {reached}, well within 30) in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_adaptive_step_ratios(shapes_data, tmp_path):
    t0 = time.monotonic()
    train, test = shapes_data
    cfg = {"name": "RKNet-1x4", "kind": "time_channel", "k": 8, "m": 1,
           "input_shape": [3, 16, 16], "num_classes": 4}
    varied = 0
    all_ratios = []
    ckpt = tmp_path / "tc.ckpt"
    for seed in (0, 1, 2):
        model = network.build_model(ms.spec_from_config(cfg), seed=seed)
        T.train_epochs(model, train, test, T.TrainConfig(epochs=20, batch_size=64, seed=seed))
        ratios = [r for _, _, r in model.time_channel_ratios()]
        all_ratios.append(ratios)
        assert all(np.isfinite(r) for r in ratios)
        assert all(r > 0 for r in ratios)  # sign-consistent by construction
        if max(ratios) / min(ratios) > 1.05:
            varied += 1
        if seed == 0:
            network.save_checkpoint(model, ckpt)

    code = cli.main(["inspect-steps", "--checkpoint", str(ckpt)])
    assert code == 0
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(["inspect-steps", "--checkpoint", str(ckpt)])
    lines = buf.getvalue().strip().splitlines()
    fmt_ok = lines[0] == "period,step,ratio" and len(lines) == 5 and all(
        re.fullmatch(r"\d+,\d+,-?\d+(\.\d+)?([eE][-+]?\d+)?", l) for l in lines[1:])

    elapsed = time.monotonic() - t0
    shown = "; ".join("[" + ", ".join(f"{r:.3f}" for r in rs) + "]" for rs in all_ratios)
    report(8, varied >= 2 and fmt_ok and elapsed < 10 * 60,
           f"trained step ratios per seed {shown}; {varied}/3 seeds vary by >5%, "
           f"inspect-steps format ok, in {elapsed:.0f}s")


def test_criterion_09_conversion_round_trips(tmp_path, capsys):
    t0 = time.monotonic()
    out_cfg = tmp_path / "clique.json"
    assert cli.main(["convert", "--from", "cliquenet", "--layers", "5,5,5",
                     "--growth", "80", "--out", str(out_cfg)]) == 0
    name_line = capsys.readouterr().out.splitlines()[0]
    spec = ms.spec_from_config(json.loads(out_cfg.read_text()))
    dn = ms.convert_densenet([12], 12, [24])
    fixtures_ok = True
    assert cli.main(["convert", "--from", "densenet", "--layers", "12",
                     "--growth", "12", "--channels", "25"]) == 1
    fixtures_ok &= "ERK Rule 1" in capsys.readouterr().err
    assert cli.main(["convert", "--from", "densenet", "--layers", "7",
                     "--growth", "12", "--channels", "24"]) == 1
    fixtures_ok &= "ERK Rule 3" in capsys.readouterr().err
    assert cli.main(["convert", "--from", "cliquenet", "--layers", "1",
                     "--growth", "36"]) == 1
    fixtures_ok &= "IRK Rule 3" in capsys.readouterr().err
    elapsed = time.monotonic() - t0
    ok = (name_line == "RKNet-5x1_5x1_5x1"
          and all(p.kind == "irk" and p.k == 80 for p in spec.periods)
          and (dn.periods[0].m, dn.periods[0].s) == (2, 6)
          and fixtures_ok and elapsed < 1)
    report(9, ok, f"cliquenet [5,5,5] k=80 -> {name_line}; densenet 12/12/24 -> "
                  f"(m={dn.periods[0].m}, s={dn.periods[0].s}); violations exit 1 "
                  f"citing their rules, in {elapsed:.2f}s")


def test_criterion_10_serialization(tmp_path):
    t0 = time.monotonic()
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps({"name": "ERKNet-1x1", "k": 4,
                                    "input_shape": [3, 8, 8], "num_classes": 4}))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["train", "--config", str(cfg_path), "--data", "synthetic",
                         "--synthetic-train", "32", "--synthetic-test", "8",
                         "--out", str(out), "--seed", "5", "--epochs", "2",
                         "--batch-size", "16"]) == 0
        outs.append(out)
    csv_identical = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()

    model = network.load_checkpoint(outs[0] / "final.ckpt")
    x = np.random.default_rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
    before, _ = network.forward(model, x, mode="eval")
    resaved = tmp_path / "resaved.ckpt"
    network.save_checkpoint(model, resaved)
    reloaded = network.load_checkpoint(resaved)
    bitwise = all(np.array_equal(p.value.data, reloaded.store.params[n].value.data)
                  for n, p in model.store.params.items())
    bitwise &= all(np.array_equal(b, reloaded.store.buffers[n])
                   for n, b in model.store.buffers.items())
    after, _ = network.forward(reloaded, x, mode="eval")
    logits_identical = np.array_equal(before.data, after.data)
    bytes_identical = (outs[0] / "final.ckpt").read_bytes() == resaved.read_bytes()
    elapsed = time.monotonic() - t0
    report(10, csv_identical and bitwise and logits_identical and bytes_identical
           and elapsed < 30,
           f"checkpoint round trip bitwise, logits identical, same-seed metrics "
           f"byte-identical, in {elapsed:.0f}s")


@pytest.mark.skipif("RKNET_CIFAR10_DIR" not in os.environ,
                    reason="set RKNET_CIFAR10_DIR to run the CIFAR-10 smoke test "
                           "(optional, not CI-gating)")
def test_criterion_11_cifar10_smoke():
    t0 = time.monotonic()
    train, test = load_cifar10_binary(os.environ["RKNET_CIFAR10_DIR"])
    cfg = {"name": "IRKNet-2x1_2x1_2x1", "k": 12, "bottleneck": True,
           "input_shape": [3, 32, 32], "num_classes": 10}
    model = network.build_model(ms.spec_from_config(cfg), seed=0)
    tc = T.TrainConfig(epochs=40, batch_size=64, augment=True, seed=0)
    hist = T.train_epochs(model, train, test, tc)
    err = 100.0 * (1.0 - max(row["test_acc"] for row in hist))
    elapsed = time.monotonic() - t0
    report(11, err <= 20.0, f"CIFAR-10 test error {err:.2f}% (<= 20%) in {elapsed:.0f}s")
