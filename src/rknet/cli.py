"""Command-line entry point.

Subcommands: build, train, eval, convert, verify-order, inspect-steps.
Exit codes: 0 success, 1 validation failure, 2 runtime error.  Command-line
flags override values from the config file's optional "train" section.
All randomness flows from --seed (default 0).
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as datamod
from . import model_spec as ms
from . import network, rk
from . import train as trainmod
from .atomic import atomic_write


def _fail(message):
    raise ValueError(message)


def _load_spec(path):
    return ms.spec_from_config(ms.load_config(path))


def _flagged(args, settings):
    """The values flags set for fields of the settings dataclass; unset flags are None."""
    return {f.name: value for f in dataclasses.fields(settings)
            if (value := getattr(args, f.name, None)) is not None}


def _resolve_data(arg, spec, seed, synthetic):
    if arg == "synthetic":
        c, h, w = spec.input_shape
        if c != 3 or h != w:
            _fail(f"synthetic data needs input_shape (3, s, s), config has {spec.input_shape}")
        train = datamod.gen_synthetic_shapes(synthetic.train_per_class, classes=spec.num_classes,
                                             size=h, noise=synthetic.noise, seed=seed,
                                             split="train")
        test = datamod.gen_synthetic_shapes(synthetic.test_per_class, classes=spec.num_classes,
                                            size=h, noise=synthetic.noise, seed=seed,
                                            split="test")
        return train, test
    if arg.startswith("cifar10:"):
        train, test = datamod.load_cifar10_binary(arg.split(":", 1)[1])
        return train, test
    _fail(f"argument --data: unknown data source {arg!r}; expected 'synthetic' or "
          f"'cifar10:<dir>'")


def _check_data_shape(spec, dataset):
    if tuple(dataset.images.shape[1:]) != tuple(spec.input_shape):
        _fail(f"dataset images have shape {dataset.images.shape[1:]} but the "
              f"model expects {tuple(spec.input_shape)}")


def cmd_build(args):
    spec = _load_spec(args.config)
    total = ms.count_parameters(spec)
    if args.print_summary:
        per_period = ms.period_parameter_counts(spec)
        print(f"{'period':>6} {'kind':>12} {'s':>3} {'r':>3} {'k':>4} {'m':>3} "
              f"{'channels':>8} {'params':>10}")
        for i, (p, n) in enumerate(zip(spec.periods, per_period)):
            print(f"{i + 1:>6} {p.kind:>12} {p.s:>3} {p.r:>3} {p.k:>4} {p.m:>3} "
                  f"{p.channels:>8} {n:>10}")
    print(f"total parameters: {total}")
    return 0


def _train_section(cfg):
    """The config's optional "train" object; TrainConfig checks its values."""
    section = cfg.get("train", {})
    if not isinstance(section, dict):
        raise ms.ConfigError(f"config key 'train' must be an object, got {section!r}")
    names = [f.name for f in dataclasses.fields(trainmod.TrainConfig)]
    for key in section:
        if key not in names:
            raise ms.ConfigError(f"unknown train key {key!r}; expected one of {sorted(names)}")
    return section


def _check_out_dir(path):
    """--out must be a directory, or not exist yet under one; nothing is made here."""
    nearest = os.path.abspath(path)
    while not os.path.lexists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        _fail(f"argument --out: {nearest!r} is not a directory, so {path!r} cannot be one")


def cmd_train(args):
    _check_out_dir(args.out)
    synthetic = datamod.SyntheticSplits(**_flagged(args, datamod.SyntheticSplits))
    cfg = ms.load_config(args.config)
    spec = ms.spec_from_config(cfg)

    tcfg = {**_train_section(cfg), **_flagged(args, trainmod.TrainConfig)}
    if "epochs" not in tcfg:
        _fail("at least 1 epoch required: pass --epochs or set train.epochs in the config")
    config = trainmod.TrainConfig(**tcfg)

    train_data, test_data = _resolve_data(args.data, spec, config.seed, synthetic)
    _check_data_shape(spec, train_data)
    if config.augment and spec.input_shape[1:] != (32, 32):
        _fail(f"augment needs 32x32 images, config has input_shape {spec.input_shape}")
    model = network.build_model(spec, seed=config.seed)

    best = {"acc": -1.0}

    def on_epoch_end(m, row):
        if row["test_acc"] > best["acc"]:
            best["acc"] = row["test_acc"]
            # the first write of a run, so a run that fails before it leaves no --out
            os.makedirs(args.out, exist_ok=True)
            network.save_checkpoint(m, os.path.join(args.out, "best.ckpt"))

    history = trainmod.train_epochs(model, train_data, test_data, config,
                                    on_epoch_end=on_epoch_end)
    trainmod.write_metrics_csv(history, os.path.join(args.out, "metrics.csv"))
    network.save_checkpoint(model, os.path.join(args.out, "final.ckpt"))
    last = history[-1]
    print(f"trained {config.epochs} epochs: train_acc={last['train_acc']:.4f} "
          f"test_acc={last['test_acc']:.4f} (outputs in {args.out})")
    return 0


def cmd_eval(args):
    synthetic = datamod.SyntheticSplits(**_flagged(args, datamod.SyntheticSplits))
    model = network.load_checkpoint(args.checkpoint)
    _, test = _resolve_data(args.data, model.spec, model.seed, synthetic)
    _check_data_shape(model.spec, test)
    loss, acc = trainmod.evaluate(model, test)
    print(f"loss={loss:.6f} acc={acc:.6f}")
    return 0


def _int_list(text, flag):
    try:
        values = [int(v) for v in text.split(",")]
        if min(values) >= 1:
            return values
    except ValueError:
        pass
    _fail(f"argument {flag}: expected comma-separated integers of at least 1, got {text!r}")


def cmd_convert(args):
    if args.source == "densenet":
        if args.channels is None:
            _fail("--from densenet requires --channels (input width per block)")
        spec = ms.convert_densenet(_int_list(args.layers, "--layers"), args.growth_rate,
                                   _int_list(args.channels, "--channels"))
    else:
        spec = ms.convert_cliquenet(_int_list(args.layers, "--layers"), args.growth_rate)
    print(ms.render_model_name(spec))
    doc = json.dumps(ms.spec_to_config(spec), indent=2, sort_keys=True)
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return 0


def cmd_verify_order(args):
    methods = args.methods.split(",")
    problems = args.problem.split(",")
    for m in methods:
        if m not in rk.tableau_names():
            _fail(f"argument --methods: unknown method {m!r}; known: {rk.tableau_names()}")
    for p in problems:
        if p not in rk.problem_names():
            _fail(f"argument --problem: unknown problem {p!r}; known: {rk.problem_names()}")
    study = rk.OrderStudy(**_flagged(args, rk.OrderStudy))
    lines = ["method,problem,h,error,estimated_order"]
    for m in methods:
        tab = rk.tableau_library(m)
        for pname in problems:
            problem = rk.problem_library(pname)
            hs, errors, order = rk.order_study(tab, problem, study.h0, study.levels)
            for h, err in zip(hs, errors):
                lines.append(f"{m},{pname},{h:.10g},{err:.10e},{order:.6f}")
            print(f"{m} on {pname}: estimated order {order:.3f}")
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return 0


def cmd_inspect_steps(args):
    model = network.load_checkpoint(args.checkpoint)
    rows = model.time_channel_ratios()
    if not rows:
        _fail("checkpoint has no time-channel periods; step-size ratios exist "
              "only for time-channel step blocks")
    print("period,step,ratio")
    for p_idx, s_idx, ratio in rows:
        print(f"{p_idx + 1},{s_idx + 1},{ratio:.6g}")
    return 0


def _flag_names(*actions):
    """{settings field: flag} for flags whose dest is the field they set."""
    return {a.dest: a.option_strings[0] for a in actions}


def _add_data_flags(p):
    p.add_argument("--data", required=True,
                   help="'synthetic' or 'cifar10:<dir with the 6 binary batches>'")
    defaults = datamod.SyntheticSplits   # the dataclass defaults, as class attributes
    return [p.add_argument("--synthetic-noise", dest="noise", type=float,
                           help=f"noise level for synthetic data (default {defaults.noise})"),
            p.add_argument("--synthetic-train", dest="train_per_class", type=int,
                           help="synthetic training samples per class "
                                f"(default {defaults.train_per_class})"),
            p.add_argument("--synthetic-test", dest="test_per_class", type=int,
                           help="synthetic test samples per class "
                                f"(default {defaults.test_per_class})")]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a validation failure: exit 1, one error line
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="rknet",
        description="Build, train, and inspect Runge-Kutta convolutional networks; "
                    "verify integrator convergence orders.",
        epilog="Flags override values from the config file's 'train' section; "
               "all randomness derives from --seed (default 0).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="validate a config and print the model summary")
    p.add_argument("--config", required=True)
    p.add_argument("--print-summary", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="train a model; writes metrics.csv, final.ckpt, best.ckpt")
    p.add_argument("--config", required=True)
    data_flags = _add_data_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    # each flag's dest is the TrainConfig field it sets
    flags = [p.add_argument("--seed", type=int),
             p.add_argument("--epochs", type=int),
             p.add_argument("--batch-size", type=int),
             p.add_argument("--lr", dest="lr0", type=float),
             p.add_argument("--augment", action=argparse.BooleanOptionalAction),
             p.add_argument("--dropout", dest="dropout_p", type=float)]
    p.set_defaults(func=cmd_train, flags=_flag_names(*data_flags, *flags))

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval, flags=_flag_names(*_add_data_flags(p)))

    p = sub.add_parser("convert", help="derive an RKNet config from a DenseNet/CliqueNet layout")
    p.add_argument("--from", dest="source", required=True, choices=("densenet", "cliquenet"))
    p.add_argument("--layers", required=True,
                   help="growths per block, comma separated (e.g. 12,12,12)")
    growth = p.add_argument("--growth", dest="growth_rate", type=int, required=True,
                            help="growth rate k")
    p.add_argument("--channels", default=None,
                   help="densenet only: input width per block, comma separated")
    p.add_argument("--out", default=None, help="write the config JSON here instead of stdout")
    p.set_defaults(func=cmd_convert, flags=_flag_names(growth))

    p = sub.add_parser("verify-order", help="measure integrator convergence orders")
    p.add_argument("--methods", default=",".join(rk.tableau_names()),
                   help="comma-separated tableau names")
    p.add_argument("--problem", default="decay,logistic",
                   help="comma-separated problem names")
    defaults = rk.OrderStudy
    flags = [p.add_argument("--h0", type=float, help=f"largest step size (default {defaults.h0})"),
             p.add_argument("--levels", type=int,
                            help=f"step sizes h0, h0/2, ... (default {defaults.levels})")]
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_verify_order, flags=_flag_names(*flags))

    p = sub.add_parser("inspect-steps", help="print trained h_n/u ratios of time-channel periods")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect_steps)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):   # non-finite results are reported by one error line
            return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ms.ConfigError as exc:
        # a field a flag set is reported under the flag, others by their key
        flag = getattr(args, "flags", {}).get(exc.key)
        set_by_flag = flag is not None and getattr(args, exc.key) is not None
        print(f"error: argument {flag}: {exc.reason}" if set_by_flag else f"error: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, MemoryError) as exc:   # MemoryError: too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
