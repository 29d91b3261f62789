"""Command-line interface: train, evaluate, measure, inspect."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds, data, training
from .config import load_config
from .encoder import Encoder
from .errors import AugmentationError, EvaluationError, SharpshiftError, check_range, os_errors
from .evaluation import FGSM_DEFAULT_EPSILON
from .fourier import draw_betas, mix_with_most_similar
from .streams import seed_rows


def _add_config_args(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable; wins over the file)",
    )
    parser.add_argument("--data", help='"synthetic" or a directory of CIFAR-10 .bin batches')


def _config_from(args):
    overrides = list(args.overrides)
    if args.data == "synthetic":
        overrides.append("dataset.name=synthetic")
    elif args.data:
        overrides += ["dataset.name=cifar10", f"dataset.dir={args.data}"]
    return load_config(args.config, overrides)


def _cmd_train(args):
    config = _config_from(args)
    path = training.train_ssl(config, resume=args.resume)
    print(f"checkpoint written to {path}")
    return 0


def _cmd_probe(args):
    """linear-eval and robust-eval: train the probe, report accuracies, log the record."""
    if args.seed is not None:
        args.overrides.append(f"probe.seed={args.seed}")
    try:
        ks = tuple(int(k) for k in args.k.split(","))
    except ValueError:
        raise EvaluationError(f"--k must be comma-separated integers, got {args.k!r}") from None
    config = _config_from(args)
    encoder, params, _ = training.load_run(args.checkpoint)
    images, labels = eval_data = training.load_eval_data(config)
    _, results = training.evaluate_probe(config, encoder, params, ks=ks, epsilon=args.epsilon,
                                         eval_data=eval_data)
    if args.dump_features:
        feats = encoder.forward(params, images, tap=config.probe_tap_point)
        with (os_errors(EvaluationError, args.dump_features),
              open(args.dump_features, "w", encoding="utf-8") as fh):
            for row, label in zip(feats, labels):
                fh.write(",".join([str(int(label))] + [repr(float(v)) for v in row]) + "\n")
        print(f"features written to {args.dump_features}")
    payload = {"event": args.command.replace("-", "_"), "checkpoint": args.checkpoint, **results}
    if args.epsilon is not None:
        payload["epsilon"] = args.epsilon
    training.append_metrics(args.checkpoint, payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_shift_gap(args):
    config = _config_from(args)
    encoder, params, _ = training.load_run(args.checkpoint)
    report = training.shift_gap_report(config, encoder, params, args.aug, n_mc=args.n_mc,
                                       seed=args.seed)
    record = report.to_json()
    training.append_metrics(args.checkpoint,
                            {"event": "shift_gap", "aug": args.aug, **json.loads(record)})
    print(record)
    return 0


def _cmd_bound_lab(args):
    failures = 0
    for row, holds in bounds.lab_suite(args.suite, args.n_worlds, args.seed):
        print(json.dumps(row, sort_keys=True))
        failures += 0 if holds else 1
    return 1 if failures else 0


def _cmd_augment_preview(args):
    config = _config_from(args)
    images, _ = training.load_train_data(config)
    count = check_range(AugmentationError, "--n (amplitude mixing pairs views)",
                        min(args.n, len(images)), 2)
    seeds = seed_rows(args.seed, np.arange(count))  # checks --seed first
    batch = data.base_augment_batch(images[:count], seeds, config.augment_pool())
    if args.checkpoint:
        encoder, params, _ = training.load_run(args.checkpoint)
    else:
        encoder = Encoder(config.encoder_config())
        params = encoder.init_params(args.seed)
    betas = draw_betas(args.seed, count, config.fft_alpha)
    mixed = mix_with_most_similar(batch, encoder.forward(params, batch), betas)
    with os_errors(AugmentationError, args.out):
        os.makedirs(args.out, exist_ok=True)
    for i in range(count):
        for side, views in (("before", batch), ("after", mixed)):
            data.write_image(os.path.join(args.out, f"view_{i:03d}_{side}.ppm"), views[i])
    path = os.path.join(args.out, "betas.txt")
    with os_errors(AugmentationError, path), open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"view_{i:03d} beta={beta!r}\n" for i, beta in enumerate(betas.tolist()))
    print(f"wrote {count} before/after pairs to {args.out}")
    return 0


def _cmd_matrix(args):
    config = _config_from(args)
    wanted = args.variants.split(",")
    available = dict(training.standard_variants(config))
    unknown = [name for name in wanted if name not in available]
    if unknown:
        raise SharpshiftError(f"unknown variants {unknown}; choose from {sorted(available)}")
    rows = training.run_experiment_matrix(
        [(name, available[name]) for name in wanted],
        summary_path=os.path.join(config.output_dir, training.SUMMARY_NAME),
    )
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 1 if any("error" in row for row in rows) else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sharpshift",
        description="Contrastive training with sharpness-aware updates and "
                    "frequency-domain augmentation, plus evaluation and bound labs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run self-supervised training")
    _add_config_args(p)
    p.add_argument("--resume", help="checkpoint to resume from (config hash must match)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("linear-eval", help="linear probe on frozen features")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", default="1", help="comma-separated top-k values")
    p.add_argument("--seed", type=int, default=None, help="probe training seed")
    p.add_argument("--dump-features", help="write feature,label rows to this file")
    p.set_defaults(func=_cmd_probe, epsilon=None)

    p = sub.add_parser("robust-eval", help="single-step adversarial accuracy")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--epsilon", type=float, default=FGSM_DEFAULT_EPSILON)
    p.add_argument("--seed", type=int, default=None, help="probe training seed")
    p.set_defaults(func=_cmd_probe, k="1", dump_features=None)

    p = sub.add_parser("shift-gap", help="positive-pair distribution-shift gap")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--aug", choices=("base", "fft", "identity"), default="base")
    p.add_argument("--n-mc", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_shift_gap)

    p = sub.add_parser("bound-lab", help="exact inequality checks on finite worlds")
    p.add_argument("--suite", choices=("mean-classifier", "k-trend", "pac-penalty"),
                   required=True)
    p.add_argument("--n-worlds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bound_lab)

    p = sub.add_parser("augment-preview", help="write before/after images of mixing at fft.alpha")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", help="use this encoder for pairing (default: fresh init)")
    p.set_defaults(func=_cmd_augment_preview)

    p = sub.add_parser("matrix", help="train and evaluate ablation variants")
    _add_config_args(p)
    p.add_argument("--variants", default="baseline,sam,asam,fft,sam_fft")
    p.set_defaults(func=_cmd_matrix)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging run ends in the error below; NumPy's overflow warnings would precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SharpshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
