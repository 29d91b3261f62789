import contextlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpshift.bounds import lab_suite
from sharpshift.cli import build_parser, main
from sharpshift.config import TrainConfig, load_config
from sharpshift.data import base_augment_batch, write_image
from sharpshift.encoder import Encoder, load_checkpoint, save_checkpoint
from sharpshift.fourier import (AugmentConfig, draw_betas, fft_augment_batch, mix_batch,
                                most_similar_index)
from sharpshift.streams import seed_rows
from sharpshift import training
from sharpshift.training import METRICS_NAME, load_eval_data, load_train_data


def run_args(tmp_path, *extra):
    """Common tiny-run config as --set overrides."""
    return [
        "--set", f"train.output_dir={tmp_path / 'run'}",
        "--set", "train.epochs=2",
        "--set", "dataset.n_per_class=10",
        "--set", "dataset.n_eval_per_class=8",
        "--set", "dataset.image_size=8",
        "--set", "train.batch_size=4",
        "--set", "encoder.hidden=8",
        "--set", "encoder.feature_dim=4",
        "--set", "encoder.proj_hidden=8",
        "--set", "probe.epochs=20",
        *extra,
    ]


@pytest.fixture()
def trained(tmp_path):
    assert main(["train", *run_args(tmp_path)]) == 0
    return str(tmp_path / "run" / "checkpoint.ckpt"), tmp_path


def test_train_writes_checkpoint_and_metrics(trained):
    ckpt, tmp_path = trained
    assert os.path.exists(ckpt)
    assert os.path.exists(tmp_path / "run" / METRICS_NAME)


def test_train_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "train.output_dir = {}\n".format(tmp_path / "filerun")
        + "train.epochs = 1\n"
        + "dataset.n_per_class = 8\n"
        + "dataset.image_size = 8\n"
        + "train.batch_size = 4\n"
        + "encoder.hidden = 8\n"
        + "probe.epochs = 5\n"
    )
    assert main(["train", "--config", str(cfg), "--set", "train.epochs=2"]) == 0
    lines = (tmp_path / "filerun" / METRICS_NAME).read_text().splitlines()
    assert len(lines) == 2  # override won


def test_linear_eval_appends_metrics_and_dumps_features(trained, capsys):
    ckpt, tmp_path = trained
    dump = tmp_path / "features.csv"
    code = main([
        "linear-eval", *run_args(tmp_path),
        "--checkpoint", ckpt, "--k", "1,2", "--dump-features", str(dump),
    ])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["event"] == "linear_eval"
    assert 0.0 <= payload["top1"] <= 1.0
    assert payload["top2"] == 1.0  # top-M is always 1 for M = 2
    rows = dump.read_text().splitlines()
    assert len(rows) == 16  # n_eval_per_class * classes
    first = rows[0].split(",")
    # label column plus the backbone feature width (probe tap point)
    assert first[0] in ("0", "1") and len(first) == 1 + 8
    float(first[1])
    stream = (tmp_path / "run" / METRICS_NAME).read_text().splitlines()
    assert any('"event": "linear_eval"' in line for line in stream)


def test_robust_eval_reports_accuracies(trained, capsys):
    ckpt, tmp_path = trained
    code = main([
        "robust-eval", *run_args(tmp_path), "--checkpoint", ckpt,
        "--epsilon", "0.0",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["robust_top1"] == payload["top1"]
    assert "clean_top1" not in payload


def test_shift_gap_subcommand(trained, capsys):
    ckpt, tmp_path = trained
    code = main([
        "shift-gap", *run_args(tmp_path), "--checkpoint", ckpt,
        "--aug", "identity", "--n-mc", "2", "--seed", "3",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["aggregate"] >= 0.0
    assert payload["n_mc_aug"] == 2


def test_bound_lab_suites(capsys):
    for suite in ("mean-classifier", "k-trend", "pac-penalty"):
        code = main(["bound-lab", "--suite", suite, "--n-worlds", "3", "--seed", "1"])
        assert code == 0
        # the CLI prints exactly the library's rows
        expected = [json.dumps(row, sort_keys=True) for row, _ in lab_suite(suite, 3, 1)]
        assert capsys.readouterr().out.splitlines() == expected


def test_augment_preview_writes_files(tmp_path):
    out = tmp_path / "preview"
    code = main([
        "augment-preview", *run_args(tmp_path), "--out", str(out),
        "--n", "3", "--set", "fft.alpha=0.5", "--seed", "2",
    ])
    assert code == 0
    names = sorted(os.listdir(out))
    assert "betas.txt" in names
    assert sum(1 for n in names if n.endswith("_before.ppm")) == 3
    assert sum(1 for n in names if n.endswith("_after.ppm")) == 3
    betas = (out / "betas.txt").read_text().splitlines()
    assert len(betas) == 3


def test_augment_preview_reports_a_file_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "preview"
    blocker = out / "view_000_before.ppm"
    blocker.mkdir(parents=True)  # a directory where the first image goes
    code = main(["augment-preview", *run_args(tmp_path), "--out", str(out), "--n", "2"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {blocker}: Is a directory\n"


def _preview(tmp_path, name, seed, *extra):
    """augment-preview of 6 views on the tiny run: {file name: bytes}."""
    out = tmp_path / name
    argv = ["augment-preview", *run_args(tmp_path), "--out", str(out), "--n", "6",
            "--seed", str(seed), *extra]
    assert main(argv) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _preview_inputs(tmp_path, seed, count=6):
    """The preview's before views and their features, built from the library."""
    config = load_config(None, run_args(tmp_path)[1::2])
    images, _ = load_train_data(config)
    views = base_augment_batch(images[:count], seed_rows(seed, np.arange(count)),
                               config.augment_pool())
    encoder = Encoder(config.encoder_config())
    return views, encoder.forward(encoder.init_params(seed), views)


def _image_files(tmp_path, side, views):
    files = {}
    for i, view in enumerate(views):
        path = tmp_path / f"view_{i:03d}_{side}.ppm"
        write_image(path, view)
        files[path.name] = path.read_bytes()
    return files


def _betas(files):
    return np.array([float(re.fullmatch(r"view_\d{3} beta=(\S+)", line).group(1))
                     for line in files["betas.txt"].decode().splitlines()])


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_augment_preview_after_images_are_its_betas_mixed_toward_their_partners(tmp_path, seed):
    files = _preview(tmp_path, "preview", seed, "--set", "fft.alpha=0.9")
    views, feats = _preview_inputs(tmp_path, seed)
    betas = _betas(files)
    assert betas.shape == (6,) and np.all((betas > 0.0) & (betas <= 0.9))
    partners = [most_similar_index(feats, k) for k in range(6)]
    assert _image_files(tmp_path, "before", views).items() <= files.items()
    after = _image_files(tmp_path, "after", mix_batch(views, partners, betas))
    assert after.items() <= files.items()


def test_augment_preview_takes_alpha_from_the_config(tmp_path):
    default = _preview(tmp_path, "default", 4)
    wide = _preview(tmp_path, "wide", 4, "--set", "fft.alpha=0.5")
    assert np.allclose(_betas(wide), 2.5 * _betas(default))
    before = [name for name in default if name.endswith("_before.ppm")]
    after = [name for name in default if name.endswith("_after.ppm")]
    assert all(wide[name] == default[name] for name in before)
    assert any(wide[name] != default[name] for name in after)


@pytest.mark.parametrize("seed", [0, 5])
def test_augment_preview_at_the_default_alpha_is_one_fft_augment_batch(tmp_path, seed):
    """At the default alpha the files are those of one fft_augment_batch call and its betas."""
    files = _preview(tmp_path, "preview", seed)
    views, feats = _preview_inputs(tmp_path, seed)
    config = AugmentConfig(alpha=0.2, rng_seed=seed)
    betas = draw_betas(seed, 6, config.alpha).tolist()
    expected = {**_image_files(tmp_path, "before", views),
                **_image_files(tmp_path, "after", fft_augment_batch(views, feats, config)),
                "betas.txt": "".join(f"view_{i:03d} beta={beta!r}\n"
                                     for i, beta in enumerate(betas)).encode()}
    assert files == expected


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
def test_augment_preview_takes_the_top_of_the_seed_range(tmp_path, capsys, seed):
    # the seed rows stay uint64: mixed with int64 they would promote to float64
    out = tmp_path / "preview"
    code = main(["augment-preview", *run_args(tmp_path), "--out", str(out),
                 "--n", "2", "--seed", str(seed)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert len(os.listdir(out)) == 5


def test_matrix_subcommand(tmp_path, capsys):
    code = main([
        "matrix", *run_args(tmp_path),
        "--set", f"train.output_dir={tmp_path / 'matrix'}",
        "--variants", "baseline,sam_fft",
    ])
    assert code == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [r["variant"] for r in rows] == ["baseline", "sam_fft"]
    assert os.path.exists(tmp_path / "matrix" / "summary.tsv")


def test_matrix_rejects_unknown_variant(tmp_path, capsys):
    code = main(["matrix", *run_args(tmp_path), "--variants", "baseline,warp"])
    assert code == 1
    assert "unknown variants" in capsys.readouterr().err


def test_matrix_checks_fft_alpha_before_training(tmp_path, capsys):
    code = main(["matrix", *run_args(tmp_path), "--set", "fft.alpha=5"])
    assert code == 1
    assert capsys.readouterr().err == "error: alpha must lie in [0, 1], got 5.0\n"
    assert not (tmp_path / "run").exists()


def test_matrix_reports_every_error_when_no_variant_made_its_directory(tmp_path, capsys):
    out = tmp_path / "new"
    code = main(["matrix", "--data", str(tmp_path / "missing"), "--set", f"train.output_dir={out}",
                 "--variants", "baseline,sam"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [row["variant"] for row in rows] == ["baseline", "sam"]
    assert all(row["error"].startswith("IngestionError: ") for row in rows)
    lines = (out / "summary.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3 and lines[0] == "variant\terror"


def test_missing_checkpoint_fails_cleanly(tmp_path, capsys):
    code = main([
        "linear-eval", *run_args(tmp_path), "--checkpoint",
        str(tmp_path / "nope.ckpt"),
    ])
    assert code == 1


def test_deeply_nested_checkpoint_header_fails_cleanly(tmp_path, capsys):
    ckpt = tmp_path / "nested.ckpt"
    ckpt.write_bytes(b"SHARPSHIFT-CKPT-1\n" + (100_000).to_bytes(8, "little") + b"[" * 100_000)
    code = main(["linear-eval", *run_args(tmp_path), "--checkpoint", str(ckpt)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: truncated or corrupt")


def test_bad_override_fails_cleanly(tmp_path, capsys):
    code = main(["train", "--set", "not-a-pair"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["train.epochs=abc", "train.tau=warm", "encoder.hidden=8,x"])
def test_unparsable_override_fails_cleanly(override, capsys):
    key, raw = override.split("=")
    assert main(["train", "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and raw in err


# each is rejected by the config that owns the value, before training starts
BAD_TRAIN_OVERRIDES = [
    ["train.tau=0"], ["optimizer.lr=-1"], ["augment.crop_scale_min=0"], ["dataset.channels=2"],
    ["fft.enabled=true", "fft.alpha=2"], ["dataset.image_size=0"], ["encoder.hidden=0"],
    ["encoder.hidden=-3"], ["encoder.proj_hidden=-2"], ["train.checkpoint_every=-1"],
    ["dataset.limit=-5"], ["augment.jitter_strength=-1"], ["dataset.channels=0"],
    ["dataset.channels=-1"], ["train.output_dir="],
]

NON_FINITE_TRAIN_OVERRIDES = [
    "train.tau=nan", "optimizer.lr=inf", "sam.rho=nan", "optimizer.weight_decay=nan",
]


@pytest.mark.parametrize("argv", [
    ["train", "--data", "{tmp}/missing", "--set", "train.output_dir={tmp}/failed"],
    ["train", "--config", "{tmp}/missing.cfg", "--set", "train.output_dir={tmp}/failed"],
    ["linear-eval", "--checkpoint", "{ckpt}", "--k", "abc"],
    ["augment-preview", "--out", "{tmp}/failed", "--n", "0"],
    ["linear-eval", "{run}", "--checkpoint", "{ckpt}", "--dump-features", "{tmp}/failed/f.csv"],
    ["augment-preview", "{run}", "--out", "{ckpt}", "--n", "2"],
    ["augment-preview", "{run}", "--out", "{tmp}/failed", "--set", "fft.alpha=nan"],
    ["robust-eval", "{run}", "--checkpoint", "{ckpt}", "--epsilon", "nan"],
    ["bound-lab", "--suite", "k-trend", "--n-worlds", "-1"],
    ["bound-lab", "--suite", "k-trend", "--seed", "-1"],
    ["shift-gap", "{run}", "--checkpoint", "{ckpt}", "--seed", "-1"],
    # every seed is a 64-bit stream key
    ["bound-lab", "--suite", "k-trend", "--seed", str(2**64)],
    ["shift-gap", "{run}", "--checkpoint", "{ckpt}", "--seed", str(2**64)],
    *(["train", "--set", "train.output_dir={tmp}/failed", *(f"--set={o}" for o in overrides)]
      for overrides in BAD_TRAIN_OVERRIDES),
    # the same overrides aimed at the trained run must leave its files alone
    *(["train", "{run}", *(f"--set={o}" for o in overrides)]
      for overrides in BAD_TRAIN_OVERRIDES[:5]),
    # NaN and inf slip past a `value <= 0` check; each must fail it
    *(["train", "{run}", f"--set={o}"] for o in NON_FINITE_TRAIN_OVERRIDES),
    *(["train", "--set", "train.output_dir={tmp}/failed", f"--set={o}"]
      for o in NON_FINITE_TRAIN_OVERRIDES),
    ["linear-eval", "{run}", "--checkpoint", "{ckpt}", "--set", "probe.lr=nan"],
    ["linear-eval", "{run}", "--checkpoint", "{ckpt}", "--set", "probe.tau=nan"],
    ["linear-eval", "{run}", "--checkpoint", "{ckpt}", "--seed", "-1"],
    ["robust-eval", "{run}", "--checkpoint", "{ckpt}", "--seed", "-1"],
    ["shift-gap", "{run}", "--checkpoint", "{ckpt}", "--aug", "fft", "--set", "fft.alpha=nan"],
    ["shift-gap", "{run}", "--checkpoint", "{ckpt}", "--aug", "fft", "--set", "fft.alpha=-0.5"],
    # a held-out split too large to allocate is refused before any data is made
    *([command, "{run}", "--checkpoint", "{ckpt}", "--set", f"dataset.n_eval_per_class={2**64}"]
      for command in ("linear-eval", "robust-eval", "shift-gap")),
])
def test_malformed_cli_input_fails_cleanly(argv, trained, capsys):
    ckpt, tmp_path = trained
    metrics = (tmp_path / "run" / METRICS_NAME).read_bytes()
    capsys.readouterr()
    # "{run}" stands for the overrides the checkpoint was trained with
    argv = [part for arg in argv
            for part in (run_args(tmp_path) if arg == "{run}" else [arg.format(tmp=tmp_path, ckpt=ckpt)])]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "failed").exists()  # a failed command leaves no output behind
    assert (tmp_path / "run" / METRICS_NAME).read_bytes() == metrics


def test_fft_shift_gap_reads_negative_zero_alpha_as_zero(trained, capsys):
    ckpt, tmp_path = trained
    reports = []
    for alpha in ("0", "-0"):
        argv = ["shift-gap", *run_args(tmp_path), "--checkpoint", ckpt, "--aug", "fft",
                "--n-mc", "2", "--set", f"fft.alpha={alpha}"]
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


TRAIN_KEYS = [f.metadata["key"] for f in fields(TrainConfig)]
PATH_KEYS = ("train.output_dir", "dataset.dir")
ADVERSARIAL_VALUES = ["nan", "inf", "-inf", "-0", "0", "-1", "1e300", str(2**63), str(2**64 - 1),
                      str(2**64), "", "abc", "1,2"]
TINY_RUN = [
    "train.epochs=1", "dataset.n_per_class=4", "dataset.n_eval_per_class=2",
    "dataset.image_size=4", "train.batch_size=4", "encoder.hidden=4", "encoder.feature_dim=2",
    "encoder.proj_hidden=4", "probe.epochs=2",
]


def _exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0 or (code == 1 and err.getvalue().startswith("error: ")), (argv, err.getvalue())
    return code


@pytest.mark.parametrize("key", TRAIN_KEYS)
@settings(derandomize=True, max_examples=2, deadline=None, database=None)
@given(data=st.data())
def test_adversarial_config_values_fail_cleanly(tmp_path_factory, key, data):
    """Each adversarial value of ``key``, alone or with a drawn second override.

    A run that trains is then evaluated; no command may end in a traceback.
    """
    second = st.none() | st.tuples(st.sampled_from(TRAIN_KEYS), st.sampled_from(ADVERSARIAL_VALUES))
    for value in ADVERSARIAL_VALUES:
        overrides = [(key, value)] + [pair for pair in [data.draw(second)] if pair]
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            items = [*TINY_RUN, f"train.output_dir={tmp}/run"]
            # a path value stays under the test's own directory
            items += [f"{k}={tmp}/{v}" if k in PATH_KEYS and v else f"{k}={v}" for k, v in overrides]
            argv = [f"--set={item}" for item in items]
            if _exits_cleanly(["train", *argv]) == 0:
                ckpt = os.path.join(load_config(None, items).output_dir, "checkpoint.ckpt")
                for command in (["linear-eval"], ["robust-eval"],
                                ["shift-gap", "--aug", "fft", "--n-mc", "1"]):
                    _exits_cleanly([*command, *argv, "--checkpoint", ckpt])


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    argv = [f"--set={item}" for item in [*TINY_RUN, f"train.output_dir={tmp}/run"]]
    assert main(["train", *argv]) == 0
    return argv, str(tmp / "run" / "checkpoint.ckpt"), tmp


# each flag with the commands that take it
CLI_FLAG_COMMANDS = {
    "--n-mc": [["shift-gap", "--aug", "base"], ["shift-gap", "--aug", "fft"]],
    "--n-worlds": [["bound-lab", "--suite", "k-trend"]],
    "--epsilon": [["robust-eval"]],
    "--seed": [["linear-eval"], ["robust-eval"], ["shift-gap", "--aug", "fft"],
               ["bound-lab", "--suite", "k-trend"], ["augment-preview"]],
    "--k": [["linear-eval"]],
    "--n": [["augment-preview"]],
}


@pytest.mark.parametrize("flag", sorted(CLI_FLAG_COMMANDS))
def test_adversarial_cli_flags_fail_cleanly(tiny_run, flag):
    """Every adversarial value of ``flag`` on the tiny run: exit 0, exit 1 with
    ``error: ``, or argparse's rejection (exit 2). Sizes far past ``SIZE_CAP``
    must be refused, not run."""
    argv, ckpt, tmp = tiny_run
    run = [*argv, "--checkpoint", ckpt]
    context = {"bound-lab": [], "augment-preview": [*run, "--out", f"{tmp}/preview"]}
    for command in CLI_FLAG_COMMANDS[flag]:
        for value in ADVERSARIAL_VALUES:
            # the "=" form hands a value such as "-inf" to the flag's type, not to the parser
            full = [*command, *context.get(command[0], run), f"{flag}={value}"]
            try:
                _exits_cleanly(full)
            except SystemExit as exc:
                assert exc.code == 2, full


# (what the test's directory holds, the command, the path its error names). Of the
# entries held, "name/" is a directory, "name -> target" a symlink, "*.bin" a CIFAR-style
# batch, "*.ckpt" a copy of the tiny run's checkpoint and any other name an empty file.
# "{ckpt}" in the command is the tiny run's checkpoint.
RUN_PATH_CASES = {
    "output_dir_is_a_file": (["out"], ["train"], "out"),
    "output_dir_under_a_file": (["out"], ["train", "--set=train.output_dir={tmp}/out/sub"],
                                "out/sub"),
    "metrics_is_a_directory": (["out/metrics.jsonl/"], ["train"], "out/metrics.jsonl"),
    "resume_metrics_is_a_directory": (["out/metrics.jsonl/"], ["train", "--resume={ckpt}"],
                                      "out/metrics.jsonl"),
    "metrics_is_dev_full": (["out/metrics.jsonl -> /dev/full"], ["train"], "out/metrics.jsonl"),
    "checkpoint_is_a_directory": (["out/checkpoint.ckpt/"], ["train"], "out/checkpoint.ckpt"),
    "eval_metrics_is_a_directory": (["out/metrics.jsonl/", "out/copy.ckpt"],
                                    ["linear-eval", "--checkpoint={tmp}/out/copy.ckpt"],
                                    "out/metrics.jsonl"),
    "summary_under_a_file": (["out"], ["matrix", "--variants=baseline"], "out/summary.tsv"),
    "cifar_batch_is_a_directory": (["cifar/data_batch_1.bin/"], ["train", "--data={tmp}/cifar"],
                                   "cifar/data_batch_1.bin"),
    "cifar_test_batch_is_a_directory": (["cifar/data_batch_1.bin", "cifar/test_batch.bin/"],
                                        ["train", "--data={tmp}/cifar"], "cifar/test_batch.bin"),
    "preview_image_is_a_directory": (["preview/view_000_before.ppm/"],
                                     ["augment-preview", "--out={tmp}/preview"],
                                     "preview/view_000_before.ppm"),
    "preview_betas_is_a_directory": (["preview/betas.txt/"],
                                     ["augment-preview", "--out={tmp}/preview"],
                                     "preview/betas.txt"),
}


@pytest.mark.parametrize("case", sorted(RUN_PATH_CASES))
def test_run_path_os_errors_fail_cleanly(tiny_run, tmp_path, case):
    held, command, named = RUN_PATH_CASES[case]
    argv, ckpt, _ = tiny_run
    for entry in held:
        name, _, link = entry.partition(" -> ")
        target = tmp_path / name.rstrip("/")
        target.parent.mkdir(parents=True, exist_ok=True)
        if link and not os.path.exists(link):
            pytest.skip(f"{link} does not exist here")
        if link:
            target.symlink_to(link)
        elif name.endswith("/"):
            target.mkdir()
        elif name.endswith(".bin"):
            write_fake_cifar(target.parent, name=target.name)
        elif name.endswith(".ckpt"):
            shutil.copy(ckpt, target)
        else:
            target.write_text("")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command[0], *argv, f"--set=train.output_dir={tmp_path}/out",
                     *(arg.format(tmp=tmp_path, ckpt=ckpt) for arg in command[1:])])
    assert code == 1 and err.getvalue().startswith("error: "), err.getvalue()
    assert str(tmp_path / named) in err.getvalue()
    assert not list(tmp_path.rglob("*.tmp"))  # a failed checkpoint write leaves no temporary


@pytest.mark.parametrize("epoch", [-5, -2, 1])
def test_resume_refuses_checkpoint_epoch_outside_the_run(tiny_run, tmp_path, capsys, epoch):
    """The tiny run trains one epoch, so only a checkpoint epoch of -1 or 0 can resume."""
    argv, ckpt, _ = tiny_run
    stored = load_checkpoint(ckpt)
    path = tmp_path / "odd.ckpt"
    save_checkpoint(path, stored.encoder, stored.params,
                    stored.train_config_hash, epoch=epoch)
    code = main(["train", *argv, f"--set=train.output_dir={tmp_path}/out", f"--resume={path}"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: refusing to resume: {path} epoch ")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def resumable_run(tmp_path_factory):
    """The tiny run over four epochs, with a checkpoint after each."""
    tmp = tmp_path_factory.mktemp("resumable")
    argv = [f"--set={item}" for item in [*TINY_RUN, "train.epochs=4", "train.checkpoint_every=1"]]
    assert main(["train", *argv, f"--set=train.output_dir={tmp}/run"]) == 0
    return argv, tmp / "run"


def _resume_on_stream_with(resumable_run, tmp, line, row, epoch):
    """``train --resume`` from checkpoint_ep{epoch} of a copy of the resumable run whose
    metrics line ``row`` reads ``line``; returns (exit code, stderr, stream bytes before,
    stream bytes after)."""
    argv, run = resumable_run
    out = Path(shutil.copytree(run, Path(tmp) / "run"))
    lines = (out / METRICS_NAME).read_bytes().splitlines(keepends=True)
    lines[row] = line.encode("utf-8") + b"\n"
    before = b"".join(lines)
    (out / METRICS_NAME).write_bytes(before)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train", *argv, f"--set=train.output_dir={out}",
                     f"--resume={out}/checkpoint_ep{epoch:04d}.ckpt"])
    return code, err.getvalue(), before, (out / METRICS_NAME).read_bytes()


@pytest.mark.parametrize("line", ["3", "[1,2]", '{"epoch": "x"}', '{"epoch": null}', "[" * 10**5],
                         ids=["3", "list", "str_epoch", "null_epoch", "deep"])
def test_resume_refuses_a_bad_metrics_record_and_keeps_the_stream(resumable_run, tmp_path,
                                                                   line):
    code, err, before, after = _resume_on_stream_with(resumable_run, tmp_path, line, 2, 0)
    assert code == 1 and err.startswith("error: "), err
    assert f"{tmp_path}/run/{METRICS_NAME}: corrupt metrics record" in err
    assert after == before


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_adversarial_metrics_records_fail_cleanly(resumable_run, tmp_path_factory, data):
    """One metrics line replaced by each adversarial value, by a JSON value that is not an
    object, or by ``{"epoch": <value>}``: ``train --resume`` exits 0, or exits 1 with
    ``error: `` and leaves the stream's bytes unchanged."""
    non_object = (JSON_SCALARS | st.lists(JSON_VALUES, max_size=3)).map(json.dumps)
    epoch_record = JSON_VALUES.map(lambda value: json.dumps({"epoch": value}))
    lines = [*ADVERSARIAL_VALUES, *(f'{{"epoch": {value}}}' for value in ADVERSARIAL_VALUES),
             data.draw(non_object, label="non-object"), data.draw(epoch_record, label="epoch")]
    row = data.draw(st.integers(0, 3), label="replaced line")
    epoch = data.draw(st.integers(0, 3), label="resume from checkpoint_ep{epoch}")
    for line in lines:
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            code, err, before, after = _resume_on_stream_with(resumable_run, tmp, line, row,
                                                              epoch)
            assert code == 0 or (code == 1 and err.startswith("error: ")), (line, err)
            assert code == 0 or after == before, line


def test_diverging_run_stderr_starts_with_error(tmp_path):
    """pytest captures warnings raised in its own process, so the command runs in a child."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    items = [*TINY_RUN, f"train.output_dir={tmp_path}/run", "optimizer.lr=1e300"]
    proc = subprocess.run([sys.executable, "-m", "sharpshift.cli", "train",
                           *(f"--set={item}" for item in items)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: "), proc.stderr


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r"^\| `([a-z_.]+)` \|", section, flags=re.M)) == sorted(TRAIN_KEYS)


def test_readme_cli_examples_parse():
    """Every ``sharpshift`` command in README's ``sh`` blocks parses; a stale flag exits."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("sharpshift ")]
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def write_fake_cifar(data_dir, name="data_batch_1.bin", records=12, seed=0, first_label=0):
    """A CIFAR-style batch file of random records with alternating labels
    ``first_label`` and ``first_label + 1``."""
    blob = bytearray()
    rng = np.random.default_rng(seed)
    for i in range(records):
        blob.append(first_label + i % 2)
        blob.extend(rng.integers(0, 256, size=3072, dtype=np.uint16).astype("uint8").tobytes())
    data_dir.mkdir(exist_ok=True)
    (data_dir / name).write_bytes(bytes(blob))


def _record_set(images):
    return {np.round(image * 255).astype(np.uint8).tobytes() for image in images}


@pytest.mark.parametrize("with_test_batch", [False, True])
def test_cifar_train_and_eval_sides_are_disjoint(tmp_path, with_test_batch):
    data_dir = tmp_path / "cifar"
    write_fake_cifar(data_dir)
    if with_test_batch:
        write_fake_cifar(data_dir, name="test_batch.bin", records=6, seed=1)
    for limit in (0, 5):
        cfg = load_config(None, [
            "dataset.name=cifar10", f"dataset.dir={data_dir}", f"dataset.limit={limit}",
        ])
        train_images, _ = load_train_data(cfg)
        eval_images, eval_labels = load_eval_data(cfg)
        assert not _record_set(train_images) & _record_set(eval_images)
        # the limit shrinks the training side only
        assert len(train_images) == (limit or (12 if with_test_batch else 9))
        assert len(eval_labels) == (6 if with_test_batch else 3)


def test_data_flag_selects_cifar(tmp_path, capsys):
    # a 12-record CIFAR-style directory driven purely by --data
    data_dir = tmp_path / "cifar"
    write_fake_cifar(data_dir)
    code = main([
        "train",
        "--data", str(data_dir),
        "--set", f"train.output_dir={tmp_path / 'crun'}",
        "--set", "train.epochs=1",
        "--set", "train.batch_size=4",
        "--set", "encoder.hidden=4",
        "--set", "encoder.feature_dim=4",
        "--set", "encoder.proj_hidden=4",
    ])
    assert code == 0
    assert os.path.exists(tmp_path / "crun" / "checkpoint.ckpt")


@pytest.fixture(scope="module")
def cifar_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cifar")
    write_fake_cifar(tmp / "data")
    argv = [f"--set={item}" for item in [*TINY_RUN, f"train.output_dir={tmp}/run"]]
    assert main(["train", f"--data={tmp}/data", *argv]) == 0
    return argv, str(tmp / "run" / "checkpoint.ckpt")


@pytest.mark.parametrize("command", ["linear-eval", "robust-eval"])
def test_held_out_class_the_probe_never_saw_fails_cleanly(cifar_run, tmp_path, command):
    """Training records hold classes 0 and 1, ``test_batch.bin`` only 2 and 3."""
    argv, ckpt = cifar_run
    data_dir = tmp_path / "cifar"
    write_fake_cifar(data_dir)
    write_fake_cifar(data_dir, name="test_batch.bin", records=4, first_label=2)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, *argv, f"--data={data_dir}", f"--checkpoint={ckpt}"])
    assert code == 1 and err.getvalue().startswith("error: "), err.getvalue()
    assert "[2, 3]" in err.getvalue()


def test_probe_command_reads_the_dataset_once_per_side(cifar_run, tmp_path, monkeypatch):
    """linear-eval --dump-features reads the training side and the held-out side once each."""
    argv, ckpt = cifar_run
    data_dir = tmp_path / "cifar"
    write_fake_cifar(data_dir)
    write_fake_cifar(data_dir, name="test_batch.bin", records=4, seed=1)
    reads = []
    load_cifar10 = training.data_mod.load_cifar10
    monkeypatch.setattr(training.data_mod, "load_cifar10",
                        lambda directory: reads.append(directory) or load_cifar10(directory))
    features = tmp_path / "features.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["linear-eval", *argv, f"--data={data_dir}", f"--checkpoint={ckpt}",
                     f"--dump-features={features}"])
    assert code == 0
    assert len(reads) == 2
    assert len(features.read_text().splitlines()) == 4


def test_matrix_reads_the_held_out_split_once_per_variant(tmp_path, monkeypatch):
    """A one-variant CIFAR matrix reads the dataset for training, for the probe's training
    side, and once for the held-out split that the probe and the shift gap share."""
    data_dir = tmp_path / "cifar"
    write_fake_cifar(data_dir)
    write_fake_cifar(data_dir, name="test_batch.bin", records=4, seed=1)
    argv = ["matrix", f"--data={data_dir}", "--variants=baseline",
            *[f"--set={item}" for item in [*TINY_RUN, f"train.output_dir={tmp_path}/run"]]]
    reads = []
    load_cifar10 = training.data_mod.load_cifar10
    monkeypatch.setattr(training.data_mod, "load_cifar10",
                        lambda directory: reads.append(directory) or load_cifar10(directory))
    summary = tmp_path / "run" / training.SUMMARY_NAME
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(reads) == 3
    shared = summary.read_bytes()
    # the probe and the shift gap each loading their own held-out split give the same row
    for name in ("evaluate_probe", "shift_gap_report"):
        monkeypatch.setattr(training, name, lambda *args, eval_data, _fn=getattr(training, name),
                            **kwargs: _fn(*args, **kwargs))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(reads) == 3 + 5
    assert summary.read_bytes() == shared


# (records per batch file, the path under the data directory that the error names)
EMPTY_CIFAR_CASES = {
    "empty_test_batch": ({"data_batch_1.bin": 12, "test_batch.bin": 0}, "test_batch.bin"),
    "empty_training_batches": ({"data_batch_1.bin": 0, "test_batch.bin": 6}, ""),
    "one_record_without_test_batch": ({"data_batch_1.bin": 1}, ""),
}


@pytest.mark.parametrize("case", sorted(EMPTY_CIFAR_CASES))
def test_empty_cifar_side_fails_cleanly(cifar_run, tmp_path, case):
    argv, ckpt = cifar_run
    files, named = EMPTY_CIFAR_CASES[case]
    data_dir = tmp_path / "cifar"
    for name, records in files.items():
        write_fake_cifar(data_dir, name=name, records=records)
    probes = [[name, f"--checkpoint={ckpt}"]
              for name in ("linear-eval", "robust-eval", "shift-gap")]
    for command in [*probes, ["train"]]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, *argv, f"--data={data_dir}",
                         f"--set=train.output_dir={tmp_path}/out"])
        assert code == 1 and err.getvalue().startswith("error: "), (command, err.getvalue())
        assert f"{data_dir / named}: " in err.getvalue(), (command, err.getvalue())
