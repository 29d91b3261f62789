import json
import os
import shutil
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sharpshift import fourier, training
from sharpshift.cli import main
from sharpshift.config import TrainConfig, load_config, parse_config_file
from sharpshift.data import _BATCH_CHUNK_VALUES, AugmentPool
from sharpshift.encoder import Encoder, EncoderConfig, load_checkpoint, save_checkpoint
from sharpshift.errors import ModelError, PipelineError, SharpshiftError
from sharpshift.evaluation import ProbeConfig
from sharpshift.fourier import AugmentConfig
from sharpshift.losses import LossConfig
from sharpshift.sam import SamConfig
from sharpshift.training import (
    CHECKPOINT_NAME,
    METRICS_NAME,
    load_eval_data,
    load_train_data,
    make_augment_fn,
    run_experiment_matrix,
    shift_gap_report,
    standard_variants,
    train_ssl,
)


def tiny_config(tmp_path, **overrides):
    defaults = dict(
        output_dir=str(tmp_path / "run"),
        seed=0,
        epochs=2,
        n_per_class=10,
        n_eval_per_class=8,
        batch_size=4,
        encoder_hidden=(8,),
        encoder_feature_dim=4,
        encoder_proj_hidden=8,
        image_size=8,
        probe_epochs=30,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def read_metrics(out_dir):
    with open(os.path.join(out_dir, METRICS_NAME)) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----- config -----------------------------------------------------------------


def test_config_flat_round_trip():
    cfg = TrainConfig(sam_enabled=True, sam_rho=0.1, encoder_hidden=(16, 8), lr=0.25)
    again = TrainConfig.from_flat(cfg.to_flat())
    assert again == cfg
    # the default run's digest is pinned: checkpoints record it for --resume
    assert TrainConfig().config_hash() == (
        "a485e55afbbc46e3229d4fedd1a044ecad8b56b46b260729aa7a28dcea5a92a3"
    )


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# A comment\n"
        "sam.enabled = true\n"
        "sam.rho = 0.07\n"
        "optimizer.lr = 0.3\n"
        "encoder.hidden = 16,8\n"
        "\n"
    )
    cfg = load_config(str(path), overrides=["sam.rho=0.2", "train.epochs=9"])
    assert cfg.sam_enabled is True
    assert cfg.sam_rho == 0.2  # override wins
    assert cfg.lr == 0.3
    assert cfg.encoder_hidden == (16, 8)
    assert cfg.epochs == 9


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense.key = 3\n")
    with pytest.raises(PipelineError):
        load_config(str(path))


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(PipelineError):
        parse_config_file(str(path))


def test_a_key_set_twice_in_a_file_is_refused(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.epochs = 3\n# again\ntrain.epochs = 5\n")
    with pytest.raises(PipelineError, match=f"^{path}:3: train.epochs is already set on line 1$"):
        load_config(str(path))
    # --set still wins over the file, and a later --set over an earlier one
    path.write_text("train.epochs = 3\n")
    assert load_config(str(path), ["train.epochs=4", "train.epochs=5"]).epochs == 5


def test_every_config_file_bit_flip_loads_or_fails_cleanly(tmp_path):
    # a file that sets every key; each single-bit flip must give a config whose
    # sub-configs all build, or exit through a SharpshiftError
    text = "".join(f"{k} = {v}\n" for k, v in TrainConfig().to_flat().items()).encode()
    assert text.count(b"\n") == 40
    path = tmp_path / "run.cfg"
    for i in range(len(text)):
        for bit in range(8):
            flipped = bytearray(text)
            flipped[i] ^= 1 << bit
            path.write_bytes(flipped)
            try:
                cfg = load_config(str(path))
                cfg.encoder_config(), cfg.sam_config(), cfg.probe_config(), cfg.augment_pool()
            except SharpshiftError:
                pass


def test_config_hash_sensitivity():
    a = TrainConfig()
    b = TrainConfig(lr=0.51)
    assert a.config_hash() == TrainConfig().config_hash()
    assert a.config_hash() != b.config_hash()
    # bookkeeping fields do not change the run identity
    assert a.config_hash() == TrainConfig(output_dir="elsewhere").config_hash()
    assert a.config_hash() == TrainConfig(checkpoint_every=5).config_hash()


def test_config_validation():
    with pytest.raises(PipelineError):
        TrainConfig(batch_size=1)
    with pytest.raises(PipelineError):
        TrainConfig(dataset="imagenet")
    with pytest.raises(PipelineError):
        TrainConfig(seed=-1)
    with pytest.raises(PipelineError):
        TrainConfig(seed=2**64)  # the view seeds are 64-bit words


@pytest.mark.parametrize("field, key", [("sam_enabled", "sam.enabled"),
                                        ("sam_adaptive", "sam.adaptive"),
                                        ("fft_enabled", "fft.enabled"),
                                        ("metrics_timing", "metrics.timing")])
def test_config_flags_must_be_bools(field, key):
    """A non-empty string is truthy: "no" would switch the flag on, and to_flat would
    write it back as "no"."""
    with pytest.raises(PipelineError, match=f"^{key} must be a bool, got 'no'$"):
        TrainConfig(**{field: "no"})


@pytest.mark.parametrize("field, value", [("tau", -1.0), ("tau", float("nan")),
                                          ("fft_alpha", 5.0)])
def test_config_checks_the_loss_and_mixing_values(field, value):
    """train.tau and fft.alpha are checked at load, as every other key is."""
    with pytest.raises(SharpshiftError, match="must lie in"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("build, error, message", [
    (lambda out: TrainConfig(n_per_class="x", output_dir=out), PipelineError,
     "^dataset.n_per_class must be an integer, got 'x'$"),
    (lambda out: TrainConfig(n_per_class=2.5, output_dir=out), PipelineError,
     "^dataset.n_per_class must be an integer, got 2.5$"),
    (lambda out: TrainConfig(n_eval_per_class=0, output_dir=out), PipelineError,
     r"^dataset.n_eval_per_class must lie in \[1, inf\), got 0$"),
    (lambda out: TrainConfig(num_classes=1, output_dir=out), PipelineError,
     r"^dataset.classes must lie in \[2, inf\), got 1$"),
    (lambda out: TrainConfig(dataset="cifar10", channels=None, output_dir=out), PipelineError,
     "^dataset.channels must be an integer, got None$"),
    (lambda out: load_config(overrides=["encoder.hidden=20000,20000", f"train.output_dir={out}"]),
     ModelError, r"^parameter count must lie in \[1, 268435456\], got 805500016$"),
], ids=["n_per_class_str", "n_per_class_float", "n_eval_per_class_zero", "one_class",
        "cifar10_channels_none", "parameter_cap"])
def test_load_refuses_before_any_data_is_made(tmp_path, monkeypatch, build, error, message):
    """The split sizes and the encoder's parameter cap are checked when the config is
    built: no split is made and no file is touched."""
    made = []
    monkeypatch.setattr(training.data_mod, "gen_synthetic", lambda *args, **kw: made.append(args))
    out = tmp_path / "run"
    with pytest.raises(error, match=message):
        train_ssl(build(str(out)))
    assert made == [] and not out.exists()


def test_minus_zero_is_stored_as_zero_as_a_config_file_reads_it(tmp_path):
    config = tiny_config(tmp_path, fft_alpha=-0.0)
    assert config.fft_alpha == 0.0 and str(config.fft_alpha) == "0.0"
    digest = tiny_config(tmp_path, fft_alpha=0.0).config_hash()
    assert config.config_hash() == digest
    assert load_config(overrides=[f"{key}={value}" for key, value in config.to_flat().items()]
                       + ["fft.alpha=-0.0"]).config_hash() == digest
    encoder = Encoder(config.encoder_config())
    report = shift_gap_report(config, encoder, encoder.init_params(0), "fft", n_mc=2)
    assert np.isfinite(report.aggregate)


def test_a_train_config_is_frozen():
    with pytest.raises(FrozenInstanceError):
        TrainConfig().epochs = 3


def test_train_config_defaults_match_the_sub_configs_that_own_them():
    """A default written twice must say the same thing in both places.

    optimizer.lr (0.5) against SamConfig.eta (0.1) is the one known difference;
    any other drift fails here.
    """
    config = TrainConfig()
    pairs = [(config.augment_pool(), AugmentPool()), (config.probe_config(), ProbeConfig()),
             (config.encoder_config(), EncoderConfig()), (config.sam_config(), SamConfig()),
             (AugmentConfig(alpha=config.fft_alpha), AugmentConfig()),
             (LossConfig(tau=config.tau), LossConfig())]
    differ = {(type(own).__name__, f.name) for built, own in pairs for f in fields(own)
              if getattr(built, f.name) != getattr(own, f.name)}
    assert differ == {("SamConfig", "eta")}


# ----- training loop -------------------------------------------------------------


def test_smoke_train_records_finite_loss_and_checkpoint(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1)
    path = train_ssl(cfg)
    records = read_metrics(cfg.output_dir)
    assert len(records) == 1
    assert np.isfinite(records[0]["loss"])
    assert "wall_seconds" not in records[0]
    ckpt = load_checkpoint(path)
    encoder = Encoder(cfg.encoder_config())
    assert ckpt.params.shape == (encoder.n_params,)
    assert ckpt.train_config_hash == cfg.config_hash()


def test_training_reduces_loss(tmp_path):
    cfg = tiny_config(tmp_path, epochs=25, n_per_class=30)
    train_ssl(cfg)
    records = read_metrics(cfg.output_dir)
    assert records[-1]["loss"] < records[0]["loss"]


def test_two_runs_are_bit_identical(tmp_path):
    cfg_a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"), epochs=3)
    cfg_b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"), epochs=3)
    path_a = train_ssl(cfg_a)
    path_b = train_ssl(cfg_b)
    with open(os.path.join(cfg_a.output_dir, METRICS_NAME), "rb") as fa, \
            open(os.path.join(cfg_b.output_dir, METRICS_NAME), "rb") as fb:
        assert fa.read() == fb.read()
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_wall_seconds_present_when_timing_enabled(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1, metrics_timing=True)
    train_ssl(cfg)
    records = read_metrics(cfg.output_dir)
    assert records[0]["wall_seconds"] >= 0.0


def test_nan_injection_aborts_with_last_checkpoint(tmp_path, monkeypatch, capsys):
    cfg = tiny_config(tmp_path, epochs=4, checkpoint_every=1)
    calls = {"count": 0}
    real = training.info_nce_batch_grad

    def poisoned(feats, config):
        calls["count"] += 1
        if calls["count"] > 8:
            return float("nan"), np.zeros_like(feats)
        return real(feats, config)

    monkeypatch.setattr(training, "info_nce_batch_grad", poisoned)
    with pytest.raises(PipelineError) as err:
        train_ssl(cfg)
    last = err.value.last_checkpoint
    assert last is not None and os.path.exists(last)
    load_checkpoint(last)  # still readable
    assert not os.path.exists(os.path.join(cfg.output_dir, CHECKPOINT_NAME))
    assert str(err.value).endswith(f"(last checkpoint {last})")
    # the CLI's error line names it too
    calls["count"] = 0
    assert main(["train", *(f"--set={k}={v}" for k, v in cfg.to_flat().items())]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: aborting at epoch ") and f"(last checkpoint {last})" in stderr


def test_gradient_evaluations_per_batch(tmp_path, monkeypatch):
    calls = []
    original = Encoder.loss_and_grad

    def counting(self, params, images, feature_loss):
        calls.append(1)
        return original(self, params, images, feature_loss)

    monkeypatch.setattr(Encoder, "loss_and_grad", counting)

    cfg = tiny_config(tmp_path, output_dir=str(tmp_path / "plain"), epochs=1,
                      n_per_class=8, batch_size=4)
    train_ssl(cfg)
    n_batches = (2 * 8) // 4  # 16 images, batch 4
    assert len(calls) == n_batches

    calls.clear()
    cfg2 = tiny_config(tmp_path, output_dir=str(tmp_path / "sam"), epochs=1,
                       n_per_class=8, batch_size=4, sam_enabled=True)
    train_ssl(cfg2)
    assert len(calls) == 2 * n_batches


def test_resume_requires_matching_config(tmp_path):
    cfg = tiny_config(tmp_path, epochs=2, checkpoint_every=1)
    train_ssl(cfg)
    mid = os.path.join(cfg.output_dir, "checkpoint_ep0000.ckpt")
    assert os.path.exists(mid)
    # same config resumes fine
    train_ssl(cfg, resume=mid)
    # any config drift fails loudly
    with pytest.raises(PipelineError):
        train_ssl(replace(cfg, lr=0.123), resume=mid)


def test_momentum_resume_matches_uninterrupted_run(tmp_path):
    straight = tiny_config(tmp_path, output_dir=str(tmp_path / "straight"), epochs=4,
                           momentum=0.9, checkpoint_every=1)
    train_ssl(straight)
    # the resumed directory already holds epochs 2-3, as after a crash late in the run
    resumed = replace(straight, output_dir=str(tmp_path / "resumed"))
    train_ssl(resumed)
    final = train_ssl(resumed, resume=os.path.join(resumed.output_dir, "checkpoint_ep0001.ckpt"))
    expected = load_checkpoint(os.path.join(straight.output_dir, CHECKPOINT_NAME))
    assert load_checkpoint(final).params.tobytes() == expected.params.tobytes()
    with open(os.path.join(straight.output_dir, METRICS_NAME), "rb") as a, \
            open(os.path.join(resumed.output_dir, METRICS_NAME), "rb") as b:
        assert a.read() == b.read()


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(epochs=st.integers(2, 4), data=st.data(), momentum=st.sampled_from([0.0, 0.9]),
       sam=st.sampled_from(["off", "plain", "adaptive"]),
       fft_warmup=st.sampled_from([None, 0, 1, 2]), weight_decay=st.sampled_from([0.0, 0.05]))
def test_resume_matches_uninterrupted_run(tmp_path_factory, epochs, data, momentum, sam,
                                          fft_warmup, weight_decay):
    """Resuming from any epoch's checkpoint gives the uninterrupted run's bytes."""
    k = data.draw(st.integers(0, epochs - 1), label="resume from checkpoint_ep{k}")
    tmp = tmp_path_factory.mktemp("resume")
    straight = TrainConfig(
        output_dir=str(tmp / "straight"), epochs=epochs, n_per_class=6, image_size=4,
        batch_size=4, encoder_hidden=(8,), encoder_feature_dim=4, encoder_proj_hidden=8,
        checkpoint_every=1, momentum=momentum, weight_decay=weight_decay,
        sam_enabled=sam != "off", sam_adaptive=sam == "adaptive",
        fft_enabled=fft_warmup is not None, fft_warmup_epochs=fft_warmup or 0,
    )
    expected = _run_bytes(straight)
    # the crashed run left its epoch-k checkpoint and a record of an epoch it never finished
    resumed = replace(straight, output_dir=str(tmp / "resumed"))
    os.makedirs(resumed.output_dir)
    ckpt = f"checkpoint_ep{k:04d}.ckpt"
    shutil.copy(os.path.join(straight.output_dir, ckpt), resumed.output_dir)
    kept = expected[1].splitlines(keepends=True)[:k + 1]
    with open(os.path.join(resumed.output_dir, METRICS_NAME), "wb") as fh:
        fh.write(b"".join(kept) + b'{"epoch": %d, "loss": 0.0, "lr": 0.0}\n' % (k + 1))
    final = train_ssl(resumed, resume=os.path.join(resumed.output_dir, ckpt))
    with open(final, "rb") as ckpt_fh, \
            open(os.path.join(resumed.output_dir, METRICS_NAME), "rb") as log:
        assert (ckpt_fh.read(), log.read()) == expected


def test_resumed_run_counts_steps_from_its_epoch(tmp_path, monkeypatch):
    """12 images in batches of 4 make 3 steps an epoch; a NaN in the tenth step reads
    "step 9" whether the run started at epoch 0 or resumed at epoch 2."""
    cfg = tiny_config(tmp_path, n_per_class=6, epochs=4, checkpoint_every=1)
    real = training.info_nce_batch_grad

    def nan_after(n_calls):
        calls = []

        def poisoned(feats, config):
            calls.append(1)
            if len(calls) > n_calls:
                return float("nan"), np.zeros_like(feats)
            return real(feats, config)

        return poisoned

    messages = []
    for n_calls, resume in ((9, None), (3, "checkpoint_ep0001.ckpt")):
        monkeypatch.setattr(training, "info_nce_batch_grad", nan_after(n_calls))
        with pytest.raises(PipelineError) as err:
            train_ssl(cfg, resume=resume and os.path.join(cfg.output_dir, resume))
        messages.append(str(err.value))
    assert messages[0].startswith("aborting at epoch 3 step 9:")
    assert messages[1] == messages[0]


def test_resume_with_corrupt_metrics_fails_cleanly(tmp_path):
    cfg = tiny_config(tmp_path, epochs=2, checkpoint_every=1)
    train_ssl(cfg)
    with open(os.path.join(cfg.output_dir, METRICS_NAME), "a") as fh:
        fh.write('{"epoch": 2, "lo\n')
    with pytest.raises(PipelineError, match="corrupt metrics"):
        train_ssl(cfg, resume=os.path.join(cfg.output_dir, "checkpoint_ep0000.ckpt"))


def test_momentum_resume_needs_stored_velocity(tmp_path):
    cfg = tiny_config(tmp_path, epochs=2, checkpoint_every=1)
    train_ssl(cfg)
    plain = load_checkpoint(os.path.join(cfg.output_dir, "checkpoint_ep0000.ckpt"))
    assert plain.extra == {}
    # the same parameters without a velocity, under the momentum run's config hash
    moving = replace(cfg, momentum=0.9)
    ckpt_path = os.path.join(cfg.output_dir, "moving.ckpt")
    save_checkpoint(ckpt_path, Encoder(moving.encoder_config()), plain.params,
                    moving.config_hash(), epoch=0)
    with pytest.raises(PipelineError, match="velocity"):
        train_ssl(moving, resume=ckpt_path)


def test_periodic_checkpoints_written(tmp_path):
    cfg = tiny_config(tmp_path, epochs=3, checkpoint_every=2)
    train_ssl(cfg)
    assert os.path.exists(os.path.join(cfg.output_dir, "checkpoint_ep0001.ckpt"))
    assert os.path.exists(os.path.join(cfg.output_dir, CHECKPOINT_NAME))


def test_fft_enabled_changes_views_but_trains(tmp_path):
    cfg = tiny_config(tmp_path, epochs=2, fft_enabled=True, fft_alpha=0.5)
    path = train_ssl(cfg)
    assert os.path.exists(path)
    records = read_metrics(cfg.output_dir)
    assert all(np.isfinite(r["loss"]) for r in records)


def test_fft_warmup_delays_activation(tmp_path, monkeypatch):
    seen = []
    real = training.mix_with_most_similar

    def spy(views, feats, betas):
        seen.append(len(views))
        return real(views, feats, betas)

    monkeypatch.setattr(training, "mix_with_most_similar", spy)
    cfg = tiny_config(tmp_path, epochs=2, n_per_class=4, batch_size=4,
                      fft_enabled=True, fft_warmup_epochs=1)
    train_ssl(cfg)
    assert seen == [8, 8]  # one mixing step per batch of the post-warm-up epoch


def test_batch_too_large_rejected(tmp_path):
    cfg = tiny_config(tmp_path, n_per_class=2, batch_size=16)
    with pytest.raises(PipelineError):
        train_ssl(cfg)


# ----- data plumbing ---------------------------------------------------------------


def test_eval_split_shares_class_patterns(tmp_path):
    cfg = tiny_config(tmp_path)
    train_images, train_labels = load_train_data(cfg)
    eval_images, eval_labels = load_eval_data(cfg)
    assert len(eval_labels) == cfg.n_eval_per_class * cfg.num_classes
    for c in range(cfg.num_classes):
        a = train_images[train_labels == c].mean(axis=0).ravel()
        b = eval_images[eval_labels == c].mean(axis=0).ravel()
        # small splits keep some noise in the class means
        assert np.corrcoef(a, b)[0, 1] > 0.8


def test_augment_fn_modes(tmp_path):
    cfg = tiny_config(tmp_path)
    images, _ = load_train_data(cfg)
    encoder = Encoder(cfg.encoder_config())
    params = encoder.init_params(0)
    rng = np.random.default_rng(0)

    identity = make_augment_fn("identity", cfg)
    assert np.array_equal(next(iter(identity(images[:1], [rng], 1)))[0], images[0])

    base = make_augment_fn("base", cfg)
    out = next(iter(base(images[:1], [rng], 1)))[0]
    assert out.shape == images[0].shape

    fft = make_augment_fn("fft", cfg, encoder=encoder, params=params,
                          pool_images=images)
    out = next(iter(fft(images[:1], [rng], 1)))[0]
    assert out.shape == images[0].shape
    assert np.all(out >= 0.0) and np.all(out <= 1.0)

    with pytest.raises(PipelineError):
        make_augment_fn("fft", cfg)  # missing encoder context
    with pytest.raises(PipelineError):
        make_augment_fn("warp", cfg)


# The bench's two tiny training workloads: the paper's method (SAM + FFT) on the
# MLP, and plain SGD on small_conv at 32x32x3.
TINY_SSA_MLP = dict(sam_enabled=True, fft_enabled=True, n_per_class=6, n_eval_per_class=3,
                    batch_size=4, epochs=2, image_size=16, encoder_hidden=(32,),
                    encoder_feature_dim=16, encoder_proj_hidden=0)
TINY_CONV = dict(image_size=32, channels=3, n_per_class=6, n_eval_per_class=3, batch_size=4,
                 epochs=2, encoder_architecture="small_conv", encoder_hidden=(8, 16, 32),
                 encoder_feature_dim=16, encoder_proj_hidden=0)


def _run_bytes(config):
    path = train_ssl(config)
    with open(path, "rb") as ckpt, open(os.path.join(config.output_dir, METRICS_NAME), "rb") as log:
        return ckpt.read(), log.read()


@pytest.mark.parametrize("overrides", [TINY_SSA_MLP, TINY_CONV], ids=["ssa_mlp", "conv"])
def test_training_matches_per_image_view_oracle(tmp_path, monkeypatch, overrides):
    cfg = tiny_config(tmp_path / "batched", **overrides)
    batched = _run_bytes(cfg)
    anchors = []

    def per_image(images, indices, epoch, config, pool):
        anchors.append(len(indices))
        return oracles.make_views_per_image(images, indices, epoch, config, pool)

    monkeypatch.setattr(training, "_make_views", per_image)
    per_image = _run_bytes(replace(cfg, output_dir=str(tmp_path / "per_image")))
    assert batched == per_image
    # the oracle made every view, in blocks of more than one batch
    assert sum(anchors) == cfg.epochs * len(load_train_data(cfg)[1])
    assert max(anchors) > cfg.batch_size


# FFT mixing from the second of three epochs: 10 images in batches of 3 make three
# batches and a skipped one-anchor batch, and blocks of two batches split them 2 + 1.
BLOCKED_SSA_MLP = dict(TINY_SSA_MLP, n_per_class=5, batch_size=3, epochs=3, fft_warmup_epochs=1)


def _batch_values(cfg):
    """Pixel values of one full training batch's views."""
    return 2 * cfg.batch_size * cfg.image_size**2 * cfg.channels


def _block_calls(item_views, view_values, budget):
    """The views of each call when a block closes at the first item that brings its
    pixel values to ``budget``, and the last block takes what is left."""
    calls, views = [], 0
    for n in item_views:
        views += n
        if views * view_values >= budget:
            calls, views = calls + [views], 0
    return calls + [views] if views else calls


@pytest.mark.parametrize("overrides, epoch_calls", [
    (BLOCKED_SSA_MLP, {1: [6, 6, 6], 2: [12, 6], 2**40: [18],
                       "default": _block_calls([6, 6, 6], 16 * 16, training._BLOCK_VALUES)}),
    (TINY_CONV, {1: [8, 8, 8], 2: [16, 8], 2**40: [24],
                 "default": _block_calls([8, 8, 8], 32 * 32 * 3, training._BLOCK_VALUES)}),
], ids=["ssa_mlp", "conv"])
def test_training_bytes_do_not_depend_on_the_blocks(tmp_path, monkeypatch, overrides,
                                                    epoch_calls):
    """One batch per block, blocks of two batches, the default blocks and one block per
    epoch give the same checkpoint and metrics bytes, with one view call per block."""
    cfg = tiny_config(tmp_path, **overrides)
    budgets = {1: 1, 2: 2 * _batch_values(cfg), "default": training._BLOCK_VALUES, 2**40: 2**40}
    calls = _view_call_sizes(monkeypatch)
    runs = set()
    for key, budget in budgets.items():
        monkeypatch.setattr(training, "_BLOCK_VALUES", budget)
        calls.clear()
        runs.add(_run_bytes(replace(cfg, output_dir=str(tmp_path / str(key)))))
        assert calls == epoch_calls[key] * cfg.epochs, key
    assert len(runs) == 1


def test_blocked_run_resumed_mid_run_matches_uninterrupted_run(tmp_path, monkeypatch):
    """With blocks of two batches, a run resumed from its last warm-up epoch's
    checkpoint gives the bytes of a run that was never interrupted."""
    straight = tiny_config(tmp_path / "straight", **BLOCKED_SSA_MLP, checkpoint_every=1,
                           momentum=0.9)
    monkeypatch.setattr(training, "_BLOCK_VALUES", 2 * _batch_values(straight))
    expected = _run_bytes(straight)
    resumed = replace(straight, output_dir=str(tmp_path / "resumed"))
    os.makedirs(resumed.output_dir)
    ckpt = os.path.join(resumed.output_dir, "checkpoint_ep0000.ckpt")
    shutil.copy(os.path.join(straight.output_dir, "checkpoint_ep0000.ckpt"), ckpt)
    with open(os.path.join(resumed.output_dir, METRICS_NAME), "wb") as fh:
        fh.write(expected[1].splitlines(keepends=True)[0])
    final = train_ssl(resumed, resume=ckpt)
    with open(final, "rb") as ckpt_fh, \
            open(os.path.join(resumed.output_dir, METRICS_NAME), "rb") as log:
        assert (ckpt_fh.read(), log.read()) == expected


def test_training_view_calls_hold_less_than_a_block_and_a_batch(tmp_path, monkeypatch):
    """Every view-generation call of training holds fewer pixel values than
    ``_BLOCK_VALUES`` plus one batch's views, and a block's betas take one seeding."""
    # batches of 16 views of 256 values: one block and a quarter of one per epoch
    per_block = -(-training._BLOCK_VALUES // (16 * 16 * 16))
    n_batches = per_block + max(1, per_block // 4)
    cfg = tiny_config(tmp_path, **dict(TINY_SSA_MLP, n_per_class=4 * n_batches, batch_size=8))
    calls = _view_call_sizes(monkeypatch)
    seedings = []
    real = fourier.Streams

    def counting(entropy):
        seedings.append(len(entropy))
        return real(entropy)

    monkeypatch.setattr(fourier, "Streams", counting)
    train_ssl(cfg)
    view_values = cfg.image_size**2
    assert all(views * view_values < training._BLOCK_VALUES + _batch_values(cfg)
               for views in calls)
    assert calls == [16 * per_block, 16 * (n_batches - per_block)] * cfg.epochs
    assert seedings == calls  # one seeding per block, one stream per view


def test_a_block_of_items_up_to_two_to_the_sixteen_values_is_one_pixel_chunk(tmp_path,
                                                                             monkeypatch):
    """A block holds less than ``_BLOCK_VALUES`` plus one item, so while no item holds
    more than ``_BLOCK_VALUES`` values a block's views take one pixel pass: the 12 base
    draws of a 32x32x3 anchor (36,864 values) go two anchors to a call and one chunk."""
    assert 2 * training._BLOCK_VALUES <= _BATCH_CHUNK_VALUES
    cfg = tiny_config(tmp_path, **TINY_CONV)
    encoder = Encoder(cfg.encoder_config())
    calls = _view_call_sizes(monkeypatch)
    chunks = []
    real = training.data_mod._augment_chunk

    def counting(images, *args):
        chunks.append(len(images))
        return real(images, *args)

    monkeypatch.setattr(training.data_mod, "_augment_chunk", counting)
    shift_gap_report(cfg, encoder, encoder.init_params(0), "base", n_mc=12)
    assert 12 * 32 * 32 * 3 <= training._BLOCK_VALUES
    assert calls == chunks == [24] * (len(load_eval_data(cfg)[1]) // 2)


@pytest.mark.parametrize("overrides", [TINY_SSA_MLP, TINY_CONV], ids=["ssa_mlp", "conv"])
@pytest.mark.parametrize("mode", ["base", "fft"])
def test_shift_gap_matches_per_draw_oracle(tmp_path, monkeypatch, overrides, mode):
    cfg = tiny_config(tmp_path, **overrides)
    encoder, params, _ = training.load_run(train_ssl(cfg))
    # fft_alpha 0 draws beta = 0 every time, so no draw takes candidates
    cases = [(replace(cfg, fft_alpha=alpha), seed) for alpha in (0.2, 0.0) for seed in (0, 2**40 + 3)]
    reports = [shift_gap_report(c, encoder, params, mode, n_mc=4, seed=seed).to_json()
               for c, seed in cases]
    monkeypatch.setattr(training, "make_augment_fn", oracles.per_draw_augment_fn)
    for (c, seed), report in zip(cases, reports):
        assert report == shift_gap_report(c, encoder, params, mode, n_mc=4, seed=seed).to_json()


def _view_call_sizes(monkeypatch):
    """The number of views of every ``base_augment_batch`` call from now on."""
    sizes = []
    real = training.data_mod.base_augment_batch

    def counting(images, seeds, pool):
        sizes.append(len(images))
        return real(images, seeds, pool)

    monkeypatch.setattr(training.data_mod, "base_augment_batch", counting)
    return sizes


@pytest.mark.parametrize("overrides", [TINY_SSA_MLP, TINY_CONV], ids=["ssa_mlp", "conv"])
def test_shift_gap_reports_do_not_depend_on_the_blocks(tmp_path, monkeypatch, overrides):
    """One anchor per block, one block for all anchors, and blocks of four anchors' base
    views, the last of which holds two, all give the default blocks' report bytes."""
    cfg = tiny_config(tmp_path, **overrides)
    encoder = Encoder(cfg.encoder_config())
    params = encoder.init_params(0)
    images = load_eval_data(cfg)[0]
    n_mc = 4
    assert len(images) % 4 == 2
    calls = _view_call_sizes(monkeypatch)

    def reports():
        return [shift_gap_report(cfg, encoder, params, mode, n_mc=n_mc, seed=seed).to_json()
                for mode in ("base", "fft", "identity") for seed in (0, 2**40 + 3)]

    default = reports()
    for block_values, base_calls in ((1, [n_mc] * len(images)), (2**40, [n_mc * len(images)]),
                                     (4 * n_mc * images[0].size, [4 * n_mc, 2 * n_mc])):
        monkeypatch.setattr(training, "_BLOCK_VALUES", block_values)
        calls.clear()
        assert reports() == default, block_values
        assert calls[:len(base_calls)] == base_calls, block_values  # the first base report


@pytest.mark.parametrize("mode", ["base", "fft"])
def test_shift_gap_view_calls_hold_less_than_a_block_and_an_anchor(tmp_path, monkeypatch, mode):
    """Every view-generation call of a report holds fewer pixel values than
    ``_BLOCK_VALUES`` plus one anchor's views, and a base report's calls make every
    anchor's views."""
    cfg = tiny_config(tmp_path, **dict(TINY_SSA_MLP, n_eval_per_class=20))
    encoder = Encoder(cfg.encoder_config())
    images = load_eval_data(cfg)[0]
    n_mc, size = 12, images[0].size
    anchor_views = n_mc * (1 + training._FFT_CANDIDATES if mode == "fft" else 1)
    calls = _view_call_sizes(monkeypatch)
    shift_gap_report(cfg, encoder, encoder.init_params(0), mode, n_mc=n_mc)
    assert all(views * size < training._BLOCK_VALUES + anchor_views * size for views in calls)
    assert 1 < len(calls) < len(images)  # blocks of several anchors
    if mode == "base":
        assert sum(calls) == n_mc * len(images)


def test_shift_gap_closures_match_per_draw_oracle_across_chunks(tmp_path, monkeypatch):
    """An anchor's base draws, 96 at 32x32x3, augment three chunks, and its fft draws, 8
    mixed ones (72 views), two. At the default budget each anchor is a block of its own; in
    one block two anchors share chunks. Every view keeps the op draws of its own seed."""
    cfg = tiny_config(tmp_path, **TINY_CONV)
    images, _ = load_train_data(cfg)
    encoder = Encoder(cfg.encoder_config())
    context = dict(encoder=encoder, params=encoder.init_params(0), pool_images=images)
    chunk_views = _BATCH_CHUNK_VALUES // images[0].size
    assert 2 * chunk_views < 96 and chunk_views < 8 * (1 + training._FFT_CANDIDATES) <= 2 * chunk_views
    for block_values, mode, n in ((training._BLOCK_VALUES, "base", 96), (2**40, "base", 96),
                                  (training._BLOCK_VALUES, "fft", 8), (2**40, "fft", 8)):
        monkeypatch.setattr(training, "_BLOCK_VALUES", block_values)
        batched = list(make_augment_fn(mode, cfg, **context)(
            images[:2], [np.random.default_rng(5), np.random.default_rng(6)], n))
        per_draw = list(oracles.per_draw_augment_fn(mode, cfg, **context)(
            images[:2], [np.random.default_rng(5), np.random.default_rng(6)], n))
        assert len(batched) == 2
        for anchor, (views, expected_views) in enumerate(zip(batched, per_draw)):
            assert len(views) == n
            for k, (view, expected) in enumerate(zip(views, expected_views)):
                assert view.tobytes() == expected.tobytes(), (block_values, mode, anchor, k)


class _ZeroEveryOtherBeta:
    """A generator whose odd-numbered ``uniform`` draws, the fft draws' betas, read 0."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def uniform(self, low, high):
        self.calls += 1
        value = self.rng.uniform(low, high)
        return 0.0 if self.calls % 2 else value


def test_fft_draws_with_and_without_candidates_match_per_draw_oracle(tmp_path):
    """Draws that take candidates, interleaved with draws that do not, keep their own rows."""
    cfg = tiny_config(tmp_path, **TINY_SSA_MLP)
    images, _ = load_train_data(cfg)
    encoder = Encoder(cfg.encoder_config())
    params = encoder.init_params(0)
    context = dict(encoder=encoder, params=params, pool_images=images)
    (batched,) = make_augment_fn("fft", cfg, **context)(images[:1], [_ZeroEveryOtherBeta(3)], 7)
    (per_draw,) = oracles.per_draw_augment_fn("fft", cfg, **context)(
        images[:1], [_ZeroEveryOtherBeta(3)], 7)
    assert len(batched) == 7
    for k, (view, expected) in enumerate(zip(batched, per_draw)):
        assert np.array_equal(view, expected), k


def test_fft_draws_take_one_encoder_forward_per_anchor_that_mixes(tmp_path, monkeypatch):
    """All of an anchor's views go through one forward, whatever block the anchor is in;
    an anchor in which no draw mixes runs none."""
    cfg = tiny_config(tmp_path, **TINY_SSA_MLP)
    images, _ = load_train_data(cfg)
    encoder = Encoder(cfg.encoder_config())
    context = dict(encoder=encoder, params=encoder.init_params(0), pool_images=images)
    views_per_draw = 1 + min(training._FFT_CANDIDATES, len(images))
    sizes = []
    real = Encoder._forward

    def counting(self, params, images, tap):
        sizes.append(len(images))
        return real(self, params, images, tap)

    monkeypatch.setattr(Encoder, "_forward", counting)
    # an anchor drawing with _ZeroEveryOtherBeta mixes draws 1, 3 and 5 of seven, and none
    # of one; at alpha 0 no draw does
    cases = [(cfg, [_ZeroEveryOtherBeta(3), np.random.default_rng(4)], 7,
              [7 + 3 * (views_per_draw - 1), 7 * views_per_draw]),
             (cfg, [np.random.default_rng(4)], 5, [5 * views_per_draw]),
             (cfg, [_ZeroEveryOtherBeta(3), np.random.default_rng(4), _ZeroEveryOtherBeta(3)], 1,
              [views_per_draw]),
             (replace(cfg, fft_alpha=0.0), [np.random.default_rng(4), np.random.default_rng(5)],
              5, [])]
    for config, rngs, n, expected in cases:
        sizes.clear()
        draws = make_augment_fn("fft", config, **context)(images[:len(rngs)], rngs, n)
        assert [len(views) for views in draws] == [n] * len(rngs)
        assert sizes == expected


def test_robust_eval_reports_the_clean_accuracy_of_a_plain_eval(tmp_path):
    """An attack leaves the clean accuracies as a plain eval reports them."""
    cfg = tiny_config(tmp_path, epochs=1)
    encoder, params, _ = training.load_run(train_ssl(cfg))
    _, clean = training.evaluate_probe(cfg, encoder, params, ks=(1, 2))
    for epsilon in (0.0, 8.0 / 255.0):
        _, results = training.evaluate_probe(cfg, encoder, params, ks=(1, 2), epsilon=epsilon)
        assert {k: results[k] for k in clean} == clean
        assert set(results) == {*clean, "robust_top1"}
        if epsilon == 0.0:
            assert results["robust_top1"] == clean["top1"]


def test_shift_gap_report_runs(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1)
    path = train_ssl(cfg)
    encoder, params, _ = training.load_run(path)
    report = shift_gap_report(cfg, encoder, params, "base", n_mc=2, seed=0)
    assert report.aggregate >= 0.0
    identity = shift_gap_report(cfg, encoder, params, "identity", n_mc=2, seed=0)
    assert identity.aggregate <= report.aggregate + 1e-9


# ----- experiment matrix --------------------------------------------------------------


def test_single_variant_row_populated(tmp_path):
    cfg = tiny_config(tmp_path, epochs=2)
    rows = run_experiment_matrix(
        [("baseline", cfg)],
        summary_path=str(tmp_path / "summary.tsv"),
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["variant"] == "baseline"
    assert "error" not in row
    assert 0.0 <= row["top1"] <= 1.0
    assert 0.0 <= row["robust_top1"] <= 1.0
    assert row["shift_gap"] >= 0.0
    header = (tmp_path / "summary.tsv").read_text().splitlines()[0]
    assert header.startswith("variant\t")


def test_standard_variants_shape():
    base = TrainConfig(output_dir="m")
    variants = dict(standard_variants(base))
    assert set(variants) == {"baseline", "sam", "asam", "fft", "sam_fft"}
    assert variants["sam"].sam_enabled and not variants["sam"].sam_adaptive
    assert variants["asam"].sam_adaptive and variants["asam"].sam_rho == 2.0
    assert variants["fft"].fft_enabled and not variants["fft"].sam_enabled
    assert variants["sam_fft"].fft_enabled and variants["sam_fft"].sam_enabled
    dirs = {v.output_dir for v in variants.values()}
    assert len(dirs) == 5


def test_variants_without_sam_keep_the_base_sam_settings():
    base = TrainConfig(output_dir="m", sam_rho=0.3, sam_adaptive=True)
    variants = dict(standard_variants(base))
    for name in ("baseline", "fft"):
        assert (variants[name].sam_rho, variants[name].sam_adaptive) == (0.3, True)
    for name, variant in variants.items():
        assert variant.output_dir == os.path.join("m", name)


def test_identical_configs_give_identical_rows(tmp_path):
    cfg = tiny_config(tmp_path, epochs=1)
    rows = run_experiment_matrix([("one", cfg), ("two", cfg)])
    a, b = rows
    for key in ("top1", "robust_top1", "shift_gap", "final_loss"):
        assert a[key] == b[key]


def test_failed_variant_is_isolated(tmp_path):
    good = tiny_config(tmp_path, output_dir=str(tmp_path / "good"), epochs=1)
    bad = tiny_config(tmp_path, output_dir=str(tmp_path / "bad"), epochs=1,
                      n_per_class=2, batch_size=16)
    rows = run_experiment_matrix([("bad", bad), ("good", good)])
    assert "error" in rows[0]
    assert "error" not in rows[1]
