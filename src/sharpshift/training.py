"""Training-loop orchestration, metrics stream, and the experiment matrix.

The loop is a single logical sequence. The two base-augmented views per
anchor, and the mixing coefficients of the frequency-domain augmentation,
are drawn for a block of consecutive batches at a time; they depend on no
parameter. Then per batch: optionally rewrite the views with the
frequency-domain augmentation (pairing them by features from the current
encoder, computed before any optimizer perturbation), take the contrastive
loss over the paired batch, and update with either the plain or the
sharpness-aware step. All randomness is derived from the run seed through
tagged SeedSequence substreams, so a fixed config yields bit-identical
metrics and checkpoints, whatever the blocks.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from dataclasses import replace

import numpy as np

from . import data as data_mod
from .config import TrainConfig
from .encoder import Encoder, load_checkpoint, save_checkpoint
from .errors import (SIZE_CAP, EvaluationError, IngestionError, MetricError, ModelError,
                     OptimizerError, PipelineError, check_range, os_errors)
from .evaluation import (
    FGSM_DEFAULT_EPSILON,
    AttackConfig,
    ProbeModel,
    robust_accuracy,
    top_k_accuracy,
    train_linear_probe,
)
from .fourier import draw_betas, mix_batch, mix_with_most_similar, most_similar_index
# benchmarks/tracer.py wraps these names
from .fourier import dft2, fft_augment_batch, reconstruct  # noqa: F401
from .losses import LossConfig, info_nce_batch_grad
from .sam import DEFAULT_ADAPTIVE_RHO, DEFAULT_RHO, sam_step, sgd_step
from .shift import estimate_shift_gap
from .streams import seed_rows

# SeedSequence stream tags; every consumer of randomness gets its own branch.
TAG_INIT, TAG_SHUFFLE, TAG_VIEW, TAG_FFT, TAG_EVAL_DATA = 1, 2, 3, 4, 5

METRICS_NAME = "metrics.jsonl"
CHECKPOINT_NAME = "checkpoint.ckpt"
SUMMARY_NAME = "summary.tsv"


def derived_seed(*parts):
    """Collapse a tag path into one integer seed."""
    seq = np.random.SeedSequence([int(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])


def load_train_data(config: TrainConfig):
    if config.dataset == "synthetic":
        return _synthetic(config, config.n_per_class, config.seed)
    return _cifar_sides(config)[0]


def load_eval_data(config: TrainConfig):
    """Held-out labeled split, disjoint from ``load_train_data``.

    Synthetic data keeps the class patterns with fresh sample noise. CIFAR-10
    holds out ``test_batch.bin``, or the last 20% of the training batches when
    that file is absent.
    """
    if config.dataset == "synthetic":
        seed = derived_seed(config.seed, TAG_EVAL_DATA)
        return _synthetic(config, config.n_eval_per_class, seed)
    return _cifar_sides(config)[1]


def _synthetic(config, n_per_class, seed):
    """A synthetic split; every split of a run shares the class patterns of ``config.seed``."""
    return data_mod.gen_synthetic(n_per_class, config.num_classes, image_size=config.image_size,
                                  channels=config.channels, seed=seed, pattern_seed=config.seed)


def _cifar_sides(config):
    images, labels = data_mod.load_cifar10(config.data_dir)
    test_path = os.path.join(config.data_dir, data_mod.CIFAR_TEST_BATCH)
    if os.path.exists(test_path):
        held_out = data_mod.read_cifar_batch(test_path)
        if not len(held_out[1]):
            raise IngestionError(f"{test_path}: no records to evaluate on")
    elif len(labels) < 2:
        raise IngestionError(f"{config.data_dir}: one record leaves no held-out side")
    else:
        split = int(0.8 * len(labels))
        held_out = images[split:], labels[split:]
        images, labels = images[:split], labels[:split]
    if config.data_limit:
        images, labels = images[: config.data_limit], labels[: config.data_limit]
    return (images, labels), held_out


def _make_views(images, indices, epoch, config, pool):
    """Views 2i and 2i+1 of a batch, or of a block of batches, are the two base
    augmentations of anchor i."""
    anchors = np.repeat(np.asarray(indices), 2)
    seeds = seed_rows(config.seed, TAG_VIEW, epoch, anchors, np.arange(len(anchors)) % 2)
    return data_mod.base_augment_batch(images[anchors], seeds, pool)


def _batch_views(images, order, epoch, config, pool, alpha):
    """(views, betas) of each training batch of an epoch, in order.

    The batches are made one block of consecutive batches at a time (see
    ``_blocks``): one ``_make_views`` call per block and, with ``alpha``, one
    ``draw_betas`` call, where batch b draws from ``derived_seed(seed, TAG_FFT,
    epoch, b_start)``. Without ``alpha`` betas is None. A view depends only on its
    image and its seed, and a beta only on its batch's seed and its row, so
    blocking changes no byte. A last batch of one anchor is skipped: in-batch
    negatives need at least two.
    """
    anchor_values = 2 * np.size(images[0])  # an anchor's two views
    batches = ((b_start, order[b_start:b_start + config.batch_size])
               for b_start in range(0, len(order) - 1, config.batch_size))

    def make(block):
        starts, indices = zip(*block)
        views = _make_views(images, np.concatenate(indices), epoch, config, pool)
        counts = [2 * len(batch) for batch in indices]
        if alpha is not None:
            seeds = np.array([derived_seed(config.seed, TAG_FFT, epoch, b_start)
                              for b_start in starts], dtype=np.uint64)
            betas = draw_betas(seeds, counts, alpha)
        bounds = np.cumsum([0] + counts)
        for lo, hi in zip(bounds, bounds[1:]):
            yield views[lo:hi], None if alpha is None else betas[lo:hi]

    return _blocks(batches, lambda batch: (batch, len(batch[1]) * anchor_values), make)


def train_ssl(config: TrainConfig, resume=None):
    """Run self-supervised training; returns the final checkpoint path.

    A non-finite loss aborts the run with the last written checkpoint left
    intact. With ``resume`` the stored config hash must match the current
    config and the stored epoch must lie in the run, otherwise the run fails
    loudly instead of silently retraining.
    A resumed run restores the momentum velocity and rewinds the metrics
    stream to the checkpoint's epoch, as if it had never been interrupted.
    """
    images, _ = load_train_data(config)
    if len(images) < config.batch_size:
        raise PipelineError(
            f"dataset has {len(images)} images, batch_size {config.batch_size} is too large"
        )
    encoder = Encoder(config.encoder_config())
    pool = config.augment_pool()
    sam_cfg = config.sam_config()
    update = sam_step if config.sam_enabled else sgd_step
    loss_cfg = LossConfig(tau=config.tau)
    out_dir = config.output_dir
    metrics_path = os.path.join(out_dir, METRICS_NAME)
    final_path = os.path.join(out_dir, CHECKPOINT_NAME)
    config_hash = config.config_hash()

    start_epoch, kept_records = 0, []
    if resume is not None:
        ckpt = load_checkpoint(resume)
        if ckpt.train_config_hash != config_hash:
            raise PipelineError(
                f"refusing to resume: checkpoint config hash {ckpt.train_config_hash[:12]} "
                f"does not match current config {config_hash[:12]}"
            )
        # -1 is the epoch a run with train.epochs = 0 writes
        check_range(PipelineError, f"refusing to resume: {resume} epoch", ckpt.epoch, -1,
                    config.epochs - 1, hi_open=False)
        params = ckpt.params.copy()
        start_epoch = ckpt.epoch + 1
        velocity = None
        if config.momentum > 0.0:
            try:
                velocity = np.array(ckpt.extra["velocity"], dtype=float).reshape(params.shape)
            except (KeyError, TypeError, ValueError) as exc:
                raise PipelineError(f"refusing to resume: {resume} has no velocity") from exc
        # rewind the stream to the checkpoint, so that no epoch is logged twice; every
        # record is read and checked before the stream is opened for writing
        records = _read_metrics(metrics_path) if os.path.exists(metrics_path) else []
        kept_records = list(itertools.takewhile(lambda r: r.get("epoch", -1) <= ckpt.epoch,
                                                records))
    else:
        params = encoder.init_params(derived_seed(config.seed, TAG_INIT))
        velocity = np.zeros_like(params) if config.momentum > 0.0 else None
    with os_errors(PipelineError, out_dir):
        os.makedirs(out_dir, exist_ok=True)
    last_checkpoint = None
    # a batch with fewer than two anchors is skipped and is not a step (see _batch_views)
    step = start_epoch * len(range(0, len(images) - 1, config.batch_size))

    # the guard covers the whole loop: every write and flush of the stream, and its close
    with (os_errors(PipelineError, metrics_path),
          open(metrics_path, "w", encoding="utf-8") as metrics_fh):
        for record in kept_records:
            metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
        for epoch in range(start_epoch, config.epochs):
            t0 = time.perf_counter()
            shuffle_rng = np.random.default_rng([config.seed, TAG_SHUFFLE, epoch])
            order = shuffle_rng.permutation(len(images))
            mixing = config.fft_enabled and epoch >= config.fft_warmup_epochs
            epoch_losses = []
            for views, betas in _batch_views(images, order, epoch, config, pool,
                                             config.fft_alpha if mixing else None):
                if betas is not None:
                    # partners come from the current encoder, before any perturbation
                    views = mix_with_most_similar(views, encoder.forward(params, views), betas)
                losses = []  # the first is the loss at the current params

                def batch_loss(p):
                    loss, grad = encoder.loss_and_grad(
                        p, views, lambda z: info_nce_batch_grad(z, loss_cfg))
                    losses.append(loss)
                    return loss, grad

                try:
                    params = update(params, batch_loss, sam_cfg, step=step, velocity=velocity)
                except (ModelError, OptimizerError) as exc:
                    raise PipelineError(
                        f"aborting at epoch {epoch} step {step}: {exc}",
                        last_checkpoint=last_checkpoint,
                    ) from exc
                epoch_losses.append(losses[0])
                step += 1
            record = {"epoch": epoch, "lr": config.lr,
                      "loss": float(np.mean(epoch_losses)) if epoch_losses else float("nan")}
            if config.metrics_timing:
                record["wall_seconds"] = time.perf_counter() - t0
            metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
            metrics_fh.flush()
            if config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
                path = os.path.join(out_dir, f"checkpoint_ep{epoch:04d}.ckpt")
                _write_checkpoint(path, encoder, params, config_hash, epoch, velocity)
                last_checkpoint = path

    _write_checkpoint(final_path, encoder, params, config_hash, config.epochs - 1, velocity)
    return final_path


def _write_checkpoint(path, encoder, params, config_hash, epoch, velocity):
    # JSON floats round-trip exactly; without momentum the header is unchanged
    extra = None if velocity is None else {"velocity": velocity.tolist()}
    save_checkpoint(path, encoder, params, config_hash, epoch=epoch, extra=extra)


def append_metrics(checkpoint_path, payload):
    """Append an eval record to the metrics stream beside a run's checkpoint."""
    path = os.path.join(os.path.dirname(checkpoint_path), METRICS_NAME)
    with os_errors(PipelineError, path), open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


# ----- augmentation distributions for the shift metric -----------------------


# Base-augmented candidates an fft draw pairs its view with, at most.
_FFT_CANDIDATES = 8

# Pixel values of the views one view-generation call makes, less one item's (a
# shift-gap anchor's draws or a training batch): a block of items closes at the
# first item that reaches it. A block thus holds less than 2**16 values plus one
# item, so while every item holds at most 2**16 values the whole block is one pixel
# chunk of base_augment_batch (data._BATCH_CHUNK_VALUES, 2**17).
_BLOCK_VALUES = 2**16


def _blocks(items, draw, make):
    """Each item's result, made one block of consecutive items at a time.

    ``draw(item)`` takes the item's own random draws and returns them with the
    pixel values of the views they make. A block closes at the first item that
    brings its views' pixel values to ``_BLOCK_VALUES``; then ``make(block)``, for
    the list of the block's draws, yields each item's result in order.
    """
    block, values = [], 0
    for item in items:
        drawn, item_values = draw(item)
        block.append(drawn)
        values += item_values
        if values >= _BLOCK_VALUES:
            yield from make(block)
            block, values = [], 0
    if block:
        yield from make(block)


def make_augment_fn(mode, config, encoder=None, params=None, pool_images=None):
    """Augmentation map ``t(images, rngs, n)`` used by the shift-gap estimator.

    The closure returns a lazy iterable that yields n draws of t(x) for each image x,
    in order, each drawn from that image's generator in ``rngs``. "identity" repeats
    the input; "base" is the stochastic view pool; "fft" additionally
    amplitude-mixes the view toward the most feature-similar of ``_FFT_CANDIDATES``
    base-augmented images drawn from ``pool_images``, which emulates the in-batch
    pairing at measurement time.

    Each anchor's generator is consumed as n one-draw calls would consume it: the
    view's seed, then for "fft" its beta and, unless beta is 0, the candidates and
    their seeds. Each anchor is an item of ``_blocks``, as each batch is in
    training: the views of a block of consecutive anchors are made by one
    ``base_augment_batch`` call, and for "fft" mixed by one ``mix_batch`` call. A
    view depends only on its image and its seed, so blocking changes no byte. The
    "fft" partner search runs one encoder forward per anchor over that anchor's
    views, and none for an anchor in which no draw mixes.
    """
    aug_pool = config.augment_pool()

    if mode == "identity":
        return lambda images, rngs, n: ([image] * n for image in images)
    if mode == "base":
        def base_fn(images, rngs, n):
            def draw(anchor):
                image, rng = anchor
                return (image, rng.integers(0, 2**62, size=(n, 2))), n * np.size(image)

            def make(block):
                sources, seeds = zip(*block)
                k, shape = len(sources), np.shape(sources[0])
                # n copies of each image; a one-anchor block's are a broadcast view
                copies = np.broadcast_to(np.stack(sources)[:, None], (k, n) + shape).reshape(
                    (k * n,) + shape)
                views = data_mod.base_augment_batch(copies, np.concatenate(seeds), aug_pool)
                return (views[j * n:(j + 1) * n] for j in range(k))

            return _blocks(zip(images, rngs), draw, make)

        return base_fn
    if mode != "fft":
        raise PipelineError(f"unknown augmentation mode {mode!r}")
    if encoder is None or params is None or pool_images is None:
        raise PipelineError("fft augmentation mode needs encoder, params and pool_images")
    count = min(_FFT_CANDIDATES, len(pool_images))

    def fft_fn(images, rngs, n):
        def draw(anchor):
            image, rng = anchor
            # draw in the order of n one-at-a-time draws: the view's seed, its beta, and
            # unless beta is 0 the candidates and their seeds. Among the anchor's views,
            # a draw's own view is row rows[k], its candidates the count rows after.
            sources, seeds, rows, mixed = [], [], [], []
            for _ in range(n):
                rows.append(len(rows) + count * len(mixed))
                seeds.append(rng.integers(0, 2**62, size=(1, 2)))
                sources.append(image[None])
                beta = float(rng.uniform(0.0, config.fft_alpha))
                if beta != 0.0:
                    mixed.append((rows[-1], beta))
                    chosen = rng.choice(len(pool_images), size=count, replace=False)
                    seeds.append(rng.integers(0, 2**62, size=(count, 2)))
                    sources.append(pool_images[chosen])
            return (sources, seeds, rows, mixed), (n + count * len(mixed)) * np.size(image)

        def make(block):
            sources, seeds, starts = [], [], [0]
            for own_sources, own_seeds, _, _ in block:
                sources += own_sources
                seeds += own_seeds
                starts.append(starts[-1] + sum(map(len, own_sources)))
            views = data_mod.base_augment_batch(np.concatenate(sources), np.concatenate(seeds),
                                                aug_pool)
            # each draw's own row is mixed toward its partner row; candidate rows have
            # beta 0. An anchor's views go through one forward, and a draw pairs within
            # its anchor's rows of the features.
            partners, mix_betas = np.arange(len(views)), np.zeros(len(views))
            for start, stop, (_, _, _, mixed) in zip(starts, starts[1:], block):
                feats = encoder.forward(params, views[start:stop]) if mixed else None
                for row, beta in mixed:
                    partners[start + row] += most_similar_index(feats[row:row + 1 + count], 0)
                    mix_betas[start + row] = beta
            out = mix_batch(views, partners, mix_betas)
            return (out[start + np.array(rows)] for start, (_, _, rows, _) in zip(starts, block))

        return _blocks(zip(images, rngs), draw, make)

    return fft_fn


def shift_gap_report(config, encoder, params, aug_mode, n_mc=8, seed=0, eval_data=None):
    """Shift gap of a trained encoder under one augmentation mode.

    A request whose draws would hold more than ``SIZE_CAP`` pixel values is
    refused before any draw.
    """
    if eval_data is None:
        eval_data = load_eval_data(config)
    images = eval_data[0]
    views_per_draw = 1 + min(_FFT_CANDIDATES, len(images)) if aug_mode == "fft" else 1
    check_range(MetricError, "n_mc x views per draw x image values",
                n_mc * views_per_draw * int(np.prod(np.shape(images)[1:])), 0, SIZE_CAP,
                hi_open=False)
    augment_fn = make_augment_fn(aug_mode, config, encoder=encoder, params=params,
                                 pool_images=images)
    return estimate_shift_gap(functools.partial(encoder.forward, params), eval_data, augment_fn,
                              n_mc, seed)


# ----- evaluation glue --------------------------------------------------------


def load_run(checkpoint_path):
    """(encoder, params, checkpoint) from a checkpoint file."""
    ckpt = load_checkpoint(checkpoint_path)
    return ckpt.encoder, ckpt.params, ckpt


def evaluate_probe(config, encoder, params, ks=(1,), epsilon=None, eval_data=None):
    """Train the linear probe and report clean (and optionally robust) accuracy."""
    if eval_data is None:
        eval_data = load_eval_data(config)
    attack = None if epsilon is None else AttackConfig(epsilon=epsilon)  # checked before training
    probe_cfg = config.probe_config()
    train_data = load_train_data(config)
    unseen = np.setdiff1d(eval_data[1], train_data[1])
    if unseen.size:  # refused before the probe trains
        raise EvaluationError(f"held-out classes {unseen.tolist()} have no training examples")
    weights = train_linear_probe(encoder, params, train_data, probe_cfg)
    model = ProbeModel(
        encoder=encoder, params=params, weights=weights, tap_point=probe_cfg.tap_point
    )
    logits = model.logits(eval_data[0])
    results = {f"top{k}": top_k_accuracy(logits, eval_data[1], k) for k in ks}
    if attack is not None:
        results["robust_top1"] = robust_accuracy(model, eval_data, attack)
    return model, results


# ----- experiment matrix ------------------------------------------------------


# The ablation rows: baseline, sam, asam, fft and the full method. Rows without
# SAM leave sam_rho and sam_adaptive as they are; the config hash reads them.
_SAM = dict(sam_enabled=True, sam_rho=DEFAULT_RHO, sam_adaptive=False)
_VARIANTS = {
    "baseline": dict(sam_enabled=False, fft_enabled=False),
    "sam": dict(_SAM, fft_enabled=False),
    "asam": dict(_SAM, sam_rho=DEFAULT_ADAPTIVE_RHO, sam_adaptive=True, fft_enabled=False),
    "fft": dict(sam_enabled=False, fft_enabled=True),
    "sam_fft": dict(_SAM, fft_enabled=True),
}


def standard_variants(base: TrainConfig):
    """The five ``_VARIANTS`` rows of ``base``, each under ``base.output_dir/<name>``."""
    return [(name, replace(base, **overrides, output_dir=os.path.join(base.output_dir, name)))
            for name, overrides in _VARIANTS.items()]


# Monte Carlo draws per anchor of each matrix row's ``base`` shift gap.
_MATRIX_SHIFT_N_MC = 4


def run_experiment_matrix(variants, summary_path=None):
    """Train and evaluate each (name, config) variant; failures mark their row."""
    rows = []
    for name, config in variants:
        row = {"variant": name}
        try:
            ckpt_path = train_ssl(config)
            encoder, params, _ = load_run(ckpt_path)
            eval_data = load_eval_data(config)
            _, results = evaluate_probe(config, encoder, params, epsilon=FGSM_DEFAULT_EPSILON,
                                        eval_data=eval_data)
            report = shift_gap_report(config, encoder, params, "base", n_mc=_MATRIX_SHIFT_N_MC,
                                      seed=config.seed, eval_data=eval_data)
            metrics = _read_metrics(os.path.join(config.output_dir, METRICS_NAME))
            row.update(results)
            row["shift_gap"] = report.aggregate
            row["final_loss"] = metrics[-1]["loss"] if metrics else float("nan")
            row["checkpoint"] = ckpt_path
        except Exception as exc:  # isolate per-variant failures
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    if summary_path:
        _write_summary(summary_path, rows)
    return rows


def _read_metrics(path):
    """The stream's records: JSON objects whose ``epoch``, where present, is an int."""
    with os_errors(PipelineError, path), open(path, "r", encoding="utf-8") as fh:
        try:
            records = [json.loads(line) for line in fh if line.strip()]
            if not all(isinstance(r, dict) and type(r.get("epoch", -1)) is int for r in records):
                raise ValueError("a record is not a JSON object with an int epoch")
        except (ValueError, RecursionError) as exc:  # a deeply nested line recurses
            raise PipelineError(f"{path}: corrupt metrics record ({exc})") from exc
    return records


def _write_summary(path, rows):
    columns = list(dict.fromkeys(["variant"] + [key for row in rows for key in row]))
    with os_errors(PipelineError, path):
        # a matrix whose every variant failed early has not created the directory
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(columns) + "\n")
            for row in rows:
                fh.write("\t".join(str(row.get(col, "")) for col in columns) + "\n")
