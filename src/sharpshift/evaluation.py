"""Phase-2 evaluation: linear probe, top-k accuracy, single-step attack.

The probe is a bias-free weight matrix trained with temperature
cross-entropy on frozen features; robustness is measured by perturbing each
pixel by epsilon in the direction of the input-gradient sign and re-scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SIZE_CAP, EvaluationError, check_range
from .losses import cross_entropy_rows

FGSM_DEFAULT_EPSILON = 8.0 / 255.0


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 200
    lr: float = 2.0
    tap_point: str = "backbone"
    tau: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_range(EvaluationError, "epochs", self.epochs, 1, SIZE_CAP, hi_open=False,
                    integer=True)
        check_range(EvaluationError, "lr", self.lr, 0, lo_open=True)
        if self.tap_point not in ("backbone", "projection"):
            raise EvaluationError(f"unknown tap point {self.tap_point!r}")
        check_range(EvaluationError, "tau", self.tau, 0, lo_open=True)
        check_range(EvaluationError, "seed", self.seed, 0, 2**64, integer=True)


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float = FGSM_DEFAULT_EPSILON

    def __post_init__(self):
        check_range(EvaluationError, "epsilon", self.epsilon, 0)


def _as_batch(images, labels):
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if images.ndim != 4 or labels.shape != images.shape[:1]:
        raise EvaluationError(f"need a batch: images (n, H, W, C) and labels (n,), got "
                              f"{images.shape} and {labels.shape}")
    if (labels < 0).any():
        raise EvaluationError(f"labels must be non-negative, got {labels.min()}")
    return images, labels


def train_linear_probe(encoder, params, labeled_data, config):
    """Gradient-train a weight matrix on frozen features; returns W (M, d).

    ``labeled_data`` is an (images, labels) pair whose labels cover every class
    0..M-1. The encoder parameters are read, never written. Full-batch updates
    keep the run deterministic for a given seed.
    """
    images, labels = _as_batch(*labeled_data)
    n_classes = int(labels.max()) + 1
    missing = [c for c in range(n_classes) if not np.any(labels == c)]
    if missing:
        raise EvaluationError(f"classes {missing} have no training examples")
    feats = encoder.forward(params, images, tap=config.tap_point)
    n, dim = feats.shape
    rng = np.random.default_rng([int(config.seed)])
    weights = 0.01 * rng.standard_normal((n_classes, dim))
    for _ in range(config.epochs):
        _, dlogits = cross_entropy_rows(feats @ weights.T, labels, config.tau)
        weights -= (config.lr / n) * (dlogits.T @ feats)
    return weights


def top_k_accuracy(logits, labels, k):
    """Fraction of rows whose label, a class in [0, M), is among the k largest logits.

    Ties rank the lower class index first, so results are deterministic.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise EvaluationError(f"need a batch: logits (n, M) and labels (n,), got "
                              f"{logits.shape} and {labels.shape}")
    outside = labels[(labels < 0) | (labels >= logits.shape[1])]
    if outside.size:
        raise EvaluationError(f"labels must lie in [0, {logits.shape[1]}), got {outside[0]}")
    k = check_range(EvaluationError, "k", k, 1, logits.shape[1], hi_open=False, integer=True)
    order = np.argsort(-logits, axis=1, kind="stable")
    hits = (order[:, :k] == labels[:, None]).any(axis=1)
    return float(hits.mean())


@dataclass
class ProbeModel:
    """Frozen encoder composed with a trained linear probe."""

    encoder: object
    params: np.ndarray
    weights: np.ndarray
    tap_point: str = "backbone"

    def logits(self, images):
        feats = self.encoder.forward(self.params, images, tap=self.tap_point)
        return feats @ self.weights.T

    def input_gradient(self, images, labels):
        """Per-sample gradient of the tau=1 cross-entropy w.r.t. the pixels."""
        images, labels = _as_batch(images, labels)

        def probe_loss(feats):
            loss, dlogits = cross_entropy_rows(feats @ self.weights.T, labels, 1.0)
            return loss.sum(), dlogits @ self.weights

        return self.encoder.input_gradient(self.params, images, probe_loss, tap=self.tap_point)


def fgsm_attack(model, images, labels, config):
    """Sign-gradient perturbation: clip(x + eps * sign(grad_x CE), 0, 1).

    Takes a batch (n, H, W, C) with labels (n,); pass a single image as a batch
    of one. Epsilon = 0 returns a copy of the input. The result always satisfies the
    infinity-norm budget and stays in the [0, 1] pixel range.
    """
    images, labels = _as_batch(images, labels)
    if config.epsilon == 0.0:
        return images.copy()
    grad = model.input_gradient(images, labels)
    if not np.all(np.isfinite(grad)):
        raise EvaluationError("non-finite input gradient during attack")
    return np.clip(images + config.epsilon * np.sign(grad), 0.0, 1.0)


def clean_accuracy(model, labeled_data, k=1):
    images, labels = _as_batch(*labeled_data)
    return top_k_accuracy(model.logits(images), labels, k)


def robust_accuracy(model, labeled_data, config):
    """Top-1 accuracy on attacked inputs; equals clean accuracy at epsilon 0."""
    images, labels = labeled_data  # fgsm_attack checks the batch
    attacked = fgsm_attack(model, images, labels, config)
    return top_k_accuracy(model.logits(attacked), labels, 1)
