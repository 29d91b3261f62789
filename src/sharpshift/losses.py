"""Contrastive and temperature cross-entropy losses.

The scalar loss for an anchor a with positive p and negatives n_1..n_K is

    -log[ exp(a.p/tau) / (exp(a.p/tau) + (beta/K) * sum_k exp(a.n_k/tau)) ]

where beta weighs the averaged negative term; beta = K recovers the standard
softmax contrastive form. Features are expected to be already normalized:
similarities are plain inner products, and with unit vectors the loss is
bounded by 2/tau + log(1 + beta). Each formula is written once, as a
row-batched kernel returning values with their gradients (``contrastive_rows``,
``cross_entropy_rows``); the paired-batch loss ``info_nce_batch_grad``, the
bound lab and the probe call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, check_range

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class LossConfig:
    """Temperature of the training loss; a batch always weighs its negatives by beta = K."""

    tau: float = 0.5

    def __post_init__(self):
        check_range(ContractViolationError, "tau", self.tau, 0, lo_open=True)


def loss_upper_bound(tau, beta):
    """2/tau + log(1 + beta), valid for unit-norm inputs."""
    return 2.0 / tau + math.log1p(beta)


def _check_unit(vectors, what):
    norms = np.linalg.norm(vectors, axis=1)
    worst = np.max(np.abs(norms - 1.0))
    if not worst <= UNIT_NORM_TOL:  # written so that a NaN fails the check
        raise ContractViolationError(
            f"{what} must be unit-norm within {UNIT_NORM_TOL:g} (worst deviation {worst:.3g})"
        )


def contrastive_rows(s_pos, s_neg, beta):
    """Row-batched contrastive loss on similarities already divided by tau.

    ``s_pos`` (m,) and ``s_neg`` (m, K) give the loss (m,), the positive weights
    w (m,) and the negative weights u (m, K), so that dloss/ds_pos = w - 1 and
    dloss/ds_neg = u. With beta = 0 the negatives drop out: loss 0, w = 1, u = 0.
    """
    if beta == 0.0:  # else a negative far above s_pos would underflow the denominator
        return np.zeros(s_pos.shape), np.ones(s_pos.shape), np.zeros(s_neg.shape)
    k_count = s_neg.shape[1]
    shift = np.maximum(s_pos, s_neg.max(axis=1))
    e_pos = np.exp(s_pos - shift)
    e_neg = np.exp(s_neg - shift[:, None])
    denom = e_pos + (beta / k_count) * e_neg.sum(axis=1)
    loss = shift + np.log(denom) - s_pos
    return loss, e_pos / denom, (beta / k_count) * e_neg / denom[:, None]


def info_nce_batch_grad(views, config):
    """Mean contrastive loss over all 2b anchors of a paired batch, and its gradient.

    Returns (loss, d/dviews). Views 2i and 2i+1 are the two augmentations of
    anchor i. For each anchor the positive is its paired view and the negatives
    are the other K = 2(b - 1) views, weighed by beta = K. With
    W[j, l] = dL_j/ds_jl and s_jl = v_j . v_l / tau, the gradient of the mean
    loss is (W + W^T) V / (n tau).
    """
    views = np.asarray(views, dtype=float)
    if views.ndim != 2:
        raise ContractViolationError(f"views must be a (2b, d) array, got {views.shape}")
    n = views.shape[0]
    if n < 4 or n % 2 != 0:
        raise ContractViolationError(
            f"in-batch loss needs 2b views with b >= 2, got {n} views"
        )
    _check_unit(views, "views")
    sims = views @ views.T / config.tau
    rows = np.arange(n)
    pairs = rows ^ 1
    negative = np.ones((n, n), dtype=bool)
    negative[rows, rows] = False
    negative[rows, pairs] = False
    loss, pos_w, neg_w = contrastive_rows(
        sims[rows, pairs], sims[negative].reshape(n, n - 2), float(n - 2)
    )
    weights = np.zeros((n, n))
    weights[negative] = neg_w.ravel()
    weights[rows, pairs] = pos_w - 1.0
    return float(loss.mean()), (weights + weights.T) @ views / (n * config.tau)


def cross_entropy_rows(logits, labels, tau):
    """Per-row -log softmax(logits / tau)[label] and its gradient w.r.t. logits.

    ``logits`` is (m, C) and ``labels`` (m,); returns the loss (m,) and the
    gradient (m, C).
    """
    # column-major: the row max and sum over few classes run as elementwise passes
    z = np.divide(logits, tau, order="F")
    z -= z.max(axis=1, keepdims=True)
    probs = np.exp(z)
    norm = probs.sum(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    loss = np.log(norm[:, 0]) - z[rows, labels]
    probs /= norm
    probs[rows, labels] -= 1.0
    probs /= tau
    return loss, probs
