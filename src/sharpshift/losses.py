"""Contrastive and temperature cross-entropy losses.

The scalar loss for an anchor a with positive p and negatives n_1..n_K is

    -log[ exp(a.p/tau) / (exp(a.p/tau) + (beta/K) * sum_k exp(a.n_k/tau)) ]

where beta weighs the averaged negative term; beta = K recovers the standard
softmax contrastive form. Features are expected to be already normalized:
similarities are plain inner products, and with unit vectors the loss is
bounded by 2/tau + log(1 + beta). Each formula is written once, as a
row-batched kernel returning values with their gradients (``contrastive_rows``,
``cross_entropy_rows``); the ``_grad`` entry points, the bound lab and the
probe call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, check_range

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class LossConfig:
    """Temperature and negative weight.

    ``beta_neg = None`` means "use beta = K", the recovering setting used for
    training; an explicit value is only needed for bound experiments.
    """

    tau: float = 0.5
    beta_neg: float | None = None

    def __post_init__(self):
        check_range(ContractViolationError, "tau", self.tau, 0, lo_open=True)
        if self.beta_neg is not None:
            check_range(ContractViolationError, "beta_neg", self.beta_neg, 0)


def paired_index(k):
    """Index of the view sharing anchor with view k (views 2i, 2i+1 pair up)."""
    return k ^ 1


def loss_upper_bound(tau, beta):
    """2/tau + log(1 + beta), valid for unit-norm inputs."""
    return 2.0 / tau + np.log1p(beta)


def _check_unit(vectors, what):
    norms = np.linalg.norm(np.atleast_2d(vectors), axis=1)
    worst = np.max(np.abs(norms - 1.0))
    if worst > UNIT_NORM_TOL:
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


def _beta(config, k_count):
    return float(config.beta_neg) if config.beta_neg is not None else float(k_count)


def info_nce_grad(anchor, positive, negatives, config, validate=True):
    """Contrastive loss of one (anchor, positive, negatives) tuple and its gradients.

    Returns (loss, d/danchor, d/dpositive, d/dnegatives). ``validate`` gates the
    unit-norm precondition check; tests that probe the loss off the unit sphere
    (finite differences) switch it off.
    """
    anchor = np.asarray(anchor, dtype=float)
    positive = np.asarray(positive, dtype=float)
    negatives = np.atleast_2d(np.asarray(negatives, dtype=float))
    k_count = negatives.shape[0]
    if k_count < 1:
        raise ContractViolationError("need at least one negative")
    if validate:
        _check_unit(anchor, "anchor")
        _check_unit(positive, "positive")
        _check_unit(negatives, "negatives")
    s_pos = np.array([anchor @ positive]) / config.tau
    s_neg = (negatives @ anchor)[None] / config.tau
    (loss,), (pos_w,), (neg_w,) = contrastive_rows(s_pos, s_neg, _beta(config, k_count))
    # dL/ds_pos = pos_w - 1, dL/ds_k = neg_w[k]; similarities are dots / tau.
    g_pos = (pos_w - 1.0) * anchor / config.tau
    g_neg = neg_w[:, None] * anchor / config.tau
    g_anchor = ((pos_w - 1.0) * positive + neg_w @ negatives) / config.tau
    return float(loss), g_anchor, g_pos, g_neg


def info_nce_batch_grad(views, config, validate=True):
    """Mean contrastive loss over all 2b anchors of a paired batch, and its gradient.

    Returns (loss, d/dviews). Views 2i and 2i+1 are the two augmentations of
    anchor i. For each anchor the positive is its paired view and the negatives
    are the other 2(b - 1) views; beta defaults to K = 2(b - 1) unless the config
    overrides it. With W[j, l] = dL_j/ds_jl and s_jl = v_j . v_l / tau, the
    gradient of the mean loss is (W + W^T) V / (n tau).
    """
    views = np.asarray(views, dtype=float)
    if views.ndim != 2:
        raise ContractViolationError(f"views must be a (2b, d) array, got {views.shape}")
    n = views.shape[0]
    if n < 4 or n % 2 != 0:
        raise ContractViolationError(
            f"in-batch loss needs 2b views with b >= 2, got {n} views"
        )
    if validate:
        _check_unit(views, "views")
    sims = views @ views.T / config.tau
    rows = np.arange(n)
    pairs = paired_index(rows)
    negative = np.ones((n, n), dtype=bool)
    negative[rows, rows] = False
    negative[rows, pairs] = False
    loss, pos_w, neg_w = contrastive_rows(
        sims[rows, pairs], sims[negative].reshape(n, n - 2), _beta(config, n - 2)
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


def temperature_cross_entropy_grad(logits, label, tau):
    """-log softmax(logits / tau)[label] for one row of logits, and its gradient."""
    check_range(ContractViolationError, "tau", tau, 0, lo_open=True)
    logits = np.asarray(logits, dtype=float)
    check_range(ContractViolationError, "label", label, 0, len(logits))
    loss, grad = cross_entropy_rows(logits[None], np.array([label]), tau)
    return float(loss[0]), grad[0]
