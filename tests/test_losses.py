import warnings

import numpy as np
import pytest

from sharpshift.errors import ContractViolationError
from sharpshift.losses import (
    LossConfig,
    contrastive_rows,
    cross_entropy_rows,
    info_nce_batch_grad,
    loss_upper_bound,
)

from oracles import paired_batch_info_nce, scalar_contrastive_loss


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def vectors_with_similarity(rng, d, s):
    """(anchor, other) unit pair with anchor . other == s exactly."""
    a = unit(rng.standard_normal(d))
    raw = rng.standard_normal(d)
    perp = raw - (raw @ a) * a
    perp = perp / np.linalg.norm(perp)
    return a, s * a + np.sqrt(1.0 - s * s) * perp


def row_loss(anchor, positive, negatives, tau, beta):
    """``contrastive_rows`` on the one row of an (anchor, positive, negatives) tuple."""
    negatives = np.asarray(negatives, dtype=float)
    (loss,), _, _ = contrastive_rows(np.array([anchor @ positive]) / tau,
                                     (negatives @ anchor)[None] / tau, beta)
    return loss


# ----- contrastive rows ----------------------------------------------------------


def test_equal_similarity_gives_log_one_plus_beta():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = rng.uniform(-0.9, 0.9)
        tau = rng.uniform(0.1, 2.0)
        beta = rng.uniform(0.0, 5.0)
        k = int(rng.integers(1, 9))
        a, v = vectors_with_similarity(rng, 6, s)
        loss = row_loss(a, v, np.tile(v, (k, 1)), tau, beta)
        assert abs(loss - np.log1p(beta)) < 1e-10


def test_known_closed_form_value():
    # beta = K = 1, s_pos = 1, s_neg = -1 (tau = 1)  ->  log(1 + e^-2)
    (loss,), _, _ = contrastive_rows(np.array([1.0]), np.array([[-1.0]]), 1.0)
    assert loss == pytest.approx(0.1269280110429726, abs=1e-12)


def test_matches_textbook_formula():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = unit(rng.standard_normal(5))
        p = unit(rng.standard_normal(5))
        negs = unit_rows(rng, 4, 5)
        tau, beta = rng.uniform(0.2, 2.0), rng.uniform(0.1, 4.0)
        ours = row_loss(a, p, negs, tau, beta)
        ref = scalar_contrastive_loss(a, p, list(negs), tau, beta)
        assert abs(ours - ref) < 1e-12


def test_upper_bound_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = unit(rng.standard_normal(4))
        p = unit(rng.standard_normal(4))
        k = int(rng.integers(1, 7))
        negs = unit_rows(rng, k, 4)
        tau = rng.uniform(0.1, 2.0)
        beta = rng.uniform(0.0, 4.0)
        loss = row_loss(a, p, negs, tau, beta)
        assert 0.0 <= loss <= loss_upper_bound(tau, beta) + 1e-12


def test_shift_invariance_of_similarities():
    # adding a constant to every similarity of a row cancels in the softmax ratio
    rng = np.random.default_rng(3)
    s_pos, s_neg = rng.standard_normal(5), rng.standard_normal((5, 3))
    shift = rng.uniform(-3.0, 3.0, size=5)
    base = contrastive_rows(s_pos, s_neg, 2.0)
    shifted = contrastive_rows(s_pos + shift, s_neg + shift[:, None], 2.0)
    for ours, ref in zip(shifted, base):
        assert np.max(np.abs(ours - ref)) < 1e-10


def test_monotone_decreasing_in_positive_similarity():
    rng = np.random.default_rng(4)
    a = unit(rng.standard_normal(5))
    negs = unit_rows(rng, 3, 5)
    previous = np.inf
    for s in (-0.5, 0.0, 0.5, 0.9):
        _, p = vectors_with_similarity(rng, 5, s)
        rigged = s * a + np.sqrt(1 - s * s) * unit(p - (p @ a) * a)
        loss = row_loss(a, rigged, negs, 0.5, 3.0)
        assert loss < previous
        previous = loss


def test_beta_zero_drops_the_negatives_exactly():
    # a negative 1000 above the positive used to underflow the denominator to 0 (-inf)
    rng = np.random.default_rng(4)
    cases = [(np.array([-500.0]), np.array([[500.0]])),
             (rng.normal(0.0, 300.0, size=6), rng.normal(0.0, 300.0, size=(6, 3)))]
    for s_pos, s_neg in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, w, u = contrastive_rows(s_pos, s_neg, 0.0)
        assert np.array_equal(loss, np.zeros(len(s_pos)))
        assert np.array_equal(w, np.ones(len(s_pos)))
        assert np.array_equal(u, np.zeros(s_neg.shape))


def test_beta_equals_k_recovers_standard_form():
    rng = np.random.default_rng(5)
    a, p = unit(rng.standard_normal(6)), unit(rng.standard_normal(6))
    negs = unit_rows(rng, 4, 6)
    tau = 0.6
    ours = row_loss(a, p, negs, tau, 4.0)
    num = np.exp(a @ p / tau)
    standard = -np.log(num / (num + sum(np.exp(a @ n / tau) for n in negs)))
    assert abs(ours - standard) < 1e-12


def test_non_unit_inputs_rejected():
    views = np.tile(np.array([1.0, 0.0]), (4, 1))
    views[2] *= 2.0
    with pytest.raises(ContractViolationError, match="unit-norm"):
        info_nce_batch_grad(views, LossConfig())


def test_a_nan_feature_breaks_the_unit_norm_contract():
    views = np.eye(4)
    views[1, 1] = np.nan
    with pytest.raises(ContractViolationError, match="unit-norm"):
        info_nce_batch_grad(views, LossConfig())


def test_scalar_gradients_match_finite_differences():
    # the contract: dloss/ds_pos = w - 1 and dloss/ds_neg = u, row by row
    rng = np.random.default_rng(6)
    s_pos, s_neg = rng.standard_normal(4), rng.standard_normal((4, 3))
    _, w, u = contrastive_rows(s_pos, s_neg, 2.5)

    def fd(vec, apply):
        grad = np.zeros_like(vec)
        for i in np.ndindex(vec.shape):
            up, down = vec.copy(), vec.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            grad[i] = (apply(up) - apply(down)).sum() / 2e-5
        return grad

    fp = fd(s_pos, lambda v: contrastive_rows(v, s_neg, 2.5)[0])
    fn = fd(s_neg, lambda v: contrastive_rows(s_pos, v, 2.5)[0])
    assert np.max(np.abs((w - 1.0) - fp)) < 1e-8
    assert np.max(np.abs(u - fn)) < 1e-8


# ----- batch loss -----------------------------------------------------------


def test_identical_views_give_log_one_plus_beta():
    v = unit(np.array([0.3, -0.2, 0.9]))
    views = np.tile(v, (4, 1))
    k = 2  # 2b - 2 with b = 2
    loss = info_nce_batch_grad(views, LossConfig(tau=0.8))[0]
    assert abs(loss - np.log1p(k)) < 1e-10


def test_batch_equals_mean_of_scalar_calls():
    rng = np.random.default_rng(7)
    views = unit_rows(rng, 16, 6)
    cfg = LossConfig(tau=0.5)
    batch = info_nce_batch_grad(views, cfg)[0]
    total = 0.0
    for j in range(16):
        negs = np.array([views[l] for l in range(16) if l not in (j, j ^ 1)])
        total += row_loss(views[j], views[j ^ 1], negs, 0.5, 14.0)  # beta = K = 2b - 2
    assert abs(batch - total / 16) < 1e-10


def test_orthogonal_pairs_composition():
    views = np.array([
        [1.0, 0.0], [1.0, 0.0],
        [0.0, 1.0], [0.0, 1.0],
    ])
    cfg = LossConfig(tau=1.0)
    batch = info_nce_batch_grad(views, cfg)[0]
    manual = np.mean([
        row_loss(views[j], views[j ^ 1], [views[l] for l in range(4) if l not in (j, j ^ 1)],
                 1.0, 2.0)
        for j in range(4)
    ])
    assert abs(batch - manual) < 1e-12


def test_batch_gradient_matches_finite_differences():
    # differences of the per-anchor oracle's loss, which accepts views off the unit sphere
    rng = np.random.default_rng(8)
    views = unit_rows(rng, 6, 4)
    _, grads = info_nce_batch_grad(views, LossConfig(tau=0.6))
    fd = np.zeros_like(views)
    for i in range(views.shape[0]):
        for j in range(views.shape[1]):
            up, down = views.copy(), views.copy()
            up[i, j] += 1e-6
            down[i, j] -= 1e-6
            fd[i, j] = (
                paired_batch_info_nce(up, 0.6)[0] - paired_batch_info_nce(down, 0.6)[0]
            ) / 2e-6
    assert np.linalg.norm(grads - fd) / np.linalg.norm(fd) < 1e-4


@pytest.mark.parametrize("beta_neg", [None, 3.5])
@pytest.mark.parametrize("n", [4, 6, 32, 64])
def test_batch_kernel_matches_per_anchor_oracle(n, beta_neg):
    """``None`` is the training loss (beta = K); an explicit beta runs the per-anchor
    ``contrastive_rows`` rows, with the gradient (W + W^T) V / (n tau) of their weights."""
    rng = np.random.default_rng(n)
    views = unit_rows(rng, n, 8)
    if beta_neg is None:
        loss, grads = info_nce_batch_grad(views, LossConfig(tau=0.5))
    else:
        sims = views @ views.T / 0.5
        rows = np.arange(n)
        negative = np.ones((n, n), dtype=bool)
        negative[rows, rows] = negative[rows, rows ^ 1] = False
        losses, w, u = contrastive_rows(sims[rows, rows ^ 1],
                                        sims[negative].reshape(n, n - 2), beta_neg)
        weights = np.zeros((n, n))
        weights[negative] = u.ravel()
        weights[rows, rows ^ 1] = w - 1.0
        loss, grads = losses.mean(), (weights + weights.T) @ views / (n * 0.5)
    ref_loss, ref_grads = paired_batch_info_nce(views, 0.5, beta_neg)
    assert abs(loss - ref_loss) < 1e-12
    assert np.max(np.abs(grads - ref_grads)) < 1e-12


def test_batch_requires_two_anchors():
    v = unit(np.array([1.0, 1.0]))
    with pytest.raises(ContractViolationError):
        info_nce_batch_grad(np.tile(v, (2, 1)), LossConfig())
    with pytest.raises(ContractViolationError):
        info_nce_batch_grad(np.tile(v, (5, 1)), LossConfig())


def test_batch_shift_invariance():
    rng = np.random.default_rng(9)
    views = unit_rows(rng, 8, 8)
    cfg = LossConfig(tau=0.5)
    base = info_nce_batch_grad(views, cfg)[0]
    # rigid rotation preserves all inner products
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    rotated = views @ q
    assert abs(base - info_nce_batch_grad(rotated, cfg)[0]) < 1e-10


# ----- temperature cross-entropy ----------------------------------------------


def ce_row(logits, label, tau):
    """``cross_entropy_rows`` on one row: (loss, gradient)."""
    (loss,), (grad,) = cross_entropy_rows(np.asarray(logits, dtype=float)[None],
                                          np.array([label]), tau)
    return loss, grad


def test_uniform_logits_give_log_m():
    for m in (1, 2, 5, 11):
        for tau in (0.3, 1.0, 4.0):
            loss = ce_row(np.full(m, 0.7), 0, tau)[0]
            assert abs(loss - np.log(m)) < 1e-12


def test_single_class_is_zero():
    assert ce_row(np.array([3.2]), 0, 1.0)[0] == pytest.approx(0.0)


def test_known_two_class_value():
    # logits (2, 0), first class, tau = 1  ->  log(1 + e^-2)
    loss = ce_row(np.array([2.0, 0.0]), 0, 1.0)[0]
    assert loss == pytest.approx(0.1269280110429726, abs=1e-12)


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal(7)
    for tau in (0.5, 1.0):
        a = ce_row(logits, 3, tau)[0]
        b = ce_row(logits + 42.0, 3, tau)[0]
        assert abs(a - b) < 1e-10


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal(5)
    _, grad = ce_row(logits, 2, 0.7)
    fd = np.zeros(5)
    for i in range(5):
        up, down = logits.copy(), logits.copy()
        up[i] += 1e-6
        down[i] -= 1e-6
        fd[i] = (ce_row(up, 2, 0.7)[0] - ce_row(down, 2, 0.7)[0]) / 2e-6
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6


def test_config_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ContractViolationError):
            LossConfig(tau=bad)
