import warnings

import numpy as np
import pytest

from sharpshift.errors import ContractViolationError
from sharpshift.losses import (
    LossConfig,
    contrastive_rows,
    info_nce_batch_grad,
    info_nce_grad,
    loss_upper_bound,
    paired_index,
    temperature_cross_entropy_grad,
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


# ----- scalar loss -------------------------------------------------------------


def test_equal_similarity_gives_log_one_plus_beta():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = rng.uniform(-0.9, 0.9)
        tau = rng.uniform(0.1, 2.0)
        beta = rng.uniform(0.0, 5.0)
        k = int(rng.integers(1, 9))
        a, v = vectors_with_similarity(rng, 6, s)
        cfg = LossConfig(tau=tau, beta_neg=beta)
        loss = info_nce_grad(a, v, np.tile(v, (k, 1)), cfg)[0]
        assert abs(loss - np.log1p(beta)) < 1e-10


def test_known_closed_form_value():
    # beta = K = 1, a.p = 1, a.n = -1, tau = 1  ->  log(1 + e^-2)
    a = np.array([1.0, 0.0])
    loss = info_nce_grad(a, a, [-a], LossConfig(tau=1.0))[0]
    assert loss == pytest.approx(0.1269280110429726, abs=1e-12)


def test_matches_textbook_formula():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = unit(rng.standard_normal(5))
        p = unit(rng.standard_normal(5))
        negs = unit_rows(rng, 4, 5)
        tau, beta = rng.uniform(0.2, 2.0), rng.uniform(0.1, 4.0)
        ours = info_nce_grad(a, p, negs, LossConfig(tau=tau, beta_neg=beta))[0]
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
        loss = info_nce_grad(a, p, negs, LossConfig(tau=tau, beta_neg=beta))[0]
        assert 0.0 <= loss <= loss_upper_bound(tau, beta) + 1e-12


def test_shift_invariance_of_similarities():
    # adding a constant to every similarity cancels in the softmax ratio;
    # emulated by feeding raw (non-unit) vectors with shifted dot products
    rng = np.random.default_rng(3)
    d = 4
    a = unit(rng.standard_normal(d))
    p = rng.standard_normal(d)
    negs = rng.standard_normal((3, d))
    cfg = LossConfig(tau=0.7, beta_neg=2.0)
    base = info_nce_grad(a, p, negs, cfg, validate=False)[0]
    shift = 0.9 * a  # adds 0.9 to every dot product with the unit anchor
    shifted = info_nce_grad(a, p + shift, negs + shift, cfg, validate=False)[0]
    assert abs(base - shifted) < 1e-10


def test_monotone_decreasing_in_positive_similarity():
    rng = np.random.default_rng(4)
    a = unit(rng.standard_normal(5))
    negs = unit_rows(rng, 3, 5)
    cfg = LossConfig(tau=0.5, beta_neg=3.0)
    previous = np.inf
    for s in (-0.5, 0.0, 0.5, 0.9):
        _, p = vectors_with_similarity(rng, 5, s)
        rigged = s * a + np.sqrt(1 - s * s) * unit(p - (p @ a) * a)
        loss = info_nce_grad(a, rigged, negs, cfg)[0]
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
    ours = info_nce_grad(a, p, negs, LossConfig(tau=tau, beta_neg=4.0))[0]
    num = np.exp(a @ p / tau)
    standard = -np.log(num / (num + sum(np.exp(a @ n / tau) for n in negs)))
    assert abs(ours - standard) < 1e-12


def test_non_unit_inputs_rejected():
    a = np.array([1.0, 0.0])
    with pytest.raises(ContractViolationError):
        info_nce_grad(2.0 * a, a, [a], LossConfig())


def test_scalar_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    cfg = LossConfig(tau=0.7, beta_neg=2.5)
    a = unit(rng.standard_normal(4))
    p = unit(rng.standard_normal(4))
    negs = unit_rows(rng, 3, 4)
    _, ga, gp, gn = info_nce_grad(a, p, negs, cfg)

    def fd(vec, apply):
        grad = np.zeros_like(vec)
        for i in range(vec.size):
            up, down = vec.copy(), vec.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            grad[i] = (apply(up) - apply(down)) / 2e-5
        return grad

    fa = fd(a, lambda v: info_nce_grad(v, p, negs, cfg, validate=False)[0])
    fp = fd(p, lambda v: info_nce_grad(a, v, negs, cfg, validate=False)[0])
    assert np.linalg.norm(ga - fa) / np.linalg.norm(fa) < 1e-4
    assert np.linalg.norm(gp - fp) / np.linalg.norm(fp) < 1e-4
    for j in range(3):
        fn = fd(negs[j], lambda v: info_nce_grad(
            a, p, np.vstack([negs[:j], v[None], negs[j + 1:]]), cfg, validate=False)[0])
        assert np.linalg.norm(gn[j] - fn) / max(np.linalg.norm(fn), 1e-12) < 1e-4


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
    scalar_cfg = LossConfig(tau=0.5, beta_neg=14.0)  # beta = K = 2b - 2
    total = 0.0
    for j in range(16):
        pj = paired_index(j)
        negs = np.array([views[l] for l in range(16) if l not in (j, pj)])
        total += info_nce_grad(views[j], views[pj], negs, scalar_cfg)[0]
    assert abs(batch - total / 16) < 1e-10


def test_orthogonal_pairs_composition():
    views = np.array([
        [1.0, 0.0], [1.0, 0.0],
        [0.0, 1.0], [0.0, 1.0],
    ])
    cfg = LossConfig(tau=1.0)
    batch = info_nce_batch_grad(views, cfg)[0]
    manual = np.mean([
        info_nce_grad(views[j], views[paired_index(j)],
                      np.array([views[l] for l in range(4) if l not in (j, paired_index(j))]),
                      LossConfig(tau=1.0, beta_neg=2.0))[0]
        for j in range(4)
    ])
    assert abs(batch - manual) < 1e-12


def test_batch_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    views = unit_rows(rng, 6, 4)
    cfg = LossConfig(tau=0.6)
    _, grads = info_nce_batch_grad(views, cfg)
    fd = np.zeros_like(views)
    for i in range(views.shape[0]):
        for j in range(views.shape[1]):
            up, down = views.copy(), views.copy()
            up[i, j] += 1e-6
            down[i, j] -= 1e-6
            fd[i, j] = (
                info_nce_batch_grad(up, cfg, validate=False)[0]
                - info_nce_batch_grad(down, cfg, validate=False)[0]
            ) / 2e-6
    assert np.linalg.norm(grads - fd) / np.linalg.norm(fd) < 1e-4


@pytest.mark.parametrize("beta_neg", [None, 3.5])
@pytest.mark.parametrize("n", [4, 6, 32, 64])
def test_batch_kernel_matches_per_anchor_oracle(n, beta_neg):
    rng = np.random.default_rng(n)
    views = unit_rows(rng, n, 8)
    loss, grads = info_nce_batch_grad(views, LossConfig(tau=0.5, beta_neg=beta_neg))
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
    assert abs(base - info_nce_batch_grad(rotated, cfg, validate=False)[0]) < 1e-10


# ----- temperature cross-entropy ----------------------------------------------


def test_uniform_logits_give_log_m():
    for m in (1, 2, 5, 11):
        for tau in (0.3, 1.0, 4.0):
            loss = temperature_cross_entropy_grad(np.full(m, 0.7), 0, tau)[0]
            assert abs(loss - np.log(m)) < 1e-12


def test_single_class_is_zero():
    assert temperature_cross_entropy_grad(np.array([3.2]), 0, 1.0)[0] == pytest.approx(0.0)


def test_known_two_class_value():
    # logits (2, 0), first class, tau = 1  ->  log(1 + e^-2)
    loss = temperature_cross_entropy_grad(np.array([2.0, 0.0]), 0, 1.0)[0]
    assert loss == pytest.approx(0.1269280110429726, abs=1e-12)


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal(7)
    for tau in (0.5, 1.0):
        a = temperature_cross_entropy_grad(logits, 3, tau)[0]
        b = temperature_cross_entropy_grad(logits + 42.0, 3, tau)[0]
        assert abs(a - b) < 1e-10


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal(5)
    _, grad = temperature_cross_entropy_grad(logits, 2, 0.7)
    fd = np.zeros(5)
    for i in range(5):
        up, down = logits.copy(), logits.copy()
        up[i] += 1e-6
        down[i] -= 1e-6
        fd[i] = (
            temperature_cross_entropy_grad(up, 2, 0.7)[0]
            - temperature_cross_entropy_grad(down, 2, 0.7)[0]
        ) / 2e-6
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6


def test_label_out_of_range_rejected():
    with pytest.raises(ContractViolationError):
        temperature_cross_entropy_grad(np.zeros(3), 3, 1.0)


def test_config_validation():
    with pytest.raises(ContractViolationError):
        LossConfig(tau=0.0)
    with pytest.raises(ContractViolationError):
        LossConfig(beta_neg=-1.0)
    for bad in ({"tau": np.nan}, {"tau": np.inf}, {"beta_neg": np.nan}, {"beta_neg": np.inf}):
        with pytest.raises(ContractViolationError):
            LossConfig(**bad)
    with pytest.raises(ContractViolationError):
        temperature_cross_entropy_grad(np.zeros(3), 0, np.nan)
