"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (pytest -s shows them); a failed
assertion marks the criterion red. Desk-scale experiments share trained
runs through module-scoped fixtures to stay within the runtime budget.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from sharpshift.bounds import (
    DiscreteWorld,
    PacPenaltyInputs,
    exact_info_nce_expectation,
    make_random_world,
    pac_penalty,
    surrogate_unsup_loss,
    verify_mean_classifier_step,
)
from sharpshift.config import TrainConfig
from sharpshift.encoder import Encoder, EncoderConfig
from sharpshift.evaluation import (
    AttackConfig,
    ProbeConfig,
    ProbeModel,
    clean_accuracy,
    fgsm_attack,
    robust_accuracy,
    train_linear_probe,
)
from sharpshift.fourier import (
    AugmentConfig,
    amplitude_phase,
    dft2,
    fft_augment_batch,
    mix_amplitude,
    reconstruct,
)
from sharpshift.losses import LossConfig, contrastive_rows, info_nce_batch_grad, loss_upper_bound
from sharpshift.sam import SamConfig, sam_step, sgd_step
from sharpshift.training import (
    METRICS_NAME,
    evaluate_probe,
    load_run,
    shift_gap_report,
    train_ssl,
)

from oracles import finite_diff_gradient, naive_dft2, pac_penalty_direct


def report(number, label):
    print(f"\n[acceptance] criterion {number:02d} ({label}): PASS")


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


DESK = dict(
    n_per_class=100, num_classes=2, batch_size=16, epochs=50, image_size=16,
    channels=1, n_eval_per_class=50,
)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Baseline and full-method (SAM + FFT) runs over three seeds."""
    root = tmp_path_factory.mktemp("desk")
    runs = {}
    for seed in (0, 1, 2):
        for name, flags in (
            ("baseline", dict(sam_enabled=False, fft_enabled=False)),
            ("ssa", dict(sam_enabled=True, sam_rho=0.05, fft_enabled=True,
                         fft_alpha=0.2)),
        ):
            cfg = TrainConfig(
                output_dir=str(root / f"{name}-s{seed}"), seed=seed, **DESK, **flags
            )
            ckpt = train_ssl(cfg)
            encoder, params, _ = load_run(ckpt)
            runs[(name, seed)] = (cfg, encoder, params)
    return runs


# -- 1 ---------------------------------------------------------------------------


def test_criterion_01_dft_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for size in (4, 8):
        for _ in range(100):
            channel = rng.uniform(size=(size, size))
            err = np.max(np.abs(dft2(channel) - naive_dft2(channel)))
            worst = max(worst, float(err))
    assert worst <= 1e-10, f"worst DFT error {worst:.3e}"
    report(1, f"fast vs naive DFT on 200 channels, worst {worst:.2e}")


# -- 2 ---------------------------------------------------------------------------


def test_criterion_02_fourier_round_trip():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        image = rng.uniform(size=(8, 8))
        amp, phase = amplitude_phase(dft2(image))
        rebuilt = reconstruct(mix_amplitude(amp, amp, 0.0), phase)
        worst = max(worst, float(np.max(np.abs(rebuilt - image))))
    assert worst <= 1e-6, f"round-trip error {worst:.3e}"

    views = rng.uniform(size=(8, 8, 8, 3))
    feats = unit_rows(rng, 8, 16)
    out = fft_augment_batch(views, feats, AugmentConfig(alpha=0.0, rng_seed=7))
    assert np.array_equal(out, views), "alpha = 0 must be bit-identity"
    report(2, f"beta=0 round trip worst {worst:.2e}; alpha=0 bit-identical")


# -- 3 ---------------------------------------------------------------------------


def test_criterion_03_info_nce_closed_forms():
    rng = np.random.default_rng(103)
    for _ in range(50):
        s = rng.uniform(-0.9, 0.9)
        tau = rng.uniform(0.1, 2.0)
        beta = rng.uniform(0.0, 5.0)
        k = int(rng.integers(1, 9))
        anchor = unit_rows(rng, 1, 6)[0]
        raw = rng.standard_normal(6)
        perp = raw - (raw @ anchor) * anchor
        perp /= np.linalg.norm(perp)
        other = s * anchor + np.sqrt(1.0 - s * s) * perp
        sim = np.array([anchor @ other]) / tau
        loss = contrastive_rows(sim, np.tile(sim, (1, k)), beta)[0][0]
        assert abs(loss - np.log1p(beta)) <= 1e-10

    worst_margin = np.inf
    for _ in range(10_000):
        d = int(rng.integers(2, 9))
        anchor, positive = unit_rows(rng, 2, d)
        k = int(rng.integers(1, 7))
        negatives = unit_rows(rng, k, d)
        tau = rng.uniform(0.1, 2.0)
        beta = rng.uniform(0.0, 4.0)
        loss = contrastive_rows(np.array([anchor @ positive]) / tau,
                                (negatives @ anchor)[None] / tau, beta)[0][0]
        bound = loss_upper_bound(tau, beta)
        assert loss <= bound + 1e-12
        worst_margin = min(worst_margin, bound - loss)
    report(3, f"closed form x50 and bound x10k (tightest margin {worst_margin:.3f})")


# -- 4 ---------------------------------------------------------------------------


def test_criterion_04_gradient_correctness():
    cfg = EncoderConfig(architecture="mlp", input_shape=(4, 4, 1), hidden=(6,),
                        feature_dim=4, proj_hidden=6)
    encoder = Encoder(cfg)
    assert encoder.n_params <= 200
    loss_cfg = LossConfig(tau=0.5)
    feature_loss = lambda f: info_nce_batch_grad(f, loss_cfg)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        params = encoder.init_params(seed)
        images = rng.uniform(size=(4, 4, 4, 1))
        _, analytic = encoder.loss_and_grad(params, images, feature_loss)
        numeric = finite_diff_gradient(
            lambda q: encoder.loss_and_grad(q, images, feature_loss)[0], params, 1e-5
        )
        rel = float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
        worst = max(worst, rel)
        assert rel <= 1e-4, f"seed {seed}: relative error {rel:.3e}"
    report(4, f"analytic vs finite-difference over 20 seeds, worst {worst:.2e}")


# -- 5 ---------------------------------------------------------------------------


def test_criterion_05_sam_geometry():
    rng = np.random.default_rng(105)
    curvature = np.diag(rng.uniform(0.3, 1.5, size=10))

    def loss(theta):
        return 0.5 * float(theta @ curvature @ theta), curvature @ theta

    cfg = SamConfig(rho=0.05, eta=0.05)
    theta = rng.standard_normal(10) * 5.0
    worst = 0.0
    for _ in range(100):
        seen = []

        def recording(p, seen=seen):
            seen.append(p.copy())
            return loss(p)

        theta_next = sam_step(theta, recording, cfg)
        radius = float(np.linalg.norm(seen[1] - theta))
        worst = max(worst, abs(radius - cfg.rho) / cfg.rho)
        theta = theta_next
    assert worst <= 1e-10, f"worst radius deviation {worst:.3e}"

    zero_rho = SamConfig(rho=0.0, eta=0.05)
    start = rng.standard_normal(10)
    assert np.array_equal(
        sam_step(start.copy(), loss, zero_rho), sgd_step(start.copy(), loss, zero_rho)
    ), "rho = 0 must equal plain SGD bitwise"
    report(5, f"ascent radius exact over 100 steps (worst rel dev {worst:.2e})")


# -- 6 ---------------------------------------------------------------------------


def test_criterion_06_mean_classifier_inequality_suite():
    rng = np.random.default_rng(106)
    min_slack = np.inf
    for _ in range(200):
        world = make_random_world(
            rng,
            n_points=int(rng.integers(2, 7)),
            n_classes=int(rng.integers(2, 4)),
            dim=3,
        )
        tau = rng.uniform(0.2, 2.0)
        check = verify_mean_classifier_step(world, tau)
        assert check.holds, f"violated: lhs={check.lhs} rhs={check.rhs}"
        min_slack = min(min_slack, check.slack)

    constant = DiscreteWorld(
        priors=np.array([0.5, 0.5]),
        conditionals=np.full((2, 4), 0.25),
        features=np.tile(np.array([1.0, 0.0, 0.0]), (4, 1)),
    )
    tight = verify_mean_classifier_step(constant, 1.0)
    assert tight.holds and abs(tight.slack) <= 1e-9
    report(6, f"200 random worlds hold (min slack {min_slack:.3e}); "
              f"constant world slack {tight.slack:.1e}")


# -- 7 ---------------------------------------------------------------------------


def test_criterion_07_k_trend():
    rng = np.random.default_rng(107)
    world = make_random_world(rng, n_points=4, n_classes=2, dim=3)
    tau = 0.5
    surrogate = surrogate_unsup_loss(world, tau)
    gaps = {}
    for k in (1, 8):
        res = exact_info_nce_expectation(world, tau, float(k), k)
        gaps[k] = abs(res.value - surrogate - np.log(k))
    assert gaps[8] < gaps[1], f"gap did not shrink: {gaps}"
    report(7, f"|L - surrogate - log beta|: K=1 {gaps[1]:.4f} -> K=8 {gaps[8]:.4f}")


# -- 8 ---------------------------------------------------------------------------


def test_criterion_08_pac_penalty_evaluator():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(20):
        inputs = PacPenaltyInputs(
            n_samples=int(rng.integers(2, 1_000_000)),
            n_params=int(rng.integers(1, 10_000_000)),
            delta=float(rng.uniform(0.001, 0.999)),
            rho=float(rng.uniform(0.01, 5.0)),
            tau=float(rng.uniform(0.05, 3.0)),
            beta_neg=float(rng.uniform(0.0, 10.0)),
            theta_norm=float(rng.uniform(0.0, 100.0)),
        )
        ours = pac_penalty(inputs)
        direct = pac_penalty_direct(
            inputs.n_samples, inputs.n_params, inputs.delta, inputs.rho,
            inputs.tau, inputs.beta_neg, inputs.theta_norm,
        )
        rel = abs(ours - direct) / direct
        worst = max(worst, rel)
        assert rel <= 1e-10
    report(8, f"20 random penalty inputs, worst relative error {worst:.2e}")


# -- 9 ---------------------------------------------------------------------------


def test_criterion_09_shift_gap_direction(desk_runs):
    cfg, encoder, params = desk_runs[("baseline", 0)]
    base_gaps, fft_gaps = [], []
    for seed in (0, 1, 2):
        base = shift_gap_report(cfg, encoder, params, "base", n_mc=8, seed=seed)
        fft = shift_gap_report(cfg, encoder, params, "fft", n_mc=8, seed=seed)
        base_gaps.append(base.aggregate)
        fft_gaps.append(fft.aggregate)
    base_mean = float(np.mean(base_gaps))
    fft_mean = float(np.mean(fft_gaps))
    assert fft_mean <= base_mean + 0.01, (
        f"fft gap {fft_mean:.4f} vs base gap {base_mean:.4f}"
    )
    report(9, f"gap with fft {fft_mean:.4f} <= base {base_mean:.4f} + 0.01")


# -- 10 --------------------------------------------------------------------------


def test_criterion_10_training_directionality(desk_runs):
    chance = 1.0 / DESK["num_classes"]
    means = {}
    first_losses, final_losses = [], []
    for name in ("baseline", "ssa"):
        accs = []
        for seed in (0, 1, 2):
            cfg, encoder, params = desk_runs[(name, seed)]
            _, results = evaluate_probe(cfg, encoder, params, ks=(1,))
            accs.append(results["top1"])
            with open(os.path.join(cfg.output_dir, METRICS_NAME)) as fh:
                records = [json.loads(line) for line in fh]
            first_losses.append(records[0]["loss"])
            final_losses.append(records[-1]["loss"])
        means[name] = float(np.mean(accs))
    assert means["ssa"] >= means["baseline"] - 0.01, f"seed means: {means}"
    assert means["baseline"] >= chance + 0.20, f"baseline too weak: {means}"
    assert means["ssa"] >= chance + 0.20, f"full method too weak: {means}"
    # training-progress oracle: final epoch loss below the first, seed-averaged
    assert np.mean(final_losses) < np.mean(first_losses)
    report(10, f"top-1 seed means: baseline {means['baseline']:.3f}, "
               f"sam+fft {means['ssa']:.3f}, chance {chance:.2f}; "
               f"loss {np.mean(first_losses):.3f} -> {np.mean(final_losses):.3f}")


# -- 11 --------------------------------------------------------------------------


def test_criterion_11_robust_eval_contracts(desk_runs):
    cfg, encoder, params = desk_runs[("baseline", 0)]
    images, labels = _eval_images(cfg, 200)
    probe = train_linear_probe(
        encoder, params, (images, labels),
        ProbeConfig(epochs=100, lr=1.0, seed=0),
    )
    model = ProbeModel(encoder=encoder, params=params, weights=probe)

    clean = clean_accuracy(model, (images, labels), k=1)
    zero = robust_accuracy(model, (images, labels), AttackConfig(epsilon=0.0))
    assert zero == clean, f"epsilon=0 robust {zero} != clean {clean}"

    attack = AttackConfig(epsilon=8.0 / 255.0)
    perturbed = fgsm_attack(model, images, labels, attack)
    sup_norm = float(np.max(np.abs(perturbed - images)))
    assert sup_norm <= attack.epsilon + 1e-12
    assert np.all(perturbed >= 0.0) and np.all(perturbed <= 1.0)
    robust = robust_accuracy(model, (images, labels), attack)
    report(11, f"eps=0 equality holds; 200-image attack sup-norm {sup_norm:.4f} "
               f"<= 8/255, robust top-1 {robust:.3f} (clean {clean:.3f})")


def _eval_images(cfg, count):
    from sharpshift.training import load_eval_data, load_train_data

    eval_images, eval_labels = load_eval_data(cfg)
    train_images, train_labels = load_train_data(cfg)
    images = np.concatenate([eval_images, train_images])[:count]
    labels = np.concatenate([eval_labels, train_labels])[:count]
    return images, labels


# -- 12 --------------------------------------------------------------------------


def test_criterion_12_full_pipeline_determinism(tmp_path):
    common = dict(
        seed=5, epochs=5, n_per_class=20, num_classes=2, batch_size=8,
        image_size=8, encoder_hidden=(8,), encoder_feature_dim=4,
        encoder_proj_hidden=8, sam_enabled=True, fft_enabled=True,
    )
    cfg_a = TrainConfig(output_dir=str(tmp_path / "a"), **common)
    cfg_b = TrainConfig(output_dir=str(tmp_path / "b"), **common)
    path_a = train_ssl(cfg_a)
    path_b = train_ssl(cfg_b)
    with open(os.path.join(cfg_a.output_dir, METRICS_NAME), "rb") as fh:
        metrics_a = fh.read()
    with open(os.path.join(cfg_b.output_dir, METRICS_NAME), "rb") as fh:
        metrics_b = fh.read()
    assert metrics_a == metrics_b, "metrics streams differ"
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        bytes_a, bytes_b = fa.read(), fb.read()
    assert bytes_a == bytes_b, "checkpoints differ"
    records = [json.loads(l) for l in metrics_a.decode().splitlines()]
    assert all(np.isfinite(r["loss"]) for r in records)
    report(12, f"two runs bit-identical ({len(metrics_a)} metric bytes, "
               f"{len(bytes_a)} checkpoint bytes)")
