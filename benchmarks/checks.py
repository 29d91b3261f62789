"""Independent correctness checks on each run's outputs.

Every check recomputes a result by a route that does not go through the
function under test (direct ``np.fft`` calls, central differences, brute
enumeration, direct class means) and returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from sharpshift import bounds, data, evaluation, fourier, training
from sharpshift.losses import LossConfig, info_nce_batch_grad

GRAD_COORDS = 24
FD_STEP = 1e-6
FD_TOL = 1e-5  # agreement of the h and 2h differences
GRAD_TOL = 1e-4


def check_views(config, count):
    """A fixed paired batch of base-augmented views of the first training images."""
    images, _ = training.load_train_data(config)
    pool = config.augment_pool()
    return np.stack([
        data.base_augment(images[i], [config.seed, 7919, i, v], pool)
        for i in range(count) for v in (0, 1)
    ])


def fft_batch_matches_numpy(views, features, alpha, rng_seed):
    """fft_augment_batch equals a direct np.fft amplitude-mix recomputation."""
    out = fourier.fft_augment_batch(views, features, fourier.AugmentConfig(alpha, rng_seed))
    sims = features @ features.T
    np.fill_diagonal(sims, -np.inf)
    partners = np.argmax(sims, axis=1)
    spectra = np.fft.fft2(views, axes=(1, 2))
    expected = views.copy()
    for k, partner in enumerate(partners):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rng_seed, k])))
        beta = rng.uniform(0.0, alpha)
        if beta == 0.0:
            continue
        amplitude = (1.0 - beta) * np.abs(spectra[k]) + beta * np.abs(spectra[partner])
        mixed = amplitude * np.exp(1j * np.angle(spectra[k]))
        expected[k] = np.clip(np.fft.ifft2(mixed, axes=(0, 1)).real, 0.0, 1.0)
    err = float(np.max(np.abs(out - expected)))
    return "fft_augment_batch", err <= 1e-12, f"max abs error {err:.3g}"


def _info_nce_oracle(features, tau):
    """Mean paired-batch InfoNCE with beta = K, as one masked log-sum-exp."""
    n = features.shape[0]
    sims = features @ features.T / tau
    partner = np.arange(n) ^ 1
    masked = sims.copy()
    masked[np.arange(n), np.arange(n)] = -np.inf
    shift = masked.max(axis=1, keepdims=True)
    log_denom = shift[:, 0] + np.log(np.exp(masked - shift).sum(axis=1))
    return float(np.mean(log_denom - sims[np.arange(n), partner]))


def gradient_matches_differences(encoder, params, views, tau, seed):
    """loss_and_grad agrees with central differences on sampled coordinates.

    Coordinates are spread over every layout segment so each layer is probed.
    A coordinate whose central differences at steps h and 2h disagree has a
    ReLU kink inside the probe interval, where no derivative exists to
    compare against; it is replaced by the next sample of its segment.
    """
    loss_cfg = LossConfig(tau=tau)
    _, grad = encoder.loss_and_grad(params, views, lambda z: info_nce_batch_grad(z, loss_cfg))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 24])))
    probe = np.array(params, dtype=float)

    def central(i, step):
        original = probe[i]
        probe[i] = original + step
        up = _info_nce_oracle(encoder.forward(probe, views), tau)
        probe[i] = original - step
        down = _info_nce_oracle(encoder.forward(probe, views), tau)
        probe[i] = original
        return (up - down) / (2.0 * step)

    per_segment = math.ceil(GRAD_COORDS / len(encoder.layout))
    checked, skipped, worst = 0, 0, 0.0
    for _, shape, offset in encoder.layout:
        accepted = 0
        for i in offset + rng.permutation(int(np.prod(shape)))[:4 * per_segment]:
            fine = central(i, FD_STEP)
            if abs(fine - central(i, 2.0 * FD_STEP)) > FD_TOL * (1e-4 + abs(fine)):
                skipped += 1
                continue
            worst = max(worst, abs(grad[i] - fine) / (1e-4 + abs(fine)))
            accepted += 1
            if accepted == per_segment:
                break
        checked += accepted
    ok = worst <= GRAD_TOL and checked >= GRAD_COORDS
    return "gradient", ok, (f"{checked} coordinates ({skipped} at kinks skipped), "
                            f"worst relative error {worst:.3g}")


def epoch_losses_bounded(metrics_path, tau, batch_size):
    """Every epoch loss lies in [0, 2/tau + log(1 + 2(b - 1))]."""
    with open(metrics_path, "r", encoding="utf-8") as fh:
        losses = [json.loads(line)["loss"] for line in fh if line.strip()]
    ceiling = 2.0 / tau + math.log1p(2 * (batch_size - 1))
    ok = bool(losses) and all(0.0 <= loss <= ceiling for loss in losses)
    span = f"[{min(losses, default=0):.4g}, {max(losses, default=0):.4g}]"
    return "epoch_loss_bound", ok, f"{len(losses)} epoch losses in {span}, bound {ceiling:.4g}"


def identity_gap_matches_class_means(config, encoder, params, eval_data, seed):
    """Identity-mode shift gap equals the gap computed from class means directly."""
    report = training.shift_gap_report(config, encoder, params, "identity", n_mc=1,
                                       seed=seed, eval_data=eval_data)
    images, labels = eval_data
    feats = encoder.forward(params, images)
    expected = 0.0
    for c in np.unique(labels):
        rows = feats[labels == c]
        gaps = np.linalg.norm(rows - rows.mean(axis=0), axis=1) ** 0.5
        expected += len(rows) / len(labels) * gaps.mean()
    err = abs(report.aggregate - expected)
    return "identity_shift_gap", err <= 1e-12, f"abs error {err:.3g}"


def _brute_force_expectation(world, tau, k):
    """Expected K-negative InfoNCE (beta = K) summed over ordered negative tuples."""
    sims = world.features @ world.features.T / tau
    p_pos, p_data = world.p_pos, world.p_data
    total = 0.0
    for negatives in itertools.product(range(world.n_points), repeat=k):
        weight = np.prod(p_data[list(negatives)])
        for x, xp in itertools.product(range(world.n_points), repeat=2):
            s_pos = sims[x, xp]
            denom = math.exp(s_pos) + sum(math.exp(sims[x, j]) for j in negatives)
            total += weight * p_pos[x, xp] * (math.log(denom) - s_pos)
    return total


def exact_expectation_matches_enumeration(seed, n_worlds=3):
    """exact_info_nce_expectation for K = 1..3 equals brute-force enumeration."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 3])))
    worst = 0.0
    for _ in range(n_worlds):
        world = bounds.make_random_world(rng, n_points=4, n_classes=2, dim=3)
        for k in (1, 2, 3):
            got = bounds.exact_info_nce_expectation(world, 0.5, float(k), k).value
            want = _brute_force_expectation(world, 0.5, k)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return "exact_expectation", worst <= 1e-12, f"worst relative error {worst:.3g}"


def fgsm_contract(model, eval_data, epsilon):
    """FGSM stays in the epsilon-ball and [0, 1]; epsilon = 0 gives clean accuracy."""
    images, labels = eval_data
    attacked = evaluation.fgsm_attack(model, images, labels, evaluation.AttackConfig(epsilon))
    step = float(np.max(np.abs(attacked - images)))
    in_range = bool(attacked.min() >= 0.0 and attacked.max() <= 1.0)
    zero = evaluation.robust_accuracy(model, eval_data, evaluation.AttackConfig(0.0))
    clean = evaluation.clean_accuracy(model, eval_data)
    ok = step <= epsilon + 1e-12 and in_range and zero == clean
    return "fgsm", ok, (f"max step {step:.4g} (eps {epsilon:.4g}), "
                        f"eps=0 accuracy {zero} vs clean {clean}")


def k_trend_all_shrink(exit_code, stdout, n_worlds):
    """The k-trend suite exits 0 and reports every world as shrinking."""
    rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    shrinking = sum(1 for row in rows if row["shrinks"])
    ok = exit_code == 0 and len(rows) == n_worlds and shrinking == n_worlds
    return "k_trend", ok, f"exit {exit_code}, {shrinking}/{len(rows)} of {n_worlds} worlds shrink"
