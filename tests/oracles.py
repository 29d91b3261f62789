"""Independent test oracles, written before the modules they check.

Everything here is deliberately naive: direct double sums, ordered-tuple
enumerations, explicit loops. None of it shares code with the package, except
the k-trend loop and the augmentation oracles at the end. The k-trend loop
calls the package's one-world bound functions, one world at a time.
``base_augment`` among the augmentation oracles is the per-image composition of
the four base ops, each drawing from its own ``op_rng`` substream, and it
resizes the crop with the per-image ``bilinear_resize`` below. The per-draw
oracles loop over it, and mix each draw's (view, partner) pair through
``fourier.mix_batch`` on its own.
``data.base_augment_batch`` and the package's other batched paths must
reproduce them bit for bit.
"""

import itertools
import math

import numpy as np

from sharpshift import bounds, data, fourier, training
from sharpshift.errors import AugmentationError


def naive_dft2(channel):
    """Direct O((HW)^2) double-sum DFT."""
    channel = np.asarray(channel, dtype=float)
    h, w = channel.shape
    out = np.empty((h, w), dtype=complex)
    hs = np.arange(h)[:, None]
    ws = np.arange(w)[None, :]
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (hs * u / h + ws * v / w))
            out[u, v] = np.sum(channel * phase)
    return out


def naive_idft2(spectrum):
    """Direct inverse double sum (1/(HW) normalization)."""
    spectrum = np.asarray(spectrum, dtype=complex)
    h, w = spectrum.shape
    out = np.empty((h, w), dtype=complex)
    us = np.arange(h)[:, None]
    vs = np.arange(w)[None, :]
    for hh in range(h):
        for ww in range(w):
            phase = np.exp(2j * np.pi * (us * hh / h + vs * ww / w))
            out[hh, ww] = np.sum(spectrum * phase) / (h * w)
    return out


def scalar_contrastive_loss(anchor, positive, negatives, tau, beta):
    """Textbook formula, no numerical stabilization."""
    k = len(negatives)
    num = np.exp(anchor @ positive / tau)
    den = num + (beta / k) * sum(np.exp(anchor @ n / tau) for n in negatives)
    return -np.log(num / den)


def paired_batch_info_nce(views, tau, beta=None):
    """Mean paired-batch loss and its view gradient, one anchor at a time.

    Views 2i and 2i+1 are positives of each other, every other view is a
    negative, and beta defaults to K = 2b - 2.
    """
    views = np.asarray(views, dtype=float)
    n = views.shape[0]
    k = n - 2
    beta = float(k) if beta is None else float(beta)
    sims = views @ views.T / tau
    total = 0.0
    grads = np.zeros_like(views)
    for j in range(n):
        pj = j ^ 1
        neg_idx = np.array([l for l in range(n) if l != j and l != pj])
        s_pos = sims[j, pj]
        s_neg = sims[j, neg_idx]
        shift = max(s_pos, float(np.max(s_neg)))
        e_pos = np.exp(s_pos - shift)
        e_neg = np.exp(s_neg - shift)
        denom = e_pos + (beta / k) * np.sum(e_neg)
        total += shift + np.log(denom) - s_pos
        pos_w = e_pos / denom
        neg_w = (beta / k) * e_neg / denom
        scale = 1.0 / (n * tau)
        grads[pj] += scale * (pos_w - 1.0) * views[j]
        grads[neg_idx] += scale * neg_w[:, None] * views[j]
        grads[j] += scale * ((pos_w - 1.0) * views[pj] + neg_w @ views[neg_idx])
    return total / n, grads


def enumerate_sup_loss(priors, conditionals, features, tau):
    """Mean-classifier supervised loss by explicit loops."""
    m, n = np.asarray(conditionals).shape
    w_bar = [
        sum(conditionals[c][x] * np.asarray(features[x]) for x in range(n))
        for c in range(m)
    ]
    total = 0.0
    for c in range(m):
        for x in range(n):
            logits = np.array([w_bar[y] @ features[x] for y in range(m)]) / tau
            ce = np.log(np.sum(np.exp(logits))) - logits[c]
            total += priors[c] * conditionals[c][x] * ce
    return total


def enumerate_surrogate_loss(priors, conditionals, features, tau):
    """Surrogate population loss by explicit loops."""
    m, n = np.asarray(conditionals).shape
    p_data = [sum(priors[c] * conditionals[c][x] for c in range(m)) for x in range(n)]
    align = 0.0
    for c in range(m):
        for x in range(n):
            for xp in range(n):
                align -= (
                    priors[c] * conditionals[c][x] * conditionals[c][xp]
                    * (np.asarray(features[x]) @ features[xp]) / tau
                )
    partition = 0.0
    for x in range(n):
        inner = sum(
            p_data[xm] * np.exp(np.asarray(features[x]) @ features[xm] / tau)
            for xm in range(n)
        )
        partition += p_data[x] * np.log(inner)
    return align + partition


def enumerate_info_nce(priors, conditionals, features, tau, beta, k):
    """Exact K-negative expectation over ordered negative tuples (O(n^K)).

    Each tuple's loss is the textbook formula with every exponent shifted by the
    tuple's largest similarity, so it stays finite at any temperature.
    """
    m, n = np.asarray(conditionals).shape
    p_data = [sum(priors[c] * conditionals[c][x] for c in range(m)) for x in range(n)]
    p_pos = [
        [sum(priors[c] * conditionals[c][x] * conditionals[c][xp] for c in range(m))
         for xp in range(n)]
        for x in range(n)
    ]
    total = 0.0
    for x in range(n):
        for xp in range(n):
            if p_pos[x][xp] == 0.0:
                continue
            s_pos = float(np.asarray(features[x]) @ features[xp]) / tau
            for negs in itertools.product(range(n), repeat=k):
                weight = p_pos[x][xp] * np.prod([p_data[i] for i in negs])
                s_neg = [float(np.asarray(features[x]) @ features[i]) / tau for i in negs]
                top = max(s_pos, *s_neg)
                denom = math.exp(s_pos - top) + beta / k * sum(math.exp(s - top) for s in s_neg)
                total += weight * (top + math.log(denom) - s_pos)
    return total


def finite_diff_gradient(loss_closure, params, step=1e-5):
    """Central-difference gradient: two closure evaluations per coordinate."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    probe = params.copy()
    for i in range(params.size):
        original = probe[i]
        probe[i] = original + step
        up = loss_closure(probe)
        probe[i] = original - step
        down = loss_closure(probe)
        probe[i] = original
        grad[i] = (up - down) / (2.0 * step)
    return grad


def naive_conv(x, w, b, stride, pad):
    """Strided, zero-padded cross-correlation of (n, h, w, c) images, pixel by pixel."""
    k = w.shape[0]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out_h = (x.shape[1] + 2 * pad - k) // stride + 1
    out_w = (x.shape[2] + 2 * pad - k) // stride + 1
    out = np.empty((x.shape[0], out_h, out_w, w.shape[3]))
    for r in range(out_h):
        for c in range(out_w):
            patch = xp[:, r * stride:r * stride + k, c * stride:c * stride + k, :]
            out[:, r, c] = np.tensordot(patch, w, axes=([1, 2, 3], [0, 1, 2])) + b
    return out


def im2col_per_tap(x, k, stride, pad):
    """(n, h, w, c) -> (n, out_h, out_w, k*k*c) patches, one strided window copy per tap (i, j)."""
    n, h, w, c = x.shape
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((n, out_h, out_w, k * k * c))
    for i in range(k):
        for j in range(k):
            tap = (i * k + j) * c
            cols[..., tap:tap + c] = xp[:, i:i + stride * out_h:stride, j:j + stride * out_w:stride]
    return cols


def col2im_per_tap(dcols, x_shape, k, stride, pad):
    """Adjoint of ``im2col_per_tap``: one strided window add per tap, in tap order (i, j)."""
    n, h, w, c = x_shape
    out_h, out_w = dcols.shape[1:3]
    dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    for i in range(k):
        for j in range(k):
            tap = (i * k + j) * c
            dxp[:, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += \
                dcols[..., tap:tap + c]
    return dxp[:, pad:pad + h, pad:pad + w, :]


def pac_penalty_direct(n, t, delta, rho, tau, beta, theta_norm):
    """One-line independent evaluation of the concrete penalty."""
    sigma = rho / (np.sqrt(t) + np.sqrt(np.log(n)))
    big_l = 2.0 / tau + np.log(1.0 + beta)
    return (
        (0.5 + (t / 2.0) * np.log(1.0 + theta_norm**2 / (t * sigma**2))
         + np.log(1.0 / delta) + 6.0 * np.log(n + t)) / np.sqrt(n)
        + big_l**2 / (8.0 * np.sqrt(n))
        + 2.0 * big_l / np.sqrt(n)
    )


def top_k_by_sorting(logits, labels, k):
    """Sort-and-check top-k oracle with explicit low-index tie-breaking."""
    hits = 0
    for row, label in zip(logits, labels):
        ranked = sorted(range(len(row)), key=lambda j: (-row[j], j))
        if label in ranked[:k]:
            hits += 1
    return hits / len(labels)


def k_trend_rows_one_by_one(n_worlds, seed):
    """``lab_suite("k-trend", n_worlds, seed)``, one world and one call at a time."""
    rng = np.random.default_rng([seed])
    rows = []
    for i in range(n_worlds):
        world = bounds.make_random_world(rng, n_points=4, n_classes=2, dim=3)
        surrogate = bounds.surrogate_unsup_loss(world, tau=0.5)
        exact = {k: bounds.exact_info_nce_expectation(world, 0.5, float(k), k).value
                 for k in (1, 2, 4, 8)}
        gaps = {str(k): float(abs(value - surrogate - np.log(k))) for k, value in exact.items()}
        shrinks = bool(gaps["8"] < gaps["1"])
        rows.append(({"world": i, "gap_by_k": gaps, "shrinks": shrinks}, shrinks))
    return rows


# ----- per-image and per-draw augmentation (the batched paths must match these bit for bit) -----

#: Pool with every op disabled; base_augment becomes the identity.
IDENTITY_POOL = data.AugmentPool(crop_scale=(1.0, 1.0), flip_p=0.0, jitter_p=0.0, gray_p=0.0)


def op_rng(seed, slot):
    # object dtype keeps every value exact: a plain array of ints >= 2**63 and
    # smaller ones would be float64
    entropy = [int(s) for s in np.atleast_1d(np.asarray(seed, dtype=object))]
    return np.random.default_rng(entropy + [slot])


def bilinear_resize(image, out_h, out_w):
    """Channel-last bilinear resample (align_corners=False convention)."""
    image = np.asarray(image, dtype=float)
    in_h, in_w = image.shape[:2]
    if (in_h, in_w) == (out_h, out_w):
        return image.copy()
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    top = image[y0][:, x0] * (1 - wx) + image[y0][:, x1] * wx
    bottom = image[y1][:, x0] * (1 - wx) + image[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def gen_synthetic_per_image(n_per_class, num_classes, image_size, channels, seed):
    """``data.gen_synthetic`` one class pattern and one noise image at a time."""
    pattern_rng = np.random.default_rng([int(seed), 0])
    noise_rng = np.random.default_rng([int(seed), 1])
    images, labels = [], []
    for label in range(num_classes):
        base = bilinear_resize(pattern_rng.standard_normal((4, 4, channels)), image_size,
                               image_size)
        spread = max(float(np.max(np.abs(base))), 1e-12)
        base = 0.5 + 0.3 * base / spread
        for _ in range(n_per_class):
            noise = 0.1 * noise_rng.standard_normal((image_size, image_size, channels))
            images.append(np.clip(base + noise, 0.0, 1.0))
            labels.append(label)
    return np.stack(images), np.array(labels)


def random_resized_crop(image, rng, scale):
    """Random square-fraction crop resized back to the input shape."""
    h, w = image.shape[:2]
    area = rng.uniform(scale[0], scale[1])
    side = np.sqrt(area)
    crop_h = max(1, int(round(h * side)))
    crop_w = max(1, int(round(w * side)))
    top = int(rng.integers(0, h - crop_h + 1))
    left = int(rng.integers(0, w - crop_w + 1))
    if crop_h == h and crop_w == w:
        return image
    patch = image[top:top + crop_h, left:left + crop_w]
    return bilinear_resize(patch, h, w)


def horizontal_flip(image, rng, p):
    if rng.uniform() < p:
        return image[:, ::-1, :].copy()
    return image


def color_jitter(image, rng, p, strength):
    """Brightness/contrast/saturation jitter; factors ~ U(1-s, 1+s)."""
    apply = rng.uniform() < p
    factors = rng.uniform(max(0.0, 1.0 - strength), 1.0 + strength, size=3)
    if not apply:
        return image
    out = image * factors[0]
    mean = np.ascontiguousarray(out).mean()  # C order, whatever the image's memory layout
    out = (out - mean) * factors[1] + mean
    if image.shape[2] == 3:
        gray = _luminance(out)[..., None]
        out = (out - gray) * factors[2] + gray
    return np.clip(out, 0.0, 1.0)


def random_grayscale(image, rng, p):
    apply = rng.uniform() < p
    if not apply or image.shape[2] != 3:
        return image
    gray = _luminance(image)
    return np.repeat(gray[..., None], 3, axis=2)


def _luminance(image):
    return 0.299 * image[..., 0] + 0.587 * image[..., 1] + 0.114 * image[..., 2]


def base_augment(image, seed, pool=data.AugmentPool()):
    """Composition of crop, flip, color jitter, grayscale with derived seeds.

    ``seed`` is an int or a list of ints; op k draws from the substream
    SeedSequence(list(seed) + [k]) so a scripted replay of the individual ops
    reproduces the composition exactly. Output shape equals input shape and
    pixels stay in [0, 1].
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 3:
        raise AugmentationError(f"image must be (H, W, C), got {image.shape}")
    out = random_resized_crop(image, op_rng(seed, data.OP_CROP), pool.crop_scale)
    out = horizontal_flip(out, op_rng(seed, data.OP_FLIP), pool.flip_p)
    out = color_jitter(out, op_rng(seed, data.OP_JITTER), pool.jitter_p, pool.jitter_strength)
    out = random_grayscale(out, op_rng(seed, data.OP_GRAY), pool.gray_p)
    return out


def draw_betas_one_by_one(n_views, config):
    """One ``default_rng([rng_seed, k])`` generator per view."""
    return np.array([
        np.random.default_rng([config.rng_seed, k]).uniform(0.0, config.alpha)
        for k in range(n_views)
    ])


def make_views_per_image(images, indices, epoch, config, pool):
    """The training loop's paired views, one per-image ``base_augment`` call per view."""
    views = np.empty((2 * len(indices),) + images.shape[1:])
    for slot, idx in enumerate(indices):
        for v in (0, 1):
            seed = [config.seed, training.TAG_VIEW, epoch, int(idx), v]
            views[2 * slot + v] = base_augment(images[idx], seed, pool)
    return views


def per_draw_augment_fn(mode, config, encoder=None, params=None, pool_images=None,
                        n_candidates=8):
    """``make_augment_fn`` as n one-draw calls per anchor: each draw builds its own views."""
    aug_pool = config.augment_pool()

    def base_draw(image, rng):
        seed = [int(s) for s in rng.integers(0, 2**62, size=2)]
        return base_augment(image, seed, aug_pool)

    def fft_draw(image, rng):
        view = base_draw(image, rng)
        beta = float(rng.uniform(0.0, config.fft_alpha))
        if beta == 0.0:
            return view
        count = min(n_candidates, len(pool_images))
        chosen = rng.choice(len(pool_images), size=count, replace=False)
        candidates = np.empty((count,) + view.shape)
        for slot, idx in enumerate(chosen):
            candidates[slot] = base_draw(pool_images[idx], rng)
        stack = np.concatenate([view[None], candidates])
        partner = fourier.most_similar_index(encoder.forward(params, stack), 0)
        pair = stack[[0, partner]]
        return fourier.mix_batch(pair, np.array([1, 1]), np.array([beta, 0.0]))[0]

    draw = {"base": base_draw, "fft": fft_draw}[mode]
    return lambda images, rngs, n: ([draw(image, rng) for _ in range(n)]
                                    for image, rng in zip(images, rngs))
