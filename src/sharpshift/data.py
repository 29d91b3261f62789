"""Dataset ingestion, synthetic data, and the base augmentation pool."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import AugmentationError, IngestionError

RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes (R, G, B planes)
CIFAR_CLASSES = 10
CIFAR_TEST_BATCH = "test_batch.bin"  # the held-out side; every other .bin trains


def load_cifar10(directory):
    """Read the training batches: every ``*.bin`` file but ``test_batch.bin``.

    Files are read in name order and records keep their file order; see
    ``read_cifar_batch`` for the record layout.
    """
    try:
        names = os.listdir(directory)
    except OSError as exc:
        raise IngestionError(f"cannot list {directory}: {exc.strerror}") from exc
    paths = sorted(
        os.path.join(directory, name)
        for name in names
        if name.endswith(".bin") and name != CIFAR_TEST_BATCH
    )
    if not paths:
        raise IngestionError(f"no .bin batch files in {directory}")
    images, labels = zip(*(read_cifar_batch(path) for path in paths))
    return np.concatenate(images), np.concatenate(labels)


def read_cifar_batch(path):
    """One CIFAR-10 binary batch file as (images (N, 32, 32, 3), labels (N,)).

    Each record is one label byte followed by 3072 pixel bytes laid out as
    three 32x32 row-major planes. Pixels are scaled to [0, 1]. Truncated files
    and out-of-range labels fail loudly.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % RECORD_BYTES != 0:
        raise IngestionError(
            f"{path}: truncated record", byte_offset=(len(raw) // RECORD_BYTES) * RECORD_BYTES
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = records[:, 0]
    bad = np.nonzero(labels >= CIFAR_CLASSES)[0]
    if bad.size:
        raise IngestionError(
            f"{path}: label byte {int(labels[bad[0]])} out of range",
            byte_offset=int(bad[0]) * RECORD_BYTES,
        )
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return pixels.astype(float) / 255.0, labels.astype(int)


def gen_synthetic(n_per_class, num_classes, image_size=16, channels=1, seed=0,
                  pattern_seed=None):
    """Class-structured images: smooth per-class pattern plus seeded noise.

    Each class gets a low-frequency base pattern (bilinear upsampling of a
    4x4 seeded draw) that survives crops, so the classes stay linearly
    separable from raw pixels. Exactly ``n_per_class`` images per class,
    class-major order, deterministic for a given seed. ``pattern_seed``
    (default: ``seed``) controls the class patterns alone, so train and
    held-out splits drawn with different sample seeds share the same classes.
    """
    if n_per_class < 1 or num_classes < 2:
        raise IngestionError("need n_per_class >= 1 and num_classes >= 2")
    if pattern_seed is None:
        pattern_seed = seed
    pattern_rng = np.random.default_rng([int(pattern_seed), 0])
    noise_rng = np.random.default_rng([int(seed), 1])
    h = w = int(image_size)
    images = np.empty((n_per_class * num_classes, h, w, channels))
    labels = np.empty(n_per_class * num_classes, dtype=int)
    for c in range(num_classes):
        coarse = pattern_rng.standard_normal((4, 4, channels))
        base = bilinear_resize(coarse, h, w)
        spread = max(float(np.max(np.abs(base))), 1e-12)
        base = 0.5 + 0.3 * base / spread
        for i in range(n_per_class):
            idx = c * n_per_class + i
            noise = 0.1 * noise_rng.standard_normal((h, w, channels))
            images[idx] = np.clip(base + noise, 0.0, 1.0)
            labels[idx] = c
    return images, labels


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


# ----- base augmentation pool ----------------------------------------------


@dataclass(frozen=True)
class AugmentPool:
    """Probabilities and strengths of the stochastic view-generation ops."""

    crop_scale: tuple[float, float] = (0.2, 1.0)
    flip_p: float = 0.5
    jitter_p: float = 0.8
    jitter_strength: float = 0.4
    gray_p: float = 0.2

    def __post_init__(self):
        lo, hi = self.crop_scale
        if not 0.0 < lo <= hi <= 1.0:
            raise AugmentationError(f"bad crop scale range {self.crop_scale}")
        for p in (self.flip_p, self.jitter_p, self.gray_p):
            if not 0.0 <= p <= 1.0:
                raise AugmentationError(f"probability {p} out of [0, 1]")


#: Pool with every op disabled; base_augment becomes the identity.
IDENTITY_POOL = AugmentPool(crop_scale=(1.0, 1.0), flip_p=0.0, jitter_p=0.0, gray_p=0.0)

# Sub-seed slots, one per op; base_augment(image, seed) applies the ops in
# this order, each drawing from SeedSequence(list(seed) + [slot]).
OP_CROP, OP_FLIP, OP_JITTER, OP_GRAY = 0, 1, 2, 3


def op_rng(seed, slot):
    entropy = [int(s) for s in np.atleast_1d(seed)]
    return np.random.default_rng(entropy + [slot])


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
    mean = out.mean()
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


def base_augment(image, seed, pool=AugmentPool()):
    """Composition of crop, flip, color jitter, grayscale with derived seeds.

    ``seed`` is an int or a list of ints; op k draws from the substream
    SeedSequence(list(seed) + [k]) so a scripted replay of the individual ops
    reproduces the composition exactly. Output shape equals input shape and
    pixels stay in [0, 1].
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 3:
        raise AugmentationError(f"image must be (H, W, C), got {image.shape}")
    out = random_resized_crop(image, op_rng(seed, OP_CROP), pool.crop_scale)
    out = horizontal_flip(out, op_rng(seed, OP_FLIP), pool.flip_p)
    out = color_jitter(out, op_rng(seed, OP_JITTER), pool.jitter_p, pool.jitter_strength)
    out = random_grayscale(out, op_rng(seed, OP_GRAY), pool.gray_p)
    return out


# ----- image file output (manual inspection) --------------------------------


def write_image(path, image):
    """Write a [0, 1] image as binary PPM (3 channels) or PGM (1 channel)."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 3 or image.shape[2] not in (1, 3):
        raise IngestionError(f"cannot write image of shape {image.shape}")
    h, w, c = image.shape
    pixels = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    magic = b"P6" if c == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
