"""Dataset ingestion, synthetic data, and the base augmentation pool."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import AugmentationError, IngestionError, check_range, os_errors
from .streams import Streams, seed_rows

RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes (R, G, B planes)
CIFAR_CLASSES = 10
CIFAR_TEST_BATCH = "test_batch.bin"  # the held-out side; every other .bin trains


def load_cifar10(directory):
    """Read the training batches: every ``*.bin`` file but ``test_batch.bin``.

    Files are read in name order and records keep their file order; see
    ``read_cifar_batch`` for the record layout. A directory whose batches hold
    no record fails loudly.
    """
    with os_errors(IngestionError, directory):
        names = os.listdir(directory)
    paths = sorted(
        os.path.join(directory, name)
        for name in names
        if name.endswith(".bin") and name != CIFAR_TEST_BATCH
    )
    if not paths:
        raise IngestionError(f"no .bin batch files in {directory}")
    images, labels = zip(*(read_cifar_batch(path) for path in paths))
    if not sum(map(len, labels)):
        raise IngestionError(f"{directory}: the training batches hold no records")
    return np.concatenate(images), np.concatenate(labels)


def read_cifar_batch(path):
    """One CIFAR-10 binary batch file as (images (N, 32, 32, 3), labels (N,)).

    Each record is one label byte followed by 3072 pixel bytes laid out as
    three 32x32 row-major planes. Pixels are scaled to [0, 1] and returned
    C-contiguous, so that a batch gathered from them by index is C-contiguous too and
    view generation reads it without a copy. Truncated files and out-of-range labels
    fail loudly.
    """
    with os_errors(IngestionError, path), open(path, "rb") as fh:
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
    return pixels.astype(float, order="C") / 255.0, labels.astype(int)


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
    n_per_class = check_range(IngestionError, "n_per_class", n_per_class, 1, integer=True)
    num_classes = check_range(IngestionError, "num_classes", num_classes, 2, integer=True)
    h = w = check_range(IngestionError, "image_size", image_size, 1, integer=True)
    channels = check_range(IngestionError, "channels", channels, 1, integer=True)
    seed = check_range(IngestionError, "seed", seed, 0, 2**64, integer=True)
    if pattern_seed is None:
        pattern_seed = seed
    pattern_seed = check_range(IngestionError, "pattern_seed", pattern_seed, 0, 2**64,
                               integer=True)
    coarse = np.random.default_rng([pattern_seed, 0]).standard_normal(
        (num_classes, 4, 4, channels))
    zero, four = np.zeros(num_classes, dtype=np.int64), np.full(num_classes, 4)
    base = _resize_crops(coarse, zero, zero, four, four, np.zeros(num_classes, bool), h, w)
    spread = np.maximum(np.max(np.abs(base), axis=(1, 2, 3)), 1e-12)
    base = 0.5 + 0.3 * base / spread[:, None, None, None]
    images = np.random.default_rng([seed, 1]).standard_normal(
        (num_classes, n_per_class, h, w, channels))
    images *= 0.1
    images += base[:, None]
    np.clip(images, 0.0, 1.0, out=images)
    return images.reshape(-1, h, w, channels), np.repeat(np.arange(num_classes), n_per_class)


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
        check_range(AugmentationError, "crop_scale min", lo, 0, 1, lo_open=True, hi_open=False)
        check_range(AugmentationError, "crop_scale max", hi, lo, 1, hi_open=False)
        for name in ("flip_p", "jitter_p", "gray_p"):
            check_range(AugmentationError, name, getattr(self, name), 0, 1, hi_open=False)
        check_range(AugmentationError, "jitter_strength", self.jitter_strength, 0)


# Sub-seed slots, one per op, in the order the ops apply (see _draw_ops).
OP_CROP, OP_FLIP, OP_JITTER, OP_GRAY = 0, 1, 2, 3


def _luminance(image):
    """0.299 R + 0.587 G + 0.114 B of every pixel, added left to right."""
    gray = image[..., 0] * 0.299
    gray += image[..., 1] * 0.587
    gray += image[..., 2] * 0.114
    return gray


def base_augment(image, seed, pool=AugmentPool()):
    """One view of one (H, W, C) image: ``base_augment_batch`` on a batch of one.

    ``seed`` is an int or a list of ints below 2**64, read exactly.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 3:
        raise AugmentationError(f"image must be (H, W, C), got {image.shape}")
    values = np.array(seed, dtype=object).reshape(-1).tolist()
    # one column per int, so that no array of them goes through float
    seeds = seed_rows(*values) if values else np.empty((1, 0), np.uint64)
    return base_augment_batch(image[None], seeds, pool)[0]


# Pixel values one pixel pass of base_augment_batch works on (about 42 views of
# 32x32x3); larger batches go in even chunks, which bound the temporaries of a request
# near SIZE_CAP to a few chunk-sized arrays. Op seeding is not chunked: every view's op
# parameters are drawn once per call.
_BATCH_CHUNK_VALUES = 2**17


def base_augment_batch(images, seeds, pool=AugmentPool()):
    """One base-augmented view of each image: crop, flip, color jitter, grayscale.

    ``images`` is (N, H, W, C) and ``seeds`` holds one seed per image, all of
    equal length: N ints or an (N, L) array of non-negative ints below 2**64. Rows
    of unequal length, or a table whose size does not split evenly over the N
    images, are an ``AugmentationError``.
    A view depends only on its image's values and its seed: never on the rest
    of the batch, nor on the array's memory layout (C, Fortran, channel-planar
    or broadcast). Output shape equals input shape and pixels stay in [0, 1].

    ``_draw_ops`` draws every view's op parameters in one pass over the whole
    call; the pixel passes (``_augment_chunk``) then run chunk by chunk, each
    writing its views straight into its slice of the one output array. A chunk
    not held C-contiguous (Fortran, channel-planar or broadcast) is copied to C
    order first.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 4:
        raise AugmentationError(f"images must be (N, H, W, C), got {images.shape}")
    n = len(images)
    if n == 0:
        return images.copy()
    try:
        seeds = np.asarray(seeds)
    except ValueError as exc:  # rows of unequal length
        raise AugmentationError(f"seed rows must be of equal length ({exc})") from exc
    if seeds.size % n:
        raise AugmentationError(f"{seeds.size} seed values do not split evenly over {n} images")
    ops = _draw_ops(seeds.reshape(n, -1), pool, *images.shape[1:3])
    out = np.empty(images.shape)
    chunks = -(-images.size // _BATCH_CHUNK_VALUES)
    for k in range(chunks):
        part = slice(k * n // chunks, (k + 1) * n // chunks)
        _augment_chunk(np.ascontiguousarray(images[part]), out[part], *(op[part] for op in ops))
    return out


def _draw_ops(seeds, pool, h, w):
    """Every op parameter of every view, as (top, left, crop_h, crop_w, flipped, factors,
    jittered, grayed), one row per view.

    Op k of view i draws from SeedSequence(list(seeds[i]) + [k]); all 4N substreams are
    seeded and drawn together by ``Streams``, so a call pays the seeding once.

    - crop: area a ~ U(crop_scale), crop sides round(H sqrt(a)) and round(W sqrt(a)),
      top then left uniform
    - flip: a coin, true with probability flip_p
    - jitter: a coin, true with probability jitter_p, then the brightness, contrast and
      saturation factors ~ U(max(0, 1-s), 1+s)
    - gray: a coin, true with probability gray_p
    """
    n = len(seeds)
    # op-major rows: row slot * n + i is seeds[i] followed by the slot
    streams = Streams(seed_rows(*np.tile(seeds, (4, 1)).T, np.repeat(np.arange(4), n)))
    # each op's first draw is a uniform: the crop area, then the flip, jitter and gray coins
    low, high = np.zeros(4 * n), np.ones(4 * n)
    low[:n], high[:n] = pool.crop_scale
    first = streams.uniform(low, high).reshape(4, n)
    crop, jitter = streams[OP_CROP * n:(OP_CROP + 1) * n], streams[OP_JITTER * n:(OP_JITTER + 1) * n]

    side = np.sqrt(first[OP_CROP])
    crop_h = np.maximum(1, np.rint(h * side).astype(np.int64))
    crop_w = np.maximum(1, np.rint(w * side).astype(np.int64))
    top = crop.integers(h - crop_h + 1)
    left = crop.integers(w - crop_w + 1)
    factors = jitter.uniform(max(0.0, 1.0 - pool.jitter_strength), 1.0 + pool.jitter_strength,
                             size=3)
    return (top, left, crop_h, crop_w, first[OP_FLIP] < pool.flip_p, factors,
            first[OP_JITTER] < pool.jitter_p, first[OP_GRAY] < pool.gray_p)


def _augment_chunk(images, out, top, left, crop_h, crop_w, flipped, factors, jittered, grayed):
    """The pixel passes of one chunk, in op order, written into ``out`` (images' shape).

    - crop and flip: one ``_resize_crops`` pass writes every view into ``out``, the flip
      folded into its taps; a crop smaller than the image is resized back bilinearly and
      a view cropped at full size passes through unchanged
    - jitter: brightness, contrast and saturation in place on the gathered jittered views,
      clipped to [0, 1] and scattered back; the contrast mean sums the brightened view in
      C order
    - gray: a 3-channel view becomes its luminance

    Each pixel op does one view's arithmetic on every selected view at once, and the
    luminance is subtracted and written one channel at a time, never broadcast over the
    channel axis. ``images`` must be C-contiguous and is never written.
    """
    channels = images.shape[3]
    _resize_crops(images, top, left, crop_h, crop_w, flipped, *images.shape[1:3], out=out)

    jittered = np.flatnonzero(jittered)
    if len(jittered):
        brightness, contrast, saturation = factors[jittered].T[:, :, None, None, None]
        view = out[jittered]
        view *= brightness
        mean = view.mean(axis=(1, 2, 3), keepdims=True)
        view -= mean
        view *= contrast
        view += mean
        if channels == 3:
            gray = _luminance(view)
            for c in range(3):
                plane = view[..., c]
                plane -= gray
                plane *= saturation[..., 0]
                plane += gray
        np.clip(view, 0.0, 1.0, out=view)
        out[jittered] = view

    grayed = np.flatnonzero(grayed)
    if channels == 3 and len(grayed):
        view = out[grayed]
        gray = _luminance(view)
        for c in range(3):
            view[..., c] = gray
        out[grayed] = view


def _bilinear_taps(out_size, in_sizes):
    """Source taps and weights along one axis (align_corners=False), one row per input size."""
    in_sizes = in_sizes[:, None]
    coord = (np.arange(out_size) + 0.5) * in_sizes / out_size - 0.5
    lo = np.clip(np.floor(coord).astype(int), 0, in_sizes - 1)
    hi = np.minimum(lo + 1, in_sizes - 1)
    return lo, hi, np.clip(coord - lo, 0.0, 1.0)


def _resize_crops(images, top, left, crop_h, crop_w, flipped, out_h, out_w, out=None):
    """Channel-last bilinear resample (align_corners=False) of the crop
    ``images[i, top:top+crop_h, left:left+crop_w]`` of every image i to (out_h, out_w),
    with its columns reversed where ``flipped``; written into ``out`` (a new array when
    None, else a C-contiguous (m, out_h, out_w, C) float array) and returned.

    Each crop row is blended along x once, then each output row blends two of those
    rows; every output pixel does the arithmetic of the per-image ``bilinear_resize``
    in ``tests/oracles.py``, in its order. Both blends work in place: the x-blend in the
    gathered taps, the y-blend in ``out``, which takes the upper rows and then their
    blend with the lower rows. The flip is folded into the column taps: a flipped row
    reverses its ``x0``, ``x1`` and ``wx``, so each output pixel is computed as its
    mirror in the unflipped view.
    A crop the output's size has integer taps of weight 0, so each of its pixels is
    ``x * 1.0 + y * 0.0``: for finite pixels that is ``x`` (a -0.0 comes back as
    +0.0, which compares equal), and the crop is copied exactly, reversed if flipped.
    ``images`` must be C-contiguous: the two column taps of every crop pixel are
    gathered from it with one flat ``np.take`` over pixels.
    """
    m, h, w, channels = images.shape
    if out is None:
        out = np.empty((m, out_h, out_w, channels))
    rows_per_crop = int(crop_h.max())
    y0, y1, wy = _bilinear_taps(out_h, crop_h)
    x0, x1, wx = (np.where(flipped[:, None], tap[:, ::-1], tap)
                  for tap in _bilinear_taps(out_w, crop_w))
    # crop rows 0..rows_per_crop-1, a shorter crop repeating its last row
    crop_rows = np.minimum(np.arange(rows_per_crop), crop_h[:, None] - 1)
    rows = (np.arange(m)[:, None] * h + top[:, None] + crop_rows) * w  # (m, rows)
    cols = left[:, None] + np.stack([x0, x1])  # (2, m, out_w)
    pixels = rows[None, :, :, None] + cols[:, :, None, :]  # (2, m, rows, out_w)
    taps = np.take(images.reshape(-1, channels), pixels, axis=0).reshape(
        2, m, rows_per_crop, out_w * channels)
    # weights repeated over channels, so that each product runs over whole rows
    wx, wy = np.repeat(wx, channels, axis=1)[:, None, :], wy[:, :, None]
    across, right = taps
    across *= 1 - wx
    right *= wx
    across += right
    across = across.reshape(m * rows_per_crop, out_w * channels)
    first = np.arange(m)[:, None] * rows_per_crop
    blend = out.reshape(m, out_h, out_w * channels)
    # every tap is in range; mode "clip" lets np.take write into ``out`` without a buffer
    np.take(across, first + y0, axis=0, out=blend, mode="clip")
    blend *= 1 - wy
    lower = np.take(across, first + y1, axis=0)
    lower *= wy
    blend += lower
    return out


# ----- image file output (manual inspection) --------------------------------


def write_image(path, image):
    """Write a [0, 1] image as binary PPM (3 channels) or PGM (1 channel).

    A file that cannot be written is an ``IngestionError``, "<path>: <strerror>".
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 3 or image.shape[2] not in (1, 3):
        raise IngestionError(f"cannot write image of shape {image.shape}")
    h, w, c = image.shape
    pixels = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    magic = b"P6" if c == 3 else b"P5"
    with os_errors(IngestionError, path), open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
