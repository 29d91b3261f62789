"""Frequency-domain positive-pair augmentation.

Each image channel is moved to the frequency domain with a 2-D DFT and split
into amplitude and phase. The amplitude is linearly interpolated toward the
amplitude of the most feature-similar view in the batch while the phase (which
carries the foreground structure) is kept intact; the inverse transform of the
mixed spectrum is the augmented view. All randomness comes from explicit
seeds, so the whole batch operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SIZE_CAP, AugmentationError, check_range
from .streams import Streams, seed_rows


@dataclass(frozen=True)
class AugmentConfig:
    """Settings for amplitude-mixing augmentation.

    ``alpha`` is the upper bound of the Uniform(0, alpha) draw for the mixing
    coefficient. View k of a batch draws its coefficient from the substream
    ``SeedSequence([rng_seed, k])``, which makes per-view parallelism safe.
    """

    alpha: float = 0.2
    rng_seed: int = 0

    def __post_init__(self):
        # stored normalised: Uniform(0, -0.0) is an error in NumPy
        object.__setattr__(self, "alpha", check_range(AugmentationError, "alpha", self.alpha,
                                                      0, 1, hi_open=False))
        check_range(AugmentationError, "rng_seed", self.rng_seed, 0, 2**64, integer=True)


def dft2(channel):
    """2-D DFT of a single channel.

    Contract: ``out[u, v] == sum_{h,w} x[h, w] * exp(-2j*pi*(h*u/H + w*v/W))``,
    computed with a fast transform.
    """
    channel = np.asarray(channel)
    if channel.ndim != 2:
        raise AugmentationError(f"dft2 expects an H x W channel, got shape {channel.shape}")
    return np.fft.fft2(channel)


def amplitude_phase(spectrum):
    """Split a complex spectrum into (amplitude, phase).

    Phase is the two-argument arctangent of (imag, real) in (-pi, pi]; it is
    defined as 0 wherever the amplitude vanishes (the product A*exp(iP) is 0
    there regardless).
    """
    spectrum = np.asarray(spectrum, dtype=complex)
    amplitude = np.abs(spectrum)
    phase = np.where(amplitude == 0.0, 0.0, np.angle(spectrum))
    return amplitude, phase


def mix_amplitude(a_self, a_partner, beta):
    """Linear interpolation (1 - beta) * a_self + beta * a_partner."""
    a_self = np.asarray(a_self, dtype=float)
    a_partner = np.asarray(a_partner, dtype=float)
    if a_self.shape != a_partner.shape:
        raise AugmentationError(
            f"amplitude shape mismatch: {a_self.shape} vs {a_partner.shape}"
        )
    check_range(AugmentationError, "beta", beta, 0, 1, hi_open=False)
    return (1.0 - beta) * a_self + beta * a_partner


def reconstruct(mixed_amplitude, phase, clip=True):
    """Inverse transform of A * exp(iP), imaginary residue discarded.

    The inverse of a mixed spectrum is not exactly real; the imaginary part is
    round-off scale whenever the amplitudes come from real images, so it is
    dropped. With ``clip`` the result is clamped to the [0, 1] pixel range.
    """
    mixed_amplitude = np.asarray(mixed_amplitude, dtype=float)
    phase = np.asarray(phase, dtype=float)
    if mixed_amplitude.shape != phase.shape:
        raise AugmentationError(
            f"amplitude/phase shape mismatch: {mixed_amplitude.shape} vs {phase.shape}"
        )
    pixels = np.fft.ifft2(mixed_amplitude * np.exp(1j * phase)).real
    if clip:
        pixels = np.clip(pixels, 0.0, 1.0)
    return pixels


# Values of the (rows, n, d) similarity product that most_similar_index builds at once.
_SIM_BLOCK = 2**16


def most_similar_index(features, k):
    """Index l != k maximizing features[k] . features[l], shaped like the row or row array k.

    One row-wise sum of products per similarity: equal rows tie exactly, the smaller index wins.
    The products are built ``_SIM_BLOCK`` values at a time, so memory stays flat in len(k).
    """
    features, k = np.asarray(features, dtype=float), np.asarray(k)
    n = features.shape[0]
    if n < 2:
        raise AugmentationError(f"need at least 2 feature vectors, got {n}")
    if k.dtype.kind not in "iu" or not np.all((k >= 0) & (k < n)):
        raise AugmentationError(f"index must be rows of the {n} feature vectors, got {k}")
    flat = k.reshape(-1)
    picks = np.empty(flat.size, dtype=np.intp)
    step = max(1, _SIM_BLOCK // max(1, features.size))
    for start in range(0, flat.size, step):
        block = flat[start:start + step]
        sims = (features[block, None, :] * features).sum(-1)
        sims[np.arange(block.size), block] = -np.inf
        picks[start:start + step] = sims.argmax(-1)
    return picks.reshape(k.shape) if k.ndim else int(picks[0])


def draw_betas(rng_seeds, n_views, alpha):
    """Mixing coefficients, one Uniform(0, alpha) draw per view of one or more batches.

    ``rng_seeds`` and ``n_views`` are a batch's seed and view count, or 1-D arrays
    of them; the betas of every batch come back concatenated. A view count that
    is not an integer in [0, SIZE_CAP], counts that do not match the seeds, or an
    alpha outside [0, 1] (``AugmentConfig``'s rule) are an ``AugmentationError``.
    View k of the batch seeded s uses the substream SeedSequence([s, k]); all
    streams are seeded and drawn at once, with the same values as one at a time.
    """
    alpha = check_range(AugmentationError, "alpha", alpha, 0, 1, hi_open=False)
    rng_seeds = np.atleast_1d(rng_seeds)
    n_views = np.array([check_range(AugmentationError, "n_views", count, 0, SIZE_CAP,
                                    hi_open=False, integer=True)
                        for count in np.atleast_1d(n_views).tolist()], dtype=np.int64)
    if n_views.size not in (1, rng_seeds.size):
        raise AugmentationError(f"{n_views.size} view counts for {rng_seeds.size} seeds")
    starts = np.repeat(np.cumsum(n_views) - n_views, n_views)
    view_index = np.arange(len(starts)) - starts
    return Streams(seed_rows(np.repeat(rng_seeds, n_views), view_index)).uniform(0.0, alpha)


def mix_batch(views, partners, betas):
    """Amplitude-mix every view toward another row of ``views`` at its beta, all channels at once.

    Row k agrees within 1e-12 with the per-channel composition
    ``reconstruct(mix_amplitude(A, A', betas[k]), P)`` with
    ``A, P = amplitude_phase(dft2(...))`` of a channel of ``views[k]`` and
    ``A'`` the amplitude of the same channel of ``views[partners[k]]``. One
    real forward transform covers the rows with beta != 0 and their partners,
    each row once. Each mixed row keeps its own half spectrum, scaled bin by
    bin to the mixed amplitude; a bin with no amplitude has phase 0 and
    becomes the mixed amplitude. Rows with beta == 0 come back untouched.
    """
    views = np.asarray(views, dtype=float)
    partners = np.asarray(partners)
    betas = np.asarray(betas, dtype=float)
    if views.ndim != 4 or partners.shape != views.shape[:1] or betas.shape != views.shape[:1]:
        raise AugmentationError(
            f"need (n, H, W, C) views with n partner rows and n betas: {views.shape}, "
            f"{partners.shape}, {betas.shape}"
        )
    if partners.dtype.kind not in "iu" or not np.all((partners >= 0) & (partners < len(views))):
        raise AugmentationError(f"partners must be row indices of views, got {partners}")
    if not np.all((betas >= 0.0) & (betas <= 1.0)):
        raise AugmentationError(f"betas must lie in [0, 1], got {betas}")
    out = views.copy()
    rows = np.flatnonzero(betas)
    if rows.size:
        used, slot = np.unique(np.concatenate((rows, partners[rows])), return_inverse=True)
        spectrum = np.fft.rfft2(views[used].transpose(0, 3, 1, 2))  # (used, C, H, W // 2 + 1)
        own = spectrum[slot[:rows.size]]
        amplitude = np.abs(own)
        beta = betas[rows, None, None, None]
        mixed = (1.0 - beta) * amplitude + beta * np.abs(spectrum[slot[rows.size:]])
        # the unit phasor times the mixed amplitude; dividing the parts first cannot overflow
        zero = amplitude == 0.0
        safe = np.where(zero, 1.0, amplitude)
        own.real = np.where(zero, 1.0, own.real / safe) * mixed
        own.imag = own.imag / safe * mixed
        pixels = np.fft.irfft2(own, s=views.shape[1:3])
        out[rows] = np.clip(pixels.transpose(0, 2, 3, 1), 0.0, 1.0)
    return out


def mix_with_most_similar(views, features, betas):
    """Amplitude-mix every view with beta != 0 toward its most feature-similar other view.

    ``views`` is an (n, H, W, C) stack and ``features`` holds one feature vector
    per view. One ``most_similar_index`` call pairs the rows with beta != 0 and
    one ``mix_batch`` call mixes them; views with beta == 0 come back untouched.
    """
    views, features = np.asarray(views, dtype=float), np.asarray(features, dtype=float)
    if views.ndim != 4:
        raise AugmentationError(f"views must be (n, H, W, C), got shape {views.shape}")
    if features.ndim != 2 or features.shape[0] != views.shape[0]:
        raise AugmentationError(
            f"need one feature vector per view: {features.shape} vs {views.shape[0]} views"
        )
    partners, rows = np.arange(len(views)), np.flatnonzero(betas)
    if rows.size:
        partners[rows] = most_similar_index(features, rows)
    return mix_batch(views, partners, betas)


def fft_augment_batch(views, features, config):
    """Replace every view by its amplitude-mixed counterpart.

    ``views`` is a (2b, H, W, C) stack of positive examples and ``features``
    holds one unit feature vector per view, computed by the current encoder on
    these exact views. For each view k a coefficient beta ~ Uniform(0, alpha)
    is drawn (one draw shared by all channels of the view, which keeps color
    coherence), and ``mix_with_most_similar`` mixes the amplitudes toward the
    most feature-similar other view at beta while each view keeps its own
    phase. Views with beta == 0 are passed through bit-identically, so
    alpha = 0 makes the whole op the identity.
    """
    n_views = np.shape(views)[0] if np.ndim(views) else 0  # the mix refuses a 0-d input
    return mix_with_most_similar(views, features, draw_betas(config.rng_seed, n_views,
                                                             config.alpha))
