import tracemalloc

import numpy as np
import pytest

from sharpshift.errors import AugmentationError
from sharpshift.fourier import (
    AugmentConfig,
    amplitude_phase,
    dft2,
    draw_betas,
    fft_augment_batch,
    mix_amplitude,
    mix_batch,
    most_similar_index,
    reconstruct,
)

from oracles import draw_betas_one_by_one, naive_dft2, naive_idft2


def random_image(rng, h=4, w=4, c=1):
    return rng.uniform(size=(h, w, c))


def unit_rows(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ----- dft2 -----------------------------------------------------------------


def test_dft_constant_image_is_dc_only():
    spectrum = dft2(np.full((4, 4), 0.3))
    assert spectrum[0, 0] == pytest.approx(16 * 0.3)
    rest = spectrum.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_dft_impulse_has_flat_spectrum():
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    assert np.max(np.abs(dft2(x) - 1.0)) < 1e-12


def test_dft_matches_naive_double_sum():
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.uniform(size=(4, 4))
        assert np.max(np.abs(dft2(x) - naive_dft2(x))) < 1e-10


def test_dft_rejects_non_2d():
    with pytest.raises(AugmentationError):
        dft2(np.zeros(4))


def test_dft_linearity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4))
        a, b = rng.uniform(-2, 2, size=2)
        lhs = dft2(a * x + b * y)
        rhs = a * dft2(x) + b * dft2(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_parseval_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(size=(8, 8))
        amp, _ = amplitude_phase(dft2(x))
        lhs = np.sum(x**2)
        rhs = np.sum(amp**2) / x.size
        assert abs(lhs - rhs) / lhs < 1e-8


# ----- amplitude / phase ------------------------------------------------------


def test_amplitude_phase_three_four_five():
    amp, phase = amplitude_phase(np.array([[3.0 + 4.0j]]))
    assert amp[0, 0] == pytest.approx(5.0)
    assert phase[0, 0] == pytest.approx(np.arctan2(4.0, 3.0))


def test_positive_real_entry_has_zero_phase():
    amp, phase = amplitude_phase(np.array([[2.5 + 0.0j]]))
    assert amp[0, 0] == pytest.approx(2.5)
    assert phase[0, 0] == 0.0


def test_zero_amplitude_phase_defined_as_zero():
    amp, phase = amplitude_phase(np.array([[0.0 + 0.0j], [-0.0 + 0.0j]]))
    assert np.all(amp == 0.0)
    assert np.all(phase == 0.0)


def test_amplitude_phase_reconstructs_spectrum():
    rng = np.random.default_rng(5)
    spec = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    amp, phase = amplitude_phase(spec)
    assert np.max(np.abs(amp * np.exp(1j * phase) - spec)) < 1e-12


# ----- mixing -----------------------------------------------------------------


def test_mix_beta_zero_and_one_are_endpoints():
    rng = np.random.default_rng(6)
    a, b = rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4))
    assert np.array_equal(mix_amplitude(a, b, 0.0), a)
    assert np.array_equal(mix_amplitude(a, b, 1.0), b)


def test_mix_midpoint():
    a = np.full((2, 2), 2.0)
    b = np.full((2, 2), 4.0)
    assert np.all(mix_amplitude(a, b, 0.5) == 3.0)


def test_mix_shape_mismatch_raises():
    with pytest.raises(AugmentationError):
        mix_amplitude(np.zeros((2, 2)), np.zeros((3, 3)), 0.5)
    views = np.zeros((2, 3, 3, 1))
    for partners, betas in (([1], [0.5, 0.5]), ([1, 0], [0.5]), ([1, 2], [0.5, 0.5]),
                            ([1, -1], [0.5, 0.5]), ([1.0, 0.0], [0.5, 0.5]),
                            ([1, 0], [0.5, 1.5]), ([1, 0], [np.nan, 0.5])):
        with pytest.raises(AugmentationError):
            mix_batch(views, partners, betas)


# ----- reconstruct -------------------------------------------------------------


def test_roundtrip_identity_pipeline():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(size=(5, 7))
        amp, phase = amplitude_phase(dft2(x))
        mixed = mix_amplitude(amp, amp, 0.0)
        assert np.max(np.abs(reconstruct(mixed, phase) - x)) < 1e-6


def test_reconstruct_matches_naive_pipeline():
    rng = np.random.default_rng(8)
    x, y = rng.uniform(size=(2, 2)), rng.uniform(size=(2, 2))
    fast_amp_x, fast_phase = amplitude_phase(dft2(x))
    fast_amp_y, _ = amplitude_phase(dft2(y))
    fast = reconstruct(mix_amplitude(fast_amp_x, fast_amp_y, 0.5), fast_phase, clip=False)

    naive_x, naive_y = naive_dft2(x), naive_dft2(y)
    mixed_amp = 0.5 * np.abs(naive_x) + 0.5 * np.abs(naive_y)
    naive = naive_idft2(mixed_amp * np.exp(1j * np.angle(naive_x))).real
    assert np.max(np.abs(fast - naive)) < 1e-8


def test_phase_preserved_where_amplitude_positive():
    rng = np.random.default_rng(9)
    x, y = rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4))
    amp_x, phase = amplitude_phase(dft2(x))
    amp_y, _ = amplitude_phase(dft2(y))
    mixed = mix_amplitude(amp_x, amp_y, 0.4)
    rebuilt = reconstruct(mixed, phase, clip=False)
    amp2, phase2 = amplitude_phase(dft2(rebuilt))
    mask = mixed > 1e-8
    wrapped = np.angle(np.exp(1j * (phase2 - phase)))
    assert np.max(np.abs(wrapped[mask])) < 1e-6


def test_reconstruct_clips_to_pixel_range():
    amp = np.zeros((2, 2))
    amp[0, 0] = 40.0  # DC of 10.0 per pixel, far above 1
    out = reconstruct(amp, np.zeros((2, 2)))
    assert np.all(out <= 1.0) and np.all(out >= 0.0)


# ----- most_similar_index -------------------------------------------------------


def test_duplicate_vector_wins():
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert most_similar_index(feats, 0) == 1


def test_never_returns_self():
    rng = np.random.default_rng(10)
    feats = unit_rows(rng, 6, 4)
    for k in range(6):
        assert most_similar_index(feats, k) != k


def test_matches_bruteforce_argmax():
    rng = np.random.default_rng(11)
    feats = unit_rows(rng, 8, 5)
    for k in range(8):
        sims = [(feats[k] @ feats[l], -l) for l in range(8) if l != k]
        best = max(range(8 - 1), key=lambda i: sims[i])
        expected = [l for l in range(8) if l != k][best]
        assert most_similar_index(feats, k) == expected


def test_requires_two_vectors():
    with pytest.raises(AugmentationError):
        most_similar_index(np.array([[1.0, 0.0]]), 0)


def test_ties_break_toward_smallest_index():
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert most_similar_index(feats, 2) == 0
    assert most_similar_index(feats, 0) == 1


@pytest.mark.parametrize("n, d", [(9, 32), (33, 13)])
def test_duplicated_row_never_beats_its_smaller_copy(n, d):
    """A copied row pair (i, j), i < j, at every pair of positions of a unit stack.

    No other row may pick j, and the two copies pick each other. With n = 9 and
    row 8 a copy of row 2, a matrix-vector product read row 1's similarity to
    row 8 one ulp above its similarity to row 2. With d = 13 the rows start at
    different alignments.
    """
    base = unit_rows(np.random.default_rng(0), n, d)
    cases = []
    for i in range(n):
        for j in range(i + 1, n):
            feats = base.copy()
            feats[j] = feats[i]
            picks = [most_similar_index(feats, k) for k in range(n)]
            assert j not in [picks[k] for k in range(n) if k not in (i, j)], (i, j)
            assert (picks[i], picks[j]) == (j, i)
            cases.append((feats, picks))
    for feats, picks in cases:  # one call for every row picks the same partners
        assert most_similar_index(feats, np.arange(n)).tolist() == picks


def test_index_array_matches_one_row_at_a_time():
    feats = unit_rows(np.random.default_rng(18), 12, 5)
    feats[7] = feats[3]
    rows = np.array([[0, 5, 3], [7, 11, 5]])
    picks = most_similar_index(feats, rows)
    assert picks.shape == rows.shape
    assert picks.tolist() == [[most_similar_index(feats, int(k)) for k in r] for r in rows]
    assert most_similar_index(feats, np.array([], dtype=int)).shape == (0,)


def test_partner_search_for_every_row_keeps_its_picks_in_flat_memory():
    """512 rows of 128: one (512, 512, 128) product would take 256 MiB."""
    feats = unit_rows(np.random.default_rng(22), 512, 128)
    feats[400] = feats[9]
    tracemalloc.start()
    try:
        picks = most_similar_index(feats, np.arange(512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for k in range(512):
        sims = (feats[k] * feats).sum(1)
        sims[k] = -np.inf
        assert picks[k] == np.argmax(sims), k
    assert (picks[9], picks[400]) == (400, 9)


@pytest.mark.parametrize("k", [-1, 12, 1.0, True, [0, 12]])
def test_index_outside_the_rows_raises(k):
    with pytest.raises(AugmentationError, match="index must be rows"):
        most_similar_index(unit_rows(np.random.default_rng(19), 12, 5), k)


def test_one_view_batch_passes_through_at_beta_zero_and_refuses_to_mix():
    rng = np.random.default_rng(20)
    view, feat = rng.uniform(size=(1, 4, 4, 1)), unit_rows(rng, 1, 3)
    assert np.array_equal(fft_augment_batch(view, feat, AugmentConfig(alpha=0.0)), view)
    with pytest.raises(AugmentationError, match="at least 2"):
        fft_augment_batch(view, feat, AugmentConfig(alpha=0.5))


def test_default_alpha_operating_point():
    assert AugmentConfig().alpha == 0.2


def test_negative_zero_alpha_is_stored_as_zero():
    # Uniform(0, -0.0) is an error in NumPy, so the config keeps +0.0
    assert not np.signbit(AugmentConfig(alpha=-0.0).alpha)


# ----- batch augmentation --------------------------------------------------------


def test_alpha_zero_is_bit_identity():
    rng = np.random.default_rng(12)
    views = rng.uniform(size=(4, 4, 4, 3))
    feats = unit_rows(rng, 4, 6)
    out = fft_augment_batch(views, feats, AugmentConfig(alpha=0.0, rng_seed=5))
    assert np.array_equal(out, views)


def scripted_mix(views, partner_views, betas):
    """The per-channel helpers composed one view and one channel at a time."""
    expected = np.array(views, dtype=float)
    for k, beta in enumerate(betas):
        if beta == 0.0:
            continue
        for c in range(views.shape[3]):
            amp, phase = amplitude_phase(dft2(views[k, :, :, c]))
            partner_amp, _ = amplitude_phase(dft2(partner_views[k, :, :, c]))
            expected[k, :, :, c] = reconstruct(mix_amplitude(amp, partner_amp, beta), phase)
    return expected


def max_error(a, b):
    return float(np.max(np.abs(a - b)))


def test_batch_matches_scripted_composition():
    rng = np.random.default_rng(13)
    # (shape, alpha, Fortran order): C in {1, 3}, odd H != W, alpha 0 draws only zeros
    cases = [((4, 6, 6, 3), 0.7, False), ((5, 7, 5, 1), 0.3, False),
             ((6, 5, 9, 3), 1.0, True), ((3, 9, 4, 1), 0.0, True)]
    for shape, alpha, fortran in cases:
        views = rng.uniform(size=shape)
        if fortran:
            views = np.asfortranarray(views)
        feats = unit_rows(rng, shape[0], 8)
        config = AugmentConfig(alpha=alpha, rng_seed=99)
        betas = draw_betas(config.rng_seed, shape[0], config.alpha)
        partners = [most_similar_index(feats, k) for k in range(shape[0])]
        expected = scripted_mix(views, views[partners], betas)
        assert max_error(fft_augment_batch(views, feats, config), expected) <= 1e-12

    # zero betas come back untouched; views 2 and 4 are their own partners, and
    # view 1 (beta 0) is view 3's partner
    views = np.asfortranarray(rng.uniform(size=(5, 7, 5, 3)))
    partners = np.array([2, 0, 2, 1, 4])
    betas = np.array([0.3, 0.0, 1.0, 0.5, 0.0])
    out = mix_batch(views, partners, betas)
    assert max_error(out, scripted_mix(views, views[partners], betas)) <= 1e-12
    assert np.array_equal(out[[1, 4]], views[[1, 4]])


@pytest.mark.parametrize("h, w, c", [(1, 1, 1), (5, 1, 1), (1, 6, 3), (7, 5, 3), (9, 8, 3),
                                     (32, 32, 3)])
def test_half_spectrum_kernel_matches_per_channel_composition(h, w, c):
    """Odd and even sides, one-pixel sides, and the last axis halved to one bin."""
    views = np.random.default_rng(23).uniform(size=(4, h, w, c))
    partners = np.array([2, 0, 0, 1])
    betas = np.array([0.3, 1.0, 0.0, 0.6])
    out = mix_batch(views, partners, betas)
    assert max_error(out, scripted_mix(views, views[partners], betas)) <= 1e-12
    assert np.array_equal(out[2], views[2])


@pytest.mark.parametrize("level", [0.4, 1e-310])
@pytest.mark.parametrize("beta", [0.3, 1.0])
def test_constant_view_takes_its_partners_amplitude_at_zero_phase(beta, level):
    """A constant view has amplitude only at DC, so every other bin of its mix has phase 0.

    At a subnormal level the DC amplitude is subnormal too, and mixed / own overflows.
    """
    rng = np.random.default_rng(24)
    views = np.stack([np.full((8, 6, 3), level), rng.uniform(size=(8, 6, 3))])
    out = mix_batch(views, np.array([1, 0]), np.array([beta, 0.0]))
    amplitude = np.abs(np.fft.fft2(views, axes=(1, 2)))
    mixed = (1.0 - beta) * amplitude[0] + beta * amplitude[1]
    expected = np.clip(np.fft.ifft2(mixed, axes=(0, 1)).real, 0.0, 1.0)
    assert max_error(out[0], expected) <= 1e-12
    assert max_error(out, scripted_mix(views, views[[1, 0]], [beta, 0.0])) <= 1e-12
    assert np.array_equal(out[1], views[1])


def test_zero_beta_rows_pass_through_bit_identically():
    """Whether or not they are a mixed row's partner, and whatever the memory order."""
    rng = np.random.default_rng(25)
    views = rng.uniform(size=(6, 9, 7, 3))
    betas = np.array([0.0, 0.4, 0.0, 1.0, 0.0, 0.0])
    partners = np.array([3, 0, 2, 2, 1, 5])
    for batch in (views, np.asfortranarray(views), views[:, ::-1]):
        out = mix_batch(batch, partners, betas)
        assert np.array_equal(out[[0, 2, 4, 5]], batch[[0, 2, 4, 5]])
        assert not np.array_equal(out[[1, 3]], batch[[1, 3]])
        assert np.array_equal(mix_batch(batch, partners, np.zeros(6)), batch)


@pytest.mark.parametrize("rng_seed", [0, 7, 2**32 + 5, 2**63 + 11, 2**64 - 1])
def test_draw_betas_match_one_generator_per_view(rng_seed):
    config = AugmentConfig(alpha=0.3, rng_seed=rng_seed)
    for n_views in (1, 2, 64, 300):
        assert np.array_equal(draw_betas(rng_seed, n_views, config.alpha),
                              draw_betas_one_by_one(n_views, config))


def test_draw_betas_of_many_batches_are_each_batch_drawn_alone():
    seeds = np.array([0, 2**63 + 11, 7, 2**64 - 1, 2**32 + 5], dtype=np.uint64)
    counts = [3, 1, 0, 64, 2]
    expected = [draw_betas_one_by_one(n, AugmentConfig(alpha=0.4, rng_seed=int(s)))
                for s, n in zip(seeds, counts)]
    assert np.array_equal(draw_betas(seeds, counts, 0.4), np.concatenate(expected))


def test_rng_seed_must_fit_sixty_four_bits():
    for rng_seed in (-1, 2**64):
        with pytest.raises(AugmentationError):
            AugmentConfig(rng_seed=rng_seed)


def test_batch_preserves_shape_and_pixel_range():
    rng = np.random.default_rng(14)
    views = rng.uniform(size=(6, 5, 7, 1))
    feats = unit_rows(rng, 6, 4)
    out = fft_augment_batch(views, feats, AugmentConfig(alpha=1.0, rng_seed=0))
    assert out.shape == views.shape
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_batch_seed_determinism():
    rng = np.random.default_rng(15)
    views = rng.uniform(size=(4, 4, 4, 1))
    feats = unit_rows(rng, 4, 4)
    config = AugmentConfig(alpha=0.5, rng_seed=77)
    first = fft_augment_batch(views, feats, config)
    second = fft_augment_batch(views, feats, config)
    assert np.array_equal(first, second)


def test_beta_draws_respect_alpha_bound():
    betas = draw_betas(1, 64, 0.2)
    assert np.all(betas >= 0.0) and np.all(betas <= 0.2)


@pytest.mark.parametrize("seed", [-1, 2.5, 2**64, [1, -1]], ids=repr)
def test_a_bad_beta_seed_is_an_augmentation_error(seed):
    with pytest.raises(AugmentationError, match="non-negative ints"):
        draw_betas(seed, 3, 0.2)


@pytest.mark.parametrize("n_views, message", [
    (-1, r"n_views must lie in \[0, "), (2.5, "n_views must be an integer, got 2.5"),
    (True, "n_views must be an integer, got True"), ([3, -1], r"n_views must lie in \[0, "),
], ids=["minus_one", "two_and_a_half", "true", "one_of_two_negative"])
def test_a_bad_view_count_is_an_augmentation_error(n_views, message):
    with pytest.raises(AugmentationError, match=message):
        draw_betas(np.zeros(np.size(n_views), dtype=np.uint64), n_views, 0.2)


@pytest.mark.parametrize("alpha", [float("nan"), -0.1, 1.5], ids=repr)
def test_a_bad_alpha_is_an_augmentation_error(alpha):
    # the rule AugmentConfig applies, checked where draw_betas takes alpha
    with pytest.raises(AugmentationError, match=r"^alpha must lie in \[0, 1\], got "):
        draw_betas(0, 2, alpha)


def test_view_counts_that_do_not_match_the_seeds_are_an_augmentation_error():
    with pytest.raises(AugmentationError, match="^3 view counts for 2 seeds$"):
        draw_betas([1, 2], [3, 4, 5], 0.2)


def test_feature_count_mismatch_raises():
    rng = np.random.default_rng(16)
    with pytest.raises(AugmentationError):
        fft_augment_batch(
            rng.uniform(size=(4, 4, 4, 1)), unit_rows(rng, 3, 4), AugmentConfig()
        )


def test_alpha_out_of_range_raises():
    with pytest.raises(AugmentationError):
        AugmentConfig(alpha=1.5)


def test_idft_inverts_dft():
    rng = np.random.default_rng(17)
    x = rng.uniform(size=(5, 3))
    assert np.max(np.abs(reconstruct(*amplitude_phase(dft2(x)), clip=False) - x)) < 1e-12
