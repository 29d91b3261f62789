import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpshift.data import (
    _BATCH_CHUNK_VALUES,
    OP_CROP,
    OP_FLIP,
    OP_GRAY,
    OP_JITTER,
    AugmentPool,
    _resize_crops,
    base_augment,
    base_augment_batch,
    gen_synthetic,
    load_cifar10,
    read_cifar_batch,
    write_image,
)
from sharpshift.errors import AugmentationError, IngestionError

import oracles
from oracles import (
    IDENTITY_POOL,
    bilinear_resize,
    color_jitter,
    horizontal_flip,
    op_rng,
    random_grayscale,
    random_resized_crop,
)

RECORD = 3073


def write_records(path, labels, pixel_fill=None, rng=None):
    """Test-side record writer (the loader's round-trip oracle)."""
    blob = bytearray()
    images = []
    for i, label in enumerate(labels):
        blob.append(label)
        if pixel_fill is not None:
            pixels = np.full(3072, pixel_fill, dtype=np.uint8)
        else:
            pixels = rng.integers(0, 256, size=3072, dtype=np.uint16).astype(np.uint8)
        blob.extend(pixels.tobytes())
        images.append(pixels.reshape(3, 32, 32).transpose(1, 2, 0))
    path.write_bytes(bytes(blob))
    return np.array(images)


# ----- cifar loader -------------------------------------------------------------


def test_two_record_file(tmp_path):
    write_records(tmp_path / "data_batch_1.bin", [3, 7], pixel_fill=128)
    images, labels = load_cifar10(tmp_path)
    assert images.shape == (2, 32, 32, 3)
    assert list(labels) == [3, 7]
    assert np.allclose(images, 128 / 255.0)


def test_label_out_of_range_rejected(tmp_path):
    write_records(tmp_path / "data_batch_1.bin", [2, 255], pixel_fill=0)
    with pytest.raises(IngestionError) as err:
        load_cifar10(tmp_path)
    assert err.value.byte_offset == RECORD


def test_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "data_batch_1.bin"
    write_records(path, [1, 2], pixel_fill=0)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(IngestionError) as err:
        load_cifar10(path.parent)
    assert err.value.byte_offset == RECORD


def test_round_trip_against_writer_oracle(tmp_path):
    rng = np.random.default_rng(0)
    expected = write_records(tmp_path / "data_batch_1.bin", [0, 5, 9], rng=rng)
    images, labels = load_cifar10(tmp_path)
    assert list(labels) == [0, 5, 9]
    assert np.array_equal(np.round(images * 255).astype(np.uint8), expected)


def test_images_are_c_contiguous_and_keep_their_values(tmp_path):
    """The planar records come back in C order, so a batch gathered by index is C order too."""
    rng = np.random.default_rng(3)
    expected = write_records(tmp_path / "data_batch_1.bin", [4, 0, 8, 1], rng=rng)
    images, labels = read_cifar_batch(tmp_path / "data_batch_1.bin")
    assert images.flags.c_contiguous and images[[3, 0, 2]].flags.c_contiguous
    assert images.dtype == float and list(labels) == [4, 0, 8, 1]
    assert images.tobytes() == (expected / 255.0).tobytes()
    assert load_cifar10(tmp_path)[0].tobytes() == images.tobytes()


def test_multiple_files_sorted_order(tmp_path):
    write_records(tmp_path / "b.bin", [1], pixel_fill=10)
    write_records(tmp_path / "a.bin", [2], pixel_fill=20)
    _, labels = load_cifar10(tmp_path)
    assert list(labels) == [2, 1]


def test_empty_directory_rejected(tmp_path):
    with pytest.raises(IngestionError):
        load_cifar10(tmp_path)


# ----- synthetic dataset ----------------------------------------------------------


def test_synthetic_determinism():
    a = gen_synthetic(5, 3, image_size=8, seed=11)
    b = gen_synthetic(5, 3, image_size=8, seed=11)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_synthetic_balanced_labels():
    _, labels = gen_synthetic(7, 4, image_size=8, seed=0)
    counts = np.bincount(labels)
    assert list(counts) == [7, 7, 7, 7]


def test_synthetic_pixels_in_range():
    images, _ = gen_synthetic(10, 2, image_size=16, seed=1)
    assert np.all(images >= 0.0) and np.all(images <= 1.0)


def test_pattern_seed_shares_classes_across_splits():
    train_images, train_labels = gen_synthetic(20, 2, image_size=8, seed=5)
    eval_images, eval_labels = gen_synthetic(20, 2, image_size=8, seed=77, pattern_seed=5)
    assert not np.array_equal(train_images, eval_images)  # fresh noise
    for c in (0, 1):
        a = train_images[train_labels == c].mean(axis=0).ravel()
        b = eval_images[eval_labels == c].mean(axis=0).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.9


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("image_size", [1, 2, 3, 4, 5, 8, 16, 32])
def test_synthetic_matches_per_image_composition(image_size, channels):
    """One pattern draw, one noise draw and one batched resize give the per-image bytes;
    at image_size 4 the patterns pass through the resize unchanged."""
    for num_classes, seed in itertools.product((2, 3, 10), (0, 7, 2**64 - 1)):
        images, labels = gen_synthetic(3, num_classes, image_size, channels, seed)
        expected, expected_labels = oracles.gen_synthetic_per_image(3, num_classes, image_size,
                                                                    channels, seed)
        assert images.tobytes() == expected.tobytes()
        assert np.array_equal(labels, expected_labels)


def test_raw_pixel_probe_beats_chance():
    images, labels = gen_synthetic(50, 2, image_size=16, seed=3)
    flat = images.reshape(len(labels), -1)
    onehot = np.zeros((len(labels), 2))
    onehot[np.arange(len(labels)), labels] = 1.0
    weights = np.zeros((2, flat.shape[1]))
    for _ in range(100):
        logits = flat @ weights.T
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        weights -= 0.5 * (probs - onehot).T @ flat / len(labels)
    accuracy = np.mean(np.argmax(flat @ weights.T, axis=1) == labels)
    assert accuracy > 0.8


# ----- base augmentation ------------------------------------------------------------


def test_identity_pool_is_identity():
    rng = np.random.default_rng(2)
    image = rng.uniform(size=(8, 8, 3))
    out = base_augment(image, seed=4, pool=IDENTITY_POOL)
    assert np.array_equal(out, image)


def test_flip_is_an_involution():
    rng = np.random.default_rng(3)
    image = rng.uniform(size=(6, 6, 1))
    flipped = image[:, ::-1, :]
    assert np.array_equal(flipped[:, ::-1, :], image)
    forced = horizontal_flip(image, np.random.default_rng(0), p=1.0)
    assert np.array_equal(forced, image[:, ::-1, :])


def test_composition_matches_scripted_replay():
    rng = np.random.default_rng(4)
    image = rng.uniform(size=(10, 10, 3))
    pool = AugmentPool()
    seed = 123
    out = base_augment(image, seed, pool)
    replay = random_resized_crop(image, op_rng(seed, OP_CROP), pool.crop_scale)
    replay = horizontal_flip(replay, op_rng(seed, OP_FLIP), pool.flip_p)
    replay = color_jitter(replay, op_rng(seed, OP_JITTER), pool.jitter_p,
                          pool.jitter_strength)
    replay = random_grayscale(replay, op_rng(seed, OP_GRAY), pool.gray_p)
    assert np.array_equal(out, replay)


def test_one_view_matches_per_image_reference():
    """The one-view call reads every seed word exactly, whatever the image's memory order."""
    rng = np.random.default_rng(11)
    planar = rng.uniform(size=(3, 9, 7)).transpose(1, 2, 0)
    seeds = [[2**63 + 5, 3], [7, 2**64 - 1, 0], [2**63], 12]
    pools = [AugmentPool(), AugmentPool(crop_scale=(1.0, 1.0), flip_p=0.0, jitter_p=1.0)]
    for image in (planar, np.ascontiguousarray(planar), planar[:, :, :1]):
        for seed in seeds:
            for pool in pools:
                assert np.array_equal(base_augment(image, seed, pool),
                                      oracles.base_augment(image, seed, pool))


def test_augment_preserves_shape_and_range():
    rng = np.random.default_rng(5)
    for seed in range(20):
        image = rng.uniform(size=(9, 12, 3))
        out = base_augment(image, seed)
        assert out.shape == image.shape
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_augment_seed_determinism():
    rng = np.random.default_rng(6)
    image = rng.uniform(size=(8, 8, 1))
    a = base_augment(image, [7, 9])
    b = base_augment(image, [7, 9])
    assert np.array_equal(a, b)


def test_grayscale_equalizes_channels():
    rng = np.random.default_rng(7)
    image = rng.uniform(size=(4, 4, 3))
    out = random_grayscale(image, np.random.default_rng(1), p=1.0)
    assert np.allclose(out[..., 0], out[..., 1])
    assert np.allclose(out[..., 1], out[..., 2])


def test_bilinear_resize_identity_when_same_size():
    rng = np.random.default_rng(8)
    image = rng.uniform(size=(5, 5, 2))
    assert np.array_equal(bilinear_resize(image, 5, 5), image)


def test_bilinear_resize_constant_preserved():
    image = np.full((4, 4, 1), 0.42)
    out = bilinear_resize(image, 9, 7)
    assert np.allclose(out, 0.42)


@pytest.mark.parametrize("channels", [1, 3])
def test_resize_crops_matches_bilinear_resize_to_other_sizes(channels):
    """Crops resized up and down to an output size that is not the input's."""
    rng = np.random.default_rng(channels)
    n, h, w = 24, 9, 7
    images = rng.uniform(size=(n, h, w, channels))
    crop_h, crop_w = rng.integers(1, h + 1, n), rng.integers(1, w + 1, n)
    top, left = rng.integers(0, h - crop_h + 1), rng.integers(0, w - crop_w + 1)
    flipped = rng.uniform(size=n) < 0.5
    for out_h, out_w in ((1, 1), (3, 2), (4, 13), (16, 20)):
        out = _resize_crops(images, top, left, crop_h, crop_w, flipped, out_h, out_w)
        assert out.shape == (n, out_h, out_w, channels)
        for i in range(n):
            crop = images[i, top[i]:top[i] + crop_h[i], left[i]:left[i] + crop_w[i]]
            expected = bilinear_resize(crop, out_h, out_w)
            assert np.array_equal(out[i], expected[:, ::-1] if flipped[i] else expected), i


def test_bad_image_rank_rejected():
    with pytest.raises(AugmentationError):
        base_augment(np.zeros((4, 4)), seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2.5, [3, -1], True], ids=repr)
def test_a_bad_view_seed_is_an_augmentation_error(seed):
    image = np.full((4, 4, 3), 0.5)
    with pytest.raises(AugmentationError, match="non-negative ints"):
        base_augment(image, seed)
    with pytest.raises(AugmentationError, match="non-negative ints"):
        base_augment_batch(image[None], [np.atleast_1d(np.array(seed, dtype=object)).tolist()])


def test_base_augment_reads_a_seed_list_of_mixed_sizes_exactly():
    """A list mixing words above 2**63 with small ones is read as ints, never as floats."""
    image = np.random.default_rng(3).uniform(size=(6, 6, 3))
    for seed in ([2**64 - 1, 5], [3, 2**63]):
        table = np.array([seed], dtype=np.uint64)
        assert np.array_equal(base_augment(image, seed),
                              base_augment_batch(image[None], table)[0])


def test_pool_validation():
    with pytest.raises(AugmentationError):
        AugmentPool(crop_scale=(0.0, 1.0))
    with pytest.raises(AugmentationError):
        AugmentPool(flip_p=1.5)


# ----- batched base augmentation ----------------------------------------------------

BATCH_POOLS = [
    AugmentPool(),
    AugmentPool(crop_scale=(1.0, 1.0)),  # full-size crops: views copy the input's pixels
    AugmentPool(flip_p=1.0, jitter_p=1.0, gray_p=1.0),
    AugmentPool(jitter_p=0.0),
    AugmentPool(crop_scale=(0.05, 1.0), jitter_strength=1.5, gray_p=0.5),
    IDENTITY_POOL,
]


def assert_batch_matches_per_image(images, seeds, pool):
    batch = base_augment_batch(images, seeds, pool)
    expected = np.stack([
        oracles.base_augment(image, [int(s) for s in np.atleast_1d(seed)], pool)
        for image, seed in zip(images, seeds)
    ])
    assert batch.shape == expected.shape
    mismatched = [i for i in range(len(images)) if not np.array_equal(batch[i], expected[i])]
    assert not mismatched, f"{len(mismatched)} of {len(images)} views differ, first {mismatched[0]}"


@pytest.mark.parametrize("shape", [(16, 16, 1), (32, 32, 3)])
@pytest.mark.parametrize("pool", BATCH_POOLS)
def test_batch_matches_stacked_base_augment(shape, pool):
    rng = np.random.default_rng(sum(shape))
    images = rng.uniform(size=(96,) + shape)
    seeds = rng.integers(0, 2**62, size=(96, 2))  # one or two words per value
    seeds[::7, 1] = 0
    seeds[::5, 0] %= 2**32
    assert_batch_matches_per_image(images, seeds, pool)


@pytest.mark.parametrize("n", [43, 85])
@pytest.mark.parametrize("pool", [AugmentPool(), BATCH_POOLS[4]])
def test_uneven_chunks_keep_every_view_on_its_own_image_and_seed(n, pool):
    """43 and 85 views of 32x32x3 split into two chunks of unequal size. The op draws are
    made once for the whole call, so each chunk must read its own views' rows of them."""
    rng = np.random.default_rng(n)
    images = rng.uniform(size=(n, 32, 32, 3))
    assert -(-images.size // _BATCH_CHUNK_VALUES) == 2 and n % 2 == 1
    seeds = rng.integers(0, 2**62, size=(n, 2))
    seeds[::3] %= 2**32  # rows of one-word values beside rows of two-word values
    seeds[1::3, 1] %= 2**32  # and rows that mix the two
    assert_batch_matches_per_image(images, seeds, pool)


def test_batch_matches_on_channel_planar_images():
    """CIFAR records are read as (C, H, W) planes; their views still sum in C order."""
    rng = np.random.default_rng(9)
    planar = rng.uniform(size=(40, 3, 32, 32)).transpose(0, 2, 3, 1)
    for pool in BATCH_POOLS[:3]:
        assert_batch_matches_per_image(planar, rng.integers(0, 2**40, size=(40, 3)), pool)


@pytest.mark.parametrize("shape", [(32, 32, 3), (9, 7, 3), (16, 16, 1)])
@pytest.mark.parametrize("pool", BATCH_POOLS)
def test_views_do_not_depend_on_memory_layout(shape, pool):
    """Equal values held C-contiguous, Fortran-ordered, channel-planar (the CIFAR reader's
    layout) or broadcast give byte-identical views."""
    rng = np.random.default_rng(sum(shape))
    images = rng.uniform(size=(96,) + shape)
    seeds = rng.integers(0, 2**62, size=(96, 2))
    expected = base_augment_batch(images, seeds, pool)
    planar = np.ascontiguousarray(images.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    for layout in (np.asfortranarray(images), planar):
        assert layout.tobytes() == images.tobytes()
        assert base_augment_batch(layout, seeds, pool).tobytes() == expected.tobytes()
    broadcast = np.broadcast_to(images[5], images.shape)
    assert (base_augment_batch(broadcast, seeds, pool).tobytes()
            == base_augment_batch(broadcast.copy(), seeds, pool).tobytes())


def test_batch_takes_int_seeds_and_empty_batches():
    rng = np.random.default_rng(10)
    images = rng.uniform(size=(5, 6, 7, 3))
    assert_batch_matches_per_image(images, [0, 1, 2**33, 7, 2**62], AugmentPool())
    assert base_augment_batch(images[:0], [], AugmentPool()).shape == (0, 6, 7, 3)
    with pytest.raises(AugmentationError):
        base_augment_batch(images[0], [1], AugmentPool())


@pytest.mark.parametrize("seeds, message", [
    ([1, 2, 3], "3 seed values do not split evenly over 2 images"),
    ([[1, 2, 3]], "3 seed values do not split evenly over 2 images"),
    (np.arange(9).reshape(3, 3), "9 seed values do not split evenly over 2 images"),
    ([[1, 2], [3]], "seed rows must be of equal length"),
], ids=["three_ints", "one_row_of_three", "three_rows_of_three", "ragged_rows"])
def test_a_seed_table_that_does_not_split_over_the_images_is_an_augmentation_error(seeds,
                                                                                   message):
    images = np.random.default_rng(11).uniform(size=(2, 4, 4, 1))
    with pytest.raises(AugmentationError, match=message):
        base_augment_batch(images, seeds, AugmentPool())


@pytest.mark.parametrize("pool", BATCH_POOLS)
def test_batch_never_writes_its_input(pool):
    """Contiguous, read-only and broadcast inputs keep their bytes and match the oracle."""
    rng = np.random.default_rng(12)
    images = rng.uniform(size=(48, 32, 32, 3))  # two chunks
    seeds = rng.integers(0, 2**62, size=(48, 2))
    before = images.tobytes()
    out = base_augment_batch(images, seeds, pool)
    assert images.tobytes() == before and not np.shares_memory(out, images)
    assert_batch_matches_per_image(images, seeds, pool)
    readonly = images.copy()
    readonly.setflags(write=False)
    assert np.array_equal(base_augment_batch(readonly, seeds, pool), out)
    # the shift gap's base draws: one image broadcast to every row
    assert_batch_matches_per_image(np.broadcast_to(images[5], images.shape), seeds, pool)
    assert images.tobytes() == before


@st.composite
def pools(draw):
    lo = draw(st.floats(0.01, 1.0))
    hi = draw(st.floats(lo, 1.0))
    prob = st.sampled_from([0.0, draw(st.floats(0.0, 1.0)), 1.0])
    return AugmentPool(crop_scale=(lo, hi), flip_p=draw(prob), jitter_p=draw(prob),
                       jitter_strength=draw(st.floats(0.0, 1.5)), gray_p=draw(prob))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pool=pools(), h=st.integers(2, 20), w=st.integers(2, 20), c=st.sampled_from([1, 3]),
       n=st.integers(1, 40), seed_len=st.integers(1, 4), data_seed=st.integers(0, 2**32 - 1))
def test_batch_equals_per_image_property(pool, h, w, c, n, seed_len, data_seed):
    rng = np.random.default_rng(data_seed)
    seeds = rng.integers(0, 2**64, size=(n, seed_len), dtype=np.uint64) >> rng.choice(
        np.array([0, 32, 63], dtype=np.uint64), size=(n, seed_len))
    assert_batch_matches_per_image(rng.uniform(size=(n, h, w, c)), seeds, pool)


# ----- image writer -------------------------------------------------------------------


def test_write_image_ppm_and_pgm(tmp_path):
    rgb = np.zeros((2, 3, 3))
    rgb[0, 0] = [1.0, 0.0, 0.5]
    path = tmp_path / "x.ppm"
    write_image(path, rgb)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert blob[11:14] == bytes([255, 0, 128])

    gray = np.full((2, 2, 1), 0.5)
    path2 = tmp_path / "x.pgm"
    write_image(path2, gray)
    assert path2.read_bytes().startswith(b"P5\n2 2\n255\n")


def test_write_image_into_a_missing_directory_is_an_ingestion_error(tmp_path):
    path = tmp_path / "missing" / "x.ppm"
    with pytest.raises(IngestionError, match=f"^{path}: No such file or directory$"):
        write_image(path, np.zeros((2, 2, 3)))
    assert not path.parent.exists()
