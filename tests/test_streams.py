import numpy as np
import pytest

from sharpshift.errors import AugmentationError
from sharpshift.streams import Streams, seed_rows

NEAR_2_32 = [2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32]  # high rejection rates, and no bias


def entropy_rows(rng, m, length):
    """Rows of zeros, one-word values and two-word values (>= 2**32), mixed."""
    values = rng.integers(0, 2**64, size=(m, length), dtype=np.uint64)
    kind = rng.integers(0, 3, size=values.shape)
    values[kind == 0] = 0
    values[kind == 1] >>= np.uint64(32)
    return values


def calls(rng, m):
    """A script of draws, with per-stream integer ranges, shared by both sides."""
    return [
        ("uniform", (0.2, 1.0)),
        ("integers", rng.integers(1, 40, size=m)),
        ("integers", rng.integers(1, 40, size=m)),  # the buffered high half of the draw above
        ("uniform", (0.6, 1.4, 3)),
        ("integers", rng.integers(1, 3, size=m)),  # high 1 consumes nothing
        ("random", ()),  # a 64-bit draw between two halves of one buffered draw
        ("integers", rng.choice(NEAR_2_32, size=m)),
        ("integers", np.ones(m, dtype=int)),
        ("integers", rng.choice(NEAR_2_32, size=m)),
        ("uniform", (0.0, 0.2)),
    ]


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_streams_match_default_rng(length):
    rng = np.random.default_rng(length)
    m = 700
    entropy = entropy_rows(rng, m, length)
    script = calls(rng, m)
    streams = Streams(entropy)
    got = []
    for name, args in script:
        if name == "integers":
            got.append(streams.integers(args))
        elif name == "uniform":
            got.append(streams.uniform(*args[:2], size=args[2] if len(args) > 2 else None))
        else:
            got.append(streams.random())
    for row in range(m):
        gen = np.random.default_rng([int(v) for v in entropy[row]])
        for (name, args), batch in zip(script, got):
            if name == "integers":
                expected = gen.integers(0, args[row])
            elif name == "uniform":
                expected = gen.uniform(*args[:2], size=args[2] if len(args) > 2 else None)
            else:
                expected = gen.random()
            assert np.array_equal(batch[row], expected), (row, name)


def test_rows_continue_their_own_streams():
    entropy = np.array([[7, 1], [7, 2], [0, 2**40]], dtype=np.uint64)
    streams = Streams(entropy)
    streams.integers(10)  # leaves a buffered half behind
    tail = streams[1:]
    gens = [np.random.default_rng([int(v) for v in row]) for row in entropy[1:]]
    for gen in gens:
        gen.integers(0, 10)
    assert list(tail.integers(1000)) == [gen.integers(0, 1000) for gen in gens]
    assert list(tail.uniform(2.0, 3.0)) == [gen.uniform(2.0, 3.0) for gen in gens]


@pytest.mark.parametrize("entropy", [[[-1, 2]], [[0.5, 1.0]], [1, 2], [[2**64]]])
def test_bad_entropy_is_rejected(entropy):
    with pytest.raises(AugmentationError):
        Streams(entropy)


def test_integers_range_is_checked():
    streams = Streams([[1], [2]])
    for high in (0, 2**32 + 1):
        with pytest.raises(AugmentationError):
            streams.integers(high)


def test_seed_rows_repeats_scalar_columns():
    table = seed_rows(7, np.arange(3), 2**64 - 1)
    assert table.dtype == np.uint64
    assert table.tolist() == [[7, 0, 2**64 - 1], [7, 1, 2**64 - 1], [7, 2, 2**64 - 1]]
    assert seed_rows(1, 2).tolist() == [[1, 2]]


def test_seed_rows_keeps_large_values_beside_int64_columns():
    large = np.array([2**63, 2**64 - 1], dtype=np.uint64)
    table = seed_rows(large, np.array([0, 5], dtype=np.int64), 2**63)
    assert table.dtype == np.uint64
    assert table.tolist() == [[2**63, 0, 2**63], [2**64 - 1, 5, 2**63]]
    gens = [np.random.default_rng([int(v) for v in row]) for row in table.tolist()]
    assert list(Streams(table).integers(1000)) == [gen.integers(0, 1000) for gen in gens]


@pytest.mark.parametrize("bad", [-1, 0.5, np.array([3, -1]), np.array([0.5, 1.0]), [[1, 2]]])
def test_seed_rows_rejects_negative_non_integer_and_2d_columns(bad):
    with pytest.raises(AugmentationError):
        seed_rows(np.arange(2), bad)


@pytest.mark.parametrize("call", [lambda: seed_rows(-1), lambda: Streams([[-1]]),
                                  lambda: Streams([[1]]).integers(0)],
                         ids=["seed_rows", "streams", "integers"])
def test_a_bad_seed_table_or_range_is_an_augmentation_error(call):
    """Every stream seeded here is a view's or a beta's, so its errors are augmentation errors."""
    with pytest.raises(AugmentationError):
        call()
