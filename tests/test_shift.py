import numpy as np
import pytest

from sharpshift.errors import MetricError
from sharpshift.shift import estimate_shift_gap

# A discrete setting: items are integers, the feature table plays the
# encoder, and the augmentation draws from a small enumerable set.

FEATURES = np.array([
    [1.0, 0.0],
    [0.0, 1.0],
    [-1.0, 0.0],
    [0.0, -1.0],
    [np.sqrt(0.5), np.sqrt(0.5)],
    [np.sqrt(0.5), -np.sqrt(0.5)],
])


def table_features(items):
    return FEATURES[np.asarray(items, dtype=int)]


def identity_aug(items, rngs, n):
    return ([item] * n for item in items)


def make_table_aug(moves, probs):
    """Augmentation over an enumerable set: item -> item + move (mod 6)."""

    def aug(items, rngs, n):
        return ([(int(item) + int(rng.choice(moves, p=probs))) % len(FEATURES) for _ in range(n)]
                for item, rng in zip(items, rngs))

    return aug


def exact_gap(data, moves, probs):
    """Full enumeration over the augmentation set (the MC oracle)."""
    items, labels = np.asarray(data[0]), np.asarray(data[1])
    feats = table_features(items)
    total = 0.0
    n = len(items)
    for c in np.unique(labels):
        mask = labels == c
        mean_c = feats[mask].mean(axis=0)
        inner = 0.0
        for item in items[mask]:
            aug_mean = sum(
                p * FEATURES[(int(item) + int(m)) % len(FEATURES)]
                for m, p in zip(moves, probs)
            )
            inner += np.linalg.norm(mean_c - aug_mean) ** 0.5
        total += (mask.sum() / n) * (inner / mask.sum())
    return total


def test_identity_augmentation_one_item_per_class_is_zero():
    data = ([0, 1, 2], [0, 1, 2])
    report = estimate_shift_gap(table_features, data, identity_aug, n_mc_aug=4, seed=0)
    assert report.aggregate == pytest.approx(0.0, abs=1e-12)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in report.per_class_gap.values())


def test_gaps_are_nonnegative_and_bounded():
    rng = np.random.default_rng(0)
    data = [(int(rng.integers(0, 6)), int(rng.integers(0, 2))) for _ in range(12)]
    # ensure both classes appear
    data[0] = (0, 0)
    data[1] = (1, 1)
    data = tuple(np.array(column) for column in zip(*data))  # (items, labels)
    aug = make_table_aug([0, 1, 2], [0.5, 0.3, 0.2])
    report = estimate_shift_gap(table_features, data, aug, n_mc_aug=6, seed=1)
    assert report.aggregate >= 0.0
    for gap in report.per_class_gap.values():
        # unit features make the inner norm at most 2, so sqrt caps at sqrt(2)
        assert 0.0 <= gap <= np.sqrt(2.0) + 1e-12


def test_aggregate_is_prior_weighted_sum():
    data = ([0, 1, 4, 2, 3], [0, 0, 0, 1, 1])
    aug = make_table_aug([0, 1], [0.7, 0.3])
    report = estimate_shift_gap(table_features, data, aug, n_mc_aug=5, seed=2)
    recomputed = sum(
        report.class_priors[c] * report.per_class_gap[c] for c in report.per_class_gap
    )
    assert report.aggregate == pytest.approx(recomputed, abs=1e-10)


def test_seed_determinism():
    data = ([0, 1, 2, 3], [0, 0, 1, 1])
    aug = make_table_aug([0, 1, 3], [0.2, 0.5, 0.3])
    a = estimate_shift_gap(table_features, data, aug, n_mc_aug=7, seed=33)
    b = estimate_shift_gap(table_features, data, aug, n_mc_aug=7, seed=33)
    assert a.aggregate == b.aggregate
    assert a.per_class_gap == b.per_class_gap


def test_monte_carlo_matches_exact_enumeration():
    data = ([0, 1, 2, 3, 4, 5], [0, 0, 1, 1, 0, 1])
    moves, probs = [0, 1, 2], [0.5, 0.25, 0.25]
    aug = make_table_aug(moves, probs)
    exact = exact_gap(data, moves, probs)
    estimates = [
        estimate_shift_gap(table_features, data, aug, n_mc_aug=64, seed=seed).aggregate
        for seed in range(20)
    ]
    mean = np.mean(estimates)
    stderr = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
    assert abs(mean - exact) <= 3.0 * max(stderr, 1e-6)


def test_more_mc_samples_reduce_variance():
    data = ([0, 1, 2, 3], [0, 0, 1, 1])
    aug = make_table_aug([0, 1, 2, 3], [0.25, 0.25, 0.25, 0.25])

    def spread(n_mc):
        vals = [
            estimate_shift_gap(table_features, data, aug, n_mc_aug=n_mc, seed=s).aggregate
            for s in range(20)
        ]
        return np.var(vals)

    assert spread(32) < spread(4)


def test_each_anchor_is_featurized_before_the_next_is_pulled():
    """The draws are consumed lazily: only one anchor's draws are alive at a time."""
    data = ([0, 1, 2, 3], [0, 0, 1, 1])
    pulled, seen = [], []

    def counting_aug(items, rngs, n):
        for item, rng in zip(items, rngs):
            pulled.append(item)
            yield [(int(item) + int(rng.integers(2))) % len(FEATURES) for _ in range(n)]

    def counting_features(items):
        seen.append(len(pulled))
        return table_features(items)

    estimate_shift_gap(counting_features, data, counting_aug, n_mc_aug=3)
    # the class means come first, then each anchor's draws right after they are pulled
    assert seen == [0, 1, 2, 3, 4]
    assert pulled == data[0]


def test_report_serializes_to_json():
    data = ([0, 1], [0, 1])
    report = estimate_shift_gap(table_features, data, identity_aug, n_mc_aug=2)
    import json

    payload = json.loads(report.to_json())
    assert payload["aggregate"] == report.aggregate
    assert set(payload["per_class_gap"]) == {"0", "1"}


def test_config_validation():
    """Each bad count or seed is refused before any feature or draw."""
    calls = []

    def counting_features(items):
        calls.append(items)
        return table_features(items)

    cases = [({"n_mc_aug": 0}, r"n_mc_aug must lie in \[1, inf\), got 0"),
             ({"n_mc_aug": 2.5}, "n_mc_aug must be an integer, got 2.5"),
             ({"n_mc_aug": True}, "n_mc_aug must be an integer, got True"),
             ({"seed": -1}, r"seed must lie in \[0, 18446744073709551616\), got -1"),
             ({"seed": 2**64}, "seed must lie in"),
             ({"seed": np.nan}, "seed must lie in")]
    for kwargs, message in cases:
        with pytest.raises(MetricError, match=message):
            estimate_shift_gap(counting_features, ([0, 1], [0, 1]), identity_aug, **kwargs)
    assert calls == []


def test_items_and_labels_of_different_lengths_raise():
    with pytest.raises(MetricError, match="3 items vs 2 labels"):
        estimate_shift_gap(table_features, ([0, 1, 2], [0, 1]), identity_aug)
