"""Monte-Carlo estimator of the positive-pair distribution-shift gap.

For each class c the ideal positive distribution produces features centered
at the class-conditional mean; the practical one produces features centered
at the per-anchor augmentation mean. The gap is the prior-weighted average
over anchors of ||class mean - augmentation mean||^(1/2). Smaller is better:
it measures how far augmentation-based positives are from same-class
sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, check_range


@dataclass
class ShiftGapReport:
    per_class_gap: dict
    aggregate: float
    class_priors: dict
    n_mc_aug: int

    def to_json(self):
        payload = {
            "aggregate": self.aggregate,
            "per_class_gap": {str(k): v for k, v in sorted(self.per_class_gap.items())},
            "class_priors": {str(k): v for k, v in sorted(self.class_priors.items())},
            "n_mc_aug": self.n_mc_aug,
        }
        return json.dumps(payload, sort_keys=True)


def estimate_shift_gap(feature_fn, labeled_data, augment_fn, n_mc_aug=8, seed=0):
    """Estimate the shift gap of an augmentation pool under a feature map.

    ``feature_fn`` maps a batch of items to an (n, d) array of unit features
    (bind the encoder and its parameters before calling). ``labeled_data`` is
    an (items, labels) pair of equal lengths. Class means use all same-class
    items once. Anchor i draws from its own substream
    ``default_rng([seed, i])``; ``augment_fn(items, rngs, n)`` is called once
    with every anchor's generator and returns an iterable that yields, in
    anchor order, each anchor's ``n_mc_aug`` draws from the augmentation
    distribution as a batch ``feature_fn`` takes. The iterable is consumed
    lazily, one anchor at a time: ``feature_fn`` runs on an anchor's draws
    before the next anchor's are pulled, and the augmentation mean of each
    anchor averages its own draws only. An anchor's draws depend only on its
    item and its substream, so ``augment_fn`` may make them in any order or
    grouping without changing the result. ``n_mc_aug`` is an integer of at
    least 1 and ``seed`` an integer in [0, 2^64); both are checked before any
    feature or draw.
    """
    n_mc_aug = check_range(MetricError, "n_mc_aug", n_mc_aug, 1, integer=True)
    seed = check_range(MetricError, "seed", seed, 0, 2**64, integer=True)
    items, labels = labeled_data
    labels = np.asarray(labels)
    if len(items) != len(labels):
        raise MetricError(f"{len(items)} items vs {len(labels)} labels")
    if len(items) == 0:
        raise MetricError("labeled_data is empty")
    classes = sorted(set(int(l) for l in labels))

    features = np.asarray(feature_fn(items), dtype=float)
    class_means = {
        c: features[labels == c].mean(axis=0) for c in classes
    }

    rngs = [np.random.default_rng([seed, i]) for i in range(len(items))]
    draws = augment_fn(items, rngs, n_mc_aug)
    terms = np.empty(len(items))
    for i, (label, copies) in enumerate(zip(labels, draws, strict=True)):
        aug_mean = np.asarray(feature_fn(copies), dtype=float).mean(axis=0)
        gap = float(np.linalg.norm(class_means[int(label)] - aug_mean))
        terms[i] = gap**0.5

    per_class_gap = {}
    class_priors = {}
    aggregate = 0.0
    n = len(items)
    for c in classes:
        mask = labels == c
        per_class_gap[c] = float(terms[mask].mean())
        class_priors[c] = float(mask.sum()) / n
        aggregate += class_priors[c] * per_class_gap[c]
    return ShiftGapReport(
        per_class_gap=per_class_gap,
        aggregate=float(aggregate),
        class_priors=class_priors,
        n_mc_aug=n_mc_aug,
    )
