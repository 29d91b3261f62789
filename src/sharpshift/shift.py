"""Monte-Carlo estimator of the positive-pair distribution-shift gap.

For each class c the ideal positive distribution produces features centered
at the class-conditional mean; the practical one produces features centered
at the per-anchor augmentation mean. The gap is the prior-weighted average
over anchors of ||class mean - augmentation mean|| raised to a configurable
exponent, optionally scaled by a temperature factor. Smaller is better: it
measures how far augmentation-based positives are from same-class sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, check_range

_TAU_FACTORS = ("none", "inverse_tau", "tau")


@dataclass(frozen=True)
class ShiftGapConfig:
    """Estimator knobs.

    The exponent (1/2 or 1) and temperature factor are configurable because
    the quantity appears in several equivalent-looking forms; the defaults
    (exponent 1/2, no temperature factor) match the form used for reporting.
    """

    n_mc_aug: int = 8
    exponent: float = 0.5
    tau_factor: str = "none"
    tau: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_range(MetricError, "n_mc_aug", self.n_mc_aug, 1)
        if self.exponent not in (0.5, 1.0):
            raise MetricError(f"exponent must be 0.5 or 1, got {self.exponent}")
        if self.tau_factor not in _TAU_FACTORS:
            raise MetricError(f"tau_factor must be one of {_TAU_FACTORS}")
        check_range(MetricError, "tau", self.tau, 0, lo_open=True)
        check_range(MetricError, "seed", self.seed, 0, 2**64)


@dataclass
class ShiftGapReport:
    per_class_gap: dict
    aggregate: float
    class_priors: dict
    n_mc_aug: int
    exponent: float
    tau_factor: str

    def to_json(self):
        payload = {
            "aggregate": self.aggregate,
            "per_class_gap": {str(k): v for k, v in sorted(self.per_class_gap.items())},
            "class_priors": {str(k): v for k, v in sorted(self.class_priors.items())},
            "n_mc_aug": self.n_mc_aug,
            "exponent": self.exponent,
            "tau_factor": self.tau_factor,
        }
        return json.dumps(payload, sort_keys=True)


def _factor(config):
    if config.tau_factor == "inverse_tau":
        return 1.0 / config.tau
    if config.tau_factor == "tau":
        return config.tau
    return 1.0


def estimate_shift_gap(feature_fn, labeled_data, augment_fn, config):
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
    grouping without changing the result.
    """
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

    rngs = [np.random.default_rng([int(config.seed), i]) for i in range(len(items))]
    draws = augment_fn(items, rngs, config.n_mc_aug)
    terms = np.empty(len(items))
    for i, (label, copies) in enumerate(zip(labels, draws, strict=True)):
        aug_mean = np.asarray(feature_fn(copies), dtype=float).mean(axis=0)
        gap = float(np.linalg.norm(class_means[int(label)] - aug_mean))
        terms[i] = gap**config.exponent

    factor = _factor(config)
    per_class_gap = {}
    class_priors = {}
    aggregate = 0.0
    n = len(items)
    for c in classes:
        mask = labels == c
        per_class_gap[c] = factor * float(terms[mask].mean())
        class_priors[c] = float(mask.sum()) / n
        aggregate += class_priors[c] * per_class_gap[c]
    return ShiftGapReport(
        per_class_gap=per_class_gap,
        aggregate=float(aggregate),
        class_priors=class_priors,
        n_mc_aug=config.n_mc_aug,
        exponent=config.exponent,
        tau_factor=config.tau_factor,
    )
