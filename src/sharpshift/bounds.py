"""Exact numerical checks of proof-step quantities on finite worlds.

A DiscreteWorld is a fully enumerable data model: n abstract points, M
classes with priors and class-conditional distributions over the points, and
a tabulated unit feature vector per point standing in for the encoder. On
such worlds every population expectation is a finite sum, so the
mean-classifier supervised loss, the surrogate contrastive loss, the exact
K-negative contrastive expectation and the concrete PAC-Bayes penalty can be
evaluated to machine precision and compared against each other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SIZE_CAP, LabError, check_range
from .losses import contrastive_rows, cross_entropy_rows, loss_upper_bound

# The exact K-negative expectation gathers the similarities of every point x to
# every multiset of K negatives, an (n, M, K) array with M = C(K+n-1, n-1), and
# reduces it to one effective negative per (x, multiset). This guard bounds the
# gather's entries n * M * K, which also bounds the cached (M, K) multiset table;
# n <= 10 with K <= 8 is always inside.
MAX_EXACT_ENTRIES = 2**22
# Then one contrastive row per (x, x+) pair with p_pos > 0 and multiset: a
# (pairs * M, 1) row table, built in chunks of whole pairs holding at most this
# many rows (one pair per chunk when M alone exceeds it).
EXACT_CHUNK_ROWS = 2**16


@dataclass(frozen=True)
class DiscreteWorld:
    """Finite data space: priors (M,), conditionals (M, n), features (n, d)."""

    priors: np.ndarray
    conditionals: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        conditionals = np.asarray(self.conditionals, dtype=float)
        features = np.asarray(self.features, dtype=float)
        if priors.ndim != 1 or conditionals.ndim != 2 or features.ndim != 2:
            raise LabError("priors must be (M,), conditionals (M, n), features (n, d)")
        m, n = conditionals.shape
        if priors.shape != (m,) or features.shape[0] != n:
            raise LabError(
                f"inconsistent world: priors {priors.shape}, "
                f"conditionals {conditionals.shape}, features {features.shape}"
            )
        # written so that a NaN anywhere fails the check
        if not (np.all(priors > 0.0) and abs(priors.sum() - 1.0) <= 1e-12):
            raise LabError("priors must be positive and sum to 1")
        if not (np.all(conditionals >= 0.0)
                and np.max(np.abs(conditionals.sum(axis=1) - 1.0)) <= 1e-12):
            raise LabError("each conditional must be a probability vector")
        norms = np.linalg.norm(features, axis=1)
        if not np.max(np.abs(norms - 1.0)) <= 1e-10:
            raise LabError("every feature must be unit-norm within 1e-10")
        for arr in (priors, conditionals, features):
            arr.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "conditionals", conditionals)
        object.__setattr__(self, "features", features)

    @property
    def n_points(self):
        return self.features.shape[0]

    @property
    def p_data(self):
        """Marginal over points: sum_c pi_c p_c."""
        return self.priors @ self.conditionals

    @property
    def p_pos(self):
        """Positive-pair matrix P[x, x+] = sum_c pi_c p_c(x) p_c(x+)."""
        return self.conditionals.T @ (self.priors[:, None] * self.conditionals)

    @property
    def mean_features(self):
        """Class-conditional mean feature per class, the mean-classifier rows."""
        return self.conditionals @ self.features


def make_random_world(rng, n_points=4, n_classes=2, dim=3):
    """Random valid world; priors and conditionals are bounded away from 0."""
    priors = rng.uniform(0.2, 1.0, size=n_classes)
    priors = priors / priors.sum()
    conditionals = rng.uniform(0.05, 1.0, size=(n_classes, n_points))
    conditionals = conditionals / conditionals.sum(axis=1, keepdims=True)
    features = rng.standard_normal((n_points, dim))
    features = features / np.linalg.norm(features, axis=1, keepdims=True)
    return DiscreteWorld(priors=priors, conditionals=conditionals, features=features)


def sup_loss_mean_classifier(world, tau):
    """Supervised loss of the mean classifier, by full enumeration.

    The classifier row for class c is the class-conditional mean feature; the
    loss is sum_c pi_c sum_x p_c(x) * tauCE(W f(x), c).
    """
    check_range(LabError, "tau", tau, 0, lo_open=True)
    m, n = world.conditionals.shape
    logits = world.features @ world.mean_features.T  # (n, M)
    losses, _ = cross_entropy_rows(np.tile(logits, (m, 1)), np.repeat(np.arange(m), n), tau)
    return float(np.sum(world.priors[:, None] * world.conditionals * losses.reshape(m, n)))


def surrogate_unsup_loss(world, tau):
    """Population surrogate loss: alignment term plus log-partition term.

    E_{(x,x+)~p_pos}[-f(x).f(x+)/tau] + E_x[log E_{x-}[exp(f(x).f(x-)/tau)]],
    both expectations evaluated exactly.
    """
    check_range(LabError, "tau", tau, 0, lo_open=True)
    w_bar = world.mean_features
    align = -np.sum(world.priors * np.sum(w_bar * w_bar, axis=1)) / tau
    p_data = world.p_data
    sims = world.features @ world.features.T / tau
    shift = sims.max(axis=1, keepdims=True)
    log_part = shift[:, 0] + np.log(np.exp(sims - shift) @ p_data)
    return float(align + p_data @ log_part)


class ExpectationResult(NamedTuple):
    value: float


@functools.lru_cache(maxsize=16)
def _negative_multisets(n_points, k_negatives):
    """Sorted index tuples of K iid negatives (M, K), with log(K! / prod_i c_i!).

    Enumerating multisets instead of ordered tuples turns n^K terms into
    M = C(K+n-1, n-1) weighted ones; c_i counts point i in the multiset. The
    table depends on (n, K) only, so it is cached and returned read-only.
    """
    combos = np.array(list(itertools.combinations_with_replacement(range(n_points), k_negatives)))
    counts = (combos[:, :, None] == np.arange(n_points)).sum(axis=1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k_negatives + 1)))))
    log_coef = log_fact[k_negatives] - log_fact[counts].sum(axis=1)
    for arr in (combos, log_coef):
        arr.setflags(write=False)
    return combos, log_coef


def exact_info_nce_expectation(world, tau, beta_neg, k_negatives):
    """Exact expectation of the K-negative contrastive loss over the world.

    A world and K whose similarity gather exceeds ``MAX_EXACT_ENTRIES`` are refused.
    """
    k_negatives = check_range(LabError, "k_negatives", k_negatives, 1, integer=True)
    check_range(LabError, "tau", tau, 0, lo_open=True)
    check_range(LabError, "beta_neg", beta_neg, 0)
    n = world.n_points
    entries = n * math.comb(k_negatives + n - 1, n - 1) * k_negatives
    if entries > MAX_EXACT_ENTRIES:
        raise LabError(
            f"the exact gather of {entries} similarities exceeds the guard ({MAX_EXACT_ENTRIES})"
        )
    return ExpectationResult(_exact_expectation(world, tau, beta_neg, k_negatives))


def _exact_expectation(world, tau, beta_neg, k_negatives):
    p_data = world.p_data
    combos, log_coef = _negative_multisets(world.n_points, k_negatives)
    p_neg = p_data[combos]
    keep = np.all(p_neg > 0.0, axis=1)  # a p = 0 point is never drawn
    combos = combos[keep]
    weights = np.exp(log_coef[keep] + np.log(p_neg[keep]).sum(axis=1))
    sims = world.features @ world.features.T / tau
    # (beta/K) sum_k exp(s_k) = beta exp(s_eff): the negatives enter the loss only
    # through one effective similarity per (x, multiset), independent of x+. Each
    # multiset is shifted by its own maximum, so its sum never underflows to 0.
    s_neg = sims[:, combos]
    top = s_neg.max(axis=2)
    s_eff = top + np.log(np.exp(s_neg - top[:, :, None]).sum(axis=2) / k_negatives)
    p_pos = world.p_pos
    xs, xps = np.nonzero(p_pos > 0.0)
    per_pair = np.empty(len(xs))
    step = max(1, EXACT_CHUNK_ROWS // len(combos))
    for lo in range(0, len(xs), step):
        x, xp = xs[lo:lo + step], xps[lo:lo + step]
        # one row per (x, x+) pair and multiset: s_pos = sims[x, x+], one negative s_eff[x, m]
        losses, _, _ = contrastive_rows(
            np.repeat(sims[x, xp], len(combos)), s_eff[x].reshape(-1, 1), beta_neg
        )
        per_pair[lo:lo + step] = losses.reshape(len(x), -1) @ weights
    return float(p_pos[xs, xps] @ per_pair)


@dataclass(frozen=True)
class MeanClassifierCheck:
    lhs: float
    rhs: float
    slack: float
    holds: bool


def verify_mean_classifier_step(world, tau):
    """Check sup-loss(mean classifier) <= surrogate + log(1 / min_c pi_c).

    The correction term log(1 / min_c pi_c) accounts for pulling the class
    priors out of the log-sum; it is exactly tight on the constant-feature
    uniform world. The step holds within 1e-9; the raw slack is reported so
    near-violations are visible.
    """
    lhs = sup_loss_mean_classifier(world, tau)
    rhs = surrogate_unsup_loss(world, tau) + math.log(1.0 / float(np.min(world.priors)))
    slack = rhs - lhs
    return MeanClassifierCheck(lhs=lhs, rhs=rhs, slack=slack, holds=bool(lhs <= rhs + 1e-9))


@dataclass(frozen=True)
class PacPenaltyInputs:
    """Inputs to the concrete PAC-Bayes penalty evaluator."""

    n_samples: int
    n_params: int
    delta: float
    rho: float
    tau: float
    beta_neg: float
    theta_norm: float

    def __post_init__(self):
        check_range(LabError, "n_samples", self.n_samples, 1, integer=True)
        check_range(LabError, "n_params", self.n_params, 1, integer=True)
        check_range(LabError, "delta", self.delta, 0, 1, lo_open=True)
        check_range(LabError, "rho", self.rho, 0, lo_open=True)
        check_range(LabError, "tau", self.tau, 0, lo_open=True)
        check_range(LabError, "beta_neg", self.beta_neg, 0)
        check_range(LabError, "theta_norm", self.theta_norm, 0)


def pac_penalty(inputs):
    """Concrete sharpness generalization penalty.

    With sigma = rho / (sqrt(T) + sqrt(log N)) and L = 2/tau + log(1 + beta):

        (1/sqrt(N)) * [ 1/2 + (T/2) log(1 + ||theta||^2 / (T sigma^2))
                        + log(1/delta) + 6 log(N + T) ]
        + L^2 / (8 sqrt(N)) + 2 L / sqrt(N)
    """
    n, t = inputs.n_samples, inputs.n_params
    sigma = inputs.rho / (math.sqrt(t) + math.sqrt(math.log(n)))
    bound_l = loss_upper_bound(inputs.tau, inputs.beta_neg)
    log_term = 0.5 * t * math.log1p(inputs.theta_norm**2 / (t * sigma**2))
    root_n = math.sqrt(n)
    return (
        (0.5 + log_term + math.log(1.0 / inputs.delta) + 6.0 * math.log(n + t)) / root_n
        + bound_l**2 / (8.0 * root_n)
        + 2.0 * bound_l / root_n
    )


def _mean_classifier_row(rng, i):
    n_points, n_classes = int(rng.integers(2, 7)), int(rng.integers(2, 4))
    check = verify_mean_classifier_step(make_random_world(rng, n_points, n_classes, 3), tau=0.5)
    return {"world": i, "lhs": check.lhs, "rhs": check.rhs, "slack": check.slack,
            "holds": check.holds}, check.holds


def _k_trend_row(rng, i):
    world = make_random_world(rng, n_points=4, n_classes=2, dim=3)
    surrogate = surrogate_unsup_loss(world, tau=0.5)
    exact = {k: exact_info_nce_expectation(world, 0.5, float(k), k).value for k in (1, 2, 4, 8)}
    gaps = {str(k): float(abs(value - surrogate - np.log(k))) for k, value in exact.items()}
    shrinks = bool(gaps["8"] < gaps["1"])
    return {"world": i, "gap_by_k": gaps, "shrinks": shrinks}, shrinks


def _pac_penalty_row(rng, i):
    inputs = PacPenaltyInputs(
        n_samples=int(rng.integers(10, 10_000)),
        n_params=int(rng.integers(2, 100_000)),
        delta=float(rng.uniform(0.01, 0.5)),
        rho=float(rng.uniform(0.01, 2.0)),
        tau=float(rng.uniform(0.1, 2.0)),
        beta_neg=float(rng.uniform(0.0, 8.0)),
        theta_norm=float(rng.uniform(0.0, 50.0)),
    )
    return {"case": i, "n_samples": inputs.n_samples, "n_params": inputs.n_params,
            "penalty": pac_penalty(inputs)}, True


def lab_suite(suite, n_worlds, seed):
    """Lazy ``(row, holds)`` pairs of one bound-lab suite, drawn from one seeded stream.

    ``mean-classifier`` checks the mean-classifier step, ``k-trend`` that the exact
    K-negative loss nears surrogate + log K as K grows, ``pac-penalty`` evaluates the
    penalty (it always holds).
    """
    rows = {"mean-classifier": _mean_classifier_row, "k-trend": _k_trend_row,
            "pac-penalty": _pac_penalty_row}
    if suite not in rows:
        raise LabError(f"unknown bound-lab suite {suite!r}; choose from {sorted(rows)}")
    check_range(LabError, "n_worlds", n_worlds, 1, SIZE_CAP, hi_open=False, integer=True)
    seed = check_range(LabError, "seed", seed, 0, 2**64, integer=True)
    rng = np.random.default_rng([seed])
    return (rows[suite](rng, i) for i in range(n_worlds))
