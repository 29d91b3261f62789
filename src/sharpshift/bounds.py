"""Exact numerical checks of proof-step quantities on finite worlds.

A DiscreteWorld is a fully enumerable data model: n abstract points, M
classes with priors and class-conditional distributions over the points, and
a tabulated unit feature vector per point standing in for the encoder. On
such worlds every population expectation is a finite sum, so the
mean-classifier supervised loss, the surrogate contrastive loss, the exact
K-negative contrastive expectation and the concrete PAC-Bayes penalty can be
evaluated to machine precision and compared against each other.

The surrogate and the exact expectation each have one kernel over a stack of W
worlds of equal shape, priors (W, M), conditionals (W, M, n) and features
(W, n, d); the one-world functions are its W = 1 case. The ``k-trend`` suite
evaluates its worlds in stacks of at most ``EXACT_CHUNK_ROWS`` contrastive rows,
so a few hundred worlds take a handful of NumPy calls per stack instead of a few
dozen per world. These worlds give every pair and multiset mass, and each gets
the bytes it gets when evaluated alone.
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
# reduces it to one effective negative per (x, multiset). This guard bounds a
# world's gather entries n * M * K, which also bounds the cached (M, K) multiset
# table; n <= 10 with K <= 8 is always inside.
MAX_EXACT_ENTRIES = 2**22
# Then one contrastive row per (world, x, x+) and multiset, for the pairs with
# p_pos > 0: a (worlds * pairs * M, 1) row table. A k-trend stack holds at most
# this many rows; a table holds as many whole worlds as fit, or the whole pairs of
# one world that does not (one pair when its rows alone exceed it). A table and
# its temporaries are a few times this many floats. At 2**14 a k-trend stack is six
# worlds of n = 4 at K = 8, and a benchmark round's peak RSS moved by at most 1%
# against one world at a time; at 2**16 a train_ssa_mlp round's rose by about
# 2 MB (45.1 -> 47.1 MB).
EXACT_CHUNK_ROWS = 2**14


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
        return _p_data(self.priors, self.conditionals)

    @property
    def p_pos(self):
        """Positive-pair matrix P[x, x+] = sum_c pi_c p_c(x) p_c(x+)."""
        return _p_pos(self.priors, self.conditionals)

    @property
    def mean_features(self):
        """Class-conditional mean feature per class, the mean-classifier rows."""
        return self.conditionals @ self.features


# The helpers below take one world's arrays or a stack of them (leading axis W).
# Each stacked matmul runs the same BLAS call per world (gemv, gemm, the syrk of
# f @ f.T, or a dot) as the one-world product, so a world's values keep their
# bytes in any stack.


def _p_data(priors, conditionals):
    return (priors[..., None, :] @ conditionals)[..., 0, :]


def _p_pos(priors, conditionals):
    return np.swapaxes(conditionals, -1, -2) @ (priors[..., :, None] * conditionals)


def _sims(features, tau):
    return features @ np.swapaxes(features, -1, -2) / tau


def _stack(worlds):
    """The arrays of equal-shape worlds, stacked: priors, conditionals, features."""
    return tuple(np.stack([getattr(w, name) for w in worlds])
                 for name in ("priors", "conditionals", "features"))


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
    return float(_surrogate(*_stack([world]), tau)[0])


def _surrogate(priors, conditionals, features, tau):
    """``surrogate_unsup_loss`` of each world of a stack, (W,)."""
    check_range(LabError, "tau", tau, 0, lo_open=True)
    w_bar = conditionals @ features
    align = -np.sum(priors * np.sum(w_bar * w_bar, axis=2), axis=1) / tau
    p_data = _p_data(priors, conditionals)
    sims = _sims(features, tau)
    shift = sims.max(axis=2, keepdims=True)
    log_part = shift[:, :, 0] + np.log(np.exp(sims - shift) @ p_data[:, :, None])[:, :, 0]
    return align + (p_data[:, None, :] @ log_part[:, :, None])[:, 0, 0]


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
    return ExpectationResult(float(
        _exact_expectation(*_stack([world]), tau, beta_neg, k_negatives)[0]))


def _exact_expectation(priors, conditionals, features, tau, beta_neg, k_negatives):
    """``exact_info_nce_expectation`` of each world of a stack, (W,).

    Pairs and multisets with mass in any world of the stack are evaluated for all
    of them; where a world gives one no mass its weight is 0, so a one-world stack
    keeps exactly the pairs and multisets of that world. A world whose pairs and
    multisets are those of the stack gets the bytes it gets alone.
    """
    k_negatives = check_range(LabError, "k_negatives", k_negatives, 1, integer=True)
    check_range(LabError, "tau", tau, 0, lo_open=True)
    check_range(LabError, "beta_neg", beta_neg, 0)
    n_worlds, n = features.shape[:2]
    entries = n * math.comb(k_negatives + n - 1, n - 1) * k_negatives
    if entries > MAX_EXACT_ENTRIES:
        raise LabError(
            f"the exact gather of {entries} similarities exceeds the guard ({MAX_EXACT_ENTRIES})"
        )
    combos, log_coef = _negative_multisets(n, k_negatives)
    # log of each multiset's probability; np.take gathers C-contiguous, so the K-sum
    # runs along a contiguous axis with NumPy's pairwise summation, as on a
    # one-world (M, K) gather
    with np.errstate(divide="ignore"):  # log 0 = -inf: a p = 0 point is never drawn
        log_mass = log_coef + np.take(np.log(_p_data(priors, conditionals)), combos,
                                      axis=1).sum(axis=2)
    keep = np.any(log_mass > -np.inf, axis=0)
    combos = combos[keep]
    # 0 where a world gives a multiset no mass; np.compress keeps each world's row
    # contiguous, since BLAS sums a strided vector in another order
    weights = np.exp(np.compress(keep, log_mass, axis=1))
    sims = _sims(features, tau)
    # (beta/K) sum_k exp(s_k) = beta exp(s_eff): the negatives enter the loss only
    # through one effective similarity per (x, multiset), independent of x+. Each
    # multiset is shifted by its own maximum, so its sum never underflows to 0.
    # Indexed by combos.T, the gather keeps NumPy's fancy-index layout with K its
    # outermost axis in memory, so the K-max and K-sum run as K - 1 passes over
    # contiguous blocks of W n M values, the sum in order, as on a one-world gather.
    s_neg = sims[:, :, combos.T]
    top = s_neg.max(axis=2)
    s_eff = top + np.log(np.exp(s_neg - top[:, :, None]).sum(axis=2) / k_negatives)
    p_pos = _p_pos(priors, conditionals)
    xs, xps = np.nonzero(np.any(p_pos > 0.0, axis=0))
    per_pair = np.empty((n_worlds, len(xs), 1))
    # A chunk is as many whole worlds as fit, or one world's pairs in the chunks
    # it takes alone: BLAS's gemv groups a call's rows in fours, so a row's bytes
    # depend on how the pairs are chunked, and a world gets its one-world chunks.
    pairs_step = max(1, EXACT_CHUNK_ROWS // len(combos))
    worlds_step = max(1, EXACT_CHUNK_ROWS // (len(xs) * len(combos)))
    for w in range(0, n_worlds, worlds_step):
        ws = slice(w, w + worlds_step)
        for lo in range(0, len(xs), pairs_step):
            x, xp = xs[lo:lo + pairs_step], xps[lo:lo + pairs_step]
            # one row per (world, x, x+) and multiset: s_pos = sims[w, x, x+], one
            # negative s_eff[w, x, m]
            losses, _, _ = contrastive_rows(
                np.repeat(sims[ws, x, xp], len(combos), axis=1).ravel(),
                s_eff[ws, x].reshape(-1, 1), beta_neg,
            )
            # per world, the gemv of the one-world (pairs, M) @ (M,) product
            per_pair[ws, lo:lo + pairs_step] = (losses.reshape(-1, len(x), len(combos))
                                                @ weights[ws, :, None])
    # per world, the dot of the one-world (pairs,) @ (pairs,) product, on a
    # C-contiguous copy of the gather
    return (np.ascontiguousarray(p_pos[:, xs, xps])[:, None, :] @ per_pair)[:, 0, 0]


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


def _mean_classifier_rows(rng, n_worlds):
    for i in range(n_worlds):
        n_points, n_classes = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        world = make_random_world(rng, n_points, n_classes, 3)
        check = verify_mean_classifier_step(world, tau=0.5)
        yield {"world": i, "lhs": check.lhs, "rhs": check.rhs, "slack": check.slack,
               "holds": check.holds}, check.holds


def _k_trend_rows(rng, n_worlds):
    """Worlds drawn one by one and evaluated a stack at a time."""
    n_points, ks = 4, (1, 2, 4, 8)
    # these worlds give every pair and multiset mass, so each has n^2 M rows at K = 8
    world_rows = n_points**2 * math.comb(max(ks) + n_points - 1, n_points - 1)
    size = max(1, EXACT_CHUNK_ROWS // world_rows)
    for start in range(0, n_worlds, size):
        stack = _stack([make_random_world(rng, n_points=n_points, n_classes=2, dim=3)
                        for _ in range(min(size, n_worlds - start))])
        surrogate = _surrogate(*stack, 0.5)
        exact = {k: _exact_expectation(*stack, 0.5, float(k), k) for k in ks}
        for j, value in enumerate(surrogate):
            gaps = {str(k): float(abs(exact[k][j] - value - np.log(k))) for k in ks}
            shrinks = bool(gaps["8"] < gaps["1"])
            yield {"world": start + j, "gap_by_k": gaps, "shrinks": shrinks}, shrinks


def _pac_penalty_rows(rng, n_worlds):
    for i in range(n_worlds):
        inputs = PacPenaltyInputs(
            n_samples=int(rng.integers(10, 10_000)),
            n_params=int(rng.integers(2, 100_000)),
            delta=float(rng.uniform(0.01, 0.5)),
            rho=float(rng.uniform(0.01, 2.0)),
            tau=float(rng.uniform(0.1, 2.0)),
            beta_neg=float(rng.uniform(0.0, 8.0)),
            theta_norm=float(rng.uniform(0.0, 50.0)),
        )
        yield {"case": i, "n_samples": inputs.n_samples, "n_params": inputs.n_params,
               "penalty": pac_penalty(inputs)}, True


def lab_suite(suite, n_worlds, seed):
    """Lazy ``(row, holds)`` pairs of one bound-lab suite, drawn from one seeded stream.

    ``mean-classifier`` checks the mean-classifier step, ``k-trend`` that the exact
    K-negative loss nears surrogate + log K as K grows, ``pac-penalty`` evaluates the
    penalty (it always holds).
    """
    suites = {"mean-classifier": _mean_classifier_rows, "k-trend": _k_trend_rows,
              "pac-penalty": _pac_penalty_rows}
    if suite not in suites:
        raise LabError(f"unknown bound-lab suite {suite!r}; choose from {sorted(suites)}")
    check_range(LabError, "n_worlds", n_worlds, 1, SIZE_CAP, hi_open=False, integer=True)
    seed = check_range(LabError, "seed", seed, 0, 2**64, integer=True)
    return suites[suite](np.random.default_rng([seed]), n_worlds)
