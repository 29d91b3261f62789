import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpshift import bounds
from sharpshift.bounds import (
    DiscreteWorld,
    PacPenaltyInputs,
    exact_info_nce_expectation,
    lab_suite,
    make_random_world,
    pac_penalty,
    sup_loss_mean_classifier,
    surrogate_unsup_loss,
    verify_mean_classifier_step,
)
from sharpshift.errors import SIZE_CAP, LabError

from oracles import (
    enumerate_info_nce,
    enumerate_sup_loss,
    enumerate_surrogate_loss,
    k_trend_rows_one_by_one,
    pac_penalty_direct,
)


def constant_world(m=2, n=3):
    return DiscreteWorld(
        priors=np.full(m, 1.0 / m),
        conditionals=np.full((m, n), 1.0 / n),
        features=np.tile(np.array([1.0, 0.0, 0.0]), (n, 1)),
    )


def orthogonal_world():
    # 2 classes, 4 points; each class concentrated on its own feature axis
    features = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
    ])
    conditionals = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
    ])
    return DiscreteWorld(
        priors=np.array([0.4, 0.6]), conditionals=conditionals, features=features
    )


def antipodal_world():
    return DiscreteWorld(
        priors=np.array([0.5, 0.5]),
        conditionals=np.full((2, 2), 0.5),
        features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
    )


# ----- world validation -------------------------------------------------------


def test_world_validation():
    with pytest.raises(LabError):
        DiscreteWorld(np.array([0.5, 0.6]), np.full((2, 2), 0.5), np.eye(2))
    with pytest.raises(LabError):
        DiscreteWorld(np.array([0.5, 0.5]), np.array([[0.9, 0.2], [0.5, 0.5]]), np.eye(2))
    with pytest.raises(LabError):
        DiscreteWorld(np.array([0.5, 0.5]), np.full((2, 2), 0.5), 2.0 * np.eye(2))
    # NaN fails every check it reaches
    with pytest.raises(LabError):
        DiscreteWorld(np.array([np.nan, 0.5]), np.full((2, 2), 0.5), np.eye(2))
    with pytest.raises(LabError):
        DiscreteWorld(np.array([0.5, 0.5]), np.array([[np.nan, 0.5], [0.5, 0.5]]), np.eye(2))
    with pytest.raises(LabError):
        DiscreteWorld(np.array([0.5, 0.5]), np.full((2, 2), 0.5), np.array([[np.nan, 0.0],
                                                                            [0.0, 1.0]]))


def test_world_is_immutable():
    world = constant_world()
    with pytest.raises(ValueError):
        world.features[0, 0] = 0.5


def test_p_data_and_p_pos_are_distributions():
    rng = np.random.default_rng(0)
    world = make_random_world(rng, n_points=5, n_classes=3, dim=4)
    assert world.p_data.sum() == pytest.approx(1.0, abs=1e-12)
    assert world.p_pos.sum() == pytest.approx(1.0, abs=1e-12)


# ----- mean-classifier supervised loss ------------------------------------------


def test_constant_features_give_log_m():
    for m in (2, 3):
        world = constant_world(m=m)
        assert sup_loss_mean_classifier(world, 1.0) == pytest.approx(np.log(m), abs=1e-12)


def test_single_class_is_zero():
    world = DiscreteWorld(
        priors=np.array([1.0]),
        conditionals=np.array([[0.25, 0.75]]),
        features=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    assert sup_loss_mean_classifier(world, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_world_matches_independent_enumeration():
    world = orthogonal_world()
    ours = sup_loss_mean_classifier(world, 1.0)
    oracle = enumerate_sup_loss(
        world.priors, world.conditionals, world.features, 1.0
    )
    assert ours == pytest.approx(oracle, abs=1e-12)


def test_sup_loss_matches_oracle_on_random_worlds():
    rng = np.random.default_rng(1)
    for _ in range(20):
        world = make_random_world(rng, n_points=4, n_classes=3, dim=3)
        tau = rng.uniform(0.2, 2.0)
        ours = sup_loss_mean_classifier(world, tau)
        oracle = enumerate_sup_loss(world.priors, world.conditionals, world.features, tau)
        assert ours == pytest.approx(oracle, abs=1e-10)


# ----- surrogate loss -------------------------------------------------------------


def test_constant_feature_surrogate_is_zero():
    assert surrogate_unsup_loss(constant_world(), 0.7) == pytest.approx(0.0, abs=1e-12)


def test_antipodal_world_closed_form():
    # term1 = 0 by symmetry; term2 = log cosh(1/tau)
    for tau in (0.5, 1.0, 2.0):
        ours = surrogate_unsup_loss(antipodal_world(), tau)
        assert ours == pytest.approx(np.log(np.cosh(1.0 / tau)), abs=1e-12)


def test_surrogate_lower_bound():
    rng = np.random.default_rng(2)
    for _ in range(50):
        world = make_random_world(rng, n_points=5, n_classes=2, dim=3)
        tau = rng.uniform(0.2, 2.0)
        assert surrogate_unsup_loss(world, tau) >= -2.0 / tau - 1e-12


def test_surrogate_matches_oracle_on_random_worlds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        world = make_random_world(rng, n_points=4, n_classes=2, dim=3)
        tau = rng.uniform(0.2, 2.0)
        ours = surrogate_unsup_loss(world, tau)
        oracle = enumerate_surrogate_loss(
            world.priors, world.conditionals, world.features, tau
        )
        assert ours == pytest.approx(oracle, abs=1e-10)


# ----- exact K-negative expectation -----------------------------------------------


def test_constant_world_expectation_is_log_one_plus_beta():
    world = constant_world()
    for beta, k in ((1.0, 1), (3.0, 2), (0.5, 4)):
        res = exact_info_nce_expectation(world, 1.0, beta, k)
        assert res.value == pytest.approx(np.log1p(beta), abs=1e-12)


def _zero_mass_world(world):
    # the last point has probability 0 under every class, so p_data is 0 there
    conditionals = world.conditionals.copy()
    conditionals[:, -1] = 0.0
    conditionals /= conditionals.sum(axis=1, keepdims=True)
    return DiscreteWorld(world.priors, conditionals, world.features)


def test_multiset_enumeration_matches_ordered_product_oracle(monkeypatch):
    rng = np.random.default_rng(4)
    cases = []
    for _ in range(5):
        world = make_random_world(rng, n_points=3, n_classes=2, dim=3)
        tau, beta, k = rng.uniform(0.3, 1.5), rng.uniform(0.5, 4.0), int(rng.integers(1, 4))
        cases.append((world, tau, beta, k))
    for n, k in ((2, 4), (4, 2), (4, 3), (5, 1), (5, 4)):
        world = make_random_world(rng, n_points=n, n_classes=3, dim=3)
        cases.append((world, rng.uniform(0.3, 1.5), rng.uniform(0.5, 8.0), k))
    cases.append((make_random_world(rng, n_points=4, n_classes=2, dim=3), 0.5, 0.0, 3))
    for tau, beta, k in ((0.7, 2.5, 3), (0.4, 1.0, 1)):
        world = make_random_world(rng, n_points=4, n_classes=2, dim=3)
        cases.append((_zero_mass_world(world), tau, beta, k))
    assert np.any(cases[-1][0].p_data == 0.0)
    # one chunk, then chunks of a few (x, x+) pairs or of one pair each
    for chunk_rows in (bounds.EXACT_CHUNK_ROWS, 40, 1):
        monkeypatch.setattr(bounds, "EXACT_CHUNK_ROWS", chunk_rows)
        for world, tau, beta, k in cases:
            ours = exact_info_nce_expectation(world, tau, beta, k)
            oracle = enumerate_info_nce(
                world.priors, world.conditionals, world.features, tau, beta, k
            )
            assert ours.value == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 5), k=st.integers(1, 4), n_classes=st.integers(1, 3),
       tau=st.floats(0.2, 2.0), beta=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
       zero_mass=st.booleans(), world_seed=st.integers(0, 2**32 - 1))
def test_exact_expectation_matches_enumeration_property(n, k, n_classes, tau, beta, zero_mass,
                                                        world_seed):
    world = make_random_world(np.random.default_rng(world_seed), n, n_classes, dim=3)
    if zero_mass:
        world = _zero_mass_world(world)
    ours = exact_info_nce_expectation(world, tau, beta, k)
    oracle = enumerate_info_nce(world.priors, world.conditionals, world.features, tau, beta, k)
    assert ours.value == pytest.approx(oracle, rel=1e-12)


def four_point_antipodal_world():
    # each class sits on one antipodal pair, so a positive or a whole multiset of
    # negatives can be at similarity -1/tau from the anchor
    return DiscreteWorld(
        priors=np.array([0.45, 0.55]),
        conditionals=np.array([[0.6, 0.4, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]]),
        features=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
    )


@pytest.mark.parametrize("tau", [0.002, 0.001])
def test_small_tau_stays_exact(tau):
    world = four_point_antipodal_world()
    for beta, k in ((1.0, 1), (2.0, 2), (0.5, 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = exact_info_nce_expectation(world, tau, beta, k)
        oracle = enumerate_info_nce(world.priors, world.conditionals, world.features, tau,
                                    beta, k)
        assert np.isfinite(ours.value)
        assert ours.value == pytest.approx(oracle, rel=1e-12)


def test_small_tau_beta_zero_is_exactly_zero():
    # with beta = 0 every row's loss is -log(e^s+ / e^s+) = 0, however far the negatives
    world = four_point_antipodal_world()
    for k in (1, 2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = exact_info_nce_expectation(world, 0.002, 0.0, k)
        assert res.value == 0.0


def test_multiset_table_is_cached_and_read_only():
    combos, log_coef = bounds._negative_multisets(4, 3)
    again = bounds._negative_multisets(4, 3)
    assert again[0] is combos and again[1] is log_coef
    assert combos.shape == (20, 3)
    for arr in (combos, log_coef):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_k_trend_gap_shrinks():
    rng = np.random.default_rng(6)
    world = make_random_world(rng, n_points=4, n_classes=2, dim=3)
    tau = 0.5
    surrogate = surrogate_unsup_loss(world, tau)
    gaps = {}
    for k in (1, 2, 4, 8):
        res = exact_info_nce_expectation(world, tau, float(k), k)
        gaps[k] = abs(res.value - surrogate - np.log(k))
    assert gaps[8] < gaps[1]


# ----- stacks of worlds ------------------------------------------------------------


# the default budget, one K = 8 k-trend world (4^2 pairs x 165 multisets), a few
# pairs, one pair
@pytest.mark.parametrize("chunk_rows", [bounds.EXACT_CHUNK_ROWS, 2640, 40, 1])
def test_each_world_of_a_stack_gets_its_one_world_bytes(monkeypatch, chunk_rows):
    monkeypatch.setattr(bounds, "EXACT_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(10)
    # seven worlds: at the default budget a K = 8 stack of them is two blocks, 6 + 1
    worlds = [make_random_world(rng, n_points=4, n_classes=2, dim=3) for _ in range(7)]
    stack = bounds._stack(worlds)
    assert (bounds._surrogate(*stack, 0.5).tolist()
            == [surrogate_unsup_loss(world, 0.5) for world in worlds])
    for k in (1, 2, 4, 8):
        assert (bounds._exact_expectation(*stack, 0.5, float(k), k).tolist()
                == [exact_info_nce_expectation(world, 0.5, float(k), k).value
                    for world in worlds])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n_worlds", [1, 7, 300])
def test_k_trend_rows_equal_the_one_world_loop(n_worlds, seed):
    assert list(lab_suite("k-trend", n_worlds, seed)) == k_trend_rows_one_by_one(n_worlds, seed)


def test_k_trend_stays_lazy_stack_by_stack():
    rows = lab_suite("k-trend", SIZE_CAP, 3)
    first = next(rows)
    assert first == k_trend_rows_one_by_one(1, 3)[0]


def test_a_stack_mixing_zero_mass_and_full_support_worlds_matches_enumeration():
    rng = np.random.default_rng(11)
    worlds = [make_random_world(rng, n_points=4, n_classes=2, dim=3) for _ in range(4)]
    worlds[1], worlds[3] = _zero_mass_world(worlds[1]), _zero_mass_world(worlds[3])
    stack = bounds._stack(worlds)
    for tau, beta, k in ((0.5, 2.0, 3), (0.7, 1.0, 1), (0.4, 0.0, 2), (0.002, 0.5, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = bounds._exact_expectation(*stack, tau, beta, k)
        for world, value in zip(worlds, values):
            oracle = enumerate_info_nce(world.priors, world.conditionals, world.features,
                                        tau, beta, k)
            assert value == pytest.approx(oracle, rel=1e-12)


def test_lab_suite_rejects_unknown_suite():
    with pytest.raises(LabError, match="no-such-suite"):
        lab_suite("no-such-suite", 3, 0)


def test_guard_refuses_an_oversized_multiset_count():
    rng = np.random.default_rng(7)
    world = make_random_world(rng, n_points=6, n_classes=2, dim=3)
    # C(200 + 5, 5) is astronomically over the multiset guard
    with pytest.raises(LabError):
        exact_info_nce_expectation(world, 0.5, 1.0, 200)


def test_guard_bounds_the_gather_not_only_the_multiset_count():
    # n = 2 with K = 20,000 has only 20,001 multisets but an (n, M, K) gather of 8e8
    world = antipodal_world()
    with pytest.raises(LabError, match="exceeds the guard"):
        exact_info_nce_expectation(world, 0.5, 1.0, 20_000)


def test_invalid_parameters_rejected():
    world = constant_world()
    with pytest.raises(LabError):
        exact_info_nce_expectation(world, 1.0, 1.0, 0)
    for tau, beta in ((1.0, -1.0), (1.0, np.nan), (1.0, np.inf), (-1.0, 1.0), (0.0, 1.0),
                      (np.nan, 1.0), (np.inf, 1.0)):
        with pytest.raises(LabError):
            exact_info_nce_expectation(world, tau, beta, 2)


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", [surrogate_unsup_loss, sup_loss_mean_classifier,
                                   verify_mean_classifier_step])
def test_every_lab_entry_point_checks_tau(entry, tau):
    with pytest.raises(LabError, match=r"tau must lie in \(0, inf\)"):
        entry(four_point_antipodal_world(), tau)


# ----- mean-classifier inequality ---------------------------------------------------


def test_constant_feature_world_is_exactly_tight():
    check = verify_mean_classifier_step(constant_world(m=2), 1.0)
    assert check.holds
    assert abs(check.slack) < 1e-9
    assert check.lhs == pytest.approx(np.log(2), abs=1e-12)


def test_single_class_world_holds():
    world = DiscreteWorld(
        priors=np.array([1.0]),
        conditionals=np.array([[0.3, 0.7]]),
        features=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    check = verify_mean_classifier_step(world, 0.8)
    assert check.holds and check.lhs == pytest.approx(0.0, abs=1e-12)


def test_holds_on_random_worlds():
    rng = np.random.default_rng(8)
    for _ in range(50):
        world = make_random_world(
            rng,
            n_points=int(rng.integers(2, 7)),
            n_classes=int(rng.integers(2, 4)),
            dim=3,
        )
        tau = rng.uniform(0.2, 2.0)
        assert verify_mean_classifier_step(world, tau).holds


# ----- PAC penalty ---------------------------------------------------------------


def test_frozen_reference_value():
    # independently computed before the module existed
    inputs = PacPenaltyInputs(
        n_samples=100, n_params=10, delta=0.1, rho=0.05, tau=0.5,
        beta_neg=1.0, theta_norm=2.0,
    )
    assert pac_penalty(inputs) == pytest.approx(8.521455369914719, rel=1e-12)


def test_zero_theta_kills_log_term():
    a = PacPenaltyInputs(100, 10, 0.1, 0.05, 0.5, 1.0, 0.0)
    manual = (
        (0.5 + np.log(10.0) + 6.0 * np.log(110.0)) / 10.0
        + (2.0 / 0.5 + np.log(2.0)) ** 2 / 80.0
        + 2.0 * (2.0 / 0.5 + np.log(2.0)) / 10.0
    )
    assert pac_penalty(a) == pytest.approx(manual, rel=1e-12)


def test_matches_direct_formula_on_random_inputs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        inputs = PacPenaltyInputs(
            n_samples=int(rng.integers(2, 100_000)),
            n_params=int(rng.integers(1, 1_000_000)),
            delta=float(rng.uniform(0.001, 0.999)),
            rho=float(rng.uniform(0.01, 5.0)),
            tau=float(rng.uniform(0.05, 3.0)),
            beta_neg=float(rng.uniform(0.0, 10.0)),
            theta_norm=float(rng.uniform(0.0, 100.0)),
        )
        direct = pac_penalty_direct(
            inputs.n_samples, inputs.n_params, inputs.delta, inputs.rho,
            inputs.tau, inputs.beta_neg, inputs.theta_norm,
        )
        assert abs(pac_penalty(inputs) - direct) / direct < 1e-10


def test_monotonicities():
    base = dict(n_samples=500, n_params=50, delta=0.1, rho=0.1, tau=0.5,
                beta_neg=2.0, theta_norm=3.0)
    p0 = pac_penalty(PacPenaltyInputs(**base))
    assert pac_penalty(PacPenaltyInputs(**{**base, "theta_norm": 6.0})) > p0
    assert pac_penalty(PacPenaltyInputs(**{**base, "n_params": 200})) > p0
    assert pac_penalty(PacPenaltyInputs(**{**base, "delta": 0.01})) > p0
    assert pac_penalty(PacPenaltyInputs(**{**base, "delta": 0.5})) < p0


def test_input_validation():
    with pytest.raises(LabError):
        PacPenaltyInputs(0, 10, 0.1, 0.1, 0.5, 1.0, 1.0)
    with pytest.raises(LabError):
        PacPenaltyInputs(10, 10, 1.5, 0.1, 0.5, 1.0, 1.0)
    with pytest.raises(LabError):
        PacPenaltyInputs(10, 10, 0.1, 0.0, 0.5, 1.0, 1.0)
    with pytest.raises(LabError):
        PacPenaltyInputs(10, 10, 0.1, 0.1, 0.5, -1.0, 1.0)
    for field in range(3, 7):
        args = [10, 10, 0.1, 0.1, 0.5, 1.0, 1.0]
        args[field] = np.nan
        with pytest.raises(LabError):
            PacPenaltyInputs(*args)
