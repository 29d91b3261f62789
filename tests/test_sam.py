import numpy as np
import pytest

from sharpshift.errors import OptimizerError
from sharpshift.sam import (
    DEFAULT_ADAPTIVE_RHO,
    DEFAULT_RHO,
    SamConfig,
    ascent_perturbation,
    sam_step,
    sgd_step,
)


def quadratic(theta):
    return 0.5 * float(theta @ theta), theta.copy()


class CountingLoss:
    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, params):
        self.calls.append(params.copy())
        return self.fn(params)


# ----- ascent perturbation ----------------------------------------------------


def test_three_four_example():
    delta = ascent_perturbation(np.array([3.0, 4.0]), np.zeros(2), SamConfig(rho=0.05))
    assert np.allclose(delta, [0.03, 0.04], atol=1e-15)


def test_norm_equals_rho_exactly():
    rng = np.random.default_rng(0)
    cfg = SamConfig(rho=0.37)
    for _ in range(50):
        g = rng.standard_normal(10)
        delta = ascent_perturbation(g, rng.standard_normal(10), cfg)
        assert abs(np.linalg.norm(delta) - cfg.rho) / cfg.rho < 1e-12


def test_direction_is_gradient():
    rng = np.random.default_rng(1)
    g = rng.standard_normal(8)
    delta = ascent_perturbation(g, np.zeros(8), SamConfig(rho=0.1))
    cosine = (delta @ g) / (np.linalg.norm(delta) * np.linalg.norm(g))
    assert abs(cosine - 1.0) < 1e-10


def test_recommended_default_radii():
    assert DEFAULT_RHO == 0.05
    assert DEFAULT_ADAPTIVE_RHO == 2.0
    assert SamConfig().rho == 0.05


def test_zero_gradient_guard():
    delta = ascent_perturbation(np.zeros(5), np.ones(5), SamConfig(rho=0.1))
    assert np.all(delta == 0.0)
    delta = ascent_perturbation(np.zeros(5), np.ones(5), SamConfig(rho=0.1, adaptive=True))
    assert np.all(delta == 0.0)


def test_adaptive_formula():
    params = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, 0.1, -0.4])
    cfg = SamConfig(rho=2.0, adaptive=True)
    scale = np.abs(params)
    expected = cfg.rho * (scale**2 * g) / np.linalg.norm(scale * g)
    delta = ascent_perturbation(g, params, cfg)
    assert np.allclose(delta, expected, rtol=1e-12)


def test_adaptive_is_scale_free_in_radius():
    # adaptive delta does not have norm rho in general
    params = np.array([10.0, 0.1])
    g = np.array([1.0, 1.0])
    delta = ascent_perturbation(g, params, SamConfig(rho=1.0, adaptive=True))
    assert abs(np.linalg.norm(delta) - 1.0) > 1e-3


# ----- sam_step -----------------------------------------------------------------


def test_quadratic_hand_oracle():
    # L = theta^2 / 2 at theta = 1: ascent to 1.1, update to 1 - 0.1 * 1.1
    out = sam_step(np.array([1.0]), quadratic, SamConfig(rho=0.1, eta=0.1))
    assert out[0] == pytest.approx(0.89, abs=1e-15)


def test_rho_zero_equals_plain_sgd_bitwise():
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(12)
    cfg = SamConfig(rho=0.0, eta=0.05)
    via_sam = sam_step(theta.copy(), quadratic, cfg)
    via_sgd = sgd_step(theta.copy(), quadratic, cfg)
    assert np.array_equal(via_sam, via_sgd)


def test_zero_descent_gradient_leaves_params():
    def flat_at_ascent(theta):
        # gradient vanishes everywhere except the very first evaluation point
        if np.array_equal(theta, np.array([2.0])):
            return 1.0, np.array([1.0])
        return 1.0, np.zeros(1)

    out = sam_step(np.array([2.0]), flat_at_ascent, SamConfig(rho=0.3, eta=0.7))
    assert out[0] == pytest.approx(2.0)


def test_exactly_two_gradient_evaluations():
    counter = CountingLoss(quadratic)
    sam_step(np.array([1.0, 2.0]), counter, SamConfig(rho=0.1, eta=0.1))
    assert len(counter.calls) == 2
    counter = CountingLoss(quadratic)
    sgd_step(np.array([1.0, 2.0]), counter, SamConfig(rho=0.1, eta=0.1))
    assert len(counter.calls) == 1


def test_ascent_point_radius_over_run():
    rng = np.random.default_rng(3)
    curvature = np.diag(rng.uniform(0.5, 2.0, size=6))

    def loss(theta):
        return 0.5 * float(theta @ curvature @ theta), curvature @ theta

    cfg = SamConfig(rho=0.05, eta=0.1)
    theta = rng.standard_normal(6)
    for _ in range(100):
        counter = CountingLoss(loss)
        theta_next = sam_step(theta, counter, cfg)
        ascent = counter.calls[1]
        assert abs(np.linalg.norm(ascent - theta) - cfg.rho) / cfg.rho < 1e-10
        theta = theta_next


def test_descent_sanity_on_convex_quadratic():
    # start far from the optimum so 100 steps stay in the contraction phase
    # (near the minimum SAM orbits at radius ~rho instead of converging)
    rng = np.random.default_rng(4)
    curvature = np.diag(rng.uniform(0.2, 1.0, size=8))

    def loss(theta):
        return 0.5 * float(theta @ curvature @ theta), curvature @ theta

    theta = rng.standard_normal(8)
    theta *= 10.0 / np.linalg.norm(theta)
    cfg = SamConfig(rho=0.05, eta=0.02)  # eta well below 2 / max curvature
    values = [loss(theta)[0]]
    for _ in range(100):
        theta = sam_step(theta, loss, cfg)
        values.append(loss(theta)[0])
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12)


def test_non_finite_loss_raises_with_step():
    def bad(theta):
        return float("nan"), np.zeros_like(theta)

    with pytest.raises(OptimizerError) as err:
        sam_step(np.zeros(3), bad, SamConfig(), step=17)
    assert err.value.step == 17
    assert "17" in str(err.value)


def test_non_finite_gradient_raises():
    def bad(theta):
        return 1.0, np.full_like(theta, np.inf)

    with pytest.raises(OptimizerError):
        sam_step(np.zeros(3), bad, SamConfig(), step=2)


def test_weight_decay_applies_to_descent_only():
    cfg = SamConfig(rho=0.0, eta=0.1, weight_decay=0.5)
    theta = np.array([2.0])
    out = sam_step(theta, quadratic, cfg)
    # grad = 2.0, decayed direction = 2.0 + 0.5 * 2.0 = 3.0
    assert out[0] == pytest.approx(2.0 - 0.1 * 3.0)


def test_momentum_uses_velocity_buffer():
    cfg = SamConfig(rho=0.0, eta=0.1, momentum=0.9)
    theta = np.array([1.0])
    velocity = np.zeros(1)
    theta = sam_step(theta, quadratic, cfg, velocity=velocity)
    assert theta[0] == pytest.approx(0.9)
    theta = sam_step(theta, quadratic, cfg, velocity=velocity)
    # second direction = 0.9 * 1.0 + 0.9 = 1.8
    assert theta[0] == pytest.approx(0.9 - 0.1 * 1.8)


@pytest.mark.parametrize("step", [sam_step, sgd_step])
def test_momentum_without_velocity_buffer_raises(step):
    with pytest.raises(OptimizerError, match="velocity buffer"):
        step(np.array([1.0]), quadratic, SamConfig(rho=0.0, momentum=0.9))


def test_adaptive_must_be_a_bool():
    """A non-empty string is truthy: "no" would run the adaptive variant."""
    with pytest.raises(OptimizerError, match="^adaptive must be a bool, got 'no'$"):
        SamConfig(adaptive="no")


def test_config_validation():
    with pytest.raises(OptimizerError):
        SamConfig(rho=-0.1)
    with pytest.raises(OptimizerError):
        SamConfig(eta=0.0)
    with pytest.raises(OptimizerError):
        SamConfig(grad_eps=0.0)
    with pytest.raises(OptimizerError):
        SamConfig(momentum=1.0)
    for field in ("rho", "eta", "grad_eps", "weight_decay"):
        for value in (np.nan, np.inf):
            with pytest.raises(OptimizerError):
                SamConfig(**{field: value})
