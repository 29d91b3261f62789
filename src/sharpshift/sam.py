"""Sharpness-aware two-step parameter update on flat vectors.

One step is: take the gradient at theta, climb the normalized ascent
direction to theta_a = theta + rho * g / ||g||, then descend using the
gradient taken at theta_a. The adaptive variant rescales the ascent
direction elementwise by the parameter magnitudes so the radius is measured
in a normalization-invariant geometry. Exactly two gradient evaluations per
step, no hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OptimizerError, check_range

# Perturbation radii used by the ablation variants.
DEFAULT_RHO = 0.05
DEFAULT_ADAPTIVE_RHO = 2.0


@dataclass(frozen=True)
class SamConfig:
    """Radius, learning rate and variant switches.

    rho = 0 degenerates to plain gradient descent and is allowed only so
    tests can compare against the unperturbed path. ``weight_decay`` and
    ``momentum`` extend the descent step only; momentum needs a velocity
    buffer supplied by the caller, and a step without one fails.
    """

    rho: float = DEFAULT_RHO
    eta: float = 0.1
    adaptive: bool = False
    grad_eps: float = 1e-12
    weight_decay: float = 0.0
    momentum: float = 0.0

    def __post_init__(self):
        check_range(OptimizerError, "rho", self.rho, 0)
        check_range(OptimizerError, "eta", self.eta, 0, lo_open=True)
        check_range(OptimizerError, "grad_eps", self.grad_eps, 0, lo_open=True)
        check_range(OptimizerError, "weight_decay", self.weight_decay, 0)
        check_range(OptimizerError, "momentum", self.momentum, 0, 1)
        if not isinstance(self.adaptive, bool):
            raise OptimizerError(f"adaptive must be a bool, got {self.adaptive!r}")


def ascent_perturbation(grad, params, config):
    """Perturbation delta such that theta + delta is the ascent point.

    Non-adaptive: delta = rho * g / ||g||, so ||delta|| = rho exactly.
    Adaptive: delta = rho * (s^2 * g) / ||s * g|| with s = |params| floored at
    grad_eps. A gradient with norm below grad_eps yields delta = 0 instead of
    a division blow-up.
    """
    grad = np.asarray(grad, dtype=float)
    if config.adaptive:
        scale = np.maximum(np.abs(np.asarray(params, dtype=float)), config.grad_eps)
        scaled = scale * grad
        norm = float(np.linalg.norm(scaled))
        if norm < config.grad_eps:
            return np.zeros_like(grad)
        return config.rho * (scale * scaled) / norm
    norm = float(np.linalg.norm(grad))
    if norm < config.grad_eps:
        return np.zeros_like(grad)
    return (config.rho / norm) * grad


def _checked(loss_and_grad, params, step):
    loss, grad = loss_and_grad(params)
    if not np.isfinite(loss):
        raise OptimizerError(f"non-finite loss {loss!r}", step=step)
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise OptimizerError("non-finite gradient", step=step)
    return loss, grad


def sam_step(params, loss_and_grad, config, step=None, velocity=None):
    """One ascent/descent update; returns the new parameter vector.

    ``loss_and_grad`` maps a flat parameter vector to ``(loss, gradient)``
    and is called exactly twice: once at ``params`` and once at the ascent
    point. When rho = 0 (or the gradient vanishes) the ascent point equals
    ``params`` bit-for-bit, making the update identical to plain SGD.
    """
    params = np.asarray(params, dtype=float)
    _, grad_here = _checked(loss_and_grad, params, step)
    delta = ascent_perturbation(grad_here, params, config)
    ascent_point = params if not delta.any() else params + delta
    _, grad_ascent = _checked(loss_and_grad, ascent_point, step)
    return _descend(params, grad_ascent, config, velocity)


def sgd_step(params, loss_and_grad, config, step=None, velocity=None):
    """Plain descent step (single gradient evaluation) with the same extras."""
    params = np.asarray(params, dtype=float)
    _, grad = _checked(loss_and_grad, params, step)
    return _descend(params, grad, config, velocity)


def _descend(params, grad, config, velocity):
    direction = grad
    if config.weight_decay > 0.0:
        direction = direction + config.weight_decay * params
    if config.momentum > 0.0:
        if velocity is None:
            raise OptimizerError(f"momentum {config.momentum} needs a velocity buffer")
        velocity *= config.momentum
        velocity += direction
        direction = velocity
    return params - config.eta * direction
