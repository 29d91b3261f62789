"""Contrastive learning with sharpness-aware updates and spectral augmentation.

Subsystems: frequency-domain positive-pair augmentation (:mod:`fourier`),
weighted contrastive losses (:mod:`losses`), the two-step sharpness-aware
optimizer (:mod:`sam`), small encoders with exact hand-written backprop
(:mod:`encoder`), the distribution-shift gap estimator (:mod:`shift`),
exact bound checks on finite worlds (:mod:`bounds`), linear/robust
evaluation (:mod:`evaluation`), and the training pipeline with its CLI
(:mod:`data`, :mod:`config`, :mod:`training`, :mod:`cli`).
"""

from .bounds import (
    DiscreteWorld,
    PacPenaltyInputs,
    exact_info_nce_expectation,
    pac_penalty,
    sup_loss_mean_classifier,
    surrogate_unsup_loss,
    verify_mean_classifier_step,
)
from .config import TrainConfig, load_config
from .data import AugmentPool, base_augment, base_augment_batch, gen_synthetic, load_cifar10
from .encoder import Encoder, EncoderConfig, load_checkpoint, save_checkpoint
from .errors import SharpshiftError
from .evaluation import (
    AttackConfig,
    ProbeConfig,
    ProbeModel,
    fgsm_attack,
    robust_accuracy,
    top_k_accuracy,
    train_linear_probe,
)
from .fourier import (
    AugmentConfig,
    amplitude_phase,
    dft2,
    fft_augment_batch,
    mix_amplitude,
    mix_batch,
    most_similar_index,
    reconstruct,
)
from .losses import LossConfig, loss_upper_bound
from .sam import SamConfig, ascent_perturbation, sam_step
from .shift import ShiftGapReport, estimate_shift_gap
from .training import run_experiment_matrix, standard_variants, train_ssl

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AugmentConfig",
    "AugmentPool",
    "DiscreteWorld",
    "Encoder",
    "EncoderConfig",
    "LossConfig",
    "PacPenaltyInputs",
    "ProbeConfig",
    "ProbeModel",
    "SamConfig",
    "SharpshiftError",
    "ShiftGapReport",
    "TrainConfig",
    "amplitude_phase",
    "ascent_perturbation",
    "base_augment",
    "base_augment_batch",
    "dft2",
    "estimate_shift_gap",
    "exact_info_nce_expectation",
    "fft_augment_batch",
    "fgsm_attack",
    "gen_synthetic",
    "load_checkpoint",
    "load_cifar10",
    "load_config",
    "loss_upper_bound",
    "mix_amplitude",
    "mix_batch",
    "most_similar_index",
    "pac_penalty",
    "reconstruct",
    "robust_accuracy",
    "run_experiment_matrix",
    "sam_step",
    "save_checkpoint",
    "standard_variants",
    "sup_loss_mean_classifier",
    "surrogate_unsup_loss",
    "top_k_accuracy",
    "train_linear_probe",
    "train_ssl",
    "verify_mean_classifier_step",
]
