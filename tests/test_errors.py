import errno
import math
import os

import numpy as np
import pytest

from sharpshift.bounds import (PacPenaltyInputs, exact_info_nce_expectation, lab_suite,
                               make_random_world)
from sharpshift.config import TrainConfig
from sharpshift.data import gen_synthetic
from sharpshift.encoder import Encoder, EncoderConfig
from sharpshift.errors import (AugmentationError, EvaluationError, IngestionError, LabError,
                               MetricError, ModelError, PipelineError, check_range, os_errors)
from sharpshift.evaluation import ProbeConfig, top_k_accuracy
from sharpshift.fourier import AugmentConfig
from sharpshift.shift import estimate_shift_gap


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_check_range_never_passes_non_finite(value):
    with pytest.raises(LabError, match=r"x must lie in \[-inf, inf\]"):
        check_range(LabError, "x", value, -math.inf, math.inf, hi_open=False)


def test_check_range_ends_and_negative_zero():
    assert check_range(LabError, "x", 0, 0) == 0
    assert not np.signbit(check_range(LabError, "x", -0.0, 0))
    assert check_range(LabError, "x", 1, 0, 1, hi_open=False) == 1
    assert check_range(LabError, "x", 2**64 - 1, 0, 2**64) == 2**64 - 1
    with pytest.raises(LabError, match=r"x must lie in \(0, 1\), got 0.0"):
        check_range(LabError, "x", 0.0, 0, 1, lo_open=True)
    with pytest.raises(LabError, match=r"x must lie in \[0, 1\), got 1.0"):
        check_range(LabError, "x", 1.0, 0, 1)


def test_os_errors_names_the_path_and_lets_other_errors_through():
    with pytest.raises(LabError, match=f"^run/x: {os.strerror(errno.ENOSPC)}$") as info:
        with os_errors(LabError, "run/x"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "run/x.tmp")
    assert isinstance(info.value.__cause__, OSError)
    with pytest.raises(ValueError):
        with os_errors(LabError, "run/x"):
            raise ValueError("not an OS error")


def _shift_gap(**kwargs):
    return estimate_shift_gap(lambda items: np.eye(2)[np.asarray(items)], ([0, 1], [0, 1]),
                              lambda items, rngs, n: ([item] * n for item in items), **kwargs)


def _pac_inputs(n_samples=100, n_params=10):
    return PacPenaltyInputs(n_samples, n_params, 0.1, 0.05, 0.5, 1.0, 0.0)


_WORLD = make_random_world(np.random.default_rng(0), n_points=2, n_classes=2, dim=2)

# every count and seed the package takes: (site, its error, a call taking the value, a valid value)
INTEGER_SITES = [
    ("train.batch_size", PipelineError, lambda v: TrainConfig(batch_size=v), 4),
    ("train.epochs", PipelineError, lambda v: TrainConfig(epochs=v), 3),
    ("train.seed", PipelineError, lambda v: TrainConfig(seed=v), 7),
    ("dataset.image_size", PipelineError, lambda v: TrainConfig(image_size=v), 8),
    ("dataset.limit", PipelineError, lambda v: TrainConfig(data_limit=v), 5),
    ("train.checkpoint_every", PipelineError, lambda v: TrainConfig(checkpoint_every=v), 2),
    ("fft.warmup_epochs", PipelineError, lambda v: TrainConfig(fft_warmup_epochs=v), 1),
    ("input height", ModelError, lambda v: EncoderConfig(input_shape=(v, 8, 1)), 8),
    ("input width", ModelError, lambda v: EncoderConfig(input_shape=(8, v, 1)), 8),
    ("input channels", ModelError, lambda v: EncoderConfig(input_shape=(8, 8, v)), 3),
    ("hidden width", ModelError, lambda v: EncoderConfig(hidden=(v,)), 6),
    ("feature_dim", ModelError, lambda v: EncoderConfig(feature_dim=v), 4),
    ("proj_hidden", ModelError, lambda v: EncoderConfig(proj_hidden=v), 3),
    ("init_params seed", ModelError, lambda v: Encoder(EncoderConfig()).init_params(v), 5),
    ("probe epochs", EvaluationError, lambda v: ProbeConfig(epochs=v), 5),
    ("probe seed", EvaluationError, lambda v: ProbeConfig(seed=v), 5),
    ("top-k k", EvaluationError, lambda v: top_k_accuracy(np.eye(3), [0, 1, 2], v), 2),
    ("rng_seed", AugmentationError, lambda v: AugmentConfig(rng_seed=v), 5),
    ("n_per_class", IngestionError, lambda v: gen_synthetic(v, 2, image_size=4), 3),
    ("num_classes", IngestionError, lambda v: gen_synthetic(2, v, image_size=4), 3),
    ("image_size", IngestionError, lambda v: gen_synthetic(2, 2, image_size=v), 4),
    ("channels", IngestionError, lambda v: gen_synthetic(2, 2, image_size=4, channels=v), 3),
    ("synthetic seed", IngestionError, lambda v: gen_synthetic(2, 2, image_size=4, seed=v), 5),
    ("pattern_seed", IngestionError,
     lambda v: gen_synthetic(2, 2, image_size=4, pattern_seed=v), 5),
    ("n_mc_aug", MetricError, lambda v: _shift_gap(n_mc_aug=v), 2),
    ("shift-gap seed", MetricError, lambda v: _shift_gap(seed=v), 2),
    ("k_negatives", LabError, lambda v: exact_info_nce_expectation(_WORLD, 0.5, 1.0, v), 2),
    ("n_samples", LabError, lambda v: _pac_inputs(n_samples=v), 10),
    ("n_params", LabError, lambda v: _pac_inputs(n_params=v), 10),
    ("n_worlds", LabError, lambda v: lab_suite("pac-penalty", v, 0), 2),
    ("bound-lab seed", LabError, lambda v: lab_suite("pac-penalty", 2, v), 3),
]


@pytest.mark.parametrize("value", [2.5, True], ids=repr)
@pytest.mark.parametrize("site, error, call, valid", INTEGER_SITES,
                         ids=[site[0] for site in INTEGER_SITES])
def test_every_count_and_seed_refuses_a_non_integer_or_a_bool(site, error, call, valid, value):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site, error, call, valid", INTEGER_SITES,
                         ids=[site[0] for site in INTEGER_SITES])
def test_every_count_and_seed_takes_a_numpy_integer(site, error, call, valid):
    call(np.int64(valid))


def test_check_range_returns_a_numpy_integer_as_an_int():
    value = check_range(LabError, "x", np.int64(3), 0, integer=True)
    assert value == 3 and type(value) is int  # checkpoint headers are JSON


@pytest.mark.parametrize("value, message", [
    (True, "x must be a number, got True"), ("1", "x must be a number, got '1'"),
    (None, "x must be a number, got None"),
])
def test_check_range_refuses_what_is_no_number(value, message):
    with pytest.raises(LabError, match=f"^{message}$"):
        check_range(LabError, "x", value, 0)
