"""Run configuration: dotted-key text files, CLI overrides, stable hashing."""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields

from .data import AugmentPool
from .encoder import Encoder, EncoderConfig
from .errors import SIZE_CAP, PipelineError, check_range, os_errors
from .evaluation import ProbeConfig
from .fourier import AugmentConfig
from .losses import LossConfig
from .sam import SamConfig


def _key(key, default):
    """A config field read and written under the dotted ``key``."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs, one field per dotted config key."""

    dataset: str = _key("dataset.name", "synthetic")
    data_dir: str = _key("dataset.dir", "")
    n_per_class: int = _key("dataset.n_per_class", 100)
    n_eval_per_class: int = _key("dataset.n_eval_per_class", 50)
    num_classes: int = _key("dataset.classes", 2)
    image_size: int = _key("dataset.image_size", 16)
    channels: int = _key("dataset.channels", 1)
    data_limit: int = _key("dataset.limit", 0)

    batch_size: int = _key("train.batch_size", 16)
    epochs: int = _key("train.epochs", 50)
    tau: float = _key("train.tau", LossConfig.tau)
    lr: float = _key("optimizer.lr", 0.5)
    seed: int = _key("train.seed", 0)
    output_dir: str = _key("train.output_dir", "run")
    checkpoint_every: int = _key("train.checkpoint_every", 0)

    sam_enabled: bool = _key("sam.enabled", False)
    sam_rho: float = _key("sam.rho", SamConfig.rho)
    sam_adaptive: bool = _key("sam.adaptive", SamConfig.adaptive)
    sam_grad_eps: float = _key("sam.grad_eps", SamConfig.grad_eps)
    weight_decay: float = _key("optimizer.weight_decay", SamConfig.weight_decay)
    momentum: float = _key("optimizer.momentum", SamConfig.momentum)

    fft_enabled: bool = _key("fft.enabled", False)
    fft_alpha: float = _key("fft.alpha", AugmentConfig.alpha)
    fft_warmup_epochs: int = _key("fft.warmup_epochs", 0)

    encoder_architecture: str = _key("encoder.architecture", EncoderConfig.architecture)
    encoder_hidden: tuple[int, ...] = _key("encoder.hidden", EncoderConfig.hidden)
    encoder_feature_dim: int = _key("encoder.feature_dim", EncoderConfig.feature_dim)
    encoder_proj_hidden: int = _key("encoder.proj_hidden", 0)  # 0 means "backbone width"

    probe_epochs: int = _key("probe.epochs", ProbeConfig.epochs)
    probe_lr: float = _key("probe.lr", ProbeConfig.lr)
    probe_tap_point: str = _key("probe.tap_point", ProbeConfig.tap_point)
    probe_tau: float = _key("probe.tau", ProbeConfig.tau)
    probe_seed: int = _key("probe.seed", ProbeConfig.seed)

    aug_crop_min: float = _key("augment.crop_scale_min", AugmentPool.crop_scale[0])
    aug_crop_max: float = _key("augment.crop_scale_max", AugmentPool.crop_scale[1])
    aug_flip_p: float = _key("augment.flip_p", AugmentPool.flip_p)
    aug_jitter_p: float = _key("augment.jitter_p", AugmentPool.jitter_p)
    aug_jitter_strength: float = _key("augment.jitter_strength", AugmentPool.jitter_strength)
    aug_gray_p: float = _key("augment.gray_p", AugmentPool.gray_p)

    metrics_timing: bool = _key("metrics.timing", False)

    def __post_init__(self):
        """Check the whole config before any data is made or any file is touched, and
        store each number as checked: -0.0 as 0.0, as a config file reads it."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, bool) and not isinstance(value, bool):
                raise PipelineError(f"{f.metadata['key']} must be a bool, got {value!r}")
        integer = functools.partial(check_range, PipelineError, integer=True)
        integer("dataset.n_per_class", self.n_per_class, 1)
        integer("dataset.n_eval_per_class", self.n_eval_per_class, 1)
        integer("dataset.classes", self.num_classes, 2)
        integer("train.batch_size", self.batch_size, 2)
        integer("train.epochs", self.epochs, 0, SIZE_CAP, hi_open=False)
        integer("train.seed", self.seed, 0, 2**64)
        integer("dataset.image_size", self.image_size, 1)
        integer("dataset.limit", self.data_limit, 0)
        integer("train.checkpoint_every", self.checkpoint_every, 0)
        integer("fft.warmup_epochs", self.fft_warmup_epochs, -math.inf)
        if self.dataset not in ("synthetic", "cifar10"):
            raise PipelineError(f"unknown dataset {self.dataset!r}")
        if not self.output_dir:
            raise PipelineError("train.output_dir must not be empty")
        # each value is checked by the sub-config that owns it, the parameter cap by the Encoder
        Encoder(self.encoder_config())
        for build in (self.sam_config, self.probe_config, self.augment_pool):
            build()
        LossConfig(tau=self.tau)
        AugmentConfig(alpha=self.fft_alpha)
        for f in fields(self):  # also a number no sub-config reads, such as cifar10's channels
            if type(f.default) in (int, float):
                object.__setattr__(self, f.name, check_range(
                    PipelineError, f.metadata["key"], getattr(self, f.name), -math.inf,
                    integer=type(f.default) is int))
        # the larger synthetic split is one array
        sizes = (max(self.n_per_class, self.n_eval_per_class), self.num_classes,
                 self.image_size, self.image_size, self.channels)
        check_range(PipelineError, "synthetic split values (n_per_class x classes x image_size^2 x "
                    "channels)", math.prod(sizes), 0, SIZE_CAP, hi_open=False)

    # ----- derived sub-configs ---------------------------------------------

    def encoder_config(self):
        if self.dataset == "cifar10":
            shape = (32, 32, 3)
        else:
            shape = (self.image_size, self.image_size, self.channels)
        return EncoderConfig(
            architecture=self.encoder_architecture,
            input_shape=shape,
            hidden=tuple(self.encoder_hidden),
            feature_dim=self.encoder_feature_dim,
            proj_hidden=self.encoder_proj_hidden or None,
        )

    def sam_config(self):
        return SamConfig(
            rho=self.sam_rho,
            eta=self.lr,
            adaptive=self.sam_adaptive,
            grad_eps=self.sam_grad_eps,
            weight_decay=self.weight_decay,
            momentum=self.momentum,
        )

    def probe_config(self):
        return ProbeConfig(
            epochs=self.probe_epochs,
            lr=self.probe_lr,
            tap_point=self.probe_tap_point,
            tau=self.probe_tau,
            seed=self.probe_seed,
        )

    def augment_pool(self):
        return AugmentPool(
            crop_scale=(self.aug_crop_min, self.aug_crop_max),
            flip_p=self.aug_flip_p,
            jitter_p=self.aug_jitter_p,
            jitter_strength=self.aug_jitter_strength,
            gray_p=self.aug_gray_p,
        )

    # ----- flat-key serialization -------------------------------------------

    def to_flat(self):
        return {f.metadata["key"]: _render(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_flat(cls, mapping):
        keyed = {f.metadata["key"]: f for f in fields(cls)}
        unknown = set(mapping) - set(keyed)
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{keyed[key].name: _parse(key, raw, keyed[key].default)
                      for key, raw in mapping.items()})

    def config_hash(self):
        """Digest of the fields that define the run scientifically.

        Bookkeeping fields (where output goes, checkpoint cadence, timing
        in the metrics stream) are excluded: runs that differ only in those
        are the same experiment and may resume each other's checkpoints.
        """
        flat = self.to_flat()
        skip = {"train.output_dir", "train.checkpoint_every", "metrics.timing"}
        canon = "\n".join(f"{k}={flat[k]}" for k in sorted(flat) if k not in skip)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(key, raw, template):
    raw = raw.strip()
    if isinstance(template, bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise PipelineError(f"cannot parse boolean from {key}={raw!r}")
    try:
        if isinstance(template, tuple):
            return tuple(int(v) for v in raw.split(",")) if raw else ()
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
    except ValueError as exc:
        raise PipelineError(f"cannot parse {key}={raw!r}: {exc}") from exc
    return raw


def parse_config_file(path):
    """Flat key-value text: one ``key = value`` per line, '#' comments, each key once."""
    with os_errors(PipelineError, path), open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise PipelineError(f"{path}: {exc}") from exc
    mapping, set_on = {}, {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise PipelineError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in set_on:
            raise PipelineError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        mapping[key], set_on[key] = value, lineno
    return mapping


def load_config(path=None, overrides=()):
    """Config file plus ``key=value`` override strings (CLI flags win)."""
    mapping = parse_config_file(path) if path else {}
    for item in overrides:
        if "=" not in item:
            raise PipelineError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return TrainConfig.from_flat(mapping)
