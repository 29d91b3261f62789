"""Run configuration: dotted-key text files, CLI overrides, stable hashing."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields

from .data import AugmentPool
from .encoder import EncoderConfig
from .errors import PipelineError
from .evaluation import ProbeConfig
from .sam import SamConfig

OUTPUT_ROOT_ENV = "SHARPSHIFT_OUTPUT_ROOT"


def _key(key, default):
    """A config field read and written under the dotted ``key``."""
    return field(default=default, metadata={"key": key})


@dataclass
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
    tau: float = _key("train.tau", 0.5)
    lr: float = _key("optimizer.lr", 0.5)
    seed: int = _key("train.seed", 0)
    output_dir: str = _key("train.output_dir", "run")
    checkpoint_every: int = _key("train.checkpoint_every", 0)

    sam_enabled: bool = _key("sam.enabled", False)
    sam_rho: float = _key("sam.rho", 0.05)
    sam_adaptive: bool = _key("sam.adaptive", False)
    sam_grad_eps: float = _key("sam.grad_eps", 1e-12)
    weight_decay: float = _key("optimizer.weight_decay", 0.0)
    momentum: float = _key("optimizer.momentum", 0.0)

    fft_enabled: bool = _key("fft.enabled", False)
    fft_alpha: float = _key("fft.alpha", 0.2)
    fft_warmup_epochs: int = _key("fft.warmup_epochs", 0)

    encoder_architecture: str = _key("encoder.architecture", "mlp")
    encoder_hidden: tuple[int, ...] = _key("encoder.hidden", (32,))
    encoder_feature_dim: int = _key("encoder.feature_dim", 16)
    encoder_proj_hidden: int = _key("encoder.proj_hidden", 0)  # 0 means "backbone width"

    probe_epochs: int = _key("probe.epochs", 200)
    probe_lr: float = _key("probe.lr", 2.0)
    probe_tap_point: str = _key("probe.tap_point", "backbone")
    probe_tau: float = _key("probe.tau", 1.0)
    probe_seed: int = _key("probe.seed", 0)

    aug_crop_min: float = _key("augment.crop_scale_min", 0.2)
    aug_crop_max: float = _key("augment.crop_scale_max", 1.0)
    aug_flip_p: float = _key("augment.flip_p", 0.5)
    aug_jitter_p: float = _key("augment.jitter_p", 0.8)
    aug_jitter_strength: float = _key("augment.jitter_strength", 0.4)
    aug_gray_p: float = _key("augment.gray_p", 0.2)

    metrics_timing: bool = _key("metrics.timing", False)

    def __post_init__(self):
        if self.batch_size < 2:
            raise PipelineError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 0:
            raise PipelineError(f"epochs must be >= 0, got {self.epochs}")
        for key, seed in (("train.seed", self.seed), ("probe.seed", self.probe_seed)):
            if not 0 <= seed < 2**64:
                raise PipelineError(f"{key} must lie in [0, 2**64), got {seed}")
        if self.image_size < 1:
            raise PipelineError(f"image_size must be >= 1, got {self.image_size}")
        if self.data_limit < 0:
            raise PipelineError(f"dataset limit must be >= 0 (0 means all), got {self.data_limit}")
        if self.checkpoint_every < 0:
            raise PipelineError(
                f"checkpoint_every must be >= 0 (0 means never), got {self.checkpoint_every}"
            )
        if self.dataset not in ("synthetic", "cifar10"):
            raise PipelineError(f"unknown dataset {self.dataset!r}")

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
        names = {f.metadata["key"]: f.name for f in fields(cls)}
        unknown = set(mapping) - set(names)
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        defaults = cls()
        return cls(**{names[key]: _parse(key, raw, getattr(defaults, names[key]))
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

    def resolved_output_dir(self):
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root and not os.path.isabs(self.output_dir):
            return os.path.join(root, self.output_dir)
        return self.output_dir


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(key, raw, template):
    if isinstance(raw, str):
        raw = raw.strip()
    if isinstance(template, bool):
        if isinstance(raw, bool):
            return raw
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise PipelineError(f"cannot parse boolean from {key}={raw!r}")
    try:
        if isinstance(template, tuple):
            if isinstance(raw, tuple):
                return tuple(int(v) for v in raw)
            if raw == "":
                return ()
            return tuple(int(v) for v in str(raw).split(","))
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
    except ValueError as exc:
        raise PipelineError(f"cannot parse {key}={raw!r}: {exc}") from exc
    return str(raw)


def parse_config_file(path):
    """Flat key-value text: one ``key = value`` per line, '#' comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError(f"cannot read config file {path}: {exc}") from exc
    mapping = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise PipelineError(f"{path}:{lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        mapping[key.strip()] = value.strip()
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
