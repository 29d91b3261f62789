"""Run configuration: dotted-key text files, CLI overrides, stable hashing."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields

from .data import AugmentPool
from .encoder import EncoderConfig
from .errors import PipelineError
from .evaluation import ProbeConfig
from .sam import SamConfig

OUTPUT_ROOT_ENV = "SHARPSHIFT_OUTPUT_ROOT"


@dataclass
class TrainConfig:
    """Everything a training run needs, one field per dotted config key."""

    dataset: str = "synthetic"
    data_dir: str = ""
    n_per_class: int = 100
    n_eval_per_class: int = 50
    num_classes: int = 2
    image_size: int = 16
    channels: int = 1
    data_limit: int = 0

    batch_size: int = 16
    epochs: int = 50
    tau: float = 0.5
    lr: float = 0.5
    seed: int = 0
    output_dir: str = "run"
    checkpoint_every: int = 0

    sam_enabled: bool = False
    sam_rho: float = 0.05
    sam_adaptive: bool = False
    sam_grad_eps: float = 1e-12
    weight_decay: float = 0.0
    momentum: float = 0.0

    fft_enabled: bool = False
    fft_alpha: float = 0.2
    fft_warmup_epochs: int = 0

    encoder_architecture: str = "mlp"
    encoder_hidden: tuple[int, ...] = (32,)
    encoder_feature_dim: int = 16
    encoder_proj_hidden: int = 0  # 0 means "backbone width"

    probe_epochs: int = 200
    probe_lr: float = 2.0
    probe_tap_point: str = "backbone"
    probe_tau: float = 1.0
    probe_seed: int = 0

    aug_crop_min: float = 0.2
    aug_crop_max: float = 1.0
    aug_flip_p: float = 0.5
    aug_jitter_p: float = 0.8
    aug_jitter_strength: float = 0.4
    aug_gray_p: float = 0.2

    metrics_timing: bool = False

    def __post_init__(self):
        if self.batch_size < 2:
            raise PipelineError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 0:
            raise PipelineError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.seed < 2**64:
            raise PipelineError(f"seed must lie in [0, 2**64), got {self.seed}")
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
        out = {}
        for f in fields(self):
            key = KEYMAP[f.name]
            out[key] = _render(getattr(self, f.name))
        return out

    @classmethod
    def from_flat(cls, mapping):
        kwargs = {}
        unknown = set(mapping) - set(KEYMAP.values())
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        by_key = {KEYMAP[f.name]: f for f in fields(cls)}
        defaults = cls()
        for key, raw in mapping.items():
            f = by_key[key]
            kwargs[f.name] = _parse(key, raw, getattr(defaults, f.name))
        return cls(**kwargs)

    def config_hash(self):
        """Digest of the fields that define the run scientifically.

        Bookkeeping fields (where output goes, checkpoint cadence, timing
        in the metrics stream) are excluded: runs that differ only in those
        are the same experiment and may resume each other's checkpoints.
        """
        flat = self.to_flat()
        skip = {KEYMAP["output_dir"], KEYMAP["checkpoint_every"], KEYMAP["metrics_timing"]}
        canon = "\n".join(f"{k}={flat[k]}" for k in sorted(flat) if k not in skip)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def resolved_output_dir(self):
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root and not os.path.isabs(self.output_dir):
            return os.path.join(root, self.output_dir)
        return self.output_dir


KEYMAP = {
    "dataset": "dataset.name",
    "data_dir": "dataset.dir",
    "n_per_class": "dataset.n_per_class",
    "n_eval_per_class": "dataset.n_eval_per_class",
    "num_classes": "dataset.classes",
    "image_size": "dataset.image_size",
    "channels": "dataset.channels",
    "data_limit": "dataset.limit",
    "batch_size": "train.batch_size",
    "epochs": "train.epochs",
    "tau": "train.tau",
    "lr": "optimizer.lr",
    "seed": "train.seed",
    "output_dir": "train.output_dir",
    "checkpoint_every": "train.checkpoint_every",
    "sam_enabled": "sam.enabled",
    "sam_rho": "sam.rho",
    "sam_adaptive": "sam.adaptive",
    "sam_grad_eps": "sam.grad_eps",
    "weight_decay": "optimizer.weight_decay",
    "momentum": "optimizer.momentum",
    "fft_enabled": "fft.enabled",
    "fft_alpha": "fft.alpha",
    "fft_warmup_epochs": "fft.warmup_epochs",
    "encoder_architecture": "encoder.architecture",
    "encoder_hidden": "encoder.hidden",
    "encoder_feature_dim": "encoder.feature_dim",
    "encoder_proj_hidden": "encoder.proj_hidden",
    "probe_epochs": "probe.epochs",
    "probe_lr": "probe.lr",
    "probe_tap_point": "probe.tap_point",
    "probe_tau": "probe.tau",
    "probe_seed": "probe.seed",
    "aug_crop_min": "augment.crop_scale_min",
    "aug_crop_max": "augment.crop_scale_max",
    "aug_flip_p": "augment.flip_p",
    "aug_jitter_p": "augment.jitter_p",
    "aug_jitter_strength": "augment.jitter_strength",
    "aug_gray_p": "augment.gray_p",
    "metrics_timing": "metrics.timing",
}


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
