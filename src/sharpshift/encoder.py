"""Small feature extractors with flat-parameter access and exact backprop.

Two desk-scale architectures are provided: an MLP for synthetic
vectors-as-images and a 3-block strided conv net for 32x32 images. Both end
in a 2-layer projection head followed by row normalization, so every output
feature has unit Euclidean norm (that is what licenses the loss bound used
elsewhere). All parameters live in one flat float64 vector described by a
layout table, which is what the sharpness-aware optimizer perturbs.

Backpropagation is written out by hand per layer; the tests check the
analytic path against a central-difference oracle.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

_NORM_EPS = 1e-12
_CHECKPOINT_MAGIC = b"SHARPSHIFT-CKPT-1\n"


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture description.

    ``hidden`` lists MLP layer widths for "mlp" or conv channel counts for
    "small_conv" (3x3 kernels, stride 2, one ReLU block per entry). An empty
    ``hidden`` for mlp means the backbone is just the flattened image. The
    projection head is always two linear layers (ReLU between), mapping the
    backbone output through ``proj_hidden`` (default: backbone width) to
    ``feature_dim``.
    """

    architecture: str = "mlp"
    input_shape: tuple[int, int, int] = (16, 16, 1)
    hidden: tuple[int, ...] = (32,)
    feature_dim: int = 16
    proj_hidden: int | None = None
    center_input: bool = True

    def __post_init__(self):
        if self.architecture not in ("mlp", "small_conv"):
            raise ModelError(f"unknown architecture {self.architecture!r}")
        if len(self.input_shape) != 3:
            raise ModelError(f"input_shape must be (H, W, C), got {self.input_shape}")
        h, w, c = self.input_shape
        if h < 1 or w < 1 or c not in (1, 3):
            raise ModelError(f"bad input shape {self.input_shape}")
        if self.feature_dim < 1:
            raise ModelError("feature_dim must be >= 1")
        if self.architecture == "small_conv" and len(self.hidden) == 0:
            raise ModelError("small_conv needs at least one conv block")
        if any(width < 1 for width in self.hidden):
            raise ModelError(f"hidden widths must be >= 1, got {tuple(self.hidden)}")
        if self.proj_hidden is not None and self.proj_hidden < 1:
            raise ModelError(f"proj_hidden must be >= 1 or None, got {self.proj_hidden}")
        object.__setattr__(self, "hidden", tuple(int(x) for x in self.hidden))
        object.__setattr__(self, "input_shape", tuple(int(x) for x in self.input_shape))

    def to_dict(self):
        return {
            "architecture": self.architecture,
            "input_shape": list(self.input_shape),
            "hidden": list(self.hidden),
            "feature_dim": self.feature_dim,
            "proj_hidden": self.proj_hidden,
            "center_input": self.center_input,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            architecture=data["architecture"],
            input_shape=tuple(data["input_shape"]),
            hidden=tuple(data["hidden"]),
            feature_dim=int(data["feature_dim"]),
            proj_hidden=None if data.get("proj_hidden") is None else int(data["proj_hidden"]),
            center_input=bool(data.get("center_input", True)),
        )


class Encoder:
    """Feature extractor f(theta, x) operating on a flat parameter vector."""

    CONV_KERNEL = 3
    CONV_STRIDE = 2
    CONV_PAD = 1

    def __init__(self, config: EncoderConfig):
        self.config = config
        self._build_layout()

    # ----- layout ---------------------------------------------------------

    def _build_layout(self):
        h, w, c = self.config.input_shape
        entries = []
        if self.config.architecture == "mlp":
            width = h * w * c
            for i, out_width in enumerate(self.config.hidden):
                entries.append((f"bb{i}.W", (width, out_width)))
                entries.append((f"bb{i}.b", (out_width,)))
                width = out_width
            backbone_dim = width
        else:
            ch = c
            sh, sw = h, w
            k, s, p = self.CONV_KERNEL, self.CONV_STRIDE, self.CONV_PAD
            for i, out_ch in enumerate(self.config.hidden):
                entries.append((f"bb{i}.W", (k, k, ch, out_ch)))
                entries.append((f"bb{i}.b", (out_ch,)))
                sh = (sh + 2 * p - k) // s + 1
                sw = (sw + 2 * p - k) // s + 1
                if sh < 1 or sw < 1:
                    raise ModelError("input too small for the conv stack")
                ch = out_ch
            backbone_dim = sh * sw * ch
        proj_hidden = self.config.proj_hidden or backbone_dim
        entries.append(("proj0.W", (backbone_dim, proj_hidden)))
        entries.append(("proj0.b", (proj_hidden,)))
        entries.append(("proj1.W", (proj_hidden, self.config.feature_dim)))
        entries.append(("proj1.b", (self.config.feature_dim,)))

        layout = []
        offset = 0
        for name, shape in entries:
            size = int(np.prod(shape))
            layout.append((name, tuple(shape), offset))
            offset += size
        self.layout = tuple(layout)
        self.n_params = offset
        self.backbone_dim = backbone_dim

    @property
    def feature_dim(self):
        return self.config.feature_dim

    def init_params(self, seed=0):
        """Seeded He/Glorot-style init as one flat vector.

        Biases get a small seeded jitter instead of zeros so no sample can
        land on an exactly-zero projection output (which would break the
        unit-norm output contract).
        """
        rng = np.random.default_rng([int(seed)])
        flat = np.zeros(self.n_params)
        for name, shape, offset in self.layout:
            size = int(np.prod(shape))
            if name.endswith(".W"):
                fan_in = int(np.prod(shape[:-1]))
                std = np.sqrt(1.0 / fan_in) if name == "proj1.W" else np.sqrt(2.0 / fan_in)
            else:
                std = 0.01
            flat[offset:offset + size] = std * rng.standard_normal(size)
        return flat

    def split_params(self, flat):
        """Flat vector -> {name: array view}; views share memory with ``flat``."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ModelError(
                f"parameter vector has shape {flat.shape}, expected ({self.n_params},)"
            )
        return {
            name: flat[offset:offset + int(np.prod(shape))].reshape(shape)
            for name, shape, offset in self.layout
        }

    def flatten_params(self, named):
        """Inverse of split_params; bitwise round trip."""
        parts = []
        for name, shape, _ in self.layout:
            arr = np.asarray(named[name], dtype=float)
            if arr.shape != shape:
                raise ModelError(f"segment {name} has shape {arr.shape}, expected {shape}")
            parts.append(arr.ravel())
        return np.concatenate(parts)

    # ----- forward / backward --------------------------------------------

    def _check_images(self, images):
        images = np.asarray(images, dtype=float)
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4 or images.shape[1:] != self.config.input_shape:
            raise ModelError(
                f"images must be (n,) + {self.config.input_shape}, got {images.shape}"
            )
        return images

    def _backbone_forward(self, p, images):
        if self.config.center_input:
            # fixed input normalization: [0, 1] pixels -> [-1, 1]
            images = (images - 0.5) * 2.0
        caches = []
        if self.config.architecture == "mlp":
            x = images.reshape(images.shape[0], -1)
            caches.append(("reshape", images.shape))
            for i in range(len(self.config.hidden)):
                w, b = p[f"bb{i}.W"], p[f"bb{i}.b"]
                z = x @ w + b
                caches.append(("linear_relu", x, z > 0.0, f"bb{i}"))
                x = np.maximum(z, 0.0)
            return x, caches
        x = images
        for i in range(len(self.config.hidden)):
            w, b = p[f"bb{i}.W"], p[f"bb{i}.b"]
            out, conv_cache = _conv_forward(x, w, b, self.CONV_STRIDE, self.CONV_PAD)
            caches.append(("conv_relu", conv_cache, out > 0.0, f"bb{i}", x.shape))
            x = np.maximum(out, 0.0)
        caches.append(("flatten", x.shape))
        return x.reshape(x.shape[0], -1), caches

    def _backbone_backward(self, p, g, caches, grads, want_input):
        # input_scale undoes the fixed input normalization for pixel gradients
        input_scale = 2.0 if self.config.center_input else 1.0
        for cache in reversed(caches):
            kind = cache[0]
            if kind == "reshape":
                return input_scale * g.reshape(cache[1]) if want_input else None
            if kind == "flatten":
                g = g.reshape(cache[1])
            elif kind == "linear_relu":
                _, x, mask, name = cache
                gz = g * mask
                if grads is not None:
                    grads[f"{name}.W"] += x.T @ gz
                    grads[f"{name}.b"] += gz.sum(axis=0)
                g = gz @ p[f"{name}.W"].T
            else:  # conv_relu
                _, conv_cache, mask, name, x_shape = cache
                gz = g * mask
                dx, dw, db = _conv_backward(
                    gz, conv_cache, p[f"{name}.W"], self.CONV_STRIDE, self.CONV_PAD,
                    x_shape, want_input=True,
                )
                if grads is not None:
                    grads[f"{name}.W"] += dw
                    grads[f"{name}.b"] += db
                g = dx
        return input_scale * g if want_input else None

    def _head_forward(self, p, h):
        z0 = h @ p["proj0.W"] + p["proj0.b"]
        a0 = np.maximum(z0, 0.0)
        z1 = a0 @ p["proj1.W"] + p["proj1.b"]
        norms = np.maximum(np.linalg.norm(z1, axis=1, keepdims=True), _NORM_EPS)
        out = z1 / norms
        cache = (h, z0 > 0.0, a0, out, norms)
        return out, cache

    def _head_backward(self, p, g, cache, grads):
        h, mask0, a0, out, norms = cache
        # normalize: d z1 = (g - out * <g, out>) / ||z1||
        gz1 = (g - out * np.sum(g * out, axis=1, keepdims=True)) / norms
        if grads is not None:
            grads["proj1.W"] += a0.T @ gz1
            grads["proj1.b"] += gz1.sum(axis=0)
        ga0 = gz1 @ p["proj1.W"].T
        gz0 = ga0 * mask0
        if grads is not None:
            grads["proj0.W"] += h.T @ gz0
            grads["proj0.b"] += gz0.sum(axis=0)
        return gz0 @ p["proj0.W"].T

    def forward(self, params, images):
        """Unit-norm feature vectors, one row per image."""
        p = self.split_params(params)
        images = self._check_images(images)
        h, _ = self._backbone_forward(p, images)
        z, _ = self._head_forward(p, h)
        return z

    def features(self, params, images, tap="projection"):
        """Features at a tap point: "backbone" (pre-head) or "projection"."""
        p = self.split_params(params)
        images = self._check_images(images)
        h, _ = self._backbone_forward(p, images)
        if tap == "backbone":
            return h
        if tap == "projection":
            z, _ = self._head_forward(p, h)
            return z
        raise ModelError(f"unknown tap point {tap!r}")

    def loss_and_grad(self, params, images, feature_loss):
        """Scalar loss and its flat parameter gradient.

        ``feature_loss`` maps the (n, d) feature matrix to ``(loss, dloss/df)``;
        the encoder backpropagates the feature gradient through the head and
        backbone by hand.
        """
        p = self.split_params(params)
        images = self._check_images(images)
        h, bb_caches = self._backbone_forward(p, images)
        z, head_cache = self._head_forward(p, h)
        loss, gz = feature_loss(z)
        if not np.isfinite(loss):
            raise ModelError(f"non-finite loss {loss!r}")
        grads = {name: np.zeros(shape) for name, shape, _ in self.layout}
        gh = self._head_backward(p, np.asarray(gz, dtype=float), head_cache, grads)
        self._backbone_backward(p, gh, bb_caches, grads, want_input=False)
        return float(loss), self.flatten_params(grads)

    def input_gradient(self, params, images, upstream, tap="backbone"):
        """Gradient of sum(tap_features * upstream-ish) w.r.t. the input images.

        ``upstream`` is the gradient flowing into the tap-point features; the
        return value has the shape of ``images``. Used for input-space attacks.
        """
        p = self.split_params(params)
        images = self._check_images(images)
        h, bb_caches = self._backbone_forward(p, images)
        if tap == "projection":
            _, head_cache = self._head_forward(p, h)
            g = self._head_backward(p, np.asarray(upstream, dtype=float), head_cache, None)
        elif tap == "backbone":
            g = np.asarray(upstream, dtype=float)
        else:
            raise ModelError(f"unknown tap point {tap!r}")
        return self._backbone_backward(p, g, bb_caches, None, want_input=True)


# ----- conv primitives -----------------------------------------------------


def _conv_forward(x, w, b, stride, pad):
    n, h, wd, _ = x.shape
    kh, kw, c_in, c_out = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (wd + 2 * pad - kw) // stride + 1
    cols = np.empty((n, out_h, out_w, kh * kw * c_in))
    slot = 0
    for i in range(kh):
        for j in range(kw):
            cols[..., slot * c_in:(slot + 1) * c_in] = xp[
                :, i:i + stride * out_h:stride, j:j + stride * out_w:stride, :
            ]
            slot += 1
    out = cols @ w.reshape(-1, c_out) + b
    return out, (cols, xp.shape)


def _conv_backward(g, cache, w, stride, pad, x_shape, want_input):
    cols, xp_shape = cache
    kh, kw, c_in, c_out = w.shape
    _, out_h, out_w, _ = g.shape
    dw = np.tensordot(cols, g, axes=([0, 1, 2], [0, 1, 2])).reshape(w.shape)
    db = g.sum(axis=(0, 1, 2))
    dx = None
    if want_input:
        dcols = g @ w.reshape(-1, c_out).T
        dxp = np.zeros(xp_shape)
        slot = 0
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + stride * out_h:stride, j:j + stride * out_w:stride, :] += dcols[
                    ..., slot * c_in:(slot + 1) * c_in
                ]
                slot += 1
        dx = dxp[:, pad:pad + x_shape[1], pad:pad + x_shape[2], :]
    return dx, dw, db


# ----- checkpoints ----------------------------------------------------------


@dataclass
class Checkpoint:
    params: np.ndarray
    encoder_config: EncoderConfig
    layout: tuple
    train_config_hash: str
    epoch: int = 0
    extra: dict = field(default_factory=dict)


def save_checkpoint(path, encoder, params, train_config_hash, epoch=0, extra=None):
    """Write a checkpoint with deterministic bytes (header json + raw float64)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (encoder.n_params,):
        raise ModelError(
            f"params shape {params.shape} does not match encoder T={encoder.n_params}"
        )
    header = {
        "layout": [[name, list(shape), offset] for name, shape, offset in encoder.layout],
        "encoder_config": encoder.config.to_dict(),
        "train_config_hash": train_config_hash,
        "epoch": int(epoch),
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(params.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; any truncation, corrupt header or size mismatch is a ModelError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ModelError(f"{path}: cannot read checkpoint ({exc})") from exc
    if blob[:len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
        raise ModelError(f"{path}: not a checkpoint file")
    start = len(_CHECKPOINT_MAGIC) + 8
    try:
        # a proper prefix of the json object never parses, so a cut header fails here too
        (header_len,) = struct.unpack("<Q", blob[start - 8:start])
        header = json.loads(blob[start:start + header_len])
        config = EncoderConfig.from_dict(header["encoder_config"])
        stored_layout = tuple((n, tuple(s), o) for n, s, o in header["layout"])
        train_config_hash = str(header["train_config_hash"])
        epoch = int(header.get("epoch", 0))
        extra = dict(header.get("extra", {}))
    except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"{path}: truncated or corrupt checkpoint header ({exc!r})") from exc
    raw = blob[start + header_len:]
    encoder = Encoder(config)
    if stored_layout != encoder.layout:
        raise ModelError(f"{path}: layout mismatch against encoder config")
    if len(raw) != 8 * encoder.n_params:
        raise ModelError(
            f"{path}: parameter payload has {len(raw)} bytes, expected {8 * encoder.n_params}"
        )
    return Checkpoint(
        params=np.frombuffer(raw, dtype="<f8").astype(float),
        encoder_config=config,
        layout=encoder.layout,
        train_config_hash=train_config_hash,
        epoch=epoch,
        extra=extra,
    )


def params_digest(params):
    """Stable content hash of a parameter vector (used in logs and tests)."""
    return hashlib.sha256(np.asarray(params, dtype="<f8").tobytes()).hexdigest()
