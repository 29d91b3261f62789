"""Small feature extractors with flat-parameter access and exact backprop.

Two desk-scale architectures are provided: an MLP for synthetic
vectors-as-images and a 3-block strided conv net for 32x32 images. Both end
in a 2-layer projection head followed by row normalization, so every output
feature has unit Euclidean norm (that is what licenses the loss bound used
elsewhere). All parameters live in one flat float64 vector described by a
layout table, which is what the sharpness-aware optimizer perturbs.

The network is one list of layers: one forward loop and one hand-written
backward loop run over it, and the tests check the analytic path against a
central-difference oracle.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SIZE_CAP, ModelError, check_range, os_errors

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
        size = functools.partial(check_range, ModelError, lo=1, integer=True)
        h, w, c = (size(name, x) for name, x in
                   zip(("input height", "input width", "input channels"), self.input_shape))
        if c not in (1, 3):
            raise ModelError(f"input channels must be 1 or 3, got {c}")
        if self.architecture == "small_conv" and len(self.hidden) == 0:
            raise ModelError("small_conv needs at least one conv block")
        if not isinstance(self.center_input, bool):
            raise ModelError(f"center_input must be a bool, got {self.center_input!r}")
        object.__setattr__(self, "input_shape", (h, w, c))
        object.__setattr__(self, "hidden", tuple(size("hidden width", x) for x in self.hidden))
        object.__setattr__(self, "feature_dim", size("feature_dim", self.feature_dim))
        if self.proj_hidden is not None:
            object.__setattr__(self, "proj_hidden", size("proj_hidden", self.proj_hidden))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``; every key is required."""
        return cls(
            architecture=data["architecture"],
            input_shape=tuple(data["input_shape"]),
            hidden=tuple(data["hidden"]),
            feature_dim=int(data["feature_dim"]),
            proj_hidden=None if data["proj_hidden"] is None else int(data["proj_hidden"]),
            center_input=bool(data["center_input"]),
        )


class Encoder:
    """Feature extractor f(theta, x) operating on a flat parameter vector.

    The network is one tuple of ``(op, name)`` layers, built once from the
    config: an optional input centering, the backbone (linear or conv blocks,
    each followed by a ReLU, plus a flatten), then the head (linear, ReLU,
    linear, row normalization). ``name`` keys a layer's ``.W``/``.b`` layout
    segments. The tap points are indices into that tuple: one forward loop
    runs the layers up to a tap, one backward loop runs back over them.
    """

    CONV_KERNEL = 3
    CONV_STRIDE = 2
    CONV_PAD = 1

    def __init__(self, config: EncoderConfig):
        self.config = config
        h, w, c = config.input_shape
        layers = [("center", None)] if config.center_input else []
        segments = []

        def block(op, name, w_shape, relu=True):
            layers.extend([(op, name), ("relu", None)] if relu else [(op, name)])
            segments.extend([(f"{name}.W", w_shape), (f"{name}.b", w_shape[-1:])])

        if config.architecture == "mlp":
            layers.append(("flatten", None))
            width = h * w * c
            for i, out_width in enumerate(config.hidden):
                block("linear", f"bb{i}", (width, out_width))
                width = out_width
        else:
            for i, out_ch in enumerate(config.hidden):
                block("conv", f"bb{i}", (self.CONV_KERNEL, self.CONV_KERNEL, c, out_ch))
                h, w, c = _conv_out(h), _conv_out(w), out_ch
            layers.append(("flatten", None))
            width = h * w * c
        self.backbone_dim = width
        self._taps = {"backbone": len(layers)}
        proj_hidden = config.proj_hidden or width
        block("linear", "proj0", (width, proj_hidden))
        block("linear", "proj1", (proj_hidden, config.feature_dim), relu=False)
        layers.append(("normalize", None))
        self._taps["projection"] = len(layers)
        self._layers = tuple(layers)
        # parameter gradients are complete once the backward loop has passed this layer
        self._first_weighted = next(i for i, (op, _) in enumerate(layers)
                                    if op in ("linear", "conv"))

        layout, offset = [], 0
        for name, shape in segments:
            layout.append((name, shape, offset))
            offset += math.prod(shape)
        self.layout = tuple(layout)
        # checked before anything is allocated at this size
        self.n_params = check_range(ModelError, "parameter count", offset, 1, SIZE_CAP,
                                    hi_open=False)

    @property
    def feature_dim(self):
        return self.config.feature_dim

    def init_params(self, seed=0):
        """Seeded He/Glorot-style init as one flat vector.

        Biases get a small seeded jitter instead of zeros so no sample can
        land on an exactly-zero projection output (which would break the
        unit-norm output contract).
        """
        rng = np.random.default_rng([check_range(ModelError, "seed", seed, 0, 2**64,
                                                 integer=True)])
        flat = np.zeros(self.n_params)
        for name, shape, offset in self.layout:
            size = math.prod(shape)
            if name.endswith(".W"):
                fan_in = math.prod(shape[:-1])
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
            name: flat[offset:offset + math.prod(shape)].reshape(shape)
            for name, shape, offset in self.layout
        }

    # ----- forward / backward --------------------------------------------

    def _forward(self, params, images, tap):
        """Run the layers up to ``tap``: (output, named params, one cache per layer run)."""
        if not isinstance(tap, str) or tap not in self._taps:
            raise ModelError(f"unknown tap point {tap!r}")
        p = self.split_params(params)
        x = np.asarray(images, dtype=float)
        if x.ndim != 4 or x.shape[1:] != self.config.input_shape or not len(x):
            raise ModelError(
                f"images must be (n,) + {self.config.input_shape} with n >= 1, got {x.shape}")
        caches = []
        for op, name in self._layers[:self._taps[tap]]:
            cache = None
            if op == "center":
                x = x - 0.5  # fixed input normalization: [0, 1] pixels -> [-1, 1]
                x *= 2.0
            elif op == "flatten":
                cache, x = x.shape, x.reshape(x.shape[0], -1)
            elif op == "linear":
                cache, x = x, x @ p[f"{name}.W"]
                x += p[f"{name}.b"]
            elif op == "conv":
                w, cols = p[f"{name}.W"], _im2col(x)
                cache, x = (cols, x.shape), cols @ w.reshape(-1, w.shape[-1])
                x += p[f"{name}.b"]
            elif op == "relu":  # x is the fresh output of the layer before
                cache = x > 0.0
                np.maximum(x, 0.0, out=x)
            else:  # normalize
                norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), _NORM_EPS)
                x = x / norms
                cache = (x, norms)
            caches.append(cache)
        return x, p, caches

    def _backward(self, p, g, caches, grads=None):
        """Run back over the cached layers; returns the gradient at the input images.

        With ``grads`` (named views), parameter gradients are added into it instead and
        the loop stops at the first layer with parameters, returning None: the input
        gradient below it would be thrown away.
        """
        for index in reversed(range(len(caches))):
            (op, name), cache = self._layers[index], caches[index]
            if op == "center":
                g = 2.0 * g  # undoes the fixed input normalization for pixel gradients
            elif op == "flatten":
                g = g.reshape(cache)
            elif op == "linear":
                if grads is not None:
                    grads[f"{name}.W"] += cache.T @ g
                    grads[f"{name}.b"] += g.sum(axis=0)
                    if index == self._first_weighted:
                        return None
                g = g @ p[f"{name}.W"].T
            elif op == "conv":
                w = p[f"{name}.W"]
                cols, x_shape = cache
                if grads is not None:
                    grads[f"{name}.W"] += np.tensordot(
                        cols, g, axes=([0, 1, 2], [0, 1, 2])).reshape(w.shape)
                    grads[f"{name}.b"] += g.sum(axis=(0, 1, 2))
                    if index == self._first_weighted:
                        return None
                g = _col2im(g @ w.reshape(-1, w.shape[-1]).T, x_shape)
            elif op == "relu":
                g = g * cache
            else:  # normalize: d z = (g - out * <g, out>) / ||z||
                out, norms = cache
                g = (g - out * np.sum(g * out, axis=1, keepdims=True)) / norms
        return g

    def forward(self, params, images, tap="projection"):
        """Features at a tap point, one row per image: "projection" (unit norm) or "backbone"."""
        return self._forward(params, images, tap)[0]

    def loss_and_grad(self, params, images, feature_loss):
        """Scalar loss and its flat parameter gradient.

        ``feature_loss`` maps the (n, d) feature matrix to ``(loss, dloss/df)``;
        the encoder backpropagates the feature gradient through the head and
        backbone by hand.
        """
        z, p, caches = self._forward(params, images, "projection")
        loss, gz = feature_loss(z)
        if not np.isfinite(loss):
            raise ModelError(f"non-finite loss {loss!r}")
        grad = np.zeros(self.n_params)
        self._backward(p, np.asarray(gz, dtype=float), caches, self.split_params(grad))
        return float(loss), grad

    def input_gradient(self, params, images, feature_loss, tap="backbone"):
        """Gradient of a feature loss w.r.t. the input images, from one forward pass.

        ``feature_loss`` maps the tap-point features to ``(loss, dloss/df)`` as
        in ``loss_and_grad``; only the gradient is used. Used for input-space
        attacks.
        """
        feats, p, caches = self._forward(params, images, tap)
        return self._backward(p, np.asarray(feature_loss(feats)[1], dtype=float), caches)


# ----- conv primitives -----------------------------------------------------


def _conv_out(size):
    """Conv output size along one axis; at least 1 for any size >= 1."""
    return (size + 2 * Encoder.CONV_PAD - Encoder.CONV_KERNEL) // Encoder.CONV_STRIDE + 1


def _im2col(x):
    """(n, h, w, c) images -> (n, out_h, out_w, k*k*c) patches of the zero-padded input.

    The input is written into a zero-filled padded buffer (``np.pad`` costs more per
    call than a small batch's copy). The patches are one strided read-only view of that
    buffer, (n, out_h, out_w, k, k, c), copied once into C order; a patch row holds its
    taps in (i, j, channel) order.
    """
    k, s, pad = Encoder.CONV_KERNEL, Encoder.CONV_STRIDE, Encoder.CONV_PAD
    n, h, w, c = x.shape
    out_h, out_w = _conv_out(h), _conv_out(w)
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    xp[:, pad:pad + h, pad:pad + w] = x
    sn, sh, sw, sc = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp, (n, out_h, out_w, k, k, c), (sn, s * sh, s * sw, sh, sw, sc), writeable=False)
    return np.ascontiguousarray(patches).reshape(n, out_h, out_w, k * k * c)


def _col2im(dcols, x_shape):
    """Adjoint of _im2col: add patch gradients back onto the (unpadded) input.

    The taps are added in (i, j) order, one strided add per tap.
    """
    k, s, pad = Encoder.CONV_KERNEL, Encoder.CONV_STRIDE, Encoder.CONV_PAD
    n, h, w, c = x_shape
    out_h, out_w = dcols.shape[1:3]
    taps = dcols.reshape(n, out_h, out_w, k, k, c)
    dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    for i in range(k):
        for j in range(k):
            dxp[:, i:i + s * out_h:s, j:j + s * out_w:s] += taps[:, :, :, i, j]
    return dxp[:, pad:pad + h, pad:pad + w, :]


# ----- checkpoints ----------------------------------------------------------


@dataclass
class Checkpoint:
    params: np.ndarray
    encoder: Encoder
    train_config_hash: str
    epoch: int = 0
    extra: dict = field(default_factory=dict)


def _header(encoder, train_config_hash, epoch, extra):
    """The header dict a checkpoint stores, before it is written as sorted JSON."""
    return {
        "layout": [[name, list(shape), offset] for name, shape, offset in encoder.layout],
        "encoder_config": encoder.config.to_dict(),
        "train_config_hash": train_config_hash,
        "epoch": epoch,
        "extra": extra,
    }


def save_checkpoint(path, encoder, params, train_config_hash, epoch=0, extra=None):
    """Write a checkpoint with deterministic bytes (header json + raw float64), atomically:
    a failed write leaves neither a partial ``path`` nor its ``<path>.tmp``."""
    params = np.asarray(params, dtype=float)
    if params.shape != (encoder.n_params,):
        raise ModelError(
            f"params shape {params.shape} does not match encoder T={encoder.n_params}"
        )
    header = _header(encoder, train_config_hash, int(epoch), extra or {})
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    with os_errors(ModelError, path):
        try:
            with open(tmp, "wb") as fh:
                fh.write(_CHECKPOINT_MAGIC)
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)
                fh.write(params.astype("<f8").tobytes())
            os.replace(tmp, path)
        finally:
            if os.path.isfile(tmp):  # the write or the replace failed
                os.remove(tmp)


def load_checkpoint(path):
    """Read a checkpoint; any truncation, corrupt header or size mismatch is a ModelError.

    Every header key must hold the value ``save_checkpoint`` writes for the encoder
    config, hash, epoch and extra read from it, with the same JSON types.
    """
    with os_errors(ModelError, path), open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
        raise ModelError(f"{path}: not a checkpoint file")
    start = len(_CHECKPOINT_MAGIC) + 8
    try:
        # a proper prefix of the json object never parses, so a cut header fails here too;
        # a deeply nested one raises RecursionError
        (header_len,) = struct.unpack("<Q", blob[start - 8:start])
        header = json.loads(blob[start:start + header_len])
        config = EncoderConfig.from_dict(header["encoder_config"])
        train_config_hash = str(header["train_config_hash"])
        epoch = int(header["epoch"])
        extra = dict(header["extra"])
    except (struct.error, ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise ModelError(f"{path}: truncated or corrupt checkpoint header ({exc!r})") from exc
    encoder = Encoder(config)
    # every conversion above must have kept its value: 4.9 or true for 4, "false" for
    # false, a float in the layout, a missing or an unknown key all differ from it here
    expected = _header(encoder, train_config_hash, epoch, extra)
    malformed = [key for key in sorted(header.keys() | expected.keys())
                 if key not in header or key not in expected
                 or json.dumps(header[key], sort_keys=True)
                 != json.dumps(expected[key], sort_keys=True)]
    if malformed:
        raise ModelError(f"{path}: malformed checkpoint header values {malformed}")
    raw = blob[start + header_len:]
    if len(raw) != 8 * encoder.n_params:
        raise ModelError(
            f"{path}: parameter payload has {len(raw)} bytes, expected {8 * encoder.n_params}"
        )
    return Checkpoint(
        params=np.frombuffer(raw, dtype="<f8").astype(float),
        encoder=encoder,
        train_config_hash=train_config_hash,
        epoch=epoch,
        extra=extra,
    )
