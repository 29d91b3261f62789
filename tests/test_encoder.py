import errno
import json
import os
import re
import struct

from dataclasses import replace

import numpy as np
import pytest

from sharpshift import encoder as encoder_mod
from sharpshift.encoder import (
    Encoder,
    EncoderConfig,
    load_checkpoint,
    save_checkpoint,
)
from sharpshift.errors import ModelError
from sharpshift.losses import LossConfig, info_nce_batch_grad

from oracles import col2im_per_tap, finite_diff_gradient, im2col_per_tap, naive_conv

TINY_MLP = EncoderConfig(
    architecture="mlp", input_shape=(4, 4, 1), hidden=(6,), feature_dim=4, proj_hidden=6
)
TINY_CONV = EncoderConfig(
    architecture="small_conv", input_shape=(8, 8, 3), hidden=(4,), feature_dim=4,
    proj_hidden=6,
)

# two conv blocks on an odd-sized, uncentered input; an MLP whose backbone is the flat image
TINY_CONV2 = EncoderConfig(
    architecture="small_conv", input_shape=(7, 7, 3), hidden=(3, 4), feature_dim=4,
    proj_hidden=5, center_input=False,
)
TINY_LINEAR = EncoderConfig(
    architecture="mlp", input_shape=(4, 4, 1), hidden=(), feature_dim=4, proj_hidden=6
)


def feature_loss(tau=0.5):
    cfg = LossConfig(tau=tau)
    return lambda feats: info_nce_batch_grad(feats, cfg)


@pytest.fixture(params=[TINY_MLP, TINY_CONV, TINY_CONV2, TINY_LINEAR],
                ids=["mlp", "small_conv", "small_conv2", "mlp_no_hidden"])
def tiny(request):
    enc = Encoder(request.param)
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(4,) + request.param.input_shape)
    return enc, enc.init_params(1), images


# ----- forward contracts --------------------------------------------------------


def test_outputs_are_unit_norm(tiny):
    enc, params, images = tiny
    z = enc.forward(params, images)
    assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-6


def test_forward_is_deterministic(tiny):
    enc, params, images = tiny
    a = enc.forward(params, images)
    b = enc.forward(params, images)
    assert np.array_equal(a, b)


def test_identity_linear_encoder_normalizes():
    # pure linear path: no hidden layers, identity head, no input centering
    cfg = EncoderConfig(
        architecture="mlp", input_shape=(1, 2, 1), hidden=(), feature_dim=2,
        proj_hidden=2, center_input=False,
    )
    enc = Encoder(cfg)
    params = np.zeros(enc.n_params)
    named = enc.split_params(params)  # views: the writes land in params
    named["proj0.W"][:] = np.eye(2)
    named["proj1.W"][:] = np.eye(2)
    out = enc.forward(params, np.array([3.0, 4.0]).reshape(1, 1, 2, 1))
    assert np.allclose(out[0], [0.6, 0.8], atol=1e-12)


def test_shape_mismatch_raises(tiny):
    enc, params, _ = tiny
    # a wrong image shape, an empty batch, and one image that is not a batch of one
    for shape in [(2, 3, 3, 1), (0, 4, 4, 1), (4, 4, 1)]:
        with pytest.raises(ModelError):
            enc.forward(params, np.zeros(shape))


def test_backbone_tap_differs_from_projection(tiny):
    enc, params, images = tiny
    h = enc.forward(params, images, tap="backbone")
    z = enc.forward(params, images, tap="projection")
    assert h.shape == (4, enc.backbone_dim)
    assert z.shape == (4, enc.feature_dim)


def test_conv_backbone_matches_naive_convolution():
    # pins the meaning of a conv layout segment: W[i, j] weighs the input at offset (i, j)
    enc = Encoder(TINY_CONV2)
    params = enc.init_params(4)
    named = enc.split_params(params)
    images = np.random.default_rng(5).uniform(size=(3,) + TINY_CONV2.input_shape)
    ref = images
    for i in range(len(TINY_CONV2.hidden)):
        ref = np.maximum(naive_conv(ref, named[f"bb{i}.W"], named[f"bb{i}.b"],
                                    Encoder.CONV_STRIDE, Encoder.CONV_PAD), 0.0)
    h = enc.forward(params, images, tap="backbone")
    assert np.max(np.abs(h - ref.reshape(3, -1))) < 1e-12


def test_one_pixel_input_survives_every_conv_block():
    # kernel 3, stride 2, pad 1 maps n >= 1 pixels to ceil(n / 2) >= 1: no input is too small
    enc = Encoder(EncoderConfig(architecture="small_conv", input_shape=(1, 1, 1),
                                hidden=(2, 2, 2), feature_dim=2))
    assert enc.backbone_dim == 2
    assert enc.forward(enc.init_params(0), np.full((1, 1, 1, 1), 0.7)).shape == (1, 2)


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 5, 7, 3), (3, 16, 16, 8), (4, 32, 32, 3)]
                         + [(n, size, size, 3) for n in (1, 2, 9) for size in (1, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_conv_kernels_match_per_tap_oracle(shape):
    """Against ``np.pad`` windows: on a 1x1 or 3x3 image most taps read the zero border."""
    k, s, pad = Encoder.CONV_KERNEL, Encoder.CONV_STRIDE, Encoder.CONV_PAD
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape)
    cols = encoder_mod._im2col(x)
    expected = im2col_per_tap(x, k, s, pad)
    assert cols.shape == expected.shape and np.array_equal(cols, expected)
    dcols = rng.standard_normal(cols.shape)
    dx = encoder_mod._col2im(dcols, shape)
    expected = col2im_per_tap(dcols, shape, k, s, pad)
    assert dx.shape == shape and np.array_equal(dx, expected)
    # adjoint: <im2col(x), d> == <x, col2im(d)>, up to rounding of the sums
    lhs, rhs = np.sum(cols * dcols), np.sum(x * dx)
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(cols * dcols))


@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("config", [TINY_MLP, TINY_CONV2], ids=["mlp", "small_conv"])
def test_forward_never_writes_its_input(config, center):
    """forward, loss_and_grad and input_gradient leave a C-contiguous input's bytes as
    they were, and a read-only broadcast input gives the results of its copy."""
    enc = Encoder(replace(config, center_input=center))
    params = enc.init_params(2)
    rng = np.random.default_rng(3)
    images = rng.uniform(size=(4,) + config.input_shape)
    broadcast = np.broadcast_to(images[:1], images.shape)

    def square(feats):
        return float(np.sum(feats * feats)), 2.0 * feats

    def run(x):
        before = x.tobytes()
        results = [enc.forward(params, x), enc.forward(params, x, "backbone"),
                   *enc.loss_and_grad(params, x, feature_loss())[1:],
                   enc.input_gradient(params, x, square),
                   enc.input_gradient(params, x, square, "projection")]
        assert x.tobytes() == before
        assert not any(np.shares_memory(out, x) for out in results)
        return results

    run(images)
    for a, b in zip(run(broadcast), run(broadcast.copy())):
        assert np.array_equal(a, b)


# ----- parameter layout ----------------------------------------------------------


def test_layout_sizes_sum_to_t(tiny):
    enc, params, _ = tiny
    total = sum(int(np.prod(shape)) for _, shape, _ in enc.layout)
    assert total == enc.n_params == params.size


def test_flatten_unflatten_roundtrip_bitwise(tiny):
    # the segments in layout order are the flat vector, and writing one writes the vector
    enc, params, _ = tiny
    flat = params.copy()
    named = enc.split_params(flat)
    rebuilt = np.concatenate([named[name].ravel() for name, _, _ in enc.layout])
    assert rebuilt.tobytes() == params.tobytes()
    for i, (name, _, offset) in enumerate(enc.layout):
        named[name].flat[0] = -1.0 - i
        assert flat[offset] == -1.0 - i


def test_tiny_mlp_is_under_two_hundred_params():
    assert Encoder(TINY_MLP).n_params <= 200


def test_wrong_length_param_vector_rejected(tiny):
    enc, params, _ = tiny
    with pytest.raises(ModelError):
        enc.split_params(params[:-1])


# ----- gradients ------------------------------------------------------------------


def test_constant_closure_has_zero_gradient(tiny):
    enc, params, images = tiny
    loss, grad = enc.loss_and_grad(
        params, images, lambda f: (1.5, np.zeros_like(f))
    )
    assert loss == 1.5
    assert np.all(grad == 0.0)


def test_gradient_is_linear_in_the_loss(tiny):
    enc, params, images = tiny
    fl1 = feature_loss(0.5)
    fl2 = lambda f: (float(np.sum(f**2)), 2.0 * f)

    def combined(f):
        l1, g1 = fl1(f)
        l2, g2 = fl2(f)
        return 2.0 * l1 + 0.3 * l2, 2.0 * g1 + 0.3 * g2

    _, g1 = enc.loss_and_grad(params, images, fl1)
    _, g2 = enc.loss_and_grad(params, images, fl2)
    _, gc = enc.loss_and_grad(params, images, combined)
    assert np.max(np.abs(gc - (2.0 * g1 + 0.3 * g2))) < 1e-8


def test_analytic_gradient_matches_finite_differences(tiny):
    enc, params, images = tiny
    fl = feature_loss(0.5)
    _, grad = enc.loss_and_grad(params, images, fl)
    fd = finite_diff_gradient(lambda q: enc.loss_and_grad(q, images, fl)[0], params, 1e-5)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4


def test_gradient_agreement_over_seeds():
    enc = Encoder(TINY_MLP)
    fl = feature_loss(0.5)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = enc.init_params(seed)
        images = rng.uniform(size=(4, 4, 4, 1))
        _, grad = enc.loss_and_grad(params, images, fl)
        fd = finite_diff_gradient(
            lambda q: enc.loss_and_grad(q, images, fl)[0], params, 1e-5
        )
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4


@pytest.mark.parametrize("config", [
    TINY_MLP, replace(TINY_MLP, center_input=False), TINY_LINEAR,
    TINY_CONV, replace(TINY_CONV, center_input=False), TINY_CONV2,
], ids=["mlp", "mlp_uncentered", "mlp_no_hidden", "small_conv", "small_conv_uncentered",
        "small_conv2_uncentered"])
def test_parameter_gradient_equals_a_full_backward_to_the_pixels(config):
    """loss_and_grad stops at the first weighted layer; the gradient keeps its bits."""
    enc = Encoder(config)
    params = enc.init_params(1)
    images = np.random.default_rng(2).uniform(size=(4,) + config.input_shape)
    fl = feature_loss(0.5)
    _, grad = enc.loss_and_grad(params, images, fl)
    z, p, caches = enc._forward(params, images, "projection")
    full = np.zeros(enc.n_params)
    enc._first_weighted = None  # no layer stops the loop: it runs on to the pixels
    pixels = enc._backward(p, fl(z)[1], caches, enc.split_params(full))
    assert pixels.shape == images.shape
    assert np.array_equal(grad, full)


@pytest.mark.parametrize("hidden", [(4,), (3, 4), (2, 3, 2)])
def test_col2im_runs_only_where_an_input_gradient_is_used(monkeypatch, hidden):
    config = replace(TINY_CONV, hidden=hidden)
    enc = Encoder(config)
    params = enc.init_params(1)
    images = np.random.default_rng(3).uniform(size=(4,) + config.input_shape)
    calls = []
    real = encoder_mod._col2im

    def counting(dcols, x_shape):
        calls.append(x_shape)
        return real(dcols, x_shape)

    monkeypatch.setattr(encoder_mod, "_col2im", counting)
    enc.loss_and_grad(params, images, feature_loss(0.5))
    assert len(calls) == len(hidden) - 1
    calls.clear()
    enc.input_gradient(params, images, lambda f: (0.0, np.ones_like(f)))
    assert len(calls) == len(hidden)


def test_finite_diff_on_scalar_square():
    grad = finite_diff_gradient(lambda q: float(q[0] ** 2), np.array([3.0]), 1e-5)
    assert abs(grad[0] - 6.0) < 1e-6


def test_finite_diff_constant_closure():
    grad = finite_diff_gradient(lambda q: 2.0, np.ones(4), 1e-5)
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("tap", ["backbone", "projection"])
def test_input_gradient_matches_finite_differences(tiny, tap):
    enc, params, images = tiny
    rng = np.random.default_rng(2)
    width = enc.backbone_dim if tap == "backbone" else enc.feature_dim
    upstream = rng.standard_normal((4, width))
    analytic = enc.input_gradient(params, images, lambda f: (np.sum(f * upstream), upstream),
                                  tap=tap)

    def value(x):
        return float(np.sum(enc.forward(params, x, tap=tap) * upstream))

    fd = np.zeros_like(images)
    flat_view = images.reshape(-1)
    fd_view = fd.reshape(-1)
    for i in range(flat_view.size):
        up, down = images.copy(), images.copy()
        up.reshape(-1)[i] += 1e-6
        down.reshape(-1)[i] -= 1e-6
        fd_view[i] = (value(up) - value(down)) / 2e-6
    assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4


def test_unknown_tap_raises(tiny):
    enc, params, images = tiny
    with pytest.raises(ModelError, match="unknown tap point"):
        enc.forward(params, images, tap="head")
    with pytest.raises(ModelError, match="unknown tap point"):
        enc.input_gradient(params, images, lambda f: (0.0, np.zeros_like(f)), tap="head")


def test_feature_continuity_under_small_perturbation(tiny):
    enc, params, images = tiny
    z = enc.forward(params, images)
    rng = np.random.default_rng(3)
    direction = rng.standard_normal(params.size)
    direction *= 1e-6 / np.linalg.norm(direction)
    z2 = enc.forward(params + direction, images)
    assert np.max(np.abs(z2 - z)) <= 1e-3


def test_non_finite_feature_loss_raises(tiny):
    enc, params, images = tiny
    with pytest.raises(ModelError):
        enc.loss_and_grad(params, images, lambda f: (float("nan"), np.zeros_like(f)))


# ----- checkpoints ----------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, tiny):
    enc, params, _ = tiny
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc, params, "confighash", epoch=7)
    ckpt = load_checkpoint(path)
    assert np.array_equal(ckpt.params, params)
    assert ckpt.encoder.config == enc.config
    assert ckpt.train_config_hash == "confighash"
    assert ckpt.epoch == 7
    assert ckpt.encoder.layout == enc.layout


def test_checkpoint_bytes_are_deterministic(tmp_path, tiny):
    enc, params, _ = tiny
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, enc, params, "h")
    save_checkpoint(b, enc, params, "h")
    assert a.read_bytes() == b.read_bytes()


def test_failed_checkpoint_write_keeps_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    enc = Encoder(TINY_MLP)
    params = enc.init_params(0)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc, params, "old")
    old = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, None, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(ModelError, match=f"^{re.escape(str(path))}: {os.strerror(errno.EXDEV)}$"):
        save_checkpoint(path, enc, params + 1.0, "new")
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["enc.ckpt"]


def test_checkpoint_layout_mismatch_fails_loudly(tmp_path):
    enc = Encoder(TINY_MLP)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc, enc.init_params(0), "h")
    blob = path.read_bytes()
    # corrupt the stored layout name
    path.write_bytes(blob.replace(b"proj1.W", b"proj9.W", 1))
    with pytest.raises(ModelError):
        load_checkpoint(path)


def test_checkpoint_truncated_payload_fails(tmp_path):
    enc = Encoder(TINY_MLP)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc, enc.init_params(0), "h")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ModelError):
        load_checkpoint(path)


def test_every_checkpoint_prefix_fails_cleanly(tmp_path):
    enc = Encoder(TINY_MLP)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc, enc.init_params(0), "h")
    blob = path.read_bytes()
    for length in range(len(blob)):
        path.write_bytes(blob[:length])
        with pytest.raises(ModelError):
            load_checkpoint(path)


def _checkpoint_parts(tmp_path):
    """(magic line, header dict, payload bytes) of a small valid checkpoint."""
    enc = Encoder(TINY_MLP)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc, enc.init_params(0), "h")
    blob = path.read_bytes()
    start = blob.index(b"\n") + 1
    (header_len,) = struct.unpack("<Q", blob[start:start + 8])
    end = start + 8 + header_len
    return blob[:start], json.loads(blob[start + 8:end]), blob[end:]


# (dotted path into the header, value): each loaded as a plausible checkpoint before
# the header values were checked, with the JSON type of the value coerced or a
# missing key filled in with a default; "layout.1.2" is the second segment's offset
_MALFORMED_VALUES = [
    ("encoder_config.center_input", "false"), ("encoder_config.center_input", 1),
    ("encoder_config.feature_dim", 4.9), ("encoder_config.feature_dim", 4.0),
    ("encoder_config.feature_dim", float("inf")), ("encoder_config.proj_hidden", 6.0),
    ("encoder_config.hidden", [6.5]), ("encoder_config.input_shape", [4, 4.0, 1]),
    ("encoder_config.spare", 1), ("layout.1.2", 96.0), ("train_config_hash", 5),
    ("epoch", 0.0), ("epoch", False), ("extra", []), ("spare", None),
]
_DROP = object()


@pytest.mark.parametrize("change", [
    None, "layout", "encoder_config", "train_config_hash", "epoch", "extra",
    "encoder_config.proj_hidden", "encoder_config.center_input",
] + [pytest.param(edit, id=f"{edit[0]}={edit[1]!r}") for edit in _MALFORMED_VALUES])
def test_corrupt_checkpoint_header_fails_cleanly(tmp_path, change):
    magic, header, payload = _checkpoint_parts(tmp_path)
    if change is None:
        corrupt = b"{not json"
    else:
        key, value = (change, _DROP) if isinstance(change, str) else change
        *parents, last = key.split(".")
        node = header
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        if value is _DROP:
            del node[last]
        else:
            node[int(last) if isinstance(node, list) else last] = value
        corrupt = json.dumps(header).encode()
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(magic + struct.pack("<Q", len(corrupt)) + corrupt + payload)
    with pytest.raises(ModelError):
        load_checkpoint(path)


@pytest.mark.parametrize("config", [TINY_MLP, TINY_CONV], ids=["mlp", "small_conv"])
def test_every_header_bit_flip_loads_or_fails_cleanly(tmp_path, config):
    # exhaustive over the magic, the length field and the json header; the payload is
    # raw float64, where every flip is a valid (different) parameter vector
    enc = Encoder(config)
    params = enc.init_params(0)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc, params, "h", epoch=3)
    blob = path.read_bytes()
    header_end = len(blob) - 8 * enc.n_params
    for i in range(header_end):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            path.write_bytes(flipped)
            try:
                ckpt = load_checkpoint(path)
            except ModelError:
                continue
            assert ckpt.encoder.layout == enc.layout
            assert np.array_equal(ckpt.params, params)


def test_deeply_nested_checkpoint_header_fails_cleanly(tmp_path):
    # json.loads recurses once per "[" and gives up with RecursionError
    magic, _, payload = _checkpoint_parts(tmp_path)
    nested = b"[" * 100_000
    path = tmp_path / "nested.ckpt"
    path.write_bytes(magic + struct.pack("<Q", len(nested)) + nested + payload)
    with pytest.raises(ModelError, match="corrupt checkpoint header"):
        load_checkpoint(path)


def test_not_a_checkpoint_fails(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ModelError):
        load_checkpoint(path)


def test_config_validation():
    with pytest.raises(ModelError):
        EncoderConfig(architecture="resnet50")
    with pytest.raises(ModelError):
        EncoderConfig(input_shape=(4, 4, 2))
    with pytest.raises(ModelError):
        EncoderConfig(architecture="small_conv", hidden=())


@pytest.mark.parametrize("overrides", [
    dict(feature_dim=4.5), dict(feature_dim=4.0), dict(feature_dim=True),
    dict(hidden=(6.5,)), dict(hidden=(6, False)), dict(proj_hidden=2.0),
    dict(input_shape=(16.0, 16, 1)), dict(input_shape=(16, 16, True)),
    dict(center_input="false"), dict(center_input=1), dict(feature_dim="4"),
], ids=repr)
def test_config_refuses_non_integral_sizes_and_non_bool_centering(overrides):
    with pytest.raises(ModelError):
        EncoderConfig(**overrides)


def test_config_keeps_integral_sizes_as_ints():
    cfg = EncoderConfig(input_shape=[16, np.int64(16), 1], hidden=[np.int32(6)],
                        feature_dim=np.int64(4), proj_hidden=np.uint8(3))
    assert cfg == EncoderConfig(input_shape=(16, 16, 1), hidden=(6,), feature_dim=4,
                                proj_hidden=3)
    assert all(type(x) is int for x in (*cfg.input_shape, *cfg.hidden, cfg.feature_dim,
                                         cfg.proj_hidden))
    assert type(Encoder(cfg).n_params) is int
