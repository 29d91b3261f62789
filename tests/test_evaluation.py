import numpy as np
import pytest

from sharpshift.encoder import Encoder, EncoderConfig
from sharpshift.errors import EvaluationError
from sharpshift.evaluation import (
    FGSM_DEFAULT_EPSILON,
    AttackConfig,
    ProbeConfig,
    ProbeModel,
    clean_accuracy,
    fgsm_attack,
    robust_accuracy,
    top_k_accuracy,
    train_linear_probe,
)

from oracles import top_k_by_sorting


class TableEncoder:
    """Stand-in encoder mapping each image to a fixed feature row."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def forward(self, params, images, tap="backbone"):
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        idx = np.round(images.reshape(images.shape[0], -1)[:, 0] * 10).astype(int)
        return self.table[idx]

    def input_gradient(self, params, images, feature_loss, tap="backbone"):
        return np.zeros_like(np.asarray(images, dtype=float))


def small_real_encoder():
    cfg = EncoderConfig(
        architecture="mlp", input_shape=(4, 4, 1), hidden=(8,), feature_dim=4,
        proj_hidden=8,
    )
    enc = Encoder(cfg)
    return enc, enc.init_params(0)


def onehot_dataset():
    # feature = class indicator via the table encoder
    images = np.array([[i / 10.0] * 16 for i in range(3)] * 5).reshape(15, 4, 4, 1)
    labels = np.tile(np.arange(3), 5)
    return images, labels


# ----- train_linear_probe -------------------------------------------------------


def test_one_hot_features_reach_full_train_accuracy():
    table = np.eye(3)
    enc = TableEncoder(table)
    images, labels = onehot_dataset()
    weights = train_linear_probe(
        enc, None, (images, labels), ProbeConfig(epochs=20, lr=2.0)
    )
    logits = enc.forward(None, images) @ weights.T
    assert top_k_accuracy(logits, labels, 1) == 1.0


def test_probe_never_touches_encoder_params():
    enc, params = small_real_encoder()
    before = params.copy()
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(20, 4, 4, 1))
    labels = rng.integers(0, 2, size=20)
    labels[:2] = [0, 1]
    train_linear_probe(enc, params, (images, labels), ProbeConfig(epochs=5))
    assert np.array_equal(params, before)


def test_probe_accuracy_matches_prediction_count_oracle():
    enc, params = small_real_encoder()
    rng = np.random.default_rng(1)
    images = rng.uniform(size=(20, 4, 4, 1))
    labels = np.array([0] * 10 + [1] * 10)
    cfg = ProbeConfig(epochs=50, lr=1.0, seed=3)
    weights = train_linear_probe(enc, params, (images, labels), cfg)
    logits = enc.forward(params, images, tap=cfg.tap_point) @ weights.T
    predictions = np.argmax(logits, axis=1)
    expected = float(np.sum(predictions == labels)) / 20.0
    assert top_k_accuracy(logits, labels, 1) == pytest.approx(expected)


def test_probe_missing_class_raises():
    enc, params = small_real_encoder()
    images = np.random.default_rng(2).uniform(size=(6, 4, 4, 1))
    with pytest.raises(EvaluationError, match=r"classes \[1\]"):
        train_linear_probe(enc, params, (images, np.array([0, 2] * 3)), ProbeConfig())


def test_probe_is_deterministic_per_seed():
    enc, params = small_real_encoder()
    rng = np.random.default_rng(3)
    images = rng.uniform(size=(10, 4, 4, 1))
    labels = np.array([0, 1] * 5)
    w1 = train_linear_probe(enc, params, (images, labels), ProbeConfig(seed=9))
    w2 = train_linear_probe(enc, params, (images, labels), ProbeConfig(seed=9))
    assert np.array_equal(w1, w2)


# ----- top_k_accuracy -------------------------------------------------------------


def test_top_m_is_always_one():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((30, 7))
    labels = rng.integers(0, 7, size=30)
    assert top_k_accuracy(logits, labels, 7) == 1.0


def test_argmax_miss_scores_zero():
    assert top_k_accuracy(np.array([[0.9, 0.1]]), np.array([1]), 1) == 0.0


def test_matches_sort_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((100, 10))
    labels = rng.integers(0, 10, size=100)
    for k in (1, 3, 5, 10):
        assert top_k_accuracy(logits, labels, k) == pytest.approx(
            top_k_by_sorting(logits, labels, k)
        )


def test_tie_breaks_toward_lower_class_index():
    logits = np.array([[0.5, 0.5, 0.1]])
    assert top_k_accuracy(logits, np.array([0]), 1) == 1.0
    assert top_k_accuracy(logits, np.array([1]), 1) == 0.0


def test_non_decreasing_in_k():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((50, 6))
    labels = rng.integers(0, 6, size=50)
    accs = [top_k_accuracy(logits, labels, k) for k in range(1, 7)]
    assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))


def test_single_rows_are_not_batches():
    with pytest.raises(EvaluationError, match="need a batch"):
        top_k_accuracy(np.array([0.9, 0.1]), 0, 1)
    with pytest.raises(EvaluationError, match="need a batch"):
        top_k_accuracy(np.zeros((2, 3)), np.zeros(3, dtype=int), 1)


def test_k_out_of_range_raises():
    with pytest.raises(EvaluationError):
        top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), 0)
    with pytest.raises(EvaluationError):
        top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), 4)


@pytest.mark.parametrize("label, k", [(5, 1), (3, 3), (-1, 3)])
def test_a_label_outside_the_logit_classes_is_refused(label, k):
    """A label the logits cannot rank would be scored as a miss."""
    with pytest.raises(EvaluationError, match=rf"labels must lie in \[0, 3\), got {label}$"):
        top_k_accuracy(np.zeros((2, 3)), [0, label], k)


def test_probe_refuses_a_negative_label():
    """-1 would index the last class's logits and train as that class."""
    enc, params = small_real_encoder()
    images = np.random.default_rng(2).uniform(size=(4, 4, 4, 1))
    with pytest.raises(EvaluationError, match="labels must be non-negative, got -1$"):
        train_linear_probe(enc, params, (images, np.array([0, 1, 1, -1])), ProbeConfig())


# ----- fgsm -----------------------------------------------------------------------


def probe_model():
    enc, params = small_real_encoder()
    rng = np.random.default_rng(7)
    images = rng.uniform(size=(30, 4, 4, 1))
    labels = np.array([0, 1] * 15)
    weights = train_linear_probe(enc, params, (images, labels),
                                 ProbeConfig(epochs=30, lr=1.0))
    return ProbeModel(encoder=enc, params=params, weights=weights), images, labels


def test_epsilon_zero_returns_input_exactly():
    model, images, labels = probe_model()
    out = fgsm_attack(model, images, labels, AttackConfig(epsilon=0.0))
    assert np.array_equal(out, images)


def test_default_budget_is_8_over_255():
    assert AttackConfig().epsilon == pytest.approx(8.0 / 255.0)
    assert FGSM_DEFAULT_EPSILON == pytest.approx(8.0 / 255.0)


def test_attack_respects_norm_and_range_constraints():
    model, images, labels = probe_model()
    cfg = AttackConfig(epsilon=8.0 / 255.0)
    out = fgsm_attack(model, images, labels, cfg)
    assert np.max(np.abs(out - images)) <= cfg.epsilon + 1e-12
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_robust_accuracy_equals_clean_at_zero_epsilon():
    model, images, labels = probe_model()
    clean = clean_accuracy(model, (images, labels), k=1)
    robust = robust_accuracy(model, (images, labels), AttackConfig(epsilon=0.0))
    assert robust == clean


def test_constant_model_is_immune():
    model, images, labels = probe_model()
    constant = ProbeModel(
        encoder=TableEncoder(np.eye(3)), params=None, weights=np.zeros((2, 3))
    )
    fake_images = np.zeros((6, 4, 4, 1))
    fake_labels = np.array([0, 1] * 3)
    clean = clean_accuracy(constant, (fake_images, fake_labels), k=1)
    robust = robust_accuracy(
        constant, (fake_images, fake_labels), AttackConfig(epsilon=8.0 / 255.0)
    )
    assert robust == clean


def test_robust_accuracy_matches_manual_composition():
    model, images, labels = probe_model()
    cfg = AttackConfig(epsilon=8.0 / 255.0)
    robust = robust_accuracy(model, (images, labels), cfg)
    attacked = fgsm_attack(model, images, labels, cfg)
    manual = top_k_accuracy(model.logits(attacked), labels, 1)
    assert robust == manual


def test_attack_usually_does_not_help():
    model, images, labels = probe_model()
    clean = clean_accuracy(model, (images, labels), k=1)
    robust = robust_accuracy(model, (images, labels), AttackConfig(epsilon=0.05))
    assert robust <= clean + 1e-12


def test_config_validation():
    with pytest.raises(EvaluationError):
        AttackConfig(epsilon=-0.1)
    with pytest.raises(EvaluationError):
        ProbeConfig(epochs=0)
    with pytest.raises(EvaluationError):
        ProbeConfig(tap_point="middle")
    for bad in ({"lr": np.nan}, {"lr": np.inf}, {"tau": np.nan}, {"tau": np.inf},
                {"seed": -1}, {"seed": 2**64}):
        with pytest.raises(EvaluationError):
            ProbeConfig(**bad)
