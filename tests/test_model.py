"""Autoencoder assembly, training behavior, scores, thresholds, metrics."""

import tracemalloc

import numpy as np
import pytest

from conftest import fd_gradients, fd_gradients_smooth, gradient_errors, sine_windows
from fedvib.data import VibrationBatch, windows_for_batches
from fedvib.errors import ConfigError, ShapeError
from fedvib.model import (
    AnomalyVerdict,
    AutoencoderConfig,
    LstmAutoencoder,
    ThresholdModel,
    batch_anomaly_score,
    build_autoencoder,
    evaluate_detection,
    evaluate_loss,
    score_batches,
    train_epochs,
    window_scores,
)
from fedvib.nn import TrainConfig, mse_grad, mse_loss, relu, relu_grad


# -- configuration -----------------------------------------------------------

def test_config_paper_defaults():
    cfg = AutoencoderConfig(feature_count=1)
    assert cfg.window_size == 100
    assert cfg.outer_layer_sizes == (128,)
    assert cfg.encoding_size == 16


def test_config_validation():
    with pytest.raises(ConfigError):
        AutoencoderConfig(feature_count=0)
    with pytest.raises(ConfigError):
        AutoencoderConfig(feature_count=1, window_size=1)
    with pytest.raises(ConfigError):
        AutoencoderConfig(feature_count=1, outer_layer_sizes=())
    with pytest.raises(ConfigError):
        # encoding must compress the flattened window
        AutoencoderConfig(feature_count=1, window_size=4, encoding_size=4,
                          outer_layer_sizes=(8,))


def test_param_count_matches_built_model():
    # an LSTM i -> h holds 4h(i + h + 1) values, the dense h -> f holds f(h + 1)
    for cfg, expect in [
        (AutoencoderConfig(feature_count=1, window_size=8, outer_layer_sizes=(8,),
                           encoding_size=4),
         320 + 208 + 144 + 416 + 9),           # 1->8, 8->4 | 4->4, 4->8 | 8->1
        (AutoencoderConfig(feature_count=3, window_size=10, outer_layer_sizes=(6, 5),
                           encoding_size=2),
         240 + 240 + 64 + 40 + 160 + 288 + 21),  # 3->6, 6->5, 5->2 | 2->2, 2->5, 5->6 | 6->3
    ]:
        model = build_autoencoder(cfg, seed=0)
        assert model.param_count() == expect


def test_parameter_layout_is_architecture_ordered():
    cfg = AutoencoderConfig(feature_count=1, window_size=8, outer_layer_sizes=(6, 5),
                            encoding_size=3)
    model = build_autoencoder(cfg, seed=0)
    names = list(model.param_refs().keys())
    assert names[:3] == ["enc0.W", "enc0.U", "enc0.b"]
    assert "code.W" in names and names[-2:] == ["out.W", "out.b"]
    # decoder mirrors: enc widths (6, 5) -> dec widths (3, 5, 6)
    refs = model.param_refs()
    assert refs["dec0.U"].shape == (12, 3)
    assert refs["dec1.U"].shape == (20, 5)
    assert refs["dec2.U"].shape == (24, 6)


def test_build_deterministic_under_seed():
    cfg = AutoencoderConfig(feature_count=1, window_size=6, outer_layer_sizes=(5,),
                            encoding_size=3)
    w1 = build_autoencoder(cfg, seed=3).weights_dict()
    w2 = build_autoencoder(cfg, seed=3).weights_dict()
    w3 = build_autoencoder(cfg, seed=4).weights_dict()
    assert all(w1[k].tobytes() == w2[k].tobytes() for k in w1)
    assert any(w1[k].tobytes() != w3[k].tobytes() for k in w1)


# -- forward / backward ------------------------------------------------------

def test_forward_shape_and_input_validation(tiny_model, tiny_config):
    x = sine_windows(4, tiny_config.window_size, 1, seed=1)
    y, _ = tiny_model.forward(x)
    assert y.shape == x.shape
    with pytest.raises(ShapeError):
        tiny_model.forward(x[:, :3, :])


def test_backward_uses_the_cache_it_is_given(tiny_config):
    # a second forward between a forward and its backward changes nothing
    model = build_autoencoder(tiny_config, seed=7, dtype=np.float64)
    x1 = sine_windows(4, tiny_config.window_size, 1, seed=1).astype(np.float64)
    x2 = sine_windows(4, tiny_config.window_size, 1, seed=2).astype(np.float64)
    recon1, cache1 = model.forward(x1)
    model.forward(x2)
    interleaved = model.backward(mse_grad(x1, recon1), cache1)
    plain = _analytic_grads(build_autoencoder(tiny_config, seed=7, dtype=np.float64), x1)
    assert list(interleaved) == list(plain)
    assert all(interleaved[k].tobytes() == plain[k].tobytes() for k in plain)


def test_param_refs_are_bound_once(tiny_model, tiny_config):
    refs = tiny_model.param_refs()
    arrays = list(refs.values())
    other = build_autoencoder(tiny_config, seed=8).weights_dict()
    tiny_model.set_weights_dict(other)
    assert all(np.array_equal(refs[k], other[k]) for k in other)
    x = sine_windows(16, tiny_config.window_size, 1, seed=3)
    train_epochs(tiny_model, x, TrainConfig(batch_size=8), 2, seed=0)
    assert not np.array_equal(refs["enc0.W"], other["enc0.W"])
    assert all(a is b for a, b in zip(arrays, tiny_model.param_refs().values(), strict=True))


def test_set_weights_dict_rejects_a_wrong_layout(tiny_model):
    before = tiny_model.weights_dict()
    renamed = {("out.bias" if k == "out.b" else k): v for k, v in before.items()}
    reshaped = {**before, "out.W": np.zeros((2, 2), dtype=np.float32)}
    missing = {k: v for k, v in before.items() if k != "code.U"}
    for bad in (renamed, reshaped, missing):
        with pytest.raises(ShapeError):
            tiny_model.set_weights_dict(bad)
    after = tiny_model.param_refs()
    assert all(before[k].tobytes() == after[k].tobytes() for k in before)


def test_training_leaves_no_cache_behind():
    # one minibatch of the wide model caches about 45 MB for its backward
    cfg = AutoencoderConfig(feature_count=3, window_size=100, outer_layer_sizes=(128,),
                            encoding_size=16)
    model = build_autoencoder(cfg, seed=0)
    x = sine_windows(64, cfg.window_size, cfg.feature_count, seed=0)
    tracemalloc.start()
    try:
        result = train_epochs(model, x, TrainConfig(), 1, seed=0)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.train_losses
    assert retained < 5 * 2 ** 20, f"{retained / 2 ** 20:.1f} MB still allocated"


# (outer_layer_sizes, encoding_size): the C5 model, the wide default model
# and a model with a ReLU between its outer layers
SCORED_MODELS = [((4,), 2), ((128,), 16), ((4, 3), 2)]


def _three_feature_model(outer, encoding):
    cfg = AutoencoderConfig(feature_count=3, window_size=100, outer_layer_sizes=outer,
                            encoding_size=encoding)
    return build_autoencoder(cfg, seed=0)


@pytest.mark.parametrize("outer,encoding", SCORED_MODELS)
def test_reconstruct_equals_the_caching_forward(outer, encoding):
    model = _three_feature_model(outer, encoding)
    x = sine_windows(40, 100, 3, seed=1)
    recon, cache = model.forward(x)
    assert cache is not None and model.forward(x, False)[1] is None
    assert model.reconstruct(x).tobytes() == recon.tobytes()


@pytest.mark.parametrize("outer,encoding", SCORED_MODELS[:2])
def test_window_score_does_not_depend_on_the_chunk_edge(outer, encoding):
    model = _three_feature_model(outer, encoding)
    x = sine_windows(264, 100, 3, seed=2)
    # every window scored in a forward of 8
    want = np.concatenate([window_scores(model, x[s:s + 8])
                           for s in range(0, len(x), 8)])
    for n in range(257, 261):  # more than one RECONSTRUCT_CHUNK
        assert window_scores(model, x[:n]).tobytes() == want[:n].tobytes(), n


def test_scoring_peak_is_a_few_hidden_state_sequences():
    model = _three_feature_model((128,), 16)
    x = sine_windows(256, 100, 3, seed=0)
    # one pair's hidden states, [T + 1, 256, 128 + 16] float32: about 15 MB
    h_bytes = 101 * 256 * 144 * 4
    tracemalloc.start()
    try:
        window_scores(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * h_bytes, f"{peak / 2 ** 20:.1f} MB peak"


@pytest.mark.parametrize("outer,encoding", SCORED_MODELS[:2])
def test_score_batches_equals_scoring_batch_by_batch(outer, encoding):
    model = _three_feature_model(outer, encoding)
    rng = np.random.default_rng(5)
    # 60 batches of 8 windows; the one in the middle is too short for one
    lengths = [800] * 30 + [99] + [800] * 30
    batches = [VibrationBatch(timestamp=60.0 * i, samples=rng.standard_normal((n, 3)),
                              sampling_rate_hz=1.0, label=("normal", "anomalous")[i % 2])
               for i, n in enumerate(lengths)]
    threshold = ThresholdModel.calibrate([0.8, 1.0, 1.2])
    want = []
    for i, batch in enumerate(batches):
        ws, _ = windows_for_batches([batch], 100)
        if len(ws):
            score = batch_anomaly_score(window_scores(model, ws))
            want.append(AnomalyVerdict(
                batch_index=7 + i, timestamp=batch.timestamp, score=score,
                threshold=threshold.threshold, verdict=threshold.classify(score),
                label=batch.label))
    assert score_batches(model, batches, 7, threshold, 100) == want
    assert len(want) == 60


def _mse_of(model, x):
    return mse_loss(x, model.forward(x)[0])


def _analytic_grads(model, x):
    recon, cache = model.forward(x)
    return model.backward(mse_grad(x, recon), cache)


def test_model_gradients_match_finite_differences_smooth_config():
    # single outer layer: no ReLU anywhere, every point is smooth
    cfg = AutoencoderConfig(feature_count=1, window_size=5, outer_layer_sizes=(4,),
                            encoding_size=2)
    model = build_autoencoder(cfg, seed=2, dtype=np.float64)
    x = sine_windows(3, 5, 1, seed=6).astype(np.float64)
    analytic = _analytic_grads(model, x)
    numeric = fd_gradients(model, x, _mse_of, h=1e-4)
    max_rel, max_abs = gradient_errors(analytic, numeric)
    assert max_rel < 1e-4
    assert max_abs < 1e-6


def test_model_gradients_match_finite_differences_relu_path():
    # two outer layers so the inter-layer ReLU is exercised, float64.
    # ReLU kinks make finite differences invalid at some points; those are
    # detected (step-size dependence) and excluded, everything else must match.
    cfg = AutoencoderConfig(feature_count=1, window_size=5, outer_layer_sizes=(4, 3),
                            encoding_size=2)
    model = build_autoencoder(cfg, seed=2, dtype=np.float64)
    x = sine_windows(3, 5, 1, seed=6).astype(np.float64)
    analytic = _analytic_grads(model, x)
    numeric, smooth = fd_gradients_smooth(model, x, _mse_of, h=1e-4)

    total = sum(m.size for m in smooth.values())
    n_smooth = sum(int(m.sum()) for m in smooth.values())
    assert n_smooth >= 0.9 * total  # the check must not degenerate

    masked_a = {k: np.where(smooth[k], analytic[k], 0.0) for k in analytic}
    masked_n = {k: np.where(smooth[k], numeric[k], 0.0) for k in numeric}
    max_rel, max_abs = gradient_errors(masked_a, masked_n)
    assert max_rel < 1e-4
    assert max_abs < 1e-6


def _layer_by_layer(model, x):
    """Reconstruction and gradients of ``model`` (outer_layer_sizes=(4, 3)) run
    one layer at a time: enc0 ReLU enc1 code | dec0 dec1 ReLU dec2 out."""
    L = model._layers
    xt = x.transpose(1, 0, 2)
    T = xt.shape[0]
    e0, c_e0 = L["enc0"].forward(xt)
    e1, c_e1 = L["enc1"].forward(relu(e0))
    code, c_code = L["code"].forward(e1, return_sequences=False)
    d0, c_d0 = L["dec0"].forward(np.broadcast_to(code, (T,) + code.shape))
    d1, c_d1 = L["dec1"].forward(d0)
    d2, c_d2 = L["dec2"].forward(relu(d1))
    y, c_out = L["out"].forward(d2)
    recon = y.transpose(1, 0, 2)

    grads = {}
    d, grads["out"] = L["out"].backward(mse_grad(x, recon).transpose(1, 0, 2), c_out)
    d, grads["dec2"] = L["dec2"].backward(d, c_d2)
    d, grads["dec1"] = L["dec1"].backward(relu_grad(d, d1), c_d1)
    d, grads["dec0"] = L["dec0"].backward(d, c_d0)
    d, grads["code"] = L["code"].backward(d.sum(axis=0), c_code, return_sequences=False)
    d, grads["enc1"] = L["enc1"].backward(d, c_e1)
    d, grads["enc0"] = L["enc0"].backward(relu_grad(d, e0), c_e0)
    grads = {f"{name}.{k}": v for name, g in grads.items() for k, v in g.items()}
    return recon, {k: grads[k] for k in model.param_refs()}


def test_stacked_layers_without_relu_between_run_as_pairs():
    cfg = AutoencoderConfig(feature_count=2, window_size=6, outer_layer_sizes=(4, 3),
                            encoding_size=2)
    model = build_autoencoder(cfg, seed=2, dtype=np.float64)
    rng = np.random.default_rng(4)
    for name, arr in model.param_refs().items():
        if name.endswith(".b"):
            arr += rng.standard_normal(arr.shape)
    assert [names for names, *_ in model._stages] == [
        ("enc0",), ("enc1", "code"), ("dec0", "dec1"), ("dec2",)]

    x = sine_windows(3, 6, 2, seed=6).astype(np.float64)
    want_recon, want = _layer_by_layer(model, x)
    np.testing.assert_allclose(model.forward(x)[0], want_recon, rtol=1e-12, atol=1e-15)
    grads = _analytic_grads(model, x)
    assert list(grads) == list(want)
    for k in want:
        np.testing.assert_allclose(grads[k], want[k], rtol=1e-12,
                                   atol=1e-12 * np.abs(want[k]).max(), err_msg=k)


def test_l2_regularization_gradient_is_two_lambda_w():
    cfg = AutoencoderConfig(feature_count=1, window_size=5, outer_layer_sizes=(4,),
                            encoding_size=2)
    model = build_autoencoder(cfg, seed=0, dtype=np.float64)
    lam = 0.01
    # loss = lam * sum(w^2) over weight matrices only; check one W and one b
    w = model.param_refs()["enc0.W"]
    expected = 2 * lam * w
    h = 1e-6
    fd = np.zeros_like(w)
    flat, fdflat = w.ravel(), fd.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = lam * sum(float(np.sum(p * p)) for k, p in model.param_refs().items()
                       if k.endswith((".W", ".U")))
        flat[i] = keep - h
        down = lam * sum(float(np.sum(p * p)) for k, p in model.param_refs().items()
                         if k.endswith((".W", ".U")))
        flat[i] = keep
        fdflat[i] = (up - down) / (2 * h)
    np.testing.assert_allclose(fd, expected, rtol=1e-5, atol=1e-10)


# -- training ----------------------------------------------------------------

def test_training_reduces_loss(tiny_model, tiny_config):
    x = sine_windows(64, tiny_config.window_size, 1, seed=2)
    cfg = TrainConfig(learning_rate=5e-3, batch_size=16)
    res = train_epochs(tiny_model, x, cfg, 50, seed=1)
    assert res.train_losses[-1] < 0.5 * res.train_losses[0]


def test_training_is_deterministic(tiny_config):
    x = sine_windows(32, tiny_config.window_size, 1, seed=3)
    cfg = TrainConfig(learning_rate=3e-3, batch_size=8)
    out = []
    for _ in range(2):
        model = build_autoencoder(tiny_config, seed=5)
        train_epochs(model, x, cfg, 3, seed=9)
        out.append(model.weights_dict())
    assert all(out[0][k].tobytes() == out[1][k].tobytes() for k in out[0])


def test_training_zero_epochs_is_noop(tiny_model, tiny_config):
    x = sine_windows(8, tiny_config.window_size, 1, seed=4)
    before = tiny_model.weights_dict()
    res = train_epochs(tiny_model, x, TrainConfig(), 0, seed=0)
    after = tiny_model.weights_dict()
    assert res.train_losses == []
    assert all(before[k].tobytes() == after[k].tobytes() for k in before)


def test_training_weights_stay_finite(tiny_config):
    model = build_autoencoder(tiny_config, seed=1)
    x = sine_windows(32, tiny_config.window_size, 1, seed=5)
    res = train_epochs(model, x, TrainConfig(learning_rate=5e-3, batch_size=8), 100,
                       seed=2)
    assert all(np.isfinite(v).all() for v in model.param_refs().values())
    assert np.isfinite(res.train_losses).all()


def test_validation_loss_tracks_training(tiny_config):
    model = build_autoencoder(tiny_config, seed=3)
    train = sine_windows(96, tiny_config.window_size, 1, seed=6)
    val = sine_windows(24, tiny_config.window_size, 1, seed=7)
    cfg = TrainConfig(learning_rate=5e-3, batch_size=16)
    res = train_epochs(model, train, cfg, 60, val_windows=val, seed=3)
    # same stationary process: converged validation loss within 2x train loss
    assert res.val_losses[-1] < 2.0 * res.train_losses[-1]


def test_epoch_offset_continues_lr_schedule(tiny_config):
    # one 4-epoch run == two 2-epoch runs chained with epoch_offset
    x = sine_windows(16, tiny_config.window_size, 1, seed=8)
    cfg = TrainConfig(learning_rate=4e-3, batch_size=8)

    m1 = build_autoencoder(tiny_config, seed=11)
    train_epochs(m1, x, cfg, 4, seed=21)

    m2 = build_autoencoder(tiny_config, seed=11)
    r = train_epochs(m2, x, cfg, 2, seed=21, epoch_offset=0)
    train_epochs(m2, x, cfg, 2, seed=21, epoch_offset=2, adam_state=r.adam_state)

    w1, w2 = m1.weights_dict(), m2.weights_dict()
    assert all(w1[k].tobytes() == w2[k].tobytes() for k in w1)


# -- scores, thresholds, verdicts -------------------------------------------

def test_window_scores_match_per_window_mse(tiny_model, tiny_config):
    x = sine_windows(6, tiny_config.window_size, 1, seed=9)
    scores = window_scores(tiny_model, x)
    recon = tiny_model.reconstruct(x)
    for i in range(len(x)):
        assert scores[i] == pytest.approx(mse_loss(x[i], recon[i]), rel=1e-12)
    assert (scores >= 0).all()


def test_batch_anomaly_score_modes():
    s = [0.1, 0.2, 0.6]
    assert batch_anomaly_score(s, "mean") == pytest.approx(0.3)
    assert batch_anomaly_score(s, "max") == pytest.approx(0.6)
    with pytest.raises(ConfigError):
        batch_anomaly_score(s, "median")
    with pytest.raises(ShapeError):
        batch_anomaly_score([])


def test_threshold_calibration_modes():
    res = [1.0, 2.0, 3.0]  # mean 2, sample std 1
    literal = ThresholdModel.calibrate(res, delta=1.0, mode="paper_literal")
    assert literal.sigma_re == pytest.approx(1.0)
    assert literal.threshold == pytest.approx(1.0)
    augmented = ThresholdModel.calibrate(res, delta=1.0, mode="mean_plus_sigma")
    assert augmented.threshold == pytest.approx(3.0)
    zero_delta = ThresholdModel.calibrate(res, delta=0.0, mode="mean_plus_sigma")
    assert zero_delta.threshold == pytest.approx(2.0)


def test_threshold_floor_for_identical_references():
    tm = ThresholdModel.calibrate([0.5, 0.5, 0.5], delta=3.0)
    assert tm.threshold == pytest.approx(0.5 + 1e-9)
    single = ThresholdModel.calibrate([0.25], delta=3.0)
    assert single.threshold == pytest.approx(0.25 + 1e-9)


def test_threshold_monotone_in_delta():
    res = np.random.default_rng(4).uniform(0.1, 0.5, size=50)
    ts = [ThresholdModel.calibrate(res, delta=d).threshold for d in (1.0, 2.0, 3.0)]
    assert ts[0] < ts[1] < ts[2]


def test_threshold_validation():
    with pytest.raises(ShapeError):
        ThresholdModel.calibrate([])
    with pytest.raises(ConfigError):
        ThresholdModel.calibrate([1.0], mode="magic")
    with pytest.raises(ConfigError):
        ThresholdModel.calibrate([1.0], delta=-1.0)


def test_classification_boundary_is_inclusive_normal():
    tm = ThresholdModel.calibrate([1.0, 2.0, 3.0], delta=1.0, mode="mean_plus_sigma")
    assert tm.threshold == pytest.approx(3.0)
    assert tm.classify(3.0) == "normal"
    assert tm.classify(np.nextafter(3.0, 4.0)) == "anomalous"
    assert tm.classify(0.0) == "normal"


def test_verdict_record_fields():
    v = AnomalyVerdict(batch_index=5, timestamp=120.0, score=0.4, threshold=0.3,
                       verdict="anomalous", label="anomalous")
    assert v.batch_index == 5 and v.verdict == "anomalous"


# -- detection metrics -------------------------------------------------------

def test_detection_metrics_perfect():
    m = evaluate_detection([True, False, True], [True, False, True])
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert not m.degenerate


def test_detection_metrics_hand_derived():
    # 33 true positives, 2 false positives, no misses
    pred = [True] * 35 + [False] * 10
    truth = [True] * 33 + [False] * 12
    m = evaluate_detection(pred, truth)
    assert m.precision == pytest.approx(33 / 35)
    assert m.recall == pytest.approx(1.0)
    assert m.f1 == pytest.approx(2 * (33 / 35) / (1 + 33 / 35))
    assert m.f1 == pytest.approx(0.970588, abs=1e-6)


def test_detection_metrics_degenerate_zero():
    m = evaluate_detection([False, False], [True, False])
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert m.degenerate


def test_detection_metrics_length_mismatch():
    with pytest.raises(ShapeError):
        evaluate_detection([True], [True, False])


# -- separation sanity -------------------------------------------------------

def test_trained_model_separates_amplitude_anomalies(tiny_config):
    model = build_autoencoder(tiny_config, seed=6)
    train = sine_windows(96, tiny_config.window_size, 1, seed=10)
    train_epochs(model, train, TrainConfig(learning_rate=5e-3, batch_size=16), 40,
                 seed=4)
    normal = sine_windows(16, tiny_config.window_size, 1, seed=11)
    anomalous = normal * 2.0
    s_norm = window_scores(model, normal).mean()
    s_anom = window_scores(model, anomalous).mean()
    assert s_anom >= 2.0 * s_norm


def test_evaluate_loss_equals_reconstruction_mse(tiny_model, tiny_config):
    x = sine_windows(5, tiny_config.window_size, 1, seed=12)
    assert evaluate_loss(tiny_model, x) == pytest.approx(
        mse_loss(x, tiny_model.reconstruct(x)), rel=1e-12)
