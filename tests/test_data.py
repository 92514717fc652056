"""Data layer tests: batches, windowing, resampling, splits, file formats,
and the synthetic generator."""

import numpy as np
import pytest

from fedvib.data import (
    TRAIN_FRACTION,
    VAL_FRACTION,
    Dataset,
    SynthConfig,
    VibrationBatch,
    bearing_column,
    chronological_split,
    downsample,
    downsample_dataset,
    generate_synthetic,
    ims_timestamp,
    load_csv_dataset,
    load_ims_dataset,
    save_csv_dataset,
    split_counts,
    standardize_dataset,
    windows_for_batches,
)
from fedvib.errors import ConfigError, IngestionError, ShapeError


def _batch(samples, ts=0.0, rate=100.0, label=None):
    return VibrationBatch(timestamp=ts, samples=np.asarray(samples, dtype=np.float32),
                          sampling_rate_hz=rate, label=label)


# -- containers --------------------------------------------------------------

def test_batch_coerces_to_float32_and_validates():
    b = VibrationBatch(timestamp=1.0, samples=np.ones((4, 2), dtype=np.float64),
                       sampling_rate_hz=10.0)
    assert b.samples.dtype == np.float32
    assert b.feature_count == 2
    with pytest.raises(ShapeError):
        VibrationBatch(timestamp=0.0, samples=np.ones(5, dtype=np.float32),
                       sampling_rate_hz=10.0)
    with pytest.raises(ConfigError):
        VibrationBatch(timestamp=0.0, samples=np.ones((4, 1), dtype=np.float32),
                       sampling_rate_hz=0.0)
    with pytest.raises(ConfigError):
        _batch(np.ones((4, 1)), label="broken")


def test_dataset_requires_increasing_timestamps_and_uniform_features():
    good = Dataset("s", [_batch(np.ones((4, 1)), ts=0.0),
                         _batch(np.ones((4, 1)), ts=1.0)])
    assert len(good) == 2 and good.feature_count == 1
    with pytest.raises(IngestionError):
        Dataset("s", [_batch(np.ones((4, 1)), ts=1.0),
                      _batch(np.ones((4, 1)), ts=1.0)])
    with pytest.raises(IngestionError):
        Dataset("s", [_batch(np.ones((4, 1)), ts=0.0),
                      _batch(np.ones((4, 2)), ts=1.0)])


# -- windowing ---------------------------------------------------------------

def test_windows_for_batches_stacks_and_tracks_owners():
    batches = [
        _batch(np.arange(250, dtype=np.float32).reshape(250, 1), ts=0.0),
        _batch(np.zeros((99, 1), dtype=np.float32), ts=1.0),   # too short
        _batch(np.arange(100, dtype=np.float32).reshape(100, 1) + 1000, ts=2.0),
    ]
    windows, owners = windows_for_batches(batches, 100)
    assert windows.shape == (3, 100, 1)
    assert windows.dtype == np.float32
    assert owners.tolist() == [0, 0, 2]
    assert float(windows[2, 0, 0]) == 1000.0
    # the remainder is dropped: 250 samples give samples 0..199
    assert float(windows[1, -1, 0]) == 199.0
    windows, _ = windows_for_batches(
        [_batch(np.arange(800, dtype=np.float32).reshape(800, 1))], 100)
    assert windows.shape == (8, 100, 1) and float(windows[3, 0, 0]) == 300.0
    # exact length -> one window; shorter -> none
    assert len(windows_for_batches([_batch(np.zeros((100, 1)))], 100)[0]) == 1
    assert len(windows_for_batches([_batch(np.zeros((99, 1)))], 100)[0]) == 0
    empty, owners = windows_for_batches([], 100)
    assert empty.shape == (0, 100, 0) and owners.size == 0
    for bad in (0, -5):
        with pytest.raises(ConfigError, match="window_size"):
            windows_for_batches(batches, bad)


# -- resampling --------------------------------------------------------------

def test_downsample_mean_pools_groups():
    b = _batch(np.arange(1, 11, dtype=np.float32).reshape(10, 1), rate=20.0)
    out = downsample(b, 5)
    assert out.samples.tolist() == [[3.0], [8.0]]
    assert out.sampling_rate_hz == 4.0
    assert out.samples.dtype == np.float32


def test_downsample_decimate_keeps_first_of_each_group():
    b = _batch(np.arange(1, 11, dtype=np.float32).reshape(10, 1), rate=20.0)
    out = downsample(b, 5, method="decimate")
    assert out.samples.tolist() == [[1.0], [6.0]]


def test_downsample_drops_trailing_partial_group():
    b = _batch(np.arange(12, dtype=np.float32).reshape(12, 1))
    out = downsample(b, 5)
    assert out.samples.shape == (2, 1)


def test_downsample_mean_preserves_signal_mean():
    rng = np.random.default_rng(3)
    b = _batch(rng.normal(size=(2000, 3)).astype(np.float32), rate=20480.0)
    out = downsample(b, 5)
    assert out.sampling_rate_hz == pytest.approx(4096.0)
    assert np.allclose(out.samples.mean(axis=0, dtype=np.float64),
                       b.samples.mean(axis=0, dtype=np.float64), atol=1e-6)


def test_downsample_validation_and_identity():
    b = _batch(np.ones((10, 1)))
    with pytest.raises(ConfigError):
        downsample(b, 0)
    with pytest.raises(ConfigError):
        downsample(b, 2.5)
    with pytest.raises(ConfigError):
        downsample(b, 2, method="fft")
    same = downsample(b, 1)
    assert np.array_equal(same.samples, b.samples)
    assert same.samples is not b.samples


def test_downsample_dataset_maps_all_batches():
    ds = Dataset("s", [_batch(np.ones((10, 1)), ts=0.0, rate=20.0),
                       _batch(np.ones((10, 1)), ts=1.0, rate=20.0)])
    out = downsample_dataset(ds, 5)
    assert [b.samples.shape for b in out.batches] == [(2, 1), (2, 1)]
    assert all(b.sampling_rate_hz == 4.0 for b in out.batches)


# -- chronological split -----------------------------------------------------

def test_split_counts_pinned_examples():
    assert split_counts(984) == (632, 56, 296)
    assert split_counts(10) == (6, 1, 3)
    with pytest.raises(ConfigError):
        split_counts(2)


def test_split_counts_disjoint_exhaustive_and_fraction_bounds():
    for n in range(3, 120):
        tr, va, te = split_counts(n)
        assert tr >= 1 and va >= 0 and te >= 0
        assert tr + va + te == n
        segment = tr + va
        # floor() can undershoot the target fraction by at most one batch
        assert segment / n <= TRAIN_FRACTION + 1e-9
        assert segment / n > TRAIN_FRACTION - 1.0 / n
        # ceil() can overshoot the validation share by at most one batch
        assert va >= segment * VAL_FRACTION - 1e-6
        assert va < segment * VAL_FRACTION + 1


def test_chronological_split_preserves_order():
    ds = Dataset("s", [_batch(np.full((4, 1), i, dtype=np.float32), ts=float(i))
                       for i in range(10)])
    train, val, test = chronological_split(ds)
    assert [b.timestamp for b in train] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert [b.timestamp for b in val] == [6.0]
    assert [b.timestamp for b in test] == [7.0, 8.0, 9.0]


# -- IMS files ---------------------------------------------------------------

def _write_ims_file(directory, name, table):
    lines = ["\t".join(f"{v:.3f}" for v in row) for row in table]
    (directory / name).write_text("\n".join(lines) + "\n")


def test_ims_timestamp_parses_utc_epoch():
    assert ims_timestamp("2004.02.12.10.32.39") == 1076581959.0
    with pytest.raises(IngestionError):
        ims_timestamp("readme.txt")


def test_bearing_column_both_layouts():
    assert [bearing_column(8, b) for b in (1, 2, 3, 4)] == [0, 2, 4, 6]
    assert [bearing_column(4, b) for b in (1, 2, 3, 4)] == [0, 1, 2, 3]
    with pytest.raises(IngestionError):
        bearing_column(5, 1)
    with pytest.raises(ConfigError):
        bearing_column(8, 0)


def test_load_ims_dataset_selects_bearing_channel(tmp_path):
    names = ["2004.02.12.10.32.39", "2004.02.12.10.42.39", "2004.02.12.10.52.39"]
    for k, name in enumerate(names):
        table = np.zeros((4, 8))
        for c in range(8):
            table[:, c] = 100.0 * k + c
        _write_ims_file(tmp_path, name, table)
    (tmp_path / "notes.txt").write_text("ignored\n")
    ds = load_ims_dataset(tmp_path, bearing=3)
    assert len(ds) == 3
    assert ds.feature_count == 1
    assert [b.timestamp for b in ds.batches] == sorted(b.timestamp for b in ds.batches)
    # bearing 3 with 8 columns is column 4
    assert [float(b.samples[0, 0]) for b in ds.batches] == [4.0, 104.0, 204.0]
    assert all(b.sampling_rate_hz == 20480.0 for b in ds.batches)


def test_load_ims_dataset_four_column_layout(tmp_path):
    table = np.tile(np.array([[10.0, 20.0, 30.0, 40.0]]), (4, 1))
    _write_ims_file(tmp_path, "2004.02.12.10.32.39", table)
    ds = load_ims_dataset(tmp_path, bearing=2)
    assert float(ds.batches[0].samples[0, 0]) == 20.0


def test_ims_parse_errors_carry_path_and_line(tmp_path):
    p = tmp_path / "2004.02.12.10.32.39"
    p.write_text("0.1\t0.2\n0.3\t0.4\n0.5\toops\n")
    with pytest.raises(IngestionError) as err:
        load_ims_dataset(tmp_path, bearing=1)
    assert "oops" in str(err.value)
    assert ":3:" in str(err.value)

    p.write_text("0.1\t0.2\n0.3\n")
    with pytest.raises(IngestionError) as err:
        load_ims_dataset(tmp_path, bearing=1)
    assert ":2:" in str(err.value)
    assert "columns" in str(err.value)

    p.write_text("")
    with pytest.raises(IngestionError) as err:
        load_ims_dataset(tmp_path, bearing=1)
    assert "empty" in str(err.value)


def test_load_ims_dataset_empty_directory(tmp_path):
    with pytest.raises(IngestionError) as err:
        load_ims_dataset(tmp_path, bearing=1)
    assert "no IMS measurement files" in str(err.value)


# -- CSV batch format --------------------------------------------------------

def test_csv_dataset_round_trip_is_bitwise_exact(tmp_path):
    rng = np.random.default_rng(11)
    batches = [
        VibrationBatch(timestamp=1000.0 + 60.0 * i,
                       samples=rng.normal(size=(30, 2)).astype(np.float32),
                       sampling_rate_hz=4096.0,
                       label="anomalous" if i == 2 else "normal")
        for i in range(3)
    ]
    batches.append(VibrationBatch(timestamp=5000.0,
                                  samples=rng.normal(size=(30, 2)).astype(np.float32),
                                  sampling_rate_hz=4096.0, label=None))
    ds = Dataset("rig-a", batches)
    manifest = save_csv_dataset(ds, tmp_path / "out")
    assert manifest.name == "manifest.csv"
    back = load_csv_dataset(manifest, source_id="rig-a")
    assert back.source_id == "rig-a"
    assert len(back) == len(ds)
    for orig, re_read in zip(ds.batches, back.batches):
        assert re_read.timestamp == orig.timestamp
        assert re_read.sampling_rate_hz == orig.sampling_rate_hz
        assert re_read.label == orig.label
        assert re_read.samples.dtype == np.float32
        assert np.array_equal(re_read.samples, orig.samples)  # 9 sig digits


def test_load_csv_dataset_accepts_directory_path(tmp_path):
    ds = Dataset("s", [_batch(np.ones((5, 1)), ts=0.0)])
    save_csv_dataset(ds, tmp_path)
    back = load_csv_dataset(tmp_path)
    assert len(back) == 1


def test_csv_manifest_errors(tmp_path):
    (tmp_path / "manifest.csv").write_text("file,when\nx.csv,1\n")
    with pytest.raises(IngestionError) as err:
        load_csv_dataset(tmp_path)
    assert "header" in str(err.value)

    (tmp_path / "manifest.csv").write_text(
        "path,timestamp,sampling_rate_hz,label\nb.csv,zero,100.0,\n")
    with pytest.raises(IngestionError) as err:
        load_csv_dataset(tmp_path)
    assert ":2:" in str(err.value)

    (tmp_path / "manifest.csv").write_text(
        "path,timestamp,sampling_rate_hz,label\nb.csv,0.0,100.0,weird\n")
    with pytest.raises(IngestionError) as err:
        load_csv_dataset(tmp_path)
    assert "label" in str(err.value)

    (tmp_path / "manifest.csv").write_text(
        "path,timestamp,sampling_rate_hz,label\nmissing.csv,0.0,100.0,\n")
    with pytest.raises(IngestionError):
        load_csv_dataset(tmp_path)

    with pytest.raises(IngestionError):
        load_csv_dataset(tmp_path / "nowhere")


def test_csv_batch_header_error(tmp_path):
    bad = tmp_path / "b.csv"
    bad.write_text("a,b\n1,2\n")
    (tmp_path / "manifest.csv").write_text(
        "path,timestamp,sampling_rate_hz,label\nb.csv,0.0,100.0,\n")
    with pytest.raises(IngestionError) as err:
        load_csv_dataset(tmp_path)
    assert "'t,'" in str(err.value)


# -- synthetic generator -----------------------------------------------------

def test_synth_is_deterministic_per_seed():
    cfg = SynthConfig(n_batches=5, batch_len=64, anomaly_indices=(3,))
    a = generate_synthetic(cfg, seed=7)
    b = generate_synthetic(cfg, seed=7)
    c = generate_synthetic(cfg, seed=8)
    for x, y in zip(a.batches, b.batches):
        assert np.array_equal(x.samples, y.samples)
    assert not np.array_equal(a.batches[0].samples, c.batches[0].samples)


def test_synth_labels_and_timestamps():
    cfg = SynthConfig(n_batches=6, batch_len=32, anomaly_indices=(1, 4),
                      start_timestamp=100.0, batch_interval_s=60.0)
    ds = generate_synthetic(cfg, seed=0)
    assert [b.label for b in ds.batches] == [
        "normal", "anomalous", "normal", "normal", "anomalous", "normal"]
    assert [b.timestamp for b in ds.batches] == [100.0, 160.0, 220.0, 280.0, 340.0, 400.0]
    assert ds.feature_count == cfg.feature_count


def test_synth_anomaly_scales_rms_by_factor():
    cfg = SynthConfig(n_batches=40, batch_len=400, anomaly_indices=(20,),
                      anomaly_amplitude_factor=2.0)
    ds = generate_synthetic(cfg, seed=5)
    rms = [float(np.sqrt(np.mean(b.samples.astype(np.float64) ** 2)))
           for b in ds.batches]
    normal_rms = np.mean([r for i, r in enumerate(rms) if i != 20])
    assert rms[20] / normal_rms == pytest.approx(2.0, rel=0.10)


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_batches=0)
    with pytest.raises(ConfigError):
        SynthConfig(anomaly_indices=(250,))
    with pytest.raises(ConfigError):
        SynthConfig(base_frequencies=(50.0,), base_amplitudes=(1.0, 0.5))
    with pytest.raises(ConfigError):
        SynthConfig(anomaly_amplitude_factor=0.0)


def test_standardize_dataset_centers_and_scales():
    cfg = SynthConfig(n_batches=10, batch_len=256)
    ds = standardize_dataset(generate_synthetic(cfg, seed=2))
    stacked = np.concatenate([b.samples for b in ds.batches], axis=0)
    assert np.allclose(stacked.mean(axis=0, dtype=np.float64), 0.0, atol=1e-4)
    assert np.allclose(stacked.std(axis=0, dtype=np.float64), 1.0, atol=1e-3)


def test_standardize_dataset_handles_constant_feature():
    ds = Dataset("s", [_batch(np.full((8, 1), 4.0, dtype=np.float32), ts=0.0),
                       _batch(np.full((8, 1), 4.0, dtype=np.float32), ts=1.0)])
    out = standardize_dataset(ds)
    assert np.allclose(out.batches[0].samples, 0.0)
