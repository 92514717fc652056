"""Scenario runners, traffic accounting, CSV exports, and the sweep grid."""

import csv
import dataclasses
import json
import pickle

import numpy as np
import pytest

from fedvib.data import (
    SynthConfig,
    chronological_split,
    generate_synthetic,
    windows_for_batches,
)
from fedvib.errors import ConfigError, IngestionError, ShapeError, WireError
from fedvib.harness import (
    DatasetSpec,
    ExperimentConfig,
    cold_start_windows,
    export_results,
    load_config,
    load_model_checkpoint,
    load_raw_dataset,
    network_reduction,
    prepare_node,
    rank_results,
    run_centralized,
    run_cold_start,
    run_experiment,
    run_federation,
    run_historical,
    run_knowledge_transfer,
    sample_grid,
    save_model_checkpoint,
    search_space,
    sweep_hyperparameters,
)
from fedvib.harness.sweep import SweepPoint, SweepResult
from fedvib.model import (
    AutoencoderConfig,
    LstmAutoencoder,
    build_autoencoder,
    train_epochs,
)
from fedvib.nn import TrainConfig
from fedvib.proto import Register, encode_frame

ACFG = AutoencoderConfig(feature_count=1, window_size=10, outer_layer_sizes=(4,),
                         encoding_size=2)
TCFG = TrainConfig(batch_size=32, epochs=3)


def node_spec(i, n_batches=30, anomalies=(24, 27, 29)):
    """A single-tone node dataset with anomalies in its test region."""
    return DatasetSpec(
        id=f"m{i}", kind="synthetic", seed=100 + i,
        synth=SynthConfig(n_batches=n_batches, batch_len=120,
                          sampling_rate_hz=1000.0, feature_count=1,
                          base_frequencies=(50.0,), base_amplitudes=(1.0,),
                          noise_std=0.15, anomaly_indices=anomalies))


def make_config(scenario="historical", rounds=3, n_nodes=2, **overrides):
    base = dict(scenario=scenario,
                nodes=[node_spec(i) for i in range(1, n_nodes + 1)],
                autoencoder=ACFG, train=TCFG, rounds=rounds,
                epochs_per_round=1, delta=3.0, seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


# -- cold-start schedule ------------------------------------------------------

def test_cold_start_window_schedule_values():
    assert cold_start_windows(1) == 64
    assert cold_start_windows(10) == 640
    assert cold_start_windows(100) == 6400
    assert cold_start_windows(3, available=150) == 150
    assert cold_start_windows(2, available=150) == 128
    with pytest.raises(ConfigError):
        cold_start_windows(0)
    with pytest.raises(ConfigError):
        cold_start_windows(-5)


# -- historical scenario ------------------------------------------------------

def test_historical_run_shape_and_detection():
    cfg = make_config(rounds=3)
    res = run_historical(cfg)
    assert len(res.federation.records) == 3
    assert sorted(res.detection.verdicts) == ["m1", "m2"]
    # 30 batches -> 21 train-segment, 9 test
    for node, verdicts in res.detection.verdicts.items():
        assert len(verdicts) == 9
        assert [v.batch_index for v in verdicts] == list(range(21, 30))
    for rec in res.federation.records:
        train_loss = {cid: s.train_loss
                      for cid, node in res.federation.node_results.items()
                      for s in node.round_stats if s.round == rec.round}
        assert sorted(train_loss) == ["m1", "m2"]
        assert all(np.isfinite(v) for v in train_loss.values())
        assert rec.bytes_sent > 0 and rec.bytes_received > 0
    # the 2x-amplitude anomalies are easy: perfect detection expected
    for node, m in res.detection.metrics.items():
        assert m.f1 == 1.0, f"{node}: f1={m.f1}"
    # threshold trace: one entry per round plus the final calibration
    for trace in res.detection.threshold_trace.values():
        assert len(trace) == 4
        assert all(t > 0 for t in trace)
    assert not res.detection.untrained


def test_zero_round_run_is_flagged_untrained():
    res = run_historical(make_config(rounds=0))
    assert res.detection.untrained
    assert res.federation.records == []
    assert all(node.round_stats == [] for node in res.federation.node_results.values())
    for verdicts in res.detection.verdicts.values():
        assert len(verdicts) == 9  # scored, just with the initial model


def test_run_experiment_dispatches_on_scenario():
    res = run_experiment(make_config(scenario="historical", rounds=1))
    assert res.scenario == "historical"
    res = run_experiment(make_config(scenario="centralized", rounds=1,
                                     train=TrainConfig(batch_size=32, epochs=1)))
    assert res.scenario == "centralized"


def test_feature_count_mismatch_is_rejected_before_launch():
    cfg = make_config()
    bad = dataclasses.replace(cfg.nodes[0],
                              synth=dataclasses.replace(cfg.nodes[0].synth,
                                                        feature_count=2))
    cfg = dataclasses.replace(cfg, nodes=[bad, cfg.nodes[1]])
    with pytest.raises(ConfigError, match="features"):
        run_historical(cfg)


def test_failing_node_ends_the_federation_with_its_own_error(monkeypatch):
    # m1 trains on zero windows, so train_epochs raises; its departure must
    # abort the round at once instead of at the round timeout
    monkeypatch.setattr("fedvib.harness.federation.ROUND_TIMEOUT_S", 30.0)
    cfg = make_config(rounds=2)
    setups = [prepare_node(spec, ACFG.window_size) for spec in cfg.nodes]
    with pytest.raises(ShapeError, match="zero windows"):
        run_federation(setups, cfg, window_schedules={"m1": lambda r: 0})


def _launched(monkeypatch):
    """Make run_federation build its aggregator and nodes, and launch none."""
    launched = []

    def capture(agg, nodes, transport):
        launched.append((agg, nodes))
        return [], {}

    monkeypatch.setattr("fedvib.harness.federation.run_nodes", capture)
    return launched


def test_harness_nodes_outwait_the_aggregator(monkeypatch):
    # a node that stops waiting first would end with a bare transport error
    # instead of the aggregator's abort reason
    launched = _launched(monkeypatch)
    cfg = make_config(rounds=1)
    setups = [prepare_node(spec, ACFG.window_size) for spec in cfg.nodes]
    run_federation(setups, cfg)
    [(agg, nodes)] = launched
    assert len(nodes) == 2
    for node in nodes:
        assert node.config.recv_timeout_s > agg.round_timeout_s


# -- cold-start scenario ------------------------------------------------------

def test_cold_start_nodes_survive_pickle(monkeypatch):
    # a node's window schedule is data, so a node can be sent to a process
    launched = _launched(monkeypatch)
    run_cold_start(make_config(rounds=3))
    [(_, nodes)] = launched
    for node in nodes:
        assert node.config.window_schedule == (64, 128, 192)
        copy = pickle.loads(pickle.dumps(node))
        assert copy.config == node.config
        assert np.array_equal(copy.train_windows, node.train_windows)


def test_cold_start_windows_trained_follows_schedule():
    cfg = make_config(rounds=4)
    res = run_cold_start(cfg)
    # each node has 19 train batches x 12 windows = 228 available
    per_node = [64, 128, 192, 228]
    assert ([sum(r.windows_trained.values()) for r in res.federation.records]
            == [2 * n for n in per_node])
    for rec, expect in zip(res.federation.records, per_node):
        assert rec.windows_trained == {"m1": expect, "m2": expect}


def test_cold_start_matches_historical_detection():
    hist = run_historical(make_config(rounds=4))
    cold = run_cold_start(make_config(rounds=4))
    for node in ("m1", "m2"):
        f1_h = hist.detection.metrics[node].f1
        f1_c = cold.detection.metrics[node].f1
        assert abs(f1_h - f1_c) <= 0.05
        # scenario consistency: final thresholds within 20% of each other
        th_h = hist.detection.threshold_trace[node][-1]
        th_c = cold.detection.threshold_trace[node][-1]
        assert max(th_h, th_c) / min(th_h, th_c) <= 1.2


# -- knowledge transfer -------------------------------------------------------

def test_knowledge_transfer_detects_on_foreign_data():
    target = dataclasses.replace(node_spec(9, anomalies=(25, 27, 28, 29)),
                                 id="target")
    cfg = make_config(scenario="knowledge_transfer", rounds=3,
                      transfer_target=target)
    res = run_knowledge_transfer(cfg)
    assert sorted(res.detection.verdicts) == ["target"]
    verdicts = res.detection.verdicts["target"]
    assert len(verdicts) == 30  # every target batch is scored
    m = res.detection.metrics["target"]
    assert m.f1 >= 0.9
    assert len(res.detection.threshold_trace["target"]) == 1
    assert res.source_detection is not None
    assert sorted(res.source_detection.verdicts) == ["m1", "m2"]


def test_knowledge_transfer_self_target_reproduces_source_scores():
    target = node_spec(1)  # identical generator to source node m1
    cfg = make_config(scenario="knowledge_transfer", rounds=2,
                      transfer_target=dataclasses.replace(target, id="m1-again"))
    res = run_knowledge_transfer(cfg)
    own = {v.batch_index: v.score for v in res.source_detection.verdicts["m1"]}
    transferred = {v.batch_index: v.score
                   for v in res.detection.verdicts["m1-again"]
                   if v.batch_index in own}
    assert transferred == own  # same model, same batches -> identical scores


def test_knowledge_transfer_feature_mismatch_errors():
    target = DatasetSpec(id="bad", kind="synthetic", seed=5,
                         synth=SynthConfig(n_batches=12, batch_len=120,
                                           feature_count=2,
                                           base_frequencies=(50.0,),
                                           base_amplitudes=(1.0,)))
    cfg = make_config(scenario="knowledge_transfer", rounds=1,
                      transfer_target=target)
    with pytest.raises(ConfigError, match="features"):
        run_knowledge_transfer(cfg)


# -- centralized baseline -----------------------------------------------------

def test_centralized_epochs_and_paired_detection():
    epochs = 4
    cfg = make_config(scenario="centralized",
                      train=TrainConfig(batch_size=32, epochs=epochs))
    res = run_centralized(cfg)
    assert len(res.training_log["train_losses"]) == epochs
    assert len(res.training_log["val_losses"]) == epochs
    assert res.network.federated_bytes == 0
    assert res.network.reduction_percent is None
    # paired federated run on the same data: F1 within 2 points
    fed = run_historical(make_config(rounds=3))
    for node in ("m1", "m2"):
        assert abs(res.detection.metrics[node].f1
                   - fed.detection.metrics[node].f1) <= 0.02


def test_centralized_raw_byte_counterfactual():
    cfg = make_config(scenario="centralized",
                      train=TrainConfig(batch_size=32, epochs=1))
    res = run_centralized(cfg)
    # 2 nodes x 30 batches x 120 samples x 1 feature x 4 bytes
    assert res.network.raw_bytes == 2 * 30 * 120 * 4
    assert res.network.raw_bytes_original == res.network.raw_bytes  # no resampling


def test_downsampled_node_reports_both_byte_figures():
    spec = dataclasses.replace(node_spec(1), downsample=3)
    setup = prepare_node(spec, window_size=10)
    assert setup.raw_bytes_original == 30 * 120 * 4
    assert setup.raw_bytes == 30 * 40 * 4


# -- network reduction --------------------------------------------------------

def test_network_reduction_arithmetic():
    assert network_reduction(100, 100) == 0.0
    assert abs(network_reduction(6.3e6, 806e6) - 99.218) < 1e-2
    assert network_reduction(200, 100) == -100.0
    with pytest.raises(ConfigError):
        network_reduction(10, 0)


def test_federated_run_reports_traffic_reduction():
    res = run_historical(make_config(rounds=3))
    net = res.network
    assert net.federated_bytes == sum(
        s + r for s, r in net.federated_bytes_by_node.values())
    assert net.raw_bytes == 2 * 30 * 120 * 4
    expect = 100.0 * (1.0 - net.federated_bytes / net.raw_bytes)
    assert net.reduction_percent == expect


# -- CSV exports --------------------------------------------------------------

def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_export_results_schemas_and_cardinalities(tmp_path):
    cfg = make_config(rounds=3)
    res = run_historical(cfg)
    paths = export_results(res, tmp_path / "out")

    scores = read_rows(paths["scores"])
    assert len(scores) == 2 * 9
    assert list(scores[0]) == ["node", "batch_index", "timestamp", "score",
                               "threshold", "label", "verdict"]
    # re-loading reproduces the verdict counts exactly
    want = {node: sum(1 for v in vs if v.verdict == "anomalous")
            for node, vs in res.detection.verdicts.items()}
    got = {}
    for row in scores:
        got[row["node"]] = got.get(row["node"], 0) + (row["verdict"] == "anomalous")
    assert got == want

    rounds = read_rows(paths["rounds"])
    assert len(rounds) == 3
    assert list(rounds[0]) == ["round", "bytes_sent", "bytes_received",
                               "windows_trained", "duration_s",
                               "train_loss_m1", "train_loss_m2",
                               "val_loss_m1", "val_loss_m2"]

    metrics = read_rows(paths["metrics"])
    assert [r["node"] for r in metrics] == ["m1", "m2"]
    assert all(float(r["f1"]) == res.detection.metrics[r["node"]].f1
               for r in metrics)

    network = read_rows(paths["network"])
    by_key = {r["key"]: r["value"] for r in network}
    assert int(by_key["federated_bytes"]) == res.network.federated_bytes
    assert int(by_key["raw_bytes"]) == res.network.raw_bytes
    assert int(by_key["federated_bytes_m1"]) > 0


def test_rounds_csv_bytes_match_transport_counters_exactly(tmp_path):
    res = run_historical(make_config(rounds=3))
    paths = export_results(res, tmp_path)
    rounds = read_rows(paths["rounds"])
    csv_sent = sum(int(r["bytes_sent"]) for r in rounds)
    csv_received = sum(int(r["bytes_received"]) for r in rounds)
    node_sent = sum(s for s, _ in res.network.federated_bytes_by_node.values())
    node_received = sum(r for _, r in res.network.federated_bytes_by_node.values())
    # aggregator-side sends are node-side receives, and vice versa
    assert csv_sent == node_received
    assert csv_received == node_sent


def test_identical_config_reproduces_metrics_csv_bytes(tmp_path):
    cfg = make_config(rounds=2)
    paths_a = export_results(run_historical(cfg), tmp_path / "a")
    paths_b = export_results(run_historical(cfg), tmp_path / "b")
    assert paths_a["metrics"].read_bytes() == paths_b["metrics"].read_bytes()
    assert paths_a["scores"].read_bytes() == paths_b["scores"].read_bytes()


# -- config files -------------------------------------------------------------

def test_load_config_round_trip(tmp_path):
    raw = {
        "scenario": "historical",
        "rounds": 2,
        "seed": 5,
        "autoencoder": {"feature_count": 1, "window_size": 10,
                        "outer_layer_sizes": [4], "encoding_size": 2},
        "train": {"batch_size": 16, "learning_rate": 0.002, "epochs": 3},
        "nodes": [
            {"id": "a", "kind": "synthetic", "seed": 1,
             "synth": {"n_batches": 12, "batch_len": 60, "feature_count": 1,
                       "base_frequencies": [50.0], "base_amplitudes": [1.0]}},
            {"id": "b", "kind": "csv", "path": "some/dir"},
        ],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg.scenario == "historical"
    assert cfg.rounds == 2 and cfg.seed == 5
    assert cfg.autoencoder == AutoencoderConfig(feature_count=1, window_size=10,
                                                outer_layer_sizes=(4,),
                                                encoding_size=2)
    assert cfg.train.batch_size == 16 and cfg.train.learning_rate == 0.002
    assert [s.id for s in cfg.nodes] == ["a", "b"]
    assert cfg.nodes[0].synth.n_batches == 12
    assert cfg.nodes[1].kind == "csv"


def test_load_config_rejects_unknown_keys(tmp_path):
    raw = {"scenario": "historical", "rounds": 2, "learning_rte": 0.1,
           "autoencoder": {"feature_count": 1, "window_size": 10,
                           "outer_layer_sizes": [4], "encoding_size": 2},
           "nodes": [{"id": "a", "kind": "synthetic"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="learning_rte"):
        load_config(path)


def test_load_config_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_experiment_config_validation():
    with pytest.raises(ConfigError, match="scenario"):
        make_config(scenario="streaming")
    with pytest.raises(ConfigError, match="unique"):
        ExperimentConfig(scenario="historical",
                         nodes=[node_spec(1), node_spec(1)],
                         autoencoder=ACFG)
    with pytest.raises(ConfigError, match="transfer_target"):
        make_config(scenario="historical", transfer_target=node_spec(9))
    with pytest.raises(ConfigError, match="transfer_target"):
        make_config(scenario="knowledge_transfer")
    with pytest.raises(ConfigError, match="score_mode"):
        make_config(score_mode="maxx")


def test_dataset_spec_validation():
    with pytest.raises(ConfigError, match="path"):
        DatasetSpec(id="x", kind="csv")
    with pytest.raises(ConfigError, match="bearing"):
        DatasetSpec(id="x", kind="ims", directory="somewhere")
    with pytest.raises(ConfigError, match="downsample"):
        DatasetSpec(id="x", kind="synthetic", downsample=0)
    with pytest.raises(ConfigError, match="kind"):
        DatasetSpec(id="x", kind="parquet")


def test_missing_ims_data_mentions_fetch_command(tmp_path):
    spec = DatasetSpec(id="b1", kind="ims",
                       directory=str(tmp_path / "absent"), bearing=1)
    with pytest.raises(IngestionError, match="fetch-ims"):
        load_raw_dataset(spec)


# -- checkpoints --------------------------------------------------------------

def test_model_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    weights = {"enc.W": rng.normal(size=(8, 3)).astype(np.float32),
               "enc.b": rng.normal(size=8).astype(np.float32)}
    path = tmp_path / "model.bin"
    save_model_checkpoint(path, weights, round_index=17)
    round_index, loaded = load_model_checkpoint(path)
    assert round_index == 17
    assert set(loaded.tensors) == set(weights)
    for k in weights:
        assert np.array_equal(loaded.tensors[k], weights[k])


def test_checkpoint_rejects_non_model_frames(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(encode_frame(Register("a")))
    with pytest.raises(WireError, match="global model"):
        load_model_checkpoint(path)


# -- hyperparameter sweep -----------------------------------------------------

def test_search_space_cardinality():
    space = search_space()
    assert len(space) == 2160
    assert len(set(space)) == 2160


def test_sample_grid_is_seeded_and_bounded():
    space = search_space()
    a = sample_grid(space, 10, seed=3)
    b = sample_grid(space, 10, seed=3)
    assert a == b
    assert len(a) == len(set(a)) == 10
    assert sample_grid(space, 3, seed=1) != sample_grid(space, 3, seed=2)
    assert len(sample_grid(space, 5000, seed=0)) == 2160  # budget covers the grid
    with pytest.raises(ConfigError):
        sample_grid(space, 0)
    with pytest.raises(ConfigError):
        sample_grid([], 3)


def test_rank_results_orders_by_loss_then_size():
    p = SweepPoint(batch_size=32, window_size=50, outer_size=32,
                   n_layers=1, encoding_size=8, learning_rate=1e-3)
    results = [SweepResult(point=p, val_loss=0.5, param_count=900),
               SweepResult(point=p, val_loss=0.2, param_count=5000),
               SweepResult(point=p, val_loss=0.2, param_count=400)]
    ranked = rank_results(results)
    assert [(r.val_loss, r.param_count) for r in ranked] == [
        (0.2, 400), (0.2, 5000), (0.5, 900)]


def _sweep_case():
    """A small dataset and a four-point grid that trains in well under a second."""
    data = generate_synthetic(
        SynthConfig(n_batches=16, batch_len=80, sampling_rate_hz=1000.0,
                    feature_count=1, base_frequencies=(50.0,),
                    base_amplitudes=(1.0,), noise_std=0.1), seed=11)
    space = [SweepPoint(batch_size=16, window_size=10, outer_size=o,
                        n_layers=1, encoding_size=2, learning_rate=lr)
             for o in (3, 6) for lr in (1e-2, 1e-3)]
    return data, space


def test_sweep_trains_and_ranks_deterministically():
    data, space = _sweep_case()
    ranked = sweep_hyperparameters(data, budget=3, seed=2, epochs=2, space=space)
    again = sweep_hyperparameters(data, budget=3, seed=2, epochs=2, space=space)
    assert len(ranked) == 3
    assert [r.point for r in ranked] == [r.point for r in again]
    assert [r.val_loss for r in ranked] == sorted(r.val_loss for r in ranked)
    assert all(np.isfinite(r.val_loss) for r in ranked)

    single = sweep_hyperparameters(data, budget=1, seed=0, epochs=0, space=space)
    assert len(single) == 1
    assert single[0].point in space


def test_sweep_scores_validation_once_per_point(monkeypatch):
    data, space = _sweep_case()
    passes = []
    original = LstmAutoencoder.reconstruct

    def counting(self, windows):
        passes.append(len(windows))
        return original(self, windows)

    monkeypatch.setattr(LstmAutoencoder, "reconstruct", counting)
    ranked = sweep_hyperparameters(data, budget=2, seed=2, epochs=3, space=space)
    assert len(passes) == len(ranked) == 2  # not one pass per epoch

    # the loss equals what training reports for its last epoch
    train_b, val_b, _ = chronological_split(data)
    for r in ranked:
        train_w, _ = windows_for_batches(train_b, r.point.window_size)
        val_w, _ = windows_for_batches(val_b, r.point.window_size)
        model = build_autoencoder(r.point.autoencoder_config(1), seed=2)
        out = train_epochs(model, train_w[:256], r.point.train_config(), 3,
                           val_windows=val_w, seed=2)
        assert r.val_loss == float(out.val_losses[-1])
