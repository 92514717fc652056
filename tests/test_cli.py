"""Console entry points: synth, experiment, sweep, sockets round trip,
and the offline portions of fetch-ims."""

import dataclasses
import json
import re
import socket
import threading
import zipfile

import numpy as np
import pytest

from fedvib.cli import build_parser, main
from fedvib.data import load_csv_dataset
from fedvib.harness import load_model_checkpoint
from fedvib.proto import TrainingNodeConfig


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def write_dataset(path, seed=0, batches=16, batch_len=200, anomalies=()):
    anomaly_flag = ",".join(str(i) for i in anomalies) or None
    args = ["synth", "--out", str(path), "--seed", str(seed),
            "--batches", str(batches), "--batch-len", str(batch_len),
            "--features", "1", "--rate", "1000"]
    if anomaly_flag:
        args += ["--anomalies", anomaly_flag]
    assert main(args) == 0
    return path


# -- synth --------------------------------------------------------------------

def test_synth_writes_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    write_dataset(out, seed=3, batches=12, anomalies=(10, 11))
    assert "wrote 12 batches (2 anomalous)" in capsys.readouterr().out
    dataset = load_csv_dataset(out)
    assert len(dataset) == 12
    assert [b.label for b in dataset.batches].count("anomalous") == 2
    assert dataset.batches[0].samples.shape == (200, 1)


# -- experiment ---------------------------------------------------------------

def test_experiment_command_runs_config_and_exports(tmp_path, capsys):
    config = {
        "scenario": "historical",
        "rounds": 2,
        "seed": 4,
        "autoencoder": {"feature_count": 1, "window_size": 10,
                        "outer_layer_sizes": [4], "encoding_size": 2},
        "train": {"batch_size": 32},
        "nodes": [
            {"id": "a", "kind": "synthetic", "seed": 1,
             "synth": {"n_batches": 20, "batch_len": 120, "feature_count": 1,
                       "base_frequencies": [50.0], "base_amplitudes": [1.0],
                       "anomaly_indices": [17, 19]}},
        ],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "scenario: historical" in captured
    assert "a: precision=" in captured
    assert "% reduction" in captured
    for name in ("scores.csv", "rounds.csv", "metrics.csv", "network.csv"):
        assert (out_dir / name).exists()


def test_experiment_command_reports_config_errors(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert main(["experiment", "--config", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


# -- sweep --------------------------------------------------------------------

def test_sweep_command_prints_ranked_table(tmp_path, capsys):
    data = write_dataset(tmp_path / "sweepdata", seed=8)
    capsys.readouterr()
    # seed 5 samples two small single-layer configs from the grid
    assert main(["sweep", "--budget", "2", "--seed", "5", "--epochs", "1",
                 "--max-windows", "64", "--data", str(data)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["rank", "val_loss", "params", "batch",
                                "window", "outer", "layers", "encoding", "lr"]
    assert len(lines) == 3
    losses = [float(line.split()[1]) for line in lines[1:]]
    assert losses == sorted(losses)


# -- sockets round trip -------------------------------------------------------

def test_aggregate_and_train_commands_over_sockets(tmp_path, capsys):
    port = free_port()
    data_a = write_dataset(tmp_path / "node-a", seed=21, anomalies=(14, 15))
    data_b = write_dataset(tmp_path / "node-b", seed=22, anomalies=(15,))
    checkpoint = tmp_path / "global.bin"
    codes = {}

    def run(name, args):
        codes[name] = main(args)

    model_flags = ["--window", "10", "--outer", "4", "--encoding", "2"]
    agg = threading.Thread(target=run, args=("agg", [
        "aggregate", "--listen", f"127.0.0.1:{port}", "--clients", "2",
        "--rounds", "2", "--features", "1", "--checkpoint", str(checkpoint),
        *model_flags]))
    trainers = [
        threading.Thread(target=run, args=(name, [
            "train", "--aggregator", f"127.0.0.1:{port}", "--data", str(path),
            "--id", name, "--rounds", "2", "--batch-size", "32",
            *model_flags]))
        for name, path in (("node-a", data_a), ("node-b", data_b))
    ]
    agg.start()
    for t in trainers:
        t.start()
    for t in [agg] + trainers:
        t.join(timeout=120)
    assert codes == {"agg": 0, "node-a": 0, "node-b": 0}

    captured = capsys.readouterr().out
    assert "round 0: clients=['node-a', 'node-b']" in captured
    # each trainer's round line ends with its phase timers
    phased = re.findall(r"^round [01]: train_loss=.* took=\S+ wait=\S+s train=\S+s "
                        r"send=\S+s score=\S+s calibrate=\S+s$", captured, re.MULTILINE)
    assert len(phased) == 4
    assert "scored 5 test batches" in captured

    round_index, weights = load_model_checkpoint(checkpoint)
    assert round_index == 2
    assert sum(a.size for a in weights.tensors.values()) > 0


def test_train_rejects_a_window_longer_than_every_batch(tmp_path, capsys):
    data = write_dataset(tmp_path / "node", seed=23)
    capsys.readouterr()
    # nobody listens on the port: the data check must fail before connecting
    assert main(["train", "--aggregator", f"127.0.0.1:{free_port()}",
                 "--data", str(data), "--id", "node", "--rounds", "1",
                 "--window", "1000"]) == 1
    assert "no training windows" in capsys.readouterr().err


def test_train_rejects_a_window_below_one(tmp_path, capsys):
    data = write_dataset(tmp_path / "node", seed=23)
    for window in ("0", "-5"):
        capsys.readouterr()
        assert main(["train", "--aggregator", f"127.0.0.1:{free_port()}",
                     "--data", str(data), "--id", "node", "--rounds", "1",
                     "--window", window]) == 1
        assert "error: window_size must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--rounds", "-1"], "rounds must be >= 0"),
    (["--epochs-per-round", "0"], "epochs_per_round must be >= 1"),
    (["--delta", "-1"], "threshold_delta must be >= 0"),
], ids=["rounds", "epochs", "delta"])
def test_train_rejects_bad_settings_before_connecting(tmp_path, capsys, flags, message):
    data = write_dataset(tmp_path / "node", seed=23)
    capsys.readouterr()
    # nobody listens on the port, so a late check would report the connect instead
    assert main(["train", "--aggregator", f"127.0.0.1:{free_port()}",
                 "--data", str(data), "--id", "node", "--rounds", "1",
                 "--window", "10", "--outer", "4", "--encoding", "2", *flags]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--clients", "0", "--rounds", "1"],
                                   ["--clients", "1", "--rounds", "-1"]],
                         ids=["clients", "rounds"])
def test_aggregate_refuses_bad_arguments_before_listening(capsys, flags):
    # a listener opened before the check would leak: a ResourceWarning fails the test
    assert main(["aggregate", "--listen", f"127.0.0.1:{free_port()}",
                 "--features", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert "aggregating on" not in captured.out
    assert "error:" in captured.err


def test_a_trainer_outwaits_the_aggregator_round_timeout():
    # the node must still be waiting when the aggregator gives up on a round,
    # so it receives the abort and its reason instead of a bare timeout
    args = build_parser().parse_args(["aggregate", "--clients", "1", "--rounds", "1",
                                      "--features", "1"])
    (wait,) = [f.default for f in dataclasses.fields(TrainingNodeConfig)
               if f.name == "recv_timeout_s"]
    assert wait > args.round_timeout


def test_aggregate_rejects_bad_listen_address():
    with pytest.raises(SystemExit):
        main(["aggregate", "--listen", "nonsense", "--clients", "1",
              "--rounds", "1", "--features", "1"])


# -- fetch-ims (offline) ------------------------------------------------------

def make_ims_archive(path, set_dir="2nd_test", n_files=3):
    """A minimal zip shaped like the real archive: nested zip with a test
    directory of timestamp-named ASCII tables."""
    inner = path.parent / "inner.zip"
    with zipfile.ZipFile(inner, "w") as zf:
        for i in range(n_files):
            name = f"{set_dir}/2004.02.12.10.{32 + i:02d}.39"
            rows = "\n".join("\t".join("0.01" for _ in range(4)) for _ in range(8))
            zf.writestr(name, rows + "\n")
    with zipfile.ZipFile(path, "w") as zf:
        zf.write(inner, "IMS.zip")
    inner.unlink()
    return path


def test_fetch_ims_extracts_local_archive(tmp_path, capsys):
    archive = make_ims_archive(tmp_path / "bearings.zip")
    out = tmp_path / "ims"
    url = archive.as_uri()
    assert main(["fetch-ims", "--set", "2", "--out", str(out), "--url", url]) == 0
    captured = capsys.readouterr().out
    assert "recorded sha256" in captured
    assert "set 2 ready" in captured
    assert (out / "checksums.txt").exists()
    # second run reuses the download and verifies the recorded checksum
    assert main(["fetch-ims", "--set", "2", "--out", str(out), "--url", url]) == 0
    assert "checksum ok" in capsys.readouterr().out


def test_fetch_ims_reports_missing_set(tmp_path, capsys):
    archive = make_ims_archive(tmp_path / "bearings.zip", set_dir="2nd_test")
    out = tmp_path / "ims"
    assert main(["fetch-ims", "--set", "1", "--out", str(out),
                 "--url", archive.as_uri()]) == 1
    assert "1st_test" in capsys.readouterr().err


def test_fetch_ims_detects_checksum_mismatch(tmp_path, capsys):
    archive = make_ims_archive(tmp_path / "bearings.zip")
    out = tmp_path / "ims"
    url = archive.as_uri()
    assert main(["fetch-ims", "--set", "2", "--out", str(out), "--url", url]) == 0
    capsys.readouterr()
    downloaded = out / "bearings.zip"
    downloaded.write_bytes(downloaded.read_bytes() + b"tampered")
    assert main(["fetch-ims", "--set", "2", "--out", str(out), "--url", url]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_fetch_ims_unreachable_url(tmp_path, capsys):
    out = tmp_path / "ims"
    bad = (tmp_path / "missing.zip").as_uri()
    assert main(["fetch-ims", "--set", "2", "--out", str(out), "--url", bad]) == 1
    assert "manually" in capsys.readouterr().err
