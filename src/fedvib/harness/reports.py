"""CSV export of experiment results.

Four files per run: ``scores.csv`` (one row per scored batch per node),
``rounds.csv`` (one row per federation round), ``metrics.csv`` (one row per
labeled node), and ``network.csv`` (byte accounting key/value pairs).
Floats are written with ``repr`` so identical results produce identical
bytes and values round-trip exactly.
"""

import csv
from pathlib import Path


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_scores_csv(path, detection):
    rows = [
        (node, v.batch_index, v.timestamp, v.score, v.threshold,
         v.label, v.verdict)
        for node in sorted(detection.verdicts)
        for v in detection.verdicts[node]
    ]
    _write_csv(path, ["node", "batch_index", "timestamp", "score",
                      "threshold", "label", "verdict"], rows)


def write_rounds_csv(path, federation):
    """One row per aggregator round record, with each node's losses from its
    own round stats; only the header when ``federation`` is None
    (centralized)."""
    records = [] if federation is None else federation.records
    stats = {} if federation is None else {
        (cid, s.round): s
        for cid, res in federation.node_results.items() for s in res.round_stats}
    nodes = sorted({cid for cid, _ in stats})
    header = (["round", "bytes_sent", "bytes_received", "windows_trained",
               "duration_s"]
              + [f"train_loss_{cid}" for cid in nodes]
              + [f"val_loss_{cid}" for cid in nodes])
    rows = [
        ([rec.round, rec.bytes_sent, rec.bytes_received,
          sum(rec.windows_trained.values()), rec.duration_s]
         + [getattr(stats.get((cid, rec.round)), "train_loss", None) for cid in nodes]
         + [getattr(stats.get((cid, rec.round)), "val_loss", None) for cid in nodes])
        for rec in records
    ]
    _write_csv(path, header, rows)


def write_metrics_csv(path, detection):
    rows = [
        (node, m.precision, m.recall, m.f1)
        for node, m in sorted(detection.metrics.items())
    ]
    _write_csv(path, ["node", "precision", "recall", "f1"], rows)


def write_network_csv(path, network):
    rows = [
        ("federated_bytes", network.federated_bytes),
        ("raw_bytes", network.raw_bytes),
        ("raw_bytes_original", network.raw_bytes_original),
        ("reduction_percent", network.reduction_percent),
    ]
    rows += [(f"federated_bytes_{cid}", sent + recv)
             for cid, (sent, recv) in sorted(network.federated_bytes_by_node.items())]
    _write_csv(path, ["key", "value"], rows)


def export_results(result, out_dir):
    """Write the four CSV files for one experiment; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "scores": out / "scores.csv",
        "rounds": out / "rounds.csv",
        "metrics": out / "metrics.csv",
        "network": out / "network.csv",
    }
    write_scores_csv(paths["scores"], result.detection)
    write_rounds_csv(paths["rounds"], result.federation)
    write_metrics_csv(paths["metrics"], result.detection)
    write_network_csv(paths["network"], result.network)
    return paths
