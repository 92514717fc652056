"""Hosting a whole federation in one process and merging its bookkeeping.

Every participant runs in its own thread: the aggregation node in the calling
thread, each training node in a worker.  Nodes connect either to the
in-process hub, a Unix socket in a private temporary directory, or over
localhost TCP; both listeners are socket servers whose endpoints count the
same encoded frames, so byte accounting is transport-independent.
"""

import threading
from dataclasses import dataclass, field

import numpy as np

from ..data import chronological_split, windows_for_batches
from ..errors import ConfigError, RoundAbortError
from ..model import build_autoencoder
from ..proto import (
    AggregationNode,
    InProcessHub,
    ModelWeights,
    TrainingNode,
    TrainingNodeConfig,
    serve_sockets,
)
from ..proto.aggregator import ROUND_TIMEOUT_S
from .config import TRANSPORTS, dataset_bytes, load_raw_dataset, preprocess_dataset

REGISTRATION_TIMEOUT_S = 120.0


@dataclass
class NodeSetup:
    """One node's resolved data, split chronologically and windowed."""

    node_id: str
    dataset: object                  # preprocessed Dataset
    train_windows: np.ndarray        # [N, T, F]
    val_windows: np.ndarray
    test_batches: list
    test_offset: int
    raw_bytes: int                   # batch payload bytes after preprocessing
    raw_bytes_original: int          # before downsampling


def prepare_node(spec, window_size):
    """Resolve one dataset spec into a ready-to-train :class:`NodeSetup`."""
    raw = load_raw_dataset(spec)
    dataset = preprocess_dataset(raw, spec)
    train_b, val_b, test_b = chronological_split(dataset)
    train_w, _ = windows_for_batches(train_b, window_size)
    val_w, _ = windows_for_batches(val_b, window_size)
    if len(train_w) == 0:
        raise ConfigError(f"node {spec.id!r}: no training windows "
                          f"(batches too short for window_size={window_size}?)")
    if len(val_w) == 0:
        raise ConfigError(f"node {spec.id!r}: no validation windows to calibrate on")
    return NodeSetup(node_id=spec.id, dataset=dataset,
                     train_windows=train_w, val_windows=val_w,
                     test_batches=test_b,
                     test_offset=len(train_b) + len(val_b),
                     raw_bytes=dataset_bytes(dataset),
                     raw_bytes_original=dataset_bytes(raw))


@dataclass
class RoundReport:
    """One federation round as reported to CSV: aggregator-side traffic plus
    the per-node losses collected from the training nodes."""

    round: int
    train_loss: dict                 # node id -> float
    val_loss: dict
    bytes_sent: int
    bytes_received: int
    windows_trained: int
    duration_s: float


@dataclass
class FederationResult:
    records: list                    # aggregator RoundRecords
    round_reports: list              # merged RoundReports
    node_results: dict               # node id -> NodeResult
    global_weights: ModelWeights
    bytes_by_node: dict              # node id -> (sent, received) at the node


def merge_round_reports(records, node_results):
    """Zip aggregator round records with each node's per-round stats."""
    stats_by_node = {
        cid: {s.round: s for s in res.round_stats}
        for cid, res in node_results.items()
    }
    reports = []
    for rec in records:
        train_loss, val_loss = {}, {}
        for cid in rec.client_ids:
            s = stats_by_node.get(cid, {}).get(rec.round)
            if s is not None:
                train_loss[cid] = s.train_loss
                val_loss[cid] = s.val_loss
        reports.append(RoundReport(
            round=rec.round, train_loss=train_loss, val_loss=val_loss,
            bytes_sent=rec.bytes_sent, bytes_received=rec.bytes_received,
            windows_trained=sum(rec.windows_trained.values()),
            duration_s=rec.duration_s))
    return reports


def run_nodes(agg, nodes, transport):
    """Serve ``agg`` in the calling thread and run each built
    :class:`TrainingNode` in a worker thread, over ``transport`` (one of
    ``TRANSPORTS``).

    Returns ``(records, results)``: the aggregator's round records and the
    node results by client id, in node order.  Every worker is joined before
    this returns or raises.  A failure is re-raised unchanged: the first node
    error that is not a round abort, else the aggregator's.
    """
    if transport not in TRANSPORTS:
        raise ConfigError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    listener = InProcessHub() if transport == "in_process" else serve_sockets()
    results, failures = [None] * len(nodes), []

    def work(index, node):
        try:
            results[index] = node.run(listener.connect())
        except Exception as e:  # re-raised after join
            failures.append(e)

    threads = [threading.Thread(target=work, args=(i, n), daemon=True)
               for i, n in enumerate(nodes)]
    for t in threads:
        t.start()
    try:
        records = agg.run(listener)
    finally:
        for t in threads:
            t.join(timeout=ROUND_TIMEOUT_S)
        # a node's own failure outranks the round aborts that follow from it
        causes = [e for e in failures if not isinstance(e, RoundAbortError)]
        if causes:
            raise causes[0]
    if failures:
        raise failures[0]
    return records, {res.client_id: res for res in results}


def run_federation(setups, config, window_schedules=None):
    """Run one complete federation over the prepared node setups.

    ``window_schedules`` optionally maps node id to a callable
    ``round_index -> max training windows`` (the cold-start ramp), which
    fills that node's ``window_schedule``; absent entries train on
    everything.  Returns a :class:`FederationResult`; a failure is re-raised
    as :func:`run_nodes` describes.
    """
    acfg = config.autoencoder
    init = build_autoencoder(acfg, seed=config.seed).weights_dict()
    agg = AggregationNode(ModelWeights(init),
                          expected_clients=len(setups),
                          rounds=config.rounds,
                          registration_timeout_s=REGISTRATION_TIMEOUT_S,
                          round_timeout_s=ROUND_TIMEOUT_S)
    caps = {cid: tuple(map(schedule, range(config.rounds)))
            for cid, schedule in (window_schedules or {}).items()}
    nodes = [
        TrainingNode(
            TrainingNodeConfig(
                client_id=setup.node_id, autoencoder=acfg,
                train=config.train, rounds=config.rounds,
                epochs_per_round=config.epochs_per_round,
                threshold_delta=config.delta,
                threshold_mode=config.threshold_mode,
                score_mode=config.score_mode,
                seed=config.seed + index,
                window_schedule=caps.get(setup.node_id)),
            setup.train_windows, setup.val_windows,
            test_batches=setup.test_batches,
            test_offset=setup.test_offset)
        for index, setup in enumerate(setups)]
    records, results = run_nodes(agg, nodes, config.transport)
    return FederationResult(
        records=records,
        round_reports=merge_round_reports(records, results),
        node_results=results,
        global_weights=agg.global_weights,
        bytes_by_node={cid: (res.bytes_sent, res.bytes_received)
                       for cid, res in results.items()})
