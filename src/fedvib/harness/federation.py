"""Hosting a whole federation on one machine.

The aggregation node runs in the calling thread and each training node in a
process of its own, started by ``spawn``, as each would on its own device.
Every node's process is started first, with only its listener's address and
its end of a pipe, so the processes boot side by side; then each node is
sent over its pipe.  The process connects, trains, and sends back its
result or its exception over the same pipe.  Nodes connect either to the
in-process hub, the launcher's private Unix socket in a temporary
directory, or over localhost TCP; both listeners are socket servers whose
endpoints count the same encoded frames, so byte accounting is
transport-independent.  A ``spawn`` child imports the calling script again,
so a script that runs a federation needs an ``if __name__ == "__main__":``
guard.
"""

import multiprocessing
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..data import chronological_split, windows_for_batches
from ..errors import ConfigError, FedvibError, RoundAbortError, TransportError
from ..model import build_autoencoder
from ..proto import (
    AggregationNode,
    InProcessHub,
    ModelWeights,
    TrainingNode,
    TrainingNodeConfig,
    connect_to,
    serve_sockets,
)
from ..proto.aggregator import ROUND_TIMEOUT_S
from .config import TRANSPORTS, dataset_bytes, load_raw_dataset, preprocess_dataset

REGISTRATION_TIMEOUT_S = 120.0
EXIT_WAIT_S = 5.0    # how long a node process may take to exit once it is done


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
class FederationResult:
    records: list                    # aggregator RoundRecords
    node_results: dict               # node id -> NodeResult
    global_weights: ModelWeights
    bytes_by_node: dict              # node id -> (sent, received) at the node


class _RemoteTraceback(Exception):
    """A node process's formatted traceback: the cause of the error it raised."""


def _node_process(address, pipe):
    """Body of a node's process: receive its node over ``pipe``, run it
    against the listener at ``address`` and send its NodeResult, or its
    exception and traceback, back on ``pipe``.  A pipe that closes, after a
    failed launch, ends the process quietly, before its node arrives or
    before its reply goes; an exception that does not pickle ends it
    unsent."""
    with pipe:
        try:
            node = pipe.recv()
        except EOFError:
            return
        try:
            try:
                result = node.run(connect_to(address))
            except Exception as e:
                pipe.send((e, traceback.format_exc()))
            else:
                pipe.send(result)
        except (BrokenPipeError, ConnectionResetError):  # the launcher has gone
            return


def _reply(proc, pipe, client_id, deadline):
    """What a node's process sent back: its NodeResult or its exception, with
    the process's traceback as cause; a FedvibError if nothing readable came."""
    try:
        if not pipe.poll(max(0.0, deadline - time.monotonic())):
            return FedvibError(f"node {client_id!r}: no result within {ROUND_TIMEOUT_S:g}s")
        reply = pipe.recv()
    except EOFError:  # killed, or its exception did not pickle
        proc.join(EXIT_WAIT_S)
        return FedvibError(f"node {client_id!r}: process ended with exit code "
                           f"{proc.exitcode} before sending a result")
    except Exception as e:  # sent, but does not unpickle here
        return FedvibError(f"node {client_id!r}: unreadable result: {e!r}")
    if isinstance(reply, tuple):
        error, tb = reply
        error.__cause__ = _RemoteTraceback(tb)
        return error
    return reply


def _hand_over(proc, pipe, node):
    """Send ``node`` to its started process; a FedvibError naming the node and
    its exit code if the process ended before taking it."""
    try:
        pipe.send(node)
    except (BrokenPipeError, ConnectionResetError):
        proc.join(EXIT_WAIT_S)
        raise FedvibError(f"node {node.config.client_id!r}: process ended with exit "
                          f"code {proc.exitcode} before receiving its node") from None


def _rank(error):
    """Sort key of node failures: a node's own error first, then a transport
    failure, then a round abort; these two mostly follow from another error."""
    return isinstance(error, RoundAbortError), isinstance(error, TransportError)


def run_nodes(agg, nodes, transport):
    """Serve ``agg`` in the calling thread and run each built
    :class:`TrainingNode` in a ``spawn`` process of its own, over
    ``transport`` (one of ``TRANSPORTS``).

    Every process is started before any node is sent to it, so a launch
    waits for the slowest process to boot, not for all of them in turn.  A
    node that does not pickle fails its send, once every process has
    started; the processes still waiting for a node then end.  The
    aggregator watches every process's sentinel, so a node process that
    ends before its client registers fails the launch at once rather than
    at the registration timeout.

    Returns ``(records, results)``: the aggregator's round records and the
    node results by client id, in node order.  Every node process has ended
    before this returns or raises; one still alive :data:`EXIT_WAIT_S` after
    the federation ends is killed.  A failure is re-raised with its type and
    message, a node's with its process's traceback as ``__cause__``: the
    first node error (in node order) that is neither a round abort nor a
    transport failure, else the aggregator's, else the first node transport
    failure, else the first round abort.  A node process that ends without a
    result, killed say, raises a FedvibError naming it and its exit code.
    """
    if transport not in TRANSPORTS:
        raise ConfigError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    listener = InProcessHub() if transport == "in_process" else serve_sockets()
    spawn = multiprocessing.get_context("spawn")
    procs, pipes = [], []
    try:
        for _ in nodes:
            ours, theirs = spawn.Pipe()
            pipes.append(ours)
            with theirs:  # the child's copy must be the only one, for EOF
                proc = spawn.Process(target=_node_process, daemon=True,
                                     args=(listener.address, theirs))
                proc.start()
            procs.append(proc)
        for proc, pipe, node in zip(procs, pipes, nodes):
            _hand_over(proc, pipe, node)
        try:
            records, agg_error = agg.run(listener, [p.sentinel for p in procs]), None
        except Exception as e:  # ranked with the nodes' failures below
            records, agg_error = None, e
        deadline = time.monotonic() + ROUND_TIMEOUT_S
        replies = [_reply(proc, pipe, node.config.client_id, deadline)
                   for proc, pipe, node in zip(procs, pipes, nodes)]
    finally:
        listener.close()
        for pipe in pipes:
            pipe.close()
        for proc in procs:
            proc.join(EXIT_WAIT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
            proc.close()
    failures = sorted((r for r in replies if isinstance(r, Exception)), key=_rank)
    if failures and _rank(failures[0]) == (False, False):
        raise failures[0]
    if agg_error is not None:
        raise agg_error
    if failures:
        raise failures[0]
    return records, {res.client_id: res for res in replies}


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
        node_results=results,
        global_weights=agg.global_weights,
        bytes_by_node={cid: (res.bytes_sent, res.bytes_received)
                       for cid, res in results.items()})
