"""The benchmark's workloads: inputs made from the seed, timed runs, output
checks, and the end-to-end metrics.

Every node uses the per-node data of acceptance criterion C5: 200 synthetic
batches of 800 samples and 3 features, anomalies at 150/163/177/191, windows
of 100, minibatches of 64.  The seed only picks the generator seed of each
node's data; the program receives nothing but the generated data.

The workloads call fedvib through module attributes (``harness.prepare_node``,
``harness.run_federation``) so that the traced run's wrappers see the calls.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from fedvib import harness
from fedvib.data import SynthConfig, split_counts
from fedvib.harness.experiments import score_batches
from fedvib.model import AutoencoderConfig, build_autoencoder, evaluate_detection
from fedvib.nn import TrainConfig
from fedvib.proto.wire import HEADER_SIZE, weights_payload_size

from metrics import median, tail

N_NODES = 2          # nproc here is 2: node threads never outnumber the cores
N_BATCHES = 200
BATCH_LEN = 800
FEATURES = 3
WINDOW = 100
BATCH_SIZE = 64
ANOMALIES = (150, 163, 177, 191)
F1_BOUND = 0.9       # criterion C5
SCORE_REL_TOL = 1e-6
MAX_FAILURE_NOTES = 20


@dataclass(frozen=True)
class FederationShape:
    scenario: str            # "historical" or "cold_start"
    outer: tuple
    encoding: int
    rounds: int
    transport: str           # "in_process" or "sockets"


def round_bytes(payload_size, client_ids):
    """(sent, received) by the aggregator in a steady-state round.

    It sends each client one GlobalModel (round u64 + weight block) and
    receives one DeltaSubmission from each (client id string, round and
    windows_trained u64s, weight block); every frame carries the header.
    """
    sent = len(client_ids) * (HEADER_SIZE + 8 + payload_size)
    received = sum(HEADER_SIZE + 2 + len(cid.encode("utf-8")) + 16 + payload_size
                   for cid in client_ids)
    return sent, received


def available_windows():
    """Training windows per node, from the split rule and the batch shape."""
    return split_counts(N_BATCHES)[0] * (BATCH_LEN // WINDOW)


def node_specs(seed, draw):
    """The datasets of one federation: draw ``draw`` of workload seed ``seed``."""
    seeds = np.random.SeedSequence([seed, draw]).generate_state(N_NODES)
    synth = SynthConfig(n_batches=N_BATCHES, batch_len=BATCH_LEN,
                        feature_count=FEATURES, anomaly_indices=ANOMALIES)
    return [harness.DatasetSpec(id=f"node{i}", kind="synthetic", seed=int(s), synth=synth)
            for i, s in enumerate(seeds)]


@dataclass
class Prepared:
    """Everything set-up produces for one federation."""

    shape: FederationShape
    config: object
    setups: list
    schedules: dict | None
    payload_size: int


def prepare(shape, seed, draw):
    """Data generation, split and windowing, and the model build."""
    specs = node_specs(seed, draw)
    acfg = AutoencoderConfig(feature_count=FEATURES, window_size=WINDOW,
                             outer_layer_sizes=shape.outer, encoding_size=shape.encoding)
    config = harness.ExperimentConfig(
        scenario=shape.scenario, nodes=specs, autoencoder=acfg,
        train=TrainConfig(batch_size=BATCH_SIZE), rounds=shape.rounds, seed=0,
        transport=shape.transport)
    setups = [harness.prepare_node(spec, WINDOW) for spec in specs]
    schedules = None
    if shape.scenario == "cold_start":
        schedules = {s.node_id: (lambda r, n=len(s.train_windows):
                                 harness.cold_start_windows(r + 1, n))
                     for s in setups}
    payload = weights_payload_size(build_autoencoder(acfg, seed=0).weights_dict())
    return Prepared(shape, config, setups, schedules, payload)


@dataclass
class FederationRun:
    seconds: float
    round_seconds: list
    windows_trained: int
    bytes_per_round: int
    traffic_pct: float
    f1_min: float
    final_val_loss: float


def _f1_by_node(verdicts_by_node):
    out = {}
    for node, verdicts in verdicts_by_node.items():
        labeled = [v for v in verdicts if v.label is not None]
        m = evaluate_detection([v.verdict == "anomalous" for v in labeled],
                               [v.label == "anomalous" for v in labeled])
        out[node] = (m.f1, m.fn)
    return out


def federate(prep):
    """Run one federation; returns (FederationRun, result, failed checks)."""
    t0 = time.perf_counter()
    fed = harness.run_federation(prep.setups, prep.config, window_schedules=prep.schedules)
    seconds = time.perf_counter() - t0

    failures = []
    quality = _f1_by_node({cid: r.verdicts for cid, r in fed.node_results.items()})
    for cid, (f1, missed) in sorted(quality.items()):
        # Cold start trains on 64·r windows for only a few rounds: its false
        # positives vary with the data, so only the anomalies are checked.
        if prep.shape.scenario == "historical" and f1 < F1_BOUND:
            failures.append(f"{cid}: F1 {f1:.3f} < {F1_BOUND}")
        if missed:
            failures.append(f"{cid}: {missed} anomalous batches not flagged")
    available = available_windows()
    steady = set()
    for rec in fed.records:
        for cid, got in rec.windows_trained.items():
            want = (min(64 * (rec.round + 1), available)
                    if prep.shape.scenario == "cold_start" else available)
            if got != want:
                failures.append(f"round {rec.round} {cid}: trained {got} windows, expected {want}")
        if rec.round >= 1:
            want = round_bytes(prep.payload_size, rec.client_ids)
            if (rec.bytes_sent, rec.bytes_received) != want:
                failures.append(f"round {rec.round}: bytes {(rec.bytes_sent, rec.bytes_received)}"
                                f" != {want}")
            steady.add(rec.bytes_sent + rec.bytes_received)
    if len(fed.records) != prep.shape.rounds:
        failures.append(f"{len(fed.records)} rounds recorded, expected {prep.shape.rounds}")

    node_bytes = sum(sent + received for sent, received in fed.bytes_by_node.values())
    raw = sum(s.raw_bytes for s in prep.setups)
    val = [r.round_stats[-1].val_loss for r in fed.node_results.values()]
    if not all(math.isfinite(v) for v in val):
        failures.append(f"non-finite validation loss {val}")
    run = FederationRun(
        seconds=seconds,
        round_seconds=[rec.duration_s for rec in fed.records],
        windows_trained=sum(sum(rec.windows_trained.values()) for rec in fed.records),
        bytes_per_round=max(steady) if steady else 0,
        # 100 - NetworkReport.reduction_percent; unlike the reduction it stays
        # positive when the weights outweigh the raw data (the wide model).
        traffic_pct=100.0 * node_bytes / raw,
        f1_min=min(f1 for f1, _ in quality.values()),
        final_val_loss=float(np.mean(val)))
    return run, fed, failures


@dataclass
class Scored:
    node: str
    batch_index: int
    label: str
    score: float
    verdict: str
    seconds: float
    windows: int


def score_stream(model, stream):
    """Closed loop, one thread: score each (node, index, batch, threshold) in
    turn with the program's own batch scoring."""
    out = []
    for node, index, batch, threshold in stream:
        t0 = time.perf_counter()
        (verdict,) = score_batches(model, [batch], index, threshold, WINDOW)
        out.append(Scored(node, index, batch.label, verdict.score, verdict.verdict,
                          time.perf_counter() - t0, batch.samples.shape[0] // WINDOW))
    return out


def check_scored(scored):
    """Failures of single scored batches: non-finite scores, missed anomalies."""
    failures = []
    for s in scored:
        if not math.isfinite(s.score):
            failures.append(f"{s.node} batch {s.batch_index}: score {s.score}")
        elif s.label == "anomalous" and s.verdict != "anomalous":
            failures.append(f"{s.node} batch {s.batch_index}: anomaly not flagged")
    return failures


@dataclass
class Outcome:
    """What a run attempted, what failed its checks, and the timings of the
    rest (a federation that fails a check is left out of every timing)."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    federations: list = field(default_factory=list)
    scored: list = field(default_factory=list)      # one list of Scored per sample

    def record(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures[:MAX_FAILURE_NOTES - len(self.failures)])
        return not failures

    def valid(self):
        """Whether any federation passed its checks."""
        return bool(self.federations)

    def values(self):
        """End-to-end metrics.

        Medians over the samples of the run, so that one disturbed sample
        does not move them: a federation's round time is its median round,
        and throughput and tail are taken per sample of scored batches.
        """
        feds = self.federations
        samples = self.scored
        tails = [tail([s.seconds for s in sample]) for sample in samples]
        batch_s = [s.seconds for sample in samples for s in sample]
        values = {
            "setup_s": median(self.setup_s),
            "federation_s": median([f.seconds for f in feds]),
            "round_s_p50": median([median(f.round_seconds) for f in feds]),
            "train_windows_per_s": median([f.windows_trained / f.seconds for f in feds]),
            "scored_windows_per_s": median([sum(s.windows for s in sample)
                                            / sum(s.seconds for s in sample)
                                            for sample in samples]),
            "score_batch_ms_p50": median(batch_s) * 1e3,
            "score_batch_ms_tail": median([t[0] for t in tails]) * 1e3,
            "bytes_per_round": median([f.bytes_per_round for f in feds]),
            "federated_traffic_pct": median([f.traffic_pct for f in feds]),
            "detect_f1_min": median([f.f1_min for f in feds]),
            "final_val_loss": median([f.final_val_loss for f in feds]),
        }
        pcts = sorted({t[1] for t in tails})
        notes = {"score_batch_ms_tail": f"median over {len(samples)} samples of "
                                        f"p{'/'.join(f'{p:g}' for p in pcts)} "
                                        f"of {median([t[2] for t in tails]):g} batches",
                 "score_batch_ms_p50": f"of {len(batch_s)} batches",
                 "federation_s": f"median of {len(feds)} federations",
                 "setup_s": f"median of {len(self.setup_s)} set-ups"}
        return values, notes


def run(shape, seed, seconds, outcome, mark):
    """Run samples of one workload until ``seconds`` have passed (at least one).

    Each sample sets up fresh data (draw i of the seed), runs one federation,
    then scores every node's test batches with the final global model and the
    node's own final threshold.  ``mark`` labels the trace of what follows.
    """
    start = time.perf_counter()
    draw = 0
    while draw == 0 or time.perf_counter() - start < seconds:
        mark(f"setup-{draw}")
        t0 = time.perf_counter()
        prep = prepare(shape, seed, draw)
        outcome.setup_s.append(time.perf_counter() - t0)
        mark(f"sample-{draw}")
        summary, fed, failures = federate(prep)
        model = build_autoencoder(prep.config.autoencoder, seed=0)
        model.set_weights_dict(fed.global_weights.tensors)
        stream = [(s.node_id, s.test_offset + i, b,
                   fed.node_results[s.node_id].final_threshold)
                  for s in prep.setups for i, b in enumerate(s.test_batches)]
        scored = score_stream(model, stream)
        failures += check_scored(scored)
        node_scores = {(cid, v.batch_index): v.score
                       for cid, r in fed.node_results.items() for v in r.verdicts}
        for s in scored:
            if not math.isclose(s.score, node_scores[(s.node, s.batch_index)],
                                rel_tol=SCORE_REL_TOL):
                failures.append(f"{s.node} batch {s.batch_index}: rescored "
                                f"{s.score} != node verdict {node_scores[(s.node, s.batch_index)]}")
                break
        if outcome.record(failures):
            outcome.federations.append(summary)
            outcome.scored.append(scored)
        draw += 1
    return outcome


WORKLOADS = {
    # Call-bound kernels (H <= 4): training dominates and frames are ~1.5 KB.
    "historical-small": FederationShape("historical", (4,), 2, rounds=5,
                                        transport="in_process"),
    # GEMM-bound kernels, ~615 KB frames over localhost sockets; early rounds
    # train one or two minibatches, so per-round fixed work weighs more.
    "coldstart-wide-sockets": FederationShape("cold_start", (128,), 16, rounds=8,
                                              transport="sockets"),
}
