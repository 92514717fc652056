"""Command-line front end.

Subcommands: ``aggregate`` (serve an aggregation node over sockets), ``train``
(run one training node against an aggregator), ``experiment`` (run a
scenario from a JSON config and export CSVs), ``sweep`` (ranked
hyperparameter search), ``synth`` (write a synthetic dataset as CSV), and
``fetch-ims`` (download helper for the public bearing run-to-failure data).

Every command returns a process exit code; aborted federation rounds map to
a nonzero exit.
"""

import argparse
import hashlib
import shutil
import subprocess
import sys
import urllib.parse
import urllib.request
import zipfile
from pathlib import Path

from .data import (
    IMS_FILENAME_RE,
    SynthConfig,
    generate_synthetic,
    load_csv_dataset,
    save_csv_dataset,
)
from .errors import FedvibError, RoundAbortError
from .harness import (
    DatasetSpec,
    export_results,
    load_config,
    prepare_node,
    run_experiment,
    save_model_checkpoint,
    sweep_hyperparameters,
)
from .model import AutoencoderConfig, build_autoencoder
from .nn import TrainConfig
from .proto import (
    AggregationNode,
    ModelWeights,
    TrainingNode,
    TrainingNodeConfig,
    connect_socket,
    serve_sockets,
)

DEFAULT_IMS_URL = "https://phm-datasets.s3.amazonaws.com/NASA/4.+Bearings.zip"
IMS_SET_DIRS = {1: "1st_test", 2: "2nd_test", 3: "3rd_test"}


def _parse_address(text):
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    return host, int(port)


def _parse_int_list(text):
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _add_model_flags(parser, with_features):
    group = parser.add_argument_group("model architecture")
    if with_features:
        group.add_argument("--features", type=int, required=True,
                           help="input feature count per sample")
    group.add_argument("--window", type=int, default=100,
                       help="window size in samples (default 100)")
    group.add_argument("--outer", type=_parse_int_list, default=(128,),
                       metavar="N[,N...]",
                       help="outer LSTM layer widths, e.g. 128 or 128,64")
    group.add_argument("--encoding", type=int, default=16,
                       help="bottleneck width (default 16)")


def _add_train_flags(parser):
    group = parser.add_argument_group("training")
    group.add_argument("--batch-size", type=int, default=64)
    group.add_argument("--lr", type=float, default=1e-3)
    group.add_argument("--lr-decay", type=float, default=0.01)
    group.add_argument("--epochs-per-round", type=int, default=1)
    group.add_argument("--delta", type=float, default=3.0,
                       help="threshold sensitivity (default 3)")
    group.add_argument("--seed", type=int, default=0)


# -- aggregate ----------------------------------------------------------------

def cmd_aggregate(args):
    acfg = AutoencoderConfig(feature_count=args.features, window_size=args.window,
                             outer_layer_sizes=args.outer, encoding_size=args.encoding)
    init = ModelWeights(build_autoencoder(acfg, seed=args.seed).weights_dict())
    host, port = args.listen
    listener = serve_sockets(host, port)
    print(f"aggregating on {host}:{listener.port} "
          f"({args.clients} clients, {args.rounds} rounds)")
    agg = AggregationNode(init, expected_clients=args.clients, rounds=args.rounds,
                          registration_timeout_s=args.registration_timeout,
                          round_timeout_s=args.round_timeout)
    try:
        records = agg.run(listener)
    except RoundAbortError as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 1
    for rec in records:
        print(f"round {rec.round}: clients={sorted(rec.client_ids)} "
              f"windows={sum(rec.windows_trained.values())} "
              f"sent={rec.bytes_sent}B recv={rec.bytes_received}B "
              f"took={rec.duration_s:.2f}s late={rec.late_submissions}")
    if args.checkpoint:
        save_model_checkpoint(args.checkpoint, agg.global_weights,
                              round_index=args.rounds)
        print(f"saved global model to {args.checkpoint}")
    return 0


# -- train --------------------------------------------------------------------

def cmd_train(args):
    setup = prepare_node(DatasetSpec(id=args.id, kind="csv", path=args.data),
                         args.window)
    acfg = AutoencoderConfig(feature_count=setup.dataset.feature_count,
                             window_size=args.window,
                             outer_layer_sizes=args.outer,
                             encoding_size=args.encoding)
    tcfg = TrainConfig(learning_rate=args.lr, lr_decay=args.lr_decay,
                       batch_size=args.batch_size)
    node = TrainingNode(
        TrainingNodeConfig(client_id=args.id, autoencoder=acfg, train=tcfg,
                           rounds=args.rounds,
                           epochs_per_round=args.epochs_per_round,
                           threshold_delta=args.delta, seed=args.seed,
                           persist_optimizer=args.persist_optimizer),
        setup.train_windows, setup.val_windows,
        test_batches=setup.test_batches, test_offset=setup.test_offset)
    host, port = args.aggregator
    endpoint = connect_socket(host, port)
    try:
        result = node.run(endpoint)
    except RoundAbortError as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 1
    for s in result.round_stats:
        print(f"round {s.round}: train_loss={s.train_loss:.6g} "
              f"val_loss={s.val_loss:.6g} threshold={s.threshold:.6g} "
              f"windows={s.windows_trained} took={s.duration_s:.2f}s")
    flagged = sum(1 for v in result.verdicts if v.verdict == "anomalous")
    print(f"threshold={result.final_threshold.threshold:.6g} "
          f"({result.final_threshold.mode}, delta={result.final_threshold.delta})")
    print(f"scored {len(result.verdicts)} test batches, {flagged} anomalous")
    return 0


# -- experiment ---------------------------------------------------------------

def cmd_experiment(args):
    config = load_config(args.config)
    try:
        result = run_experiment(config)
    except RoundAbortError as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 1
    paths = export_results(result, args.out)
    print(f"scenario: {result.scenario}")
    for node, m in sorted(result.detection.metrics.items()):
        print(f"{node}: precision={m.precision:.3f} recall={m.recall:.3f} "
              f"f1={m.f1:.3f}")
    if result.detection.untrained:
        print("note: scores come from an untrained model (rounds=0)")
    net = result.network
    if net.reduction_percent is not None:
        print(f"network: {net.federated_bytes}B federated vs {net.raw_bytes}B raw "
              f"({net.reduction_percent:.2f}% reduction)")
    else:
        print(f"network: {net.raw_bytes}B raw data "
              f"({net.raw_bytes_original}B before resampling)")
    for name in ("scores", "rounds", "metrics", "network"):
        print(f"wrote {paths[name]}")
    return 0


# -- sweep --------------------------------------------------------------------

def cmd_sweep(args):
    if args.data:
        dataset = load_csv_dataset(args.data)
    else:
        dataset = generate_synthetic(
            SynthConfig(n_batches=24, batch_len=400, feature_count=1,
                        base_frequencies=(50.0, 120.0),
                        base_amplitudes=(1.0, 0.5)), seed=args.seed)
    ranked = sweep_hyperparameters(dataset, args.budget, seed=args.seed,
                                   epochs=args.epochs,
                                   max_windows=args.max_windows)
    print(f"{'rank':>4} {'val_loss':>12} {'params':>9} "
          f"{'batch':>5} {'window':>6} {'outer':>5} {'layers':>6} "
          f"{'encoding':>8} {'lr':>8}")
    for i, r in enumerate(ranked, start=1):
        p = r.point
        print(f"{i:>4} {r.val_loss:>12.6g} {r.param_count:>9} "
              f"{p.batch_size:>5} {p.window_size:>6} {p.outer_size:>5} "
              f"{p.n_layers:>6} {p.encoding_size:>8} {p.learning_rate:>8g}")
    return 0


# -- synth --------------------------------------------------------------------

def cmd_synth(args):
    cfg = SynthConfig(n_batches=args.batches, batch_len=args.batch_len,
                      sampling_rate_hz=args.rate, feature_count=args.features,
                      anomaly_indices=args.anomalies,
                      anomaly_amplitude_factor=args.factor)
    dataset = generate_synthetic(cfg, seed=args.seed,
                                 source_id=Path(args.out).name or "synth")
    save_csv_dataset(dataset, args.out)
    n_anomalous = sum(1 for b in dataset.batches if b.label == "anomalous")
    print(f"wrote {len(dataset)} batches ({n_anomalous} anomalous) to {args.out}")
    return 0


# -- fetch-ims ----------------------------------------------------------------

def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _record_checksum(out_dir, path):
    """Trust-on-first-use checksum ledger for downloaded archives."""
    ledger = out_dir / "checksums.txt"
    digest = _sha256(path)
    entries = {}
    if ledger.exists():
        for line in ledger.read_text().splitlines():
            name, _, value = line.partition("  ")
            entries[name.strip()] = value.strip()
    known = entries.get(path.name)
    if known is None:
        entries[path.name] = digest
        ledger.write_text("".join(f"{k}  {v}\n" for k, v in sorted(entries.items())))
        print(f"recorded sha256 {digest} for {path.name}")
        return True
    if known != digest:
        print(f"checksum mismatch for {path.name}: recorded {known}, "
              f"got {digest}", file=sys.stderr)
        return False
    print(f"checksum ok for {path.name}")
    return True


def _extract_archives(out_dir):
    """Unpack every zip under out_dir (repeatedly, for nested zips); returns
    the non-zip archives stdlib cannot open."""
    stubborn = []
    seen = set()
    progress = True
    while progress:
        progress = False
        for path in sorted(out_dir.rglob("*")):
            if path in seen or not path.is_file():
                continue
            if zipfile.is_zipfile(path):
                dest = path.parent / path.stem
                print(f"extracting {path.name} -> {dest}")
                with zipfile.ZipFile(path) as zf:
                    zf.extractall(dest)
                seen.add(path)
                progress = True
            elif path.suffix.lower() in (".7z", ".rar"):
                seen.add(path)
                stubborn.append(path)
    return stubborn


def _try_external_extractor(archive):
    tool = shutil.which("7z") or shutil.which("7za")
    if tool is None:
        return False
    dest = archive.parent / archive.stem
    dest.mkdir(exist_ok=True)
    print(f"extracting {archive.name} with {tool}")
    result = subprocess.run([tool, "x", "-y", f"-o{dest}", str(archive)],
                            capture_output=True, text=True)
    if result.returncode != 0:
        print(result.stderr.strip(), file=sys.stderr)
        return False
    return True


def _find_ims_dirs(out_dir):
    """Directories holding the timestamp-named measurement files."""
    found = {}
    for path in out_dir.rglob("*"):
        if path.is_file() and IMS_FILENAME_RE.match(path.name):
            found[path.parent] = found.get(path.parent, 0) + 1
    return found


def cmd_fetch_ims(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    url = args.url
    name = Path(urllib.parse.unquote(urllib.parse.urlsplit(url).path)).name
    archive = out_dir / name.replace("+", "_").replace(" ", "_")

    if not archive.exists():
        print(f"downloading {url}")
        try:
            with urllib.request.urlopen(url) as response, open(archive, "wb") as fh:
                shutil.copyfileobj(response, fh)
        except OSError as e:
            print(f"download failed: {e}", file=sys.stderr)
            print(f"fetch the archive manually and place it at {archive}, "
                  f"then re-run this command", file=sys.stderr)
            return 1
        print(f"saved {archive} ({archive.stat().st_size} bytes)")
    else:
        print(f"using existing {archive}")
    if not _record_checksum(out_dir, archive):
        return 1

    stubborn = _extract_archives(out_dir)
    for leftover in list(stubborn):
        if _try_external_extractor(leftover):
            stubborn.remove(leftover)
    stubborn += [p for p in _extract_archives(out_dir) if p not in stubborn]

    found = _find_ims_dirs(out_dir)
    wanted = IMS_SET_DIRS[args.set]
    matches = {d: n for d, n in found.items() if wanted in str(d)}
    if matches:
        for d, n in sorted(matches.items()):
            print(f"set {args.set} ready: {d} ({n} measurement files)")
        return 0
    if stubborn:
        names = ", ".join(p.name for p in stubborn)
        print(f"could not unpack: {names} (needs the `7z` tool; install it "
              f"or extract manually into {out_dir})", file=sys.stderr)
    else:
        print(f"no {wanted!r} directory with measurement files under "
              f"{out_dir}; extract the archive there and re-run",
              file=sys.stderr)
    return 1


# -- parser -------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedvib",
        description="Federated LSTM-autoencoder condition monitoring")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="serve the aggregation node")
    p.add_argument("--listen", type=_parse_address, default=("127.0.0.1", 7070),
                   metavar="HOST:PORT")
    p.add_argument("--clients", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--registration-timeout", type=float, default=300.0)
    p.add_argument("--round-timeout", type=float, default=3600.0)
    p.add_argument("--checkpoint", help="write the final global model here")
    _add_model_flags(p, with_features=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("train", help="run one training node")
    p.add_argument("--aggregator", type=_parse_address, required=True,
                   metavar="HOST:PORT")
    p.add_argument("--data", required=True,
                   help="CSV dataset directory (see `fedvib synth`)")
    p.add_argument("--id", required=True, help="unique client id")
    p.add_argument("--rounds", type=int, required=True,
                   help="must match the aggregator's --rounds")
    p.add_argument("--persist-optimizer", action="store_true")
    _add_model_flags(p, with_features=False)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("experiment", help="run a scenario from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="results", help="CSV output directory")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep", help="ranked hyperparameter search")
    p.add_argument("--budget", type=int, required=True,
                   help="number of grid points to train")
    p.add_argument("--data", help="CSV dataset directory (default: synthetic)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--max-windows", type=int, default=256)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="write a synthetic CSV dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batches", type=int, default=200)
    p.add_argument("--batch-len", type=int, default=800)
    p.add_argument("--rate", type=float, default=4000.0)
    p.add_argument("--features", type=int, default=3)
    p.add_argument("--anomalies", type=_parse_int_list, default=(),
                   metavar="I[,I...]", help="anomalous batch indices")
    p.add_argument("--factor", type=float, default=2.0,
                   help="anomaly amplitude factor")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fetch-ims", help="download the public bearing dataset")
    p.add_argument("--set", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--url", default=DEFAULT_IMS_URL)
    p.set_defaults(func=cmd_fetch_ims)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FedvibError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
