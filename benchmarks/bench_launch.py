"""Timing harness for starting a federation's node processes.

Times ``fedvib.harness.run_federation`` of zero rounds on C5-sized nodes
(200 synthetic batches of 800 samples and 3 features, windows of 100, the
351-parameter model): the nodes' processes start, receive their nodes,
register, score their test batches with the initial model and exit.  With no
round to train, the time is the launch and the exit.  Each node count runs
``--repeat`` times after one untimed warm-up; the script prints the median,
minimum and maximum per count, then one JSON line with every run.  Run
directly:

    python benchmarks/bench_launch.py [--nodes 2 5] [--repeat 7]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as perfbench: node processes x BLAS threads <= cores

import argparse
import json
import pickle
import statistics
import time

from fedvib import harness
from fedvib.data import SynthConfig
from fedvib.model import AutoencoderConfig
from fedvib.nn import TrainConfig

ACFG = AutoencoderConfig(feature_count=3, window_size=100, outer_layer_sizes=(4,),
                         encoding_size=2)
SYNTH = SynthConfig(n_batches=200, batch_len=800, sampling_rate_hz=4000.0,
                    feature_count=3, anomaly_indices=(150, 163, 177, 191))


def zero_round_federation(n_nodes):
    """The prepared setups and config of a zero-round C5-sized federation."""
    specs = [harness.DatasetSpec(id=f"n{i}", kind="synthetic", seed=i, synth=SYNTH)
             for i in range(n_nodes)]
    config = harness.ExperimentConfig(scenario="historical", nodes=specs, autoencoder=ACFG,
                                      train=TrainConfig(batch_size=64), rounds=0, seed=0)
    return [harness.prepare_node(spec, ACFG.window_size) for spec in specs], config


def time_launches(setups, config, repeat):
    harness.run_federation(setups, config)  # warm-up: imports, caches
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        harness.run_federation(setups, config)
        times.append(time.perf_counter() - t0)
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[2, 5])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    runs = {}
    for n in args.nodes:
        setups, config = zero_round_federation(n)
        s = setups[0]
        node_mb = len(pickle.dumps((s.train_windows, s.val_windows, s.test_batches))) / 2**20
        times = time_launches(setups, config, args.repeat)
        runs[n] = times
        print(f"{n} nodes ({node_mb:.1f} MB of node data each): median "
              f"{statistics.median(times) * 1e3:7.1f} ms  min {min(times) * 1e3:7.1f}  "
              f"max {max(times) * 1e3:7.1f}")
    print(json.dumps({"repeat": args.repeat,
                      "seconds": {str(n): [round(t, 4) for t in times]
                                  for n, times in runs.items()}}))


if __name__ == "__main__":
    main()
