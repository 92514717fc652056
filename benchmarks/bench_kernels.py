"""Timing harness for the LSTM recurrence kernels.

Runs each LSTM layer and each stacked pair of the perfbench models through
the calls the model makes, ``forward`` and ``backward`` of
``fedvib.nn.LstmLayer`` and ``fedvib.nn.LstmPair``, and prints the best
per-call time of each.  A pair's time so includes building its combined
arrays and splitting its gradients, around the one kernel call.  Run
directly:

    python benchmarks/bench_kernels.py [--repeat N] [--dtype float32]
"""

import argparse
import time

import numpy as np

from fedvib.nn import LstmLayer, LstmPair

# Stacked layer pairs of the perfbench models, (I, Ha, Hb, B returns
# sequences): the C5 model's encoder (3->4, 4->2: the code returns its last
# step only) and decoder (2->2, 2->4), and the wide model's (3->128, 128->16
# and 16->16, 16->128), in training minibatches of 64 and scoring batches of
# 8.  Each pair is timed as its two layers one by one and as the one
# recurrence of T+1 steps the model runs.
PAIRS = [(3, 4, 2, False), (2, 2, 4, True), (3, 128, 16, False), (16, 16, 128, True)]
SHAPES = [
    # (label, T, B, widths, returns sequences): widths (I, H) is one layer,
    # (I, Ha, Hb) a pair
    (f"{'->'.join(map(str, widths))} (t=100, b={B})", 100, B, widths, sequences)
    for I, Ha, Hb, seq in PAIRS for B in (64, 8)
    for widths, sequences in (((I, Ha), True), ((Ha, Hb), seq), ((I, Ha, Hb), seq))
]


def make_case(rng, T, B, widths, sequences, dtype):
    """A layer or pair for ``widths``, its [T, B, I] input and a gradient of
    its output."""
    layers = [LstmLayer(i, h, rng, dtype=dtype) for i, h in zip(widths, widths[1:])]
    stage = layers[0] if len(layers) == 1 else LstmPair(*layers)
    x = rng.normal(size=(T, B, widths[0])).astype(dtype)
    out, _ = stage.forward(x, return_sequences=sequences)
    return stage, x, rng.normal(size=out.shape).astype(dtype)


def time_call(fn, args, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed repetitions per case; best is reported")
    parser.add_argument("--dtype", choices=("float32", "float64"),
                        default="float32")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    dtype = np.dtype(args.dtype)
    rng = np.random.default_rng(args.seed)
    print(f"dtype: {dtype.name}, repeat: {args.repeat}")
    header = f"{'case':<30} {'pass':<8} {'ms':>10}"
    print(header)
    print("-" * len(header))

    for label, T, B, widths, sequences in SHAPES:
        stage, x, d_out = make_case(rng, T, B, widths, sequences, dtype)
        # warm-up keeps first-call and cache effects out of the timings
        _, cache = stage.forward(x, return_sequences=sequences)
        stage.backward(d_out, cache, return_sequences=sequences)

        for name, fn, fn_args in (("forward", stage.forward, (x, sequences)),
                                  ("backward", stage.backward, (d_out, cache, sequences))):
            t = time_call(fn, fn_args, args.repeat)
            print(f"{label:<30} {name:<8} {t * 1e3:>10.2f}")

if __name__ == "__main__":
    main()
