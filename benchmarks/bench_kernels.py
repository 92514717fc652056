"""Timing harness for the LSTM recurrence kernels.

Runs each stacked LSTM pair of the perfbench models through the call the
model makes, ``fedvib.nn.LstmPair.forward`` and ``backward``, and prints the
median per-call time and the tracemalloc peak of each pass.  A pair's time so
includes building its combined arrays and splitting its gradients, around the
one kernel call.  ``forward`` keeps the cache a backward pass needs, as in
training; ``score`` is the cache-free forward that scoring runs.  Run
directly:

    python benchmarks/bench_kernels.py [--repeat N] [--dtype float32]
"""

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from fedvib.nn import LstmLayer, LstmPair

# Stacked layer pairs of the perfbench models, (I, Ha, Hb, B returns
# sequences): the C5 model's encoder (3->4, 4->2: the code returns its last
# step only) and decoder (2->2, 2->4), and the wide model's (3->128, 128->16
# and 16->16, 16->128).  Batches of 8 are perfbench's scoring batches, 64 the
# training minibatches, 256 a full ``RECONSTRUCT_CHUNK`` of validation or
# test windows.
PAIRS = [(3, 4, 2, False), (2, 2, 4, True), (3, 128, 16, False), (16, 16, 128, True)]
SHAPES = [(f"{I}->{Ha}->{Hb} (t=100, b={B})", 100, B, (I, Ha, Hb), seq)
          for I, Ha, Hb, seq in PAIRS for B in (8, 64, 256)]


def make_case(rng, T, B, widths, sequences, dtype):
    """A pair for ``widths`` (I, Ha, Hb), its [T, B, I] input and a gradient
    of its output."""
    pair = LstmPair(*(LstmLayer(i, h, rng, dtype=dtype) for i, h in zip(widths, widths[1:])))
    x = rng.normal(size=(T, B, widths[0])).astype(dtype)
    out, _ = pair.forward(x, return_sequences=sequences)
    return pair, x, rng.normal(size=out.shape).astype(dtype)


def time_call(fn, args, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_bytes(fn, args):
    """Highest traced allocation above the start of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed repetitions per case; the median is reported")
    parser.add_argument("--dtype", choices=("float32", "float64"),
                        default="float32")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    dtype = np.dtype(args.dtype)
    rng = np.random.default_rng(args.seed)
    print(f"dtype: {dtype.name}, repeat: {args.repeat}")
    header = f"{'case':<30} {'pass':<8} {'ms':>10} {'peak MB':>9}"
    print(header)
    print("-" * len(header))

    for label, T, B, widths, sequences in SHAPES:
        pair, x, d_out = make_case(rng, T, B, widths, sequences, dtype)
        # warm-up keeps first-call and cache effects out of the timings
        _, cache = pair.forward(x, return_sequences=sequences)
        pair.backward(d_out, cache, return_sequences=sequences)

        for name, fn, fn_args in (("forward", pair.forward, (x, sequences)),
                                  ("score", pair.forward, (x, sequences, False)),
                                  ("backward", pair.backward, (d_out, cache, sequences))):
            t = time_call(fn, fn_args, args.repeat)
            peak = peak_bytes(fn, fn_args)
            print(f"{label:<30} {name:<8} {t * 1e3:>10.2f} {peak / 2 ** 20:>9.2f}")


if __name__ == "__main__":
    main()
