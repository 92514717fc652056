"""Timing harness for the LSTM recurrence kernels.

Runs the forward and backward kernels on representative shapes and prints
the best per-call time of each.  Run directly:

    python benchmarks/bench_kernels.py [--repeat N] [--dtype float32]
"""

import argparse
import time

import numpy as np

from fedvib.nn.kernels import lstm_backward, lstm_forward

# Layer shapes the perfbench workloads run: the encoder layers of the C5 model
# (3->4, 4->2) and of the wide model (3->128, 128->16), in training minibatches
# of 64 and scoring batches of 8.
SHAPES = [
    # (label, T, B, I, H)
    ("3->4    (t=100, b=64)", 100, 64, 3, 4),
    ("3->4    (t=100, b=8)", 100, 8, 3, 4),
    ("4->2    (t=100, b=64)", 100, 64, 4, 2),
    ("3->128  (t=100, b=64)", 100, 64, 3, 128),
    ("3->128  (t=100, b=8)", 100, 8, 3, 128),
    ("128->16 (t=100, b=64)", 100, 64, 128, 16),
]


def make_case(rng, T, B, I, H, dtype):
    x = rng.normal(size=(T, B, I)).astype(dtype)
    W = (rng.normal(size=(4 * H, I)) * 0.1).astype(dtype)
    U = (rng.normal(size=(4 * H, H)) * 0.1).astype(dtype)
    b = np.zeros(4 * H, dtype)
    return x, W, U, b


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

    for label, T, B, I, H in SHAPES:
        x, W, U, b = make_case(rng, T, B, I, H, dtype)
        # warm-up keeps first-call and cache effects out of the timings
        h, c, gates = lstm_forward(x, W, U, b)
        d_h = rng.normal(size=h.shape).astype(dtype)
        bw_args = (x, W, U, h, c, gates, d_h)
        lstm_backward(*bw_args)

        for name, fn, fn_args in (("forward", lstm_forward, (x, W, U, b)),
                                  ("backward", lstm_backward, bw_args)):
            t = time_call(fn, fn_args, args.repeat)
            print(f"{label:<30} {name:<8} {t * 1e3:>10.2f}")


if __name__ == "__main__":
    main()
