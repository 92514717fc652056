"""Federation benchmark: one workload per run, checked outputs, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload historical-small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json; ``--trace 1``
runs the workload untraced and then traced (see tracing.py) and prints every
per-module metric, including the tracing overhead.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it state the run environment and each metric with its unit.  Spans of a traced
run are written to ``.perfbench_out/`` at the repository root.
"""

import os

# Fixed before numpy loads so that node threads x BLAS threads never exceed
# the cores (2 nodes x 1 thread on a 2-core machine) and results taken with
# different thread counts are never mixed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PHASE_TOLERANCE = 0.05   # node-round phases must cover at least 95 % of its wall time


def _openblas_runtime():
    """(config string, thread count) of the OpenBLAS numpy loaded, if found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return None, None


def environment():
    import numpy as np
    from fedvib.nn import USE_NUMBA

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    config, threads = _openblas_runtime()
    return {
        "kernel_mode": "numba" if USE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_runtime": config,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads_runtime": threads,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_untraced(shape, args):
    from workloads import Outcome, run

    outcome = run(shape, args.seed, args.seconds, Outcome(), mark=lambda label: None)
    if not outcome.valid():
        return outcome, None, {}
    values, notes = outcome.values()
    values["peak_rss_mb"] = peak_rss_mb()
    return outcome, values, notes


def run_traced(shape, args):
    from metrics import median
    from tracing import Tracer, layer_metrics, node_rounds, self_time_table, traced
    from workloads import Outcome, run

    plain = run(shape, args.seed, args.seconds / 2, Outcome(), mark=lambda label: None)
    tracer = Tracer()
    with traced(tracer):
        spanned = run(shape, args.seed, args.seconds / 2, Outcome(),
                      mark=lambda label: setattr(tracer, "trace", label))

    outcome = Outcome(attempted=plain.attempted + spanned.attempted,
                      failed=plain.failed + spanned.failed,
                      failures=plain.failures + spanned.failures)
    if not (plain.valid() and spanned.valid()):
        return outcome, None, {}
    values = layer_metrics(tracer.spans)
    base = median([f.seconds for f in plain.federations])
    overhead = median([f.seconds for f in spanned.federations]) - base
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / base

    rounds = node_rounds(tracer.spans)
    short = sorted({r.trace for r in rounds if r.coverage < 1.0 - PHASE_TOLERANCE})
    for trace in short:
        worst = min((r for r in rounds if r.trace == trace), key=lambda r: r.coverage)
        outcome.failed += 1
        outcome.failures.append(f"{trace} node {worst.node} round {worst.round}: phases "
                                f"cover {worst.coverage:.1%} of the round's wall time")
    values["trace.phase_coverage_min"] = min((r.coverage for r in rounds), default=0.0)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "spans": tracer.dump()}))

    print("# self time by span name (traced run): calls, total s, self s")
    for name, calls, total, own in self_time_table(tracer.spans):
        print(f"#   {name:<36} {calls:>8} {total:>10.4f} {own:>10.4f}")
    print(f"# node rounds: {len(rounds)}, phase coverage min "
          f"{values['trace.phase_coverage_min']:.4f} (bound {1.0 - PHASE_TOLERANCE})")
    notes = {"trace.overhead_s": "traced minus untraced median federation_s"}
    return outcome, values, notes


def main():
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="fedvib federation benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    started = time.perf_counter()
    runner = run_traced if args.trace else run_untraced
    outcome, values, notes = runner(WORKLOADS[args.workload], args)
    if values is None:
        for failure in outcome.failures:
            print(f"# check failed: {failure}")
        sys.exit(f"perfbench: no sample of {args.workload} passed its checks")

    metrics = {}
    for m in wanted:
        if m["name"] not in values and not args.trace:
            raise RuntimeError(f"workload produced no {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"{m['name']:<44} {metrics[m['name']]['value']:>14.6g} {m['unit']:<8} {note}")
    print(f"{'failed_ratio':<44} {outcome.failed / outcome.attempted:>14.6g} ratio    "
          f"{outcome.failed} of {outcome.attempted} attempted")
    for failure in outcome.failures:
        print(f"# check failed: {failure}")
    print(f"# wall {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))


if __name__ == "__main__":
    if not (ROOT / "src" / "fedvib").is_dir():
        sys.exit(f"perfbench: {ROOT / 'src' / 'fedvib'} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    main()
