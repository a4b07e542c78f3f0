"""Benchmark of the poissonridge pipeline; see bench/README.md.

    python3 bench/run.py --workload denoise-image --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in fresh worker processes (bench/worker.py), one op
at a time in a closed loop. With ``--trace 0`` three workers share the
timed seconds and the run reports the end-to-end metrics. With
``--trace 1`` an untraced worker and a traced one each get half the
seconds over the same ops, and the run reports the per-layer metrics.
The last line of stdout is the JSON result; the lines above it repeat
the metrics for people, with the run's metadata.
"""

import argparse
import json
import os
import select
import subprocess
import sys
from statistics import median
from time import perf_counter

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

# worker processes per untraced run; setup_s is the median of their set-ups
UNTRACED_WORKERS = 3
# worker k of a run starts at op k * OP_STRIDE, so workers draw distinct inputs
OP_STRIDE = 1_000_000
# ops that must lie beyond the percentile reported as latency_tail_ms
TAIL_OPS = 10
# latency_tail_ms is taken in blocks of at least this many consecutive ops,
# and the median over the blocks is reported, so that one burst of host
# load in a run moves only the blocks it falls in
TAIL_BLOCK_OPS = 100
# a worker that has not finished set-up by then is stopped
SETUP_TIMEOUT_S = 60.0

END_TO_END = {"throughput_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
# printed for people only: none of these exists on every workload, and
# failed_fraction is 0 whenever the checks pass
QUALITY_UNITS = {"psnr_gain_db": "dB", "gof_pass_fraction": "fraction",
                 "mean_var_ratio_err": "ratio", "failed_fraction": "fraction"}

# per-layer metrics: function key -> stats reported for it
TRACED_STATS = {
    "radon.drt_rotation": ("calls", "self_ms", "share"),
    "radon.fbp_invert": ("calls", "self_ms"),
    "radon.drt_gdb": ("calls", "self_ms", "share"),
    "radon.propagate_intensity": ("calls", "self_ms"),
    "wavelet.dwt_forward": ("calls", "self_ms"),
    "wavelet.approximation_chain": ("calls", "self_ms"),
    "wavelet.dwt_inverse": ("calls", "self_ms"),
    "wavelet.wavelet_atom": ("calls", "self_ms"),
    "spd.moment_match": ("calls", "self_ms"),
    "shrinkage.select_threshold": ("calls", "self_ms", "share"),
    "shrinkage.estimate_band_noise": ("calls", "self_ms"),
    "shrinkage.apply_shrinkage": ("calls", "self_ms"),
    "shrinkage.soft_threshold": ("calls", "self_ms"),
    "ridgelet.denoise_full": ("calls", "self_ms", "share"),
    "harness.run_distribution_experiment": ("calls", "self_ms", "share"),
    "phantoms.sample_poisson": ("calls", "self_ms"),
    "phantoms.make_phantom": ("calls", "self_ms"),
    "seeding.derive_rng": ("calls", "self_ms"),
}
STAT_UNITS = {"calls": "count", "self_ms": "ms", "share": "fraction"}
# computed work counts per op, and the rates derived from them
WORK_COUNTS = ("radon.drt_rotation.deposits",
               "shrinkage.select_threshold.grid_evals",
               "harness.gof_tested")
WORK_RATES = {"radon.drt_rotation.mdeposits_per_s": "radon.drt_rotation.deposits",
              "shrinkage.select_threshold.mevals_per_s":
                  "shrinkage.select_threshold.grid_evals"}


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, seconds, first_op, trace):
    """Run one worker process; returns (setup seconds, its JSON result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--first-op", str(first_op),
           "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker did not finish set-up")
        out, _ = proc.communicate(timeout=seconds + SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def tail_latency(latencies):
    """latency_tail_ms: (value, percentile, blocks).

    The ops, in the order they ran, are cut into blocks of at least
    TAIL_BLOCK_OPS consecutive ops (one block if there are fewer). Each
    block gives its highest percentile with TAIL_OPS ops beyond it; the
    value and percentile reported are the medians over the blocks.
    """
    n = len(latencies)
    blocks = max(1, n // TAIL_BLOCK_OPS)
    edges = [i * n // blocks for i in range(blocks + 1)]
    values, pcts = [], []
    for lo, hi in zip(edges, edges[1:]):
        ordered = sorted(latencies[lo:hi])
        k = len(ordered) - TAIL_OPS
        if k < 1:   # too few ops for TAIL_OPS beyond: the slowest
            k = len(ordered)
        values.append(ordered[k - 1])
        pcts.append(100.0 * k / len(ordered))
    return median(values), median(pcts), blocks


def end_to_end(workload, setups, results):
    latencies = [t for r in results for t in r["latencies_s"]]
    if not latencies:
        raise BenchError(f"{workload}: no op completed")
    tail, tail_pct, tail_blocks = tail_latency(latencies)
    metrics = {
        "throughput_per_s": WORKLOADS[workload].units * len(latencies)
                            / sum(latencies),
        "latency_p50_ms": 1000.0 * median(latencies),
        "latency_tail_ms": 1000.0 * tail,
        "setup_s": median(setups),
        "peak_rss_mb": median(r["maxrss_kb"] for r in results) / 1024.0,
    }
    return metrics, {"timed_ops": len(latencies), "tail_percentile": tail_pct,
                     "tail_blocks": tail_blocks}


def per_layer(traced, untraced_p50_s, traced_p50_s):
    functions = traced["trace"]["functions"]
    counts = traced["trace"]["counts"]
    ops = functions["op"]["calls"]
    op_s = functions["op"]["total_s"]
    metrics = {}
    for key, stats in TRACED_STATS.items():
        row = functions.get(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        values = {"calls": row["calls"] / ops,
                  "self_ms": 1000.0 * row["self_s"] / ops,
                  "share": row["self_s"] / op_s}
        for stat in stats:
            metrics[f"{key}.{stat}"] = (values[stat], STAT_UNITS[stat])
    for name in WORK_COUNTS:
        metrics[name] = (counts.get(name, 0) / ops, "count")
    for name, count in WORK_RATES.items():
        key = count.rsplit(".", 1)[0]
        busy_s = functions.get(key, {"total_s": 0.0})["total_s"]
        rate = counts.get(count, 0) / busy_s / 1e6 if busy_s else 0.0
        metrics[name] = (rate, "M/s")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_p50_s - untraced_p50_s) / untraced_p50_s, "%")
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result line, metadata, quality)."""
    problems = []
    if trace:
        runs = [run_worker(workload, seed, seconds / 2, 0, t) for t in (0, 1)]
        (_, untraced), (_, traced) = runs
        common = min(len(untraced["digests"]), len(traced["digests"]))
        if untraced["digests"][:common] != traced["digests"][:common]:
            problems.append("traced outputs differ from untraced outputs")
        metrics = per_layer(traced, median(untraced["latencies_s"]),
                            median(traced["latencies_s"]))
        results = [untraced, traced]
        info = {"timed_ops": len(traced["latencies_s"]),
                "untraced_ops": len(untraced["latencies_s"])}
    else:
        runs = [run_worker(workload, seed, seconds / UNTRACED_WORKERS,
                           k * OP_STRIDE, 0)
                for k in range(UNTRACED_WORKERS)]
        results = [r for _, r in runs]
        values, info = end_to_end(workload, [s for s, _ in runs], results)
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    for r in results:
        problems += r["problems"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    line = {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    meta = dict(info, workload=workload, seed=seed, seconds=seconds,
                trace=trace, processes=len(results), commit=git_commit(),
                nproc=len(os.sched_getaffinity(0)),
                blas_threads=results[0]["blas_threads"],
                **results[0]["versions"])
    quality = {k: median(v for r in results for v in r["quality"].get(k, []))
               for k in results[0]["quality"]}
    quality["failed_fraction"] = failed / attempted
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return line, meta, quality


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def print_report(line, meta, quality):
    unit = WORKLOADS[meta["workload"]].unit
    print(f"workload {meta['workload']}  seed {meta['seed']}  "
          f"trace {meta['trace']}  ops {meta['timed_ops']}  "
          f"processes {meta['processes']}  correct {line['correct']}")
    for name, m in line["metrics"].items():
        note = ""
        if name == "throughput_per_s":
            note = f"  ({unit} per second)"
        elif name == "latency_tail_ms":
            note = (f"  (p{meta['tail_percentile']:.1f}: median over "
                    f"{meta['tail_blocks']} blocks of the {meta['timed_ops']} "
                    f"ops, {TAIL_OPS} ops of each block beyond it)")
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}{note}")
    if not meta["trace"]:
        for name, value in quality.items():
            print(f"  {name:42s} {value:14.6g} {QUALITY_UNITS[name]}")
    print("meta " + json.dumps(meta))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            line, meta, quality = run_workload(name, args.seed, args.seconds,
                                               args.trace)
            print_report(line, meta, quality)
            print(json.dumps(line), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
