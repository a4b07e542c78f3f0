"""One workload process: set up, check, then time ops back to back.

Started by run.py, never by hand. Protocol on stdout: the line ``ready``
once set-up is done (imports, phantom, the untimed check op), then one
JSON object with everything the run measured. The library is imported
from ``src/`` of the checkout this file sits in, and nowhere else.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.npz")
# at most this many problem messages travel back to run.py
MAX_PROBLEMS = 20


def import_library():
    """Import poissonridge from the checkout's src/ or exit with code 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import poissonridge
    except ImportError as exc:
        sys.exit(f"cannot import poissonridge from {src}: {exc}")
    if not os.path.abspath(poissonridge.__file__).startswith(src + os.sep):
        sys.exit(f"poissonridge was imported from {poissonridge.__file__}, "
                 f"not from {src}")
    return poissonridge


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        getter = getattr(ctypes.CDLL(path),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pr = import_library()
    import numpy as np
    import scipy

    from tracer import Tracer
    from workloads import CHECK_SEED, WORKLOADS, reference_problems

    workload = WORKLOADS[args.workload](pr)
    with np.load(REFERENCE, allow_pickle=False) as recorded:
        reference = recorded[args.workload]
    problems = []

    # the warm-up op is the check op: untimed, compared with the reference
    check_out = workload.run(pr, workload.make_input(pr, CHECK_SEED, 0))
    check_problems = (workload.problems(check_out)
                      + reference_problems(workload, check_out, reference))
    problems += [f"check op: {p}" for p in check_problems]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    print("ready", flush=True)

    latencies, digests, quality = [], [], {}
    failed = 0
    index = args.first_op
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        op_input = workload.make_input(pr, args.seed, index)
        index += 1
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        try:
            if tracer:
                tracer.active = True
            start = perf_counter()
            with span:
                output = workload.run(pr, op_input)
            latencies.append(perf_counter() - start)
        except Exception:    # a failed op is counted, and the run goes on
            failed += 1
            problems.append(f"op {index - 1} raised: "
                            + traceback.format_exc(limit=3))
            continue
        finally:
            if tracer:
                tracer.active = False
        op_problems = workload.problems(output)
        if op_problems:
            failed += 1
            problems += [f"op {index - 1}: {p}" for p in op_problems]
            continue
        digests.append(workload.digest(output))
        for key, value in workload.quality(pr, op_input, output).items():
            quality.setdefault(key, []).append(value)

    result = {
        "latencies_s": latencies,
        "digests": digests,
        "quality": quality,
        "attempted": index - args.first_op + 1,
        "failed": failed + bool(check_problems),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "blas_threads": blas_threads(),
    }
    if tracer:
        problems += tracer.uninstall()
        self_s = tracer.self_times()
        problems += tracer.check_nesting(self_s)
        result["trace"] = {"functions": tracer.aggregate(self_s),
                           "counts": dict(tracer.counts)}
    result["problems"] = problems[:MAX_PROBLEMS]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
