"""One benchmark process: set up a workload, run timed passes, check them.

Started by run.py with BLAS/OpenMP pinned to one thread in its environment
and ``src`` on its path.  Prints one JSON object on its last stdout line.

    python3 worker.py --workload W --seed N --seconds T --trace 0|1 [--setup-only]
"""

import time

_T0 = time.perf_counter()  # set-up time starts before numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402  (imports numpy and specdiff)
from tracing import Tracer  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _library_facts() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config),
            "scipy_blas": blas(scipy.show_config)}


def _timed_pass(workload, inputs, begin_case):
    gc.collect()
    t0 = time.perf_counter()
    cases = workloads.run_pass(workload, inputs, begin_case)
    return time.perf_counter() - t0, cases


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    inputs = workloads.make_inputs(args.workload, args.seed)
    workloads.warm_up()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    walls, traced_walls, problems = [], [], []
    tracer = Tracer() if args.trace else None

    def check(cases):
        problems.extend(workloads.check_pass(args.workload, inputs, cases))

    def next_case():
        tracer.case_id += 1

    start = time.perf_counter()
    while True:
        wall, cases = _timed_pass(args.workload, inputs, lambda: None)
        walls.append(wall)
        check(cases)
        pass_s = statistics.median(walls)
        if tracer is not None:
            layers.install(tracer)
            try:
                wall, cases = _timed_pass(args.workload, inputs, next_case)
            finally:
                tracer.restore()
            traced_walls.append(wall)
            check(cases)
            pass_s += statistics.median(traced_walls)
        accuracy = workloads.accuracy(args.workload, cases)
        # Start another pass only if it should end within --seconds.
        if time.perf_counter() - start + pass_s > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "problems": [msg for p in problems for msg in p][:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": accuracy,
        "libraries": _library_facts(),
    }
    if tracer is not None:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        result["traced_walls"] = traced_walls
        result["layers"] = layers.derive(tracer, len(traced_walls), overhead,
                                         accuracy)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
