"""specdiff benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload verify|scatter|box-bands|counting \\
        --seed N --seconds T --trace 0|1

Every timed process is a child started with BLAS and OpenMP pinned to one
thread in its environment (set before numpy is imported) and ``src`` on
its path, so the program is used straight from source.  Set-up is measured
in SETUP_PROBES extra children, half before and half after the worker, plus
the worker itself, and reported as the median.  One untimed child before
them fills the byte-code cache, so every timed set-up reads byte code.  The
worker repeats passes for about ``--seconds``; with ``--trace 1`` each
untraced pass is followed by a traced one.

Human-readable lines, including the machine facts, go first; the last
stdout line is the JSON result.  A full record of the run is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify", "scatter", "box-bands", "counting")
SETUP_PROBES = 8
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Byte code lives in one cache of the benchmark's own, never in the
    # __pycache__ directories a test run may have left next to the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _machine_facts(env: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    l3 = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        if (_read(os.path.join(cache, index, "level")) or "").strip() == "3":
            l3 = (_read(os.path.join(cache, index, "size")) or "").strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "l3_size": l3, "python": platform.python_version(),
            "threads": {var: env[var] for var in THREAD_VARS}}


def _run_child(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "specdiff", "__init__.py")):
        print(f"no specdiff sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = _child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    def probes(count):
        return [_run_child(common + ["--setup-only"], env, deadline)["setup_s"]
                for _ in range(count)]

    try:
        probes(1)  # untimed: compiles into the byte-code cache if needed
        setups = probes(SETUP_PROBES // 2)
        res = _run_child(common + ["--trace", str(args.trace)], env, deadline)
        setups += probes(SETUP_PROBES // 2) + [res["setup_s"]]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    facts = {**_machine_facts(env), **res["libraries"]}
    setup_s = statistics.median(setups)
    wall_s = statistics.median(res["walls"])
    attempted, failed = res["attempted"], res["failed"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
        f"machine  {json.dumps(facts)}",
        f"setup_s          {setup_s:.4f} s   (median of {len(setups)} set-ups)",
        f"wall_s           {wall_s:.4f} s   (median of {len(res['walls'])} "
        f"untraced passes: {', '.join(f'{w:.3f}' for w in res['walls'])})",
        f"peak_rss_mb      {res['peak_rss_mb']:.1f} MB",
        f"fail_ratio       {failed}/{attempted} = {failed / attempted:.4g}",
    ]
    accuracy = res["accuracy"]
    for key in ("cross_route_err", "bk_residual_max"):
        if key in accuracy:
            lines.append(f"{key:<16} {accuracy[key]:.4g}")
    if "final_nodes" in accuracy:
        ladder = {}
        for kind, _, nodes in accuracy["final_nodes"]:
            ladder[(kind, nodes)] = ladder.get((kind, nodes), 0) + 1
        lines.append("final_nodes      " + ", ".join(
            f"{kind} n={nodes} x{count}" for (kind, nodes), count in ladder.items()))
    lines += [f"problem: {msg}" for msg in res["problems"]]

    if args.trace:
        metrics = res["layers"]
        lines += [f"{name:<48} {m['value']:.6g} {m['unit']}"
                  for name, m in metrics.items()]
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "setup_samples": setups, **res, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
