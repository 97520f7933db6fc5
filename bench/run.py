"""Streaming benchmark for targetvoice: one workload run, one JSON result.

    python3 bench/run.py --workload stream_ppn512 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. Each run

1. generates the workload's inputs from the seed (bench/inputs.py, untimed),
2. without tracing, starts two set-up probe processes and reports the median
   set-up time of those and the measured process,
3. runs the workload in a fresh process (bench/worker.py) with BLAS pinned
   to one thread, for about --seconds of whole rounds, and reports every
   time at reference speed, scaled by a fixed kernel timed next to it
   (bench/refspeed.py), because the host's own speed drifts,
4. prints the environment, sample counts and, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a run with timing spans (bench/spans.py). bench/README.md
lists the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 2
DEADLINE_S = 175.0


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics each mode must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def generate_inputs(workload: str, seed: int, out: str) -> None:
    """Write the run's inputs; importing bench/inputs.py pins BLAS threads."""
    import inputs as bench_inputs

    bench_inputs.generate(workload, seed, out)


def worker(args, inputs: str, result: str, deadline: float, setup_only: bool) -> dict:
    """Run bench/worker.py in a fresh process and return its result file."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--inputs", inputs, "--result", result, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0-ns", str(time.monotonic_ns())]
    subprocess.run(argv, cwd=ROOT, check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    with open(result) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = benchmark_spec()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "targetvoice", "__init__.py")):
        print(f"no targetvoice sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    try:
        os.makedirs(work)
        generate_inputs(args.workload, args.seed, inputs)
        setups, wall_setups = [], []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = worker(args, inputs, os.path.join(work, f"probe{i}.json"),
                               deadline, setup_only=True)
                setups.append(probe["setup_s"])
                wall_setups.append(probe["setup_wall_s"])
        result = worker(args, inputs, os.path.join(work, "result.json"), deadline,
                        setup_only=False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            TimeoutError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(metrics["setup_s"])
        wall_setups.append(result["info"]["wall"]["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples"] = setups
        result["info"]["wall"]["setup_s"] = statistics.median(wall_setups)
    env = result["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas']} ({env['blas_threads']} thread), nproc {env['nproc']}, "
          f"usable cpus {env['cpus_usable']}")
    print(f"info: {json.dumps(result['info'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
