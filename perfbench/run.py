"""The repository's benchmark: two workloads, end-to-end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Workloads:

``paper-sweep``
    The offline reproduction grid through ``ExperimentRunner``:
    bfcl, geoengine, edgehome and browser x default, gorilla and lis-k3,
    one model/quant pair.  An op is one episode.
``edge-http``
    ``serve_gateway`` on an ephemeral port, four tenants, a closed loop
    over at most ``nproc`` keep-alive connections posting ``/v1/call``.
    An op is one request.

The process pins itself to one CPU first (see :func:`_pin_to_one_cpu`),
so ``nproc`` is 1 and edge-http runs a single connection: one user
waiting for each reply.

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs it three times for half of ``--seconds``
each: untraced, with spans around each layer's public functions, and
untraced again; it prints the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (``{name: {"value", "unit"}}``).  A failed correctness
check sets ``correct`` to false.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-sweep", "edge-http")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                 units: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import report, tracing, workloads

    run_workload = workloads.WORKLOADS[workload]
    if trace:
        # untraced, traced, untraced again, each half as long: the
        # overhead compares the traced run with the mean of the runs
        # around it, so drift within the process cancels
        seconds /= 2
    untraced = run_workload(seed, seconds)
    runs = [untraced]
    if trace:
        with tracing.Tracer() as tracer:
            traced = run_workload(seed, seconds, tracer=tracer, setups=1)
        after = run_workload(seed, seconds, setups=1)
        runs += [traced, after]
        metrics = report.per_layer(untraced, traced, tracer, after)
        units = report.PER_LAYER_UNITS
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = report.end_to_end(untraced)
        units = report.END_TO_END_UNITS
    for line in report.lines(untraced, metrics, units):
        print(line)
    for label, run in zip(("traced run", "second untraced run"), runs[1:]):
        for problem in run.problems:
            print(f"  CHECK FAILED ({label}): {problem}")
    problems = [problem for run in runs for problem in run.problems]
    print(_result_line(not problems, untraced.attempted, untraced.failed,
                       metrics, units))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process (so peak RSS is its own)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    The program is GIL-bound: its event-loop, batch-worker and client
    threads hand the interpreter lock back and forth.  Spread over two
    virtual CPUs, each hand-off can wait for the other CPU to be woken,
    and on a shared 2-vCPU host that made throughput and tail latency
    of the same inputs vary by up to 1.6x between runs; on one CPU the
    spread fell to a few percent.  Child processes inherit the mask.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    _pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
