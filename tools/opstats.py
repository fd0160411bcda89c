"""Time and page faults per operation of one benchmark workload, in process.

    PYTHONPATH=<checkout>/src python3 tools/opstats.py WORKLOAD [--seed N] [--rounds R]

builds the seeded operation list of WORKLOAD from perfbench/workloads.py
(imported by path, so perfbench/ needs no package), runs the workload's
warm-up operation once, then R rounds of the list through
``scatter1d.cli.main`` with stdout captured.  It prints one JSON line: the
workload, seed, operation count and rounds, the median time of one
operation in ms, the median time of one operation spent in the output
layer, ``scatter1d.cli._emit`` (wrapped here, so the package needs no
hook), the minor page faults (``ru_minflt``) per operation over the timed
rounds, the largest heap peak of one operation in KiB (``peak_heap_kb``,
from tracemalloc in one more round after the timed ones, above what the
operation found allocated), and how many operations exited non-zero.
Faults count what glibc's heap trimming costs, which the times alone do
not show; the heap peak says how close an operation comes to glibc's trim
threshold.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import scatter1d.cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("opstats_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return scatter1d.cli.main(argv)


def peak_heap_bytes(ops: list[list[str]]) -> int:
    """Largest tracemalloc peak of one operation of ops, above what was allocated when it started."""
    tracemalloc.start()
    try:
        peak = 0
        for op in ops:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run(op)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
        return peak
    finally:
        tracemalloc.stop()


class TimedEmit:
    """Stands in for scatter1d.cli._emit and adds up the time spent in it."""

    def __init__(self, emit):
        self.emit = emit
        self.seconds = 0.0

    def __call__(self, *args):
        start = time.perf_counter()
        try:
            return self.emit(*args)
        finally:
            self.seconds += time.perf_counter() - start


def main(argv: list[str]) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    emit = scatter1d.cli._emit = TimedEmit(scatter1d.cli._emit)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            ops = workloads.build(args.workload, args.seed, workdir)
            run(workloads.WARMUP[args.workload])
            times, emit_times, failed = [], [], 0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(args.rounds):
                for op in ops:
                    emitted = emit.seconds
                    start = time.perf_counter()
                    failed += run(op) != 0
                    times.append(time.perf_counter() - start)
                    emit_times.append(emit.seconds - emitted)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            peak_heap = peak_heap_bytes(ops)
    finally:
        scatter1d.cli._emit = emit.emit
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "operations": len(ops),
        "rounds": args.rounds,
        "median_op_ms": 1e3 * statistics.median(times),
        "emit_median_ms": 1e3 * statistics.median(emit_times),
        "minflt_per_op": faults / len(times),
        "peak_heap_kb": peak_heap / 1024,
        "failed": failed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
