"""Time and page faults per operation of one benchmark workload, in process.

    PYTHONPATH=<checkout>/src python3 tools/opstats.py WORKLOAD [--seed N] [--rounds R]
    PYTHONPATH=<checkout>/src python3 tools/opstats.py --argv "COMMAND" [--rounds R]

builds the seeded operation list of WORKLOAD from perfbench/workloads.py
(imported by path, so perfbench/ needs no package), runs the workload's
warm-up operation once, then R rounds of the list through
``scatter1d.cli.main`` with stdout and stderr captured.  With --argv the
list is the one scatter1d command COMMAND, split as a shell splits it
(e.g. ``--argv "fredholm --t 0.1:5.1:0.0125"``), and its warm-up is one
untimed run of the same command; "workload" then reports COMMAND and
"seed" null.  It prints one JSON line: the workload, seed, operation
count and rounds, the median time
of one operation in ms, the median time of one operation spent in the
output layer, ``scatter1d.cli._emit`` (wrapped here, so the package needs
no hook), the minor page faults (``ru_minflt``) per operation over the
timed rounds, the largest heap peak of one operation in KiB
(``peak_heap_kb``, from tracemalloc in one more round after the timed
ones, above what the operation found allocated), how many operations
exited non-zero, and ``output_sha256``.  Faults count what glibc's heap
trimming costs, which the times alone do not show; the heap peak says how
close an operation comes to glibc's trim threshold.

``output_sha256`` is a SHA-256 over the argv, exit code, stdout and stderr
of each operation of the first timed round, in list order, with the
temporary input directory written as ``<workdir>``.  Each operation's
record is hashed as soon as its timer stops, so no output buffer outlives
its operation and the timed rounds see the heap they would see without
the digest.  Two checkouts give the same output when it agrees: run this
script with PYTHONPATH set to each checkout's src.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import resource
import shlex
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


def run(argv: list[str]) -> tuple[int, io.StringIO, io.StringIO]:
    """Exit code, stdout and stderr of one ``scatter1d.cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return scatter1d.cli.main(argv), out, err


def output_record(argv: list[str], result: tuple[int, io.StringIO, io.StringIO], workdir: str) -> bytes:
    """(argv, exit code, stdout, stderr) of one run as JSON bytes, with workdir as <workdir>."""
    code, out, err = result
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return record.replace(json.dumps(workdir)[1:-1], "<workdir>").encode()


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
    parser.add_argument("workload", nargs="?", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--argv", metavar="COMMAND", help="time this one scatter1d command instead of a workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.argv is None):
        parser.error("give either a workload or --argv")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    emit = scatter1d.cli._emit = TimedEmit(scatter1d.cli._emit)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            if args.argv is None:
                ops = workloads.build(args.workload, args.seed, workdir)
                run(workloads.WARMUP[args.workload])
            else:
                ops = [shlex.split(args.argv)]
                run(ops[0])
            times, emit_times, failed, digest = [], [], 0, hashlib.sha256()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for round_number in range(args.rounds):
                for op in ops:
                    emitted = emit.seconds
                    start = time.perf_counter()
                    result = run(op)
                    times.append(time.perf_counter() - start)
                    emit_times.append(emit.seconds - emitted)
                    failed += result[0] != 0
                    if round_number == 0:
                        digest.update(output_record(op, result, workdir))
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            peak_heap = peak_heap_bytes(ops)
    finally:
        scatter1d.cli._emit = emit.emit
    print(json.dumps({
        "workload": args.workload or args.argv,
        "seed": None if args.argv is not None else args.seed,
        "operations": len(ops),
        "rounds": args.rounds,
        "median_op_ms": 1e3 * statistics.median(times),
        "emit_median_ms": 1e3 * statistics.median(emit_times),
        "minflt_per_op": faults / len(times),
        "peak_heap_kb": peak_heap / 1024,
        "failed": failed,
        "output_sha256": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
