"""Time and page faults per operation of one benchmark workload, in process.

    PYTHONPATH=<checkout>/src python3 tools/opstats.py WORKLOAD [--seed N] [--rounds R]

builds the seeded operation list of WORKLOAD from perfbench/workloads.py
(imported by path, so perfbench/ needs no package), runs the workload's
warm-up operation once, then R rounds of the list through
``scatter1d.cli.main`` with stdout captured.  It prints one JSON line: the
workload, seed, operation count and rounds, the median time of one
operation in ms, the minor page faults (``ru_minflt``) per operation over
the timed rounds, and how many operations exited non-zero.  Faults count
what glibc's heap trimming costs, which the times alone do not show.
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
from pathlib import Path

from scatter1d.cli import main as cli_main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("opstats_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def main(argv: list[str]) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.build(args.workload, args.seed, workdir)
        run(workloads.WARMUP[args.workload])
        times, failed = [], 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(args.rounds):
            for op in ops:
                start = time.perf_counter()
                failed += run(op) != 0
                times.append(time.perf_counter() - start)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "operations": len(ops),
        "rounds": args.rounds,
        "median_op_ms": 1e3 * statistics.median(times),
        "minflt_per_op": faults / len(times),
        "failed": failed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
