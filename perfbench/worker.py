"""One workload process: set up, then call scatter1d.cli.main in a timed loop.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        [--seconds S --result FILE [--trace]]

It imports ``scatter1d.cli``, writes the seeded inputs to DIR, runs the
workload's warm-up operation and prints ``ready``.  Without ``--result`` it
stops there: that is one set-up sample.  With it, it runs whole rounds of
the operation list for about S seconds, capturing each operation's
standard output in memory, and writes the first round's outputs, every
operation time and its own peak RSS to FILE as JSON.  Later rounds must
print exactly what the first printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import workloads


#: Exit code recorded for an operation whose call raised; the traceback
#: takes the place of its output.
RAISED = -1


def call(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception:  # one broken operation must not end the run
        return RAISED, traceback.format_exc()
    return code, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import scatter1d.cli as cli

    ops = workloads.build(args.workload, args.seed, args.workdir)
    code, _ = call(cli.main, workloads.WARMUP[args.workload])
    if code != 0:
        print(f"warm-up operation exited {code}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.result is None:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    codes, outputs, op_seconds, round_seconds = [], [], [], []
    mismatches = [0] * len(ops)
    clock = time.perf_counter
    begin = clock()
    # Whole rounds only; stop where the run ends nearest to --seconds.
    while not round_seconds or clock() - begin + round_seconds[-1] / 2 < args.seconds:
        round_start = clock()
        for index, argv in enumerate(ops):
            start = clock()
            code, text = call(cli.main, argv)
            op_seconds.append(clock() - start)
            if not round_seconds:
                codes.append(code)
                outputs.append(text)
            elif code != codes[index] or text != outputs[index]:
                mismatches[index] += 1
        round_seconds.append(clock() - round_start)

    result = {
        "ops": ops,
        "codes": codes,
        "outputs": outputs,
        "mismatches": mismatches,
        "rounds": len(round_seconds),
        "op_seconds": op_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing_wraps"] = tracer.missing
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
