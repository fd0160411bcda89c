"""Benchmark of scatter1d: each operation is one in-process scatter1d.cli.main call.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/scatter1d``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Workloads, metrics, tolerances and
reference figures are described in README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

#: Fresh interpreters timed for setup_s, half before the timed run and half
#: after it so that one slow spell of a shared host does not set the median;
#: and fresh interpreters run under -X importtime for the set-up layer of
#: the traced run.  The median is reported.
SETUP_SAMPLES = 6
IMPORTTIME_SAMPLES = 3
#: Sampled energy_sweep rows per operation checked against DOP853, and the
#: toeplitz_table sizes one of which per operation is checked by dense LU.
ODE_ROWS_PER_OP = 2
LU_SIZES = [
    n for n in map(int, workloads.TOEPLITZ_SIZES.split(",")) if n <= checks.TOEPLITZ_LU_MAX_N
]
#: Every process the benchmark starts gets one BLAS and OpenMP thread, so
#: load comes from one process on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 120
#: Percentile, over a run's rounds, of each operation's time (see main).
OP_PERCENTILE = 80
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath")


class BenchError(Exception):
    """The benchmark could not run the program to a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def worker_command(workload: str, seed: int, workdir: str, *extra: str) -> list[str]:
    return [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--workdir", workdir, *extra,
    ]


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    workdir = tempfile.mkdtemp(dir=RESULTS)
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            worker_command(workload, seed, workdir),
            stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.close()
        finally:
            _finish(proc, SETUP_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up of {workload} failed with exit code {proc.returncode}")
        return ready
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_times(log: str) -> dict[str, float]:
    """Milliseconds per package from a ``python -X importtime`` log.

    numpy, scipy and mpmath count the cumulative time of each of their
    outermost imports; scatter1d counts the self time of its own modules.
    """
    entries = []  # name, self us, cumulative us, parent index
    open_entries: list[int] = []
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue
        raw = fields[2].rstrip()
        depth = len(raw) - len(raw.lstrip())
        index = len(entries)
        entries.append([raw.strip(), own, cumulative, -1, depth])
        while open_entries and entries[open_entries[-1]][4] > depth:
            entries[open_entries.pop()][3] = index
        open_entries.append(index)

    def within(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    def outermost(index: int, package: str) -> bool:
        parent = entries[index][3]
        while parent >= 0:
            if within(entries[parent][0], package):
                return False
            parent = entries[parent][3]
        return True

    times = {
        f"setup.import_{package}_ms": sum(
            entry[2] for i, entry in enumerate(entries)
            if within(entry[0], package) and outermost(i, package)
        ) / 1000.0
        for package in IMPORT_PACKAGES
    }
    times["setup.import_scatter1d_ms"] = sum(
        entry[1] for entry in entries if within(entry[0], "scatter1d")
    ) / 1000.0
    return times


def import_sample(workload: str, seed: int) -> dict[str, float]:
    workdir = tempfile.mkdtemp(dir=RESULTS)
    log_path = os.path.join(workdir, "importtime.log")
    try:
        command = worker_command(workload, seed, workdir)
        command[1:1] = ["-X", "importtime"]
        with open(log_path, "w", encoding="utf-8") as log:
            done = subprocess.run(
                command, stdout=subprocess.DEVNULL, stderr=log, env=child_env(),
                timeout=SETUP_TIMEOUT_S,
            )
        with open(log_path, encoding="utf-8") as log:
            text = log.read()
        if done.returncode != 0:
            raise BenchError(f"import-time sample of {workload} failed:\n{text[-2000:]}")
        return import_times(text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_worker(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    result_path = os.path.join(workdir, "result.json")
    extra = ["--seconds", str(seconds), "--result", result_path]
    proc = subprocess.Popen(
        worker_command(workload, seed, workdir, *extra, *(["--trace"] if trace else [])),
        stdout=subprocess.DEVNULL, env=child_env(),
    )
    _finish(proc, seconds + 600)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def failing_ops(workload: str, seed: int, result: dict) -> dict[int, str]:
    """Index and reason of every operation whose first-round output is wrong."""
    rng = np.random.default_rng([seed, 1])
    failures = {}
    for index, (argv, code, text) in enumerate(zip(result["ops"], result["codes"], result["outputs"])):
        # Seeded picks first, so that they do not depend on earlier failures.
        rows = sorted(rng.choice(workloads.GRID_ENERGIES, ODE_ROWS_PER_OP, replace=False))
        lu_n = int(rng.choice(LU_SIZES))
        if code != 0:
            last = text.strip().splitlines()[-1:]
            failures[index] = f"exit code {code}" + (f": {last[0]}" if last else "")
            continue
        try:
            if workload == "energy_sweep":
                reason = checks.check_energy_sweep(argv, text, ode_energies=rows)
            elif workload == "counterexample":
                reason = checks.check_counterexample(argv, text)
            elif workload == "fredholm_sweep":
                reason = checks.check_fredholm(argv, text)
            else:
                reason = checks.check_toeplitz(argv, text, lu_n=lu_n)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            failures[index] = reason
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "scatter1d", "cli.py")):
        print(f"error: no scatter1d sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)

    workload, seed = args.workload, args.seed
    if args.trace:
        samples = [import_sample(workload, seed) for _ in range(IMPORTTIME_SAMPLES)]
    else:
        setups = [setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES // 2)]

    workdir = tempfile.mkdtemp(dir=RESULTS)
    try:
        result = run_worker(workload, seed, args.seconds, bool(args.trace), workdir)
        if not args.trace:
            setups += [setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES - len(setups))]
        failures = failing_ops(workload, seed, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result["rounds"]
    attempted = len(result["ops"]) * rounds
    failed = sum(
        rounds if index in failures else result["mismatches"][index]
        for index in range(len(result["ops"]))
    )
    for index, reason in sorted(failures.items()):
        print(f"FAILED {' '.join(result['ops'][index])}: {reason}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: (statistics.median(sample[name] for sample in samples), "ms")
            for name in samples[0]
        }
        outputs = result["outputs"]
        metrics["cli.output_kb"] = (sum(map(len, outputs)) / len(outputs) / 1024.0, "KiB")
        metrics.update(tracing.per_layer(result["spans"]))
        if result["missing_wraps"]:
            print(f"warning: not traced: {', '.join(result['missing_wraps'])}", file=sys.stderr)
        trace_path = os.path.join(RESULTS, f"trace-{workload}-{seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": result["spans"], "missing_wraps": result["missing_wraps"]}, handle)
    else:
        # Each operation's 80th percentile over the run's rounds: a shared
        # host runs the same code up to 1.8x faster in passing spells whose
        # share of a run varies from run to run, while its usual speed shows
        # in most rounds of every run.  The top fifth, where a single stall
        # lands, is dropped as well.
        per_op = np.percentile(
            np.reshape(result["op_seconds"], (rounds, -1)), OP_PERCENTILE, axis=0
        )
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (float(per_op.sum()), "s"),
            "op_p50_ms": (float(np.median(per_op)) * 1000.0, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
