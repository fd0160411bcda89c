"""The code-line counter in tools/code_lines.py, the per-operation stats of tools/opstats.py,
and the set-up of the benchmark in perfbench/workloads.py."""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scatter1d.cli
from scatter1d.spectral import QUAD_ORDER

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# A comment-only line.
import math

TEXT = """a string that is
not a docstring"""


def spread(x):
    """Function docstring."""
    return max(
        x, math.pi
    )
'''


def test_counts_what_the_module_docstring_promises(tmp_path):
    # Code lines: the import, both lines of TEXT, the def, and the three
    # lines of the call.  Docstrings, the comment and blank lines drop out.
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    assert code_lines.code_lines(path.read_text(encoding="utf-8")) == 7
    assert code_lines.docstring_lines(SNIPPET) == {1, 2, 12}


def test_total_is_the_sum_of_the_modules(capsys):
    package = ROOT / "src" / "scatter1d"
    assert code_lines.main(["code_lines.py", str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count) for name, count in rows}
    total = counts.pop("total")
    assert sorted(counts) == sorted(path.name for path in package.glob("*.py"))
    assert total == sum(counts.values())
    assert counts["core.py"] == code_lines.code_lines((package / "core.py").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("opstats", ROOT / "tools" / "opstats.py")
opstats = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opstats)


OPSTATS_FIELDS = [
    "workload", "seed", "operations", "rounds", "median_op_ms", "emit_median_ms", "minflt_per_op",
    "peak_heap_kb", "failed", "output_sha256",
]


def test_peak_heap_is_the_largest_of_one_operation_above_its_start(monkeypatch):
    # Each operation keeps its buffer, so the second starts 1 MiB up; its
    # own peak is 0.5 MiB, and the largest of the two is the first's 1 MiB.
    kept = []
    monkeypatch.setattr(opstats, "run", lambda op: kept.append(bytearray(op[0])))
    peak = opstats.peak_heap_bytes([[1 << 20], [1 << 19]])
    assert 1 << 20 <= peak < (1 << 20) + (1 << 16)


def test_opstats_prints_one_json_line_per_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "opstats.py"), "fredholm_sweep", "--seed", "2", "--rounds", "1"],
        capture_output=True, text=True, env=env, check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert sorted(stats) == sorted(OPSTATS_FIELDS)
    assert (stats["workload"], stats["seed"], stats["rounds"]) == ("fredholm_sweep", 2, 1)
    assert stats["operations"] == 8
    assert stats["failed"] == 0
    assert len(stats["output_sha256"]) == 64
    assert stats["median_op_ms"] > stats["emit_median_ms"] > 0.0
    assert stats["minflt_per_op"] >= 0.0
    # A five-point window builds a QUAD_ORDER-node Nystrom table per t, and
    # a channel's kernel and symmetric matrix live beside its two sinc
    # matrices: at least four QUAD_ORDER x QUAD_ORDER doubles, 32 KiB.
    assert stats["peak_heap_kb"] >= 4 * QUAD_ORDER * QUAD_ORDER * 8 / 1024


def test_output_digest_changes_when_one_operation_output_changes(monkeypatch, capsys):
    def digest():
        assert opstats.main(["fredholm_sweep", "--seed", "2", "--rounds", "1"]) == 0
        return json.loads(capsys.readouterr().out)["output_sha256"]

    plain = digest()
    assert digest() == plain
    calls = []
    cli_main = opstats.scatter1d.cli.main

    def third_operation_changed(argv):
        calls.append(argv)
        code = cli_main(argv)
        if len(calls) == 4:  # the warm-up, then the third operation of the first round
            print("0")
        return code

    monkeypatch.setattr(opstats.scatter1d.cli, "main", third_operation_changed)
    assert digest() != plain


def test_output_record_reads_the_input_directory_as_a_placeholder():
    def record(workdir, placeholder):
        path = f"{workdir}/potential_00.csv"
        result = (0, io.StringIO(f'"file": "{path}"'), io.StringIO(""))
        return opstats.output_record(["smatrix", "--sampled", path], result, placeholder)

    assert record("/tmp/one", "/tmp/one") == record("/tmp/two", "/tmp/two")
    assert record("/tmp/one", "/tmp/one") != record("/tmp/one", "/tmp/two")


_spec = importlib.util.spec_from_file_location("test_tools_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", sorted(workloads.WARMUP))
def test_benchmark_warm_up_and_first_operation_run(workload, tmp_path, capsys):
    # The benchmark runs each workload's warm-up, then its seeded list; an
    # argv that no longer parses would break the run before it is timed.
    assert scatter1d.cli.main(workloads.WARMUP[workload]) == 0
    assert scatter1d.cli.main(workloads.build(workload, 1, str(tmp_path))[0]) == 0
    assert capsys.readouterr().err == ""


def test_opstats_times_one_command_in_place_of_a_workload(monkeypatch, capsys):
    calls = []
    cli_main = opstats.scatter1d.cli.main

    def recorded(argv):
        calls.append(argv)
        return cli_main(argv)

    monkeypatch.setattr(opstats.scatter1d.cli, "main", recorded)
    text = "fredholm --t 0.1:0.3:0.025 --format json"
    assert opstats.main(["--argv", text, "--rounds", "2"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert sorted(stats) == sorted(OPSTATS_FIELDS)
    assert (stats["workload"], stats["seed"], stats["operations"], stats["rounds"]) == (text, None, 1, 2)
    assert stats["failed"] == 0
    command = text.split()
    # The untimed warm-up, two timed rounds, and the round that reads the heap peak.
    assert calls == [command] * 4
    record = opstats.output_record(command, opstats.run(command), "<workdir>")
    assert stats["output_sha256"] == hashlib.sha256(record).hexdigest()


@pytest.mark.parametrize("argv", [[], ["fredholm_sweep", "--argv", "fredholm --t 1:1.1:0.025"]], ids=["neither", "both"])
def test_opstats_takes_a_workload_or_one_command(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        opstats.main(argv)
    assert exit_info.value.code == 2
    assert "give either a workload or --argv" in capsys.readouterr().err
