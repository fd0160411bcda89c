"""Each benchmark check accepts real output and rejects a perturbed copy.

    python3 -m pytest perfbench/test_checks.py -q

Operations come from the workloads' own seeded lists and run in process
against the sources in ../src.
"""

import contextlib
import csv
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from scatter1d.cli import main  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def first_op(workload, tmp_path, flag=None):
    ops = workloads.build(workload, 0, str(tmp_path))
    return next(op for op in ops if flag is None or flag in op)


def edit_json(text, change):
    report = json.loads(text)
    change(report)
    return json.dumps(report)


def edit_csv(text, row, column, delta):
    rows = list(csv.DictReader(io.StringIO(text)))
    for name, step in zip(column if isinstance(column, tuple) else (column,), delta):
        rows[row][name] = repr(float(rows[row][name]) + step)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def shift_entry(row_index, key, delta):
    def change(report):
        report["results"][row_index][key][0] += delta
    return change


@pytest.mark.parametrize("flag", ["--well", "--sampled"])
def test_energy_sweep(tmp_path, flag):
    argv = first_op("energy_sweep", tmp_path, flag)
    text = run(argv)
    rows = (3, 20)
    assert checks.check_energy_sweep(argv, text, ode_energies=rows) is None
    bad = edit_json(text, shift_entry(20, "s12", 1e-5))
    assert checks.check_energy_sweep(argv, bad, ode_energies=rows) is not None


@pytest.mark.parametrize("key, value", [
    ("odd_coefficient", lambda c: c * 1.01),
    ("separation", lambda s: 1e-3),
    ("boundary_residual", lambda r: 1e-9),
    ("baseline_max_abs_v", lambda v: 1e-4),
    ("energy", lambda e: e + 1e-3),
])
def test_counterexample(tmp_path, key, value):
    argv = first_op("counterexample", tmp_path)
    text = run(argv)
    assert checks.check_counterexample(argv, text) is None
    bad = edit_json(text, lambda report: report.__setitem__(key, value(report[key])))
    assert checks.check_counterexample(argv, bad) is not None


@pytest.mark.parametrize("column", ["logf_plus", "asym_residual_minus", "t"])
def test_fredholm(tmp_path, column):
    argv = first_op("fredholm_sweep", tmp_path)
    text = run(argv)
    assert checks.check_fredholm(argv, text) is None
    assert checks.check_fredholm(argv, edit_csv(text, 2, column, (1e-5,))) is not None


@pytest.mark.parametrize("row, delta", [(2, 1e-9), (4, 1e-3)])
def test_toeplitz(tmp_path, row, delta):
    # log_det and residual move together, so only the LU comparison (row 2,
    # n = 32) or the n^2 residual settling (row 4, n = 128) can catch it.
    argv = first_op("toeplitz_table", tmp_path)
    text = run(argv)
    assert checks.check_toeplitz(argv, text, lu_n=32) is None
    bad = edit_csv(text, row, ("log_det", "residual"), (delta, delta))
    assert checks.check_toeplitz(argv, bad, lu_n=32) is not None
