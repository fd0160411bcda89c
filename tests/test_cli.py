"""Command line interface: outputs, schema conformance, and exit codes."""

import csv
import io
import json
import math
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from helpers import analytic_square_barrier, run_cli
from scatter1d.cli import MAX_GRID_POINTS, _json, build_parser, main
from scatter1d.noninjective import DEFAULT_NODE_TOL
from scatter1d.smatrix import analytic_delta, analytic_square_well
from scatter1d.spectral import MIN_GRID_SPACING, QUAD_ORDER


@pytest.fixture(scope="module")
def validator():
    with resources.files("scatter1d").joinpath("schema.json").open() as handle:
        schema = json.load(handle)
    return jsonschema.Draft202012Validator(schema)


def check_json(validator, text: str) -> dict:
    report = json.loads(text)
    errors = list(validator.iter_errors(report))
    assert not errors, "\n".join(e.message for e in errors)
    return report


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def write_trace(path, x, psi):
    lines = ["x,psi"] + [f"{float(xi)!r},{float(pi)!r}" for xi, pi in zip(x, psi)]
    path.write_text("\n".join(lines) + "\n")
    return path


def assert_csv_mirrors_json(text: str, records: list[dict]):
    """Every CSV cell equals its JSON value.

    A complex JSON value [re, im] feeds the re_<name> and im_<name> columns,
    and a CSV nan is a JSON null.
    """
    header, rows = parse_csv(text)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        for column, cell in zip(header, row):
            if column in record:
                value = record[column]
            else:
                part, name = column.split("_", 1)
                value = record[name][("re", "im").index(part)]
            if cell == "nan":
                assert value is None, column
            else:
                assert float(cell) == value, column


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency; the package must not import it.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, scatter1d.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestSmatrix:
    def test_well_json_matches_closed_form(self, validator):
        proc = run_cli("smatrix", "--well", "2,1", "--energy", "1", "--format", "json")
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        assert report["config"]["subcommand"] == "smatrix"
        assert report["config"]["well"] == [2.0, 1.0]
        (row,) = report["results"]
        ref = analytic_square_well(2.0, 1.0, 1.0)
        assert abs(complex(*row["s11"]) - ref.s11) < 1e-6
        assert abs(complex(*row["s12"]) - ref.s12) < 1e-6
        assert row["unitarity_residual"] < 1e-8

    def test_well_csv_header_and_values(self):
        proc = run_cli("smatrix", "--well", "2,1", "--energy", "1", "--format", "csv")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == [
            "energy", "k", "a",
            "re_s11", "im_s11", "re_s12", "im_s12",
            "re_s21", "im_s21", "re_s22", "im_s22",
            "abs_s11_sq", "abs_s21_sq", "unitarity_residual",
        ]
        assert len(rows) == 1
        ref = analytic_square_well(2.0, 1.0, 1.0)
        assert abs(float(rows[0][3]) - ref.s11.real) < 1e-6
        assert abs(float(rows[0][11]) - abs(ref.s11) ** 2) < 1e-6

    def test_delta_uses_the_closed_form(self, validator):
        proc = run_cli("smatrix", "--delta", "2", "--energy", "1", "--format", "json")
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        (row,) = report["results"]
        ref = analytic_delta(2.0, 1.0)
        assert abs(complex(*row["s11"]) - ref.s11) < 1e-14
        assert row["a"] == 0.0

    def test_energy_grid_row_count(self):
        proc = run_cli(
            "smatrix", "--well", "2,1", "--energy-grid", "0.5,2.5,5",
            "--format", "csv",
        )
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        assert len(rows) == 5
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0, 2.5]

    def test_sampled_file_input(self, tmp_path, validator):
        path = tmp_path / "well.csv"
        x = np.linspace(-1.0, 1.0, 257)
        lines = ["x,V"] + [f"{float(xi)!r},{-2.0!r}" for xi in x]
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "smatrix", "--sampled", str(path), "--energy", "1", "--format", "json"
        )
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        (row,) = report["results"]
        ref = analytic_square_well(2.0, 1.0, 1.0)
        assert abs(complex(*row["s11"]) - ref.s11) < 1e-5

    def test_tall_sampled_barrier_transmits_what_the_closed_form_says(self, tmp_path, validator):
        # |s21|^2 is about 1.5e-54 here; it is read off the channel
        # solutions on [0, a] with no cancellation.
        path = tmp_path / "barrier.csv"
        x = np.linspace(-1.0, 1.0, 257)
        path.write_text("\n".join(["x,V"] + [f"{float(xi)!r},900.0" for xi in x]) + "\n")
        proc = run_cli("smatrix", "--sampled", str(path), "--energy", "1", "--format", "json")
        assert proc.returncode == 0
        (row,) = check_json(validator, proc.stdout)["results"]
        expected = abs(analytic_square_barrier(900.0, 1.0, 1.0).s21) ** 2
        assert abs(row["abs_s21_sq"] - expected) <= 1e-10 * expected

    def test_out_file_writes_and_silences_stdout(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli(
            "smatrix", "--well", "2,1", "--energy", "1",
            "--format", "json", "--out", str(target),
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(target.read_text())["config"]["subcommand"] == "smatrix"


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_missing_potential_is_usage_error(self):
        proc = run_cli("smatrix", "--energy", "1")
        assert proc.returncode == 2

    def test_conflicting_potentials_is_usage_error(self):
        proc = run_cli("smatrix", "--well", "2,1", "--delta", "1", "--energy", "1")
        assert proc.returncode == 2

    def test_malformed_pair_is_usage_error(self):
        proc = run_cli("smatrix", "--well", "2", "--energy", "1")
        assert proc.returncode == 2
        proc = run_cli("smatrix", "--well", "2,x", "--energy", "1")
        assert proc.returncode == 2

    def test_computation_failure_exits_three(self):
        proc = run_cli("smatrix", "--well", "2,1", "--energy", "0")
        assert proc.returncode == 3
        assert "error" in proc.stderr.lower()

    def test_missing_input_file_exits_three(self):
        proc = run_cli("smatrix", "--sampled", "/nonexistent.csv", "--energy", "1")
        assert proc.returncode == 3

    @pytest.mark.parametrize("flag", ["--sampled", "--trace"])
    def test_directory_as_input_file_exits_three(self, tmp_path, flag):
        command = "smatrix" if flag == "--sampled" else "recover"
        proc = run_cli(command, flag, str(tmp_path), "--energy", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_non_utf8_input_file_exits_three(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"x,V\n\xd0\xff\xfe,1\n")
        proc = run_cli("smatrix", "--sampled", str(path), "--energy", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag, text", [("--sampled", "x,V\n"), ("--trace", "x,psi\n\n\n")])
    def test_header_only_input_file_exits_three_naming_the_fault(self, tmp_path, flag, text):
        path = tmp_path / "header_only.csv"
        path.write_text(text)
        command = "smatrix" if flag == "--sampled" else "recover"
        proc = run_cli(command, flag, str(path), "--energy", "1")
        assert proc.returncode == 3
        header = text.split()[0]
        assert proc.stderr == f"error: the file holds no data rows after its header {header!r}\n"

    def test_node_free_guard_exits_two_with_message(self):
        proc = run_cli("counterexample", "--q", "1.6", "--a", "1.0")
        assert proc.returncode == 2
        assert "pi/2" in proc.stderr

    def test_bump_shape_flag_is_gone(self):
        # The smooth bump is the only deformation, so no flag selects a
        # shape: --bump is refused whatever its value, its old default too.
        proc = run_cli("counterexample", "--bump", "smooth")
        assert proc.returncode == 2
        assert "unrecognized arguments: --bump smooth" in proc.stderr

    def test_fredholm_t_too_large_exits_three(self):
        proc = run_cli("fredholm", "--t", "6.5:6.7:0.05")
        assert proc.returncode == 3

    def test_fredholm_eigenvalue_at_one_exits_three_naming_the_first_t(self):
        # t = 5.3 opens the grid and the first block of its stacked spectra.
        # The eigenvalue's last digits depend on the LAPACK in use.
        proc = run_cli("fredholm", "--t", "5.3:5.5:0.05")
        assert proc.returncode == 3
        assert proc.stdout == ""
        match = re.fullmatch(
            r"error: top eigenvalue (\S+) is within 1e-13 of 1 at t = 5\.3; "
            r"the determinant underflows double precision\n",
            proc.stderr,
        )
        assert match and 1.0 - 1e-13 <= float(match.group(1)) <= 1.0

    @pytest.mark.parametrize("sizes, bad", [("0", "0"), ("8,0", "0"), ("600,8", "600")])
    def test_szego_size_out_of_range_exits_three_naming_it(self, sizes, bad):
        proc = run_cli("szego", "--alpha", "1", "--n", sizes)
        assert proc.returncode == 3
        assert proc.stderr == f"error: n must lie in [1, 512], got {bad}\n"

    def test_fredholm_spacing_below_the_floor_exits_three(self):
        # w at this spacing is rounding noise; it used to print with exit 0.
        proc = run_cli("fredholm", "--t", "1:1.000004:0.000001")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"is below {MIN_GRID_SPACING}" in proc.stderr

    def test_energy_grid_too_long_exits_three_before_allocating(self, capsys):
        count = MAX_GRID_POINTS + 1
        assert main(["smatrix", "--well", "2,1", "--energy-grid", f"0.5,2,{count}"]) == 3
        assert f"energy grid of {count} points has more than {MAX_GRID_POINTS}" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["1e-15", "5e-324"])
    def test_fredholm_grid_too_fine_exits_three_before_allocating(self, step):
        proc = run_cli("fredholm", "--t", f"0.5:6:{step}")
        assert proc.returncode == 3
        assert "more than 100000 points" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("fredholm", "--t", "nan:1:0.1"), "--t"),
            (("smatrix", "--well", "nan,1", "--energy", "1"), "--well"),
            (("smatrix", "--well", "1,1", "--energy-grid", "1,inf,3"), "--energy-grid"),
            (("counterexample", "--q", "nan"), "--q"),
            (("counterexample", "--eps", "inf"), "--eps"),
            (("counterexample", "--a", "nan"), "--a"),
            (("phaseshift", "--k", "1,nan"), "--k"),
            (("recover", "--trace", "trace.csv", "--energy", "inf"), "--energy"),
            (("recover", "--trace", "trace.csv", "--energy", "1", "--node-tol", "nan"), "--node-tol"),
        ],
    )
    def test_non_finite_argument_is_usage_error(self, capsys, args, flag):
        assert main(list(args)) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a finite number" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (("counterexample", "--q", "abc"), "argument --q: expected a finite number, got 'abc'"),
            (("fredholm", "--t", "1:x:0.025"), "argument --t: expected a finite number, got 'x'"),
            (("fredholm", "--t", "1:1.1:0.025", "--quad", "x"), "argument --quad: expected an integer, got 'x'"),
            (("smatrix", "--well", "1,x", "--energy", "1"), "argument --well: expected a finite number, got 'x'"),
            (
                ("smatrix", "--well", "1,1", "--energy-grid", "1,2,x"),
                "argument --energy-grid: expected an integer, got 'x'",
            ),
            (("szego", "--t", "1", "--n", "8,x"), "argument --n: expected an integer, got 'x'"),
            (("phaseshift", "--k", "1,y"), "argument --k: expected a finite number, got 'y'"),
        ],
        ids=["counterexample-q", "fredholm-t", "fredholm-quad", "smatrix-well", "smatrix-energy-grid", "szego-n", "phaseshift-k"],
    )
    def test_text_that_is_no_number_is_usage_error_naming_the_kind(self, capsys, args, message):
        # The message names the kind of number expected, not the Python
        # function that failed to read it.
        assert main(list(args)) == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "args, message",
        [
            (("smatrix", "--well", "1,1", "--energy", "inf"), "energy must be finite, got inf"),
            (("smatrix", "--delta", "inf", "--energy", "1"), "alpha must be finite, got inf"),
            # A finite but out-of-domain strength is refused the same way.
            (("smatrix", "--delta", "0", "--energy", "1"), "delta strength must be positive, got 0.0"),
        ],
    )
    def test_non_finite_parameter_exits_three_naming_it(self, capsys, args, message):
        assert main(list(args)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_steps_beyond_one_scan_exit_three(self, capsys):
        # The closed-form delta reads no steps but refuses bad ones alike.
        for source in (["--well", "1,1"], ["--delta", "2"]):
            assert main(["smatrix", *source, "--energy", "1", "--steps", "131073"]) == 3
            assert "steps must lie in [64, 131072]" in capsys.readouterr().err

    def test_odd_steps_exit_three(self, capsys):
        for source in (["--well", "1,1"], ["--delta", "2"]):
            assert main(["smatrix", *source, "--energy", "1", "--steps", "4095"]) == 3
            assert "be even, got 4095" in capsys.readouterr().err

    def test_support_near_the_float_maximum_exits_three_with_one_line(self):
        # The grid spacing of [-1e308, 1e308] is formed without overflow, so
        # the error line is all that reaches stderr.
        proc = run_cli("smatrix", "--well", "1,1e308", "--energy", "1")
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error:")

    def test_energy_past_the_former_numerov_edge_matches_the_closed_form(self, capsys):
        # h^2 (E - min V) = 6.01 at 4096 steps, past the edge 6 where a
        # Numerov step is unstable.
        energy = 6.01 * 2048**2 - 1.0
        assert main(["smatrix", "--well", "1,1", "--energy", repr(energy)]) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]
        ref = analytic_square_well(1.0, 1.0, energy)
        assert abs(complex(*row["s11"]) - ref.s11) < 1e-12
        assert abs(complex(*row["s12"]) - ref.s12) < 1e-12


class TestParser:
    def test_quadrature_default_is_the_converged_order(self, capsys):
        outputs = []
        for extra in ([], ["--quad", str(QUAD_ORDER)], ["--quad", "64"]):
            assert main(["fredholm", "--t", "1:1.1:0.025", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        for command in ("fredholm", "szego"):
            assert main([command, "--help"]) == 0
            text = " ".join(capsys.readouterr().out.split())
            assert f"(default {QUAD_ORDER})" in text
            assert f"fixed at the converged {QUAD_ORDER}" in text
            assert "kept for old commands" in text

    @pytest.mark.parametrize(
        "args",
        [
            ("fredholm", "--t", "0.1:0.3:0.025", "--format", "json"),
            ("szego", "--t", "2", "--n", "16,32"),
        ],
    )
    def test_quadrature_order_is_fixed(self, capsys, args):
        # --quad takes the one order there is, or the 64 of old commands,
        # and changes no byte of the output: the echoed JSON config names
        # the order used.  Any other order is a usage error.
        assert main(list(args)) == 0
        default = capsys.readouterr()
        assert f'"quad": {QUAD_ORDER},' in default.out
        for order in (str(QUAD_ORDER), "64"):
            assert main([*args, "--quad", order]) == 0
            assert capsys.readouterr() == default
        for order in ("65", "48", "16"):
            assert main([*args, "--quad", order]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument --quad: order must be one of {QUAD_ORDER}, 64, got '{order}'" in captured.err

    def test_node_tol_default_is_the_library_constant(self, capsys):
        args = build_parser().parse_args(["recover", "--trace", "trace.csv", "--energy", "1"])
        assert args.node_tol is DEFAULT_NODE_TOL
        assert main(["recover", "--help"]) == 0
        assert f"(default {DEFAULT_NODE_TOL:g})" in " ".join(capsys.readouterr().out.split())

    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_parse_independently(self, capsys):
        # One parser serves every call: nothing of one call leaks into the next.
        assert main(["smatrix", "--well", "2,1", "--energy", "1", "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("energy,k,a,")
        assert main(["fredholm", "--t", "1:1.1:0.025"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].startswith("t,logf_plus,") and len(rows) == 6
        assert main(["smatrix", "--energy", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one of the arguments --well --delta --sampled is required" in captured.err


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("smatrix", "--well", "2,1", "--energy-grid", "0.5,2,4", "--format", "json"),
            ("smatrix", "--well", "2,1", "--energy-grid", "0.5,2,4", "--format", "csv"),
            ("fredholm", "--t", "0.2:0.4:0.05"),
            ("phaseshift", "--k", "0.5,1,2", "--format", "json"),
        ],
    )
    def test_reruns_are_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout


class TestCounterexample:
    def test_report_shape_and_headline_numbers(self, validator):
        proc = run_cli("counterexample", "--steps", "2048", "--single-bump")
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        assert report["config"]["subcommand"] == "counterexample"
        assert report["config"]["single_bump"] is True
        assert report["odd_coefficient"] == 0.0
        assert report["boundary_residual"] == 0.0
        assert abs(report["separation"] - 8.0 * 0.01 / math.cos(1.0)) < 1e-4
        cmp = report["comparison"]
        assert cmp["even_channel_diff"] < 1e-6
        assert cmp["odd_channel_diff"] > 1e-2

    def test_default_pair_matches_both_channels(self, validator):
        proc = run_cli("counterexample")
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        assert report["config"]["single_bump"] is False
        assert report["boundary_residual"] == 0.0
        assert abs(report["odd_coefficient"] + 0.049571) < 1e-5
        assert report["separation"] > 5e-3
        cmp = report["comparison"]
        assert cmp["odd_channel_diff"] < 1e-8
        assert cmp["max_entry_diff"] < 1e-8

    def test_negative_eps_in_exponent_form_is_written_with_equals(self, capsys):
        # argparse takes "-1e-3" for an option, not a value, so the --eps help
        # says to write it as --eps=-1e-3, which reads like --eps -0.001.
        assert main(["counterexample", "--eps=-1e-3"]) == 0
        written = capsys.readouterr()
        assert main(["counterexample", "--eps", "-0.001"]) == 0
        assert capsys.readouterr() == written
        assert main(["counterexample", "--eps", "-1e-3"]) == 2
        assert "argument --eps: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            # Not divisible by 4: the forward solves would read the
            # potential table between its nodes.
            (("--steps", "4094"), "divisible by 4"),
            # The wave changes sign between grid points, where |psi| never
            # falls below the node tolerance.
            (("--q", "0.6", "--eps", "-1.2", "--single-bump"), "node"),
        ],
    )
    def test_refusals_exit_three(self, args, message):
        proc = run_cli("counterexample", *args)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            # The tuning bump underflows to 0 on every node, so the Newton
            # slope of the odd-channel match is 0.
            (("--a", "1e-60"), "underflows"),
            # The tuning bump overflows: numpy warned, then 2.0 * a**4
            # raised OverflowError, or a NodeCollision followed the warnings.
            (("--a", "1e80", "--q", "1e-80"), "too large"),
            (("--a", "1e300", "--q", "1e-300"), "too large"),
            (("--a", "1e77", "--q", "1e-77"), "too large"),
            # E = q^2 overflows: numpy warned of inf - inf before validate
            # refused the NaN potential.
            (("--q", "1.4e154", "--a", "1e-154", "--single-bump"), "q^2 overflows"),
            # The bump overflows: numpy warned of 4 eps = inf and inf * 0
            # before the NodeCollision refusal.
            (("--eps", "1e308"), "bump eps (x^2 - a^2)^2 overflows"),
            (("--eps", "4.5e307"), "bump eps (x^2 - a^2)^2 overflows"),
            (("--eps", "1e300", "--a", "1e3", "--q", "1e-3"), "bump eps (x^2 - a^2)^2 overflows"),
        ],
    )
    def test_extreme_scales_are_refused_without_warnings(self, args, message):
        proc = run_cli("counterexample", *args)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert message in proc.stderr
        assert "Warning" not in proc.stderr


    @pytest.mark.parametrize(
        "args",
        [
            ("--eps", "0"),
            ("--eps", "1e-300"),
            ("--eps", "1e-20"),
            ("--eps", "1e-17"),
            ("--a", "1e-155", "--q", "1e152", "--single-bump"),
        ],
    )
    def test_pair_of_identical_tables_exits_three_with_one_line(self, capsys, args):
        # These printed a report with separation 0, or one rounding step
        # of V, and exit 0.
        assert main(["counterexample", *args]) == 3
        written = capsys.readouterr()
        assert written.out == ""
        assert written.err.startswith("error: ")
        assert "the two tables are the same" in written.err
        assert written.err.count("\n") == 1


def _jsonable(value):
    """The JSON form the CLI wrote through json.dumps before its own writer: the writer's oracle."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, complex):
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        return out if math.isfinite(out) else None
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value)!r}")


class TestJsonWriter:
    REPORT = {
        "config": {"subcommand": "smatrix", "energy": None, "flag": True, "off": False, "pair": (2.0, 1.0)},
        "empty_dict": {},
        "empty_list": [],
        "empty_tuple": (),
        "nested": {"b": [{"z": 1, "a": [[], {}]}], "a": {"inner": {"deep": [1, [2, [3]]]}}},
        "complex": [1.5 - 2.0j, complex(0.0, -0.0), np.complex128(3.0 + 4.0j)],
        "non_finite": [math.nan, math.inf, -math.inf, complex(math.nan, math.inf), np.float64(np.nan)],
        "numpy": [np.bool_(True), np.bool_(False), np.int64(-7), np.float32(0.1), np.float64(1e-300)],
        "array": np.arange(6.0).reshape(2, 3) / 3.0,
        "int_array": np.array([1, 2, 3]),
        "text": "caf\u00e9 \"quoted\" \\ tab\t newline\n bell\x07 \u2603 \U0001f600",
        "big": [10**30, -(2**63), 5e-324, 1.7976931348623157e308, 0.1 + 0.2, -0.0],
    }

    def test_writes_what_json_dumps_wrote(self):
        expected = json.dumps(_jsonable(self.REPORT), sort_keys=True, indent=2, allow_nan=False)
        assert _json(self.REPORT) == expected

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", {"key": [1.0, object()]}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _json(value)

    @pytest.mark.parametrize(
        "args",
        [
            ("smatrix", "--well", "2,1", "--energy-grid", "0.5,2,3"),
            ("smatrix", "--delta", "2", "--energy", "1"),
            ("counterexample", "--steps", "1024"),
            ("fredholm", "--t", "0.1:0.3:0.025", "--format", "json"),
            ("szego", "--t", "1.0", "--n", "16,32"),
            ("szego", "--alpha", "0.5", "--n", "4,8", "--format", "json"),
            ("phaseshift", "--k", "0.5,1,2", "--format", "json"),
            ("recover", "--energy", "2.0", "--format", "json"),
        ],
    )
    def test_subcommand_output_is_json_dumps_form(self, capsys, tmp_path, args):
        if args[0] == "recover":
            x = np.linspace(-1.0, 1.0, 257)
            args = (*args, "--trace", str(write_trace(tmp_path / "trace.csv", x, np.sin(x))))
        assert main(list(args)) == 0
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


class TestCsvJsonMirror:
    @pytest.mark.parametrize(
        "args",
        [
            ("smatrix", "--well", "2,1", "--energy-grid", "0.5,2,3"),
            ("smatrix", "--delta", "2", "--energy", "1"),
            ("szego", "--alpha", "0.5", "--n", "4,8"),
            ("szego", "--t", "1.0", "--n", "16,32"),
            ("phaseshift", "--k", "0.5,1,2"),
        ],
    )
    def test_row_reports(self, args):
        text = run_cli(*args, "--format", "csv").stdout
        report = json.loads(run_cli(*args, "--format", "json").stdout)
        assert_csv_mirrors_json(text, report["results"])

    def test_fredholm_columns(self):
        args = ("fredholm", "--t", "0.1:0.3:0.025")
        text = run_cli(*args, "--format", "csv").stdout
        report = json.loads(run_cli(*args, "--format", "json").stdout)
        header, _ = parse_csv(text)
        records = [dict(zip(header, cells)) for cells in zip(*(report[c] for c in header))]
        assert any(value is None for value in report["w_plus"])
        assert_csv_mirrors_json(text, records)

    def test_recover_columns(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 257)
        path = write_trace(tmp_path / "trace.csv", x, np.sin(x))
        args = ("recover", "--trace", str(path), "--energy", "2.0")
        text = run_cli(*args, "--format", "csv").stdout
        report = json.loads(run_cli(*args, "--format", "json").stdout)
        records = [{"x": xi, "V": vi} for xi, vi in zip(report["x"], report["v"])]
        assert_csv_mirrors_json(text, records)


class TestFredholm:
    def test_csv_columns_and_nan_cells(self):
        proc = run_cli("fredholm", "--t", "0.1:0.3:0.025")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == [
            "t", "logf_plus", "logf_minus",
            "asym_residual_plus", "asym_residual_minus",
            "w_plus", "w_minus", "marchenko_plus", "marchenko_minus",
        ]
        assert len(rows) == 9
        # Stencil endpoints carry nan, interior values are finite.
        assert rows[0][5] == "nan"
        assert rows[-1][5] == "nan"
        assert math.isfinite(float(rows[4][5]))
        # tau <= 1/2 rows carry nan in the odd-channel replacement.
        assert rows[0][8] == "nan"
        assert math.isfinite(float(rows[-1][8]))

    @pytest.mark.parametrize("span", ["0.1:0.3:0.035", "1:1.2:0.03"])
    def test_range_stops_at_or_before_stop(self, span):
        start, stop, step = (float(p) for p in span.split(":"))
        proc = run_cli("fredholm", "--t", span)
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        t = [float(r[0]) for r in rows]
        assert len(t) == math.floor((stop - start) / step) + 1
        assert t[-1] <= stop

    def test_json_mirror_is_schema_valid(self, validator):
        proc = run_cli("fredholm", "--t", "0.1:0.3:0.025", "--format", "json")
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        assert report["config"]["quad"] == QUAD_ORDER
        assert len(report["t"]) == 9
        assert report["w_plus"][0] is None


class TestSzego:
    def test_table_mode_csv(self):
        proc = run_cli("szego", "--alpha", "1.5707963267948966", "--n", "8,16,32")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["n", "alpha", "log_det", "asymptotic", "residual"]
        assert [int(r[0]) for r in rows] == [8, 16, 32]
        assert abs(float(rows[1][4]) - 6.1826865e-5) < 1e-9

    def test_table_mode_json_schema(self, validator):
        proc = run_cli("szego", "--alpha", "0.5", "--n", "4,8", "--format", "json")
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        assert [r["n"] for r in report["results"]] == [4, 8]

    def test_crosscheck_mode_json(self, validator):
        proc = run_cli("szego", "--t", "1.0", "--n", "16,32")
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        gaps = [abs(r["gap_fredholm"]) for r in report["results"]]
        assert gaps[1] < gaps[0]

    def test_mode_flags_are_exclusive(self):
        proc = run_cli("szego", "--alpha", "0.5", "--t", "1.0", "--n", "8")
        assert proc.returncode == 2

    def test_table_rows_keep_the_given_order(self):
        proc = run_cli("szego", "--alpha", "1", "--n", "64,8,64")
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        assert [int(r[0]) for r in rows] == [64, 8, 64]
        assert rows[0] == rows[2]


class TestPhaseshift:
    def test_csv_identities(self):
        proc = run_cli("phaseshift", "--k", "0.1,1,10,100")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header[:3] == ["k", "eta_even", "eta_odd"]
        for row in rows:
            assert abs(float(row[7])) < 1e-12
            assert abs(float(row[8])) < 1e-12
            assert abs(float(row[9])) < 1e-12
        assert abs(float(rows[1][1]) + math.pi / 8.0) < 1e-12

    def test_rejects_nonpositive_k(self):
        proc = run_cli("phaseshift", "--k", "0.5,0")
        assert proc.returncode == 3

    def test_small_k_is_accepted(self):
        proc = run_cli("phaseshift", "--k", "1e-6,1e-9")
        assert proc.returncode == 0, proc.stderr
        _, rows = parse_csv(proc.stdout)
        assert [float(r[0]) for r in rows] == [1e-6, 1e-9]


class TestRecover:
    def write_trace(self, tmp_path, func, n=257):
        x = np.linspace(-1.0, 1.0, n)
        return write_trace(tmp_path / "trace.csv", x, [func(xi) for xi in x])

    def test_cosine_trace_recovers_constant(self, tmp_path):
        path = self.write_trace(tmp_path, lambda x: math.cos(x))
        proc = run_cli("recover", "--trace", str(path), "--energy", "2.0")
        assert proc.returncode == 0
        header, rows = parse_csv(proc.stdout)
        assert header == ["x", "V"]
        values = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(values - 1.0)) < 1e-5

    def test_json_mask_reporting(self, tmp_path, validator):
        path = self.write_trace(tmp_path, lambda x: math.sin(x))
        proc = run_cli(
            "recover", "--trace", str(path), "--energy", "2.0", "--format", "json"
        )
        assert proc.returncode == 0
        report = check_json(validator, proc.stdout)
        assert report["masked_indices"] == [128]
        assert 0.0 < report["mask_fraction"] < 0.01

    def test_recover_output_feeds_smatrix(self, tmp_path):
        # recover emits the same x,V layout that --sampled consumes; a
        # zero-potential trace must come back as a free scatterer.
        path = self.write_trace(tmp_path, lambda x: math.cos(x))
        out = tmp_path / "flat.csv"
        proc = run_cli(
            "recover", "--trace", str(path), "--energy", "1.0", "--out", str(out)
        )
        assert proc.returncode == 0
        proc = run_cli(
            "smatrix", "--sampled", str(out), "--energy", "1", "--format", "csv"
        )
        assert proc.returncode == 0
        _, rows = parse_csv(proc.stdout)
        assert abs(float(rows[0][3])) < 1e-4
        assert abs(float(rows[0][5]) - 1.0) < 1e-4

    @pytest.mark.parametrize(
        "x, message",
        [
            ([0.0, 0.1, 0.2, 0.3], "at least 6 rows, got 4"),
            ([0.0, 0.1, 0.1, 0.2, 0.3, 0.4], "strictly increasing"),
            ([0.0, 0.1, 0.2, 0.35, 0.4, 0.5], "spacing"),
            # Recovery's edge stencils read six points.
            ([0.0, 0.1, 0.2, 0.3, 0.4], "at least 6 rows, got 5"),
        ],
    )
    def test_bad_trace_grid_exits_three(self, tmp_path, x, message):
        path = write_trace(tmp_path / "bad.csv", x, np.ones(len(x)))
        proc = run_cli("recover", "--trace", str(path), "--energy", "1.0")
        assert proc.returncode == 3
        assert message in proc.stderr

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_trace_value_exits_three(self, tmp_path, bad):
        x = np.linspace(-1.0, 1.0, 9)
        psi = np.cos(x)
        psi[3] = bad
        path = write_trace(tmp_path / "bad.csv", x, psi)
        proc = run_cli("recover", "--trace", str(path), "--energy", "1.0")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "NaN or infinite" in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("node_tol", ["0", "-1"])
    def test_non_positive_node_tol_exits_three(self, tmp_path, node_tol):
        # The sin trace has an exact node at the origin; without a positive
        # threshold it was divided by and printed as NaN with exit 0.
        path = self.write_trace(tmp_path, lambda x: math.sin(math.pi * x), n=9)
        proc = run_cli(
            "recover", "--trace", str(path), "--energy", "1.0", f"--node-tol={node_tol}"
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "node_tol must be positive" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_malformed_trace_exits_three(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,psi\n0.0,oops\n")
        proc = run_cli("recover", "--trace", str(path), "--energy", "1.0")
        assert proc.returncode == 3
        assert "malformed" in proc.stderr
