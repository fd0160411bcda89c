"""Command-line frontend.

Every computation in the package is exposed as a subcommand with
machine-readable output: JSON (one report object, flags echoed under
"config") or CSV (header row plus data rows).  JSON comes from one
recursive writer, ``_json``, in exactly the form of
``json.dumps(report, sort_keys=True, indent=2)``.  All state lives in the
flags, so identical invocations produce byte-identical output.

Exit codes: 0 success, 2 bad usage, 3 computation failure or unreadable
file (message on standard error).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import PreconditionViolated, ScatterError
from .noninjective import DEFAULT_NODE_TOL, build_counterexample, recover_potential
from .potential import SquareWell, load_sampled_csv, load_trace_csv, validate
from .propagate import check_steps
from .smatrix import analytic_delta, smatrix_via_transfer, unitarity_residuals
from .spectral import QUAD_ORDER, fredholm_report, jost_forms, phase_shift
from .szego import ArcSymbol, szego_limit_check, toeplitz_logdet

#: Most points a fredholm t grid or an smatrix energy grid may have.  A t
#: point costs about 0.13 ms (a 401-point fredholm run takes 51 ms with its
#: output, on one core of a shared 2-vCPU x86-64 host), so this bounds a
#: fredholm run to well under a minute; an energy grid stays far below that.
MAX_GRID_POINTS = 100_000

# --quad is kept, and echoed under "config", so that scripts and JSON
# reports written for it stay valid.  It accepts the one order there is and
# 64, the order before it; both run QUAD_ORDER, which is what is echoed.
_QUAD_ORDERS = (QUAD_ORDER, 64)
_QUAD_HELP = (
    f"Gauss-Legendre order of the sine kernel, fixed at the converged {QUAD_ORDER} "
    f"(default {QUAD_ORDER}); kept for old commands, which may also pass 64"
)


# Each converter refuses text that is not a number of its kind by naming
# that kind; argparse would print the converter's name for a ValueError.


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _quad(text: str) -> int:
    if _integer(text) not in _QUAD_ORDERS:
        raise argparse.ArgumentTypeError(f"order must be one of {', '.join(map(str, _QUAD_ORDERS))}, got {text!r}")
    return QUAD_ORDER


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _pair_of_floats(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


def _energy_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start,stop,count, got {text!r}")
    start, stop, count = _finite(parts[0]), _finite(parts[1]), _integer(parts[2])
    if count < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return start, stop, count


def _range_spec(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (_finite(p) for p in parts)
    if step <= 0.0 or stop < start:
        raise argparse.ArgumentTypeError("need stop >= start and step > 0")
    return start, stop, step


def _list_of(convert):
    """argparse type for a comma-separated list, each item read by convert."""

    def parse(text: str) -> tuple:
        return tuple(convert(p) for p in text.split(","))

    return parse


def _json(value, pad: str = "") -> str:
    """JSON text of value, byte for byte what json.dumps(..., sort_keys=True, indent=2) writes.

    One recursive pass with no intermediate copy: json.dumps takes its C
    encoder only without an indent, so an indented report would otherwise
    walk the pure-Python one.  Scalars are dispatched on their exact type;
    a non-finite float is written as null, a complex value as [re, im],
    and numpy arrays and scalars as their tolist().  pad is the indent of
    the line value starts on; any other type raises TypeError.
    """
    kind = type(value)
    if kind is float:
        return float.__repr__(value) if math.isfinite(value) else "null"
    if kind is complex:
        inner = pad + "  "
        return f"[\n{inner}{_json(value.real)},\n{inner}{_json(value.imag)}\n{pad}]"
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}" for key, item in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, (np.ndarray, np.generic)):
        return _json(value.tolist(), pad)
    raise TypeError(f"cannot serialize {kind!r}")


def _csv_fields(row: dict) -> dict:
    """Column name to cell text; a complex cell fills re_<name> and im_<name>."""
    fields = {}
    for name, value in row.items():
        if isinstance(value, complex):
            parts = [(f"re_{name}", value.real), (f"im_{name}", value.imag)]
        else:
            parts = [(name, value)]
        for column, cell in parts:
            fields[column] = str(cell) if isinstance(cell, (int, np.integer)) else repr(float(cell))
    return fields


def _emit(
    args: argparse.Namespace, fmt: str, rows: list[dict], report: dict | None = None
) -> int:
    """Write one subcommand's output to --out, or to standard output.

    CSV is a header row plus one line per row dict, in the dict's order,
    with complex cells split into re_<name> and im_<name> columns.  JSON is
    {"config", "results": rows}, or {"config", **report} when a report body
    is given; complex values become [re, im] and non-finite floats null.
    """
    if fmt == "json":
        config = {key: value for key, value in vars(args).items() if key != "func"}
        body = {"results": rows} if report is None else report
        text = _json({"config": config, **body}) + "\n"
    else:
        table = [_csv_fields(row) for row in rows]
        lines = [",".join(table[0])] + [",".join(fields.values()) for fields in table]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_smatrix(args: argparse.Namespace) -> int:
    # A sampled file is read before the steps and the energy grid are
    # checked, so an unreadable file is the error reported when both are
    # bad.  Steps are checked for --delta too, whose closed form reads none.
    if args.well is not None:
        spec = SquareWell(v0=args.well[0], a=args.well[1])
    elif args.sampled is not None:
        spec = load_sampled_csv(args.sampled)
    check_steps(args.steps)

    if args.energy is not None:
        energies = [args.energy]
    else:
        start, stop, count = args.energy_grid
        if count > MAX_GRID_POINTS:  # refused before the grid is allocated
            raise PreconditionViolated(f"energy grid of {count} points has more than {MAX_GRID_POINTS}")
        energies = [float(e) for e in np.linspace(start, stop, count)]

    if args.delta is not None:
        matrices = [analytic_delta(args.delta, e) for e in energies]
    else:
        matrices = smatrix_via_transfer(validate(spec), energies, steps=args.steps)

    rows = [
        {
            "energy": e,
            "k": s.k,
            "a": s.a,
            "s11": s.s11,
            "s12": s.s12,
            "s21": s.s21,
            "s22": s.s22,
            "abs_s11_sq": abs(s.s11) ** 2,
            "abs_s21_sq": abs(s.s21) ** 2,
            "unitarity_residual": residual,
        }
        for e, s, residual in zip(energies, matrices, unitarity_residuals(matrices).tolist())
    ]
    return _emit(args, args.format, rows)


def cmd_counterexample(args: argparse.Namespace) -> int:
    if args.q * args.a >= math.pi / 2.0:
        print(
            "error: need q * a below pi/2 so cos(q x) stays node free on the support",
            file=sys.stderr,
        )
        return 2
    pair = build_counterexample(
        q=args.q,
        eps=args.eps,
        a=args.a,
        steps=args.steps,
        single_bump=args.single_bump,
    )
    comparison = pair.comparison
    report = {
        "q": pair.q,
        "eps": pair.eps,
        "a": pair.a,
        "energy": pair.energy,
        "separation": pair.separation,
        "boundary_residual": pair.boundary_residual,
        "odd_coefficient": pair.odd_coefficient,
        "baseline_max_abs_v": float(np.max(np.abs(pair.baseline.v))),
        "perturbed_v_at_zero": float(pair.perturbed.v[pair.perturbed.x.size // 2]),
        "comparison": {
            "energy": comparison.energy,
            "max_entry_diff": comparison.max_entry_diff,
            "even_channel_diff": comparison.even_channel_diff,
            "odd_channel_diff": comparison.odd_channel_diff,
        },
    }
    return _emit(args, "json", [], report)


def cmd_fredholm(args: argparse.Namespace) -> int:
    start, stop, step = args.t
    span = (stop - start) / step
    if not span < MAX_GRID_POINTS:  # refused before the grid is allocated
        raise PreconditionViolated(f"t grid of step {step} has more than {MAX_GRID_POINTS} points")
    # The tolerance keeps stop when the span is a whole number of steps.
    count = math.floor(span + 1e-9) + 1
    grid = start + step * np.arange(count)
    columns = fredholm_report(grid)
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    return _emit(args, args.format, rows, columns)


def cmd_szego(args: argparse.Namespace) -> int:
    if args.alpha is not None:
        results = toeplitz_logdet(ArcSymbol(args.alpha), args.n)
        fmt = args.format or "csv"
    else:
        results = [szego_limit_check(n, args.t) for n in args.n]
        fmt = args.format or "json"
    return _emit(args, fmt, [asdict(r) for r in results])


def cmd_phaseshift(args: argparse.Namespace) -> int:
    rows = []
    for k in args.k:
        shift = phase_shift(k)
        forms = jost_forms(k)
        rows.append({
            "k": k,
            "eta_even": shift.eta_even,
            "eta_odd": shift.eta_odd,
            "a_odd": forms.a_odd,
            "exp_ieta_even": forms.exp_ieta_even,
            "identity_even_residual": k * math.tan(2.0 * shift.eta_even) + 1.0,
            "identity_odd_residual": k * math.tan(2.0 * shift.eta_odd) - 1.0,
            "branch_residual": float(np.angle(forms.exp_ieta_even)) - shift.eta_even,
        })
    return _emit(args, args.format, rows)


def cmd_recover(args: argparse.Namespace) -> int:
    x, psi = load_trace_csv(args.trace)
    recovered = recover_potential(x, psi, args.energy, node_tol=args.node_tol)
    rows = [{"x": xi, "V": vi} for xi, vi in zip(recovered.x, recovered.values)]
    report = {
        "energy": args.energy,
        "node_tol": recovered.node_tol,
        "x": recovered.x,
        "v": recovered.values,
        "masked_indices": np.nonzero(recovered.mask)[0],
        "mask_fraction": float(recovered.mask.mean()),
    }
    return _emit(args, args.format, rows, report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="scatter1d",
        description=(
            "Scattering matrices of symmetric short-range potentials, a fixed-energy "
            "non-injectivity counterexample, sine-kernel Fredholm determinants, and "
            "arc-symbol Toeplitz determinants."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sm = sub.add_parser("smatrix", help="scattering matrix of one potential")
    pot = sm.add_mutually_exclusive_group(required=True)
    pot.add_argument("--well", type=_pair_of_floats, metavar="V0,A", help="square well depth and half width")
    pot.add_argument("--delta", type=float, metavar="ALPHA", help="point interaction strength (closed form)")
    pot.add_argument("--sampled", metavar="FILE", help="CSV file with header x,V")
    en = sm.add_mutually_exclusive_group(required=True)
    en.add_argument("--energy", type=float, help="single energy, must be positive")
    en.add_argument("--energy-grid", type=_energy_grid, metavar="START,STOP,COUNT", help="uniform energy grid")
    sm.add_argument("--steps", type=int, default=4096,
                    help="steps of [-a, a], even (default 4096); S crosses [0, a] in ceil(steps/4) cells")
    sm.add_argument("--format", choices=("json", "csv"), default="json")
    sm.add_argument("--out", default=None, help="output path (default standard output)")
    sm.set_defaults(func=cmd_smatrix)

    ce = sub.add_parser("counterexample", help="two potentials sharing boundary data at one energy")
    ce.add_argument("--q", type=_finite, default=1.0, help="construction wavenumber (default 1)")
    ce.add_argument("--eps", type=_finite, default=0.01,
                    help="bump amplitude (default 0.01); write a negative one in exponent form as --eps=-1e-3")
    ce.add_argument("--a", type=_finite, default=1.0, help="support half width (default 1)")
    ce.add_argument("--steps", type=int, default=4096, help="integration steps, a multiple of 4 (default 4096)")
    ce.add_argument(
        "--single-bump",
        action="store_true",
        help="omit the tuning bump, so only the even channel is matched",
    )
    ce.add_argument("--out", default=None, help="output path (default standard output)")
    ce.set_defaults(func=cmd_counterexample)

    fr = sub.add_parser("fredholm", help="sine-kernel determinant sweep over t")
    fr.add_argument("--t", type=_range_spec, required=True, metavar="START:STOP:STEP", help="uniform t grid")
    fr.add_argument("--quad", type=_quad, default=QUAD_ORDER, help=_QUAD_HELP)
    fr.add_argument("--format", choices=("json", "csv"), default="csv")
    fr.add_argument("--out", default=None, help="output path (default standard output)")
    fr.set_defaults(func=cmd_fredholm)

    szg = sub.add_parser("szego", help="arc-symbol Toeplitz determinants")
    mode = szg.add_mutually_exclusive_group(required=True)
    mode.add_argument("--alpha", type=float, help="arc parameter in [0, pi): determinant table over --n")
    mode.add_argument("--t", type=float, help="continuum cross-check at alpha = 2 pi t / n for each n")
    szg.add_argument("--n", type=_list_of(_integer), required=True, metavar="N1,N2,...", help="matrix sizes")
    szg.add_argument("--quad", type=_quad, default=QUAD_ORDER, help=_QUAD_HELP)
    szg.add_argument("--format", choices=("json", "csv"), default=None,
                     help="default: csv for the table, json for the cross-check")
    szg.add_argument("--out", default=None, help="output path (default standard output)")
    szg.set_defaults(func=cmd_szego)

    ph = sub.add_parser("phaseshift", help="closed-form phase shifts and Jost data")
    ph.add_argument("--k", type=_list_of(_finite), required=True, metavar="K1,K2,...", help="wavenumbers, all positive")
    ph.add_argument("--format", choices=("json", "csv"), default="csv")
    ph.add_argument("--out", default=None, help="output path (default standard output)")
    ph.set_defaults(func=cmd_phaseshift)

    rc = sub.add_parser("recover", help="pointwise potential recovery from a wavefunction trace")
    rc.add_argument("--trace", required=True, metavar="FILE", help="CSV file with header x,psi")
    rc.add_argument("--energy", type=_finite, required=True, help="energy of the trace")
    rc.add_argument("--node-tol", type=_finite, default=DEFAULT_NODE_TOL,
                    help=f"relative node mask threshold (default {DEFAULT_NODE_TOL:g})")
    rc.add_argument("--format", choices=("json", "csv"), default="csv")
    rc.add_argument("--out", default=None, help="output path (default standard output)")
    rc.set_defaults(func=cmd_recover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (ScatterError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
