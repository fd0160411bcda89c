"""Spans around scatter1d's layer boundaries, for the traced run only.

Each wrapper replaces a public function in the module that looks it up at
call time (``from .x import f`` binds f in the caller, so the wrapper goes
there), plus ``numpy.linalg.eigvalsh`` and ``numpy.linalg.cholesky``, which
scatter1d reaches through the ``numpy.linalg`` module.  Spans are kept in
memory as [name, parent, start_ns, end_ns, note] and turned into per-layer
metrics after the run.  The untraced worker never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time


def _steps(arguments) -> int:
    return int(arguments["steps"])


def _quad_order(arguments) -> int:
    return int(arguments["spec"].quad_order)


#: (module or class path, attribute, span name, note taken from the bound
#: arguments, with defaults applied)
WRAPS = [
    ("scatter1d.cli", "main", "cli.main", None),
    ("scatter1d.cli", "load_sampled_csv", "potential.load_csv", None),
    ("scatter1d.cli", "validate", "potential.validate", None),
    ("scatter1d.cli", "smatrix_via_transfer", "smatrix.solve", None),
    ("scatter1d.cli", "build_counterexample", "noninjective.build", None),
    ("scatter1d.cli", "verify_same_smatrix", "noninjective.verify", None),
    ("scatter1d.cli", "fredholm_report", "spectral.report", None),
    ("scatter1d.cli", "toeplitz_logdet", "szego.logdet", None),
    ("scatter1d.noninjective", "validate", "potential.validate", None),
    ("scatter1d.noninjective", "smatrix_via_transfer", "smatrix.solve", None),
    ("scatter1d.noninjective", "recover_potential", "noninjective.recover", None),
    ("scatter1d.smatrix", "transfer_matrix", "smatrix.transfer", None),
    ("scatter1d.smatrix", "smatrix_from_transfer", "smatrix.convert", None),
    ("scatter1d.propagate", "integrate", "propagate.integrate", _steps),
    ("scatter1d.potential:EvaluatedPotential", "__call__", "potential.eval", None),
    ("scatter1d.spectral", "sine_kernel_eigs", "spectral.eigs", _quad_order),
    ("scatter1d.spectral", "leggauss", "spectral.leggauss", None),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", None),
    ("numpy.linalg", "cholesky", "linalg.cholesky", None),
]


class Tracer:
    """Records one span per wrapped call, nested by the call stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn, name: str, note=None):
        spans, stack = self.spans, self._open
        clock = time.perf_counter_ns
        read = _argument_reader(fn, note) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            value = read(args, kwargs) if read else 0
            spans.append([name, stack[-1] if stack else -1, clock(), 0, value])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def install(self) -> None:
        """Put a wrapper at every boundary in WRAPS that this program has."""
        for path, attribute, name, note in WRAPS:
            module_name, _, class_name = path.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attribute, None)
            if original is None:
                self.missing.append(f"{path}.{attribute}")
                continue
            setattr(owner, attribute, self.wrap(original, name, note))


def _argument_reader(fn, note):
    """note applied to fn's arguments by name, defaults filled in.

    Cheaper than Signature.bind, whose cost would land in the caller's self
    time.  Arguments that no longer fit the note read as 0.
    """
    parameters = inspect.signature(fn).parameters
    names = list(parameters)
    defaults = {key: p.default for key, p in parameters.items() if p.default is not p.empty}

    def read(args, kwargs) -> int:
        try:
            return note({**defaults, **dict(zip(names, args)), **kwargs})
        except (KeyError, AttributeError, TypeError, ValueError):
            return 0

    return read


def per_layer(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics and their units from the spans of a traced run.

    Times are ms per operation and counts are per operation, where an
    operation is one cli.main span; ns_per_step is integrate self time per
    step.  Self time is a span's duration minus its direct children's.  A
    layer the workload never reaches reads 0.
    """
    count = len(spans)
    child = [0] * count
    has_cholesky = [False] * count
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for index in range(count - 1, -1, -1):
        name, parent = spans[index][0], spans[index][1]
        if parent >= 0 and (name == "linalg.cholesky" or has_cholesky[index]):
            has_cholesky[parent] = True

    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    notes: dict[str, int] = {}
    for index, (name, parent, start, end, note) in enumerate(spans):
        if name == "szego.logdet":
            name += ".double" if has_cholesky[index] else ".extended"
        if name == "smatrix.solve" and _under(spans, index, "noninjective."):
            name = "noninjective.solve"
        elif name == "linalg.eigvalsh" and parent >= 0 and spans[parent][0] == "spectral.eigs":
            # leggauss calls eigvalsh too; only the kernel's counts here.
            name = "spectral.kernel_eigvalsh"
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end - start
        self_ns[name] = self_ns.get(name, 0) + end - start - child[index]
        notes[name] = notes.get(name, 0) + note

    ops = max(calls.get("cli.main", 0), 1)

    def per_op(table, name, scale=1.0):
        return table.get(name, 0) * scale / ops

    ms = 1e-6
    steps = notes.get("propagate.integrate", 0)
    eigs = calls.get("spectral.eigs", 0)
    values = {
        "cli.self_ms": per_op(self_ns, "cli.main", ms),
        "potential.load_csv_ms": per_op(total, "potential.load_csv", ms),
        "potential.validate_calls": per_op(calls, "potential.validate"),
        "potential.validate_ms": per_op(total, "potential.validate", ms),
        "potential.eval_calls": per_op(calls, "potential.eval"),
        "potential.eval_ms": per_op(total, "potential.eval", ms),
        "propagate.integrate_calls": per_op(calls, "propagate.integrate"),
        "propagate.steps": steps / ops,
        "propagate.integrate_self_ms": per_op(self_ns, "propagate.integrate", ms),
        "propagate.ns_per_step": self_ns.get("propagate.integrate", 0) / steps if steps else 0.0,
        "smatrix.solves": per_op(calls, "smatrix.solve") + per_op(calls, "noninjective.solve"),
        "smatrix.transfer_self_ms": per_op(self_ns, "smatrix.transfer", ms),
        "smatrix.convert_ms": per_op(total, "smatrix.convert", ms),
        "noninjective.forward_solves_per_op": per_op(calls, "noninjective.solve"),
        "noninjective.recover_calls": per_op(calls, "noninjective.recover"),
        "noninjective.recover_ms": per_op(total, "noninjective.recover", ms),
        "noninjective.build_self_ms": per_op(self_ns, "noninjective.build", ms),
        "noninjective.verify_ms": per_op(total, "noninjective.verify", ms),
        "spectral.eigs_calls": per_op(calls, "spectral.eigs"),
        "spectral.quad_order": notes.get("spectral.eigs", 0) / eigs if eigs else 0.0,
        "spectral.leggauss_ms": per_op(total, "spectral.leggauss", ms),
        "spectral.assembly_ms": per_op(self_ns, "spectral.eigs", ms),
        "spectral.eigvalsh_ms": per_op(total, "spectral.kernel_eigvalsh", ms),
        "spectral.report_self_ms": per_op(self_ns, "spectral.report", ms),
        "szego.double_calls": per_op(calls, "szego.logdet.double"),
        "szego.double_ms": per_op(total, "szego.logdet.double", ms),
        "szego.cholesky_ms": per_op(total, "linalg.cholesky", ms),
        "szego.extended_calls": per_op(calls, "szego.logdet.extended"),
        "szego.extended_ms": per_op(total, "szego.logdet.extended", ms),
    }
    return {name: (value, _unit(name)) for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "ns" if name.endswith("ns_per_step") else "count"


def _under(spans: list[list], index: int, prefix: str) -> bool:
    parent = spans[index][1]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][1]
    return False
