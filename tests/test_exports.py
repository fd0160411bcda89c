"""The package's import footprint, and no package code that only the tests reach."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_leaves_scipy_and_mpmath_unloaded():
    # The runtime needs numpy, and mpmath only on the routes that use it;
    # scipy serves the tests alone.  Loading either would slow the CLI's
    # cold start.
    code = "import sys, scatter1d, scatter1d.cli; print(*sorted({'scipy', 'mpmath'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_smatrix_import_leaves_other_modules_unloaded():
    # The package root re-exports nothing, so a module loads only the
    # modules it imports itself.
    unrelated = ["scatter1d.spectral", "scatter1d.szego", "scatter1d.noninjective", "scatter1d.cli"]
    code = f"import sys, scatter1d.smatrix; print(*sorted(set({unrelated!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_every_top_level_function_and_class_serves_the_package_or_a_demo():
    # Each must be named in src/ outside its own definition, or in demos/.
    # Code that only tests call, such as an oracle, belongs in tests/helpers.py.
    sources = {path: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "scatter1d").glob("*.py"))}
    demos = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))]
    unused = []
    for path, source in sources.items():
        lines = source.splitlines(keepends=True)
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
                rest = "".join(lines[:start] + lines[node.end_lineno :])
                texts = [rest, *(text for other, text in sources.items() if other != path), *demos]
                if not any(re.search(rf"\b{node.name}\b", text) for text in texts):
                    unused.append(f"{path.name}:{node.name}")
    assert unused == []
