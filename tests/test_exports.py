"""The package's public names, __all__ against what __init__ imports, and its import footprint."""

import ast
import inspect
import subprocess
import sys

import scatter1d


def _imported_public_names():
    tree = ast.parse(inspect.getsource(scatter1d))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    missing = [name for name in scatter1d.__all__ if not hasattr(scatter1d, name)]
    assert missing == []


def test_all_lists_each_imported_public_name_once():
    assert len(scatter1d.__all__) == len(set(scatter1d.__all__))
    assert set(scatter1d.__all__) == _imported_public_names()


def test_import_leaves_scipy_and_mpmath_unloaded():
    # The runtime needs numpy, and mpmath only on the routes that use it;
    # scipy serves the tests alone.  Loading either would slow the CLI's
    # cold start.
    code = "import sys, scatter1d, scatter1d.cli; print(*sorted({'scipy', 'mpmath'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
