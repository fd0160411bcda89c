"""The package's import footprint: which modules and dependencies an import loads."""

import subprocess
import sys


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
