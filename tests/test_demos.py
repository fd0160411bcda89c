"""Every narrative script in demos/ and every python block of README.md runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scatter1d

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [pytest.param([str(path)], id=path.name) for path in sorted((ROOT / "demos").glob("*.py"))]
README_BLOCKS = [
    pytest.param(["-c", block], id=f"README.md-block{number}")
    for number, block in enumerate(
        re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S), 1
    )
]
SRC = str(Path(scatter1d.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", DEMOS + README_BLOCKS)
def test_demo_exits_zero(script):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
