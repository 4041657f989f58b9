"""The README's Library example, run as a reader runs it: in a fresh interpreter,
from an empty working directory."""

import re
import subprocess
import sys
from pathlib import Path

from test_cli import _src_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("(12, 100) ")
