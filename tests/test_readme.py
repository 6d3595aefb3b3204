"""README's library example runs as written.

The ``python`` block under "## Library example" is run as a reader runs
it, in a fresh interpreter with ``PYTHONPATH=src`` and the environment as
it stands, so a public name that is renamed or removed fails here instead
of leaving README stale.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The code of the first ``python`` block after README's "## Library
    example" heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library example\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_written():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", library_example()], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # the example prints one number, the IUEA of its prediction
    (line,) = proc.stdout.splitlines()
    assert 0.0 < float(line) < math.inf
