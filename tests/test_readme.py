"""The README's library sketch runs as written, so the API it documents cannot
be deleted without this test failing."""

import re
from pathlib import Path

import numpy as np

from test_solver import EPS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library sketch\n+```python\n(.*?)^```", text, re.M | re.S)
    assert block, "README.md has no python block under '## Library sketch'"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    # the sketch's comment promises (i/2) eps^{ijk}
    gamma = namespace["result"].connection.scalars()
    assert np.max(np.abs(gamma - 0.5j * EPS)) <= 1e-12
