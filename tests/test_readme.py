"""The README's library quick start runs as written and finds the sources."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    capsys.readouterr()  # the block prints the two frequency sets
    np.testing.assert_allclose(np.sort(ns["peaks"].taus),
                               np.sort(ns["model"].taus), rtol=0, atol=1e-4)
