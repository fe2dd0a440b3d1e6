"""The README's code: every python block runs as written and shows what it says."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_every_python_block_runs():
    for block in _python_blocks():
        exec(compile(block, str(README), "exec"), {})


def test_library_sketch_recovers_the_documented_estimates():
    (sketch,) = [b for b in _python_blocks() if "assemble_image(" in b]
    namespace: dict = {}
    exec(compile(sketch, str(README), "exec"), namespace)
    designed = 10.0 ** -np.arange(8)
    np.testing.assert_allclose(namespace["image"].estimates, [designed], rtol=1e-9, atol=0)
