"""The README's code: every python block runs as written and shows what it says, and its
command-line block's plan and preset-list commands run with the exit codes it gives."""

import re
import shlex
from pathlib import Path

import numpy as np

from caossim.cli import main

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


def test_command_line_block_plan_and_list_commands_run():
    # only the audit of the invalid carrier set fails (exit 1), as the README says
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Command line\n\n```bash\n(.*?)^```", text, re.M | re.S)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith(("caossim plan ", "caossim reproduce --list"))]
    assert [argv[:2] for argv in commands] == [
        ["plan", "generate"], ["plan", "validate"], ["plan", "slots"], ["reproduce", "--list"]]
    for argv in commands:
        assert main(argv) == (1 if argv[:2] == ["plan", "validate"] else 0), argv
