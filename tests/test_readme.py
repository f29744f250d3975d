"""The README's Python API example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_api_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the Python API section holds one code block"
    return blocks[0]


def test_python_api_example_runs():
    # the block ends on its own assertion: the bound contains the defect
    exec(compile(python_api_block(), str(README), "exec"), {})
