"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order_in_one_namespace():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks and len(blocks) == text.count("```python")
    namespace = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"{README.name}, python block {number}", "exec"), namespace)
