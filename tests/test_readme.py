"""The README's Python examples run as written, in order, in one namespace."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    # the quick start, the lattice window and the lifted certificate
    assert len(blocks) == 3
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
