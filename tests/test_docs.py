"""The README's examples run, and every exported name resolves."""

import re
from pathlib import Path

import diracgeo

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 4
    namespace = {"__name__": "readme"}
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k + 1}", "exec"), namespace)


def test_every_exported_name_resolves():
    missing = [name for name in diracgeo.__all__ if not hasattr(diracgeo, name)]
    assert not missing
    assert len(set(diracgeo.__all__)) == len(diracgeo.__all__)
