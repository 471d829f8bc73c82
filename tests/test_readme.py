"""The README's "Library sketch" block runs as written, so that the public
signatures it shows cannot drift from the code."""

import re
from pathlib import Path

import cort

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    sketch = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    names = {}
    exec(code, names)
    assert isinstance(names["report"], cort.BoundReport)
    assert names["report"].profile == names["profile"]
