"""The documentation runs: every ``>>>`` example in the package, and the
README's Python API block, whose trailing comments give what each
``print`` shows."""

import contextlib
import doctest
import importlib
import io
import pkgutil
import re
from pathlib import Path

import cflat

README = Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples_and_readme_api_block_run():
    attempted = 0
    for info in pkgutil.walk_packages(cflat.__path__, "cflat."):
        if info.name == "cflat.__main__":  # importing it runs the CLI
            continue
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted == 7

    (block,) = re.findall(r"^## Python API\n\n```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["(2, 4)", "Z/3", "(0, 0) 1", "6"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected
