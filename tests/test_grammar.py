"""Every Python file of the project parses as Python 3.10, the oldest
version that ``pyproject.toml`` allows.

This checks the grammar only (no ``except*``, no PEP 695 type parameters),
not the standard library's API: a call to a function added after 3.10
still passes here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_parses_as_python_3_10():
    sources = sorted(path for folder in ("src", "tests", "perfbench")
                     for path in (ROOT / folder).rglob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
