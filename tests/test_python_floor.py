"""Every module parses as the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def declared_floor():
    # A regular expression, as tomllib is new in 3.11.
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_is_read_from_pyproject():
    assert declared_floor() == (3, 10) and MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())
