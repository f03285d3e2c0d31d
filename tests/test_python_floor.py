"""The package's sources keep to the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "namelogic").glob("*.py"))


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_is_declared():
    assert _floor() >= (3, 10)
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_floor())
