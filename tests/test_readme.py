"""The README names only what the package has."""

import re
from pathlib import Path

import mopexact

README = Path(__file__).resolve().parents[1] / "README.md"


def key_entry_points() -> list[str]:
    """The backticked names of the README's "Key entry points" paragraph, the check_* pattern left out."""
    paragraph = next(p for p in README.read_text(encoding="utf-8").split("\n\n") if p.startswith("Key entry points:"))
    return [name for name in re.findall(r"`([^`]+)`", paragraph) if name != "check_*"]


def test_key_entry_points_are_package_attributes():
    names = key_entry_points()
    assert {"type1", "type2", "pfq", "check_residue_duality"} <= set(names)
    assert [name for name in names if not hasattr(mopexact, name)] == []
