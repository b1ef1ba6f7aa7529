"""Tier-1 doctest gate: every ``>>>`` example in ``src/repro`` runs.

The modules are found by scanning the sources for ``>>>``, so a new
example is covered the moment it is written; the floor below makes sure
the scan itself cannot silently come back empty.
"""

import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

# Modules known to carry examples; the scan must find at least these.
KNOWN = {"repro", "repro.mission.spec", "repro.sax.encoder", "repro.signaling.ring"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def modules_with_examples() -> list[str]:
    """Dotted names of every ``src/repro`` module whose source holds ``>>>``."""
    return sorted(
        _module_name(path)
        for path in (SRC / "repro").rglob("*.py")
        if ">>>" in path.read_text(encoding="utf-8")
    )


def test_scan_finds_the_known_examples():
    assert KNOWN <= set(modules_with_examples())


@pytest.mark.parametrize("name", modules_with_examples())
def test_doctests_pass(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{name} holds '>>>' but doctest found no example"
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
