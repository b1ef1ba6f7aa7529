"""Tier-1 docs gate: the docstring check.

Runs ``scripts/check_docstrings.py`` as the suite does, keeping the
public API of :mod:`repro.vision`, :mod:`repro.recognition` and the
other checked packages fully documented.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]



def _load_script(name: str):
    # Load the script in isolation rather than putting scripts/ on sys.path
    # (which would shadow same-named modules for the whole pytest session).
    spec = importlib.util.spec_from_file_location(
        f"repro_scripts_{name}", ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docstrings = _load_script("check_docstrings")


def test_default_packages_fully_documented(capsys):
    exit_code = check_docstrings.main([])
    output = capsys.readouterr().out
    assert exit_code == 0, f"undocumented public API:\n{output}"


def test_every_repro_subpackage_is_checked():
    """The gate walks ``repro`` instead of keeping a hand-written list."""
    source = ROOT / "src" / "repro"
    on_disk = sorted(
        f"repro.{path.parent.name}" for path in source.glob("*/__init__.py")
    )
    assert list(check_docstrings.default_packages()) == on_disk
    assert {"repro.drone", "repro.geometry", "repro.human"} <= set(on_disk)


def test_violations_are_detected():
    """The gate actually bites: a synthetic undocumented module fails."""
    import types

    module = types.ModuleType("repro_docscheck_probe")
    module.__all__ = ["undocumented"]

    def undocumented():
        pass

    module.undocumented = undocumented
    module.__doc__ = "Probe module."
    sys.modules["repro_docscheck_probe"] = module
    try:
        module.__path__ = []  # behave like a leaf package
        problems = check_docstrings.check_package("repro_docscheck_probe")
    finally:
        del sys.modules["repro_docscheck_probe"]
    assert problems == ["repro_docscheck_probe.undocumented: missing docstring"]

