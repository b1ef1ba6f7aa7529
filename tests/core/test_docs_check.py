"""Tier-1 docs gates: the docstring check and the committed fleet DOT.

Runs ``scripts/check_docstrings.py`` as the suite does, keeping the
public API of :mod:`repro.vision` and :mod:`repro.recognition` fully
documented, and checks that the fleet topology committed to the
"Dataflow runtime" section of ``docs/ARCHITECTURE.md`` is exactly what
``scripts/graphviz_dataflow.py`` prints — so the surface the document
names cannot drift from the code without failing verification.
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
graphviz_dataflow = _load_script("graphviz_dataflow")


def test_default_packages_fully_documented(capsys):
    exit_code = check_docstrings.main([])
    output = capsys.readouterr().out
    assert exit_code == 0, f"undocumented public API:\n{output}"


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


def test_architecture_fleet_dot_matches_script():
    """The "Dataflow runtime" DOT block is the script's output verbatim."""
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    section = text.split("## Dataflow runtime", 1)[1].split("\n## ", 1)[0]
    block = section.split("```dot\n", 1)[1].split("```", 1)[0]
    assert block == graphviz_dataflow.fleet_dot(), (
        "docs/ARCHITECTURE.md fleet DOT is stale; refresh it from "
        "`PYTHONPATH=src python scripts/graphviz_dataflow.py`"
    )
