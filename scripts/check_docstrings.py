#!/usr/bin/env python
"""Docs gate: the public API of every ``repro`` subpackage (``drone``,
``geometry``, ``human``, ``mission``, ``protocol``, ``recognition``,
``recorder``, ``sax``, ``signaling``, ``simulation``, ``testing``,
``userstories`` and ``vision``, found by walking ``repro``) must be
documented.

Checks, for every module in the covered packages:

* the module has a docstring and an ``__all__`` export list;
* every exported function and class has a docstring;
* every public method/property *defined* on an exported class has a
  docstring (inherited and dunder members are exempt).

Exits non-zero listing each violation — run via ``make docs-check`` or
the tier-1 suite (``tests/core/test_docs_check.py``) so the documented
surface in ``docs/ARCHITECTURE.md`` cannot drift silently.

Usage::

    PYTHONPATH=src python scripts/check_docstrings.py [package ...]
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys


def default_packages() -> tuple[str, ...]:
    """Every subpackage of ``repro``, in name order."""
    import repro

    return tuple(
        info.name
        for info in pkgutil.iter_modules(repro.__path__, "repro.")
        if info.ispkg
    )


def iter_modules(package_name: str):
    """Yield ``(name, module)`` for a package and its direct submodules."""
    package = importlib.import_module(package_name)
    yield package_name, package
    for info in pkgutil.iter_modules(package.__path__, package_name + "."):
        yield info.name, importlib.import_module(info.name)


def _missing_doc(obj) -> bool:
    return not (getattr(obj, "__doc__", None) or "").strip()


def check_class(module_name: str, class_name: str, cls: type) -> list[str]:
    """Return violations for the public members defined on *cls*."""
    problems = []
    for attr_name, attr in vars(cls).items():
        if attr_name.startswith("_"):
            continue
        if isinstance(attr, property):
            target = attr.fget
        elif isinstance(attr, (staticmethod, classmethod)):
            target = attr.__func__
        elif inspect.isfunction(attr):
            target = attr
        else:
            continue  # constants, enum members, dataclass fields
        if _missing_doc(target):
            problems.append(f"{module_name}.{class_name}.{attr_name}: missing docstring")
    return problems


def check_package(package_name: str) -> list[str]:
    """Return every docstring/__all__ violation in *package_name*."""
    problems = []
    for module_name, module in iter_modules(package_name):
        if _missing_doc(module):
            problems.append(f"{module_name}: missing module docstring")
        exported = getattr(module, "__all__", None)
        if exported is None:
            problems.append(f"{module_name}: missing __all__")
            continue
        for symbol in exported:
            obj = getattr(module, symbol, None)
            if obj is None:
                problems.append(f"{module_name}.{symbol}: listed in __all__ but undefined")
                continue
            if inspect.isfunction(obj) and _missing_doc(obj):
                problems.append(f"{module_name}.{symbol}: missing docstring")
            elif inspect.isclass(obj):
                if _missing_doc(obj):
                    problems.append(f"{module_name}.{symbol}: missing docstring")
                problems.extend(check_class(module_name, symbol, obj))
    return problems


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit code."""
    packages = tuple(argv) or default_packages()
    problems = []
    for package_name in packages:
        problems.extend(check_package(package_name))
    if problems:
        print(f"docs-check: {len(problems)} undocumented public API member(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docs-check: public API of {', '.join(packages)} fully documented")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
