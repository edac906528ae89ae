import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jointbell"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads, skipping lines marked noqa."""
    tree = ast.parse(source)
    noqa = {i for i, line in enumerate(source.splitlines(), start=1) if "# noqa" in line}
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or node.lineno in noqa:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "from typing import Iterable, Iterator\n\nx: Iterable = ()\n"
    assert unused_imports(source) == ["line 1: Iterator"]
    assert unused_imports("import os  # noqa: F401\n") == []


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` (not dunders) defined in one of ``sources`` that no source
    reads or imports."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
                defined.extend((module, n.id) for n in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = [(m, name) for m, name in defined if name.startswith("_") and not name.endswith("__")]
    return [f"{m}: {name}" for m, name in private if name not in read]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == []


def test_checker_flags_an_orphaned_private_helper():
    sources = {
        "a.py": "def _used(): ...\n\ndef _orphan(): ...\n\n_LIMIT = 3\n_SPARE: int = 4\n",
        "b.py": "from .a import _used\n\n__all__ = ['x']\nx = _LIMIT\n",
    }
    assert orphaned_private_names(sources) == ["a.py: _orphan", "a.py: _SPARE"]


def unused_exports(init_source: str, sources: dict[str, str], readme: str) -> list[str]:
    """Names that ``__init__.py`` re-exports but no module of ``sources`` reads and the README
    never names."""
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init_source).body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [n for n in exported if n not in read and not re.search(rf"\b{n}\b", readme)]


def test_every_export_has_a_caller_or_a_readme_entry():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    assert unused_exports(init, sources, readme) == []


def test_checker_flags_an_unused_export():
    init = "from .a import called, documented, spare\n"
    sources = {"a.py": "def called(): ...\n\ndef documented(): ...\n\ndef spare(): ...\n",
               "b.py": "from .a import called, spare\n\ncalled()\n"}
    assert unused_exports(init, sources, "Call `documented` first.") == ["spare"]
