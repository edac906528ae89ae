import ast
import re
import subprocess
import sys
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


def cumsum_calls(sources: dict[str, str]) -> list[str]:
    """Calls of ``cumsum`` in ``sources`` (module name: source) outside ``core._left_sum``, the
    one left-to-right sum that pinned outputs depend on."""
    problems = []
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = {id(node) for fn in tree.body if module == "core"
                   and isinstance(fn, ast.FunctionDef) and fn.name == "_left_sum"
                   for node in ast.walk(fn)}
        problems.extend(
            f"{module}: cumsum, line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and "cumsum" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        )
    return problems


def test_cumsum_only_in_left_sum():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert cumsum_calls(sources) == []


def test_checker_flags_a_cumsum_outside_left_sum():
    sources = {
        "core": "def _left_sum(v):\n    return v.cumsum()\n\ndef other(v):\n    return cumsum(v)\n",
        "sim": "import numpy as np\n\ndef _left_sum(v):\n    return np.cumsum(v)\n",
    }
    assert cumsum_calls(sources) == ["core: cumsum, line 5", "sim: cumsum, line 4"]


#: Calls that open a text file in the locale's encoding unless given ``encoding=``.
TEXT_FILE_CALLS = {"open", "read_text", "write_text", "loadtxt"}


def calls_without_encoding(sources: dict[str, str]) -> list[str]:
    """Calls of TEXT_FILE_CALLS in ``sources`` (module name: source) that pass no
    ``encoding=`` keyword, so that the file they read or write would follow the locale."""
    problems = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in TEXT_FILE_CALLS and all(k.arg != "encoding" for k in node.keywords):
                problems.append(f"{module}: {name}, line {node.lineno}")
    return problems


def test_text_files_name_their_encoding():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert calls_without_encoding(sources) == []


def test_checker_flags_a_call_without_encoding():
    sources = {
        "cli": ("open(p, 'w', encoding='utf-8')\nopen(p, 'w', newline='')\n"
                "np.loadtxt(p, dtype=complex)\nnp.loadtxt(p, encoding='utf-8')\n"),
        "sim": "Path(p).read_text()\nPath(p).write_text(t, encoding='utf-8')\nfh.readline()\n",
    }
    assert calls_without_encoding(sources) == [
        "cli: open, line 2", "cli: loadtxt, line 3", "sim: read_text, line 1",
    ]


def rewinds(sources: dict[str, str]) -> list[str]:
    """Reads of a ``seek`` or ``buffer`` attribute in ``sources`` (module name: source): every
    input is read once, front to back, in text mode, so that a pipe serves as a file does."""
    return [f"{module}: {node.attr}, line {node.lineno}"
            for module, source in sources.items() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("seek", "buffer")]


def test_inputs_are_read_once_front_to_back():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert rewinds(sources) == []


def test_checker_flags_a_rewind():
    sources = {
        "analysis": "fh.seek(0)\ntext = fh.read()\nraw = fh.buffer.read()\n",
        "cli": "seek = 0\nsys.stdout.write(buffer)\nfh.tell()\n",
    }
    assert rewinds(sources) == ["analysis: seek, line 1", "analysis: buffer, line 3"]


#: Each module's layer: a module imports only modules of lower layers.  ``__init__`` only
#: re-exports, from core, sim and analysis.
LAYERS = {"core": 0, "sim": 1, "analysis": 2, "figures": 3, "selfcheck": 3, "__init__": 3,
          "cli": 4}


def layer_violations(sources: dict[str, str]) -> list[str]:
    """Module-level ``from .x import`` edges of ``sources`` (module name: source) that do not
    lead to a lower layer of LAYERS, and ``import`` statements inside function bodies."""
    problems = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                problems.extend(f"{module} imports {target}" for target in targets
                                if LAYERS.get(target, 9) >= LAYERS.get(module, -1))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                problems.extend(f"{module}: import in {fn.name}, line {node.lineno}"
                                for node in ast.walk(fn)
                                if isinstance(node, (ast.Import, ast.ImportFrom)))
    return problems


def test_modules_import_only_lower_layers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert set(sources) == set(LAYERS)
    assert layer_violations(sources) == []


def test_checker_flags_a_layer_violation():
    sources = {
        "sim": "from .core import x\nfrom .analysis import y\n",
        "analysis": "from . import sim\n\ndef f():\n    import math\n",
        "__init__": "from .figures import z\n",
        "extra": "from .core import x\n",
    }
    assert layer_violations(sources) == [
        "sim imports analysis", "analysis: import in f, line 4", "__init__ imports figures",
        "extra imports core",
    ]


def test_cli_import_adds_no_dataclasses():
    """The value types are NamedTuples: building them costs no dataclass decorators, and
    importing the command line after numpy and click imports no ``dataclasses``."""
    code = ("import sys, numpy, click; had = 'dataclasses' in sys.modules; import jointbell.cli; "
            "print(not had and 'dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "False\n"
