"""Package hygiene: every module imports, every export resolves, docs match.

A deleted or renamed package must not leave a dangling ``__all__`` name, a
``repro`` import in an example, benchmark or perfbench script, a docstring
cross-reference, a layer-table row or data-flow node in
``docs/architecture.md`` or a path in the README layout table behind.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)

SCRIPTS = sorted(
    str(path.relative_to(ROOT))
    for directory in ("examples", "benchmarks", "perfbench")
    for path in (ROOT / directory).rglob("*.py")
)

#: Sphinx cross-reference to a ``repro`` object, e.g. :class:`~repro.x.Y`.
XREF = re.compile(r":(?:mod|func|class|data|meth|attr):`~?(repro(?:\.\w+)+)`")


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an importable module or an attribute chain
    hanging off the longest importable module prefix."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _table_rows(text: str, heading: str):
    """Cells of the first markdown table after ``heading`` (header excluded)."""
    lines = text[text.index(heading):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [
        export for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert missing == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_repro_imports_resolve(script):
    tree = ast.parse((ROOT / script).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.extend(
                f"{node.module}.{alias.name}" for alias in node.names
                if alias.name != "*"
            )
    names = [name for name in names if name.split(".")[0] == "repro"]
    missing = [name for name in names if not _resolves(name)]
    assert missing == []


def test_docstring_cross_references_resolve():
    references = set()
    for path in SRC.rglob("*.py"):
        references.update(XREF.findall(path.read_text(encoding="utf-8")))
    assert references
    assert sorted(ref for ref in references if not _resolves(ref)) == []


def test_architecture_layer_table_lists_exactly_the_subpackages():
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    documented = set()
    for row in _table_rows(text, "## Layer map"):
        documented.update(re.findall(r"`([a-z_]+)`", row[1]))
    subpackages = {path.parent.name for path in SRC.glob("*/__init__.py")}
    assert documented == subpackages


def test_architecture_data_flow_names_existing_packages():
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    diagram = text[text.index("```mermaid"):]
    diagram = diagram[:diagram.index("```", 3)]
    named = set()
    for label in re.findall(r"\[([^\]]*)\]", diagram):
        named.update(re.findall(r"[a-z_]+", label.split("<br/>")[0]))
    named -= {"experiment", "drivers"}  # figure drivers live in evaluation
    subpackages = {path.parent.name for path in SRC.glob("*/__init__.py")}
    assert named and named <= subpackages, named - subpackages


def test_readme_layout_paths_exist():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = []
    for row in _table_rows(text, "## Layout"):
        paths.extend(re.findall(r"`(src/repro/[^`]*)`", row[0]))
    assert paths
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert missing == []
