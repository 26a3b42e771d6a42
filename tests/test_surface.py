"""The package surface matches its callers.

The root of `splitflow` exports exactly the names that the acceptance suite,
perfbench and tools/ import from it; everything else is imported from its
module. No module imports a name it never reads.
"""

import ast
import pkgutil
from pathlib import Path

import splitflow

ROOT = Path(__file__).resolve().parents[1]

# (file, name) pairs imported on purpose without a read: perfbench's tracer
# test pins `distill`'s binding of `time_embedding`, and the acceptance
# suite's import list pins the public names it was written against.
UNREAD_IMPORTS = {
    ("src/splitflow/distill.py", "time_embedding"),
    ("tests/test_acceptance.py", "isc_loss"),
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def root_reads(tree):
    """Names read from the package root: `from splitflow import x` and
    `splitflow.x`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "splitflow" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "splitflow"):
            names.add(node.attr)
    return names


def test_root_exports_what_its_callers_import():
    callers = [ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "perfbench").rglob("*.py")),
               *sorted((ROOT / "tools").glob("*.py"))]
    submodules = {info.name for info in pkgutil.iter_modules(splitflow.__path__)}
    imported = set().union(*(root_reads(parse(path)) for path in callers))
    imported = {name for name in imported
                if not name.startswith("_") and name not in submodules}
    exported = {name for name in vars(splitflow)
                if not name.startswith("_") and name not in submodules}
    assert exported == imported, (
        f"exported but not imported: {sorted(exported - imported)}; "
        f"imported but not exported: {sorted(imported - exported)}")


def unread_imports(tree):
    """Names a module binds by import but never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    paths = [path for path in sorted((ROOT / "src" / "splitflow").glob("*.py"))
             if path.name != "__init__.py"]
    for folder in ("tests", "perfbench", "tools"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    found = {(path.relative_to(ROOT).as_posix(), name)
             for path in paths for name in unread_imports(parse(path))}
    assert found == UNREAD_IMPORTS
