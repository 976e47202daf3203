"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


SOURCES = sorted((ROOT / "src" / "phaserx").glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is left out.
    files = [p for p in SOURCES if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def _catch_all_handlers(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(t is None or (isinstance(t, ast.Name) and t.id in CATCH_ALL) for t in caught):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_no_catch_all_handlers():
    # A handler that catches everything turns usage errors and bugs into
    # results; each handler must name the errors it expects.
    found = [entry for path in SOURCES for entry in _catch_all_handlers(path)]
    assert not found, "bare or catch-all except:\n" + "\n".join(found)
