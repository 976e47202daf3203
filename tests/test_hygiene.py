"""Source hygiene checks, made by reading the source with ``ast``."""

import ast
import importlib
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


POISSON_SPECIALS = {"gammaln", "xlogy", "pdtr", "pdtrc", "gammainc", "gammaincc"}


def _poisson_imports(path: Path) -> list[str]:
    """Imports of a Poisson building block from ``scipy.special``, or of
    ``scipy.stats`` in any form."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("scipy.stats")]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            names = [a.name for a in node.names if a.name in POISSON_SPECIALS]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            names = [a.name for a in node.names if a.name == "stats"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.stats"):
            names = [node.module]
        else:
            continue
        found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names]
    return found


def test_poisson_routines_live_in_receivers():
    # One Poisson pmf and one set of tails: every other module builds on the
    # ones in receivers.py instead of importing its own.
    found = [entry for path in SOURCES if path.name != "receivers.py"
             for entry in _poisson_imports(path)]
    assert not found, "Poisson routine imported outside receivers.py:\n" + "\n".join(found)


def _bench_hooked_names() -> set[str]:
    """Every ``module.name`` of the package that ``bench/tracing.py`` hooks or
    reads: the targets of its ``_const`` and ``_hook`` calls, with a loop
    variable over a tuple of module names expanded, and the ``_NEEDS``
    entries."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    names = set()

    def visit(node, bound):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            for item in node.iter.elts:
                for child in node.body:
                    visit(child, {**bound, node.target.id: item.value})
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("_const", "_hook")):
            module, name = (bound[a.id] if isinstance(a, ast.Name) else a.value
                            for a in node.args[:2])
            names.add(f"{module}.{name}")
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, {})
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_NEEDS" for t in node.targets):
            names.update(entry.value for needs in node.value.values for entry in needs.elts)
    return names


def test_bench_hooked_names_exist():
    # The bench hooks private names by string; one that is renamed away
    # makes its metrics read null instead of failing here.
    names = _bench_hooked_names()
    assert {"optimizer._grid_scan", "optimizer.GRID_QUAD_ORDER", "phasenoise.build_rule",
            "receivers.generalized_kennedy_detail", "cli.sweep_sigma"} <= names
    missing = []
    for entry in sorted(names):
        module, name = entry.split(".")
        if getattr(importlib.import_module(f"phaserx.{module}"), name, None) is None:
            missing.append(f"phaserx.{entry}")
    assert not missing, "bench/tracing.py hooks names the package lacks:\n" + "\n".join(missing)


def _acceptance_criteria() -> tuple[list[str], list[str]]:
    """The ``test_criterion_*`` functions of ``tests/test_acceptance.py`` in
    file order, and the names its ``CRITERIA`` list holds."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    defined = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("test_criterion_")]
    listed = next([element.id for element in node.value.elts] for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "CRITERIA" for t in node.targets))
    return defined, listed


def test_acceptance_script_runs_every_criterion():
    # Run as a script, the acceptance file runs only what ``CRITERIA`` lists,
    # so a criterion missing from it would be skipped without a word.
    defined, listed = _acceptance_criteria()
    assert defined, "no test_criterion_* function found"
    assert listed == defined, f"CRITERIA lists {listed}, the file defines {defined}"
