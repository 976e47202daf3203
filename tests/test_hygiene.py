"""Source hygiene checks, made by reading the source with ``ast``, and runs
of the README's library example and CLI transcript."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from phaserx.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _readme_python_block() -> str:
    """The README's one python block, the library example."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    return block


def _unused_imports(name: str, source: str) -> list[str]:
    tree = ast.parse(source, filename=name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}: {alias}"
            for alias, line in sorted(imported.items()) if alias not in used]


SOURCES = sorted((ROOT / "src" / "phaserx").glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is left out; the README's
    # library example is held to the same rule.
    files = [p for p in SOURCES if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    sources = [(str(p.relative_to(ROOT)), p.read_text()) for p in files]
    sources.append(("README.md", _readme_python_block()))
    unused = [entry for name, source in sources for entry in _unused_imports(name, source)]
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


def _names_used(path: Path, name: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)]


def test_fock_truncation_lives_in_helstrom():
    # One truncation rule: the Helstrom matrices and pk's default count
    # range are both sized by helstrom's fock_dim, the package's one
    # rounding up of a Poisson tail bound, so a ceil in any other module is
    # a second cutoff formula.
    found = [entry for path in SOURCES if path.name != "helstrom.py"
             for entry in _names_used(path, "ceil")]
    assert not found, "ceil outside helstrom.py:\n" + "\n".join(found)


def _sigma_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "sigma"]


def test_phase_law_lives_in_phasenoise():
    # The Helstrom kernel and the Monte Carlo draw reach the phase law through
    # PhaseNoise's methods, so neither module reads its parameter.
    found = [entry for name in ("helstrom.py", "montecarlo.py")
             for entry in _sigma_reads(ROOT / "src" / "phaserx" / name)]
    assert not found, "sigma read outside phasenoise.py:\n" + "\n".join(found)


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


def test_readme_library_example_runs():
    # The README's python block, executed as written: its simulation of the
    # optimized receiver agrees with the reported optimum.
    namespace = {}
    exec(compile(_readme_python_block(), "README.md", "exec"), namespace)
    est, se, result = namespace["est"], namespace["se"], namespace["result"]
    assert abs(est - result.perr) <= 4.0 * se, (est, se, result.perr)


def test_readme_cli_transcript_matches(capsys):
    # The README's one shell transcript, run through the CLI as written: it
    # prints the same output, line for line.
    readme = (ROOT / "README.md").read_text()
    [(command, expected)] = re.findall(r"```\n\$ phaserx (.*?)\n(.*?)```", readme, flags=re.S)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out.splitlines() == expected.splitlines()
