"""Checks on the package source itself."""

import ast
from pathlib import Path

import nefcert


def test_no_assert_statements_in_the_package():
    """Every internal check raises, so that `python -O` keeps it."""
    found = []
    for path in sorted(Path(nefcert.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _nefcert_targets(node) -> list:
    """The nefcert modules an import statement names (the package is flat)."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [node.module] if node.module else [a.name for a in node.names]
        if node.module == "nefcert":
            return [a.name for a in node.names]
        if (node.module or "").startswith("nefcert."):
            return [node.module.split(".")[1]]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("nefcert.")]
    return []


def test_imports_are_at_module_level_and_acyclic():
    """Every import of a nefcert module is at module level, except
    `cli.main`'s of `workbench` and `workbench.cmd_lattice`'s of `lattice`,
    which keep those modules off the cold path of search and verify, and
    `lattice` off that of curve-info; and the module graph has no cycle, so no
    import has to be deferred into a function to break one."""
    modules = {path.stem: path for path in Path(nefcert.__file__).parent.glob("*.py")}
    graph, local = {}, []
    for name, path in sorted(modules.items()):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        deps = graph[name] = set()
        for stmt in tree.body:
            for node in ast.walk(stmt):
                for target in _nefcert_targets(node):
                    deps.add(target)
                    if node is not stmt:
                        local.append((name, stmt.name, target))
    assert local == [("cli", "main", "workbench"), ("workbench", "cmd_lattice", "lattice")]
    done = []
    while len(done) < len(graph):
        ready = sorted(m for m in graph if m not in done and graph[m] <= set(done))
        assert ready, f"import cycle among {sorted(set(graph) - set(done))}"
        done += ready
