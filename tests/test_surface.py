"""Every module under ``src/repro`` is reached by something that runs.

Roots: the CLI and every ``repro.*`` import in ``perf/``, ``examples/``,
``benchmarks/``, ``tools/``.  ``from pkg import Name`` is followed through
``pkg/__init__.py`` (import-froms and lazy-export tables) to the submodule
defining ``Name``; an ``__init__`` importing its own submodule is a use only
if the name is loaded elsewhere in it — a bare re-export keeps nothing alive.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOT_DIRS = ("perf", "examples", "benchmarks", "tools")
MODULES = {
    ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): p
    for p in (SRC / "repro").rglob("*.py")
}
PACKAGES = {mod for mod, path in MODULES.items() if path.name == "__init__.py"}


def _imports(tree: ast.AST, mod: str = ""):
    """(target module, imported name or None, bound name) per import."""
    pkg = (mod if mod in PACKAGES else mod.rpartition(".")[0]).split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, None, a.asname or a.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = pkg[: len(pkg) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            for a in node.names:
                yield target, a.name, a.asname or a.name


@cache
def _exports(pkg: str) -> dict[str, tuple[str, str]]:
    """Public name -> (module, name there) according to ``pkg/__init__.py``."""
    tree = ast.parse(MODULES[pkg].read_text())
    table = {bound: (target, name) for target, name, bound in _imports(tree, pkg) if name}
    for node in ast.walk(tree):  # {"Name": "submodule"} / {"pkg.mod": ["Name", ...]}
        for key, value in zip(node.keys, node.values) if isinstance(node, ast.Dict) else ():
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                table[key.value] = (f"{pkg}.{value.value}", key.value)
            elif isinstance(value, ast.List):
                table.update({e.value: (key.value, e.value) for e in value.elts})
    return table


def _resolve(mod: str, name: str | None) -> str:
    """The module that ``from mod import name`` ends up loading."""
    if name is None or mod not in MODULES:
        return mod
    if f"{mod}.{name}" in MODULES:
        return f"{mod}.{name}"
    source, original = _exports(mod).get(name, (mod, name)) if mod in PACKAGES else (mod, name)
    return _resolve(source, original) if source != mod and source in MODULES else mod


def _reachable(roots: set[str]) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        mod = todo.pop()
        if mod not in MODULES or mod in seen:
            continue
        seen.add(mod)
        todo.append(mod.rpartition(".")[0])  # importing a module runs its parents
        tree = ast.parse(MODULES[mod].read_text())
        names = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
        loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for target, name, bound in _imports(tree, mod):
            dest = _resolve(target, name)
            if not (mod in PACKAGES and dest.startswith(mod + ".") and bound not in loaded):
                todo.append(dest)
    return seen


def test_every_module_is_reached_from_a_root():
    roots = {"repro.cli", "repro.__main__"}
    for path in sorted(p for d in ROOT_DIRS for p in (REPO / d).glob("*.py")):
        for target, name, _ in _imports(ast.parse(path.read_text())):
            if target.split(".")[0] == "repro":
                roots.add(_resolve(target, name))
    unreached = sorted(set(MODULES) - PACKAGES - _reachable(roots))
    assert not unreached, f"modules nothing runs (delete them or give them a caller): {unreached}"
