"""List the package's names that no product path reaches.

Run from the repository root:

    python tests/reach.py

The walk starts from `cli.main`, the console script, and from every name in
the package's `__all__`. A top-level name of a module (a function, class or
assigned constant) or a method of a reached class is reached when a reached
body names it: as a name, as an attribute, or as the original name of a
`from ... import ... as ...` inside a function. A reached class also reaches
its dunder methods and, through its `class` line, its bases. Module code
that binds no name (such as `if __name__ == "__main__":`) runs on import and
counts as reached; import lines and annotations name nothing, since neither
runs anything. Every name that stays unreached is printed, tagged `bench`
when a file of bench/ names it (an identifier or a string equal to it).

Names are matched as strings, not resolved: a body that calls any `forward`
reaches every reached class's `forward`, and a local variable named like a
method reaches that method too. So reach is overstated, and the list is a
lower bound on what no product path runs. The script reads the source of
src/targetvoice and bench/ only, and imports nothing from the package.
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "targetvoice")
BENCH = os.path.join(ROOT, "bench")


@dataclass
class _Entry:
    """A top-level name or a method: what it is called and the nodes it runs."""

    qualname: str                  # module.name or module.Class.method
    name: str
    nodes: list[ast.AST]
    methods: list[_Entry] = field(default_factory=list)  # a class's methods


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _identifiers(nodes: list[ast.AST]) -> set[str]:
    """Every name, attribute and imported name in `nodes`, annotations skipped."""
    out: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        for name, value in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)
    return out


def _function_nodes(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.AST]:
    """What a def runs: its decorators, defaults and body."""
    args = node.args
    return [*node.decorator_list, *args.defaults,
            *(d for d in args.kw_defaults if d is not None), *node.body]


def _module_entries(module: str, tree: ast.Module) -> tuple[list[_Entry], list[ast.AST]]:
    """The module's top-level entries, and its code that binds no name.

    A name bound more than once is one entry that runs every value bound to it.
    """
    entries: dict[str, _Entry] = {}
    loose: list[ast.AST] = []

    def add(entry: _Entry) -> None:
        if entry.qualname in entries:
            entries[entry.qualname].nodes.extend(entry.nodes)
        else:
            entries[entry.qualname] = entry

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(_Entry(f"{module}.{stmt.name}", stmt.name, _function_nodes(stmt)))
        elif isinstance(stmt, ast.ClassDef):
            cls = _Entry(f"{module}.{stmt.name}", stmt.name,
                         [*stmt.decorator_list, *stmt.bases, *stmt.keywords])
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods.append(_Entry(f"{cls.qualname}.{item.name}", item.name,
                                              _function_nodes(item)))
                else:
                    cls.nodes.append(item)
            add(cls)
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) else [])
            names = [name for t in targets for name in _bound(t)]
            value = getattr(stmt, "value", None)
            for name in names:
                if not _is_dunder(name):  # __all__ and __version__ are the module's own
                    add(_Entry(f"{module}.{name}", name, [value] if value is not None else []))
            if not names:
                loose.append(stmt)
    return list(entries.values()), loose


def _bound(target: ast.AST) -> list[str]:
    """The names an assignment target binds; an attribute or item binds none."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound(elt)]
    if isinstance(target, ast.Starred):
        return _bound(target.value)
    return []


def _parse_package(pkg: str) -> dict[str, ast.Module]:
    """Module name -> parsed source, for each module of the package dir `pkg`."""
    trees = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def _exports(init: ast.Module) -> list[str]:
    """The strings of `__all__ = [...]` in the package's __init__."""
    for stmt in init.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            return [elt.value for elt in stmt.value.elts]
    return []


def reached_names(pkg: str = PACKAGE) -> tuple[list[_Entry], set[str]]:
    """Every entry of the package, and the qualified names of those reached."""
    trees = _parse_package(pkg)
    entries: list[_Entry] = []
    loose: list[ast.AST] = []
    for module, tree in trees.items():
        found, code = _module_entries(module, tree)
        entries.extend(found)
        loose.extend(code)
    by_name: dict[str, list[_Entry]] = {}
    for entry in entries:
        by_name.setdefault(entry.name, []).append(entry)

    reached: set[str] = set()
    named: set[str] = set()
    live_classes: list[_Entry] = []
    queue = [e for e in entries if e.qualname == "cli.main"]
    for name in _exports(trees["__init__"]):
        queue.extend(by_name.get(name, []))
    queue.append(_Entry("<module code>", "", loose))
    while queue:
        entry = queue.pop()
        if entry.qualname in reached:
            continue
        reached.add(entry.qualname)
        new = _identifiers(entry.nodes) - named
        named |= new
        if entry.methods:
            live_classes.append(entry)
            queue.extend(m for m in entry.methods if _is_dunder(m.name) or m.name in named)
        for name in new:
            queue.extend(by_name.get(name, []))
            queue.extend(m for cls in live_classes for m in cls.methods if m.name == name)
    reached.discard("<module code>")
    return entries, reached


def bench_names(bench: str = BENCH) -> set[str]:
    """Every identifier, attribute, imported name and string in bench/*.py."""
    out: set[str] = set()
    for name in sorted(os.listdir(bench)):
        if name.endswith(".py"):
            with open(os.path.join(bench, name)) as fh:
                tree = ast.parse(fh.read())
            out |= _identifiers([tree])
            out.update(n.value for n in ast.walk(tree)
                       if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return out


def unreached(pkg: str = PACKAGE, bench: str = BENCH) -> list[tuple[str, bool]]:
    """(qualified name, named in bench/) of each name no product path reaches.

    A method is listed only when its class is reached: an unreached class
    is listed once, and its methods are not listed apart.
    """
    entries, reached = reached_names(pkg)
    in_bench = bench_names(bench)
    out = []
    for entry in entries:
        if entry.qualname not in reached:
            out.append((entry.qualname, entry.name in in_bench))
            continue
        out.extend((m.qualname, m.name in in_bench)
                   for m in entry.methods if m.qualname not in reached)
    return out


def main() -> int:
    names = unreached()
    for qualname, bench in names:
        print(f"{qualname:<40} {'bench' if bench else ''}".rstrip())
    print(f"unreached: {len(names)} ({sum(b for _, b in names)} named in bench/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
