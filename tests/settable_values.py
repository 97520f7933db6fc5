"""Count the settable values of the package, per module and in total.

Run from the repository root:

    python tests/settable_values.py [DIR]

A settable value is a default in a `def` signature (positional or
keyword-only) or a field of a dataclass whose name ends in `Config`. Each
is a value a caller may set to something other than what the product
uses, so fewer of them means less behaviour to test. DIR defaults to the
package, src/targetvoice; the script reads source only and imports
nothing from it.
"""

from __future__ import annotations

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "targetvoice")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count(source: str) -> int:
    """Signature defaults plus *Config dataclass fields in one module's source."""
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
        elif (isinstance(node, ast.ClassDef) and node.name.endswith("Config")
              and _is_dataclass(node)):
            n += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return n


def counts(pkg: str) -> dict[str, int]:
    """Module file name -> count, for each module of the package dir `pkg`."""
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                out[name] = count(fh.read())
    return out


def main(argv: list[str]) -> int:
    per_module = counts(argv[0] if argv else PACKAGE)
    for name, n in per_module.items():
        print(f"{name:<16} {n}")
    print(f"{'total':<16} {sum(per_module.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
