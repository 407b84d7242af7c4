"""Static census of ``src/``: size, options and unreferenced defs.

Run from the repository root::

    python tools/census.py            # the four counts
    python tools/census.py --list     # and every unreferenced def

It prints
- the number of lines in ``src/`` (every ``.py`` file, as ``wc -l``);
- defaulted parameters: the positional plus keyword-only defaults of
  every ``def`` (and ``async def``) in ``src/``;
- defaulted ``@dataclass`` fields: annotated class-body assignments
  with a value in a class decorated with ``dataclass``;
- the ``src/`` defs whose name no ``Name``, attribute or import in
  ``src/``, ``benchmarks/`` or ``examples/`` refers to. Dunder methods,
  and names a module lists in ``__all__``, are not counted.

The census only reports; it gates nothing.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIRS = ("src", "benchmarks", "examples")


def _files(top: Path):
    return sorted(p for p in top.rglob("*.py") if "__pycache__" not in p.parts)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def census(root: Path = ROOT) -> dict:
    lines = params = fields = 0
    defs = []                       # (path, line, name) of every src def
    exported = set()
    for path in _files(root / "src"):
        text = path.read_text()
        lines += text.count("\n")
        tree = ast.parse(text)
        exported |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params += len(node.args.defaults)
                params += sum(d is not None for d in node.args.kw_defaults)
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((path.relative_to(root), node.lineno, node.name))
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                              for s in node.body)
    referenced = set()
    for top in REFERENCE_DIRS:
        for path in _files(root / top):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name.rsplit(".", 1)[-1])
    unreferenced = [d for d in defs if d[2] not in referenced and d[2] not in exported]
    return {"src_lines": lines, "defaulted_params": params,
            "defaulted_fields": fields, "unreferenced_defs": unreferenced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="list every unreferenced def")
    args = parser.parse_args(argv)
    c = census()
    options = c["defaulted_params"] + c["defaulted_fields"]
    print(f"src lines                {c['src_lines']}")
    print(f"defaulted parameters     {c['defaulted_params']}")
    print(f"defaulted dataclass fields {c['defaulted_fields']}")
    print(f"options (sum)            {options}")
    print(f"unreferenced defs        {len(c['unreferenced_defs'])}")
    if args.list:
        for path, line, name in c["unreferenced_defs"]:
            print(f"  {path}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
