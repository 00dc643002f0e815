"""Every public function and class of the package, and every public method
and property of a public class, has a caller in the program.

A name that only tests call is a second surface to keep in step with the one
the program runs; this guard makes such a name fail tier-1 instead of
lingering.  Program code is ``src/bellpath`` (less ``__init__.py``, whose
re-exports call nothing) and the benchmark in ``perfbench``.  A method is
matched by its attribute name, whatever the object it is read from.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bellpath"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_read(path: Path) -> set[str]:
    """Names and attributes read in code; a definition's own name inside it does not count."""
    used = set()
    for stmt in _module(path).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(stmt, DEFINITIONS):
            names.discard(stmt.name)
        used |= names
    return used


def _public_names(path: Path) -> list[str]:
    """Public top-level definitions, and ``Class.method`` for the public
    methods and properties of public classes."""
    names = []
    for stmt in _module(path).body:
        if not isinstance(stmt, DEFINITIONS) or stmt.name.startswith("_"):
            continue
        names.append(stmt.name)
        if isinstance(stmt, ast.ClassDef):
            names += [f"{stmt.name}.{item.name}" for item in stmt.body
                      if isinstance(item, DEFINITIONS) and not item.name.startswith("_")]
    return names


def test_every_public_function_and_class_has_a_program_caller():
    public = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in _public_names(path)]
    program = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    program += (ROOT / "perfbench").glob("*.py")
    used = set().union(*(_names_read(path) for path in program))
    assert [f"{module}:{name}" for module, name in public
            if name.rpartition(".")[2] not in used] == []
