"""Every public function and class of the package has a caller in the program.

A name that only tests call is a second surface to keep in step with the one
the program runs; this guard makes such a name fail tier-1 instead of
lingering.  Program code is ``src/bellpath`` (less ``__init__.py``, whose
re-exports call nothing) and the benchmark in ``perfbench``.
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


def test_every_public_function_and_class_has_a_program_caller():
    public = [(path.name, stmt.name)
              for path in sorted(PACKAGE.glob("*.py"))
              for stmt in _module(path).body
              if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_")]
    program = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    program += (ROOT / "perfbench").glob("*.py")
    used = set().union(*(_names_read(path) for path in program))
    assert [f"{module}:{name}" for module, name in public if name not in used] == []
