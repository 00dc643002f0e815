"""Report rendering shared by the CLI subcommands.

A subcommand builds one document (a dict, or a list of row dicts) and names
its CSV view; ``render`` writes the document as JSON or as that view, with
one rule for every value.  Floats are pinned to 17 significant digits, which
round-trips IEEE doubles exactly and makes output files byte-identical
across runs and platforms for a fixed seed.
"""

from __future__ import annotations

import json


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def cell(x) -> str:
    """One value as CSV text; a ``{value, stderr, n}`` mapping reads ``v stderr = s n = N``."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt17(x)
    if isinstance(x, dict):
        return f"{cell(x['value'])} stderr = {cell(x['stderr'])} n = {cell(x['n'])}"
    return str(x)


def csv_text(doc, header: str, rows=None, summary=()) -> str:
    """A table of ``rows`` (by default the document itself) under ``header``,
    then a ``# key = value`` line for each ``summary`` key the document holds.
    """
    if rows is None:
        rows = doc if isinstance(doc, list) else [doc]
    columns = header.split(",")
    lines = [header, *(",".join(cell(row[c]) for c in columns) for row in rows)]
    lines += [f"# {key} = {cell(doc[key])}" for key in summary if key in doc]
    return "\n".join(lines) + "\n"


def json_text(obj, indent: int = 0) -> str:
    """JSON with scalars rendered as CSV cells are (None is null).

    Hand-rolled because the stdlib C encoder pins its own float repr.  Only
    the types our reports contain are supported.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {json_text(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = ",\n".join(f"{inner}{json_text(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (int, float)):
        return cell(obj)
    raise TypeError(f"not JSON-serializable: {obj!r}")


def json_document(obj) -> str:
    return json_text(obj) + "\n"


def render(fmt: str, doc, header: str, rows=None, summary=()) -> str:
    """``doc`` as JSON when ``fmt`` is "json", else as its CSV view."""
    return json_document(doc) if fmt == "json" else csv_text(doc, header, rows, summary)
