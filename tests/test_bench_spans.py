"""Every engine function the benchmark's tracer wraps still exists.

`bench/spans.py` wraps engine functions by module and attribute name, so
renaming or moving one silently drops its span.  This test reads the
names from that file, without importing it, and resolves each one.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def literal(name: str):
    """The value of the module-level assignment to `name` in spans.py."""
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS_FILE} assigns no {name}")


def resolve(dotted: str):
    module, *attrs = dotted.split(".")
    return functools.reduce(
        getattr, attrs, importlib.import_module(f"lostchance.{module}")
    )


@pytest.mark.parametrize(
    "dotted",
    [f"{module}.{attr}" for module, attr in literal("SPANS")] + [literal("VALIDATE")],
)
def test_wrapped_name_resolves(dotted):
    assert callable(resolve(dotted))
