"""The README's library examples run and give the results their comments state."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    """The `python` blocks of the README's "Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _commented_results(block: str):
    """(expression, result) for each line whose comment states a result
    "up to round-off"; "X twice" is a list of two X."""
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        claim = comment.strip()
        if not claim.endswith("up to round-off"):
            continue
        claim = claim[: -len("up to round-off")].strip(" ,")
        if claim.endswith(" twice"):
            want = [ast.literal_eval(claim[: -len(" twice")])] * 2
        else:
            want = ast.literal_eval(claim)
        yield code.strip(), want


def test_the_library_section_has_two_examples():
    assert len(_library_blocks()) == 2


@pytest.mark.parametrize("index", [0, 1])
def test_a_library_example_gives_its_commented_results(index):
    block = _library_blocks()[index]
    results = list(_commented_results(block))
    assert results
    namespace: dict = {}
    exec(compile(block, f"README.md library example {index + 1}", "exec"), namespace)
    for expression, want in results:
        assert eval(expression, namespace) == pytest.approx(want, rel=1e-12), expression
