"""Every public top-level function and class in ``src/hsgreen`` has a reader.

A reader is a CLI target, a harness, an acceptance line, the benchmark or
another function of the package: a name, attribute, imported name or string
(``perfbench/tracing.py`` wraps functions by name) in ``src/hsgreen``,
``tests/test_acceptance.py`` or ``perfbench/*.py``.  A public name read only
by its own tests is surface that no verdict needs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hsgreen").glob("*.py"))
READERS = [*SOURCES, ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]

# Public names that other tests read as references to compare against.
TEST_REFERENCES = {
    "fundamental_leading": "the whole-line leading kernel, checked against the Fourier oracle",
    "mirror_leading": "the leading mirror kernel, checked against mirror_by_quadrature",
    "invert_laplace_green_dx": "the exact G_x, checked against a stencil of invert_laplace_green",
}


def public_definitions():
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def names_read(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_definition_has_a_reader():
    read = set().union(*map(names_read, READERS))
    defs = list(public_definitions())
    # exactly the exempt references: a new unread name fails, and so does an
    # exemption that has gained a reader
    assert [qual for qual, name in defs if name not in read] == [
        qual for qual, name in defs if name in TEST_REFERENCES]
