"""Every trace category recorded in the library must be declared.

:mod:`repro.sim.categories` is the vocabulary of :meth:`Tracer.record`.
The first test reads the library's source and checks every literal
category passed to a tracer's ``record`` or ``select``, so deleting a
still-emitted category (or misspelling one at a call site) fails here.
"""

import ast
from pathlib import Path

from repro.sim import categories

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def literal_categories(source):
    """``(line, category)`` of every ``<…trace…>.record("…")`` or
    ``.select("…")`` call in ``source`` (receivers matched by name, the
    library's convention: ``self.sim.trace.record(...)``)."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("record", "select") and node.args):
            continue
        receiver = node.func.value
        name = (receiver.attr if isinstance(receiver, ast.Attribute)
                else getattr(receiver, "id", ""))
        first = node.args[0]
        if ("trace" in name.lower() and isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            yield first.lineno, first.value


def test_no_undeclared_categories_in_the_library():
    undeclared = [
        f"{path.relative_to(SRC_ROOT)}:{line}: {category!r}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for line, category in literal_categories(
            path.read_text(encoding="utf-8"))
        if category not in categories.ALL_CATEGORIES]
    assert undeclared == [], (
        f"trace categories recorded but not declared in "
        f"repro.sim.categories: {undeclared}")


def test_the_category_check_would_catch_an_undeclared_category():
    # Guard against the check going silently toothless: a category absent
    # from the registry is found, including when the literal wraps onto
    # its own line.
    source = ('class M:\n'
              '    def go(self, update):\n'
              '        self.sim.trace.record(\n'
              '            "no_such_category_ever", seq=update.seq)\n')
    assert list(literal_categories(source)) == [
        (4, "no_such_category_ever")]
    assert "no_such_category_ever" not in categories.ALL_CATEGORIES


def test_constants_match_their_values():
    # Convention: FOO_BAR = "foo_bar" — a constant whose value drifts from
    # its name is a refactoring accident.
    for name in dir(categories):
        if name.isupper() and name != "ALL_CATEGORIES":
            assert getattr(categories, name) == name.lower()


def test_all_categories_is_complete():
    declared = {getattr(categories, name) for name in dir(categories)
                if name.isupper() and name != "ALL_CATEGORIES"}
    assert categories.ALL_CATEGORIES == frozenset(declared)
