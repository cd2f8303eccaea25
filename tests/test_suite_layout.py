"""Shared test plumbing has one home: ``helpers.py``.

Only ``helpers.py`` builds a child interpreter's environment, so a variable
that must not reach a child (``conftest.py`` removes those for the whole run)
is handled in one place. No test module imports another, so a shared name
lives in ``helpers.py`` or ``conftest.py`` and not in some module's tests.
Each module is read as text; this one is left out, as it names the patterns.
"""

import pathlib
import re

HERE = pathlib.Path(__file__).resolve()
MODULES = sorted(path for path in HERE.parent.glob("*.py") if path != HERE)
BUILDS_AN_ENV = re.compile(r"PYTHONPATH|os\.environ\.(items|copy)\("
                           r"|dict\(os\.environ\)|\*\*os\.environ")
IMPORTS_A_TEST = re.compile(r"^\s*(from|import)\s+test_\w+", re.MULTILINE)


def _matching(pattern, modules):
    return [path.name for path in modules if pattern.search(path.read_text())]


def test_only_helpers_builds_a_child_environment():
    assert _matching(BUILDS_AN_ENV, [p for p in MODULES if p.name != "helpers.py"]) == []


def test_no_module_imports_a_test_module():
    assert _matching(IMPORTS_A_TEST, MODULES) == []
