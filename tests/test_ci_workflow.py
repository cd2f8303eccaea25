"""CI runs the tier-1 suite and nothing that checks the program outside it.

Every check of the program is a test, so it runs wherever ``pytest`` runs.
The workflow keeps only the steps that cannot be tests: installing the
package, running the suite and summarising the ``src/`` line count. The
benchmark harness's self-test is a test too (``test_perfbench_smoke.py``).
The file is read as text, since PyYAML is not a test dependency.
"""

import pathlib
import re

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_the_workflow_names_only_install_tests_line_count_and_self_test():
    names = re.findall(r"^\s*- name: (.*)$", WORKFLOW.read_text(), re.MULTILINE)
    assert names == [
        "Install",
        "Tier-1 tests",
        "Source line count (the src/ size ROADMAP tracks)",
    ]
