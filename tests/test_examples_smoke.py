"""Smoke test of the examples that drive the analysis API (slow).

``examples/quickstart.py``, ``vm_consolidation.py``,
``log_flush_tail.py`` and ``diagnose_and_fix.py`` print what
``RunResult.ctqo_events()``, ``millibottlenecks()`` and ``diagnose()``
report.  Each example's ``main()`` must finish and print exactly the
CTQO, millibottleneck and RECOMMEND lines recorded in
``tests/data/golden_examples.json``.  Regenerate the file (only when a
behaviour change is intended) with::

    PYTHONPATH=src python tests/test_examples_smoke.py
"""

import contextlib
import importlib.util
import io
import json
import os
import re

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLES_DIR = os.path.join(os.path.dirname(HERE), "examples")
GOLDEN_PATH = os.path.join(HERE, "data", "golden_examples.json")

EXAMPLES = ["quickstart", "vm_consolidation", "log_flush_tail",
            "diagnose_and_fix"]

#: the printed lines that come from the analysis API
ANALYSIS_LINE = re.compile(r"CTQO|millibottleneck|RECOMMEND")


def analysis_lines(name):
    """Run ``examples/<name>.py``'s ``main()``; its analysis lines."""
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", os.path.join(EXAMPLES_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        module.main()
    return [line for line in stdout.getvalue().splitlines()
            if ANALYSIS_LINE.search(line)]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_holds_exactly_the_examples(golden):
    assert set(golden) == set(EXAMPLES)


@pytest.mark.slow
@pytest.mark.parametrize("name", EXAMPLES)
def test_example_prints_its_analysis(golden, name):
    assert analysis_lines(name) == golden[name]


if __name__ == "__main__":
    records = {name: analysis_lines(name) for name in EXAMPLES}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
