"""``repro diagnose`` output pinned against records from a fixed revision.

The diagnosis report (millibottlenecks, CTQO events, recommendations)
and the per-request attribution section are the analysis layer's user
surface, and ``run_summary_to_json`` exports its ``millibottlenecks``
and ``ctqo_events`` fields.  ``tests/data/golden_diagnose.json`` holds
both for a set of cells, so a refactor of the detectors or the CTQO
engine must reproduce them byte for byte.  None of the cells sheds
(503) requests.

Each cell runs in a fresh interpreter, exactly as from the shell:
request ids come from a process-wide counter, so in-process runs would
print ids that depend on what ran before them.

Regenerate the file (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_diagnose_golden.py
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

import repro

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_diagnose.json"
)

#: cell id -> ``repro diagnose`` arguments; a few seconds of wall each
FAST_CELLS = {
    "fig03": ["fig03", "--duration", "20"],
    "fanout": ["fanout", "--duration", "8", "--workload", "2000"],
    "policy_matrix_db_stall": ["policy_matrix", "--variant", "db_stall",
                               "--duration", "12", "--workload", "3000"],
}

SLOW_CELLS = {
    "fig01": ["fig01", "--duration", "20"],
    "fig05": ["fig05", "--duration", "20"],
    "fig07": ["fig07", "--duration", "20"],
    "fig09": ["fig09", "--duration", "20"],
    "scaleout": ["scaleout", "--duration", "20"],
    "cache_storage": ["cache_storage", "--duration", "16"],
}

#: the directory holding the ``repro`` package under test
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: the summary-JSON fields built by the analysis layer
SUMMARY_FIELDS = ("millibottlenecks", "ctqo_events")


def diagnose_cell(args):
    """The printed report (as lines) and the analysis fields of the
    exported summary for one ``repro diagnose`` invocation."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    with tempfile.TemporaryDirectory() as out_dir:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "diagnose", *args,
             "--out", out_dir, "--events", "1000"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(out_dir, f"{args[0]}_summary.json")) as fh:
            summary = json.load(fh)
    lines = proc.stdout.splitlines()
    # the last line names the (temporary) export directory
    assert lines[-1].startswith("[trace + ")
    return {
        "report": lines[:-1],
        "summary": {key: summary[key] for key in SUMMARY_FIELDS},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_holds_exactly_the_pinned_cells(golden):
    assert set(golden) == set(FAST_CELLS) | set(SLOW_CELLS)


@pytest.mark.parametrize("cell", sorted(FAST_CELLS))
def test_diagnose_cell_matches_golden(golden, cell):
    assert diagnose_cell(FAST_CELLS[cell]) == golden[cell]


@pytest.mark.slow
@pytest.mark.parametrize("cell", sorted(SLOW_CELLS))
def test_slow_diagnose_cell_matches_golden(golden, cell):
    assert diagnose_cell(SLOW_CELLS[cell]) == golden[cell]


if __name__ == "__main__":
    cells = dict(FAST_CELLS, **SLOW_CELLS)
    records = {cell: diagnose_cell(args) for cell, args in cells.items()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
