"""Self-tests of the benchmark's own tables.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

import json
import os

from layers import ALL_LAYERS, LAYERS, layers_of, mapping_problems, repro_modules
from run import END_TO_END, ROOT, SRC, per_layer_metrics
from workloads import WORKLOADS


def test_every_module_maps_to_exactly_one_layer():
    assert repro_modules(SRC), "no repro modules found"
    assert mapping_problems(SRC) == []


def test_package_pattern_covers_package_and_subtree():
    assert layers_of("repro.cpu") == ["cpu"]
    assert layers_of("repro.cpu.host") == ["cpu"]
    assert layers_of("repro.sim.kernel") == ["sim.kernel"]
    assert layers_of("repro.sim.instrument") == ["metrics"]
    assert layers_of("numpy") == []


def test_stdlib_is_the_only_layer_outside_the_map():
    assert set(ALL_LAYERS) - set(LAYERS) == {"stdlib"}


def test_benchmark_json_matches_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        per_layer_metrics()
