"""The simulator's module-to-layer map and per-layer profile attribution.

Every module under ``src/repro`` belongs to exactly one layer.  A
pattern is either a module name, which matches that module only, or
``package.*``, which matches the package and everything under it.
Frames outside ``repro`` (the standard library, numpy, this benchmark)
belong to the ``stdlib`` layer.

:func:`attribute` folds a cProfile table into per-layer self time and
cross-layer call counts.  C builtins (``heappush``, ``generator.send``,
``len``) have no module of their own, so their self time is charged to
the layer of the Python frame that called them.
"""

from __future__ import annotations

import os

LAYERS = {
    "sim.kernel": ("repro.sim", "repro.sim.kernel", "repro.sim.tracing"),
    "sim.process": ("repro.sim.process",),
    "sim.events": ("repro.sim.events", "repro.sim.errors"),
    "sim.resources": ("repro.sim.resources",),
    "cpu": ("repro.cpu.*",),
    "net": ("repro.net.*",),
    "apps": ("repro.apps.*",),
    # the thread (RPC) driver
    "servers.base": ("repro.servers.base", "repro.servers.sync_server"),
    # the event-loop driver and the admission policies
    "servers.policies": ("repro.servers.policies",
                         "repro.servers.async_server"),
    "servers.gather": ("repro.servers.gather",),
    "servers.runtime": ("repro.servers", "repro.servers.runtime",
                        "repro.servers.replica", "repro.servers.cache",
                        "repro.servers.storage"),
    "workload": ("repro.workload.*",),
    "metrics": ("repro.metrics.*", "repro.sim.instrument"),
    "topology": ("repro.topology.*",),
    "core": ("repro.core.*", "repro.units"),
    "injectors": ("repro.injectors.*",),
    # experiment drivers and command-line entry points
    "entry": ("repro", "repro.__main__", "repro.cli", "repro.bench",
              "repro.profile", "repro.experiments.*", "repro.live.*"),
}

STDLIB = "stdlib"

#: every layer a profile is folded into, in report order
ALL_LAYERS = tuple(LAYERS) + (STDLIB,)


def _matches(pattern, module):
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


def layers_of(module):
    """Every layer with a pattern matching ``module`` (one, when the
    map is sound)."""
    return [layer for layer, patterns in LAYERS.items()
            if any(_matches(p, module) for p in patterns)]


def module_name(path, src):
    """Dotted module name of the source file ``path`` under ``src``, or
    ``None`` when the file is not part of the ``repro`` package."""
    rel = os.path.relpath(os.path.realpath(path), os.path.realpath(src))
    if not rel.endswith(".py") or rel.startswith(".."):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src):
    """Every module under ``src/repro``, sorted."""
    found = []
    for directory, _dirs, files in os.walk(os.path.join(src, "repro")):
        for name in files:
            if name.endswith(".py"):
                found.append(module_name(os.path.join(directory, name), src))
    return sorted(found)


def mapping_problems(src):
    """Modules mapped to no layer or to several, and patterns that match
    no module; empty when the map is sound."""
    modules = repro_modules(src)
    problems = []
    for module in modules:
        layers = layers_of(module)
        if len(layers) != 1:
            problems.append(f"{module} maps to {len(layers)} layers "
                            f"{sorted(layers)}")
    for layer, patterns in LAYERS.items():
        for pattern in patterns:
            if not any(_matches(pattern, m) for m in modules):
                problems.append(f"{layer} pattern {pattern!r} matches "
                                "no module")
    return problems


def attribute(stats, src):
    """Fold a ``pstats.Stats(...).stats`` table into per-layer figures.

    Returns ``{layer: {"self_s": seconds, "calls": n}}`` for every layer
    of :data:`ALL_LAYERS`.  ``calls`` counts calls into the layer's
    Python functions from a function of another layer or from a C
    builtin.
    """
    cache = {}

    def layer_of(filename):
        # the parent checked mapping_problems(), so each module has one
        if filename not in cache:
            module = module_name(filename, src)
            cache[filename] = STDLIB if module is None else layers_of(module)[0]
        return cache[filename]

    out = {layer: {"self_s": 0.0, "calls": 0} for layer in ALL_LAYERS}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in \
            stats.items():
        if filename == "~":
            # a C builtin: charge each caller's share to the caller's layer
            charged = 0.0
            for (caller_file, _l, _n), entry in callers.items():
                caller = STDLIB if caller_file == "~" else layer_of(caller_file)
                out[caller]["self_s"] += entry[2]
                charged += entry[2]
            out[STDLIB]["self_s"] += max(0.0, tt - charged)
            continue
        layer = layer_of(filename)
        out[layer]["self_s"] += tt
        for (caller_file, _l, _n), entry in callers.items():
            if caller_file == "~" or layer_of(caller_file) != layer:
                out[layer]["calls"] += entry[0]
    return out


def calls_to(stats, functions):
    """Total calls of the given Python functions in a pstats table."""
    keys = {(f.__code__.co_filename, f.__code__.co_firstlineno,
             f.__code__.co_name) for f in functions}
    return sum(entry[1] for key, entry in stats.items() if key in keys)
