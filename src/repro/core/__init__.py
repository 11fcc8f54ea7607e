"""The paper's primary contribution as a library.

- the §V evaluation harness (the one run lifecycle ``simulate``,
  scenarios and NX sweeps), whose ``RunResult`` answers ``millibottlenecks()``, ``ctqo_events()`` and
  ``attribution()`` through the one detector and CTQO engine in
  :mod:`repro.metrics` (``detector`` and ``attribution``),
- the automated post-mortem (``diagnose``),
- multi-modal tail-latency statistics,
- the §III static/dynamic condition models and the steady-state
  queueing model.
"""

from .conditions import (
    StaticConditions,
    max_sys_q_depth,
    minimum_millibottleneck_duration,
    predicted_overflow,
)
from .diagnosis import Diagnosis, diagnose
from .evaluation import RunResult, Scenario, nx_sweep, simulate
from .queueing import SteadyStateModel, TierDemand, ps_response_time
from .tail import (
    is_multimodal,
    mode_times,
    multimodal_clusters,
    percentiles,
    semilog_histogram,
    tail_heaviness,
)

__all__ = [
    "Diagnosis",
    "diagnose",
    "RunResult",
    "Scenario",
    "StaticConditions",
    "SteadyStateModel",
    "TierDemand",
    "ps_response_time",
    "is_multimodal",
    "max_sys_q_depth",
    "minimum_millibottleneck_duration",
    "mode_times",
    "multimodal_clusters",
    "nx_sweep",
    "percentiles",
    "predicted_overflow",
    "semilog_histogram",
    "simulate",
    "tail_heaviness",
]
