"""Measurement: 50 ms samplers, request logs, time series, episode
detection, CTQO attribution and trace exporters."""

from .attribution import (
    AttributionReport,
    CausalChain,
    CtqoAttributor,
    CtqoEvent,
    TierDag,
)
from .detector import (
    Episode,
    cache_miss_episodes,
    describe_millibottleneck,
    detect_millibottlenecks,
    overflow_episodes,
    saturation_episodes,
)
from .export import (
    chrome_trace_to_json,
    events_to_jsonl,
    request_log_to_csv,
    run_summary_to_json,
    timeseries_to_csv,
)
from .monitor import SystemMonitor
from .sketch import LatencySketch, StreamingStats
from .spans import Span, narrate, retransmission_gaps, server_spans
from .timeseries import TimeSeries
from .trace import VLRT_THRESHOLD, RequestLog, RequestRecord

__all__ = [
    "AttributionReport",
    "CausalChain",
    "CtqoAttributor",
    "CtqoEvent",
    "Episode",
    "LatencySketch",
    "RequestLog",
    "RequestRecord",
    "Span",
    "StreamingStats",
    "SystemMonitor",
    "TierDag",
    "TimeSeries",
    "VLRT_THRESHOLD",
    "cache_miss_episodes",
    "chrome_trace_to_json",
    "describe_millibottleneck",
    "detect_millibottlenecks",
    "events_to_jsonl",
    "narrate",
    "overflow_episodes",
    "request_log_to_csv",
    "retransmission_gaps",
    "run_summary_to_json",
    "saturation_episodes",
    "server_spans",
    "timeseries_to_csv",
]
