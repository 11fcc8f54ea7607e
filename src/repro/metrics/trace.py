"""Client-side request records and tail-latency bookkeeping.

Every client request ends up as one :class:`RequestRecord` in a
:class:`RequestLog` — including requests that failed after exhausting
TCP retransmissions.  The log provides the analyses the paper's figures
are built from: response-time histograms (Fig 1), windowed VLRT counts
(Fig 3c/5c/7c/8c/9c), throughput, percentiles and drop attribution.

Streaming mode
--------------
``RequestLog(streaming=True)`` folds each record into O(1)-memory
:class:`~repro.metrics.sketch.StreamingStats` and retains the exact
:class:`RequestRecord` **only** for requests that are slow
(``response_time > retain_threshold``, default 1 s), dropped, shed, or
failed.  Because every VLRT/dropped/shed record is retained, the tail
analyses — ``vlrt``, ``vlrt_time_series``, ``dropped_requests``,
``shed_requests``, ``drop_sites``, ``shed_sites``, ``modes``,
``cluster_counts`` and CTQO attribution — stay **exact**; only the bulk
percentiles come from the sketch, with its documented error bound (see
``docs/SCALE.md``).  Bulk aggregates that would need every record
(``records`` iteration via ``completed`` / ``response_times``) raise.

Warm-up discard works differently in the two modes: the exact path
filters post-hoc with :meth:`RequestLog.after`; a streaming log must be
told the cutoff *up front* with :meth:`RequestLog.set_warmup`, after
which ``after(warmup)`` degenerates to the identity.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .sketch import StreamingStats
from .timeseries import TimeSeries

__all__ = ["RequestLog", "RequestRecord", "VLRT_THRESHOLD",
           "faults_from_trace", "log_request"]

#: the paper's VLRT threshold: one TCP retransmission interval.
VLRT_THRESHOLD = 3.0


def faults_from_trace(trace):
    """Collect the (time, listener) drop and shed entries of a root
    request's ``trace`` — one walk for both fault kinds, as the
    :class:`RequestRecord` of that request carries them."""
    drops = []
    sheds = []
    for time, event, detail in trace:
        if event == "drop":
            drops.append((time, detail))
        elif event == "shed":
            sheds.append((time, detail))
    return drops, sheds


def log_request(log, request, kind, end, attempts, failed, error,
                sampler=None):
    """Record the outcome of the root ``request`` in ``log`` — the one
    record-and-keep rule of every client workload.

    The :class:`RequestRecord` carries the request's drops and sheds.
    Without a ``sampler`` it keeps the request's trace exactly when the
    request failed or took longer than :data:`VLRT_THRESHOLD` (the ones
    worth a micro-level post-mortem), drawing no random number; with a
    :class:`~repro.workload.sampling.TraceSampler` the sampler decides.
    """
    trace = request.trace
    drops, sheds = faults_from_trace(trace)
    start = request.created_at
    record = RequestRecord(request.id, kind, start=start, end=end,
                           attempts=attempts, drops=drops, sheds=sheds,
                           failed=failed, error=error)
    if sampler is not None:
        sampler.observe(record, trace)
    elif failed or end - start > VLRT_THRESHOLD:
        record.trace = trace
    log.add(record)


class RequestRecord:
    """Outcome of one client request."""

    __slots__ = (
        "request_id",
        "kind",
        "start",
        "end",
        "attempts",
        "drops",
        "sheds",
        "failed",
        "error",
        "trace",
    )

    def __init__(self, request_id, kind, start, end, attempts=1, drops=(),
                 sheds=(), failed=False, error=None, trace=None):
        self.request_id = request_id
        self.kind = kind
        self.start = start
        self.end = end
        self.attempts = attempts
        #: (time, listener_name) per dropped packet anywhere in the tree.
        self.drops = list(drops)
        #: (time, listener_name) per packet refused with a 503 by a
        #: load-shedding admission anywhere in the tree.
        self.sheds = list(sheds)
        self.failed = failed
        self.error = error
        #: full event trace, kept only for a failed or VLRT request, or
        #: when the workload generator's ``sampler`` admits it (see
        #: repro.metrics.spans).
        self.trace = trace

    @property
    def response_time(self):
        return self.end - self.start

    @property
    def was_dropped(self):
        return bool(self.drops)

    @property
    def was_shed(self):
        return bool(self.sheds)

    @property
    def first_drop_time(self):
        return self.drops[0][0] if self.drops else None

    def __repr__(self):
        flag = "FAILED" if self.failed else f"{self.response_time * 1000:.1f}ms"
        return f"<RequestRecord #{self.request_id} {self.kind} {flag}>"


class RequestLog:
    """All request outcomes of a run, with figure-ready analyses.

    With ``streaming=True`` the log keeps O(1) aggregate state plus the
    exact records of slow/dropped/shed/failed requests only (see the
    module docstring).  ``retain_threshold`` must stay at or below 1 s:
    the exactness of ``vlrt`` (3 s threshold) and of the mode counters
    (folded records must belong to mode 0 of the 3 s spacing) is proved
    from ``retain_threshold < spacing / 2``.
    """

    def __init__(self, streaming=False, retain_threshold=1.0):
        if streaming and not 0.0 < retain_threshold <= 1.0:
            raise ValueError(
                f"retain_threshold must be in (0, 1] s, "
                f"got {retain_threshold}"
            )
        self.records = []
        self.streaming = bool(streaming)
        self.retain_threshold = float(retain_threshold)
        #: per-run aggregate state; ``None`` on exact logs
        self.stats = StreamingStats() if streaming else None
        #: live-telemetry hook: called with each counted record right
        #: after it is folded/appended (``None`` = off; pre-warmup
        #: records a streaming log discards are not observed either)
        self.observer = None
        self._warmup = 0.0

    def add(self, record):
        if not self.streaming:
            self.records.append(record)
            if self.observer is not None:
                self.observer(record)
            return
        if record.start < self._warmup:
            return  # pre-warmup transient: never counted, never kept
        self.stats.fold(record)
        if (record.failed or record.drops or record.sheds
                or record.response_time > self.retain_threshold):
            self.records.append(record)
        if self.observer is not None:
            self.observer(record)

    def __len__(self):
        return self.stats.requests if self.streaming else len(self.records)

    def _exact_only(self, what):
        raise RuntimeError(
            f"RequestLog.{what} needs exact per-request records, which a "
            f"streaming log folds away; use summary()/stats or run "
            f"without streaming"
        )

    def set_warmup(self, start_time):
        """Declare the warm-up cutoff of a streaming log **before** the
        run: requests issued before ``start_time`` are discarded at
        ``add`` time, making the subsequent ``after(start_time)`` the
        identity."""
        if not self.streaming:
            raise RuntimeError(
                "set_warmup applies to streaming logs only; exact logs "
                "filter post-hoc with after()"
            )
        if self.stats.requests or self.records:
            raise RuntimeError(
                "set_warmup must be called before any request is recorded"
            )
        self._warmup = float(start_time)
        return self

    def after(self, start_time):
        """New log with only the requests issued at/after ``start_time``
        (used to discard warm-up transients).

        On a streaming log the records are already folded, so only the
        cutoff declared via :meth:`set_warmup` is available — ``after``
        returns ``self`` for that value and raises for any other.
        """
        if self.streaming:
            if start_time != self._warmup:
                raise RuntimeError(
                    f"streaming log discarded its warm-up at "
                    f"t={self._warmup}; cannot re-filter at "
                    f"t={start_time} — call set_warmup() before the run"
                )
            return self
        out = RequestLog()
        out.records = [r for r in self.records if r.start >= start_time]
        return out

    # ------------------------------------------------------------------
    # basic aggregates
    # ------------------------------------------------------------------
    @property
    def completed(self):
        if self.streaming:
            self._exact_only("completed")
        return [r for r in self.records if not r.failed]

    @property
    def failures(self):
        # exact in both modes: failed records are always retained
        return [r for r in self.records if r.failed]

    def response_times(self, include_failures=False):
        """Response times in seconds (failures excluded by default)."""
        if self.streaming:
            self._exact_only("response_times")
        return [
            r.response_time
            for r in self.records
            if include_failures or not r.failed
        ]

    def throughput(self, duration):
        """Completed requests per second over ``duration``."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        completed = (self.stats.completed if self.streaming
                     else len(self.completed))
        return completed / duration

    def percentile(self, q):
        """q-th percentile (0-100) of completed response times.

        Exact mode delegates to :func:`repro.core.tail.percentiles` —
        the two percentile implementations used to be separate
        near-duplicates that could drift apart on interpolation
        semantics; now there is exactly one.  A streaming log answers
        from its sketch (nearest-rank, within the sketch's documented
        relative-error bound).
        """
        if self.streaming:
            return self.stats.sketch_ok.quantile(q)
        # lazy import: repro.core's package __init__ pulls in the
        # evaluation harness, which (via the topology builders) imports
        # this module — a top-level import would be circular
        from ..core.tail import percentiles

        return percentiles(self.response_times(), qs=(q,))[q]

    # ------------------------------------------------------------------
    # tail analyses
    # ------------------------------------------------------------------
    def vlrt(self, threshold=VLRT_THRESHOLD):
        """Requests slower than ``threshold`` (failures count too —
        a request dropped four times is the longest tail there is).

        Exact in streaming mode too, because every record slower than
        ``retain_threshold`` is retained — provided ``threshold`` is
        not below ``retain_threshold``.
        """
        if self.streaming and threshold < self.retain_threshold:
            raise ValueError(
                f"streaming log retains exact records only above "
                f"{self.retain_threshold} s; cannot compute vlrt at "
                f"threshold {threshold}"
            )
        return [
            r
            for r in self.records
            if r.response_time > threshold or r.failed
        ]

    def vlrt_fraction(self, threshold=VLRT_THRESHOLD):
        if not len(self):
            return 0.0
        return len(self.vlrt(threshold)) / len(self)

    def vlrt_time_series(self, until, window=0.05, threshold=VLRT_THRESHOLD):
        """VLRT count per time window — Fig 3(c) and friends.

        Each VLRT request is bucketed at the moment its first packet was
        dropped (that is when the millibottleneck bit it); VLRT requests
        without a drop record fall back to their start time.
        """
        edges = np.arange(0.0, until + window, window)
        counts = np.zeros(len(edges), dtype=int)
        for record in self.vlrt(threshold):
            when = record.first_drop_time
            if when is None:
                when = record.start
            index = int(when / window)
            if 0 <= index < len(counts):
                counts[index] += 1
        series = TimeSeries("vlrt")
        for edge, count in zip(edges, counts):
            series.append(float(edge), int(count))
        return series

    def histogram(self, bin_width=0.1, max_time=10.0, include_failures=True):
        """(bin_edges, counts) of response times — Fig 1's semi-log data.

        Failed requests (all retransmissions dropped) are binned at
        their total elapsed time, like the timeout the user would see.
        A streaming log re-bins its sketch buckets (each bucket lands
        in the linear bin of its estimate, which is within the sketch's
        relative-error bound of every member value).
        """
        edges = np.arange(0.0, max_time + bin_width, bin_width)
        if self.streaming:
            sketch = (self.stats.sketch_all if include_failures
                      else self.stats.sketch_ok)
            counts = np.zeros(len(edges) - 1, dtype=np.int64)
            for value, count in sketch.histogram_points():
                index = min(int(min(value, max_time) / bin_width),
                            len(counts) - 1)
                counts[index] += count
            return edges[:-1], counts
        times = self.response_times(include_failures=include_failures)
        counts, _ = np.histogram(np.clip(times, 0.0, max_time), bins=edges)
        return edges[:-1], counts

    def semilog_histogram(self, bin_width=0.1, max_time=10.0,
                          include_failures=True):
        """Fig 1's presentation rows: ``(bin_start_seconds, count)``.

        Works in both modes (see :meth:`histogram`); the exact path is
        bin-identical to :func:`repro.core.tail.semilog_histogram`.
        """
        edges, counts = self.histogram(bin_width, max_time,
                                       include_failures=include_failures)
        return list(zip(edges.tolist(), [int(c) for c in counts]))

    def _mode_counts(self, rts, spacing, tolerance, max_mode):
        out = {k: 0 for k in range(max_mode + 1)}
        for rt in rts:
            mode = int(round(rt / spacing))
            mode = min(max(mode, 0), max_mode)
            if abs(rt - mode * spacing) <= tolerance or mode == max_mode:
                out[mode] += 1
            else:
                out[0] += 1  # off-mode but fast-ish: count as bulk
        return out

    def _folded_bulk(self, spacing):
        """How many folded streaming records belong to mode 0 — all of
        them, by the retention contract ``retain_threshold < spacing/2``."""
        if self.retain_threshold >= spacing / 2:
            raise ValueError(
                f"mode counts need retain_threshold < spacing/2 "
                f"({self.retain_threshold} >= {spacing / 2}): folded "
                f"records could leave mode 0"
            )
        return self.stats.requests - len(self.records)

    def modes(self, spacing=3.0, tolerance=0.5, max_mode=3):
        """Count requests near each retransmission mode.

        Returns ``{0: n_fast, 1: n_near_3s, 2: n_near_6s, ...}`` —
        the multi-modal signature of Fig 1 (peaks at 0/3/6/9 s).
        Exact in streaming mode: every folded record is below
        ``retain_threshold`` (< spacing/2) and therefore mode 0.
        """
        if self.streaming:
            folded = self._folded_bulk(spacing)
            out = self._mode_counts(
                (r.response_time for r in self.records),
                spacing, tolerance, max_mode,
            )
            out[0] += folded
            return out
        return self._mode_counts(self.response_times(include_failures=True),
                                 spacing, tolerance, max_mode)

    def cluster_counts(self, spacing=3.0, tolerance=0.5):
        """:func:`repro.core.tail.multimodal_clusters` over this log
        (failures included), exact in both modes — streaming adds the
        folded sub-``retain_threshold`` records to cluster 0."""
        from ..core.tail import multimodal_clusters

        if self.streaming:
            folded = self._folded_bulk(spacing)
            clusters = multimodal_clusters(
                [r.response_time for r in self.records], spacing, tolerance
            )
            clusters[0] += folded
            return clusters
        return multimodal_clusters(
            self.response_times(include_failures=True), spacing, tolerance
        )

    def drop_sites(self):
        """Counter of listener names where this log's packets dropped."""
        sites = Counter()
        for record in self.records:
            for _time, name in record.drops:
                sites[name] += 1
        return sites

    def dropped_requests(self):
        return [r for r in self.records if r.was_dropped]

    def shed_sites(self):
        """Counter of listener names that 503'd this log's packets."""
        sites = Counter()
        for record in self.records:
            for _time, name in record.sheds:
                sites[name] += 1
        return sites

    def shed_requests(self):
        return [r for r in self.records if r.was_shed]

    def summary(self, duration):
        """One-dict digest used by experiment reports.

        ``duration`` is validated even for an empty log — a bad window
        is a caller bug regardless of whether any requests finished.
        Latency fields describe *completed* requests; with none (empty
        log, or every request failed) they are all 0.0 while the
        request/failure counters still tell the real story.  Streaming
        logs answer the percentile fields from the sketch (nearest
        rank, documented error bound); every other field is exact.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if self.streaming:
            sketch = self.stats.sketch_ok
            counts = {
                "requests": self.stats.requests,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "throughput_rps": self.stats.completed / duration,
                "mean_ms": 1000.0 * sketch.mean,
                "p50_ms": 1000.0 * sketch.quantile(50),
                "p99_ms": 1000.0 * sketch.quantile(99),
                "p999_ms": 1000.0 * sketch.quantile(99.9),
                "max_ms": 1000.0 * sketch.max,
            }
        else:
            times = self.response_times()
            counts = {
                "requests": len(self.records),
                "completed": len(self.completed),
                "failed": len(self.failures),
                "throughput_rps": self.throughput(duration),
                "mean_ms": 1000.0 * float(np.mean(times)) if times else 0.0,
                "p50_ms": 1000.0 * self.percentile(50),
                "p99_ms": 1000.0 * self.percentile(99),
                "p999_ms": 1000.0 * self.percentile(99.9),
                "max_ms": 1000.0 * max(times) if times else 0.0,
            }
        counts.update({
            "vlrt": len(self.vlrt()),
            "vlrt_fraction": self.vlrt_fraction(),
            "dropped_requests": len(self.dropped_requests()),
            "drop_sites": dict(self.drop_sites()),
        })
        return counts
