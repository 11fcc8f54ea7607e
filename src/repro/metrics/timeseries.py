"""A minimal append-only time series used by all samplers."""

from __future__ import annotations

import numpy as np

__all__ = ["TimeSeries"]


class TimeSeries:
    """Sampled (time, value) pairs with a few analysis helpers.

    Samples must be appended in non-decreasing time order (samplers do).
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name="series"):
        self.name = name
        self.times = []
        self.values = []

    def append(self, time, value):
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"{self.name}: time {time} < last sample {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def as_arrays(self):
        """(times, values) as numpy arrays."""
        return np.asarray(self.times), np.asarray(self.values)

    def max(self):
        return max(self.values) if self.values else 0.0

    def min(self):
        return min(self.values) if self.values else 0.0

    def mean(self):
        return float(np.mean(self.values)) if self.values else 0.0

    def value_at(self, time):
        """Last sampled value at or before ``time`` (stairstep read)."""
        if not self.times:
            return None
        index = int(np.searchsorted(self.times, time, side="right")) - 1
        if index < 0:
            return None
        return self.values[index]

    def slice(self, start, end):
        """New TimeSeries restricted to ``start <= t < end``."""
        out = TimeSeries(self.name)
        for time, value in zip(self.times, self.values):
            if start <= time < end:
                out.append(time, value)
        return out

    def __repr__(self):
        return f"<TimeSeries {self.name} n={len(self)} max={self.max():.3f}>"
