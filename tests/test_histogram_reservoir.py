"""``LatencyHistogram``'s lazily sorted reservoir against the always-sorted one.

``_InsortHistogram`` below is a frozen copy of the histogram as it was
when every ``record`` did an ``insort``.  The current histogram appends
and sorts only when the order is read; these tests feed both the same
seeded stream — per-event records, interleaved bulk records and quantile
reads, reservoirs small enough to halve many times — and require the
same samples, quantiles and ``count``/``total``/``max`` at every read.
"""

import random
from bisect import insort

import pytest

from repro.common import LatencyHistogram, percentile


class _InsortHistogram:
    """The always-sorted reservoir (``insort`` on every record), frozen."""

    def __init__(self, max_samples: int) -> None:
        self.max_samples = max_samples
        self._sorted = []
        self.count = 0
        self.total = 0.0
        self._stride = 1
        self._phase = 0
        self._max = float("-inf")

    def record(self, value):
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value
        self._phase += 1
        if self._phase < self._stride:
            return
        self._phase = 0
        insort(self._sorted, value)
        if len(self._sorted) > self.max_samples:
            self._sorted = self._sorted[::2]
            self._stride *= 2

    def record_bulk(self, sorted_values, count, shift=0.0):
        if count <= 0 or not sorted_values:
            return
        self.count += count
        mean = sum(sorted_values) / len(sorted_values) + shift
        self.total += mean * count
        top = sorted_values[-1] + shift
        if top > self._max:
            self._max = top
        while (self.count // self._stride) > self.max_samples:
            self._sorted = self._sorted[::2]
            self._stride *= 2
        inserts, self._phase = divmod(self._phase + count, self._stride)
        while inserts > 512:
            self._sorted = self._sorted[::2]
            self._stride *= 2
            inserts, self._phase = divmod(self._phase + inserts * (self._stride // 2), self._stride)
        for i in range(inserts):
            insort(self._sorted, percentile(sorted_values, (i + 0.5) / inserts) + shift)
            if len(self._sorted) > self.max_samples:
                self._sorted = self._sorted[::2]
                self._stride *= 2

    def quantile(self, fraction):
        return percentile(self._sorted, fraction)

    @property
    def max(self):
        return self._max


def _assert_same(old, new):
    assert new.count == old.count
    assert new.total == old.total
    assert new.max == old.max
    for fraction in (0.50, 0.95, 0.99):
        assert new.quantile(fraction) == old.quantile(fraction)


@pytest.mark.parametrize("max_samples", [200_000, 1_000])
def test_lazy_reservoir_matches_insort_reservoir(max_samples):
    rng = random.Random(20231127)
    old = _InsortHistogram(max_samples)
    new = LatencyHistogram(max_samples=max_samples)
    reads = bulks = 0
    for i in range(1_000_000):
        value = rng.lognormvariate(-6.0, 0.8)
        old.record(value)
        new.record(value)
        roll = rng.random()
        if roll < 1e-4:
            # A fluid span: a small calibration sample folded in bulk.
            # Spans stay small for the first 80% of the stream, so the
            # 200k reservoir fills and halves through ``record``; after
            # that they are big enough to grow the stride up front and
            # to hit the 512-insert cap.
            calibration = sorted(rng.lognormvariate(-6.0, 0.8) for _ in range(16))
            if i < 800_000:
                count = rng.choice((1, 37, 300))
            else:
                count = rng.choice((5_000, 3_000_000))
            shift = rng.uniform(0.0, 1e-3)
            old.record_bulk(calibration, count, shift)
            new.record_bulk(calibration, count, shift)
            bulks += 1
        elif roll < 3e-4:
            _assert_same(old, new)
            reads += 1
    assert sorted(new._samples) == old._sorted
    _assert_same(old, new)
    # The stream must actually exercise what the equality rests on.
    assert bulks > 50 and reads > 100
    assert new._stride >= 4
