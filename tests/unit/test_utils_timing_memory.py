"""Coverage sweep: MemoryMeter accumulation semantics."""

from __future__ import annotations

import pytest

from repro.utils.memory import MemoryBudgetExceeded, MemoryMeter


class TestMemoryMeter:
    def test_accumulation_and_peak(self):
        meter = MemoryMeter()
        meter.allocate(100)
        meter.allocate(50)
        assert meter.current == 150
        assert meter.peak == 150
        meter.release(120)
        assert meter.current == 30
        assert meter.peak == 150  # peak is sticky
        meter.allocate(10)
        assert meter.peak == 150

    def test_release_never_goes_negative(self):
        meter = MemoryMeter()
        meter.allocate(10)
        meter.release(100)
        assert meter.current == 0

    def test_cap_raises_and_reports_sizes(self):
        meter = MemoryMeter(cap_bytes=100)
        meter.allocate(80)
        with pytest.raises(MemoryBudgetExceeded):
            meter.allocate(30)
