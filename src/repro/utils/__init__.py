"""Shared utilities: seeding, memory accounting, validation."""

from repro.utils.rng import default_rng
from repro.utils.memory import MemoryMeter, approx_nbytes
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
)

__all__ = [
    "default_rng",
    "MemoryMeter",
    "approx_nbytes",
    "check_positive",
    "check_non_negative",
    "check_in_range",
]
