"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """Run ``fn()`` with tracemalloc on; return its value and the peak
    number of bytes traced while it ran."""
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
