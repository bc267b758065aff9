import tracemalloc

import pytest


@pytest.fixture
def peak_arrays():
    """peak_arrays(fn, shape): tracemalloc peak of a warm fn(), in float64 arrays of `shape`."""

    def measure(fn, shape):
        fn()  # builds the caches (window matrices, tap phases, bin maps) before the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = 8
        for d in shape:
            n *= d
        return (peak - base) / n

    return measure
