"""Working-set guards: the most memory each stage of an unmixing run holds
at once, beyond its inputs, at the benchmark's `wide` scene shape, in
bands x pixels float64 arrays (tracemalloc; see conftest)."""

import os

import pytest

from conftest import memory_guard_calls, traced_peak_arrays

# gen_dataset holds the noisy pixels and PixelMatrix's copy of them (2.15
# measured); init_all and fit hold less than two whole arrays (1.43, and
# 1.61 on one core); fit's two block threads hold their temporaries at
# the same time, by as much as their timing overlaps (2.25 to 2.56 over 40
# runs, in steps of one 30 x 1 000 block array)
MAX_ARRAYS = {"gen_dataset": 2.5, "init_all": 2.0, "fit": 2.0, "fit on two threads": 2.75}


@pytest.mark.parametrize("name", sorted(MAX_ARRAYS))
def test_peak_working_set(name, monkeypatch):
    shape, calls = memory_guard_calls()
    # one usable core: fit's pixel blocks run one after another ("fit on two
    # threads" patches two cores inside its call)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert traced_peak_arrays(calls[name], shape) <= MAX_ARRAYS[name]
