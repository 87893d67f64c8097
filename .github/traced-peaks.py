#!/usr/bin/env python3
"""The working-set figures that tests/test_memory.py bounds: the traced peak
of gen_dataset, init_all and fit (one usable core) on the benchmark's `wide`
scene shape, in bands x pixels float64 arrays, one line each.  Usage, from
the root of a checkout::

    PYTHONPATH=src python3 .github/traced-peaks.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))
from conftest import memory_guard_calls, traced_peak_arrays  # noqa: E402

if hasattr(os, "sched_setaffinity"):
    # one usable core, as in the test: fit's pixel blocks run one at a time
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
shape, calls = memory_guard_calls()
for name, call in calls.items():
    print(f"traced peak, {name}: {traced_peak_arrays(call, shape):.2f} arrays of {shape[0]}x{shape[1]}")
