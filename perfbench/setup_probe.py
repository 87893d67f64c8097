"""One benchmark set-up in a fresh process: import mssmf, build the scene.

Run by ``run.py`` with the pinned environment; prints the monotonic clock
once the scene is in memory, so the parent can time process start to
scene.  Usage: ``setup_probe.py <workload> <seed>``.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mssmf  # noqa: E402
from workloads import WORKLOADS, make_scene  # noqa: E402

if __name__ == "__main__":
    make_scene(mssmf, WORKLOADS[sys.argv[1]], int(sys.argv[2]), 0)
    print(repr(time.monotonic()))
