"""Correct the untraced run's timings for the machine's speed at the moment.

On a shared VM, load from outside the process slows the cores by up to
1.6 times, in bursts of 0.1-1 s and in stretches of 5-30 s, with CPU time
equal to wall time (no steal), so neither repeats nor CPU time filter it
out.  A fixed reference kernel, the probe, slows with the program: timed
before each outer iteration of a ``deep`` fit, its slowdown and the
iteration's correlated at 0.86, and over a slow stretch both ran about 1.45
times longer.  The probe does work of the workload's own shape (a product
with a bands-by-pixels matrix and elementwise special functions over a
layer-by-pixels one), so that contention for cache and memory slows it as
much as the program: on ``wide`` under heavy load, eight calibrated
``init_all`` times spread twice as far with a probe on 60 x 60 data as
with the workload-sized probe.

So a ``Sampler`` times the probe at most every ``INTERVAL_S`` seconds while
the program runs, from hooks on functions that ``init_all`` and ``fit``
call often (see ``HOOKS``), and at the edges of every timed block.  The
work done in a block is its wall time times the machine's mean speed over
it; with samples evenly spread in time, that speed is the mean of the
probe's unloaded time over its measured times.  A block's calibrated time
is therefore its wall time, less the probes run inside it, times that
mean: the seconds the block takes at the speed the probe measures on an
unloaded core.  The probes touch no state of the program.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy import special

# time of one probe per pixel on an unloaded core of a 2-core VM (Intel
# Xeon processor, numpy 2.4, scipy 1.17); it only sets the scale of the
# calibrated seconds
REFERENCE_S_PER_PIXEL = 1.2e-6
# least time between two probes taken from the hooks
INTERVAL_S = 0.1
# probes at each edge of a timed block
EDGE_PROBES = 5
# (module, name) bindings the sampler hooks: the per-iteration entry of the
# fit and the kernels that init_all and fit call many times per second.  A
# binding a later version lacks is skipped; its block is then sampled more
# sparsely, not wrongly.
HOOKS = (
    ("solver", "update_beta"),
    ("solver", "dirichlet_entropy"),
    ("solver", "project_simplex_columns"),
    ("initialization", "vca"),
    ("initialization", "scls"),
    ("initialization", "project_simplex_columns"),
)
# shape of the probe's data: the workloads' band count and widest layer
BANDS, WIDTH = 198, 30


class Sampler:
    """Probe samples of one run, (start, probe seconds, seconds spent), with
    a probe sized to ``pixels``."""

    def __init__(self, pixels):
        rng = np.random.default_rng(0)
        self._basis = rng.random((BANDS, WIDTH))
        self._pixels = rng.random((BANDS, pixels))
        self._weights = rng.random((WIDTH, pixels)) + 0.5
        self.reference_s = REFERENCE_S_PER_PIXEL * pixels
        self.samples = []
        self._due = 0.0

    def _kernel(self):
        products = self._basis.T @ self._pixels
        special.gammaln(self._weights)
        np.log(self._weights)
        (products * self._weights).sum(axis=0)

    def probe(self) -> float:
        """Seconds the probe takes now.  It runs once untimed first, so its
        data is in cache whatever ran before it."""
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def take(self):
        start = time.perf_counter()
        seconds = self.probe()
        self.samples.append((start, seconds, time.perf_counter() - start))
        self._due = start + INTERVAL_S

    def edge(self):
        for _ in range(EDGE_PROBES):
            self.take()

    def _maybe(self):
        if time.perf_counter() >= self._due:
            self.take()

    @contextmanager
    def hooked(self, package):
        """Sample from the ``HOOKS`` bindings of ``package`` while open."""
        undo = []
        for module_name, name in HOOKS:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            original = getattr(module, name, None)
            if original is None:
                continue

            def sampled(*args, _original=original, **kwargs):
                self._maybe()
                return _original(*args, **kwargs)

            undo.append((module, name, original))
            setattr(module, name, sampled)
        try:
            yield self
        finally:
            for module, name, original in reversed(undo):
                setattr(module, name, original)

    def block(self, t0, t1):
        """Calibrated seconds and mean speed of the block from ``t0`` to
        ``t1``, and the samples taken inside it.  The speed also counts the
        edge probes taken just before and after the block."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        near = [s for s in self.samples if t0 - INTERVAL_S <= s[0] < t1 + INTERVAL_S]
        speed = statistics.fmean(self.reference_s / seconds for _, seconds, _ in near)
        spent = sum(s[2] for s in inside)
        return (t1 - t0 - spent) * speed, speed, inside


def iteration_probe_ms(fit_start, millis, samples):
    """Probe milliseconds that fell inside each outer iteration of a fit
    that began at ``fit_start``, whose iterations took ``millis``."""
    ends = fit_start + 1e-3 * np.cumsum(millis)
    out = np.zeros(len(millis))
    for start, _, spent in samples:
        i = min(int(np.searchsorted(ends, start, side="right")), len(millis) - 1)
        out[i] += 1e3 * spent
    return out
