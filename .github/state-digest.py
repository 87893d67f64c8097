#!/usr/bin/env python3
"""One sha256 per benchmark workload over the init_all and fit states of its
scenes: concentrations, basis, mixers, noise variance, and the bound and
noise-variance traces, in that order, scene by scene and seed by seed.

Two source trees give the same line for a workload exactly when every one
of those states matches bit for bit.  The scenes are the benchmark's own
(``perfbench/workloads.py``, imported and never changed), and BLAS runs on
one thread, as in the benchmark.  Usage, from the root of a checkout::

    PYTHONPATH=src python3 .github/state-digest.py --seeds 7 0 1

The package is imported from ``PYTHONPATH``; the script prints where from.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys

# the results depend on the BLAS thread count; must run before numpy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import WORKLOADS, make_scene, scene_seeds  # noqa: E402


def state_parts(concentration, stack):
    return [concentration, stack.basis, *stack.mixers, struct.pack("<d", stack.noise_var)]


def digest(mssmf, workload, seeds, scenes):
    h = hashlib.sha256()
    config = mssmf.FitConfig(max_outer_iters=workload.iters, rel_elbo_tol=0.0)
    for seed in seeds:
        for index in range(scenes):
            _, bundle = make_scene(mssmf, workload, seed, index)
            init = mssmf.init_all(bundle.pixels, layer_sizes=workload.layers,
                                  seed=scene_seeds(seed, index)[2])
            result = mssmf.fit(bundle.pixels, init.stack, init.posterior, config)
            for part in (
                *state_parts(init.posterior.concentration, init.stack),
                *state_parts(result.posterior.concentration, result.stack),
                result.trace.elbo, result.trace.sigma2,
            ):
                h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=["desk", "wide", "deep"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[7])
    parser.add_argument("--scenes", type=int, default=3, help="scenes per seed")
    args = parser.parse_args(argv)
    import mssmf

    print(f"mssmf from {os.path.dirname(os.path.abspath(mssmf.__file__))}", file=sys.stderr)
    for name in args.workloads:
        print(name, digest(mssmf, WORKLOADS[name], args.seeds, args.scenes), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
