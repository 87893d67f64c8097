"""The benchmark's workloads: what each one runs and why it exists.

Every workload unmixes synthetic 198-band scenes built from the three
built-in base spectra, following the README quick start: ``init_all``, then
``fit`` with ``FitConfig`` defaults except the outer-iteration count and
``rel_elbo_tol=0``, then an evaluation (``aligned_mse`` against the truth and
``singular_spectrum`` of the estimate).  BLAS runs on one thread.

Threads.  Every workload runs with ``MSSMF_THREADS=1``.  A fit that keeps
both cores of a 2-core machine busy waits for the slower of its two chunks,
so load from outside the process shows in full.  On a shared 2-core VM the
median iteration time of ``wide`` with two workers spread by 19-29%
(quartile distance over median, three sets of 5 or 10 seeds) and its fit
time by up to 22%, against 8% and 4-12% for the same work on one thread.
No bound of at most 25% could gate that.  The thread pool is measured in
the traced run instead (``solver.update_beta_speedup_2w``).

Scenes.  A run unmixes a fixed number of distinct scenes, each once
(``scenes`` per 30 s of ``--seconds``), and reports the median of each
timing over them and the mean of each quality figure.  Every timing is
corrected for the machine's speed at the moment (see ``calibrate.py``):
on a shared 2-core VM, wall times of the same fit varied by 40% from run
to run, calibrated times by 4%.  Scenes of one workload differ in work
too, because the line searches take different numbers of steps: two
``deep`` scenes fitted alternately differed by 12%.  Several scenes per
run average that out.

Seeds.  Every scene shares the README quick start's ground truth (truth
seed 7); ``--seed`` draws the pixels, the noise and the initialisation.
Scene ``r`` of a run with ``--seed s`` uses scene seed ``s + 1000 r + 1``
and init seed ``s + 1000 r + 2``, so scene 0 of the default seed 7 is the
README quick start (truth 7, scene 8, init 9).  A fixed truth keeps the
geometry of the problem, and with it the work per iteration, the same
across seeds.

Quality.  ``final_elbo`` and ``aligned_rmse`` (the square root of the
aligned MSE) are means over the run's scenes.  The aligned MSE of single
``desk`` and ``deep`` scenes spreads by 15% and 35% across seeds (quartile
distance over median, six seeds).  A ``deep`` fit ends on one of two
plateaus of the bound, 30% apart in aligned MSE, about half the time each,
and about one scene in fifteen stays on the first plateau with twice the
aligned MSE.  The mean over a run's three scenes damps the first; the
square root keeps the second from moving a run's figure by a third (see
the README).

Targets.  ``time_to_target_s`` needs one target bound per scene.  The
bound a fit reaches moves with the scene's noise level, so the target is a
fixed offset from a per-scene reference:

- ``"oracle"``: the expected log-likelihood of the scene under its true
  model, ``-(bands/2) (log(2 pi sigma2_true) + 1)``.
- ``"first"``: the bound after the first outer iteration.  Used on ``deep``,
  whose bound climbs slowly and steadily on a plateau whose level varies
  by +-10 nats/pixel across scenes, and then jumps, at a scene-dependent
  iteration, to a higher one.  The offset sits on the steady climb.

The offsets were set from runs of the commit this benchmark was defined on
(seeds 0-7, 11-15, 51-56 and 7): ``desk`` reaches its target at
iteration 5-8 of 100, ``wide`` at iteration 3-5 of 10 and ``deep`` at
iteration 13-20 of 100.  Each target sits where the bounds of different
scenes climb alike, so the iteration that reaches it varies little; on
``desk`` a target on the slow final climb
(offset -37, reached at iteration 62-86) spread the time to target by 20%
across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

BANDS = 198
# ground truth of every scene: the README quick start's (seed 7)
TRUTH_SEED = 7
SCENE_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    pixels: int
    layers: Tuple[int, ...]
    snr_db: float
    iters: int
    # scenes a run unmixes per 30 s of --seconds (see scene_count)
    scenes: int
    target_kind: str
    target_offset: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            pixels=500,
            layers=(6, 18, 30),
            snr_db=20.0,
            iters=100,
            scenes=3,
            target_kind="oracle",
            target_offset=-55.0,
            why=(
                "The paper's desk protocol (README quick start, acceptance "
                "tests 03 and 08), the reference single-threaded run: "
                "update_beta is about 55-60% of fit, the APG blocks about 25%."
            ),
        ),
        Workload(
            name="wide",
            pixels=2000,
            layers=(6, 18, 30),
            snr_db=20.0,
            iters=10,
            scenes=3,
            target_kind="oracle",
            target_offset=-69.0,
            why=(
                "The pixel-bound case, four times desk's pixels: init_all is "
                "almost all scls and update_beta about 90% of fit. The workload "
                "where per-pixel kernels, scls, streaming and process "
                "parallelism show."
            ),
        ),
        Workload(
            name="deep",
            pixels=200,
            layers=(3, 5, 8, 12, 18, 30),
            snr_db=30.0,
            iters=100,
            scenes=3,
            target_kind="first",
            target_offset=3.0,
            why=(
                "The factor-bound case: five mixers, the APG blocks are about "
                "55-60% of fit, some 50 000 project_simplex_columns calls on "
                "tiny matrices, and more Armijo evaluations per concentration "
                "pass at 30 dB. A per-pixel optimisation should barely move "
                "it; a factor-block optimisation should barely move wide."
            ),
        ),
    )
}


def scene_seeds(seed: int, index: int) -> Tuple[int, int, int]:
    """(truth, scene, init) seeds of scene ``index`` of a run."""
    base = seed + SCENE_SEED_STRIDE * index
    return TRUTH_SEED, base + 1, base + 2


def scene_count(workload: Workload, seconds: float) -> int:
    """Scenes a run of ``seconds`` unmixes: the workload's count per 30 s,
    rounded, and at least two.  The work is fixed by the count, not by a
    clock, so every run of one seed does the same work."""
    return max(2, round(workload.scenes * seconds / 30.0))


def make_scene(mssmf, workload: Workload, seed: int, index: int):
    """Ground truth and generated scene; ``mssmf`` is the imported package."""
    truth_seed, scene_seed, _ = scene_seeds(seed, index)
    truth, _ = mssmf.assemble_ground_truth(mssmf.builtin_bases(BANDS), seed=truth_seed)
    bundle = mssmf.gen_dataset(
        truth, n_pixels=workload.pixels, snr_db=workload.snr_db, seed=scene_seed
    )
    return truth, bundle
