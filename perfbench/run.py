"""mssmf benchmark: time to unmix synthetic scenes, end to end and per module.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desk --seed 7 --seconds 30 --trace 0

``--trace 0`` unmixes ``--seconds`` worth of scenes (see ``workloads.py``)
with tracing off, corrects each timing for the machine's speed at the
moment (see ``calibrate.py``) and prints the end-to-end metrics.  ``--trace 1`` unmixes
scene 0 twice, untraced then with a span around every public mssmf function,
checks that both give the same bytes, and prints the per-layer metrics.  The
last line of standard output is one JSON object; details (environment,
per-scene figures, span tables) go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SPEEDUP_REPEATS = 3


def pin_environment():
    """One BLAS thread, so results do not depend on the machine's core
    count, and one mssmf worker (see workloads.py); must run before numpy
    loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MSSMF_THREADS"):
        os.environ[var] = "1"


pin_environment()

import calibrate  # noqa: E402  (loads numpy)
from workloads import BANDS, WORKLOADS, make_scene, scene_count, scene_seeds  # noqa: E402


def import_program():
    if not os.path.isfile(os.path.join(SRC, "mssmf", "__init__.py")):
        sys.stderr.write(f"perfbench: no mssmf package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import mssmf

    if not os.path.abspath(mssmf.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported mssmf from {mssmf.__file__}, not {SRC}\n")
        sys.exit(2)
    return mssmf


def environment(mssmf):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "mssmf_threads": os.environ["MSSMF_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mssmf": mssmf.__version__,
        "commit": commit,
    }


def measure_setup(workload, seed):
    """Calibrated seconds from process start to scene in memory, in a fresh
    process, with probes just before and after it."""
    sampler = calibrate.Sampler(workload.pixels)
    sampler.edge()
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    t1 = time.perf_counter()
    sampler.edge()
    wall = float(done.stdout.split()[-1]) - t0
    return wall * sampler.block(t0, t1)[1]


def unmix(mssmf, workload, seed, index, tracer=None, calibrated=False):
    """One scene through the README quick-start path.

    Tracer phases only mark which stage a span belongs to.  With
    ``calibrated``, probes sample the machine's speed around and inside
    ``init_all`` and ``fit``, and the run also holds the calibrated
    ``init_s``, ``fit_s`` and per-iteration ``iter_ms``.
    """
    phase = tracer.phase if tracer else (lambda name: nullcontext())
    sampler = calibrate.Sampler(workload.pixels) if calibrated else None
    edge = sampler.edge if sampler else (lambda: None)
    with phase("scene"):
        truth, bundle = make_scene(mssmf, workload, seed, index)
    config = mssmf.FitConfig(max_outer_iters=workload.iters, rel_elbo_tol=0.0)
    with sampler.hooked(mssmf) if sampler else nullcontext():
        edge()
        t0 = time.perf_counter()
        with phase("init"):
            init = mssmf.init_all(bundle.pixels, layer_sizes=workload.layers,
                                  seed=scene_seeds(seed, index)[2])
        t1 = time.perf_counter()
        edge()
        t2 = time.perf_counter()
        with phase("fit"):
            result = mssmf.fit(bundle.pixels, init.stack, init.posterior, config)
        t3 = time.perf_counter()
        edge()
    with phase("eval"):
        estimate = mssmf.compose_expanded(result.stack).data
        mse = mssmf.aligned_mse(estimate, truth).mse
        spectrum = mssmf.singular_spectrum(estimate)
    run = {
        "bundle": bundle, "result": result, "init_wall_s": t1 - t0, "fit_wall_s": t3 - t2,
        "aligned_mse": mse, "spectrum": spectrum,
    }
    if sampler:
        init_s, init_speed, init_probes = sampler.block(t0, t1)
        fit_s, fit_speed, fit_probes = sampler.block(t2, t3)
        probe_ms = calibrate.iteration_probe_ms(t2, result.trace.millis, fit_probes)
        run.update({
            "init_s": init_s, "fit_s": fit_s,
            "iter_ms": (result.trace.millis - probe_ms) * fit_speed,
            "speeds": (init_speed, fit_speed), "probes": (len(init_probes), len(fit_probes)),
        })
    return run


def target_bound(workload, run):
    if workload.target_kind == "oracle":
        sigma2 = run["bundle"].sigma2
        ref = -0.5 * BANDS * (math.log(2.0 * math.pi * sigma2) + 1.0)
    else:
        ref = float(run["result"].trace.elbo[0])
    return ref + workload.target_offset


def check(mssmf, workload, run):
    """Correctness failures of one unmixed scene, as messages."""
    import numpy as np

    res = run["result"]
    el = res.trace.elbo
    bad = []
    if not np.all(np.isfinite(el)):
        bad.append("non-finite bound in trace")
    elif el.size > 1 and np.min(np.diff(el) + 1e-8 * (1.0 + np.abs(el[:-1]))) < 0:
        bad.append("bound dropped by more than roundoff")
    if res.trace.stop_reason != "max_iters" or len(res.trace) != workload.iters:
        bad.append(f"stopped by {res.trace.stop_reason} after {len(res.trace)} iterations")
    if np.max(np.abs(res.abundances.sum(axis=0) - 1.0)) > 1e-10:
        bad.append("posterior-mean abundance columns do not sum to 1")
    try:
        mssmf.FactorStack(res.stack.basis, res.stack.mixers, res.stack.noise_var)
        mssmf.DirichletParam(res.posterior.concentration)
    except mssmf.ValidationError as err:
        bad.append(f"final state infeasible: {err}")
    if not (math.isfinite(run["aligned_mse"]) and np.all(np.isfinite(run["spectrum"]))):
        bad.append("non-finite evaluation")
    if target_iteration(workload, run) is None:
        bad.append(f"target bound {target_bound(workload, run):.4f} never reached")
    return bad


def target_iteration(workload, run):
    """Index of the first outer iteration whose bound reaches the target."""
    import numpy as np

    hit = np.nonzero(run["result"].trace.elbo >= target_bound(workload, run))[0]
    return int(hit[0]) if hit.size else None


def state_bytes(concentration, stack, *extra):
    parts = [concentration, stack.basis, *stack.mixers, *extra]
    return b"".join(p.tobytes() for p in parts) + struct.pack("<d", stack.noise_var)


def result_bytes(result):
    return state_bytes(result.posterior.concentration, result.stack, result.trace.elbo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(mssmf, workload, seed, seconds, log):
    """Unmix the run's scenes, each once, with a set-up before each and one
    after the last; every timing is calibrated (see calibrate.py)."""
    import numpy as np

    count = scene_count(workload, seconds)
    setups, runs, failed = [], [], 0
    for index in range(count):
        setups.append(measure_setup(workload, seed))
        try:
            run = unmix(mssmf, workload, seed, index, calibrated=True)
            bad = check(mssmf, workload, run)
        except Exception:
            traceback.print_exc()
            bad = ["exception raised"]
        seeds = scene_seeds(seed, index)
        if bad:
            failed += 1
            log(f"scene {index} seeds {seeds}: FAILED: {'; '.join(bad)}")
            continue
        hit = target_iteration(workload, run)
        run["time_to_target_s"] = run["init_s"] + 1e-3 * float(np.sum(run["iter_ms"][: hit + 1]))
        runs.append(run)
        log(f"scene {index} seeds {seeds}: init {run['init_s']:.3f} s, fit {run['fit_s']:.3f} s "
            f"(wall {run['init_wall_s']:.3f} s and {run['fit_wall_s']:.3f} s, mean speeds "
            f"{run['speeds'][0]:.3f} and {run['speeds'][1]:.3f} from {run['probes'][0]} and "
            f"{run['probes'][1]} probes inside), target "
            f"{target_bound(workload, run):.4f} at iteration {hit}, final bound "
            f"{run['result'].trace.elbo[-1]:.6f}, aligned mse {run['aligned_mse']:.6g}")
    setups.append(measure_setup(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    if runs:
        med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
        mean = lambda key: statistics.fmean(r[key] for r in runs)  # noqa: E731
        iter_ms = np.concatenate([r["iter_ms"] for r in runs])
        for r in runs:
            r["final_elbo"] = float(r["result"].trace.elbo[-1])
            r["unmix_s"] = r["init_s"] + r["fit_s"]
            r["aligned_rmse"] = math.sqrt(r["aligned_mse"])
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "init_s": metric(med("init_s"), "s"),
            "fit_s": metric(med("fit_s"), "s"),
            "unmix_s": metric(med("unmix_s"), "s"),
            "iter_ms_p50": metric(float(np.median(iter_ms)), "ms"),
            "time_to_target_s": metric(med("time_to_target_s"), "s"),
            "final_elbo": metric(mean("final_elbo"), "nats/pixel"),
            "aligned_rmse": metric(mean("aligned_rmse"), "1"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        }
        log(f"iter_ms_p50 over {iter_ms.size} iterations of {len(runs)} scenes")
        if workload.iters >= 100:
            p90 = float(np.percentile(iter_ms, 90))
            beyond = int(np.sum(iter_ms > p90))
            log(f"iter_ms_p90 = {p90!r} ms ({iter_ms.size} samples, {beyond} beyond it)")
        else:
            log(f"iter_ms_p90 not reported: {workload.iters} iterations per scene, "
                "fewer than 10 samples would lie beyond it")
    details = {
        "setups_s": setups,
        "scenes": [
            {key: r[key] for key in ("init_s", "fit_s", "init_wall_s", "fit_wall_s", "speeds",
                                     "time_to_target_s", "final_elbo", "aligned_mse",
                                     "aligned_rmse")}
            | {"iter_ms": r["iter_ms"].tolist()}
            for r in runs
        ],
    }
    return count, failed, metrics, details


def run_traced(mssmf, workload, seed, log):
    import tracer as tracing

    plain = unmix(mssmf, workload, seed, 0)
    bad = check(mssmf, workload, plain)
    rec = tracing.Tracer()
    res = plain["result"]
    y = plain["bundle"].pixels.data
    b = mssmf.compose_expanded(res.stack).data
    betas = res.posterior.concentration
    passes = mssmf.FitConfig().beta_steps_per_outer
    undo = tracing.install(rec)
    try:
        traced = unmix(mssmf, workload, seed, 0, rec)
        # one traced pool call, so per-worker busy time shows in the spans
        with rec.phase("pool"):
            mssmf.update_beta(y, b, betas, res.stack.noise_var, passes=passes, workers=2)
    finally:
        tracing.uninstall(undo)
    same = result_bytes(plain["result"]) == result_bytes(traced["result"])
    if not same:
        bad.append("traced result differs from the untraced one")
    log(f"traced result {'matches' if same else 'DIFFERS FROM'} the untraced one byte for byte")

    timing = {1: [], 2: []}
    for _ in range(SPEEDUP_REPEATS):
        for workers in (1, 2):
            t0 = time.perf_counter()
            mssmf.update_beta(y, b, betas, res.stack.noise_var, passes=passes, workers=workers)
            timing[workers].append(time.perf_counter() - t0)
    speedup = statistics.median(timing[1]) / statistics.median(timing[2])

    chunks = 1  # one mssmf worker: update_beta runs a single chunk
    base = workload.iters * passes * chunks
    objective_calls = sum(
        1 for s in rec.select("simplex.dirichlet_entropy", "fit")
        if s.parent is None or s.parent.name != "solver.elbo_terms"
    )
    fit_span = rec.select("solver.fit", "fit")[0]
    projections = rec.select("simplex.project_simplex_columns")
    special_elems = sum(s.size for n in tracing.SPECIAL_FUNCTIONS for s in rec.select(n, "fit"))
    metrics = {
        "synth.scene_ms": metric(rec.total_ms("phase.scene"), "ms"),
        "initialization.vca_ms": metric(rec.total_ms("initialization.vca", "init"), "ms"),
        "initialization.scls_ms": metric(rec.total_ms("initialization.scls", "init"), "ms"),
        "solver.update_beta_ms": metric(rec.total_ms("solver.update_beta", "fit"), "ms"),
        "solver.update_beta_calls": metric(rec.calls("solver.update_beta", "fit"), "count"),
        "solver.update_beta_speedup_2w": metric(speedup, "x"),
        "solver.apg_basis_ms": metric(rec.total_ms("solver.apg_basis", "fit"), "ms"),
        "solver.apg_mixer_ms": metric(rec.total_ms("solver.apg_mixer", "fit"), "ms"),
        "solver.apg_calls": metric(
            rec.calls("solver.apg_basis", "fit") + rec.calls("solver.apg_mixer", "fit"), "count"),
        "solver.update_sigma2_ms": metric(rec.total_ms("solver.update_sigma2", "fit"), "ms"),
        "solver.elbo_terms_ms": metric(rec.total_ms("solver.elbo_terms", "fit"), "ms"),
        "solver.fit_self_ms": metric(1e3 * fit_span.self_seconds, "ms"),
        "simplex.dirichlet_entropy_calls": metric(objective_calls, "count"),
        "simplex.objective_evals_per_pass": metric(objective_calls / base, "evals/pass"),
        "simplex.log_gamma_ms": metric(rec.total_ms("simplex.log_gamma", "fit"), "ms"),
        "simplex.digamma_ms": metric(rec.total_ms("simplex.digamma", "fit"), "ms"),
        "simplex.trigamma_ms": metric(rec.total_ms("simplex.trigamma", "fit"), "ms"),
        "simplex.special_elems": metric(special_elems, "count"),
        "simplex.project_simplex_columns_ms": metric(
            1e3 * sum(s.seconds for s in projections), "ms"),
        "simplex.project_simplex_columns_calls": metric(len(projections), "count"),
        "simplex.project_simplex_columns_cols": metric(sum(s.size for s in projections), "count"),
        "model.stack_replace_ms": metric(rec.total_ms("model.stack_replace"), "ms"),
        "model.stack_replace_calls": metric(rec.calls("model.stack_replace"), "count"),
        "metrics.aligned_mse_ms": metric(rec.total_ms("metrics.aligned_mse", "eval"), "ms"),
        "metrics.singular_spectrum_ms": metric(
            rec.total_ms("metrics.singular_spectrum", "eval"), "ms"),
        "trace.fit_overhead_s": metric(fit_span.seconds - plain["fit_wall_s"], "s"),
    }
    log(f"objective evaluations per pass: {objective_calls} / {base} "
        f"({workload.iters} iterations x {passes} passes x {chunks} chunks)")
    log(f"special-function elements: {special_elems} (computed bytes {16 * special_elems})")
    log(f"update_beta on the final state: 1 worker {statistics.median(timing[1]):.4f} s, "
        f"2 workers {statistics.median(timing[2]):.4f} s (median of {SPEEDUP_REPEATS})")
    log(f"fit: untraced {plain['fit_wall_s']:.3f} s, traced {fit_span.seconds:.3f} s")
    main = threading.get_ident()
    workers_busy = {tid: ms for tid, ms in rec.thread_busy_ms("pool").items() if tid != main}
    log(f"traced update_beta with 2 workers: {rec.total_ms('phase.pool'):.1f} ms, worker busy "
        + ", ".join(f"{ms:.1f} ms" for ms in sorted(workers_busy.values())))
    details = {
        "span_table": rec.table(),
        "pool_worker_busy_ms": {str(k): v for k, v in workers_busy.items()},
        "speedup_timings_s": {str(k): v for k, v in timing.items()},
    }
    write_spans(rec, workload, seed)
    return 1, int(bool(bad)), metrics, details, bad


def write_spans(rec, workload, seed):
    path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.csv")
    ids = {id(s): i for i, s in enumerate(rec.spans)}
    t0 = min(s.start for s in rec.spans)
    with open(path, "w") as fh:
        fh.write("id,name,thread,phase,start_ms,end_ms,parent\n")
        for i, s in enumerate(rec.spans):
            parent = ids.get(id(s.parent), "") if s.parent is not None else ""
            fh.write(f"{i},{s.name},{s.thread},{s.phase},{1e3 * (s.start - t0)!r},"
                     f"{1e3 * (s.end - t0)!r},{parent}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    mssmf = import_program()
    os.makedirs(OUT, exist_ok=True)
    lines = []

    def log(text):
        lines.append(text)
        print(text, flush=True)

    env = environment(mssmf)
    log(f"workload {workload.name}: {workload.why}")
    log("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        try:
            attempted, failed, metrics, details, bad = run_traced(mssmf, workload, args.seed, log)
        except Exception:
            traceback.print_exc()
            attempted, failed, metrics, details, bad = 1, 1, {}, {}, ["exception raised"]
        for msg in bad:
            log(f"FAILED: {msg}")
    else:
        attempted, failed, metrics, details = run_untraced(
            mssmf, workload, args.seed, args.seconds, log)
    for name, m in metrics.items():
        log(f"{name} = {m['value']!r} {m['unit']}")
    log(f"runs_failed / runs_attempted = {failed} / {attempted}")
    correct = failed == 0 and bool(metrics)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"environment": env, "log": lines, "details": details, **summary}, fh,
                  indent=1, default=str)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
