"""Command line: synth -> unmix -> eval, plus svd and render utilities.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 validation error.
All commands are deterministic for a fixed seed and flag set.  Above 1 024
pixels the fit runs its concentration passes on one thread per usable
core; the outputs do not depend on how many there are.  BLAS threads
follow BLAS's own settings.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .initialization import init_all
from .matio import (
    load_matrix,
    quantize_unit,
    read_csv_matrix,
    read_manifest,
    save_matrix,
    write_csv_matrix,
    write_manifest,
    write_pgm,
)
from .metrics import aligned_mse, singular_spectrum
from .model import ValidationError, _prep_arg, as_pixel_matrix, compose_expanded
from .solver import FitConfig, fit
from .synth import DEFAULT_GAMMA, DEFAULT_KNOTS, assemble_ground_truth, builtin_bases, gen_dataset


def _as_float(value, kinds=(int, float)):
    """float(value) when value is one of ``kinds`` and not a bool, else None."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        return None
    try:
        return float(value)
    except (ValueError, OverflowError):
        return None


def _snr_value(text) -> float:
    val = _as_float(text, (int, float, str))
    if val is None or not -np.inf < val <= np.inf:
        raise argparse.ArgumentTypeError(f"SNR must be a number, finite or inf, got {text!r}")
    return val


def _seed_value(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed: {text!r}") from None
    if val < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {val}")
    return val


def _dims_value(text: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be comma-separated integers, got {text!r}"
        ) from None


def _default(func, name):
    """The default value of func's parameter name."""
    return inspect.signature(func).parameters[name].default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mssmf",
        description="multilayer simplex-structured unmixing toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic variability scene")
    sp.set_defaults(run=_cmd_synth)
    sp.add_argument("--bases", default="builtin",
                    help="'builtin' or path to a CSV of base spectra (bands x bases)")
    sp.add_argument("--bands", type=int, default=_default(builtin_bases, "bands"),
                    help="band count for the builtin bases")
    sp.add_argument("--variants", type=int,
                    default=_default(assemble_ground_truth, "variants_per_base"),
                    help="variant pool size per base")
    sp.add_argument("--pick", type=int, default=_default(assemble_ground_truth, "pick"),
                    help="variants kept per base in the ground truth")
    sp.add_argument("--gamma", type=float, default=DEFAULT_GAMMA,
                    help="variability amplitude in [0, 1)")
    sp.add_argument("--knots", type=int, default=DEFAULT_KNOTS,
                    help="knot count of the smooth multiplicative field")
    sp.add_argument("--pixels", type=int, required=True)
    sp.add_argument("--snr-db", type=_snr_value, required=True,
                    help="target SNR in dB; 'inf' for noiseless")
    sp.add_argument("--seed", type=_seed_value, default=0)
    sp.add_argument("--out", required=True, help="output directory")

    up = sub.add_parser("unmix", help="fit the multilayer model to a scene")
    up.set_defaults(run=_cmd_unmix)
    up.add_argument("--input", required=True, help="pixel matrix (bands x pixels)")
    up.add_argument("--dims", type=_dims_value, required=True,
                    help="layer sizes, e.g. 6,18,30")
    up.add_argument("--iters", type=int, default=FitConfig.max_outer_iters)
    up.add_argument("--tol", type=float, default=0.0,
                    help="relative bound-improvement stop; 0 runs all iterations")
    up.add_argument("--seed", type=_seed_value, default=0)
    up.add_argument("--out", required=True, help="output directory")

    ep = sub.add_parser("eval", help="score an estimate against ground truth")
    ep.set_defaults(run=_cmd_eval)
    ep.add_argument("--est", help="estimated endmember matrix file")
    ep.add_argument("--truth", help="ground-truth endmember matrix file")
    ep.add_argument("--snr-db", type=_snr_value, default=None,
                    help="optional tag recorded for later aggregation")
    ep.add_argument("--runs-dir", default=None,
                    help="aggregate all eval manifests found under this directory")
    ep.add_argument("--out", required=True, help="output manifest path (.json)")

    vp = sub.add_parser("svd", help="write the singular values of a matrix")
    vp.set_defaults(run=_cmd_svd)
    vp.add_argument("--input", required=True)
    vp.add_argument("--out", required=True, help="output CSV, one value per line")

    rp = sub.add_parser("render", help="write abundance maps as PGM images")
    rp.set_defaults(run=_cmd_render)
    rp.add_argument("--abundances", required=True,
                    help="abundance matrix file (components x pixels)")
    rp.add_argument("--width", type=int, required=True)
    rp.add_argument("--height", type=int, required=True)
    rp.add_argument("--groups", default=None,
                    help="CSV of per-component group labels; maps are summed per group")
    rp.add_argument("--out", required=True, help="output directory")
    return parser


def _manifest(path, kind: str, argv, **fields) -> None:
    """Write the manifest of one command: its kind, the package version and
    its argv, then the command's own fields."""
    write_manifest(path, {"kind": kind, "version": __version__, "argv": argv, **fields})


def _write_run(out, outputs, kind: str, argv, **fields) -> None:
    """Create the directory out and write into it every matrix of outputs,
    a {key: (file name, matrix)} table whose value may also be a list of
    such pairs; then its manifest.json, whose "outputs" map each key to
    its file name (or list of names)."""
    out = Path(out)
    os.makedirs(out, exist_ok=True)
    names = {}
    for key, entry in outputs.items():
        pairs = entry if isinstance(entry, list) else [entry]
        for name, mat in pairs:
            save_matrix(out / name, mat)
        names[key] = [name for name, _ in pairs] if isinstance(entry, list) else entry[0]
    _manifest(out / "manifest.json", kind, argv, outputs=names, **fields)


def _cmd_synth(args, argv) -> int:
    if args.bases == "builtin":
        bases = builtin_bases(args.bands)
    else:
        bases = read_csv_matrix(args.bases)
    rng = np.random.default_rng(args.seed)
    truth, labels = assemble_ground_truth(
        bases,
        variants_per_base=args.variants,
        pick=args.pick,
        gamma=args.gamma,
        knots=args.knots,
        seed=rng,
    )
    bundle = gen_dataset(truth, args.pixels, args.snr_db, seed=rng)
    outputs = {
        "data": ("data.raw64", bundle.pixels.data),
        "endmembers_true": ("endmembers_true.raw64", truth),
        "abundances_true": ("abundances_true.raw64", bundle.abundances),
        "labels": ("labels.csv", labels[None, :].astype(np.float64)),
    }
    _write_run(
        args.out, outputs, "synth", argv,
        seed=args.seed,
        snr_db=args.snr_db,
        sigma2=bundle.sigma2,
        dims={"bands": truth.shape[0], "expanded": truth.shape[1], "pixels": args.pixels},
        config={k: getattr(args, k) for k in ("bases", "variants", "pick", "gamma", "knots")},
    )
    return 0


def _cmd_unmix(args, argv) -> int:
    px = as_pixel_matrix(load_matrix(args.input))
    start = init_all(px, args.dims, seed=args.seed)
    config = FitConfig(max_outer_iters=args.iters, rel_elbo_tol=args.tol)
    result = fit(px, start.stack, start.posterior, config)
    stack, trace = result.stack, result.trace
    iters_run = len(trace)
    rows = np.column_stack(
        [np.arange(1, iters_run + 1, dtype=np.float64), trace.elbo, trace.sigma2, trace.millis]
    )
    outputs = {
        "basis": ("basis.raw64", stack.basis),
        "mixers": [(f"mixer_{i}.raw64", s) for i, s in enumerate(stack.mixers, start=1)],
        "expanded": ("expanded.raw64", compose_expanded(stack)),
        "concentration": ("concentration.raw64", result.posterior.concentration),
        "abundances": ("abundances.raw64", result.abundances),
        "trace": ("trace.csv", rows),
    }
    _write_run(
        args.out, outputs, "unmix", argv,
        seed=args.seed,
        input=args.input,
        dims={"bands": px.bands, "layers": list(args.dims), "pixels": px.pixels},
        config={"iters": args.iters, "tol": args.tol},
        trace={"elbo": trace.elbo.tolist(), "sigma2": trace.sigma2.tolist()},
        iterations_run=iters_run,
        stop_reason=trace.stop_reason,
        final_elbo=result.elbo,
        final_sigma2=stack.noise_var,
    )
    return 0


def _aggregate_evals(runs_dir: str):
    groups = {}
    for path in sorted(Path(runs_dir).rglob("*.json")):
        try:
            doc = read_manifest(path)
        except ValidationError:
            continue
        if doc.get("kind") != "eval" or doc.get("snr_db") is None:
            continue
        try:
            snr = _snr_value(doc["snr_db"])
        except argparse.ArgumentTypeError as exc:
            raise ValidationError(f"{path}: eval manifest: {exc}") from None
        mse = _as_float(doc.get("mse"))
        if mse is None or not 0.0 <= mse < np.inf:
            raise ValidationError(
                f"{path}: eval manifest mse must be a finite number >= 0, got {doc.get('mse')!r}"
            )
        groups.setdefault(snr, []).append(mse)
    if not groups:
        raise ValidationError(f"no eval manifests with an snr_db tag under {runs_dir}")
    rows = []
    for snr in sorted(groups):
        vals = np.asarray(groups[snr])
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        rows.append(
            {
                "snr_db": snr,
                "mean_mse": float(vals.mean()),
                "std_mse": std,
                "runs": int(vals.size),
            }
        )
    return rows


def _cmd_eval(args, argv) -> int:
    out = str(args.out)
    if args.runs_dir is not None:
        rows = _aggregate_evals(args.runs_dir)
        _manifest(out, "eval_aggregate", argv, runs_dir=args.runs_dir, groups=rows)
        csv_path = out[: -len(".json")] + ".csv" if out.endswith(".json") else out + ".csv"
        table = np.array([[r["snr_db"], r["mean_mse"], r["std_mse"]] for r in rows])
        write_csv_matrix(csv_path, table)
        return 0
    if args.est is None or args.truth is None:
        print("error: eval needs --est and --truth (or --runs-dir)", file=sys.stderr)
        return 2
    est = load_matrix(args.est)
    truth = load_matrix(args.truth)
    result = aligned_mse(est, truth)
    tag = {} if args.snr_db is None else {"snr_db": args.snr_db}
    _manifest(
        out, "eval", argv, est=args.est, truth=args.truth, mse=result.mse,
        permutation=[int(j) for j in result.permutation], **tag,
    )
    return 0


def _cmd_svd(args, argv) -> int:
    mat = load_matrix(args.input)
    svals = singular_spectrum(mat)
    write_csv_matrix(args.out, svals[:, None])
    return 0


def _cmd_render(args, argv) -> int:
    ab = load_matrix(args.abundances)
    _prep_arg(ab, f"{args.abundances}: abundances", positive=False)
    k, n = ab.shape
    if args.width < 1 or args.height < 1:
        raise ValidationError("width and height must be positive")
    if args.width * args.height != n:
        raise ValidationError(
            f"image {args.width}x{args.height} does not cover {n} pixels"
        )
    out = Path(args.out)
    os.makedirs(out, exist_ok=True)
    if args.groups is not None:
        labels = read_csv_matrix(args.groups).ravel()
        if labels.size != k:
            raise ValidationError(
                f"{labels.size} group labels for {k} abundance rows"
            )
        # finite integers only; |label| < 2**53 also keeps the cast exact
        if not np.all((np.abs(labels) < 2.0**53) & (labels == np.round(labels))):
            raise ValidationError(f"{args.groups}: group labels must be finite integers")
        labels = labels.astype(int)
        for lab in np.unique(labels):
            img = ab[labels == lab].sum(axis=0)
            write_pgm(out / f"group_{lab}.pgm", args.width, args.height, quantize_unit(img))
    else:
        for j in range(k):
            write_pgm(out / f"component_{j:02d}.pgm", args.width, args.height, quantize_unit(ab[j]))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
