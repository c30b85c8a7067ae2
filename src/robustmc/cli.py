"""Command-line interface.

Four subcommands: `complete` (matrix completion from a CSV), `outliers`
(sparse outlier map of a CSV), `simulate` (seeded synthetic benchmark) and
`inpaint` (image degradation + recovery study).  Every run writes a
manifest.json carrying the fully resolved configuration, the tool version,
the master seed and the numeric environment (numpy and scipy versions, BLAS
thread variables), which is sufficient to reproduce the outputs exactly.

Exit codes: 0 success, 1 usage error, 2 data error, 3 at least one solve
did not converge and --allow-nonconverged was absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .errors import RobustMcError
from .experiments import (
    MissingSpec,
    PathRecord,
    SyntheticSpec,
    degrade_image,
    replicate_seed,
    run_benchmark,
    solve_path,
    summarize_by_rank,
    test_error,
    training_error,
)
from .matio import (
    atomic_write_text,
    read_matrix_csv,
    read_pgm,
    write_matrix_csv,
    write_pgm,
)
from .pcpbridge import extract_sparse
from .solvers import (
    PathSolution,
    SolverConfig,
    default_gamma_path,
    robust_impute,  # unused here; the layer tracer in bench/ binds this name
    soft_impute,
)

BENCH_CSV_HEADER = "setting,replicate,method,gamma_index,fitted_rank,training_error,test_error,svd_count"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_solver_flags(p, include_no_robust=False, include_method=False):
    p.add_argument("--gamma", type=float, default=None,
                   help="single regularization weight (overrides the path flags)")
    p.add_argument("--gamma-path", default=None, metavar="G1,G2,...",
                   help="explicit strictly decreasing weights")
    p.add_argument("--gamma-count", type=int, default=20,
                   help="points on the auto log-spaced path (default 20)")
    p.add_argument("--c", dest="cutoff", type=float, default=None,
                   help="Huber cutoff; default: gamma / sqrt(max(n1,n2) * observed fraction)")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="relative-change stopping tolerance (default 1e-5)")
    p.add_argument("--max-iters", type=int, default=500,
                   help="iteration cap per gamma (default 500)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out-dir", default=".", help="output directory (default .)")
    p.add_argument("--allow-nonconverged", action="store_true",
                   help="exit 0 even when some solve hit the iteration cap")
    if include_no_robust:
        p.add_argument("--no-robust", action="store_true",
                       help="plain squared-loss completion instead of the Huber solver")
    if include_method:
        p.add_argument("--method", choices=("robust", "soft", "both"), default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robustmc",
                     description="Robust low-rank matrix completion toolkit")
    parser.add_argument("--version", action="version", version=f"robustmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("complete", help="complete a partially observed matrix CSV")
    p.add_argument("input", help="matrix CSV (empty cells or NA mark missing entries)")
    p.add_argument("--header", action="store_true", help="skip one header line")
    _add_solver_flags(p, include_no_robust=True)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("outliers", help="extract the sparse outlier map of a matrix CSV")
    p.add_argument("input")
    p.add_argument("--header", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_outliers)

    p = sub.add_parser("simulate", help="seeded synthetic benchmark")
    p.add_argument("--n", type=int, default=100, help="side of the square target (default 100)")
    p.add_argument("--rank", type=int, default=10)
    p.add_argument("--snr", type=float, default=1.0)
    p.add_argument("--outlier-prob", type=float, default=0.1)
    p.add_argument("--missing-prob", type=float, default=0.5)
    p.add_argument("--replicates", type=int, default=10)
    _add_solver_flags(p, include_method=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inpaint", help="degrade and recover a grayscale PGM image")
    p.add_argument("image", help="P2/P5 PGM image")
    p.add_argument("--snr", type=float, default=3.0)
    p.add_argument("--outlier-frac", type=float, default=0.1)
    p.add_argument("--outlier-snr", type=float, default=0.75)
    p.add_argument("--missing", choices=("independent", "clustered", "none"),
                   default="independent")
    p.add_argument("--missing-frac", type=float, default=None,
                   help="default 0.4 independent / 0.1 clustered")
    p.add_argument("--patch-size", type=int, default=16)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--ranks", default="50,75,100,125",
                   help="comma-separated ranks for the error table")
    _add_solver_flags(p, include_method=True)
    p.set_defaults(func=cmd_inpaint)
    return parser


def _parse_float_list(text, flag):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"{flag}: cannot parse {text!r}") from None
    if not values:
        raise _UsageError(f"{flag}: empty list")
    return values


def _resolve_gammas(args, problem):
    if args.gamma is not None and args.gamma_path is not None:
        raise _UsageError("--gamma and --gamma-path are mutually exclusive")
    if args.gamma is not None:
        if args.gamma < 0:
            raise _UsageError("--gamma must be >= 0")
        return [float(args.gamma)]
    if args.gamma_path is not None:
        gammas = _parse_float_list(args.gamma_path, "--gamma-path")
        if any(b >= a for a, b in zip(gammas, gammas[1:])):
            raise _UsageError("--gamma-path must be strictly decreasing")
        if any(g <= 0 for g in gammas):
            raise _UsageError("--gamma-path entries must be positive")
        return gammas
    if args.gamma_count < 1:
        raise _UsageError("--gamma-count must be >= 1")
    return list(default_gamma_path(problem, args.gamma_count))


def _solve_path(method, problem, gammas, args) -> PathSolution:
    """Solve along `gammas`; squared loss also takes a single gamma of zero."""
    if gammas[0] == 0:
        if method == "robust":
            raise _UsageError("the robust solver needs positive gamma values")
        return PathSolution((soft_impute(problem, gammas[0], None, args.tol, args.max_iters),))
    config = SolverConfig(gamma_path=tuple(gammas),
                          cutoff=args.cutoff if method == "robust" else None,
                          epsilon=args.tol, max_inner_iters=args.max_iters)
    return solve_path(method, problem, config)


def _diagnostics_entries(method, path):
    return [{
        "method": method,
        "gamma": sol.gamma,
        "c": sol.cutoff,
        "iterations": sol.iterations,
        "svd_count": sol.svd_count,
        "final_rank": sol.final_rank,
        "objective_final": sol.objective_trace[-1],
        "converged": sol.converged,
    } for sol in path]


def _write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# the environment variables that set the BLAS thread count, which can move
# the last digits of every SVD
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_manifest(out_dir, command, args, extra=None):
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")}
    payload = {
        "command": command,
        "tool": "robustmc",
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "environment": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            **{var: os.environ.get(var) for var in THREAD_VARIABLES},
        },
    }
    if extra:
        payload.update(extra)
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def _ensure_out_dir(args):
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _convergence_exit(args, ok) -> int:
    if ok or args.allow_nonconverged:
        return 0
    sys.stderr.write("robustmc: some solves did not converge "
                     "(rerun with --allow-nonconverged to accept them)\n")
    return 3


def cmd_complete(args) -> int:
    out_dir = _ensure_out_dir(args)
    problem = read_matrix_csv(args.input, header=args.header)
    gammas = _resolve_gammas(args, problem)
    method = "soft" if args.no_robust else "robust"
    path = _solve_path(method, problem, gammas, args)
    write_matrix_csv(os.path.join(out_dir, "completed.csv"), path[-1].y_hat)
    _write_json(os.path.join(out_dir, "diagnostics.json"), {
        "input": args.input,
        "entries": _diagnostics_entries(method, path),
    })
    _write_manifest(out_dir, "complete", args,
                    extra={"resolved_gamma_path": list(gammas)})
    return _convergence_exit(args, path.all_converged)


def cmd_outliers(args) -> int:
    out_dir = _ensure_out_dir(args)
    problem = read_matrix_csv(args.input, header=args.header)
    gammas = _resolve_gammas(args, problem)
    path = _solve_path("robust", problem, gammas, args)
    sol = path[-1]
    s_hat = extract_sparse(problem, sol.y_hat, sol.cutoff)
    write_matrix_csv(os.path.join(out_dir, "outliers.csv"), s_hat)
    rows, cols = np.nonzero(s_hat)
    entries = sorted(
        ((int(i), int(j), float(s_hat[i, j])) for i, j in zip(rows, cols)),
        key=lambda t: (-abs(t[2]), t[0], t[1]),
    )
    lines = ["row,col,value"] + [f"{i},{j},{v!r}" for i, j, v in entries]
    atomic_write_text(os.path.join(out_dir, "outlier_locations.csv"), "\n".join(lines) + "\n")
    _write_json(os.path.join(out_dir, "diagnostics.json"), {
        "input": args.input,
        "gamma": sol.gamma,
        "c": sol.cutoff,
        "flagged": len(entries),
        "entries": _diagnostics_entries("robust", path),
    })
    _write_manifest(out_dir, "outliers", args,
                    extra={"resolved_gamma_path": list(gammas)})
    return _convergence_exit(args, path.all_converged)


def _methods_from(args):
    return ("robust", "soft") if args.method == "both" else (args.method,)


def _format_float(v) -> str:
    return repr(float(v))


def cmd_simulate(args) -> int:
    if args.gamma is not None or args.gamma_path is not None:
        raise _UsageError("simulate derives a gamma path per replicate; "
                          "set its length with --gamma-count")
    out_dir = _ensure_out_dir(args)
    try:
        spec = SyntheticSpec(args.n, args.n, args.rank, args.snr,
                             args.outlier_prob, args.missing_prob, seed=0)
        if args.replicates < 1:
            raise _UsageError("--replicates must be >= 1")
    except RobustMcError as exc:
        raise _UsageError(str(exc)) from None
    methods = _methods_from(args)
    results = run_benchmark([spec], methods, args.replicates, args.seed,
                            gamma_count=args.gamma_count, epsilon=args.tol,
                            max_inner_iters=args.max_iters, cutoff=args.cutoff)
    lines = [BENCH_CSV_HEADER]
    for res in results:
        for rec in res.records:
            lines.append(",".join([
                res.setting_id, str(rec.replicate), res.method, str(rec.gamma_index),
                str(rec.fitted_rank), _format_float(rec.training_error),
                _format_float(rec.test_error), str(rec.svd_count),
            ]))
    atomic_write_text(os.path.join(out_dir, "results.csv"), "\n".join(lines) + "\n")
    summary = []
    any_failure = False
    all_converged = True
    for res in results:
        all_converged &= all(rec.converged for rec in res.records)
        any_failure |= bool(res.failures)
        summary.append({
            "setting": res.setting_id,
            "method": res.method,
            "replicates": res.replicates,
            "mean_best_test_error": res.mean_best_test_error,
            "per_rank": [dataclasses.asdict(s) for s in res.rank_summaries()],
            "failures": [list(f) for f in res.failures],
        })
    _write_json(os.path.join(out_dir, "results.json"), {"settings": summary})
    _write_manifest(out_dir, "simulate", args)
    if any_failure:
        sys.stderr.write("robustmc: some replicates failed; see results.json\n")
        return 2
    return _convergence_exit(args, all_converged)


def _image_test_error(inst, y):
    """Test error; with nothing unobserved, score against the clean image."""
    if (~inst.mask.flags).any():
        return test_error(inst, y)
    return float(np.sum((inst.x0 - y) ** 2) / np.sum(inst.x0 ** 2))


def cmd_inpaint(args) -> int:
    out_dir = _ensure_out_dir(args)
    img = read_pgm(args.image)
    if args.missing == "none":
        missing = MissingSpec.none()
    elif args.missing == "independent":
        missing = MissingSpec.independent(
            0.4 if args.missing_frac is None else args.missing_frac)
    else:
        missing = MissingSpec.clustered(
            0.1 if args.missing_frac is None else args.missing_frac, args.patch_size)
    try:
        ranks = [int(r) for r in str(args.ranks).split(",") if r.strip() != ""]
    except ValueError:
        raise _UsageError(f"--ranks: cannot parse {args.ranks!r}") from None
    if args.replicates < 1:
        raise _UsageError("--replicates must be >= 1")
    methods = _methods_from(args)
    records = {m: [] for m in methods}
    best = {m: [] for m in methods}
    paths = []
    first_instance = None
    first_recovered = {}
    for rep in range(args.replicates):
        inst = degrade_image(img, args.snr, args.outlier_frac, args.outlier_snr,
                             missing, replicate_seed(args.seed, 0, rep))
        problem = inst.problem()
        gammas = _resolve_gammas(args, problem)
        if first_instance is None:
            first_instance = inst
        for m in methods:
            path = _solve_path(m, problem, gammas, args)
            paths.append(path)
            errs = []
            for gi, sol in enumerate(path):
                tr = training_error(inst, sol.y_hat)
                te = _image_test_error(inst, sol.y_hat)
                errs.append(te)
                records[m].append(PathRecord(rep, gi, sol.gamma, sol.final_rank,
                                             tr, te, sol.svd_count, sol.converged))
            best[m].append(min(errs))
            if rep == 0:
                first_recovered[m] = path[int(np.argmin(errs))].y_hat
    write_pgm(os.path.join(out_dir, "degraded.pgm"),
              np.where(first_instance.mask.flags, first_instance.x, 0.0))
    for m, y in first_recovered.items():
        write_pgm(os.path.join(out_dir, f"recovered_{m}.pgm"), y)
    table = []
    for rank in ranks:
        row = {"rank": rank, "methods": {}}
        for m in methods:
            summaries = {s.rank: s for s in summarize_by_rank(records[m])}
            s = summaries.get(rank)
            row["methods"][m] = None if s is None else {
                "n": s.n,
                "mean_training_error": s.mean_training_error,
                "se_training_error": s.se_training_error,
                "mean_test_error": s.mean_test_error,
                "se_test_error": s.se_test_error,
                "mean_svd_count": s.mean_svd_count,
            }
        table.append(row)
    _write_json(os.path.join(out_dir, "errors.json"), {
        "image": args.image,
        "mechanism": missing.mode,
        "missing_rate": missing.rate,
        "snr": args.snr,
        "outlier_frac": args.outlier_frac,
        "outlier_snr": args.outlier_snr,
        "replicates": args.replicates,
        "ranks": table,
        "mean_best_test_error": {m: float(np.mean(v)) for m, v in best.items()},
    })
    _write_manifest(out_dir, "inpaint", args)
    return _convergence_exit(args, all(p.all_converged for p in paths))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"robustmc: {exc}\n")
        return 1
    except (RobustMcError, OSError) as exc:
        sys.stderr.write(f"robustmc: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
