"""Command-line interface.

Four subcommands: `complete` (matrix completion from a CSV), `outliers`
(sparse outlier map of a CSV), `simulate` (seeded synthetic benchmark) and
`inpaint` (image degradation + recovery study).  Every run writes a
manifest.json carrying the fully resolved configuration, the tool version,
the master seed and the numeric environment (numpy and scipy versions, BLAS
build and thread variables), which is sufficient to reproduce the outputs exactly.

Flag values are checked before any input is read, by building the library
types they describe (SolverConfig, SyntheticSpec, MissingSpec,
DegradationSpec); every value rejected there, or by the few rules only the
CLI has, is a usage error.

Exit codes: 0 success, 1 usage error, 2 data error (an unreadable or
non-UTF-8 input, an observed matrix that is all zero, a flat image, an
objective that overflows float64, an SVD that fails, a failed `simulate`
replicate or `inpaint` solve, a dead worker process; an --out-dir the run
made is removed again if still empty), 3 at least one solve did not converge
and --allow-nonconverged was absent.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .errors import DataValidationError, RobustMcError
from .experiments import (
    METHODS,
    THREAD_VARIABLES,
    DegradationSpec,
    MissingSpec,
    SyntheticSpec,
    degrade_image,
    replicate_seed,
    run_benchmark,
    run_study,
    solve_path,
    test_error,  # unused here; the layer tracer in bench/ binds this name
    training_error,  # unused here; the layer tracer in bench/ binds this name
)
from .matio import (
    atomic_write_text,
    read_matrix_csv,
    read_pgm,
    write_matrix_csv,
    write_pgm,
)
from .solvers import (
    PathSolution,
    SolverConfig,
    default_gamma_path,  # unused here; the layer tracer in bench/ binds this name
    extract_sparse,
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
    p.add_argument("--gamma-count", type=int, default=SolverConfig.gamma_count,
                   help="points on the auto log-spaced path (default %(default)s)")
    p.add_argument("--c", dest="cutoff", type=float, default=None,
                   help="Huber cutoff; default: gamma / sqrt(max(n1,n2) * observed fraction)")
    p.add_argument("--tol", type=float, default=SolverConfig.epsilon,
                   help="relative-change stopping tolerance (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_inner_iters,
                   help="iteration cap per gamma (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out-dir", default=".", help="output directory (default .)")
    p.add_argument("--allow-nonconverged", action="store_true",
                   help="exit 0 even when some solve hit the iteration cap")
    if include_no_robust:
        p.add_argument("--no-robust", action="store_true",
                       help="plain squared-loss completion instead of the Huber solver")
    if include_method:
        p.add_argument("--method", choices=(*METHODS, "both"), default="both")


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


@contextlib.contextmanager
def _flag_values():
    """A library type built from flag values rejects them as a usage error."""
    try:
        yield
    except DataValidationError as exc:
        raise _UsageError(str(exc)) from None


def _solver_config(args) -> SolverConfig:
    """The SolverConfig the solver flags describe, built before any input is
    read.  Its gamma path is None when the input sets it: for the automatic
    path and for --gamma 0, which only `complete --no-robust` takes."""
    if args.gamma is not None and args.gamma_path is not None:
        raise _UsageError("--gamma and --gamma-path are mutually exclusive")
    if args.gamma == 0 and not getattr(args, "no_robust", False):
        raise _UsageError("--gamma must be positive; only squared-loss completion takes 0")
    gammas = None
    if args.gamma_path is not None:
        try:
            gammas = [float(tok) for tok in args.gamma_path.split(",") if tok.strip() != ""]
        except ValueError:
            raise _UsageError(f"--gamma-path: cannot parse {args.gamma_path!r}") from None
    elif args.gamma is not None and args.gamma != 0:
        gammas = [args.gamma]
    with _flag_values():
        return SolverConfig(gamma_path=gammas, cutoff=args.cutoff, epsilon=args.tol,
                            max_inner_iters=args.max_iters, gamma_count=args.gamma_count)


def _solve_input(args, method, config) -> tuple:
    """The input CSV's problem and `method`'s path along the config's gamma
    path; squared loss also takes a single gamma of zero."""
    problem = read_matrix_csv(args.input, header=args.header)
    if args.gamma == 0:
        return problem, PathSolution((soft_impute(problem, 0.0, None, config),))
    return problem, solve_path(method, problem, config)


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


def _write_manifest(command, args, extra=None):
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
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
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            **{var: os.environ.get(var) for var in THREAD_VARIABLES},
        },
    }
    if extra:
        payload.update(extra)
    _write_json(os.path.join(args.out_dir, "manifest.json"), payload)


def _convergence_exit(args, ok) -> int:
    if ok or args.allow_nonconverged:
        return 0
    sys.stderr.write("robustmc: some solves did not converge "
                     "(rerun with --allow-nonconverged to accept them)\n")
    return 3


def cmd_complete(args) -> int:
    method = "soft" if args.no_robust else "robust"
    config = _solver_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    _, path = _solve_input(args, method, config)
    write_matrix_csv(os.path.join(args.out_dir, "completed.csv"), path[-1].y_hat)
    _write_json(os.path.join(args.out_dir, "diagnostics.json"), {
        "input": args.input,
        "entries": _diagnostics_entries(method, path),
    })
    _write_manifest("complete", args,
                    extra={"resolved_gamma_path": list(path.gammas)})
    return _convergence_exit(args, path.all_converged)


def cmd_outliers(args) -> int:
    config = _solver_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    problem, path = _solve_input(args, "robust", config)
    sol = path[-1]
    s_hat = extract_sparse(problem, sol.y_hat, sol.cutoff)
    write_matrix_csv(os.path.join(args.out_dir, "outliers.csv"), s_hat)
    rows, cols = np.nonzero(s_hat)
    entries = sorted(
        ((int(i), int(j), float(s_hat[i, j])) for i, j in zip(rows, cols)),
        key=lambda t: (-abs(t[2]), t[0], t[1]),
    )
    lines = ["row,col,value"] + [f"{i},{j},{v!r}" for i, j, v in entries]
    atomic_write_text(os.path.join(args.out_dir, "outlier_locations.csv"),
                      "\n".join(lines) + "\n")
    _write_json(os.path.join(args.out_dir, "diagnostics.json"), {
        "input": args.input,
        "gamma": sol.gamma,
        "c": sol.cutoff,
        "flagged": len(entries),
        "entries": _diagnostics_entries("robust", path),
    })
    _write_manifest("outliers", args,
                    extra={"resolved_gamma_path": list(path.gammas)})
    return _convergence_exit(args, path.all_converged)


def cmd_simulate(args) -> int:
    if args.gamma is not None or args.gamma_path is not None:
        raise _UsageError("simulate derives a gamma path per replicate; "
                          "set its length with --gamma-count")
    config = _solver_config(args)
    methods = METHODS if args.method == "both" else (args.method,)
    with _flag_values():
        spec = SyntheticSpec(args.n, args.n, args.rank, args.snr,
                             args.outlier_prob, args.missing_prob, seed=0)
        # run_study owns the replicate-count rule; with no settings it only checks
        run_study([], methods, args.replicates, config)
    os.makedirs(args.out_dir, exist_ok=True)
    results = run_benchmark([spec], methods, args.replicates, args.seed, config)
    lines = [BENCH_CSV_HEADER]
    for res in results:
        for rec in res.records:
            lines.append(",".join([
                res.setting_id, str(rec.replicate), res.method, str(rec.gamma_index),
                str(rec.fitted_rank), repr(float(rec.training_error)),
                repr(float(rec.test_error)), str(rec.svd_count),
            ]))
    atomic_write_text(os.path.join(args.out_dir, "results.csv"), "\n".join(lines) + "\n")
    summary = [{
        "setting": res.setting_id,
        "method": res.method,
        "replicates": res.replicates,
        "mean_best_test_error": res.mean_best_test_error,
        "per_rank": [dataclasses.asdict(s) for s in res.rank_summaries()],
        "failures": [list(f) for f in res.failures],
    } for res in results]
    _write_json(os.path.join(args.out_dir, "results.json"), {"settings": summary})
    _write_manifest("simulate", args)
    if any(res.failures for res in results):
        sys.stderr.write("robustmc: some replicates failed; see results.json\n")
        return 2
    return _convergence_exit(args, all(r.converged for res in results for r in res.records))


def cmd_inpaint(args) -> int:
    methods = METHODS if args.method == "both" else (args.method,)
    config = _solver_config(args)
    with _flag_values():
        run_study([], methods, args.replicates, config)
        noise = DegradationSpec(args.snr, args.outlier_frac, args.outlier_snr)
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
    if any(r < 0 for r in ranks):
        raise _UsageError(f"--ranks: ranks must be nonnegative, got {args.ranks!r}")
    os.makedirs(args.out_dir, exist_ok=True)
    img = read_pgm(args.image)
    results, first, recovered = run_study(
        [(args.image, lambda rep: degrade_image(img, noise, missing,
                                                replicate_seed(args.seed, 0, rep)))],
        methods, args.replicates, config)
    failures = [f for res in results for f in res.failures]
    if failures:  # the first in solve order: replicate, then method
        raise RobustMcError(min(failures, key=lambda f: f[0])[1])
    write_pgm(os.path.join(args.out_dir, "degraded.pgm"), np.where(first.mask.flags, first.x, 0.0))
    for m, y in recovered.items():
        write_pgm(os.path.join(args.out_dir, f"recovered_{m}.pgm"), y)
    # errors.json leaves out each summary's rank and its SVD count's standard error
    cells = {m: {s.rank: {k: v for k, v in dataclasses.asdict(s).items()
                          if k not in ("rank", "se_svd_count")}
                 for s in res.rank_summaries()} for m, res in zip(methods, results)}
    table = [{"rank": rank, "methods": {m: cells[m].get(rank) for m in methods}}
             for rank in ranks]
    _write_json(os.path.join(args.out_dir, "errors.json"), {
        "image": args.image,
        "mechanism": missing.mode,
        "missing_rate": missing.rate,
        "snr": args.snr,
        "outlier_frac": args.outlier_frac,
        "outlier_snr": args.outlier_snr,
        "replicates": args.replicates,
        "ranks": table,
        "mean_best_test_error": {res.method: res.mean_best_test_error for res in results},
    })
    _write_manifest("inpaint", args)
    return _convergence_exit(args, all(r.converged for res in results for r in res.records))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fresh = not os.path.isdir(args.out_dir)
    try:
        code = args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"robustmc: {exc}\n")
        return 1
    except (RobustMcError, OSError) as exc:
        sys.stderr.write(f"robustmc: {exc}\n")
        code = 2
    if code == 2 and fresh:  # leave no empty --out-dir behind that this run made
        with contextlib.suppress(OSError):
            os.rmdir(args.out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
