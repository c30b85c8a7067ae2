import gc
import json
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
import scipy
import scipy.linalg

import robustmc
from robustmc import ObservationMask, SvdError
from robustmc.cli import BENCH_CSV_HEADER, main
from robustmc.matio import read_matrix_csv, read_pgm, write_matrix_csv, write_pgm

from oracles import csv_text


def write_fixture_csv(path, seed=80, n=6, outliers=((1, 1, 9.0), (4, 2, -8.0)),
                      observed=0.8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2)) @ rng.standard_normal((n, 2)).T
    x += 0.05 * rng.standard_normal((n, n))
    flags = rng.random((n, n)) < observed
    for i, j, v in outliers:
        x[i, j] += v
        flags[i, j] = True
    path.write_text(csv_text(x, flags))
    return x, ObservationMask(flags)


class TestComplete:
    def test_fully_observed_gamma_zero_round_trips(self, tmp_path):
        src = tmp_path / "in.csv"
        rng = np.random.default_rng(81)
        x = rng.standard_normal((5, 5))
        write_matrix_csv(src, x)
        out = tmp_path / "out"
        code = main(["complete", str(src), "--gamma", "0", "--no-robust",
                     "--out-dir", str(out)])
        assert code == 0
        result = read_matrix_csv(out / "completed.csv")
        assert np.array_equal(result.values, x)

    def test_gamma_zero_keeps_the_sign_of_zero(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("-0.0,NA\nNA,0.0\n")
        out = tmp_path / "out"
        assert main(["complete", str(src), "--gamma", "0", "--no-robust",
                     "--out-dir", str(out)]) == 0
        assert (out / "completed.csv").read_text() == "-0.0,0.0\n0.0,0.0\n"

    def test_huge_gamma_gives_zero_matrix(self, tmp_path):
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        out = tmp_path / "out"
        code = main(["complete", str(src), "--gamma", "1e9", "--out-dir", str(out)])
        assert code == 0
        result = read_matrix_csv(out / "completed.csv")
        assert not result.values.any()

    def test_auto_path_diagnostics(self, tmp_path):
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        out = tmp_path / "out"
        code = main(["complete", str(src), "--gamma-count", "8", "--out-dir", str(out)])
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert len(diag["entries"]) == 8
        for entry in diag["entries"]:
            assert entry["converged"] is True
            assert np.isfinite(entry["objective_final"])
            assert entry["method"] == "robust"
            assert entry["c"] > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "complete"
        assert "config" in manifest and "resolved_gamma_path" in manifest
        # nothing in `complete` is random, so it takes no seed
        assert manifest["seed"] is None and "seed" not in manifest["config"]

    def test_manifest_records_the_numeric_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        out = tmp_path / "out"
        assert main(["complete", str(src), "--gamma-count", "3", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None,
        }

    def test_a_partial_svd_run_loads_no_scipy_linalg_or_sparse(self, tmp_path):
        # importing either costs a process about 0.3 s and 30 MiB; only the
        # gesvd fallback may load scipy.linalg
        src = tmp_path / "in.csv"
        write_fixture_csv(src, n=240)
        script = f"""
import json, sys
from robustmc import cli, matcore
real, taken = matcore._partial_svd, []

def spied(*args):
    result = real(*args)
    taken.append(result is not None)
    return result

matcore._partial_svd = spied
code = cli.main(["complete", {str(src)!r}, "--gamma-count", "3",
                 "--out-dir", {str(tmp_path / "out")!r}])
print(json.dumps({{"code": code, "partial": any(taken), "loaded": sorted(
    m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse")))}}))
"""
        src_dir = os.path.dirname(os.path.dirname(robustmc.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        assert json.loads(run.stdout) == {"code": 0, "partial": True, "loaded": []}

    @pytest.mark.parametrize("flags,cutoff", [(["--c", "0.5"], 0.5), (["--no-robust"], None)])
    def test_diagnostics_report_the_cutoff_used(self, tmp_path, flags, cutoff):
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        out = tmp_path / "out"
        assert main(["complete", str(src), "--gamma-count", "4", "--out-dir", str(out)] + flags) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert [e["c"] for e in diag["entries"]] == [cutoff] * 4

    def test_reruns_are_bit_identical(self, tmp_path):
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        args = ["complete", str(src), "--gamma-count", "6"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "completed.csv").read_bytes() == (out2 / "completed.csv").read_bytes()
        assert (out1 / "diagnostics.json").read_bytes() == (out2 / "diagnostics.json").read_bytes()


    def test_byte_order_mark_completes_as_the_plain_file(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_fixture_csv(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for src in (plain, marked):
            assert main(["complete", str(src), "--out-dir", str(tmp_path / src.stem)]) == 0
        completed = [(tmp_path / d / "completed.csv").read_bytes() for d in ("plain", "marked")]
        assert completed[0] == completed[1]


class TestOutliers:
    def test_clean_fixture_yields_empty_list(self, tmp_path):
        src = tmp_path / "in.csv"
        write_fixture_csv(src, outliers=())
        out = tmp_path / "out"
        code = main(["outliers", str(src), "--gamma-count", "5", "--c", "1e6",
                     "--out-dir", str(out)])
        assert code == 0
        lines = (out / "outlier_locations.csv").read_text().splitlines()
        assert lines == ["row,col,value"]

    def test_planted_spike_ranks_first(self, tmp_path):
        src = tmp_path / "in.csv"
        write_fixture_csv(src, outliers=((2, 3, 25.0),))
        out = tmp_path / "out"
        code = main(["outliers", str(src), "--out-dir", str(out)])
        assert code == 0
        lines = (out / "outlier_locations.csv").read_text().splitlines()
        assert len(lines) >= 2
        row, col, value = lines[1].split(",")
        assert (int(row), int(col)) == (2, 3)
        assert float(value) > 0

    def test_support_inside_mask(self, tmp_path):
        src = tmp_path / "in.csv"
        _, mask = write_fixture_csv(src)
        out = tmp_path / "out"
        assert main(["outliers", str(src), "--out-dir", str(out)]) == 0
        s = read_matrix_csv(out / "outliers.csv").values
        assert not s[~mask.flags].any()


class TestSimulate:
    def test_smoke_and_determinism(self, tmp_path):
        args = ["simulate", "--n", "20", "--rank", "2", "--replicates", "2",
                "--gamma-count", "6", "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        csv1 = (out1 / "results.csv").read_bytes()
        assert csv1 == (out2 / "results.csv").read_bytes()
        header, first = csv1.decode().splitlines()[:2]
        assert header == ("setting,replicate,method,gamma_index,fitted_rank,"
                          "training_error,test_error,svd_count")
        assert first.startswith("n20x20_r2_s1_p0.1_q0.5,0,robust,0,")
        summary = json.loads((out1 / "results.json").read_text())
        methods = {s["method"] for s in summary["settings"]}
        assert methods == {"robust", "soft"}

    @pytest.mark.parametrize("flag,value", [("--gamma", "5.0"), ("--gamma-path", "5,1")])
    def test_gamma_flags_are_usage_errors(self, tmp_path, capsys, flag, value):
        code = main(["simulate", "--n", "30", "--rank", "3", "--replicates", "1",
                     "--method", "robust", flag, value, "--out-dir", str(tmp_path)])
        assert code == 1
        assert "--gamma-count" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_fully_observed_instances_are_scored(self, tmp_path):
        # nothing is missing, so test error is taken on every entry
        out = tmp_path / "out"
        code = main(["simulate", "--n", "20", "--rank", "2", "--missing-prob", "0",
                     "--replicates", "2", "--gamma-count", "4", "--out-dir", str(out)])
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2 * 4
        summary = json.loads((out / "results.json").read_text())
        assert all(s["mean_best_test_error"] > 0 and not s["failures"]
                   for s in summary["settings"])

    def test_every_replicate_failing_still_writes_results_json(self, tmp_path, capsys,
                                                              monkeypatch):
        def fail(*args, **kwargs):
            raise SvdError("SVD failed to converge")

        monkeypatch.setattr("robustmc.experiments.solve_path", fail)
        out = tmp_path / "out"
        code = main(["simulate", "--n", "20", "--rank", "2", "--replicates", "2",
                     "--gamma-count", "4", "--out-dir", str(out)])
        assert code == 2
        assert "some replicates failed" in capsys.readouterr().err
        assert (out / "results.csv").read_text().splitlines() == [BENCH_CSV_HEADER]
        summary = json.loads((out / "results.json").read_text())
        assert [s["method"] for s in summary["settings"]] == ["robust", "soft"]
        for s in summary["settings"]:
            assert s["mean_best_test_error"] is None
            assert s["per_rank"] == []
            assert s["failures"] == [[0, "SVD failed to converge"],
                                     [1, "SVD failed to converge"]]

    def test_invalid_spec_is_usage_error(self, tmp_path):
        code = main(["simulate", "--n", "10", "--rank", "40",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_a_dead_worker_is_a_data_error_and_leaves_no_process(self, tmp_path, capsys,
                                                                 monkeypatch, processes):
        from robustmc import experiments

        caller, real = os.getpid(), experiments.soft_impute_path

        def soft(problem, config):
            if os.getpid() != caller:
                os._exit(1)
            return real(problem, config)

        monkeypatch.setattr(experiments, "soft_impute_path", soft)
        processes(2)
        out = tmp_path / "out"
        code = main(["simulate", "--n", "20", "--rank", "2", "--replicates", "2",
                     "--method", "soft", "--gamma-count", "4", "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("robustmc: a worker process solving")
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_importing_the_cli_loads_no_process_pool(self):
        # the pool is imported only when a study runs on several processes
        script = ("import json, sys, robustmc.cli\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
                  "('multiprocessing', 'concurrent')))))")
        src_dir = os.path.dirname(os.path.dirname(robustmc.__file__))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src_dir), timeout=120, check=True)
        assert json.loads(run.stdout) == []


def write_fixture_pgm(path, n=24):
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
    write_pgm(path, 0.5 + 0.3 * np.sin(2 * np.pi * xx) * np.cos(np.pi * yy))


INPAINT_OUTPUTS = ("errors.json", "degraded.pgm", "recovered_robust.pgm", "recovered_soft.pgm")


class TestInpaint:
    def test_smoke(self, tmp_path):
        rng = np.random.default_rng(82)
        n = 32
        yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
        img = 0.5 + 0.3 * np.sin(2 * np.pi * xx) * np.cos(np.pi * yy)
        src = tmp_path / "img.pgm"
        write_pgm(src, img)
        out = tmp_path / "out"
        code = main(["inpaint", str(src), "--missing", "independent",
                     "--missing-frac", "0.3", "--gamma-count", "8",
                     "--ranks", "2,3", "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        assert read_pgm(out / "degraded.pgm").shape == (n, n)
        assert read_pgm(out / "recovered_robust.pgm").shape == (n, n)
        assert read_pgm(out / "recovered_soft.pgm").shape == (n, n)
        errors = json.loads((out / "errors.json").read_text())
        assert errors["mechanism"] == "independent"
        assert {"robust", "soft"} <= set(errors["mean_best_test_error"])
        assert len(errors["ranks"]) == 2

    def test_easy_regime_recovers_original(self, tmp_path):
        n = 32
        yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
        img = 0.5 + 0.25 * np.sin(2 * np.pi * xx) * np.cos(np.pi * yy)
        src = tmp_path / "img.pgm"
        write_pgm(src, img)
        out = tmp_path / "out"
        code = main(["inpaint", str(src), "--snr", "1e9", "--outlier-frac", "0",
                     "--missing", "none", "--gamma-count", "12", "--seed", "1",
                     "--out-dir", str(out)])
        assert code == 0
        errors = json.loads((out / "errors.json").read_text())
        assert errors["mean_best_test_error"]["robust"] < 1e-3
        assert errors["mean_best_test_error"]["soft"] < 1e-3

    def test_clustered_missing_patches(self, tmp_path):
        src, out = tmp_path / "img.pgm", tmp_path / "out"
        write_fixture_pgm(src)
        code = main(["inpaint", str(src), "--missing", "clustered", "--missing-frac", "0.2",
                     "--patch-size", "4", "--snr", "1e9", "--outlier-frac", "0",
                     "--gamma-count", "4", "--ranks", "2", "--out-dir", str(out)])
        assert code == 0
        errors = json.loads((out / "errors.json").read_text())
        assert (errors["mechanism"], errors["missing_rate"]) == ("clustered", 0.2)
        unobserved = read_pgm(out / "degraded.pgm") == 0.0
        assert 0.2 <= unobserved.mean() <= 0.2 + 16 / 24**2  # at most one patch over

    def test_p2_pixel_above_maxval_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        src.write_bytes(b"P2\n2 2\n255\n0 1 2 300\n")
        assert main(["inpaint", str(src), "--out-dir", str(tmp_path / "out")]) == 2
        assert "pixel outside [0, 255]" in capsys.readouterr().err

    def test_flat_image_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        write_pgm(src, np.full((16, 16), 0.5))
        out = tmp_path / "out"
        assert main(["inpaint", str(src), "--out-dir", str(out)]) == 2
        assert "zero variance" in capsys.readouterr().err
        assert not (out / "errors.json").exists()

    def test_unreadable_image_is_data_error(self, tmp_path):
        bad = tmp_path / "img.pgm"
        bad.write_bytes(b"not a pgm")
        assert main(["inpaint", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_failed_solve_is_data_error_and_writes_nothing(self, tmp_path, capsys,
                                                           monkeypatch):
        def fail(*args, **kwargs):
            raise SvdError("SVD failed to converge")

        monkeypatch.setattr("robustmc.experiments.robust_impute", fail)
        src, out = tmp_path / "img.pgm", tmp_path / "out"
        write_fixture_pgm(src)
        assert main(["inpaint", str(src), "--gamma-count", "4", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "robustmc: SVD failed to converge\n"
        assert not out.exists()

    def test_reruns_are_bit_identical(self, tmp_path):
        src = tmp_path / "img.pgm"
        write_fixture_pgm(src)
        args = ["inpaint", str(src), "--replicates", "2", "--gamma-count", "4", "--seed", "5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        for name in INPAINT_OUTPUTS:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_at_most_one_solved_path_is_alive(self, tmp_path, monkeypatch, processes, n):
        # the per-solve check runs in every process; `paths` sees the caller's solves
        from robustmc import experiments

        processes(n)
        paths = []

        def tracked(solver):
            def solve(*args, **kwargs):
                gc.collect()
                assert [ref for ref in paths if ref() is not None] == []
                path = solver(*args, **kwargs)
                paths.append(weakref.ref(path))
                return path
            return solve

        for name in ("robust_impute", "soft_impute_path"):
            monkeypatch.setattr(experiments, name, tracked(getattr(experiments, name)))
        src, out = tmp_path / "img.pgm", tmp_path / "out"
        write_fixture_pgm(src)
        assert main(["inpaint", str(src), "--replicates", "2", "--gamma-count", "4",
                     "--out-dir", str(out)]) == 0
        assert len(paths) == 2 * 2 // n
        assert all((out / name).exists() for name in INPAINT_OUTPUTS)


class TestGammaPathResolution:
    """Each replicate resolves one automatic gamma path, which its methods
    share; an explicit path is never resolved."""

    @pytest.fixture
    def path_calls(self, monkeypatch):
        from robustmc import experiments, solvers

        calls = []
        original = solvers.default_gamma_path

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (solvers, experiments, robustmc.cli):
            monkeypatch.setattr(module, "default_gamma_path", counted)
        return calls

    def test_run_benchmark_resolves_once_per_replicate(self, path_calls):
        spec = robustmc.SyntheticSpec(15, 15, 2, 1.0, 0.1, 0.4)
        robustmc.run_benchmark(spec, ["robust", "soft"], 3, seed=5)
        assert len(path_calls) == 3

    def test_inpaint_resolves_once_per_replicate(self, tmp_path, path_calls):
        src = tmp_path / "img.pgm"
        write_fixture_pgm(src)
        assert main(["inpaint", str(src), "--replicates", "2", "--method", "both",
                     "--gamma-count", "4", "--out-dir", str(tmp_path / "out")]) == 0
        assert len(path_calls) == 2

    def test_complete_resolves_only_the_automatic_path(self, tmp_path, path_calls):
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        head = ["complete", str(src), "--allow-nonconverged"]
        assert main(head + ["--gamma-path", "3,1,0.5", "--out-dir", str(tmp_path / "a")]) == 0
        assert len(path_calls) == 0
        assert main(head + ["--gamma-count", "4", "--out-dir", str(tmp_path / "b")]) == 0
        assert len(path_calls) == 1


def _bad_values(commands, *values):
    return [(command, value) for value in values for command in commands]


ALL_COMMANDS = ("complete", "outliers", "simulate", "inpaint")
PATH_COMMANDS = ("complete", "outliers", "inpaint")  # the ones that take a gamma

BAD_FLAG_VALUES = (
    _bad_values(ALL_COMMANDS, ["--tol", "0"], ["--tol", "nan"], ["--max-iters", "0"],
                ["--c", "-1"], ["--c", "inf"], ["--gamma-count", "0"])
    + _bad_values(PATH_COMMANDS, ["--gamma", "nan"], ["--gamma", "-1"],
                  ["--gamma-path", "3,nan"], ["--gamma-path", ","], ["--gamma-path", "3,x"],
                  ["--gamma", "1", "--gamma-path", "3,2"])
    + _bad_values(("simulate", "inpaint"), ["--replicates", "0"])
    # simulate keeps its gamma flags only to refuse them: without them, argparse
    # would take `--gamma 1` for an abbreviated `--gamma-count 1` and run
    + _bad_values(("simulate",), ["--gamma", "1"], ["--gamma-path", "3,2"])
    + _bad_values(("inpaint",), ["--missing-frac", "1.5"], ["--snr", "0"],
                  ["--outlier-frac", "1.5"], ["--outlier-snr", "-1"],
                  ["--method", "soft", "--gamma", "0"], ["--ranks", "50,x"],
                  ["--ranks=-1,0"])
)


class TestExitCodes:
    @pytest.mark.parametrize("command,bad", BAD_FLAG_VALUES,
                             ids=[" ".join([c] + b) for c, b in BAD_FLAG_VALUES])
    def test_bad_flag_value_exits_1_before_any_input_is_read(self, tmp_path, capsys,
                                                            command, bad):
        csv, pgm = tmp_path / "in.csv", tmp_path / "img.pgm"
        write_fixture_csv(csv)
        write_pgm(pgm, np.random.default_rng(83).random((16, 16)))
        head = {"complete": ["complete", str(csv)], "outliers": ["outliers", str(csv)],
                "simulate": ["simulate", "--n", "20", "--rank", "2", "--replicates", "1"],
                "inpaint": ["inpaint", str(pgm), "--replicates", "1"]}[command]
        out = tmp_path / "out"
        argv = head + ["--gamma-count", "3", "--out-dir", str(out)] + bad
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("robustmc: ")
        assert not out.exists() or not any(out.iterdir())
        csv.unlink()
        pgm.unlink()
        assert main(argv) == 1  # an unreadable input would exit 2

    def test_usage_error_on_unknown_flag(self):
        assert main(["complete", "x.csv", "--frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["complete", "outliers"])
    def test_seed_is_refused_where_nothing_is_random(self, tmp_path, capsys, command):
        src, out = tmp_path / "in.csv", tmp_path / "out"
        write_fixture_csv(src)
        assert main([command, str(src), "--seed", "1", "--out-dir", str(out)]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_on_missing_subcommand(self):
        assert main([]) == 1

    def test_usage_error_on_bad_gamma_path(self, tmp_path):
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        assert main(["complete", str(src), "--gamma-path", "1,2,3",
                     "--out-dir", str(tmp_path)]) == 1

    def test_usage_error_on_gamma_zero_for_robust(self, tmp_path):
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        assert main(["complete", str(src), "--gamma", "0",
                     "--out-dir", str(tmp_path)]) == 1

    def test_data_error_on_missing_file(self, tmp_path):
        assert main(["complete", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_data_error_on_fully_missing_csv(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("NA,NA\nNA,NA\n")
        assert main(["complete", str(src), "--out-dir", str(tmp_path)]) == 2

    def test_data_error_on_all_zero_observations_for_the_automatic_path(self, tmp_path,
                                                                         capsys):
        src = tmp_path / "in.csv"
        src.write_text("0,0\n0,NA\n")
        assert main(["complete", str(src), "--out-dir", str(tmp_path / "out")]) == 2
        assert "identically zero" in capsys.readouterr().err

    @pytest.mark.parametrize("name,content,command", [
        ("in.csv", b"0,0\n0,NA\n", "complete"),
        ("img.pgm", b"P2\n2 2\n255\n0 1 2 300\n", "inpaint"),
    ])
    @pytest.mark.parametrize("existed", [False, True])
    def test_a_data_error_removes_only_an_out_dir_it_made(self, tmp_path, name, content,
                                                          command, existed):
        src, out = tmp_path / name, tmp_path / "out"
        src.write_bytes(content)
        if existed:
            out.mkdir()
        assert main([command, str(src), "--out-dir", str(out)]) == 2
        assert out.exists() == existed

    def test_data_error_on_non_utf8_csv(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_bytes(b"\xff\xfe1,2\n3,4\n")
        assert main(["complete", str(src), "--out-dir", str(tmp_path / "out")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_data_error_on_objective_overflow(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,1e200\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["complete", str(src), "--allow-nonconverged", "--out-dir", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert re.fullmatch(r"robustmc: objective overflowed float64 at gamma \S+; "
                            r"rescale the input\n", capsys.readouterr().err)
        assert not (out / "diagnostics.json").exists()

    def test_data_error_when_both_svd_drivers_fail(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(scipy.linalg, "svd", fail)
        assert main(["complete", str(src), "--out-dir", str(tmp_path / "out")]) == 2

    def test_nonconvergence_exit_and_override(self, tmp_path):
        src = tmp_path / "in.csv"
        write_fixture_csv(src)
        out = tmp_path / "out"
        args = ["complete", str(src), "--gamma-count", "4", "--tol", "1e-14",
                "--max-iters", "2", "--out-dir", str(out)]
        assert main(args) == 3
        assert main(args + ["--allow-nonconverged"]) == 0

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "robustmc" in capsys.readouterr().out
