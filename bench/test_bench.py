"""Fast tests of the benchmark itself, on reduced workloads.

Each reduced workload runs one round through the real CLI in a child
process, as the benchmark does.  Run with

    python -m pytest -q bench/test_bench.py
"""

import json
import os

import numpy as np
import pytest

import layertrace
from run import run_workload
from workloads import CheckFailed, Complete, Inpaint, Simulate

SEED = 3
END_TO_END = {"wall_s", "setup_s", "peak_rss_mb", "robust_test_rse"}


def _run(workload, work, trace=False):
    result, record = run_workload(workload, SEED, 0, trace, str(work), setup_spawns=1)
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.fixture(scope="module")
def simulate(tmp_path_factory):
    wl = Simulate(n=40, rank=4, replicates=2)
    return wl, _run(wl, tmp_path_factory.mktemp("simulate"))


@pytest.fixture(scope="module")
def inpaint(tmp_path_factory):
    wl = Inpaint(n=64, patch=8)
    return wl, _run(wl, tmp_path_factory.mktemp("inpaint"))


@pytest.fixture(scope="module")
def complete(tmp_path_factory):
    wl = Complete(n=120, rank=4)
    return wl, _run(wl, tmp_path_factory.mktemp("complete"))


@pytest.mark.parametrize("name", ["simulate", "inpaint", "complete"])
def test_reduced_workload_passes_its_checks(name, request):
    _, result = request.getfixturevalue(name)
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["robust_test_rse"]["value"] < 1.0


class _Edited:
    """Rewrite one output file for the duration of a `with` block."""

    def __init__(self, path, edit):
        self.path, self.edit = path, edit

    def __enter__(self):
        with open(self.path, "rb") as fh:
            self.original = fh.read()
        edited = self.edit(self.original)
        with open(self.path, "wb") as fh:
            fh.write(edited)

    def __exit__(self, *exc):
        with open(self.path, "wb") as fh:
            fh.write(self.original)


def test_perturbed_completed_entry_fails_the_objective_check(complete):
    wl, _ = complete
    path = os.path.join(wl.out, "completed.csv")

    def perturb(data):
        y = np.loadtxt(data.decode().splitlines(), delimiter=",")
        y[5, 7] += 1e-3 * np.abs(y).max()
        return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in y).encode()

    with _Edited(path, perturb):
        with pytest.raises(CheckFailed, match="objective"):
            wl.check()
    wl.check()


def test_results_json_mean_disagreeing_with_csv_fails(simulate):
    wl, _ = simulate
    path = os.path.join(wl.out, "results.json")

    def shift_mean(data):
        doc = json.loads(data)
        doc["settings"][0]["mean_best_test_error"] *= 1.0 + 1e-9
        return json.dumps(doc).encode()

    with _Edited(path, shift_mean):
        with pytest.raises(CheckFailed, match="mean best test error"):
            wl.check()
    wl.check()


def test_flat_recovered_image_fails_the_error_check(inpaint):
    wl, _ = inpaint
    path = os.path.join(wl.out_dir("independent"), "recovered_robust.pgm")

    def flatten(data):
        header_len = len(data) - wl.n * wl.n
        return data[:header_len] + bytes([128]) * (wl.n * wl.n)

    with _Edited(path, flatten):
        with pytest.raises(CheckFailed, match="test error"):
            wl.check()
    wl.check()


def test_traced_run_reports_layers_and_keeps_results_csv(simulate, tmp_path):
    wl, _ = simulate
    with open(os.path.join(wl.out, "results.csv"), "rb") as fh:
        untraced = fh.read()
    traced_wl = Simulate(n=40, rank=4, replicates=2)
    result = _run(traced_wl, tmp_path, trace=True)
    with open(os.path.join(traced_wl.out, "results.csv"), "rb") as fh:
        assert fh.read() == untraced
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["matcore.svd_calls"] == m["solvers.svd_count"] + m["matcore.uncounted_svd_calls"]
    assert m["solvers.iterations"] > 0 and m["huber.pseudo_data_calls"] > 0
    assert 0.0 < m["matcore.kept_sv_fraction"] < 1.0


class _Capped(Complete):
    """complete-600, reduced, with one iteration per stage: every call exits 3."""

    def prepare(self, work, seed):
        return [argv + ["--max-iters", "1"] for argv in super().prepare(work, seed)]


def test_failed_operations_are_counted_not_crashed(tmp_path):
    result, record = run_workload(_Capped(n=60, rank=3), SEED, 0, False, str(tmp_path),
                                  setup_spawns=1)
    assert not result["correct"] and record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert set(result["metrics"]) == END_TO_END - {"robust_test_rse"}
    assert [c for r in record["rounds"] for c in r["codes"]] == [3] * result["attempted"]


def test_missing_binding_stops_the_tracer(monkeypatch):
    monkeypatch.setattr(layertrace, "BINDINGS",
                        (("robustmc.solvers", "no_such_function", "solvers", "path"),))
    with pytest.raises(layertrace.MissingBinding, match="no_such_function"):
        layertrace.Tracer.install()
