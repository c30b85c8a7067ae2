import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import identity  # noqa: E402

REDUCED = [
    ("outliers", ("outliers", "partial.csv", "--gamma-count", "3", "--out-dir", "outliers")),
    ("usage", ("complete", "full.csv", "--tol", "0", "--out-dir", "usage")),
]


def _src_is_clean():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        return False
    status = subprocess.run(["git", "-C", str(REPO), "status", "--porcelain", "--", "src"],
                            capture_output=True, text=True)
    return status.returncode == 0 and status.stdout == ""


@pytest.mark.skipif(not _src_is_clean(), reason="needs git and an unmodified src/")
def test_head_against_its_own_tree_reports_no_difference():
    summary = identity.identity("HEAD", REDUCED)
    assert summary["identical"], summary["differences"]
    assert summary["calls"] == 2
    assert summary["files"] > 4  # the generated inputs and the outputs


def test_planted_byte_is_reported_with_its_file(tmp_path):
    runs = identity.run_battery(REPO / "src", tmp_path / "base", REDUCED[:1])
    assert runs["outliers"][0] == 0
    shutil.copytree(tmp_path / "base", tmp_path / "head")
    assert identity.compare(tmp_path / "base", runs, tmp_path / "head", runs) == []
    target = tmp_path / "head" / "outliers" / "outlier_locations.csv"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    assert identity.compare(tmp_path / "base", runs, tmp_path / "head", runs) == [
        "outliers/outlier_locations.csv: contents differ"]


def test_planted_ulp_is_reported_with_its_distance(tmp_path):
    runs = identity.run_battery(REPO / "src", tmp_path / "base", REDUCED[:1])
    shutil.copytree(tmp_path / "base", tmp_path / "head")
    # a header, then (row, col, value) lines: the last value of the first line moves one ulp
    target = tmp_path / "head" / "outliers" / "outlier_locations.csv"
    rows = [line.split(",") for line in target.read_text().splitlines()]
    rows[1][2] = repr(float(np.nextafter(float(rows[1][2]), np.inf)))
    target.write_text("\n".join(",".join(row) for row in rows) + "\n")
    assert identity.compare(tmp_path / "base", runs, tmp_path / "head", runs) == [
        "outliers/outlier_locations.csv: contents differ"]
    moved = identity.distance(tmp_path / "base" / "outliers" / "outlier_locations.csv", target)
    assert moved["discrete_equal"] and 1e-17 < moved["max_rel_diff"] < 3e-16
    assert 0 < moved["max_diff_over_scale"] <= moved["max_rel_diff"]


def test_distance_sees_a_discrete_change(tmp_path):
    base, head = tmp_path / "base.json", tmp_path / "head.json"
    base.write_text('{"rank": 3, "converged": true, "objective": 1.5}')
    head.write_text('{"rank": 3, "converged": false, "objective": 1.5}')
    assert identity.distance(base, head) == {
        "max_rel_diff": 0.0, "max_diff_over_scale": 0.0, "discrete_equal": False}
    head.write_text('{"rank": 3, "converged": true, "objective": 1.5000000000000002}')
    moved = identity.distance(base, head)
    assert moved["discrete_equal"] and moved["max_rel_diff"] == pytest.approx(2 ** -52 / 1.5)
