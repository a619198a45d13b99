"""Smoke tests of the scripts in scripts/: each runs in-process on a shipped
scenario at a tiny size and writes only into a temporary directory. A file
a script leaves open fails its test."""

import ast
import csv
import math
import os
import runpy
import sys

import pytest

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning",
                                        "error::pytest.PytestUnraisableExceptionWarning")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(os.path.join(ROOT, "scripts", name), run_name="__main__")


def scenario(name):
    return os.path.join(ROOT, "scenarios", name)


def test_residual_sweep(monkeypatch, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_script("residual_sweep.py", scenario("field2d.scn"), "--n", "3", "--steps", "3",
               "--out", str(out), monkeypatch=monkeypatch, tmp_path=tmp_path)
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    # a = 0 is skipped: a in {-5, 5} times b in {-5, 0, 5}
    assert [(float(r["a"]), float(r["b"])) for r in rows] == \
        [(a, b) for a in (-5.0, 5.0) for b in (-5.0, 0.0, 5.0)]
    for row in rows:
        assert math.isfinite(float(row["max_qshje"])) and float(row["max_qshje"]) < 1e-9
        assert math.isfinite(float(row["max_continuity"])) and float(row["max_continuity"]) < 1e-13
        assert 0 <= int(row["skipped"]) <= 27
    assert f"wrote {out}" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


def test_residual_sweep_skips_what_verify_skips(monkeypatch, tmp_path):
    """On harmonic_numerov at 11 points per axis, every mixing skips the
    331 points of the three node planes, as verify does."""
    out = tmp_path / "sweep.csv"
    run_script("residual_sweep.py", scenario("harmonic_numerov.scn"), "--n", "11", "--steps", "3",
               "--out", str(out), monkeypatch=monkeypatch, tmp_path=tmp_path)
    with open(out) as handle:
        assert [int(row["skipped"]) for row in csv.DictReader(handle)] == [331] * 6


def test_residual_sweep_writes_nan_where_it_evaluated_nothing(monkeypatch, tmp_path, capsys):
    """Verify bounds outside the box's walls leave every mixing with no
    evaluated point: its maxima are NaN, as in verify, not 0."""
    with open(scenario("box.scn")) as handle:
        text = handle.read()
    assert text.count("x = 1, 19\n") == 1
    (tmp_path / "outside.scn").write_text(text.replace("x = 1, 19\n", "x = 25, 30\n"))
    run_script("residual_sweep.py", "outside.scn", "--n", "3", "--steps", "3", "--out", "sweep.csv",
               monkeypatch=monkeypatch, tmp_path=tmp_path)
    with open(tmp_path / "sweep.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6
    for row in rows:
        assert row["max_qshje"] == row["max_continuity"] == "nan"
        assert int(row["skipped"]) == 27
    table = capsys.readouterr().out.splitlines()[1:7]
    assert all(line.split()[2:] == ["nan", "nan", "27"] for line in table)


@pytest.mark.parametrize("name", ["field2d.scn", "harmonic_numerov.scn"])
def test_signature_scan(name, monkeypatch, tmp_path, capsys):
    n = 7
    run_script("signature_scan.py", scenario(name), "--n", str(n),
               monkeypatch=monkeypatch, tmp_path=tmp_path)
    lines = capsys.readouterr().out.splitlines()
    grid = lines[1:1 + n]
    assert all(len(row) == n for row in grid)
    census = ast.literal_eval(lines[1 + n].removeprefix("census: "))
    assert sum(census.values()) == n * n
    assert census == {ch: sum(row.count(ch) for row in grid) for ch in census}
    assert not any(tmp_path.iterdir())


def test_trajectory_portrait(monkeypatch, tmp_path, capsys):
    outdir = tmp_path / "portrait"
    run_script("trajectory_portrait.py", scenario("free_a2.scn"), "--count", "2",
               "--outdir", str(outdir), monkeypatch=monkeypatch, tmp_path=tmp_path)
    assert sorted(p.name for p in outdir.iterdir()) == \
        ["portrait.gp", "traj_00.csv", "traj_00.json", "traj_01.csv", "traj_01.json"]
    for i in range(2):
        with open(outdir / f"traj_{i:02d}.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:4] == ["t", "x", "y", "z"] and len(rows) > 2
    script = (outdir / "portrait.gp").read_text()
    assert "'traj_00.csv' using 2:3 with lines, 'traj_01.csv' using 2:3 with lines" in script
    out = capsys.readouterr().out
    assert out.count("start x=") == 2 and f"wrote {outdir / 'portrait.gp'}" in out
