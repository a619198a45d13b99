import json
import math
import os

import numpy as np
import pytest

from qhj3d import ParseError, ProportionalSolutions, ValidationError
from qhj3d.cli import CSV_HEADER, main, run_metric, run_trajectory, run_verify
from qhj3d.scenario import (
    CatalogSpec,
    NumerovSpec,
    build_action,
    parse_grid,
    parse_scenario,
    serialize_scenario,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")

MINIMAL = """\
[physics]
hbar = 1.0
mass = 1.0

[potential]
x = free
y = free
z = free

[solutions.x]
source = catalog:free
k = 1.0

[solutions.y]
source = catalog:zero_energy_free

[solutions.z]
source = catalog:zero_energy_free

[field]
theta = 1.0 * u1 * u1 * u1
phi = 1.0 * u2 * u1 * u1

[action]
a = 2.0
b = 0.0

[trajectory]
r0 = 0, 0, 0
t_end = 5.0
"""


def scenario_path(name):
    return os.path.join(SCENARIOS, name)


def test_parse_minimal_scenario():
    s = parse_scenario(MINIMAL)
    assert s.energy == pytest.approx(0.5)
    assert s.a == 2.0 and s.b == 0.0
    assert isinstance(s.solutions[0], CatalogSpec)
    assert s.trajectory.t_end == 5.0


def test_parse_rejects_zero_a():
    with pytest.raises(ValidationError) as err:
        parse_scenario(MINIMAL.replace("a = 2.0", "a = 0.0"))
    assert err.value.field == "action.a"
    assert "nonzero" in err.value.message


def test_parse_rejects_identical_theta_phi():
    bad = MINIMAL.replace("phi = 1.0 * u2 * u1 * u1", "phi = 1.0 * u1 * u1 * u1")
    with pytest.raises(ProportionalSolutions):
        parse_scenario(bad)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_scenario(MINIMAL.replace("k = 1.0", "k 1.0"))
    assert err.value.line == MINIMAL.splitlines().index("k = 1.0") + 1


def test_parse_rejects_unknown_section():
    with pytest.raises(ParseError):
        parse_scenario("[galaxy]\nspin = 1\n" + MINIMAL)


def test_parse_rejects_bad_selector():
    with pytest.raises(ValidationError):
        parse_scenario(MINIMAL.replace("theta = 1.0 * u1 * u1 * u1",
                                       "theta = 1.0 * u3 * u1 * u1"))


def test_parse_rejects_catalog_on_nonfree_potential():
    bad = MINIMAL.replace("x = free", "x = harmonic(omega = 1.0)")
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    assert err.value.field == "solutions.x.source"


def test_roundtrip_all_shipped_scenarios():
    for name in os.listdir(SCENARIOS):
        text = open(scenario_path(name)).read()
        s = parse_scenario(text)
        assert parse_scenario(serialize_scenario(s)) == s


def test_scenario_energy_is_the_built_field_energy():
    for name in os.listdir(SCENARIOS):
        s = parse_scenario(open(scenario_path(name)).read())
        assert s.energy == build_action(s).e


def test_numerov_scenario_spec_fields():
    s = parse_scenario(open(scenario_path("harmonic_numerov.scn")).read())
    spec = s.solutions[0]
    assert isinstance(spec, NumerovSpec)
    assert spec.ic_at == 0.0
    assert s.energy == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# run_verify
# ---------------------------------------------------------------------------

def test_run_verify_free_a2(tmp_path):
    s = parse_scenario(open(scenario_path("free_a2.scn")).read())
    out = tmp_path / "report.json"
    report = run_verify(s, grid=(9, 9, 9), out=str(out))
    assert report.passed
    assert report.max_qshje < 1e-9
    assert report.signature_census == {"+++": 729}
    assert report.points_evaluated + report.nodal_skips + report.singular_skips == 729
    data = json.loads(out.read_text())
    assert data["passed"] is True


def test_run_verify_classical_census():
    s = parse_scenario(open(scenario_path("free_classical.scn")).read())
    report = run_verify(s, grid=(5, 5, 5))
    assert report.signature_census == {"+++": 125}
    assert report.max_qshje < 1e-12


def _strict_json(text):
    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_run_verify_with_no_points_fails(tmp_path):
    s = parse_scenario(open(scenario_path("free_a2.scn")).read())
    out = tmp_path / "report.json"
    report = run_verify(s, grid=(0, 2, 2), out=str(out))
    assert report.points_total == 0 and report.points_evaluated == 0
    assert not report.passed
    data = _strict_json(out.read_text())
    assert data["passed"] is False
    assert data["mean_qshje"] is None


def test_run_verify_harmonic_numerov():
    s = parse_scenario(open(scenario_path("harmonic_numerov.scn")).read())
    report = run_verify(s, grid=(7, 7, 7))
    assert report.max_qshje < 1e-5
    assert all(d < 1e-9 for d in report.wronskian_drift)
    assert len(report.signature_census) > 1  # mixed signatures in the well
    assert report.points_evaluated + report.nodal_skips + report.singular_skips == 343


# ---------------------------------------------------------------------------
# run_trajectory
# ---------------------------------------------------------------------------

def test_run_trajectory_csv_schema(tmp_path):
    s = parse_scenario(open(scenario_path("free_classical.scn")).read())
    out = tmp_path / "traj.csv"
    trajectory = run_trajectory(s, out=str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(trajectory.states) + 1
    final = [float(v) for v in lines[-1].split(",")]
    assert final[0] == pytest.approx(5.0)
    assert final[1] == pytest.approx(5.0, abs=1e-9)
    sidecar = json.loads((tmp_path / "traj.json").read_text())
    assert sidecar["termination"]["status"] == "completed"


def test_run_trajectory_csv_bit_stable(tmp_path):
    s = parse_scenario(open(scenario_path("free_a2.scn")).read())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_trajectory(s, out=str(out1))
    run_trajectory(s, out=str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_run_trajectory_law_residual_column(tmp_path):
    s = parse_scenario(open(scenario_path("free_a2.scn")).read())
    out = tmp_path / "traj.csv"
    run_trajectory(s, out=str(out))
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    law = [abs(float(r[10])) for r in rows]
    assert max(law) < 1e-9


def test_run_trajectory_from_node_reports_event_at_zero(tmp_path):
    s = parse_scenario(open(scenario_path("field2d.scn")).read())
    out = tmp_path / "nodal.csv"
    trajectory = run_trajectory(s, r0=(math.pi / 2, math.pi / 2, 0.0), out=str(out))
    assert trajectory.states == []
    assert trajectory.termination.status == "singularity"
    assert trajectory.termination.t == 0.0
    sidecar = json.loads((tmp_path / "nodal.json").read_text())
    assert sidecar["termination"]["status"] == "singularity"
    assert sidecar["termination"]["t"] == 0.0
    assert out.read_text().strip() == CSV_HEADER


def test_run_trajectory_plot_script(tmp_path):
    s = parse_scenario(open(scenario_path("free_classical.scn")).read())
    out = tmp_path / "traj.csv"
    gp = tmp_path / "traj.gp"
    run_trajectory(s, out=str(out), plot_script=str(gp))
    text = gp.read_text()
    assert "traj.csv" in text and "plot" in text


# ---------------------------------------------------------------------------
# run_metric
# ---------------------------------------------------------------------------

def test_run_metric_free_a2(tmp_path):
    s = parse_scenario(open(scenario_path("free_a2.scn")).read())
    out = tmp_path / "metric.json"
    report = run_metric(s, [(0.0, 0.0, 0.0)], out=str(out))
    entry = report["points"][0]
    assert entry["a_upper"] == pytest.approx([0.25, 1.0, 1.0])
    assert entry["jacobian"] == pytest.approx(np.diag([0.5, 1.0, 1.0]))
    assert entry["max_residual"] < 1e-14
    assert json.loads(out.read_text())["points"][0]["signature"] == "+++"


def test_run_metric_non_riemannian_point():
    s = parse_scenario(open(scenario_path("harmonic_numerov.scn")).read())
    report = run_metric(s, [(1.8, 0.4, 0.3)])
    entry = report["points"][0]
    assert entry["signature"] == "-++"
    assert entry["jacobian"] is None
    assert "NonRiemannianPoint" in entry["error"]


# ---------------------------------------------------------------------------
# CLI entry point and exit codes
# ---------------------------------------------------------------------------

def test_cli_verify_exit_zero(tmp_path, capsys):
    code = main(["verify", scenario_path("free_a2.scn"),
                 "--grid", "5,5,5", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name, old, new, field", [
    ("free_a2.scn", "a = 2.0", "a = 0.0", "action.a"),
    ("box.scn", "n = 1", "n = 2.5", "solutions.x"),
    ("box.scn", "n = 1", "n = 0", "solutions.x"),
    ("box.scn", "L = 20.0", "L = -1", "solutions.x"),
    ("free_a2.scn", "k = 1.0", "k = 0", "solutions.x"),
    ("free_a2.scn", "k = 1.0", "k = 1e300", "solutions.x"),
    ("free_a2.scn", "source = catalog:zero_energy_free", "source = catalog:zero_energy_free\ne_axis = 0.1",
     "solutions.y"),
    ("harmonic_numerov.scn", "step = 1e-3", "step = 1.0", "solutions.x"),
    ("harmonic_numerov.scn", "step = 1e-3", "step = 1e-300", "solutions.x"),
    ("harmonic_numerov.scn", "domain = -4, 4", "domain = -inf, 4", "solutions.x.domain"),
    ("harmonic_numerov.scn", "ic_at = 0", "ic_at = 5", "solutions.x"),
    ("harmonic_numerov.scn", "ic2 = 0, 1", "ic2 = 2, 0", "solutions.x"),
    ("harmonic_numerov.scn", "e_axis = 0.5", "e_axis = nan", "solutions.x.e_axis"),
    ("harmonic_numerov.scn", "ic1 = 1, 0", "ic1 = nan, 0", "solutions.x.ic1"),
    ("harmonic_numerov.scn", "harmonic(omega = 1.0)", "harmonic(omega = inf)", "potential.x.omega"),
    ("harmonic_numerov.scn", "harmonic(omega = 1.0)", "harmonic(omega = 0)", "potential.x"),
    ("harmonic_numerov.scn", "harmonic(omega = 1.0)", "linear(slope = nan)", "potential.x.slope"),
    ("harmonic_numerov.scn", "harmonic(omega = 1.0)", "tabulated(grid = 0 1 1 2, values = 0 0 0 0)",
     "potential.x"),
    ("harmonic_numerov.scn", "harmonic(omega = 1.0)", "harmonic(slope = 1.0)", "potential.x"),
    ("harmonic_numerov.scn", "a = 1.5", "a = nan", "action.a"),
    ("harmonic_numerov.scn", "a = 1.5", "a = inf", "action.a"),
    ("free_a2.scn", "theta = 1.0 *", "theta = nan *", "field.theta"),
    ("free_a2.scn", "theta = 1.0 * u1", "theta = 1.0 * u3", "field.theta"),
    ("free_a2.scn", "hbar = 1.0", "hbar = inf", "physics.hbar"),
    ("free_a2.scn", "mass = 1.0", "mass = nan", "physics.mass"),
    ("box.scn", "x = 1, 19", "x = 1, inf", "verify.x"),
    ("harmonic_numerov.scn", "qshje_tol = 1e-5", "qshje_tol = nan", "verify.qshje_tol"),
    ("harmonic_numerov.scn", "qshje_tol = 1e-5", "qshje_tol = inf", "verify.qshje_tol"),
    ("box.scn", "t_end = 5.0", "t_end = inf", "trajectory.t_end"),
    ("box.scn", "points = 5, 0, 0", "points = nan, 0, 0", "metric.points"),
    ("free_a2.scn", "grid = 21, 21, 21", "grid = 1e300, 2, 2", "verify.grid"),
], ids=["a-zero", "box-n-fractional", "box-n-zero", "box-L-negative", "free-k-zero",
        "free-energy-overflow", "e-axis-conflict", "numerov-too-few-steps", "numerov-too-many-steps",
        "numerov-domain-inf", "numerov-ic-at-outside", "numerov-parallel-ics", "numerov-e-axis-nan",
        "numerov-ic1-nan", "omega-inf", "omega-zero", "slope-nan", "tabulated-not-ascending",
        "potential-wrong-parameter", "a-nan", "a-inf", "coefficient-nan", "selector-unknown",
        "hbar-inf", "mass-nan", "verify-bound-inf", "tolerance-nan", "tolerance-inf", "t-end-inf",
        "metric-point-nan", "grid-huge"])
def test_cli_validation_exit_two(name, old, new, field, tmp_path, capsys):
    """A broken rule exits 2 naming its field, before any file is written."""
    text = open(scenario_path(name)).read()
    assert old in text
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(old, new, 1))
    assert main(["verify", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert f"scenario error: {field}:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.scn"]


@pytest.mark.parametrize("argv, flag", [
    (["verify", "free_a2.scn", "--grid", "a,b,c"], "--grid"),
    (["verify", "free_a2.scn", "--grid", "0,2,2"], "--grid"),
    (["verify", "free_a2.scn", "--grid", "1,1,1"], "--grid"),
    (["trajectory", "free_a2.scn", "--t-end", "-1"], "--t-end"),
    (["trajectory", "free_a2.scn", "--r0", "1,2,x"], "--r0"),
    (["verify", "free_a2.scn", "--grid", "inf,2,2"], "--grid"),
    (["trajectory", "free_a2.scn", "--t-end", "inf"], "--t-end"),
    (["trajectory", "harmonic_numerov.scn", "--t-end", "inf"], "--t-end"),
    (["trajectory", "free_a2.scn", "--t-end", "nan"], "--t-end"),
    (["trajectory", "free_a2.scn", "--r0", "nan,0,0"], "--r0"),
    (["metric", "free_a2.scn", "--at", "0,0,0;inf,0,0"], "--at"),
    (["verify", "free_a2.scn", "--grid", "100000,100000,2"], "--grid"),
], ids=["grid-not-numbers", "grid-zero", "grid-one", "t-end-negative", "r0-not-a-number",
        "grid-inf", "t-end-inf", "t-end-inf-numerov", "t-end-nan", "r0-nan", "at-inf",
        "grid-too-many-points"])
def test_cli_bad_override_exit_two(argv, flag, tmp_path, capsys):
    command, name, *rest = argv
    code = main([command, scenario_path(name), *rest, "--out", str(tmp_path / "out")])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_grid_ceiling_admits_100_cubed():
    """The ceiling is 10^6 points: 100^3 parses (verify is not run on it)."""
    assert parse_grid("100,100,100", "--grid") == (100, 100, 100)
    with pytest.raises(ValidationError, match="--grid"):
        parse_grid("101,100,100", "--grid")


@pytest.mark.parametrize("old, new", [
    ("hbar = 1.0", "hbar = 1e300"),
    ("hbar = 1.0", "hbar = 1e-300"),
    ("e_axis = 0.5", "e_axis = 1e100"),
], ids=["hbar-huge", "hbar-tiny", "e-axis-huge"])
def test_cli_overflow_exit_three(old, new, tmp_path, capsys):
    """Finite but extreme numbers pass every rule and overflow while the
    field is built: a numerical failure, not a traceback."""
    bad = tmp_path / "bad.scn"
    bad.write_text(open(scenario_path("harmonic_numerov.scn")).read().replace(old, new, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["verify", str(bad), "--out", str(tmp_path / "r.json")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_missing_file_exit_four(capsys):
    assert main(["verify", "/no/such/scenario.scn"]) == 4


def test_cli_unwritable_out_exit_four(tmp_path, capsys):
    code = main(["verify", scenario_path("free_classical.scn"),
                 "--grid", "3,3,3", "--out", "/nonexistent-dir-qhj/r.json"])
    assert code == 4


def test_cli_trajectory_singularity_exit_three(tmp_path, capsys):
    code = main(["trajectory", scenario_path("field2d.scn"),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 3
    assert "singularity" in capsys.readouterr().out


def test_cli_metric_output(tmp_path, capsys):
    code = main(["metric", scenario_path("free_a2.scn"), "--at", "0,0,0;1.5707963267948966,0,0",
                 "--out", str(tmp_path / "m.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "signature" in out
    data = json.loads((tmp_path / "m.json").read_text())
    assert len(data["points"]) == 2
