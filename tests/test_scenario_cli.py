import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhj3d
from qhj3d import (
    Overflow,
    ParseError,
    ProportionalSolutions,
    ValidationError,
    assemble_field,
    evaluate_field,
    scenario,
    schrodinger,
    solve_axis_numerov,
)
from qhj3d.arrays import sparse_grid
from qhj3d.cli import CSV_HEADER, _census, main, run_metric, run_trajectory, run_verify
from qhj3d.errors import OK, QhjError
from qhj3d.hj_core import (
    continuity_identity_from_sample,
    continuity_identity_residual,
    qshje_from_sample,
    sample,
)
from qhj3d.metric import a_upper_from_sample, signature_chars
from qhj3d.potentials import axis_potential
from qhj3d.scenario import (
    CatalogSpec,
    NumerovSpec,
    build_action,
    build_field,
    parse_grid,
    parse_scenario,
    serialize_scenario,
)

from conftest import strict_json

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


def scenario_text(name):
    return Path(scenario_path(name)).read_text()


def on_axis(text, axis, old, new):
    """text with the first old in its [solutions.<axis>] section made new."""
    head, tail = text.split(f"[solutions.{axis}]")
    assert old in tail
    return f"{head}[solutions.{axis}]{tail.replace(old, new, 1)}"


def counting_sweeps(monkeypatch):
    """The axis of every Numerov sweep run from now on: one per solve that
    the memo of solved axes does not answer."""
    calls = []
    fill = schrodinger._numerov_fill

    def counting(table, fvals, h, i0, axis):
        calls.append(axis)
        return fill(table, fvals, h, i0, axis)

    monkeypatch.setattr(schrodinger, "_numerov_fill", counting)
    return calls


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
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    assert err.value.field == "field.phi"


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


# Every potential kind with a parameter, at a mass other than 1, each axis
# solved by Numerov inside its potential's domain.
EVERY_POTENTIAL = scenario_text("harmonic_numerov.scn").replace("mass = 1.0", "mass = 2.5").replace(
    "x = harmonic(omega = 1.0)", "x = tabulated(grid = -5 -1 0 1 5, values = 12.5 0.5 0 0.5 12.5)").replace(
    "y = harmonic(omega = 1.0)", "y = linear(slope = 0.3)").replace(
    "z = harmonic(omega = 1.0)", "z = harmonic(omega = 1.5)")


def test_roundtrip_all_shipped_scenarios():
    """parse(serialize(s)) == s, and the serialized text is a fixed point:
    serializing its parse writes it again. A potential's line leaves its
    mass to [physics]."""
    for text in [scenario_text(name) for name in os.listdir(SCENARIOS)] + [EVERY_POTENTIAL]:
        s = parse_scenario(text)
        canonical = serialize_scenario(s)
        assert parse_scenario(canonical) == s
        assert serialize_scenario(parse_scenario(canonical)) == canonical
    assert [p.kind for p in s.potentials] == ["tabulated", "linear", "harmonic"]
    assert s.potentials[2].mass == 2.5
    assert "z = harmonic(omega = 1.5)\n" in canonical


def test_parse_constructs_each_potential_once_and_builds_use_them(monkeypatch):
    """The parse constructs each axis potential once, and the builders use
    those objects: building calls no potential constructor."""
    made = []

    def counting(*args, **kwargs):
        made.append(args[0])
        return axis_potential(*args, **kwargs)

    monkeypatch.setattr(scenario, "axis_potential", counting)
    s = parse_scenario(EVERY_POTENTIAL)
    assert made == ["tabulated", "linear", "harmonic"]
    action = build_action(s)
    assert len(made) == 3
    assert all(built is parsed for built, parsed in zip(action.field.potential.axes, s.potentials))
    assert all(pair.potential is parsed for pair, parsed in zip(action.field.pairs, s.potentials))


def test_scenario_energy_is_the_built_field_energy():
    for name in os.listdir(SCENARIOS):
        s = parse_scenario(scenario_text(name))
        assert s.energy == build_action(s).e


def test_numerov_scenario_spec_fields():
    s = parse_scenario(scenario_text("harmonic_numerov.scn"))
    spec = s.solutions[0]
    assert isinstance(spec, NumerovSpec)
    assert spec.ic_at == 0.0
    assert s.energy == pytest.approx(1.5)


Y_NUMEROV = "[solutions.y]\nsource = numerov\ne_axis = 0.5\ndomain = -4, 4\nstep = 1e-3"


@pytest.mark.parametrize("old, new, solved", [
    (None, None, ["x"]),
    ("y = harmonic(omega = 1.0)", "y = harmonic(omega = 2.0)", ["x", "y"]),
    (Y_NUMEROV, Y_NUMEROV.replace("e_axis = 0.5", "e_axis = 1.0"), ["x", "y"]),
    (Y_NUMEROV, Y_NUMEROV.replace("step = 1e-3", "step = 2e-3"), ["x", "y"]),
], ids=["shipped", "y-omega", "y-e-axis", "y-step"])
def test_build_field_solves_each_distinct_numerov_axis_once(old, new, solved, monkeypatch):
    """One sweep per distinct axis of a build: an axis equal to an earlier
    one is answered by the memo of solved axes, with the earlier basis."""
    text = scenario_text("harmonic_numerov.scn")
    if old is not None:
        assert old in text
        text = text.replace(old, new, 1)
    calls = counting_sweeps(monkeypatch)
    field = build_field(parse_scenario(text))
    assert calls == solved
    assert [p.axis for p in field.pairs] == ["x", "y", "z"]
    assert field.pairs[2].basis is field.pairs[0].basis


def test_shared_numerov_axes_evaluate_as_independent_builds():
    """The field with one shared table is bitwise the field built from
    three independent solves, on the verify grid and at the metric points."""
    s = parse_scenario(scenario_text("harmonic_numerov.scn"))
    shared = build_field(s)
    pairs = []
    for ax, spec, potential in zip("xyz", s.solutions, s.potentials):
        schrodinger._SOLVED.clear()
        pairs.append(solve_axis_numerov(potential, spec.e_axis, spec.domain, spec.step, spec.ic1,
                                        spec.ic2, m0=s.mass, hbar=s.hbar, axis=ax, ic_at=spec.ic_at))
    independent = assemble_field(pairs, s.theta_terms, s.phi_terms)
    assert shared.pairs[1].basis is shared.pairs[0].basis
    assert independent.pairs[1].basis is not independent.pairs[0].basis
    assert shared.active_axes == independent.active_axes
    grid = sparse_grid(s.verify.bounds, s.verify.grid)
    for r in (grid, *s.metric_points):
        got, want = evaluate_field(shared, r), evaluate_field(independent, r)
        for name in ("theta", "phi", "grad_theta", "grad_phi", "second_theta", "second_phi", "v", "status"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_builds_share_solved_axes(monkeypatch):
    """Two builds of harmonic_numerov and a variant with another mixing and
    other verify bounds read the same axes: one sweep, one table. Each
    build still calls the solver once per axis, so a warm process makes the
    calls a cold one makes."""
    calls = counting_sweeps(monkeypatch)
    requests = []
    monkeypatch.setattr(scenario, "solve_axis_numerov",
                        lambda *args, **kwargs: requests.append(kwargs["axis"])
                        or solve_axis_numerov(*args, **kwargs))
    text = scenario_text("harmonic_numerov.scn")
    variant = text.replace("a = 1.5", "a = 3.0").replace("b = 0.5", "b = -1.0")
    variant = variant.replace("x = -2, 2", "x = -2.4, 2.4")
    actions = [build_action(parse_scenario(t)) for t in (text, text, variant)]
    assert calls == ["x"]
    assert requests == ["x", "y", "z"] * 3
    assert actions[2].a == 3.0
    basis = actions[0].field.pairs[0].basis
    assert all(pair.basis is basis for action in actions for pair in action.field.pairs)


@pytest.mark.parametrize("name", ["box", "field2d", "free_a2", "free_classical", "harmonic_numerov"])
def test_warm_solved_axes_write_what_cold_ones_write(name, tmp_path):
    """Each command writes the same bytes whether it builds a freshly parsed
    scenario with no axis solved, or reuses one scenario whose action was
    built once, from axes an earlier build solved."""
    text = scenario_text(f"{name}.scn")
    s = parse_scenario(text)

    def written(cold):
        out = tmp_path / ("cold" if cold else "warm")
        out.mkdir()
        for command, file in ((run_verify, "verify.json"), (run_metric, "metric.json"),
                              (run_trajectory, "traj.csv")):
            if cold:
                schrodinger._SOLVED.clear()
            command(parse_scenario(text) if cold else s, out=str(out / file))
        return {path.name: path.read_bytes() for path in out.iterdir()}

    cold = written(cold=True)
    assert sorted(cold) == ["metric.json", "traj.csv", "traj.json", "verify.json"]
    assert written(cold=False) == cold
    # the memo holds the axis of the last cold command, which the one warm
    # build found there
    assert len(schrodinger._SOLVED) == (1 if name == "harmonic_numerov" else 0)
    assert all(pair.basis is build_field(s).pairs[0].basis for pair in schrodinger._SOLVED.values())


def counting_assembles(monkeypatch):
    """One entry per field assembled from now on: one per build."""
    calls = []
    monkeypatch.setattr(scenario, "assemble_field",
                        lambda *args: calls.append(args) or assemble_field(*args))
    return calls


def test_one_scenario_builds_once_for_every_command(monkeypatch, tmp_path):
    calls = counting_assembles(monkeypatch)
    s = parse_scenario(scenario_text("harmonic_numerov.scn"))
    for _ in range(2):
        run_verify(s)
        run_metric(s)
        run_trajectory(s, out=str(tmp_path / "traj.csv"))
    assert len(calls) == 1
    assert build_action(s) is build_action(s)
    assert build_field(s) is build_action(s).field


def test_equal_scenarios_parsed_apart_build_apart(monkeypatch):
    """The build is kept per object, not per value."""
    calls = counting_assembles(monkeypatch)
    text = scenario_text("free_a2.scn")
    first, second = parse_scenario(text), parse_scenario(text)
    assert first == second
    actions = [build_action(s) for s in (first, second, first, second)]
    assert len(calls) == 2
    assert actions[0] is actions[2] and actions[1] is actions[3]
    assert actions[0] is not actions[1]


def test_failed_build_is_not_kept(monkeypatch):
    calls = counting_assembles(monkeypatch)
    s = parse_scenario(scenario_text("harmonic_numerov.scn").replace(
        "phi = 1.0 * u2 * u2 * u2", "phi = 2.0 * u1 * u1 * u1"))
    for _ in range(2):
        with pytest.raises(ProportionalSolutions):
            build_action(s)
    assert len(calls) == 2


def test_a_built_scenario_keeps_its_value(monkeypatch):
    """A kept build is no field of the Scenario: it round-trips to an equal
    value, and a replaced copy builds its own action."""
    calls = counting_assembles(monkeypatch)
    s = parse_scenario(scenario_text("free_a2.scn"))
    action = build_action(s)
    assert s == parse_scenario(serialize_scenario(s))
    changed = dataclasses.replace(s, a=3.0)
    assert build_action(changed).a == 3.0
    assert build_action(changed) is not action
    assert build_action(dataclasses.replace(s)) is not action
    assert len(calls) == 3


def test_negative_zero_initial_value_is_its_own_axis(monkeypatch):
    """ic2 = -0.0, 1 equals ic2 = 0.0, 1 as a spec, but its table differs in
    sign bits, so it is solved on its own."""
    calls = counting_sweeps(monkeypatch)
    text = scenario_text("harmonic_numerov.scn")
    scenarios = [parse_scenario(text.replace("ic2 = 0, 1", f"ic2 = {zero}, 1")) for zero in ("0.0", "-0.0")]
    assert scenarios[0] == scenarios[1]
    tables = [schrodinger._numerov_table(build_field(s).pairs[0]) for s in scenarios]
    assert calls == ["x", "x"]
    assert np.array_equal(tables[0].coef, tables[1].coef)
    assert not np.array_equal(np.signbit(tables[0].coef), np.signbit(tables[1].coef))


@pytest.mark.parametrize("old, new", [
    ("harmonic(omega = 1.0)", "harmonic(omega = 2.0)"),
    ("mass = 1.0", "mass = 2.0"),
    ("hbar = 1.0", "hbar = 0.5"),
    ("e_axis = 0.5", "e_axis = 0.6"),
    ("step = 1e-3", "step = 2e-3"),
    ("ic1 = 1, 0", "ic1 = 1, 0.5"),
    ("ic_at = 0", "ic_at = -1"),
], ids=["omega", "mass", "hbar", "e-axis", "step", "ic1", "ic-at"])
def test_each_input_of_a_solve_keys_its_axis(old, new, monkeypatch):
    """A scenario that changes anything the solve reads gets its own table."""
    calls = counting_sweeps(monkeypatch)
    text = scenario_text("harmonic_numerov.scn")
    assert old in text
    fields = [build_field(parse_scenario(t)) for t in (text, text.replace(old, new))]
    assert calls == ["x", "x"]
    assert fields[0].pairs[0].basis is not fields[1].pairs[0].basis


def test_least_recently_used_axis_is_evicted(monkeypatch):
    """The memo keeps three solved axes; a fourth evicts the one used
    longest ago, and a hit counts as a use."""
    calls = counting_sweeps(monkeypatch)
    text = scenario_text("harmonic_numerov.scn")
    for e_axis in (0.5, 0.6, 0.7, 0.5, 0.8, 0.5, 0.6):
        build_field(parse_scenario(text.replace("e_axis = 0.5", f"e_axis = {e_axis}")))
        assert len(schrodinger._SOLVED) <= 3
    # 0.8 evicts 0.6, not the refreshed 0.5; 0.6 is then solved again
    assert len(calls) == 5
    assert [pair.e_axis for pair in schrodinger._SOLVED.values()] == [0.8, 0.5, 0.6]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failed_solve_is_not_kept(monkeypatch):
    """A solve that overflows raises on every build, naming the axis of the
    scenario being built, and leaves nothing in the memo."""
    calls = counting_sweeps(monkeypatch)
    text = scenario_text("harmonic_numerov.scn")
    for axis in ("y", "y", "z"):
        with pytest.raises(Overflow, match=f"^axis {axis}:"):
            build_field(parse_scenario(on_axis(text, axis, "e_axis = 0.5", "e_axis = 1e300")))
    assert calls == ["x", "y", "y", "z"]
    assert len(schrodinger._SOLVED) == 1


def test_solved_tables_are_read_only():
    table = schrodinger._numerov_table(build_field(parse_scenario(scenario_text("harmonic_numerov.scn"))).pairs[0])
    with pytest.raises(ValueError):
        table.coef[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# run_verify
# ---------------------------------------------------------------------------

def test_run_verify_free_a2(tmp_path):
    s = parse_scenario(scenario_text("free_a2.scn"))
    out = tmp_path / "report.json"
    report = run_verify(s, grid=(9, 9, 9), out=str(out))
    assert report.passed
    assert report.max_qshje < 1e-9
    assert report.signature_census == {"+++": 729}
    assert report.points_evaluated + report.nodal_skips + report.singular_skips + report.domain_skips == 729
    data = json.loads(out.read_text())
    assert data["passed"] is True


def test_run_verify_classical_census():
    s = parse_scenario(scenario_text("free_classical.scn"))
    report = run_verify(s, grid=(5, 5, 5))
    assert report.signature_census == {"+++": 125}
    assert report.max_qshje < 1e-12


def _check_nothing_evaluated(report, out, skips, unevaluated):
    """A report that evaluated no grid point: the skips, out-of-domain
    points counted apart, total the grid; each maximum over points that
    were not evaluated is null; and it fails."""
    assert report.points_evaluated == 0
    assert (report.nodal_skips, report.singular_skips, report.domain_skips) == skips
    assert report.points_total == sum(skips)
    assert not report.passed
    data = strict_json(out.read_text())
    assert data["passed"] is False
    for key in ("max_qshje", "mean_qshje", "max_continuity_identity", "max_continuity_divergence"):
        assert (data[key] is None) == (key in unevaluated), key
    assert data["worst_qshje_point"] is None and data["worst_continuity_point"] is None
    keys = list(data)
    assert keys[keys.index("singular_skips") + 1] == "domain_skips"


def test_run_verify_with_no_points_fails(tmp_path):
    """An empty grid: its maxima and mean are null. The divergence check
    samples its own 3x3x3 subsample of the bounds, which it still has."""
    s = parse_scenario(scenario_text("free_a2.scn"))
    out = tmp_path / "report.json"
    report = run_verify(s, grid=(0, 2, 2), out=str(out))
    _check_nothing_evaluated(report, out, (0, 0, 0),
                             ("max_qshje", "mean_qshje", "max_continuity_identity"))


def test_run_verify_outside_the_box_counts_domain_skips(tmp_path):
    """Bounds beyond the box walls: every point is a domain skip, none is
    singular, and every maximum is null, the divergence subsample's too."""
    s = parse_scenario(scenario_text("box.scn").replace("x = 1, 19", "x = 25, 30", 1))
    out = tmp_path / "report.json"
    report = run_verify(s, out=str(out))
    _check_nothing_evaluated(report, out, (0, 0, 21**3),
                             ("max_qshje", "mean_qshje", "max_continuity_identity",
                              "max_continuity_divergence"))


@pytest.mark.parametrize("name", ["box", "field2d", "free_a2", "free_classical", "harmonic_numerov"])
def test_run_verify_worst_points_reproduce_maxima(name):
    """Each worst point is a grid point where the sweep's residual equals
    the report's maximum, and the residual evaluated alone there gives the
    maximum to the kernel's 1e-12 point-versus-array contract."""
    s = parse_scenario(scenario_text(f"{name}.scn"))
    report = run_verify(s)
    action = build_action(s)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(s.verify.bounds, report.grid)]
    swept = sample(action, sparse_grid(s.verify.bounds, report.grid))
    for point, worst, on_grid, residual in (
            (report.worst_qshje_point, report.max_qshje,
             np.abs(qshje_from_sample(action, swept)), lambda a, r: qshje_from_sample(a, sample(a, r))),
            (report.worst_continuity_point, report.max_continuity_identity,
             continuity_identity_from_sample(action, swept), continuity_identity_residual)):
        index = tuple(int(np.flatnonzero(ax == x)[0]) for ax, x in zip(axes, point))
        assert np.broadcast_to(on_grid, swept.status.shape)[index] == worst
        assert abs(abs(residual(action, tuple(point))) - worst) <= 1e-12 * max(1.0, worst)


@pytest.mark.parametrize("name", ["box", "field2d", "free_a2", "harmonic_numerov"])
def test_run_verify_mean_qshje_is_the_mean_over_evaluated_points(name):
    """mean_qshje is np.mean of |QSHJE| over the points the sweep
    evaluated, each sampled alone here: the points where sample and
    a^{mumu} raise nothing, in grid order. On these grids the median
    differs from the mean, so a report of the median fails."""
    s = parse_scenario(scenario_text(f"{name}.scn"))
    report = run_verify(s)
    action = build_action(s)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(s.verify.bounds, report.grid)]
    residuals = []
    for point in itertools.product(*axes):
        try:
            smp = sample(action, point)
            a_upper_from_sample(action, smp)
        except QhjError:
            continue
        residuals.append(abs(qshje_from_sample(action, smp)))
    assert len(residuals) == report.points_evaluated
    assert np.median(residuals) != np.mean(residuals)
    assert report.mean_qshje == np.mean(residuals)


def test_run_verify_wronskian_drift_is_relative():
    """Scaling both initial conditions of every Numerov axis by 1024 scales
    each solution, and so the Wronskian, exactly (2^10 and 2^20); the
    reported drift is relative to that Wronskian and keeps every bit. The
    scaled sweep fails on its absolute continuity tolerance, so only the
    drift is compared."""
    text = scenario_text("harmonic_numerov.scn")
    scaled = text.replace("ic1 = 1, 0", "ic1 = 1024, 0").replace("ic2 = 0, 1", "ic2 = 0, 1024")
    assert scaled.count("1024") == 6
    reports, pairs = [], []
    for source in (text, scaled):
        s = parse_scenario(source)
        reports.append(run_verify(s))
        pairs.append(build_action(s).field.pairs)
    assert reports[1].wronskian_drift == reports[0].wronskian_drift
    assert all(d > 0.0 for d in reports[0].wronskian_drift)
    for pair, scaled_pair in zip(*pairs):
        assert scaled_pair.wronskian_ref == pair.wronskian_ref * 2**20


def test_run_verify_harmonic_numerov():
    s = parse_scenario(scenario_text("harmonic_numerov.scn"))
    report = run_verify(s, grid=(7, 7, 7))
    assert report.passed and report.qshje_tol == 1e-9
    assert report.max_qshje < 1e-9
    assert all(d < 1e-9 for d in report.wronskian_drift)
    assert len(report.signature_census) > 1  # mixed signatures in the well
    assert report.points_evaluated + report.nodal_skips + report.singular_skips + report.domain_skips == 343
    assert report.singular_skips > 0 and report.domain_skips == 0


def string_census(a_upper, ok):
    """The census from signature strings: the three signature_chars joined
    per point and counted by np.unique, in order of first occurrence."""
    sigs = signature_chars(a_upper)
    names, first, counts = np.unique((sigs[0] + sigs[1] + sigs[2])[ok], return_index=True,
                                     return_counts=True)
    return {str(names[i]): int(counts[i]) for i in np.argsort(first)}


@pytest.mark.parametrize("grid", [(5, 5, 5), (9, 9, 9), (21, 21, 21)])
def test_census_codes_count_what_signature_strings_count(grid):
    """On grids through the turning points of harmonic_numerov, where
    components vanish and '0' signatures occur."""
    s = parse_scenario(scenario_text("harmonic_numerov.scn"))
    action = build_action(s)
    a_upper, status = a_upper_from_sample(action, sample(action, sparse_grid(s.verify.bounds, grid)))
    census = _census(a_upper, status == OK)
    assert list(census.items()) == list(string_census(a_upper, status == OK).items())
    assert any("0" in name for name in census)
    assert run_verify(s, grid=grid).signature_census == census


def test_census_codes_on_zeros_nan_and_infinities():
    rng = np.random.default_rng(3)
    values = np.array([-1.0, -0.0, 0.0, 1.0, np.nan, np.inf, -np.inf])
    a_upper = (rng.choice(values, (6, 1, 1)), rng.choice(values, (1, 5, 1)), rng.choice(values, (6, 5, 4)))
    for ok in (rng.random((6, 5, 4)) < 0.7, np.zeros((6, 5, 4), bool)):
        assert list(_census(a_upper, ok).items()) == list(string_census(a_upper, ok).items())


# ---------------------------------------------------------------------------
# run_trajectory
# ---------------------------------------------------------------------------

def test_run_trajectory_csv_schema(tmp_path):
    s = parse_scenario(scenario_text("free_classical.scn"))
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


@pytest.mark.parametrize("out, plot_script, flag", [
    ("t.json", None, "--out"),
    ("t.csv", "t.csv", "--plot-script"),
    ("t.csv", "t.json", "--plot-script"),
], ids=["csv-is-its-sidecar", "plot-script-is-the-csv", "plot-script-is-the-sidecar"])
def test_run_trajectory_rejects_colliding_outputs(out, plot_script, flag, tmp_path):
    """run_trajectory refuses an output path that would overwrite another
    output of the run, naming its flag, and writes nothing."""
    s = parse_scenario(scenario_text("free_a2.scn"))
    with pytest.raises(ValidationError) as err:
        run_trajectory(s, out=str(tmp_path / out), plot_script=plot_script and str(tmp_path / plot_script))
    assert err.value.field == flag
    assert "would overwrite" in err.value.message
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["box", "field2d", "free_a2", "free_classical", "harmonic_numerov"])
def test_run_trajectory_csv_bit_stable(name, tmp_path):
    """A rerun writes the same CSV and sidecar, byte for byte. The sidecar's
    integrator counts are the run's: a completed run accepts one step per
    state after the first, each with six right-hand sides."""
    s = parse_scenario(scenario_text(f"{name}.scn"))
    written = []
    for stem in ("a", "b"):
        trajectory = run_trajectory(s, out=str(tmp_path / f"{stem}.csv"))
        written.append([(tmp_path / f"{stem}.{ext}").read_bytes() for ext in ("csv", "json")])
    assert written[0] == written[1]
    sidecar = json.loads(written[0][1])
    counts = sidecar["integrator"]
    assert counts == dataclasses.asdict(trajectory.stats)
    if sidecar["termination"]["status"] == "completed":
        assert counts["accepted"] == sidecar["states"] - 1
        assert counts["rhs_evals"] >= 1 + 6 * counts["accepted"]


def test_run_trajectory_law_residual_column(tmp_path):
    s = parse_scenario(scenario_text("free_a2.scn"))
    out = tmp_path / "traj.csv"
    run_trajectory(s, out=str(out))
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    law = [abs(float(r[10])) for r in rows]
    assert max(law) < 1e-9


def test_run_trajectory_from_node_reports_event_at_zero(tmp_path):
    """The run ends at its first right-hand side; the sidecar records that
    one evaluation, and the command exits 3 with a header-only CSV."""
    s = parse_scenario(scenario_text("field2d.scn"))
    out = tmp_path / "nodal.csv"
    trajectory = run_trajectory(s, r0=(math.pi / 2, math.pi / 2, 0.0), out=str(out))
    assert trajectory.states == []
    assert trajectory.termination.status == "singularity"
    assert trajectory.termination.t == 0.0
    sidecar = json.loads((tmp_path / "nodal.json").read_text())
    assert sidecar["termination"]["status"] == "singularity"
    assert sidecar["integrator"] == dataclasses.asdict(trajectory.stats)
    assert (sidecar["integrator"]["rhs_evals"], sidecar["integrator"]["accepted"]) == (1, 0)
    assert sidecar["termination"]["t"] == 0.0
    assert out.read_text().strip() == CSV_HEADER
    cli_out = tmp_path / "cli.csv"
    assert main(["trajectory", scenario_path("field2d.scn"), "--r0", f"{math.pi / 2!r}, {math.pi / 2!r}, 0",
                 "--out", str(cli_out)]) == 3
    assert cli_out.read_text() == out.read_text()


def test_run_trajectory_plot_script(tmp_path):
    s = parse_scenario(scenario_text("free_classical.scn"))
    out = tmp_path / "traj.csv"
    gp = tmp_path / "traj.gp"
    run_trajectory(s, out=str(out), plot_script=str(gp))
    text = gp.read_text()
    assert "traj.csv" in text and "plot" in text


# ---------------------------------------------------------------------------
# run_metric
# ---------------------------------------------------------------------------

def test_run_metric_free_a2(tmp_path):
    s = parse_scenario(scenario_text("free_a2.scn"))
    out = tmp_path / "metric.json"
    report = run_metric(s, [(0.0, 0.0, 0.0)], out=str(out))
    entry = report["points"][0]
    assert entry["a_upper"] == pytest.approx([0.25, 1.0, 1.0])
    assert entry["jacobian"] == pytest.approx(np.diag([0.5, 1.0, 1.0]))
    assert entry["max_residual"] < 1e-14
    assert json.loads(out.read_text())["points"][0]["signature"] == "+++"


def test_run_metric_non_riemannian_point():
    s = parse_scenario(scenario_text("harmonic_numerov.scn"))
    report = run_metric(s, [(1.8, 0.4, 0.3)])
    entry = report["points"][0]
    assert entry["signature"] == "-++"
    assert entry["jacobian"] is None
    assert "NonRiemannianPoint" in entry["error"]


@pytest.mark.parametrize("name, point, reason, error", [
    ("field2d.scn", (0.4, 1.2, 0.0), "ok", None),
    ("field2d.scn", (math.pi / 2, -math.pi / 2, 0.3), "nodal", "NodalPoint"),
    ("box.scn", (21.0, 0.0, 0.0), "out_of_domain", "OutOfDomain"),
    ("harmonic_numerov.scn", (4.7, 0.3, -0.2), "out_of_domain", "OutOfDomain"),
    ("harmonic_numerov.scn", (0.0, 0.8, 0.6), "node_singular", "NodeSingularity"),
    ("harmonic_numerov.scn", (0.3, 0.0, 0.6), "node_singular", "NodeSingularity"),
    ("harmonic_numerov.scn", (1.8, 0.4, 0.3), "non_riemannian", "NonRiemannianPoint"),
], ids=["ok", "field2d-node", "box-wall", "numerov-table", "node-plane-x", "node-plane-y", "forbidden"])
def test_run_metric_reason_code(name, point, reason, error):
    """Each row names why it is or is not defined; the reason agrees with
    the error text, and the row holds a metric unless the metric itself is
    undefined."""
    s = parse_scenario(scenario_text(name))
    entry = run_metric(s, [(0.1, 0.2, 0.3), point])["points"][1]
    assert entry["reason"] == reason
    assert entry.get("error", "").split(":")[0] == (error or "")
    assert ("a_upper" in entry) == (reason in ("ok", "non_riemannian"))


def test_run_metric_defaults_to_scenario_points():
    s = parse_scenario(scenario_text("harmonic_numerov.scn"))
    assert run_metric(s) == run_metric(s, s.metric_points)
    assert [row["point"] for row in run_metric(s)["points"]] == [list(p) for p in s.metric_points]


# ---------------------------------------------------------------------------
# CLI entry point and exit codes
# ---------------------------------------------------------------------------

def test_cli_verify_exit_zero(tmp_path, capsys):
    code = main(["verify", scenario_path("free_a2.scn"),
                 "--grid", "5,5,5", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    ("harmonic_numerov.scn", "harmonic(omega = 1.0)",
     "tabulated(grid = -1 -0.5 0 0.5 1, values = 0.5 0.125 0 0.125 0.5)", "solutions.x.domain"),
    ("tabulated_harmonic.scn", "values = 8 ", "values = 1.7e308 ", "potential.x"),
    ("harmonic_numerov.scn", "a = 1.5", "a = nan", "action.a"),
    ("harmonic_numerov.scn", "a = 1.5", "a = inf", "action.a"),
    ("harmonic_numerov.scn", "a = 1.5", "a = 1e300", "action.a"),
    ("harmonic_numerov.scn", "b = 0.5", "b = 1e300", "action.b"),
    ("box.scn", "theta = 1.0 *", "theta = 1e300 *", "field.theta"),
    ("free_a2.scn", "theta = 1.0 *", "theta = nan *", "field.theta"),
    ("free_a2.scn", "theta = 1.0 * u1", "theta = 1.0 * u3", "field.theta"),
    ("free_a2.scn", "phi = 1.0 * u2", "phi = 1.0 * u1", "field.phi"),
    ("free_a2.scn", "hbar = 1.0", "hbar = inf", "physics.hbar"),
    ("free_a2.scn", "mass = 1.0", "mass = nan", "physics.mass"),
    ("harmonic_numerov.scn", "hbar = 1.0", "hbar = 1e300", "physics.hbar"),
    ("harmonic_numerov.scn", "hbar = 1.0", "hbar = 1e-300", "physics.hbar"),
    ("free_a2.scn", "mass = 1.0", "mass = 1e308", "physics.mass"),
    ("free_a2.scn", "mass = 1.0", "mass = 1e-320", "physics.mass"),
    ("harmonic_numerov.scn", "harmonic(omega = 1.0)", "harmonic(omega = 1e300)", "potential.x"),
    ("harmonic_numerov.scn", "harmonic(omega = 1.0)", "harmonic(omega = 1e-200)", "potential.x"),
    ("box.scn", "x = 1, 19", "x = 1, inf", "verify.x"),
    ("harmonic_numerov.scn", "z = -2, 2", "z = -2, 2\nqshje_tol = nan", "verify.qshje_tol"),
    ("harmonic_numerov.scn", "z = -2, 2", "z = -2, 2\nqshje_tol = inf", "verify.qshje_tol"),
    ("free_a2.scn", "z = -3, 3", "z = -3, 3\nqshje_tol = 0", "verify.qshje_tol"),
    ("free_a2.scn", "z = -3, 3", "z = -3, 3\ncontinuity_tol = 0", "verify.continuity_tol"),
    ("free_a2.scn", "z = -3, 3", "z = -3, 3\nwronskian_tol = -1e-9", "verify.wronskian_tol"),
    ("free_a2.scn", "x = -3, 3", "x = -1e308, 1e308", "verify.x"),
    ("free_a2.scn", "y = -3, 3", "y = 3, -3", "verify.y"),
    ("box.scn", "t_end = 5.0", "t_end = inf", "trajectory.t_end"),
    ("box.scn", "points = 5, 0, 0", "points = nan, 0, 0", "metric.points"),
    ("free_a2.scn", "grid = 21, 21, 21", "grid = 1e300, 2, 2", "verify.grid"),
    ("box.scn", "r0 = 5, 0, 0", "r0 = 25, 0, 0", "trajectory.r0"),
    ("free_a2.scn", None, "trajectory --out t.json", "--out"),
    ("free_a2.scn", None, "trajectory --out bad.scn", "--out"),
    ("free_a2.scn", None, "verify --out bad.scn", "--out"),
    ("free_a2.scn", None, "metric --out sub/../bad.scn", "--out"),
    ("free_a2.scn", None, "trajectory --out t.csv --plot-script t.csv", "--plot-script"),
    ("free_a2.scn", None, "trajectory --out t.csv --plot-script t.json", "--plot-script"),
    ("free_a2.scn", None, "trajectory --out t.csv --plot-script ./bad.scn", "--plot-script"),
], ids=["a-zero", "box-n-fractional", "box-n-zero", "box-L-negative", "free-k-zero",
        "free-energy-overflow", "e-axis-conflict", "numerov-too-few-steps", "numerov-too-many-steps",
        "numerov-domain-inf", "numerov-ic-at-outside", "numerov-parallel-ics", "numerov-e-axis-nan",
        "numerov-ic1-nan", "omega-inf", "omega-zero", "slope-nan", "tabulated-not-ascending",
        "potential-wrong-parameter", "tabulated-narrower-than-numerov-domain",
        "tabulated-overflows", "a-nan", "a-inf",
        "a-huge", "b-huge", "coefficient-huge",
        "coefficient-nan", "selector-unknown", "phi-identical-to-theta",
        "hbar-inf", "mass-nan", "hbar-huge", "hbar-tiny", "mass-huge", "mass-tiny", "omega-huge",
        "omega-tiny", "verify-bound-inf", "tolerance-nan", "tolerance-inf", "qshje-tol-zero",
        "continuity-tol-zero", "wronskian-tol-negative", "verify-width-overflows",
        "verify-bounds-reversed", "t-end-inf",
        "metric-point-nan", "grid-huge", "r0-outside-domain",
        "csv-is-its-sidecar", "csv-is-the-scenario", "verify-report-is-the-scenario",
        "metric-report-resolves-to-the-scenario", "plot-script-is-the-csv",
        "plot-script-is-the-sidecar", "plot-script-is-the-scenario"])
def test_cli_validation_exit_two(name, old, new, field, tmp_path, capsys, monkeypatch):
    """A broken rule exits 2 naming its field, with no warning, before any
    file is written and with the scenario file unchanged. The start point
    is checked against the built domain by the command that reads it,
    trajectory; every other scenario rule by verify. A case with old None breaks no scenario rule:
    new is the command line after the scenario, whose output path resolves
    to the scenario file or to another output of the run."""
    monkeypatch.chdir(tmp_path)
    text = scenario_text(name)
    if old is None:
        command, *args = new.split()
    else:
        assert old in text
        text = text.replace(old, new, 1)
        command = "trajectory" if field == "trajectory.r0" else "verify"
        args = ["--out", "out"]
    Path("bad.scn").write_text(text)
    assert main([command, "bad.scn", *args]) == 2
    kind = "invalid argument" if field.startswith("--") else "scenario error"
    assert f"{kind}: {field}:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.scn"]
    assert Path("bad.scn").read_text() == text


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
    (["trajectory", "box.scn", "--r0", "25,0,0"], "--r0"),
    (["trajectory", "harmonic_numerov.scn", "--r0", "0,0,4.5"], "--r0"),
], ids=["grid-not-numbers", "grid-zero", "grid-one", "t-end-negative", "r0-not-a-number",
        "grid-inf", "t-end-inf", "t-end-inf-numerov", "t-end-nan", "r0-nan", "at-inf",
        "grid-too-many-points", "r0-outside-domain", "r0-outside-numerov-domain"])
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_verify_bounds_outside_a_domain_write_a_fail_report(tmp_path, capsys):
    """Bounds that miss the box along x leave nothing to evaluate and no
    Wronskian sample on that axis: verify writes the report, with that
    axis's drift null, and exits 3 (FAIL)."""
    bad = tmp_path / "bad.scn"
    bad.write_text(scenario_text("box.scn").replace("x = 1, 19", "x = 25, 30", 1))
    out = tmp_path / "r.json"
    assert main(["verify", str(bad), "--out", str(out)]) == 3
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == "points: 0 evaluated, 0 nodal, 0 singular, 9261 out of domain"
    assert printed[-1] == "FAIL"
    report = strict_json(out.read_text())
    assert report["domain_skips"] == 9261 and report["singular_skips"] == 0
    assert report["max_qshje"] is None and report["max_continuity_identity"] is None
    assert report["wronskian_drift"][0] is None
    assert all(d < report["wronskian_tol"] for d in report["wronskian_drift"][1:])
    assert report["points_evaluated"] == 0 and report["passed"] is False


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("axis, e_axis", [("x", "1e100"), ("x", "1e300"), ("y", "1e300")],
                         ids=["e-axis-huge", "e-axis-huger", "e-axis-huger-y"])
def test_cli_overflow_exit_three(axis, e_axis, tmp_path, capsys):
    """A finite but extreme energy passes every rule and overflows while
    the field is built: a numerical failure naming the axis, with no
    warning and no file."""
    bad = tmp_path / "bad.scn"
    bad.write_text(on_axis(scenario_text("harmonic_numerov.scn"), axis, "e_axis = 0.5", f"e_axis = {e_axis}"))
    assert main(["verify", str(bad), "--out", str(tmp_path / "r.json")]) == 3
    assert f"numerical failure: Overflow: axis {axis}:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.scn"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["verify", "metric", "trajectory"])
def test_cli_huge_numerov_initial_value_exits_three(command, tmp_path, capsys):
    """An initial value of 1e300 passes the Numerov rules, but the field
    multiplies three axis values: the build raises Overflow naming the
    axis, before any warning, NaN or file."""
    bad = tmp_path / "bad.scn"
    bad.write_text(scenario_text("harmonic_numerov.scn").replace("ic1 = 1, 0", "ic1 = 1e300, 0", 1))
    assert main([command, str(bad), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: Overflow: axis x:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.scn"]


def test_cli_and_shipped_scenarios_load_no_scipy():
    """The package runs on numpy alone: in a fresh interpreter, importing
    the CLI and parsing and building every shipped scenario, a tabulated
    potential among them, loads no scipy module."""
    code = ("import pathlib, sys\n"
            "import qhj3d.cli\n"
            "from qhj3d.scenario import build_action, parse_scenario\n"
            "for path in sorted(pathlib.Path(sys.argv[1]).glob('*.scn')):\n"
            "    build_action(parse_scenario(path.read_text()))\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    src = str(Path(qhj3d.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code, SCENARIOS], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_missing_file_exit_four(capsys):
    assert main(["verify", "/no/such/scenario.scn"]) == 4


def test_cli_unwritable_out_exit_four(tmp_path, capsys):
    code = main(["verify", scenario_path("free_classical.scn"),
                 "--grid", "3,3,3", "--out", "/nonexistent-dir-qhj/r.json"])
    assert code == 4


def test_cli_trajectory_from_node_exit_three(tmp_path, capsys):
    """A start on a node lies inside the domain: exit 3, no state."""
    out = tmp_path / "t.csv"
    code = main(["trajectory", scenario_path("field2d.scn"), "--r0", f"{math.pi / 2},{math.pi / 2},0",
                 "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().out.startswith("0 states")
    assert out.read_text().strip() == CSV_HEADER


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


def test_cli_metric_defaults_to_scenario_points(tmp_path, capsys):
    """Without --at, metric reports the scenario's [metric] points, and a
    rerun writes the same bytes."""
    outs = [tmp_path / "m1.json", tmp_path / "m2.json"]
    for out in outs:
        assert main(["metric", scenario_path("field2d.scn"), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    rows = json.loads(outs[0].read_text())["points"]
    s = parse_scenario(scenario_text("field2d.scn"))
    assert [row["point"] for row in rows] == [list(p) for p in s.metric_points]
    assert all(row["reason"] == "ok" for row in rows)


def test_cli_metric_without_points_exit_two(tmp_path, capsys):
    """No --at and no [metric] section: exit 2 naming --at, nothing written."""
    text = scenario_text("free_a2.scn")
    bad = tmp_path / "bare.scn"
    bad.write_text(text[:text.index("[metric]")])
    assert parse_scenario(bad.read_text()).metric_points == ()
    code = main(["metric", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "--at" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bare.scn"]
