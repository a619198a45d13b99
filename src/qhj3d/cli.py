"""Command-line front end: verification sweeps, trajectories, metric reports.

    qhj3d verify <scenario> [--grid NX,NY,NZ] [--out report.json]
    qhj3d trajectory <scenario> [--r0 x,y,z] [--t-end T] [--out traj.csv]
                                [--plot-script traj.gp]
    qhj3d metric <scenario> [--at "x,y,z[;x,y,z...]"] [--out metric.json]

metric defaults to the scenario's [metric] points, and each row of its
report carries a reason code: ok, nodal, node_singular, out_of_domain or
non_riemannian.

Exit codes: 0 success, 2 scenario validation failure, 3 numerical failure
(threshold violation, singularity, step underflow), 4 I/O failure. An
output path (--out, the trajectory sidecar, --plot-script) that resolves
to the scenario file or to another output of the run exits 2.

All file writes are atomic (temp file + rename), trajectories are CSV with
a fixed header, and machine-readable reports are strict JSON (null for an
undefined or non-finite number); numbers keep full double precision so
repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .arrays import sparse_grid
from .dynamics import SINGULARITY, Trajectory, integrate_first_order
from .errors import (
    NODAL,
    NODE_SINGULAR,
    NON_RIEMANNIAN,
    OK,
    OUT_OF_DOMAIN,
    QhjError,
    ScenarioError,
    ValidationError,
)
from .hj_core import continuity_identity_from_sample, qshje_from_sample, sample
from .metric import (
    TWELVE_EQUATION_LABELS,
    QuantumMetric,
    a_upper_from_sample,
    canonical_jacobian,
    metric_at,
    verify_transformation,
)
from .potentials import AXES
from .scenario import (
    Scenario,
    build_action,
    parse_grid,
    parse_point,
    parse_point_list,
    parse_scenario,
    trajectory_setting,
)
from .schrodinger import ode_residual, wronskian

CSV_HEADER = "t,x,y,z,vx,vy,vz,dS0dx,dS0dy,dS0dz,law_residual,energy_residual"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".qhj3d-", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj) -> str:
    """obj as strict JSON in the layout of json.dumps(obj, indent=2), with
    null for every non-finite float, plus a newline: the one writer of
    every JSON file. Dicts need str keys; tuples are written as lists; any
    other type raises TypeError."""
    return _json(obj, "\n") + "\n"


def _json(obj, newline: str) -> str:
    """obj as JSON text whose lines after the first start with newline."""
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(value, inner) for value in obj]) + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    grid: tuple[int, int, int]
    bounds: tuple[tuple[float, float], ...]
    points_total: int
    points_evaluated: int
    nodal_skips: int
    singular_skips: int
    domain_skips: int
    max_qshje: float
    mean_qshje: float
    worst_qshje_point: list[float] | None
    max_continuity_identity: float
    worst_continuity_point: list[float] | None
    wronskian_drift: tuple[float, float, float]
    ode_residual: tuple[float, float, float]
    worst_ode_coordinate: tuple[float | None, float | None, float | None]
    signature_census: dict[str, int]
    qshje_tol: float
    continuity_tol: float
    wronskian_tol: float
    ode_tol: float
    passed: bool

    def to_dict(self):
        """The fields by name, sharing their values: no field holds a
        dataclass, so the deep copy of dataclasses.asdict is not needed."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _census(a_upper, ok) -> dict[str, int]:
    """Count of each signature (signature_chars) of a^{mumu} over the ok
    points, in order of first occurrence. A point's signature is one
    base-3 code, a digit per component: 0 for '0', 1 for '+', 2 for '-'."""
    code = 0
    for a in a_upper:
        code = 3 * code + (a > 0) + 2 * (a < 0)
    codes, first, counts = np.unique(np.broadcast_to(code, ok.shape)[ok], return_index=True,
                                     return_counts=True)
    return {"".join("0+-"[codes[i] // 3**k % 3] for k in (2, 1, 0)): int(counts[i])
            for i in np.argsort(first)}


def _worst_point(values, ok, axes):
    """Coordinates of the grid point where values is largest among the ok
    points; None if no point is ok."""
    if not ok.any():
        return None
    index = np.unravel_index(np.argmax(np.where(ok, values, -np.inf)), ok.shape)
    return [float(x.ravel()[i]) for x, i in zip(axes, index)]


def run_verify(scenario: Scenario, grid=None, out=None) -> VerificationReport:
    """Sweep a grid: residuals, Wronskian drift and ODE residual per axis,
    metric signature census.

    Nodal, node-singular and out-of-domain points are skipped and counted
    apart; the three skip counts plus the census total the grid size. A
    maximum over no evaluated point is NaN (null in the report), and a
    sweep that evaluates no point fails."""
    action = build_action(scenario)
    spec = scenario.verify
    grid = tuple(grid) if grid is not None else spec.grid

    axes = sparse_grid(spec.bounds, grid)
    s = sample(action, axes)
    q = np.abs(qshje_from_sample(action, s))
    ci = continuity_identity_from_sample(action, s)
    a_upper, status = a_upper_from_sample(action, s)
    ok = status == OK
    evaluated = int(np.count_nonzero(ok))
    nodal = int(np.count_nonzero(status == NODAL))
    singular = int(np.count_nonzero(status == NODE_SINGULAR))
    outside = int(np.count_nonzero(status == OUT_OF_DOMAIN))
    max_q = float(np.max(q[ok])) if evaluated else math.nan
    mean_q = float(np.mean(q[ok])) if evaluated else math.nan
    max_ci = float(np.max(ci[ok])) if evaluated else math.nan
    census = _census(a_upper, ok)

    # Wronskian drift and the solve's ODE residual over the part of the
    # bounds inside each axis domain; NaN (null in the report, and a FAIL)
    # where the two do not overlap
    drifts, residuals, coordinates = [], [], []
    for pair, (lo, hi) in zip(action.field.pairs, spec.bounds):
        lo, hi = max(lo, pair.domain[0]), min(hi, pair.domain[1])
        if lo > hi:
            drifts.append(math.nan)
            residuals.append(math.nan)
            coordinates.append(None)
            continue
        ref = pair.wronskian_ref
        drift = float(np.max(np.abs(wronskian(pair, np.linspace(lo, hi, 101)) - ref)))
        drifts.append(drift / max(abs(ref), 1e-300))
        residual, at = ode_residual(pair, lo, hi)
        residuals.append(residual)
        coordinates.append(at)

    passed = (evaluated > 0 and max_q < spec.qshje_tol and max_ci < spec.continuity_tol
              and all(d < spec.wronskian_tol for d in drifts)
              and all(r < spec.ode_tol for r in residuals))
    report = VerificationReport(
        grid=grid, bounds=spec.bounds, points_total=int(status.size),
        points_evaluated=evaluated, nodal_skips=nodal, singular_skips=singular, domain_skips=outside,
        max_qshje=max_q, mean_qshje=mean_q, worst_qshje_point=_worst_point(q, ok, axes),
        max_continuity_identity=max_ci, worst_continuity_point=_worst_point(ci, ok, axes),
        wronskian_drift=tuple(drifts), ode_residual=tuple(residuals),
        worst_ode_coordinate=tuple(coordinates), signature_census=census,
        qshje_tol=spec.qshje_tol, continuity_tol=spec.continuity_tol,
        wronskian_tol=spec.wronskian_tol, ode_tol=spec.ode_tol, passed=passed,
    )
    if out:
        _atomic_write(out, _json_text(report.to_dict()))
    return report


def _print_verify_report(report):
    """The report on stdout, a line naming each grid check that fails, with
    its worst point, and each axis that fails a per-axis check, and PASS or
    FAIL last."""
    print(f"grid {report.grid} over {report.bounds}")
    print(f"points: {report.points_evaluated} evaluated, "
          f"{report.nodal_skips} nodal, {report.singular_skips} singular, "
          f"{report.domain_skips} out of domain")
    print(f"max |qshje residual|      = {report.max_qshje:.3e}  (tol {report.qshje_tol:g})")
    print(f"max continuity (identity) = {report.max_continuity_identity:.3e}  (tol {report.continuity_tol:g})")
    print(f"wronskian drift per axis  = {[f'{d:.3e}' for d in report.wronskian_drift]}  "
          f"(tol {report.wronskian_tol:g})")
    print(f"ode residual per axis     = {[f'{r:.3e}' for r in report.ode_residual]}  (tol {report.ode_tol:g})")
    print(f"signature census          = {report.signature_census}")
    if report.points_evaluated == 0:
        print("no grid point was evaluated")
    else:
        for label, worst, at, tol in (
                ("qshje residual", report.max_qshje, report.worst_qshje_point, report.qshje_tol),
                ("continuity identity", report.max_continuity_identity, report.worst_continuity_point,
                 report.continuity_tol)):
            if not worst < tol:
                where = ", ".join(f"{x:.6g}" for x in at)
                print(f"{label} {worst:.3e} at ({where}) is not below {tol:g}")
    for axis, drift, residual, at in zip(AXES, report.wronskian_drift, report.ode_residual,
                                         report.worst_ode_coordinate):
        if not drift < report.wronskian_tol:
            print(f"axis {axis}: wronskian drift {drift:.3e} is not below {report.wronskian_tol:g}")
        if not residual < report.ode_tol:
            where = "" if at is None else f" at {axis} = {at:.6g}"
            print(f"axis {axis}: ode residual {residual:.3e}{where} is not below {report.ode_tol:g}")
    print("PASS" if report.passed else "FAIL")


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

# One CSV row: the CSV_HEADER columns, each as _g17 writes it.
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(",")))


def _trajectory_csv(trajectory: Trajectory) -> str:
    lines = [CSV_HEADER]
    for st, grad, law, energy in zip(trajectory.states, trajectory.grad_s0.tolist(),
                                     trajectory.law_residuals.tolist(),
                                     trajectory.energy_residuals.tolist()):
        lines.append(_CSV_ROW % (st.t, *st.position.tolist(), *st.velocity.tolist(), *grad, law, energy))
    return "\n".join(lines) + "\n"


def _sidecar_path(out):
    return os.path.splitext(out)[0] + ".json"


def _trajectory_outputs(out, plot_script):
    """(flag, path, what) of each file a trajectory run writes, in order."""
    outputs = [("--out", out, "CSV"), ("--out", _sidecar_path(out), "sidecar")]
    return outputs + ([("--plot-script", plot_script, "plot script")] if plot_script else [])


def _check_outputs(outputs, scenario_path=None):
    """ValidationError naming its flag for an output path that resolves to
    the scenario file or to an earlier output of the same run."""
    taken = {} if scenario_path is None else {os.path.realpath(scenario_path): "the scenario file"}
    for flag, path, what in outputs:
        real = os.path.realpath(path)
        if real in taken:
            raise ValidationError(flag, f"the {what} {path!r} would overwrite {taken[real]}")
        taken[real] = f"the {what}"


def _check_start(field, r0, name):
    """ValidationError naming name unless every coordinate of r0 lies in
    its axis domain."""
    for pair, x in zip(field.pairs, r0):
        if not pair.contains(x):
            raise ValidationError(name, f"{x!r} lies outside the axis {pair.axis} domain {pair.domain}")


def run_trajectory(scenario: Scenario, r0=None, t_end=None, out="trajectory.csv",
                   plot_script=None) -> Trajectory:
    """Integrate the scenario trajectory and write CSV + termination sidecar.

    A start outside the domain raises ValidationError naming --r0 when r0
    is given, else trajectory.r0, and writes nothing; so does an output
    path that would overwrite another (ValidationError naming --out or
    --plot-script). A run that starts on a node (or momentum singularity)
    ends there with no state."""
    _check_outputs(_trajectory_outputs(out, plot_script))
    action = build_action(scenario)
    spec = scenario.trajectory
    name = "--r0" if r0 is not None else "trajectory.r0"
    r0 = tuple(r0) if r0 is not None else spec.r0
    _check_start(action.field, r0, name)
    config = spec if t_end is None else dataclasses.replace(spec, t_end=float(t_end))
    trajectory = integrate_first_order(action, r0, config)

    _atomic_write(out, _trajectory_csv(trajectory))
    payload = {
        "termination": dataclasses.asdict(trajectory.termination),
        "r0": list(r0),
        "t_end": config.t_end,
        "states": len(trajectory.states),
        "max_law_residual": trajectory.max_law_residual if trajectory.states else None,
        "max_energy_residual": trajectory.max_energy_residual if trajectory.states else None,
        "integrator": dataclasses.asdict(trajectory.stats),
    }
    _atomic_write(_sidecar_path(out), _json_text(payload))
    if plot_script:
        _atomic_write(plot_script, _gnuplot_script(out))
    return trajectory


def _gnuplot_script(csv_path: str) -> str:
    name = os.path.basename(csv_path)
    return "\n".join([
        f"# trajectory plot for {name}",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 't'",
        f"plot '{name}' using 1:2 with lines, \\",
        f"     '{name}' using 1:3 with lines, \\",
        f"     '{name}' using 1:4 with lines",
    ]) + "\n"


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

REASONS = {OK: "ok", NODAL: "nodal", NODE_SINGULAR: "node_singular",
           OUT_OF_DOMAIN: "out_of_domain", NON_RIEMANNIAN: "non_riemannian"}


def _metric_rows(points, met: QuantumMetric) -> list:
    """One report row per point of the metric batch met: its reason code,
    and the metric, canonical Jacobian and 12-equation residuals as far as
    they are defined."""
    jac = canonical_jacobian(met)
    residuals = verify_transformation(jac, met)
    signature = met.signature[0] + met.signature[1] + met.signature[2]
    a_upper, a_lower, entries, res, worst = (
        x.tolist() for x in (met.a_upper, met.a_lower, jac.entries, residuals, residuals.max(axis=-1)))
    rows = []
    for i, (p, status) in enumerate(zip(points, jac.status.tolist())):
        row = {"point": list(p), "reason": REASONS[status]}
        if status == OK:
            row.update(a_upper=a_upper[i], a_lower=a_lower[i], signature=str(signature[i]),
                       jacobian=entries[i], residuals=dict(zip(TWELVE_EQUATION_LABELS, res[i])),
                       max_residual=worst[i])
        elif status == NON_RIEMANNIAN:
            row.update(a_upper=a_upper[i], a_lower=a_lower[i], signature=str(signature[i]),
                       jacobian=None, error=f"NonRiemannianPoint: signature {signature[i]}")
        rows.append(row)
    return rows


def _point_row(action, p, row) -> dict:
    """row, a batch row of an undefined point, with the error that the
    point raises alone; the row of the point's own metric if it raises
    none."""
    try:
        met = metric_at(action, p)
    except QhjError as exc:
        return {**row, "error": f"{type(exc).__name__}: {exc}"}
    one = QuantumMetric(a_upper=met.a_upper[None], a_lower=met.a_lower[None],
                        signature=tuple(np.array([c]) for c in met.signature), status=np.array([OK]))
    return _metric_rows([p], one)[0]


def run_metric(scenario: Scenario, points=None, out=None) -> dict:
    """Metric, canonical Jacobian and 12-equation residuals per point, in
    one kernel call for the whole batch. points default to the scenario's
    [metric] points; with neither, ValidationError names --at.

    Each row carries a reason code (REASONS). A nodal, node-singular or
    out-of-domain row takes its error text from the point's own
    evaluation."""
    action = build_action(scenario)
    if points is None:
        points = scenario.metric_points
        if not points:
            raise ValidationError("--at", "needed: the scenario has no [metric] points")
    coords = tuple(np.array(points, dtype=float).reshape(-1, 3).T.copy())
    met = metric_at(action, coords)
    rows = _metric_rows(points, met)
    for i in np.flatnonzero(met.status != OK).tolist():
        rows[i] = _point_row(action, points[i], rows[i])
    report = {"points": rows}
    if out:
        _atomic_write(out, _json_text(report))
    return report


def _print_metric_report(report):
    for entry in report["points"]:
        point = ", ".join(_g17(c) for c in entry["point"])
        print(f"point ({point}):")
        if "a_upper" not in entry:
            print(f"  {entry['error']}")
            continue
        print(f"  a_upper   = {entry['a_upper']}")
        print(f"  a_lower   = {entry['a_lower']}")
        print(f"  signature = {entry['signature']}")
        if entry.get("jacobian") is None:
            print(f"  {entry['error']}")
        else:
            for row in entry["jacobian"]:
                print(f"  J {row}")
            print(f"  max 12-equation residual = {entry['max_residual']:.3e}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_scenario(path: str) -> Scenario:
    with open(path) as handle:
        return parse_scenario(handle.read())


def _build_parser():
    parser = argparse.ArgumentParser(prog="qhj3d",
                                     description="Quantum trajectory engine driven by scenario files")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="residual/metric sweep over a grid")
    p_verify.add_argument("scenario")
    p_verify.add_argument("--grid", help="NX,NY,NZ grid point counts")
    p_verify.add_argument("--out", default="verify_report.json")

    p_traj = sub.add_parser("trajectory", help="integrate a quantum trajectory")
    p_traj.add_argument("scenario")
    p_traj.add_argument("--r0", help="starting point x,y,z")
    p_traj.add_argument("--t-end", type=float, dest="t_end")
    p_traj.add_argument("--out", default="trajectory.csv")
    p_traj.add_argument("--plot-script", dest="plot_script",
                        help="write a gnuplot script referencing the CSV")

    p_metric = sub.add_parser("metric", help="metric and Jacobian at points")
    p_metric.add_argument("scenario")
    p_metric.add_argument("--at", help="x,y,z[;x,y,z...] (default: the scenario's [metric] points)")
    p_metric.add_argument("--out", default=None)
    return parser


def _outputs(args) -> list:
    """(flag, path, what) of each file the command writes."""
    if args.command == "trajectory":
        return _trajectory_outputs(args.out, args.plot_script)
    return [("--out", args.out, "report")] if args.out else []


def _overrides(args) -> dict:
    """The command's keyword overrides, checked by the scenario-file rules."""
    if args.command == "verify":
        return {"grid": parse_grid(args.grid, "--grid") if args.grid else None}
    if args.command == "trajectory":
        return {"r0": parse_point(args.r0, "--r0") if args.r0 else None,
                "t_end": None if args.t_end is None else trajectory_setting("t_end", args.t_end, "--t-end")}
    return {"points": None if args.at is None else parse_point_list(args.at, "--at")}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_outputs(_outputs(args), args.scenario)
        overrides = _overrides(args)
    except ValidationError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = _load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4

    try:
        if args.command == "verify":
            report = run_verify(scenario, out=args.out, **overrides)
            _print_verify_report(report)
            return 0 if report.passed else 3

        if args.command == "trajectory":
            trajectory = run_trajectory(scenario, out=args.out, plot_script=args.plot_script,
                                        **overrides)
            term = trajectory.termination
            print(f"{len(trajectory.states)} states -> {args.out}")
            print(f"termination: {term.status}" + (f" ({term.kind})" if term.kind else "")
                  + (f" at t = {term.t:.6g}" if term.t is not None else ""))
            if trajectory.states:
                print(f"max law residual    = {trajectory.max_law_residual:.3e}")
                print(f"max energy residual = {trajectory.max_energy_residual:.3e}")
            return 3 if term.status == SINGULARITY else 0

        if args.command == "metric":
            report = run_metric(scenario, out=args.out, **overrides)
            _print_metric_report(report)
            return 0
    except ScenarioError as exc:
        flag = getattr(exc, "field", "").startswith("--")
        print(f"{'invalid argument' if flag else 'scenario error'}: {exc}", file=sys.stderr)
        return 2
    except (QhjError, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
