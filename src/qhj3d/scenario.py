"""Scenario files: a line-oriented [section] / key = value format.

Sections: [physics], [potential], [solutions.x|y|z], [field], [action],
and optional [verify], [trajectory], [metric]. Lists are comma-separated;
field terms read  coef * sel_x * sel_y * sel_z  with sel in {u1, u2};
parenthesised potential parameters read  harmonic(omega = 1.0).

Parsing checks syntax and cross-references, asks each other rule's owner
(potentials, catalog, Numerov, terms, mixing), and returns a Scenario of
validated values and the axis potentials it constructed, which the builders
use as they are, or raises a line-anchored ParseError / field-anchored
ValidationError. Parsing a serialized Scenario gives an equal Scenario.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, QhjError, ValidationError
from .potentials import AXES, AxisPotential, axis_potential
from .schrodinger import (
    CATALOG,
    SolutionField3D,
    assemble_field,
    catalog_energy,
    check_ode_scale,
    normalize_terms,
    numerov_grid,
    solve_axis_analytic,
    solve_axis_numerov,
)
from .dynamics import IntegratorConfig, check_setting
from .hj_core import ReducedActionField, check_mixing

_KNOWN_SECTIONS = ("physics", "potential", "solutions.x", "solutions.y", "solutions.z",
                   "field", "action", "verify", "trajectory", "metric")
_REQUIRED_SECTIONS = ("physics", "potential", "solutions.x", "solutions.y", "solutions.z",
                      "field", "action")


@dataclass(frozen=True)
class CatalogSpec:
    entry: str
    params: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class NumerovSpec:
    e_axis: float
    domain: tuple[float, float]
    step: float
    ic1: tuple[float, float]
    ic2: tuple[float, float]
    ic_at: float | None = None


@dataclass(frozen=True)
class VerifySpec:
    grid: tuple[int, int, int] = (21, 21, 21)
    bounds: tuple[tuple[float, float], ...] = ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))
    qshje_tol: float = 1e-9
    continuity_tol: float = 1e-13
    wronskian_tol: float = 1e-9
    ode_tol: float = 1e-6


@dataclass(frozen=True)
class TrajectorySpec(IntegratorConfig):
    """[trajectory]: the integrator's settings, with the file default
    t_end, and the start r0."""

    t_end: float = 5.0
    r0: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Scenario:
    hbar: float
    mass: float
    potentials: tuple[AxisPotential, AxisPotential, AxisPotential]
    solutions: tuple[CatalogSpec | NumerovSpec, ...]
    theta_terms: tuple[tuple[float, tuple[str, str, str]], ...]
    phi_terms: tuple[tuple[float, tuple[str, str, str]], ...]
    a: float
    b: float
    verify: VerifySpec = VerifySpec()
    trajectory: TrajectorySpec = TrajectorySpec()
    metric_points: tuple[tuple[float, float, float], ...] = ()

    @property
    def energy(self) -> float:
        return sum(spec.e_axis if isinstance(spec, NumerovSpec)
                   else catalog_energy(spec.entry, dict(spec.params), m0=self.mass, hbar=self.hbar)
                   for spec in self.solutions)

    # What build_field and build_action return, kept on this object from
    # their first success: a build that raises keeps nothing. The fields
    # are frozen, so the build cannot go stale, and it is kept per object,
    # not per value, so every Scenario parsed anew is built anew.

    @cached_property
    def _field(self) -> SolutionField3D:
        pairs = []
        for ax, potential, spec in zip(AXES, self.potentials, self.solutions):
            if isinstance(spec, CatalogSpec):
                pairs.append(solve_axis_analytic(spec.entry, dict(spec.params),
                                                 m0=self.mass, hbar=self.hbar, axis=ax))
            else:
                pairs.append(solve_axis_numerov(potential, spec.e_axis, spec.domain, spec.step, spec.ic1,
                                                spec.ic2, m0=self.mass, hbar=self.hbar, axis=ax,
                                                ic_at=spec.ic_at))
        return assemble_field(pairs, self.theta_terms, self.phi_terms)

    @cached_property
    def _action(self) -> ReducedActionField:
        return ReducedActionField(build_field(self), self.a, self.b)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _split_sections(text):
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if name not in _KNOWN_SECTIONS:
                raise ParseError(lineno, f"unknown section [{name}]")
            if name in sections:
                raise ParseError(lineno, f"duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected key = value, got {raw.strip()!r}")
        if current is None:
            raise ParseError(lineno, "key = value before any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if any(k == key for _, k, _ in sections[current]):
            raise ParseError(lineno, f"duplicate key {key!r} in [{current}]")
        sections[current].append((lineno, key, value))
    return sections


def _as_dict(entries):
    return {k: v for _, k, v in entries}


def _float(value, field, *, inf_ok=False):
    """A finite number (or +inf where inf_ok)."""
    try:
        x = float(value)
    except ValueError:
        raise ValidationError(field, f"not a number: {value!r}") from None
    if not (math.isfinite(x) or (inf_ok and x == math.inf)):
        raise ValidationError(field, f"must be finite, got {value!r}")
    return x


def _owned(field, check, *args, **kwargs):
    """check(*args, **kwargs), a broken rule reported against field."""
    try:
        return check(*args, **kwargs)
    except (ValueError, QhjError) as exc:
        raise ValidationError(field, str(exc)) from None


def _float_list(value, field, count=None):
    parts = [p.strip() for p in value.split(",") if p.strip()]
    out = tuple(_float(p, field) for p in parts)
    if count is not None and len(out) != count:
        raise ValidationError(field, f"expected {count} comma-separated numbers, got {len(out)}")
    return out


def _int_list(value, field, count):
    vals = _float_list(value, field, count)
    if not all(v == int(v) for v in vals):
        raise ValidationError(field, "expected integers")
    return tuple(int(v) for v in vals)


# Largest verify grid (100^3). verify holds about 310 bytes per point, so
# the ceiling is about 0.3 GB.
MAX_GRID_POINTS = 10**6


def parse_grid(value, field):
    """NX,NY,NZ grid point counts, each at least 2, at most MAX_GRID_POINTS
    points in all."""
    grid = _int_list(value, field, 3)
    if any(n < 2 for n in grid):
        raise ValidationError(field, "grid counts must be >= 2")
    if math.prod(grid) > MAX_GRID_POINTS:
        raise ValidationError(field, f"grid must have at most {MAX_GRID_POINTS:,} points (NX*NY*NZ)")
    return grid


def parse_point(value, field):
    """One x,y,z point."""
    return _float_list(value, field, 3)


def check_positive(value, field):
    if not 0 < value < math.inf:
        raise ValidationError(field, "must be positive and finite")
    return value


def trajectory_setting(key, value, field):
    """A [trajectory] number by the integrator's rule for key, a broken
    rule reported against field."""
    return _owned(field, check_setting, key, value)


_POTENTIAL_RE = re.compile(r"^(\w+)\s*(?:\((.*)\))?$")


def _parse_potential_value(value, field, mass):
    m = _POTENTIAL_RE.match(value.strip())
    if not m:
        raise ValidationError(field, f"cannot parse potential {value!r}")
    kind, arglist = m.group(1), m.group(2)
    params = {}
    if arglist:
        for item in arglist.split(","):
            if "=" not in item:
                raise ValidationError(field, f"potential parameter needs key=value: {item.strip()!r}")
            k, v = (s.strip() for s in item.split("=", 1))
            values = tuple(_float(p, f"{field}.{k}") for p in v.split())
            params[k] = values[0] if len(values) == 1 else values
    return _owned(field, axis_potential, kind, params, mass)


def _parse_terms(value, field):
    terms = []
    for chunk in filter(str.strip, value.split(",")):
        coef, *sels = (p.strip() for p in chunk.split("*"))
        terms.append((_float(coef, field), tuple(sels)))
    return _owned(field, normalize_terms, terms, field.rsplit(".", 1)[-1])


def _parse_solution_section(entries, axis, hbar, mass):
    field = f"solutions.{axis}"
    data = _as_dict(entries)
    source = data.pop("source", None)
    if source is None:
        raise ValidationError(f"{field}.source", "missing")
    source = source.strip()
    if source.startswith("catalog:"):
        entry = source.split(":", 1)[1].strip()
        if entry not in CATALOG:
            raise ValidationError(f"{field}.source", f"unknown catalog entry {entry!r}")
        params = {}
        for key in CATALOG[entry][0]:
            if key not in data:
                raise ValidationError(f"{field}.{key}", f"required by catalog:{entry}")
            params[key] = _float(data.pop(key), f"{field}.{key}")
        e_axis = _float(data.pop("e_axis"), f"{field}.e_axis") if "e_axis" in data else None
        if data:
            raise ValidationError(field, f"unexpected keys {sorted(data)}")
        _owned(field, catalog_energy, entry, params, e_axis, m0=mass, hbar=hbar)
        return CatalogSpec(entry=entry, params=tuple(sorted(params.items())))
    if source == "numerov":
        try:
            spec = NumerovSpec(
                e_axis=_float(data.pop("e_axis"), f"{field}.e_axis"),
                domain=_float_list(data.pop("domain"), f"{field}.domain", 2),
                step=_float(data.pop("step"), f"{field}.step"),
                ic1=_float_list(data.pop("ic1"), f"{field}.ic1", 2),
                ic2=_float_list(data.pop("ic2"), f"{field}.ic2", 2),
                ic_at=_float(data.pop("ic_at"), f"{field}.ic_at") if "ic_at" in data else None,
            )
        except KeyError as exc:
            raise ValidationError(f"{field}.{exc.args[0]}", "missing") from None
        if data:
            raise ValidationError(field, f"unexpected keys {sorted(data)}")
        _owned(field, numerov_grid, spec.e_axis, spec.domain, spec.step, spec.ic1, spec.ic2,
               spec.ic_at)
        return spec
    raise ValidationError(f"{field}.source", f"unknown source {source!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file's contents."""
    sections = _split_sections(text)
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ValidationError(name, "required section missing")

    phys = _as_dict(sections["physics"])
    if set(phys) != {"hbar", "mass"}:
        raise ValidationError("physics", "needs exactly hbar = ... and mass = ...")
    hbar = check_positive(_float(phys["hbar"], "physics.hbar"), "physics.hbar")
    mass = check_positive(_float(phys["mass"], "physics.mass"), "physics.mass")
    # hbar first at unit mass, so that a scale hbar alone breaks names hbar
    _owned("physics.hbar", check_ode_scale, 1.0, hbar)
    _owned("physics.mass", check_ode_scale, mass, hbar)

    pot = _as_dict(sections["potential"])
    if set(pot) != set(AXES):
        raise ValidationError("potential", f"needs exactly the axes {AXES}")
    potentials = tuple(_parse_potential_value(pot[ax], f"potential.{ax}", mass) for ax in AXES)

    solutions = []
    for ax, potential in zip(AXES, potentials):
        spec = _parse_solution_section(sections[f"solutions.{ax}"], ax, hbar, mass)
        if isinstance(spec, CatalogSpec) and potential.kind != "free":
            raise ValidationError(
                f"solutions.{ax}.source",
                f"catalog entries assume a free axis potential, but potential.{ax} is {potential.kind}",
            )
        if isinstance(spec, NumerovSpec) and not all(potential.contains(x) for x in spec.domain):
            raise ValidationError(f"solutions.{ax}.domain",
                                  f"{spec.domain} reaches outside the potential.{ax} domain {potential.domain}")
        solutions.append(spec)
    solutions = tuple(solutions)

    fld = _as_dict(sections["field"])
    if set(fld) != {"theta", "phi"}:
        raise ValidationError("field", "needs exactly theta = ... and phi = ...")
    theta_terms = _parse_terms(fld["theta"], "field.theta")
    phi_terms = _parse_terms(fld["phi"], "field.phi")
    if theta_terms == phi_terms:
        raise ValidationError("field.phi", "identical to the term list of field.theta")

    actd = _as_dict(sections["action"])
    if set(actd) != {"a", "b"}:
        raise ValidationError("action", "needs exactly a = ... and b = ...")
    a = _float(actd["a"], "action.a")
    b = _float(actd["b"], "action.b")
    _owned("action.b", check_mixing, 1.0, b)  # b first at a valid a, so a broken b names b
    _owned("action.a", check_mixing, a, b)

    verify = VerifySpec()
    if "verify" in sections:
        v = _as_dict(sections["verify"])
        kwargs = {}
        if "grid" in v:
            kwargs["grid"] = parse_grid(v.pop("grid"), "verify.grid")
        bounds = list(VerifySpec().bounds)
        for i, ax in enumerate(AXES):
            if ax in v:
                name = f"verify.{ax}"
                lo, hi = bounds[i] = _float_list(v.pop(ax), name, 2)
                # lo < hi, and a width the grid spacing can be computed from
                if not 0.0 < hi - lo < math.inf:
                    raise ValidationError(name, "bounds need lo < hi and a finite width hi - lo")
        kwargs["bounds"] = tuple(bounds)
        for key in ("qshje_tol", "continuity_tol", "wronskian_tol", "ode_tol"):
            if key in v:
                name = f"verify.{key}"
                kwargs[key] = check_positive(_float(v.pop(key), name), name)
        if v:
            raise ValidationError("verify", f"unexpected keys {sorted(v)}")
        verify = VerifySpec(**kwargs)

    t = _as_dict(sections.get("trajectory", ()))
    kwargs = {}
    if "r0" in t:
        kwargs["r0"] = parse_point(t.pop("r0"), "trajectory.r0")
    for key in (f.name for f in dataclasses.fields(IntegratorConfig)):
        if key in t:
            name = f"trajectory.{key}"
            kwargs[key] = trajectory_setting(key, _float(t.pop(key), name, inf_ok=True), name)
    if t:
        raise ValidationError("trajectory", f"unexpected keys {sorted(t)}")
    trajectory = TrajectorySpec(**kwargs)

    metric_points = ()
    if "metric" in sections:
        m = _as_dict(sections["metric"])
        if set(m) != {"points"}:
            raise ValidationError("metric", "needs exactly points = x,y,z; x,y,z; ...")
        metric_points = parse_point_list(m["points"], "metric.points")

    return Scenario(
        hbar=hbar, mass=mass, potentials=potentials, solutions=solutions,
        theta_terms=theta_terms, phi_terms=phi_terms, a=a, b=b,
        verify=verify, trajectory=trajectory, metric_points=metric_points,
    )


def parse_point_list(value, field="points"):
    points = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        points.append(parse_point(chunk, field))
    if not points:
        raise ValidationError(field, "needs at least one x,y,z point")
    return tuple(points)


# ---------------------------------------------------------------------------
# Serialization (canonical form; parse(serialize(s)) == s)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """A float, or a tuple of floats comma-separated, at full precision."""
    return ", ".join(_fmt(v) for v in x) if isinstance(x, tuple) else repr(float(x))


def _fmt_fields(spec) -> list[str]:
    return [f"{f.name} = {_fmt(getattr(spec, f.name))}" for f in dataclasses.fields(spec)
            if getattr(spec, f.name) is not None]


def _fmt_potential(potential: AxisPotential) -> str:
    """kind(name = value, ...) from the constructor fields, all but mass,
    which [physics] holds; a list value is space-separated."""
    values = {f.name: getattr(potential, f.name) for f in dataclasses.fields(potential) if f.init}
    parts = [f"{key} = " + " ".join(map(_fmt, val if isinstance(val, tuple) else (val,)))
             for key, val in values.items() if key != "mass"]
    return f"{potential.kind}({', '.join(parts)})" if parts else potential.kind


def _fmt_terms(terms) -> str:
    return ", ".join(f"{_fmt(c)} * " + " * ".join(sels) for c, sels in terms)


def serialize_scenario(s: Scenario) -> str:
    lines = ["[physics]", f"hbar = {_fmt(s.hbar)}", f"mass = {_fmt(s.mass)}", ""]
    lines.append("[potential]")
    for ax, potential in zip(AXES, s.potentials):
        lines.append(f"{ax} = {_fmt_potential(potential)}")
    lines.append("")
    for ax, spec in zip(AXES, s.solutions):
        lines.append(f"[solutions.{ax}]")
        if isinstance(spec, CatalogSpec):
            lines.append(f"source = catalog:{spec.entry}")
            lines += [f"{key} = {_fmt(val)}" for key, val in spec.params]
        else:
            lines += ["source = numerov", *_fmt_fields(spec)]
        lines.append("")
    lines += ["[field]", f"theta = {_fmt_terms(s.theta_terms)}", f"phi = {_fmt_terms(s.phi_terms)}", ""]
    lines += ["[action]", f"a = {_fmt(s.a)}", f"b = {_fmt(s.b)}", ""]
    v = s.verify
    lines += ["[verify]", "grid = " + ", ".join(str(g) for g in v.grid)]
    lines += [f"{ax} = {_fmt(bounds)}" for ax, bounds in zip(AXES, v.bounds)]
    lines += _fmt_fields(v)[2:]  # the tolerances
    lines += ["", "[trajectory]", *_fmt_fields(s.trajectory)]
    if s.metric_points:
        lines += ["", "[metric]", "points = " + "; ".join(_fmt(p) for p in s.metric_points)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Builders: Scenario -> live objects
# ---------------------------------------------------------------------------

def build_field(s: Scenario) -> SolutionField3D:
    """The scenario's 3D field, from one solve per axis, built on the first
    call for s and kept on s (Scenario._field). Equal Numerov axes of
    different scenarios share one table through solve_axis_numerov's memo
    of solved axes."""
    return s._field


def build_action(s: Scenario) -> ReducedActionField:
    """The scenario's action on its field, built on the first call for s
    and kept on s (Scenario._action)."""
    return s._action
