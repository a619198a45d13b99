"""Scenario files: a line-oriented [section] / key = value format.

Sections: [physics], [potential], [solutions.x|y|z], [field], [action],
and optional [verify], [trajectory], [metric]. Lists are comma-separated;
field terms read  coef * sel_x * sel_y * sel_z  with sel in {u1, u2};
parenthesised potential parameters read  harmonic(omega = 1.0).

Parsing validates every cross-reference up front and either returns a
fully-validated Scenario or raises a line-anchored ParseError /
field-anchored ValidationError. Scenarios are plain data: parse,
serialize, parse round-trips to an equal value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError, ProportionalSolutions, ValidationError
from .potentials import (
    AXES,
    Free,
    HarmonicOscillator,
    LinearRamp,
    SeparablePotential,
    Tabulated,
)
from .schrodinger import SELECTORS, assemble_field, solve_axis_analytic, solve_axis_numerov
from .hj_core import ReducedActionField

_KNOWN_SECTIONS = ("physics", "potential", "solutions.x", "solutions.y", "solutions.z",
                   "field", "action", "verify", "trajectory", "metric")
_REQUIRED_SECTIONS = ("physics", "potential", "solutions.x", "solutions.y", "solutions.z",
                      "field", "action")

_CATALOG_ENERGY = {
    "free": lambda p, hbar, m0: (hbar * p["k"]) ** 2 / (2.0 * m0),
    "zero_energy_free": lambda p, hbar, m0: 0.0,
    "box": lambda p, hbar, m0: (hbar * p["n"] * math.pi / p["L"]) ** 2 / (2.0 * m0),
}
_CATALOG_PARAMS = {"free": ("k",), "zero_energy_free": (), "box": ("L", "n")}


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    params: tuple[tuple[str, tuple[float, ...] | float], ...] = ()


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


@dataclass(frozen=True)
class TrajectorySpec:
    r0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    t_end: float = 5.0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = math.inf
    singularity_eps: float = 1e-10


@dataclass(frozen=True)
class Scenario:
    hbar: float
    mass: float
    potentials: tuple[PotentialSpec, PotentialSpec, PotentialSpec]
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
        total = 0.0
        for spec in self.solutions:
            if isinstance(spec, NumerovSpec):
                total += spec.e_axis
            else:
                total += _CATALOG_ENERGY[spec.entry](dict(spec.params), self.hbar, self.mass)
        return total


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


def _float(value, field):
    try:
        return float(value)
    except ValueError:
        raise ValidationError(field, f"not a number: {value!r}") from None


def _float_list(value, field, count=None):
    parts = [p.strip() for p in value.split(",") if p.strip()]
    out = tuple(_float(p, field) for p in parts)
    if count is not None and len(out) != count:
        raise ValidationError(field, f"expected {count} comma-separated numbers, got {len(out)}")
    return out


def _int_list(value, field, count):
    vals = _float_list(value, field, count)
    if not all(math.isfinite(v) and v == int(v) for v in vals):
        raise ValidationError(field, "expected integers")
    return tuple(int(v) for v in vals)


def parse_grid(value, field):
    """NX,NY,NZ grid point counts, each at least 2."""
    grid = _int_list(value, field, 3)
    if any(n < 2 for n in grid):
        raise ValidationError(field, "grid counts must be >= 2")
    return grid


def parse_point(value, field):
    """One x,y,z point."""
    return _float_list(value, field, 3)


def check_positive(value, field):
    if not value > 0:
        raise ValidationError(field, "must be positive")
    return value


_POTENTIAL_RE = re.compile(r"^(\w+)\s*(?:\((.*)\))?$")


def _parse_potential_value(value, field):
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
            pieces = v.split()
            if len(pieces) > 1:
                params[k] = tuple(_float(p, f"{field}.{k}") for p in pieces)
            else:
                params[k] = _float(v, f"{field}.{k}")
    if kind == "free":
        if params:
            raise ValidationError(field, "free takes no parameters")
    elif kind == "harmonic":
        if set(params) != {"omega"}:
            raise ValidationError(field, "harmonic needs exactly omega=...")
        if not params["omega"] > 0:
            raise ValidationError(field, "omega must be positive")
    elif kind == "linear":
        if set(params) != {"slope"}:
            raise ValidationError(field, "linear needs exactly slope=...")
    elif kind == "tabulated":
        if set(params) != {"grid", "values"}:
            raise ValidationError(field, "tabulated needs grid=... and values=...")
        grid = params["grid"] if isinstance(params["grid"], tuple) else (params["grid"],)
        vals = params["values"] if isinstance(params["values"], tuple) else (params["values"],)
        if len(grid) < 4 or len(grid) != len(vals):
            raise ValidationError(field, "tabulated needs >= 4 grid points matching values")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError(field, "tabulated grid must be strictly ascending")
        params = {"grid": grid, "values": vals}
    else:
        raise ValidationError(field, f"unknown potential kind {kind!r}")
    return PotentialSpec(kind=kind, params=tuple(sorted(params.items())))


def _parse_terms(value, field):
    terms = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        pieces = [p.strip() for p in chunk.split("*")]
        if len(pieces) != 4:
            raise ValidationError(field, f"term must be coef * sel_x * sel_y * sel_z: {chunk!r}")
        coef = _float(pieces[0], field)
        sels = tuple(pieces[1:])
        if any(s not in SELECTORS for s in sels):
            raise ValidationError(field, f"selectors must be u1 or u2: {chunk!r}")
        terms.append((coef, sels))
    if not terms:
        raise ValidationError(field, "needs at least one product term")
    return tuple(terms)


def _parse_solution_section(entries, axis, hbar, mass):
    field = f"solutions.{axis}"
    data = _as_dict(entries)
    source = data.pop("source", None)
    if source is None:
        raise ValidationError(f"{field}.source", "missing")
    source = source.strip()
    if source.startswith("catalog:"):
        entry = source.split(":", 1)[1].strip()
        if entry not in _CATALOG_PARAMS:
            raise ValidationError(f"{field}.source", f"unknown catalog entry {entry!r}")
        wanted = _CATALOG_PARAMS[entry]
        params = {}
        for key in wanted:
            if key not in data:
                raise ValidationError(f"{field}.{key}", f"required by catalog:{entry}")
            params[key] = _float(data.pop(key), f"{field}.{key}")
        e_axis = data.pop("e_axis", None)
        if e_axis is not None:
            expected = _CATALOG_ENERGY[entry](params, hbar, mass)
            if abs(_float(e_axis, f"{field}.e_axis") - expected) > 1e-12 * max(1.0, abs(expected)):
                raise ValidationError(f"{field}.e_axis", f"conflicts with catalog value {expected!r}")
        if data:
            raise ValidationError(field, f"unexpected keys {sorted(data)}")
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
        if not spec.domain[0] < spec.domain[1]:
            raise ValidationError(f"{field}.domain", "needs lo < hi")
        if not spec.step > 0:
            raise ValidationError(f"{field}.step", "must be positive")
        if spec.ic_at is not None and not (spec.domain[0] <= spec.ic_at <= spec.domain[1]):
            raise ValidationError(f"{field}.ic_at", "must lie inside domain")
        if data:
            raise ValidationError(field, f"unexpected keys {sorted(data)}")
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
    hbar = _float(phys["hbar"], "physics.hbar")
    mass = _float(phys["mass"], "physics.mass")
    if hbar <= 0 or mass <= 0:
        raise ValidationError("physics", "hbar and mass must be positive")

    pot = _as_dict(sections["potential"])
    if set(pot) != set(AXES):
        raise ValidationError("potential", f"needs exactly the axes {AXES}")
    potentials = tuple(_parse_potential_value(pot[ax], f"potential.{ax}") for ax in AXES)

    solutions = []
    for i, ax in enumerate(AXES):
        spec = _parse_solution_section(sections[f"solutions.{ax}"], ax, hbar, mass)
        if isinstance(spec, CatalogSpec) and potentials[i].kind != "free":
            raise ValidationError(
                f"solutions.{ax}.source",
                f"catalog entries assume a free axis potential, but potential.{ax} is {potentials[i].kind}",
            )
        solutions.append(spec)
    solutions = tuple(solutions)

    fld = _as_dict(sections["field"])
    if set(fld) != {"theta", "phi"}:
        raise ValidationError("field", "needs exactly theta = ... and phi = ...")
    theta_terms = _parse_terms(fld["theta"], "field.theta")
    phi_terms = _parse_terms(fld["phi"], "field.phi")
    if theta_terms == phi_terms:
        raise ProportionalSolutions("field.theta and field.phi are identical term lists")

    actd = _as_dict(sections["action"])
    if set(actd) != {"a", "b"}:
        raise ValidationError("action", "needs exactly a = ... and b = ...")
    a = _float(actd["a"], "action.a")
    b = _float(actd["b"], "action.b")
    if a == 0.0:
        raise ValidationError("action.a", "must be nonzero")

    verify = VerifySpec()
    if "verify" in sections:
        v = _as_dict(sections["verify"])
        kwargs = {}
        if "grid" in v:
            kwargs["grid"] = parse_grid(v.pop("grid"), "verify.grid")
        bounds = list(VerifySpec().bounds)
        for i, ax in enumerate(AXES):
            if ax in v:
                bounds[i] = _float_list(v.pop(ax), f"verify.{ax}", 2)
        kwargs["bounds"] = tuple(bounds)
        for key in ("qshje_tol", "continuity_tol", "wronskian_tol"):
            if key in v:
                kwargs[key] = _float(v.pop(key), f"verify.{key}")
        if v:
            raise ValidationError("verify", f"unexpected keys {sorted(v)}")
        verify = VerifySpec(**kwargs)
        if any(not lo < hi for lo, hi in verify.bounds):
            raise ValidationError("verify", "bounds need lo < hi")

    trajectory = TrajectorySpec()
    if "trajectory" in sections:
        t = _as_dict(sections["trajectory"])
        kwargs = {}
        if "r0" in t:
            kwargs["r0"] = parse_point(t.pop("r0"), "trajectory.r0")
        for key in ("t_end", "rel_tol", "abs_tol", "max_step", "singularity_eps"):
            if key in t:
                kwargs[key] = _float(t.pop(key), f"trajectory.{key}")
        if t:
            raise ValidationError("trajectory", f"unexpected keys {sorted(t)}")
        trajectory = TrajectorySpec(**kwargs)
        for key in ("t_end", "rel_tol", "abs_tol", "max_step", "singularity_eps"):
            check_positive(getattr(trajectory, key), f"trajectory.{key}")

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

def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_potential(spec: PotentialSpec) -> str:
    if not spec.params:
        return spec.kind
    parts = []
    for key, val in spec.params:
        if isinstance(val, tuple):
            parts.append(f"{key} = " + " ".join(_fmt(v) for v in val))
        else:
            parts.append(f"{key} = {_fmt(val)}")
    return f"{spec.kind}(" + ", ".join(parts) + ")"


def _fmt_terms(terms) -> str:
    return ", ".join(f"{_fmt(c)} * " + " * ".join(sels) for c, sels in terms)


def serialize_scenario(s: Scenario) -> str:
    lines = ["[physics]", f"hbar = {_fmt(s.hbar)}", f"mass = {_fmt(s.mass)}", ""]
    lines.append("[potential]")
    for ax, spec in zip(AXES, s.potentials):
        lines.append(f"{ax} = {_fmt_potential(spec)}")
    lines.append("")
    for ax, spec in zip(AXES, s.solutions):
        lines.append(f"[solutions.{ax}]")
        if isinstance(spec, CatalogSpec):
            lines.append(f"source = catalog:{spec.entry}")
            for key, val in spec.params:
                lines.append(f"{key} = {_fmt(val)}")
        else:
            lines.append("source = numerov")
            lines.append(f"e_axis = {_fmt(spec.e_axis)}")
            lines.append(f"domain = {_fmt(spec.domain[0])}, {_fmt(spec.domain[1])}")
            lines.append(f"step = {_fmt(spec.step)}")
            lines.append(f"ic1 = {_fmt(spec.ic1[0])}, {_fmt(spec.ic1[1])}")
            lines.append(f"ic2 = {_fmt(spec.ic2[0])}, {_fmt(spec.ic2[1])}")
            if spec.ic_at is not None:
                lines.append(f"ic_at = {_fmt(spec.ic_at)}")
        lines.append("")
    lines += ["[field]", f"theta = {_fmt_terms(s.theta_terms)}", f"phi = {_fmt_terms(s.phi_terms)}", ""]
    lines += ["[action]", f"a = {_fmt(s.a)}", f"b = {_fmt(s.b)}", ""]
    v = s.verify
    lines.append("[verify]")
    lines.append("grid = " + ", ".join(str(g) for g in v.grid))
    for ax, (lo, hi) in zip(AXES, v.bounds):
        lines.append(f"{ax} = {_fmt(lo)}, {_fmt(hi)}")
    lines.append(f"qshje_tol = {_fmt(v.qshje_tol)}")
    lines.append(f"continuity_tol = {_fmt(v.continuity_tol)}")
    lines.append(f"wronskian_tol = {_fmt(v.wronskian_tol)}")
    lines.append("")
    t = s.trajectory
    lines.append("[trajectory]")
    lines.append("r0 = " + ", ".join(_fmt(c) for c in t.r0))
    lines.append(f"t_end = {_fmt(t.t_end)}")
    lines.append(f"rel_tol = {_fmt(t.rel_tol)}")
    lines.append(f"abs_tol = {_fmt(t.abs_tol)}")
    lines.append(f"max_step = {_fmt(t.max_step)}")
    lines.append(f"singularity_eps = {_fmt(t.singularity_eps)}")
    if s.metric_points:
        lines.append("")
        lines.append("[metric]")
        lines.append("points = " + "; ".join(", ".join(_fmt(c) for c in p) for p in s.metric_points))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Builders: Scenario -> live objects
# ---------------------------------------------------------------------------

def build_axis_potential(spec: PotentialSpec, mass: float):
    params = dict(spec.params)
    if spec.kind == "free":
        return Free()
    if spec.kind == "harmonic":
        return HarmonicOscillator(omega=params["omega"], mass=mass)
    if spec.kind == "linear":
        return LinearRamp(slope=params["slope"])
    return Tabulated(grid=params["grid"], values=params["values"])


def build_potential(s: Scenario) -> SeparablePotential:
    return SeparablePotential(*(build_axis_potential(p, s.mass) for p in s.potentials))


def build_field(s: Scenario):
    pairs = []
    for i, ax in enumerate(AXES):
        spec = s.solutions[i]
        if isinstance(spec, CatalogSpec):
            pairs.append(solve_axis_analytic(spec.entry, dict(spec.params),
                                             m0=s.mass, hbar=s.hbar, axis=ax))
        else:
            pairs.append(solve_axis_numerov(
                build_axis_potential(s.potentials[i], s.mass),
                spec.e_axis, spec.domain, spec.step, spec.ic1, spec.ic2,
                m0=s.mass, hbar=s.hbar, axis=ax, ic_at=spec.ic_at,
            ))
    return assemble_field(pairs, s.theta_terms, s.phi_terms)


def build_action(s: Scenario) -> ReducedActionField:
    return ReducedActionField(build_field(s), s.a, s.b)
