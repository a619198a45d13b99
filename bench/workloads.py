"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop over *cycles*. A cycle is a fixed list of
strata (scenario family and kind of input) and the seed only picks the
inputs inside each stratum, so the cost of a cycle hardly depends on the
seed and whole cycles are always run. Cycle ``c`` draws from
``default_rng([seed, c])``, so a cycle can be replayed exactly.

The program receives only generated inputs: scenario text (parsed in
set-up), starting points and point batches. Scenario texts are variants of
the five shipped scenarios, generated here so that the benchmark does not
move when the shipped files are edited.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Program functions are looked up on their modules at call time, so the
# tracer's wrappers see the calls made from here too.
from qhj3d import cli, dynamics
from qhj3d import scenario as scn
from qhj3d.dynamics import COMPLETED, DOMAIN_EXIT, SINGULARITY, IntegratorConfig

# Mixings (a, b) that pass every acceptance gate (tests/test_acceptance.py).
MIXINGS = ((1.0, 0.0), (2.0, 0.0), (1.5, 0.5), (3.0, -1.0), (0.5, 2.0))

# Acceptance gates the ops are checked against.
C5_GAP = 1e-5
C6_RESIDUAL = 1e-12
C6_MAX_A = 100.0

# ---------------------------------------------------------------------------
# Scenario text
# ---------------------------------------------------------------------------

_ZERO = "source = catalog:zero_energy_free"
_NUMEROV = ("source = numerov\ne_axis = 0.5\ndomain = -4, 4\nstep = 1e-3\n"
            "ic1 = 1, 0\nic2 = 0, 1\nic_at = 0")
_U111, _U211 = "1.0 * u1 * u1 * u1", "1.0 * u2 * u1 * u1"


@dataclass(frozen=True)
class Family:
    """One shipped scenario; its defaults reproduce the shipped file."""

    potential: str
    solutions: tuple[str, str, str]
    theta: str
    phi: str
    mixing: tuple[float, float]
    bounds: tuple[tuple[float, float], ...]
    grid: tuple[int, int, int]
    r0: tuple[float, float, float]
    extra_verify: str = ""
    singularity_eps: float | None = None


def _free(k):
    return f"source = catalog:free\nk = {k!r}"


FAMILIES = {
    "free_classical": Family("free", (_free(1.0), _ZERO, _ZERO), _U111, _U211, (1.0, 0.0),
                             ((-3.0, 3.0),) * 3, (21, 21, 21), (0.0, 0.0, 0.0)),
    "free_a2": Family("free", (_free(1.0), _ZERO, _ZERO), _U111, _U211, (2.0, 0.0),
                      ((-3.0, 3.0),) * 3, (21, 21, 21), (0.0, 0.0, 0.0)),
    "field2d": Family("free", (_free(1.0), _free(1.0), _ZERO),
                      "1.0 * u1 * u2 * u1, 1.0 * u2 * u1 * u1", "1.0 * u2 * u2 * u1", (1.0, 0.0),
                      ((-2.0, 2.0),) * 3, (21, 21, 21), (0.3, 0.9, 0.0), singularity_eps=1e-3),
    "box": Family("free", ("source = catalog:box\nL = 20.0\nn = 1", _ZERO, _ZERO), _U111, _U211,
                  (1.0, 1.0), ((1.0, 19.0), (-2.0, 2.0), (-2.0, 2.0)), (21, 21, 21), (5.0, 0.0, 0.0)),
    "harmonic_numerov": Family("harmonic(omega = 1.0)", (_NUMEROV,) * 3, _U111, "1.0 * u2 * u2 * u2",
                               (1.5, 0.5), ((-2.0, 2.0),) * 3, (11, 11, 11), (0.5, 0.3, -0.2),
                               extra_verify="qshje_tol = 1e-5", singularity_eps=1e-3),
}


def scenario_text(family: str, mixing=None, bounds=None, grid=None, t_end=5.0, k=None) -> str:
    """Scenario file text for a variant of a shipped scenario."""
    fam = FAMILIES[family]
    a, b = mixing or fam.mixing
    solutions = fam.solutions if k is None else (_free(k),) + fam.solutions[1:]
    lines = ["[physics]", "hbar = 1.0", "mass = 1.0", "", "[potential]"]
    lines += [f"{ax} = {fam.potential}" for ax in "xyz"]
    for ax, sol in zip("xyz", solutions):
        lines += ["", f"[solutions.{ax}]", sol]
    lines += ["", "[field]", f"theta = {fam.theta}", f"phi = {fam.phi}",
              "", "[action]", f"a = {a!r}", f"b = {b!r}",
              "", "[verify]", "grid = " + ", ".join(str(n) for n in grid or fam.grid)]
    lines += [f"{ax} = {lo!r}, {hi!r}" for ax, (lo, hi) in zip("xyz", bounds or fam.bounds)]
    if fam.extra_verify:
        lines.append(fam.extra_verify)
    lines += ["", "[trajectory]", "r0 = " + ", ".join(repr(c) for c in fam.r0), f"t_end = {t_end!r}"]
    if fam.singularity_eps is not None:
        lines.append(f"singularity_eps = {fam.singularity_eps!r}")
    return "\n".join(lines) + "\n"


def integrator_config(scenario) -> IntegratorConfig:
    """The integrator settings the CLI derives from a scenario."""
    spec = scenario.trajectory
    return IntegratorConfig(t_end=spec.t_end, rel_tol=spec.rel_tol, abs_tol=spec.abs_tol,
                            max_step=spec.max_step, singularity_eps=spec.singularity_eps)


# ---------------------------------------------------------------------------
# Ops and their outcomes
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one op produced, as seen by the checks.

    items is the op's work in the workload's unit; counts are summed over
    a cycle (accepted states, terminations by status, bytes written, ...).
    """

    items: int
    worst_residual: float | None = None
    failure: str | None = None
    counts: dict = field(default_factory=dict)


@dataclass
class Op:
    stratum: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _trajectory_counts(*trajectories):
    counts = {"states": sum(len(tr.states) for tr in trajectories)}
    for tr in trajectories:
        key = f"termination.{tr.termination.status}"
        counts[key] = counts.get(key, 0) + 1
    return counts


class Workload:
    """A workload: set-up, the ops of cycle c, and a reference op.

    A workload may also define rerun_check() -> failure message or None.
    """

    name = ""
    throughput = ""  # name of the items-per-second metric

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def fan_start(self, strata, j, c):
        """Start of stratum j in cycle c: fan position c mod 9, moved along
        the fan by a seeded jitter. Every run walks the same positions in
        the same order, so the seed changes the work of a run little; which
        positions a run visits twice would otherwise move the median op."""
        *_, centre, direction = strata[j]
        d = FAN[c % len(FAN)] + self.rng(FAN_KEY, j, c).uniform(-FAN_JITTER, FAN_JITTER)
        return tuple(float(x) for x in np.add(centre, d * np.asarray(direction, float)))

    def setup(self):
        """Generate and parse the scenarios (and build what ops reuse)."""
        raise NotImplementedError

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def reference(self) -> tuple[Op, str]:
        """One fixed op on a shipped scenario, for the traced call counts,
        and what its size is counted in: a key of Outcome.counts, or else
        the op's items."""
        raise NotImplementedError

    def path(self, name):
        return os.path.join(self.workdir, name)


# ---------------------------------------------------------------------------
# verify_grid
# ---------------------------------------------------------------------------

# Small grids give more ops per run, so the median of each family is taken
# over more samples; harmonic_numerov keeps its shipped 11^3.
VERIFY_GRIDS = {"analytic": (11, 11, 13), "harmonic_numerov": (11, 11, 11)}
# Bounds scale factors against the shipped bounds. The box stays inside
# its walls; harmonic_numerov stays inside the shipped +-2, beyond which the
# absolute continuity tolerance (1e-13) no longer holds for its growing
# Numerov solutions and verify reports FAIL.
VERIFY_SCALES = (0.9, 0.95, 1.0, 1.05, 1.1)
SHRINK_SCALES = (0.8, 0.85, 0.9, 0.95, 1.0)
FREE_K = (1.0, 1.5, 2.0)
VERIFY_POOL = 8


def verify_variants():
    """Every (family, k, mixing, scale, grid) a verify op can draw."""
    out = []
    for family in FAMILIES:
        triple = VERIFY_GRIDS.get(family, VERIFY_GRIDS["analytic"])
        grids = sorted(set(itertools.permutations(triple)))
        ks = FREE_K if family == "free_classical" else (None,)
        mixings = ((1.0, 0.0),) if family == "free_classical" else MIXINGS
        scales = SHRINK_SCALES if family in ("box", "harmonic_numerov") else VERIFY_SCALES
        out += [(family, k, m, s, g) for k in ks for m in mixings for s in scales for g in grids]
    return out


def expected_skips(family, grid):
    """(nodal, singular) skips of a verify op, from the grid alone.

    Only harmonic_numerov has nodes in its box: its odd Numerov solution
    vanishes at 0, so phi has node planes x = 0, y = 0 and z = 0, where the
    momentum is singular. Symmetric bounds put one point of each odd axis
    on its plane; the other families' boxes have no node at all."""
    if family != "harmonic_numerov":
        return 0, 0
    return 0, math.prod(grid) - math.prod(n - n % 2 for n in grid)


def verify_text(family, k, mixing, scale, grid):
    fam = FAMILIES[family]
    if family == "box":
        # x stays inside the walls at (0, 20); scale <= 1 shrinks toward x = 10.
        bounds = ((10.0 - 9.0 * scale, 10.0 + 9.0 * scale),) + tuple(
            (lo * scale, hi * scale) for lo, hi in fam.bounds[1:])
    else:
        # Symmetric bounds with odd counts keep the grid on the node planes
        # of harmonic_numerov, where about a quarter of the points are skipped.
        bounds = tuple((lo * scale, hi * scale) for lo, hi in fam.bounds)
    return scenario_text(family, mixing=mixing, bounds=bounds, grid=grid, k=k)


class VerifyGrid(Workload):
    name = "verify_grid"
    throughput = "grid_points_per_s"

    def setup(self):
        variants = verify_variants()
        pool = []
        for c in range(VERIFY_POOL):
            rng = self.rng(c)
            cycle = []
            for family in FAMILIES:
                choices = [v for v in variants if v[0] == family]
                variant = choices[rng.integers(len(choices))]
                cycle.append((family, scn.parse_scenario(verify_text(*variant))))
            pool.append([cycle[i] for i in rng.permutation(len(cycle))])
        self.pool = pool

    def cycle(self, c):
        return [self._op(family, scenario, self.path("verify.json"))
                for family, scenario in self.pool[c % VERIFY_POOL]]

    def reference(self):
        scenario = scn.parse_scenario(scenario_text("free_a2"))
        return self._op("free_a2", scenario, self.path("reference.json")), "grid_points"

    @staticmethod
    def _op(family, scenario, out):
        grid = scenario.verify.grid

        def check(report):
            total = math.prod(grid)
            accounted = (sum(report.signature_census.values())
                         + report.nodal_skips + report.singular_skips)
            skips = (report.nodal_skips, report.singular_skips)
            failure = None
            if not report.passed:
                failure = "verify reported FAIL"
            elif report.points_evaluated == 0:
                failure = "verify evaluated no points"
            elif report.points_total != total or accounted != total:
                failure = f"census {accounted} and total {report.points_total} != grid {total}"
            elif skips != expected_skips(family, grid):
                failure = f"(nodal, singular) skips {skips} != {expected_skips(family, grid)}"
            return Outcome(items=report.points_total, worst_residual=report.max_qshje,
                           failure=failure,
                           counts={"points_total": report.points_total,
                                   "points_evaluated": report.points_evaluated,
                                   "bytes_written": _file_size(out)})

        return Op(family, lambda: cli.run_verify(scenario, out=out), check)


# ---------------------------------------------------------------------------
# trajectory_fan
# ---------------------------------------------------------------------------

FAN = np.linspace(-0.4, 0.4, 9)
FAN_JITTER = 0.025  # a quarter of the fan spacing
FAN_KEY = 1 << 20  # keeps fan jitter apart from the cycle streams

# (stratum, family, mixing, termination (status, kind) of every start of
# the fan, centre of the fan, fan direction). An op that ends otherwise
# fails: ending early is not a speed-up.
_DONE, _AMPLITUDE = (COMPLETED, None), (SINGULARITY, "amplitude")
TRAJECTORY_STRATA = (
    ("free_classical", "free_classical", (1.0, 0.0), _DONE, (0.0, 0.0, 0.0), (1, 0, 0)),
    ("free_a2", "free_a2", (2.0, 0.0), _DONE, (0.0, 0.0, 0.0), (1, 0, 0)),
    ("free_mixed", "free_a2", (0.5, 2.0), _DONE, (0.0, 0.0, 0.0), (1, 0, 0)),
    ("field2d", "field2d", (1.0, 0.0), _AMPLITUDE, (0.3, 0.9, 0.0), (1, 0, 0)),
    ("field2d_mixed", "field2d", (3.0, -1.0), _AMPLITUDE, (0.3, 0.9, 0.0), (0, 1, 0)),
    ("harmonic", "harmonic_numerov", (1.5, 0.5), _DONE, (0.5, 0.3, -0.2), (1, 0, 0)),
    ("harmonic_node", "harmonic_numerov", (1.5, 0.5), (SINGULARITY, "node"), (0.5, 0.3, 0.5),
     (1, 0, 0)),
    ("box", "box", (1.0, 1.0), _DONE, (5.0, 0.0, 0.0), (1, 0, 0)),
    ("box_exit", "box", (0.5, 2.0), (DOMAIN_EXIT, None), (18.0, 0.0, 0.0), (2, 0, 0)),
)


class TrajectoryFan(Workload):
    name = "trajectory_fan"
    throughput = "trajectories_per_s"

    def setup(self):
        self.scenarios = {stratum: scn.parse_scenario(scenario_text(family, mixing=mixing))
                          for stratum, family, mixing, *_ in TRAJECTORY_STRATA}

    def cycle(self, c):
        ops = [self.op(stratum, self.scenarios[stratum], self.fan_start(TRAJECTORY_STRATA, j, c),
                       self.path("traj.csv"), end)
               for j, (stratum, _, _, end, *_) in enumerate(TRAJECTORY_STRATA)]
        return [ops[i] for i in self.rng(c).permutation(len(ops))]

    def reference(self):
        scenario = scn.parse_scenario(scenario_text("free_a2"))
        return self.op("free_a2", scenario, None, self.path("reference.csv"), _DONE), "states"

    def rerun_check(self):
        """Write the first start of cycle 0 twice; the CSV and the sidecar
        must match byte for byte. Returns a failure message or None."""
        stratum = TRAJECTORY_STRATA[0][0]
        start = self.fan_start(TRAJECTORY_STRATA, 0, 0)
        files = []
        for name in ("rerun_a.csv", "rerun_b.csv"):
            out = self.path(name)
            cli.run_trajectory(self.scenarios[stratum], r0=start, out=out)
            contents = []
            for path in (out, os.path.splitext(out)[0] + ".json"):
                with open(path, "rb") as handle:
                    contents.append(handle.read())
            files.append(contents)
        differ = [kind for kind, a, b in zip(("csv", "sidecar"), *files) if a != b]
        return f"rerun of {stratum} differs: {', '.join(differ)}" if differ else None

    @staticmethod
    def op(stratum, scenario, start, out, end):
        energy = scenario.energy
        sidecar = os.path.splitext(out)[0] + ".json"

        def check(tr):
            ended = (tr.termination.status, tr.termination.kind)
            failure = None if ended == end else f"ended {ended}, expected {end}"
            law_bound = 1e-8 * max(1.0, 2.0 * energy)  # C3
            energy_bound = 1e-8 * max(1.0, energy)  # C4
            worst = None
            if tr.states:
                law, en = tr.max_law_residual, tr.max_energy_residual
                worst = max(law, en)
                if not law < law_bound:
                    failure = failure or f"law residual {law:.3e} >= {law_bound:.1e}"
                elif not en < energy_bound:
                    failure = failure or f"energy residual {en:.3e} >= {energy_bound:.1e}"
            with open(out) as handle:
                rows = sum(1 for _ in handle) - 1
            with open(sidecar) as handle:
                recorded = json.load(handle)["states"]
            if failure is None and not rows == recorded == len(tr.states):
                failure = f"{rows} CSV rows, sidecar {recorded}, {len(tr.states)} states"
            counts = _trajectory_counts(tr)
            counts["bytes_written"] = _file_size(out) + _file_size(sidecar)
            return Outcome(items=1, worst_residual=worst, failure=failure, counts=counts)

        return Op(stratum, lambda: cli.run_trajectory(scenario, r0=start, out=out), check)


# ---------------------------------------------------------------------------
# route_pair
# ---------------------------------------------------------------------------

# (stratum, family, mixing, t_end, centre, fan direction). The fans are
# narrower than in trajectory_fan so that the cost of a cycle moves little
# from seed to seed. harmonic_numerov keeps its shipped mixing: with
# (a, b) = (0.5, 2.0) both routes complete but end 3.4e-2 apart, far
# beyond the 1e-5 gate (C5), which is a defect of the second-order route.
# Every start of every fan completes on both routes.
ROUTE_STRATA = (
    ("free_a2", "free_a2", (2.0, 0.0), 5.0, (0.0, 0.0, 0.0), (0.25, 0, 0)),
    ("free_mixed", "free_a2", (1.5, 0.5), 5.0, (0.0, 0.0, 0.0), (0.25, 0, 0)),
    ("box", "box", (1.0, 1.0), 5.0, (5.0, 0.0, 0.0), (0.25, 0, 0)),
    ("field2d", "field2d", (1.0, 0.0), 1.2, (-0.45, -1.3527, 0.0), (0.125, 0, 0)),
    ("harmonic", "harmonic_numerov", (1.5, 0.5), 2.0, (0.5, 0.3, -0.2), (0.25, 0, 0)),
)


class RoutePair(Workload):
    name = "route_pair"
    throughput = "route_pairs_per_s"

    def setup(self):
        self.actions = {}
        for stratum, family, mixing, t_end, *_ in ROUTE_STRATA:
            scenario = scn.parse_scenario(scenario_text(family, mixing=mixing, t_end=t_end))
            self.actions[stratum] = (scn.build_action(scenario), integrator_config(scenario))

    def cycle(self, c):
        ops = [self.op(stratum, *self.actions[stratum], self.fan_start(ROUTE_STRATA, j, c))
               for j, (stratum, *_) in enumerate(ROUTE_STRATA)]
        return [ops[i] for i in self.rng(c).permutation(len(ops))]

    def reference(self):
        scenario = scn.parse_scenario(scenario_text("harmonic_numerov"))
        action, config = scn.build_action(scenario), integrator_config(scenario)

        def run():
            return dynamics.integrate_second_order(action, scenario.trajectory.r0, config)

        def check(tr):
            failure = None if tr.termination.status == COMPLETED else "reference route did not complete"
            return Outcome(items=len(tr.states), failure=failure, counts=_trajectory_counts(tr))

        return Op("harmonic_numerov", run, check), "states"

    @staticmethod
    def op(stratum, action, config, start):
        def run():
            first = dynamics.integrate_first_order(action, start, config)
            second = dynamics.integrate_second_order(action, start, config)
            gap = float(np.max(np.abs(first.final_state.position - second.final_state.position)))
            return first, second, gap

        def check(result):
            first, second, gap = result
            ended = (first.termination.status, second.termination.status)
            if ended != (COMPLETED, COMPLETED):
                failure = f"routes ended {ended}; every route start completes"
            else:
                failure = None if gap < C5_GAP else f"route gap {gap:.3e} >= {C5_GAP:g}"
            return Outcome(items=1, worst_residual=gap, failure=failure,
                           counts=_trajectory_counts(first, second))

        return Op(stratum, run, check)


# ---------------------------------------------------------------------------
# metric_points
# ---------------------------------------------------------------------------

METRIC_BATCH = 32


def metric_batch(family, rng):
    """A batch of (point, expected error) for one family.

    The points are drawn from the lattice of the shipped verify sweep of
    the family (its grid over its box), so each kind of point comes in the
    share that sweep finds: on harmonic_numerov a quarter of the lattice
    lies on node planes (momentum-singular) and most of the rest is
    non-Riemannian; the other boxes are all Riemannian. The sweep boxes
    hold no nodal and no out-of-domain point, so one such point per batch
    is added on the families that have them: a nodal point on field2d and
    a point beyond the domain on box and harmonic_numerov. The free
    families have neither. Expected errors name the exception of the
    point's row; None means the metric must be computed."""
    fam = FAMILIES[family]
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(fam.bounds, fam.grid)]
    size = METRIC_BATCH - (family in ("field2d", "box", "harmonic_numerov"))
    picks = np.stack([rng.integers(len(a), size=size) for a in axes], axis=1)
    batch = [(p, "NodeSingularity" if family == "harmonic_numerov" and 0.0 in p else None)
             for p in (tuple(float(a[i]) for a, i in zip(axes, pick)) for pick in picks)]
    if family == "field2d":
        # theta' and phi vanish together where cos x = 0 and sin(x + y) = 0.
        batch.append(((np.pi / 2, -np.pi / 2, float(rng.uniform(-2, 2))), "NodalPoint"))
    elif family == "box":
        batch.append(((float(rng.uniform(20.5, 23)), 0.0, 0.0), "OutOfDomain"))
    elif family == "harmonic_numerov":
        batch.append(((float(rng.uniform(4.5, 5)), 0.3, -0.2), "OutOfDomain"))
    return [batch[i] for i in rng.permutation(len(batch))]


class MetricPoints(Workload):
    name = "metric_points"
    throughput = "metric_points_per_s"

    def setup(self):
        # Shipped mixings: the point shares in metric_batch are those of the
        # shipped scenarios, and the seed only picks the points.
        self.scenarios = {family: scn.parse_scenario(scenario_text(family)) for family in FAMILIES}

    def cycle(self, c):
        rng = self.rng(c)
        ops = []
        for family, scenario in self.scenarios.items():
            ops.append(self.op(family, scenario, metric_batch(family, rng), self.path("metric.json")))
        return [ops[i] for i in rng.permutation(len(ops))]

    def reference(self):
        scenario = scn.parse_scenario(scenario_text("harmonic_numerov"))
        batch = (((0.5, 0.3, -0.2), None), ((1.8, 1.8, 1.8), None))
        return self.op("harmonic_numerov", scenario, batch, self.path("reference.json")), "metric_points"

    @staticmethod
    def op(family, scenario, batch, out):
        points = [p for p, _ in batch]

        def check(report):
            rows = report["points"]
            failure = None if len(rows) == len(points) else f"{len(rows)} rows for {len(points)} points"
            worst = None
            counts = {"riemannian": 0, "point_errors": 0, "bytes_written": _file_size(out)}
            for row, (point, expected) in zip(rows, batch):
                raised = None if "a_upper" in row else row["error"].split(":")[0]
                if raised != expected:
                    failure = failure or f"{point} raised {raised}, expected {expected}"
                if "max_residual" not in row:
                    counts["point_errors"] += 1
                    continue
                counts["riemannian"] += 1
                worst = row["max_residual"] if worst is None else max(worst, row["max_residual"])
                if max(row["a_upper"]) < C6_MAX_A and not row["max_residual"] < C6_RESIDUAL:
                    failure = failure or f"12-equation residual {row['max_residual']:.3e} at {row['point']}"
            return Outcome(items=len(points), worst_residual=worst, failure=failure, counts=counts)

        return Op(family, lambda: cli.run_metric(scenario, points, out=out), check)


WORKLOADS = {w.name: w for w in (VerifyGrid, TrajectoryFan, RoutePair, MetricPoints)}
