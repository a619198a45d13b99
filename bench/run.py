#!/usr/bin/env python3
"""qhj3d benchmark: end-to-end throughput and latency, or per-layer traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports qhj3d from ./src and
nothing else. Workloads: verify_grid, trajectory_fan, route_pair and
metric_points (see workloads.py). Load is one client in a closed loop on
one thread: each op starts when the previous one has finished.

--trace 0 measures with tracing off. setup_s is the median over several
fresh interpreters of the CPU time to import qhj3d and generate and parse
the workload's scenarios. Then whole cycles of ops run until --seconds
have passed. Ops are timed in CPU time of this single-threaded process,
which leaves out time the machine gives to other processes. items_per_s
is all the work of the run over the CPU time of all its ops, and
op_p50_ms the median op. On a shared 2-core machine the CPU speed
drifts, and the interquartile range of these over ten seeds is 6-15% of
the median, which is why BENCHMARK.json bounds them at 0.25.
--trace 1 runs set-up plus cycle 0 repeatedly, alternating traced and
untraced rounds, and reports per-layer counts and times (medians over the
traced rounds), the tracing overhead, and the call counts of one fixed
reference op on a shipped scenario. Ratios whose base does not occur in
the workload (per grid point on trajectory_fan, say) read 0.

Every op's output is checked (see workloads.py). The second-to-last line
of stdout is the full report as strict JSON, with null for metrics that do
not apply to the workload; the last line is the summary
{"correct", "attempted", "failed", "metrics"} whose metrics are the ones
BENCHMARK.json lists for the mode.
"""

import os

# Pin numpy / BLAS to one thread before numpy is imported; probes inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
MAX_FAILURES_REPORTED = 10
P90_MIN_OPS = 100  # at least 10 samples beyond the p90


def import_package():
    """Import qhj3d from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qhj3d" / "__init__.py").is_file():
        sys.exit(f"bench: no qhj3d sources under {src}")
    sys.path.insert(0, str(src))
    import qhj3d
    if Path(qhj3d.__file__).resolve().parent != (src / "qhj3d").resolve():
        sys.exit(f"bench: imported qhj3d from {qhj3d.__file__}, not from {src}")
    return qhj3d


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

class Tally:
    """Latencies, work, failures and counts over the ops of a run."""

    def __init__(self):
        self.latencies = []  # CPU seconds of each op
        self.by_stratum = collections.defaultdict(list)  # (CPU seconds, items) per op
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst = []
        self.counts = collections.Counter()

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_REPORTED:
            self.failures.append(message)

    def run(self, op):
        """Run one op, time it, check its output; returns the Outcome, or
        None when the op or its check raised."""
        self.attempted += 1
        error = None
        cpu = time.process_time()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        self.latencies.append(time.process_time() - cpu)
        if error:
            self.fail(f"{op.stratum}: {error}")
            return None
        try:
            outcome = op.check(result)
        except Exception:
            self.fail(f"{op.stratum}: check raised {traceback.format_exc(limit=3)}")
            return None
        self.items += outcome.items
        self.by_stratum[op.stratum].append((self.latencies[-1], outcome.items))
        self.counts.update(outcome.counts)
        if outcome.worst_residual is not None and math.isfinite(outcome.worst_residual):
            self.worst.append(outcome.worst_residual)
        if outcome.failure:
            self.fail(f"{op.stratum}: {outcome.failure}")
        return outcome

    def merge(self, other):
        self.attempted += other.attempted
        self.items += other.items
        self.worst += other.worst
        self.counts.update(other.counts)
        self.failed += other.failed
        self.failures += other.failures[:MAX_FAILURES_REPORTED - len(self.failures)]

    def rerun(self, workload):
        """A workload's byte-identity check counts as one more op."""
        if not hasattr(workload, "rerun_check"):
            return
        self.attempted += 1
        try:
            failure = workload.rerun_check()
        except Exception:
            failure = f"rerun raised {traceback.format_exc(limit=3)}"
        if failure:
            self.fail(failure)


def measure(workload, seconds, tally):
    """Whole cycles until `seconds` have passed; returns cycles run."""
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in workload.cycle(cycles):
            tally.run(op)
        cycles += 1
        if time.perf_counter() - start >= seconds:
            return cycles


def setup_probe_times(args):
    """CPU time from starting a fresh interpreter to the end of set-up;
    each probe reports its own CPU time when set-up is done."""
    times = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline().split()
            _, err = proc.communicate(timeout=120)
        if line[:1] != ["ready"] or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
        times.append(float(line[1]))
    return times


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(qhj3d, args):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qhj3d": qhj3d.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "threads": threading.active_count(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, 1 client, 1 thread",
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def stratum_rate(tally):
    """Items per second of one cycle at the median cost of each stratum.

    A diagnostic only: it damps a slowdown confined to some of a stratum's
    inputs, so the gated rate is the plain items over CPU time."""
    items = sum(statistics.median(n for _, n in ops) for ops in tally.by_stratum.values())
    busy = sum(statistics.median(t for t, _ in ops) for ops in tally.by_stratum.values())
    return items / busy


def end_to_end(workload, tally, probes):
    """Every end-to-end metric; None where it does not apply."""
    lat_ms = sorted(x * 1e3 for x in tally.latencies)
    rate = tally.items / sum(tally.latencies)
    out = {
        "setup_s": metric(statistics.median(probes), "s"),
        "items_per_s": metric(rate, "1/s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "op_p90_ms": (metric(statistics.quantiles(lat_ms, n=10)[-1], "ms")
                      if len(lat_ms) >= P90_MIN_OPS else None),
        "ops_failed_frac": metric(tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    from workloads import WORKLOADS
    for other in WORKLOADS.values():
        out[other.throughput] = metric(rate, "1/s") if other is type(workload) else None
    return out


def _ratio(num, den):
    """Ratios whose base is absent from the workload read 0."""
    return num / den if den else 0.0


def per_layer(tr, tally, rounds_s):
    """Per-layer metrics of one traced round (set-up plus cycle 0)."""
    count = lambda name: metric(tr.calls(name), "count")
    busy = lambda name: metric(tr.seconds(name), "s")
    self_s = lambda name: metric(tr.seconds(name, "self"), "s")
    points = tally.counts["points_total"]
    states = tally.counts["states"]
    rhs_first = tr.by_parent[("dynamics.velocity_field", "dynamics.integrate_first_order")]
    rhs_second = tr.by_parent[("potentials.SeparablePotential.gradient",
                               "dynamics.integrate_second_order")]
    metric_in_rhs = tr.by_parent[("metric.metric_at", "dynamics.integrate_second_order")]
    integrations = tr.calls("dynamics.integrate_first_order") + tr.calls("dynamics.integrate_second_order")
    rhs = rhs_first + rhs_second
    out = {
        "scenario.parse_scenario.s": busy("scenario.parse_scenario"),
        "scenario.build_action.s": busy("scenario.build_action"),
        "schrodinger.solve_axis_numerov.calls": count("schrodinger.solve_axis_numerov"),
        "schrodinger.solve_axis_numerov.s": busy("schrodinger.solve_axis_numerov"),
        "schrodinger.evaluate_field.calls": count("schrodinger.evaluate_field"),
        "schrodinger.evaluate_field.self_s": self_s("schrodinger.evaluate_field"),
        "schrodinger.axis_evals": metric(tr.counted["schrodinger.AxisSolution.value"]
                                         + tr.counted["schrodinger.AxisSolution.derivative"], "count"),
        "schrodinger.evaluate_field.per_grid_point": metric(
            _ratio(tr.calls("schrodinger.evaluate_field"), points), "calls/point"),
        "potentials.evaluate.calls": count("potentials.evaluate"),
        "potentials.evaluate.self_s": self_s("potentials.evaluate"),
        "hj_core.sample.calls": count("hj_core.sample"),
        "hj_core.sample.self_s": self_s("hj_core.sample"),
        "hj_core.sample.nodal": metric(tr.raised("hj_core.sample", "NodalPoint"), "count"),
        "hj_core.sample.per_grid_point": metric(_ratio(tr.calls("hj_core.sample"), points), "calls/point"),
        "hj_core.sample.per_accepted_state": metric(_ratio(tr.calls("hj_core.sample"), states), "calls/state"),
        "hj_core.qshje_residual.calls": count("hj_core.qshje_residual"),
        "hj_core.continuity_identity_residual.calls": count("hj_core.continuity_identity_residual"),
        "metric.metric_at.calls": count("metric.metric_at"),
        "metric.metric_at.self_s": self_s("metric.metric_at"),
        "metric.metric_at.node_singular": metric(tr.raised("metric.metric_at", "NodeSingularity"), "count"),
        "metric.metric_at.per_rhs_eval": metric(_ratio(metric_in_rhs, rhs_second), "calls/rhs"),
        "metric.canonical_jacobian.calls": count("metric.canonical_jacobian"),
        "metric.canonical_jacobian.non_riemannian": metric(
            tr.raised("metric.canonical_jacobian", "NonRiemannianPoint"), "count"),
        "metric.verify_transformation.calls": count("metric.verify_transformation"),
        "metric.verify_transformation.s": busy("metric.verify_transformation"),
        "dynamics.integrate_first_order.self_s": self_s("dynamics.integrate_first_order"),
        "dynamics.integrate_second_order.self_s": self_s("dynamics.integrate_second_order"),
        "dynamics.velocity_field.calls": count("dynamics.velocity_field"),
        "dynamics.rhs_evals": metric(rhs, "count"),
        "dynamics.rhs_per_accepted_state": metric(_ratio(rhs, states), "rhs/state"),
        # The engine does not expose rejected steps: attempts are derived
        # from right-hand-side calls (one at the start, six per attempt).
        "dynamics.steps_attempted_derived": metric((rhs - integrations) / 6.0, "steps"),
        "dynamics.accepted_states": metric(states, "count"),
        "dynamics.law_residual.calls": count("dynamics.law_residual"),
        "dynamics.energy_residual.calls": count("dynamics.energy_residual"),
        "cli.run_verify.self_s": self_s("cli.run_verify"),
        "cli.run_trajectory.self_s": self_s("cli.run_trajectory"),
        "cli.run_metric.self_s": self_s("cli.run_metric"),
        "cli.bytes_written": metric(tally.counts["bytes_written"], "bytes"),
        "cli.verify.points_evaluated_frac": metric(_ratio(tally.counts["points_evaluated"], points), "ratio"),
        "bench.grid_points": metric(points, "count"),
        "bench.ops": metric(tally.attempted, "count"),
        "bench.round_s": metric(rounds_s, "s"),
    }
    for status in ("completed", "singularity", "domain_exit"):
        out[f"dynamics.termination.{status}"] = metric(tally.counts[f"termination.{status}"], "count")
    return out


def boundaries(tr):
    """Every traced boundary: calls, busy and self time, exceptions."""
    table = {}
    for name in sorted(tr.stats):
        table[name] = {"calls": tr.calls(name), "s": tr.seconds(name),
                       "self_s": tr.seconds(name, "self"),
                       "exceptions": {exc: n for (who, exc), n in tr.exceptions.items() if who == name}}
    table.update({name: {"calls": n} for name, n in sorted(tr.counted.items())})
    return table


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_untraced(workload, args, tally):
    probes = setup_probe_times(args)
    start = time.process_time()
    workload.setup()
    in_process_setup = time.process_time() - start
    Tally().run(workload.cycle(0)[0])  # warm-up, not counted
    cycles = measure(workload, args.seconds, tally)
    tally.rerun(workload)
    metrics = end_to_end(workload, tally, probes)
    strata = {name: {"ops": len(ops), "median_ms": statistics.median(t for t, _ in ops) * 1e3,
                     "items": statistics.median(n for _, n in ops)}
              for name, ops in sorted(tally.by_stratum.items())}
    extra = {"setup_probes_s": probes, "in_process_setup_s": in_process_setup, "cycles": cycles,
             "stratum_median_items_per_s": stratum_rate(tally), "strata": strata}
    return metrics, extra


def run_traced(workload, args, tally):
    from tracer import Tracer

    def one_round(tr):
        round_tally = Tally()
        start = time.process_time()
        if tr is not None:
            tr.reset()
            tr.install()
        try:
            workload.setup()
            for op in workload.cycle(0):
                round_tally.run(op)
        finally:
            if tr is not None:
                tr.remove()
        elapsed = time.process_time() - start
        tally.merge(round_tally)
        return elapsed, round_tally

    tr = Tracer()
    traced, untraced, layers, call_counts = [], [], [], []
    start = time.perf_counter()
    while (len(traced) < 2 or not untraced or time.perf_counter() - start < args.seconds):
        if len(traced) <= len(untraced):
            elapsed, round_tally = one_round(tr)
            traced.append(elapsed)
            layers.append(per_layer(tr, round_tally, elapsed))
            call_counts.append(tr.call_counts())
            table = boundaries(tr)
        else:
            untraced.append(one_round(None)[0])
    repeat = all(c == call_counts[0] for c in call_counts)
    if not repeat:
        tally.fail("call counts differ between traced rounds of the same ops")

    metrics = {}
    for name, first in layers[0].items():
        values = [layer[name]["value"] for layer in layers]
        value = statistics.median(values) if first["unit"] == "s" else values[0]
        metrics[name] = metric(value, first["unit"])
    metrics["trace.throughput_ratio"] = metric(statistics.median(untraced) / statistics.median(traced),
                                               "ratio")

    op, unit = workload.reference()
    tr.reset()
    with tr:
        outcome = tally.run(op)
    units = outcome.counts.get(unit, outcome.items) if outcome else 0
    reference = {"stratum": op.stratum, unit: units}
    for name in ("hj_core.sample", "schrodinger.evaluate_field", "metric.metric_at"):
        reference[name] = tr.calls(name)
        metrics[f"reference.{name}.calls"] = metric(tr.calls(name), "count")
    metrics["reference.units"] = metric(units, "count")
    tally.rerun(workload)
    extra = {"traced_rounds_s": traced, "untraced_rounds_s": untraced,
             "counts_repeat": repeat, "reference": reference, "boundaries": table,
             "call_counts": call_counts[0]}
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    qhj3d = import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        sys.exit("bench: --seed must be >= 0")

    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    if args.setup_probe:
        workload.setup()
        print("ready", repr(time.process_time()), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            metrics, extra = run_traced(workload, args, tally)
        else:
            metrics, extra = run_untraced(workload, args, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    worst = {"max": max(tally.worst), "median": statistics.median(tally.worst),
             "ops": len(tally.worst)} if tally.worst else None
    report = {"environment": environment(qhj3d, args), "trace": args.trace, "metrics": metrics,
              "attempted": tally.attempted, "failed": tally.failed, "items": tally.items,
              "counts": dict(sorted(tally.counts.items())), "worst_residual": worst,
              "failures": tally.failures, **extra}
    print(json.dumps(report, allow_nan=False, sort_keys=False))

    listed = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    for entry in listed:
        value = metrics.get(entry["name"])
        if value is None or value["unit"] != entry["unit"]:
            sys.exit(f"bench: metric {entry['name']} missing or not in {entry['unit']}: {value}")
        summary[entry["name"]] = value
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": summary}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
