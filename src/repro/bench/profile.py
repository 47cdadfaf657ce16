"""Profiling harness: kernel microbenchmarks and artifact profiles.

The simulator's cost is almost entirely the discrete-event kernel, so the
first-class performance metric is **events per second of wall clock** (and
its inverse, ns/event).  This module measures it three ways:

- *microbenchmarks* — synthetic workloads that isolate one kernel path
  (sleep fast path, scheduled callbacks, a full collective through the
  whole CCLO/network stack);
- *artifact profiles* — run a real evaluation artifact (``fig07`` …)
  under the events/sec meter, optionally with :mod:`cProfile` and
  :mod:`tracemalloc` attached;
- the ``perf`` section of ``BENCH_results.json`` — written by
  ``python -m repro.bench all`` via :func:`perf_section`.

CLI::

    python -m repro.bench profile fig07            # full artifact profile
    python -m repro.bench profile fig07 --quick    # reduced sweep, CI-sized
    python -m repro.bench profile kernel           # microbenchmarks only
    python -m repro.bench profile fig16 --profile-out fig16.pstats --memory
"""

from __future__ import annotations

import cProfile
import gc
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional

from repro import units
from repro.sim.kernel import Environment

#: synthetic events per microbenchmark run (``--quick`` divides by 10)
_MICRO_EVENTS = 200_000
#: collectives per op-throughput run (``--quick`` divides by 4)
_MICRO_OPS = 24


# ---------------------------------------------------------------------------
# events/sec meter
# ---------------------------------------------------------------------------

class GcMeter:
    """Collector passes, seconds and objects collected, per generation,
    while the meter is entered (hooked in through :data:`gc.callbacks`).

    cProfile charges a collection to whichever function happened to
    allocate when it triggered, so collector cost is invisible there; this
    meter reports it as a cost of its own.
    """

    def __init__(self) -> None:
        self.generations = [{"passes": 0, "seconds": 0.0, "collected": 0}
                            for _ in range(3)]
        self._t0 = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        gen = self.generations[info["generation"]]
        gen["passes"] += 1
        gen["seconds"] += time.perf_counter() - self._t0
        gen["collected"] += info["collected"]

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def report(self) -> Dict[str, Dict[str, Any]]:
        return {f"gen{i}": dict(gen) for i, gen in enumerate(self.generations)}


def measure(fn: Callable[[], Any], label: str = "run") -> Dict[str, Any]:
    """Run *fn* and report wall time against the kernel's event counters.

    ``events_per_s``/``ns_per_event`` use the class-wide counters on
    :class:`~repro.sim.kernel.Environment`, so everything the callable
    simulates — across any number of environments — is accounted.
    ``gc`` holds the :class:`GcMeter` figures for the call.
    """
    events0 = Environment.total_events_processed
    ff0 = Environment.total_events_fast_forwarded
    sim0 = Environment.total_sim_time
    with GcMeter() as gc_meter:
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
    events = Environment.total_events_processed - events0
    events_ff = Environment.total_events_fast_forwarded - ff0
    # Rates are quoted in packet-equivalent events: segments a flow-fidelity
    # run fast-forwards analytically count as retired work (in packet mode
    # events_ff is 0 and this reduces to the plain rate).
    equivalent = events + events_ff
    report = {
        "label": label,
        "wall_s": wall,
        "events": events,
        "events_ff": events_ff,
        "sim_s": Environment.total_sim_time - sim0,
        "events_per_s": equivalent / wall if wall > 0 else 0.0,
        "ns_per_event": wall / equivalent * 1e9 if equivalent else 0.0,
        "gc": gc_meter.report(),
    }
    return {"report": report, "value": value}


# ---------------------------------------------------------------------------
# microbenchmarks
# ---------------------------------------------------------------------------

def bench_sleep_path(n_events: int = _MICRO_EVENTS) -> Dict[str, Any]:
    """Process sleep fast path: N ``yield <float>`` resumptions."""
    env = Environment()
    n_procs = 4
    per_proc = n_events // n_procs

    def ticker():
        for _ in range(per_proc):
            yield 1e-6

    def run():
        for _ in range(n_procs):
            env.process(ticker())
        env.run()

    return measure(run, "sleep-path")["report"]


def bench_timeout_events(n_events: int = _MICRO_EVENTS) -> Dict[str, Any]:
    """Classic event objects: N ``yield env.timeout(dt)`` resumptions."""
    env = Environment()
    n_procs = 4
    per_proc = n_events // n_procs

    def ticker():
        for _ in range(per_proc):
            yield env.timeout(1e-6)

    def run():
        for _ in range(n_procs):
            env.process(ticker())
        env.run()

    return measure(run, "timeout-events")["report"]


def bench_scheduled_callbacks(n_events: int = _MICRO_EVENTS) -> Dict[str, Any]:
    """Bare callback chain: each fire reschedules itself."""
    env = Environment()
    remaining = [n_events]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            env.schedule_callback(1e-6, tick)

    def run():
        env.schedule_callback(0.0, tick)
        env.run()

    return measure(run, "scheduled-callbacks")["report"]


def bench_collective_ops(ops: int = _MICRO_OPS) -> Dict[str, Any]:
    """Full-stack allreduce throughput: cluster build + 4-rank collective,
    measured in collective ops per second of wall clock."""
    from repro.bench.harness import accl_collective_time

    def run():
        for _ in range(ops):
            accl_collective_time("allreduce", 4 * units.KIB, n_nodes=4)

    report = measure(run, "collective-ops")["report"]
    report["ops"] = ops
    report["ops_per_s"] = ops / report["wall_s"] if report["wall_s"] else 0.0
    return report


def run_microbenchmarks(quick: bool = False) -> List[Dict[str, Any]]:
    """All kernel microbenchmarks; ``quick`` shrinks them ~10x for CI."""
    n = _MICRO_EVENTS // 10 if quick else _MICRO_EVENTS
    ops = _MICRO_OPS // 4 if quick else _MICRO_OPS
    return [
        bench_sleep_path(n),
        bench_timeout_events(n),
        bench_scheduled_callbacks(n),
        bench_collective_ops(ops),
    ]


# ---------------------------------------------------------------------------
# artifact profiles
# ---------------------------------------------------------------------------

#: ``--quick`` keyword overrides per artifact: small enough for a CI smoke
#: run, large enough that the events/sec figure is stable (~100k events).
_QUICK_KWARGS: Dict[str, Dict[str, Any]] = {
    "fig07": {"sizes": [64 * units.KIB, units.MIB, 16 * units.MIB]},
    "fig16": {"sizes": (2048, 4096)},
    "figX_scale": {"node_counts": (8, 16), "size": 2 * units.MIB},
}


def _artifact_functions() -> Dict[str, Callable]:
    from repro.bench import harness

    return {
        "fig07": harness.run_fig07_sendrecv_throughput,
        "fig08": harness.run_fig08_invocation_latency,
        "fig09": harness.run_fig09_f2f_breakdown,
        "fig10": harness.run_fig10_f2f_collectives,
        "fig11": harness.run_fig11_h2h_collectives,
        "fig12": harness.run_fig12_reduce_scalability,
        "fig13": harness.run_fig13_tcp_xrt,
        "fig16": harness.run_fig16_vecmat,
        "fig17": harness.run_fig17_dlrm,
        "figX_scale": harness.run_figX_scale,
    }


# ---------------------------------------------------------------------------
# cluster-scale profile (``profile scale``)
# ---------------------------------------------------------------------------

#: the headline scale configuration: a 1024-host fat-tree (k=16)
SCALE_NODES = 1024
#: allreduce payload for the scale run — above the flow-mode fast-forward
#: admission floor, so the collective exercises the analytic path
SCALE_ALLREDUCE_BYTES = 16 * units.MIB


def profile_scale(nodes: int = SCALE_NODES, fabric: str = "fattree",
                  quick: bool = False, memory: bool = True,
                  per_node: bool = False) -> Dict[str, Any]:
    """Construction footprint + one flow-fidelity allreduce at scale.

    Builds a ``nodes``-host large fabric under ``tracemalloc`` (the
    construction cost the memory-lean refactor targets), then runs one
    16 MiB ``reduce_bcast`` allreduce across all hosts at flow fidelity.
    ``per_node`` adds the ``bytes_per_node`` figure that ``bench profile
    --memory --per-node`` commits to the perf section of
    ``BENCH_results.json``.
    """
    from repro.bench.harness import accl_collective_time, \
        scale_topology_factory
    from repro.cluster import build_fpga_cluster
    from repro.network.fidelity import fidelity_override

    if quick:
        nodes = min(nodes, 128)
    factory = scale_topology_factory(fabric, nodes)

    def builder(n, **kw):
        return build_fpga_cluster(n, topology_factory=factory,
                                  peering="lazy", **kw)

    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    t0 = time.perf_counter()
    cluster = builder(nodes, protocol="rdma", platform="coyote")
    build_s = time.perf_counter() - t0
    built, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    build_bytes = built - base
    del cluster

    with fidelity_override("flow"):
        measured = measure(
            lambda: accl_collective_time(
                "allreduce", SCALE_ALLREDUCE_BYTES, n_nodes=nodes,
                sync_protocol="rndz", algorithm="reduce_bcast",
                cluster_builder=builder),
            f"scale-allreduce-{nodes}")
    allreduce = measured["report"]
    allreduce.update(size=SCALE_ALLREDUCE_BYTES, algorithm="reduce_bcast",
                     fidelity="flow", time_s=measured["value"])

    report: Dict[str, Any] = {
        "artifact": "scale",
        "quick": quick,
        "nodes": nodes,
        "fabric": fabric,
        "build_s": build_s,
        "build_bytes": build_bytes,
        "allreduce": allreduce,
    }
    if per_node:
        report["bytes_per_node"] = build_bytes / nodes
    return report


def record_scale_block(report: Dict[str, Any],
                       json_out: str = "BENCH_results.json") -> bool:
    """Fold a scale profile into *json_out*'s ``perf`` section.

    Returns False (and writes nothing) when the trajectory file does not
    exist yet — the scale block rides on a previously generated
    ``BENCH_results.json``, it never creates one.
    """
    import json

    try:
        with open(json_out) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return False
    perf = doc.setdefault("perf", {})
    perf["scale"] = {
        key: report[key]
        for key in ("nodes", "fabric", "build_s", "build_bytes",
                    "bytes_per_node", "allreduce")
        if key in report
    }
    with open(json_out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return True


def profile_artifact(
    name: str,
    quick: bool = False,
    profile_out: Optional[str] = None,
    memory: bool = False,
    obs: bool = False,
    per_node: bool = False,
) -> Dict[str, Any]:
    """Profile one artifact (or ``"kernel"`` for microbenchmarks only).

    Returns a report dict with the events/sec metrics, plus optional
    ``memory`` (tracemalloc current/peak) and ``profile_out`` (pstats dump
    path) entries.  With ``obs=True`` the artifact runs a second time with
    the observability layer enabled, and the report gains an ``obs`` block:
    instrumented events/sec, overhead vs the plain run, collected
    metric/span counts, and — for artifacts with a traced scenario — a
    per-collective phase breakdown.
    """
    from repro.bench.runner import SweepRunner

    if name == "kernel":
        return {"artifact": "kernel", "quick": quick,
                "microbenchmarks": run_microbenchmarks(quick)}
    if name == "scale":
        return profile_scale(quick=quick, per_node=per_node)

    functions = _artifact_functions()
    if name not in functions:
        raise KeyError(
            f"unknown artifact {name!r}; profileable: "
            f"{', '.join(sorted(functions))}, kernel, scale")
    kwargs = dict(_QUICK_KWARGS.get(name, {})) if quick else {}
    runner = SweepRunner(jobs=1, cache=None)  # profiling wants cold points

    profiler = cProfile.Profile() if profile_out else None
    if memory:
        tracemalloc.start()
    if profiler:
        profiler.enable()
    try:
        measured = measure(
            lambda: functions[name](runner=runner, **kwargs), name)
    finally:
        if profiler:
            profiler.disable()
        if memory:
            mem_current, mem_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

    report = measured["report"]
    report.update(artifact=name, quick=quick, points=len(runner.records))
    if memory:
        report["memory"] = {"current_bytes": mem_current,
                            "peak_bytes": mem_peak}
    if profiler:
        profiler.dump_stats(profile_out)
        report["profile_out"] = profile_out
    if obs:
        report["obs"] = _measure_obs_overhead(name, functions[name], kwargs,
                                              report)
    return report


#: metrics-snapshot cadence for the telemetry overhead pass (sim-seconds);
#: 50 sim-us matches a serving-style scrape resolution — frequent enough
#: to ramp-profile the quick sweeps, coarse enough that the quoted cost
#: reflects steady-state sampling rather than degenerate oversampling.
_OBS_TELEMETRY_CADENCE = units.us(50)


def _measure_obs_overhead(name: str, fn, kwargs: Dict[str, Any],
                          baseline: Dict[str, Any]) -> Dict[str, Any]:
    """Re-run *fn* with observability enabled; quantify the cost.

    Two instrumented passes isolate the two cost sources: spans only
    (record-only tracing, no extra heap events), then spans + continuous
    telemetry snapshots.  The baseline (disabled) run has already happened
    — that order keeps the disabled path the one any warm-up effects favor
    *against*, so the reported overheads are if anything pessimistic.
    """
    from repro.bench.runner import SweepRunner
    from repro.obs import capture
    from repro.obs import runtime as obs_runtime

    bundle = obs_runtime.enable()
    try:
        runner = SweepRunner(jobs=1, cache=None)
        measured = measure(lambda: fn(runner=runner, **kwargs),
                           f"{name}+obs")
        summary = bundle.summary()
    finally:
        obs_runtime.disable()

    enabled = measured["report"]
    base_rate = baseline["events_per_s"]
    obs_rate = enabled["events_per_s"]
    block = {
        "events_per_s": obs_rate,
        "ns_per_event": enabled["ns_per_event"],
        "wall_s": enabled["wall_s"],
        "events": enabled["events"],
        "overhead_pct": ((base_rate / obs_rate - 1.0) * 100.0
                         if obs_rate > 0 else 0.0),
        "summary": summary,
    }

    # Third pass: spans + telemetry.  Snapshot overhead is quoted against
    # the span-only run so the two costs are separable in the report.
    bundle = obs_runtime.enable(telemetry_cadence=_OBS_TELEMETRY_CADENCE)
    try:
        runner = SweepRunner(jobs=1, cache=None)
        measured = measure(lambda: fn(runner=runner, **kwargs),
                           f"{name}+obs+telemetry")
        tm_summary = bundle.summary()
    finally:
        obs_runtime.disable()
    telemetry = measured["report"]
    tm_rate = telemetry["events_per_s"]
    snapshots = tm_summary.get("telemetry_samples", 0)
    snap_dropped = tm_summary.get("telemetry_dropped", 0)
    for rec in runner.records:
        snapshots += getattr(rec, "snapshots", 0)
        snap_dropped += getattr(rec, "snap_dropped", 0)
    block["telemetry"] = {
        "cadence_s": _OBS_TELEMETRY_CADENCE,
        "events_per_s": tm_rate,
        "wall_s": telemetry["wall_s"],
        "snapshots": snapshots,
        "snapshots_dropped": snap_dropped,
        "overhead_pct": ((obs_rate / tm_rate - 1.0) * 100.0
                         if tm_rate > 0 else 0.0),
    }
    if name in capture.traceable_artifacts():
        cap = capture.trace_artifact(name)
        block["breakdowns"] = cap.breakdowns()
    return block


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def perf_section(records, wall_s: float) -> Dict[str, Any]:
    """The ``perf`` block of ``BENCH_results.json`` for a finished sweep."""
    from repro.network.fidelity import default_fidelity

    events = sum(r.events for r in records if not r.cached)
    events_ff = sum(r.events_ff for r in records if not r.cached)
    run_wall = sum(r.wall_s for r in records if not r.cached)
    equivalent = events + events_ff
    return {
        "wall_s": wall_s,
        "fidelity": default_fidelity(),
        "events": events,
        "events_ff": events_ff,
        "events_per_s": equivalent / run_wall if run_wall > 0 else 0.0,
        "ns_per_event": run_wall / equivalent * 1e9 if equivalent else 0.0,
    }


def render_gc(gc_report: Dict[str, Dict[str, Any]], wall_s: float) -> str:
    """One ``gc:`` line: collector passes, seconds (and share of
    *wall_s*) and objects collected, in total and per generation."""
    gens = [gc_report[f"gen{i}"] for i in range(3)]
    seconds = sum(g["seconds"] for g in gens)
    share = seconds / wall_s * 100 if wall_s > 0 else 0.0
    per_gen = ", ".join(
        f"gen{i} {g['passes']}x {g['seconds']:.3f}s {g['collected']} freed"
        for i, g in enumerate(gens))
    return (f"gc: {sum(g['passes'] for g in gens)} passes, {seconds:.3f}s "
            f"({share:.1f}% of wall), "
            f"{sum(g['collected'] for g in gens)} objects freed ({per_gen})")


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`profile_artifact` report."""
    lines = []
    if report.get("artifact") == "scale":
        nodes = report["nodes"]
        lines.append(
            f"scale ({report['fabric']}, {nodes} nodes"
            + (", --quick" if report.get("quick") else "") + ")")
        lines.append(
            f"  cluster build: {report['build_s']:.2f}s, "
            f"{report['build_bytes'] / 2**20:.1f} MiB tracemalloc delta")
        if "bytes_per_node" in report:
            lines.append(
                f"  bytes/node: {report['bytes_per_node'] / 1024:.1f} KiB")
        ar = report["allreduce"]
        equivalent = ar["events"] + ar["events_ff"]
        lines.append(
            f"  allreduce {units.pretty_size(ar['size'])} "
            f"({ar['algorithm']}, fidelity={ar['fidelity']}): "
            f"sim {ar['time_s'] * 1e3:.2f} ms in {ar['wall_s']:.1f}s wall, "
            f"{equivalent} events ({ar['events_ff']} fast-forwarded), "
            f"{ar['events_per_s'] / 1e3:.1f}k events/s")
        lines.append("  " + render_gc(ar["gc"], ar["wall_s"]))
        return "\n".join(lines)
    micro = report.get("microbenchmarks")
    if micro is not None:
        lines.append("kernel microbenchmarks"
                     + (" (--quick)" if report.get("quick") else ""))
        for row in micro:
            line = (f"  {row['label']:<20} {row['events']:>9} events in "
                    f"{row['wall_s']:.3f}s = {row['events_per_s']/1e3:8.1f}k "
                    f"ev/s ({row['ns_per_event']:.0f} ns/event)")
            if "ops_per_s" in row:
                line += f", {row['ops_per_s']:.1f} collective-op/s"
            lines.append(line)
        return "\n".join(lines)

    lines.append(
        f"{report['artifact']}"
        + (" (--quick)" if report.get("quick") else "")
        + f": {report['points']} points, {report['events']} events in "
        f"{report['wall_s']:.2f}s wall / {report['sim_s']:.4f}s simulated")
    rate_line = (f"  {report['events_per_s']/1e3:.1f}k events/s, "
                 f"{report['ns_per_event']:.0f} ns/event")
    if report.get("events_ff"):
        rate_line += (f" (incl. {report['events_ff']} fast-forwarded, "
                      f"fidelity=flow)")
    lines.append(rate_line)
    lines.append("  " + render_gc(report["gc"], report["wall_s"]))
    mem = report.get("memory")
    if mem:
        lines.append(f"  tracemalloc peak {mem['peak_bytes']/1e6:.1f} MB "
                     f"(current {mem['current_bytes']/1e6:.1f} MB)")
    if report.get("profile_out"):
        lines.append(f"  pstats written to {report['profile_out']} "
                     f"(inspect: python -m pstats {report['profile_out']})")
    obs = report.get("obs")
    if obs:
        lines.append(
            f"  with observability: {obs['events_per_s']/1e3:.1f}k events/s "
            f"({obs['ns_per_event']:.0f} ns/event) — "
            f"{obs['overhead_pct']:+.1f}% overhead")
        summary = obs.get("summary", {})
        lines.append(
            f"    collected {summary.get('metrics', 0)} metrics; "
            f"dropped events={summary.get('events_dropped', 0)} "
            f"spans={summary.get('spans_dropped', 0)}")
        telemetry = obs.get("telemetry")
        if telemetry:
            lines.append(
                f"  with telemetry snapshots "
                f"(every {telemetry['cadence_s'] * 1e6:.0f} sim-us): "
                f"{telemetry['events_per_s']/1e3:.1f}k events/s — "
                f"{telemetry['overhead_pct']:+.1f}% on top of spans "
                f"({telemetry['snapshots']} snapshots, "
                f"{telemetry['snapshots_dropped']} dropped)")
        if obs.get("breakdowns"):
            from repro.obs.export import render_phase_table

            lines.append("  phase breakdown (traced scenario):")
            lines.extend("    " + ln for ln in
                         render_phase_table(obs["breakdowns"]).splitlines())
    return "\n".join(lines)
