"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ring-chunked --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to the
program, in seconds of a host running at a fixed nominal speed (see
``hostspeed.py``).  ``--trace 1`` alternates untraced repetitions with
traced ones (entry-point counters plus a cProfile hook) and reports the
per-layer metrics.  Both check every op's output and simulated time
against the committed reference (``reference.json``) and exit non-zero
when the program cannot be imported.  See ``README.md`` for the metric
definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small clusters for the benchmark's tests")
    return parser.parse_args(argv)


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as f:
        return json.load(f)


class Tally:
    """Ops attempted and failed, and the worst simulated-time deviation."""

    def __init__(self, reference: dict, rtol: float):
        self.reference = reference
        self.rtol = rtol
        self.attempted = 0
        self.failed = 0
        self.err_rel = 0.0
        self.errors: list = []

    def record(self, key: str, sim_s, problem) -> None:
        """Count one op; *sim_s* is ``None`` when the op did not complete."""
        self.attempted += 1
        ref = self.reference.get(key)
        if ref is None:
            problem = problem or "no reference time"
            self.err_rel = float("inf")
        elif sim_s is not None:
            err = abs(sim_s - ref) / ref
            self.err_rel = max(self.err_rel, err)
            if err > self.rtol:
                problem = problem or (
                    f"sim time {sim_s!r} s vs reference {ref!r} s")
        if problem:
            self.fail(key, problem)

    def fail(self, key: str, problem: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{key}: {problem}")


def run_rep(workload, seed: int, tally: Tally, profiler=None) -> dict:
    """Build one fresh cluster and run the workload's ops on it once."""
    from repro.sim import Environment, all_of

    t0 = time.perf_counter()
    rep = workload.setup(seed)
    setup_s = time.perf_counter() - t0
    env = rep.env
    ev0 = Environment.total_events_processed
    ff0 = Environment.total_events_fast_forwarded
    op_host_s, sim_s = [], 0.0
    ops = rep.ops()
    while True:
        try:
            op = next(ops)
        except StopIteration:
            break
        except Exception as exc:  # the workload could not start its next op
            tally.record("next op", None, f"{type(exc).__name__}: {exc}")
            break
        start = env.now
        try:
            if profiler is not None:
                profiler.enable()
            t_op = time.perf_counter()
            env.run(until=all_of(env, op.issue()))
            host_s = time.perf_counter() - t_op
        except Exception as exc:  # an op that raises counts as failed
            tally.record(op.key, None, f"{type(exc).__name__}: {exc}")
            break
        finally:
            if profiler is not None:
                profiler.disable()
        op_host_s.append(host_s)
        sim_s += env.now - start
        try:
            problem = op.check()
        except Exception as exc:  # a check that cannot run fails the op
            problem = f"check raised {type(exc).__name__}: {exc}"
        tally.record(op.key, env.now - start, problem)
    return {
        "setup_s": setup_s,
        "wall_s": sum(op_host_s),
        "op_host_s": op_host_s,
        "sim_s": sim_s,
        "events": Environment.total_events_processed - ev0,
        "events_ff": Environment.total_events_fast_forwarded - ff0,
        "scale": 1.0,
    }


def p95(op_ms: list) -> str:
    """The 95th percentile of op host times, when at least ten samples lie
    beyond it; the fabric workloads run too few ops for one."""
    if len(op_ms) < 200:
        return ""
    return f" (p95 {sorted(op_ms)[int(0.95 * len(op_ms))]:.4g} ms)"


def repeat(step, seconds: float, tally: Tally) -> None:
    """Call *step* at least once, and again while another call still fits
    in *seconds* (judged by the mean call so far) and no op has failed."""
    t0, calls = time.perf_counter(), 0
    while not tally.failed:
        step()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (calls + 1) / calls > seconds:
            break


def measure(workload, seed: int, seconds: float, tally: Tally) -> list:
    """Untraced repetitions for *seconds*, with the host-speed kernel timed
    before the first and after each one.  Each rep's ``scale`` turns its
    host seconds into nominal-speed seconds (see ``hostspeed``)."""
    import hostspeed

    reps = []
    with hostspeed.Gauge() as gauge:
        before = gauge()

        def step():
            nonlocal before
            rep = run_rep(workload, seed, tally)
            after = gauge()
            rep["scale"] = 2 * hostspeed.NOMINAL_S / (before + after)
            reps.append(rep)
            before = after

        repeat(step, seconds, tally)
    return reps


def measure_traced(workload, seed: int, seconds: float, tally: Tally):
    """Alternate untraced and traced repetitions for *seconds*.

    Returns ``(untraced reps, [(traced rep, counters, layer self times)])``.
    """
    import cProfile

    import layers

    layers.check_layer_map()
    plain, traced = [], []

    def pair():
        plain.append(run_rep(workload, seed, tally))
        profiler = cProfile.Profile(builtins=False)
        with layers.EntryCounters() as counters:
            rep = run_rep(workload, seed, tally, profiler)
        traced.append((rep, dict(counters.counts),
                       layers.layer_self_times(profiler)))

    repeat(pair, seconds, tally)
    return plain, traced


#: cProfile's per-function self times must add up to the traced wall time
#: within this share, else the layer split is not trusted.
RECONCILE_RTOL = 0.10


def layer_metrics(plain: list, traced: list) -> dict:
    import layers

    counts = [c for _, c, _ in traced]
    keys = [k for k in counts[0] if k != "cluster.build_s"]
    for c in counts[1:]:
        if any(c[k] != counts[0][k] for k in keys):
            raise RuntimeError("entry-point counts differ between traced "
                               "repetitions of the same inputs")
    for rep, _, selfs in traced:
        total_self = sum(s for s, _ in selfs.values())
        if abs(total_self - rep["wall_s"]) > RECONCILE_RTOL * rep["wall_s"]:
            raise RuntimeError(
                f"layer self times sum to {total_self:.3f} s but the traced "
                f"wall time is {rep['wall_s']:.3f} s")
    # Report the traced repetition with the median wall time, whole, so its
    # self times still add up to its wall time.
    rep, count, selfs = sorted(traced, key=lambda t: t[0]["wall_s"])[
        (len(traced) - 1) // 2]
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r, _, _ in traced)
    events = plain[0]["events"]
    m = {
        "kernel.events": (events, "count"),
        "kernel.events_ff": (plain[0]["events_ff"], "count"),
        "kernel.ns_per_event": (plain_wall / max(events, 1) * 1e9, "ns"),
        "resources.calls": (selfs["resources"][1], "count"),
        "link.burst_admit_ratio": (
            count["link.bursts_admitted"] / max(count["link.bursts_tried"], 1),
            "ratio"),
        "trace.overhead": (traced_wall / plain_wall, "ratio"),
        "other.self_s": (selfs["other"][0], "s"),
    }
    for key, value in count.items():
        m[key] = (value, "s" if key.endswith("_s") else "count")
    for layer in layers.LAYERS:
        if layer != "cluster":
            m[f"{layer}.self_s"] = (selfs[layer][0], "s")
    return m


#: Fresh interpreters that time the program's import once more each, so
#: that ``setup_s`` rests on a median rather than on one import.
IMPORT_SAMPLES = 4
IMPORTS = "import workloads, repro.network.fidelity"


def import_seconds() -> float:
    """Host seconds a fresh interpreter takes for the runner's imports."""
    code = (f"import sys, time; sys.path[:0] = {[SRC, HERE]!r}; "
            f"t = time.perf_counter(); {IMPORTS}; "
            f"print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return float(out.split()[-1])


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from repro.network.fidelity import fidelity_override
    import_s = time.perf_counter() - t_start

    presets = workloads.WORKLOADS.get(args.workload)
    if presets is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = presets[args.size]
    tally = Tally(load_reference()[args.workload], workload.sim_rtol)

    with fidelity_override(workload.fidelity):
        if args.trace:
            plain, traced = measure_traced(workload, args.seed, args.seconds,
                                           tally)
            reps = plain
        else:
            reps = measure(workload, args.seed, args.seconds, tally)

    def scaled(key):
        return statistics.median(r[key] * r["scale"] for r in reps)

    scale = statistics.median(r["scale"] for r in reps)
    op_ms = [s * 1e3 * r["scale"] for r in reps for s in r["op_host_s"]]
    if not op_ms:
        print(f"# {args.workload}: no op completed; {tally.errors}")
        return 1
    sim_us = [r["sim_s"] * 1e6 for r in reps]
    if len(set(sim_us)) > 1:
        tally.fail("sim_us", f"differs between repetitions: {sim_us}")
    print(f"# {args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"ops failed {tally.failed}/{tally.attempted}, "
          f"sim_err_rel {tally.err_rel:.3g}, sim_us {sim_us[0]!r}, "
          f"op_host_ms over {len(op_ms)} ops{p95(op_ms)}, "
          f"median host-speed scale {scale:.4g} "
          f"(unscaled wall_s median "
          f"{statistics.median(r['wall_s'] for r in reps):.4g} s)")
    for error in tally.errors:
        print(f"# FAILED {error}")

    if args.trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = {
            "wall_s": (scaled("wall_s"), "s"),
            "setup_s": (scale * statistics.median(
                [import_s] + [import_seconds() for _ in range(IMPORT_SAMPLES)])
                + scaled("setup_s"), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "op_host_ms.p50": (statistics.median(op_ms), "ms"),
        }
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
