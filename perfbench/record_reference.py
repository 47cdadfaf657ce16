"""Record ``reference.json``: every op's simulated time in packet fidelity.

    python3 perfbench/record_reference.py

Run once when the modelled design changes on purpose (never to make a
failing check pass).  Packet fidelity is the simulator's calibrated mode;
the benchmark compares each op it runs against these times, exactly for
``ring-chunked`` and ``app-loop`` and within the flow tolerance for
``bulk-flow``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from repro.network.fidelity import fidelity_override  # noqa: E402
from repro.sim import all_of  # noqa: E402


def sim_times(rep) -> dict:
    times = {}
    for op in rep.ops():
        start = rep.env.now
        rep.env.run(until=all_of(rep.env, op.issue()))
        problem = op.check()
        if problem:
            raise RuntimeError(f"{op.key}: {problem}")
        times[op.key] = rep.env.now - start
    return times


def app_draws():
    """Every app-loop op shape once, in a fixed order."""
    rng = np.random.default_rng(0)
    for opcode, size, root in workloads.APP_MIX:
        if opcode == "allreduce" and root:
            continue
        yield opcode, size, root, rng.integers(
            -1024, 1024, (workloads.APP_NODES, size // 4)).astype(np.float32)


def main() -> None:
    reference = {}
    with fidelity_override("packet"):
        for name in ("ring-chunked", "bulk-flow"):
            reference[name] = {}
            for preset in workloads.WORKLOADS[name].values():
                reference[name].update(sim_times(preset.setup(seed=0)))
                print(name, reference[name], flush=True)
        reference["app-loop"] = sim_times(workloads.app_rep(app_draws()))
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
