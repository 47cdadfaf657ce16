"""Per-layer accounting for the traced run, attached from outside the program.

Two instruments, both installed by this file and removed afterwards:

- :class:`EntryCounters` wraps the public entry point of each layer on its
  class, so every call through it is counted (and, for link sends and burst
  attempts, classified).  Wrappers go on before the cluster is built,
  because links bind their sinks as bound methods at connect time.
- :func:`layer_self_times` groups a ``cProfile`` profile by the module that
  defines each function.  The profiler runs with ``builtins=False``, so time
  in C functions (heap operations, numpy kernels) stays with the Python
  function that called them.

Every ``repro`` module maps to exactly one layer through :data:`LAYER_MODULES`;
:func:`check_layer_map` fails when one maps to none or to several, so a new
module cannot fall silently into ``other``.
"""

from __future__ import annotations

import os
import pstats
import time
from typing import Dict, List

import repro

#: layer -> modules.  ``pkg.*`` names a package and everything under it; a
#: plain name is that module alone.  ``other`` also takes all code outside
#: ``repro`` (stdlib and numpy Python code, this benchmark's loop and
#: wrappers).
LAYER_MODULES: Dict[str, tuple] = {
    "kernel": ("repro.sim", "repro.sim.kernel"),
    "resources": ("repro.sim.resources", "repro.sim.channel"),
    "link": ("repro.network", "repro.network.link", "repro.network.endpoint",
             "repro.network.packet", "repro.network.fidelity"),
    "switch": ("repro.network.switch", "repro.network.topology"),
    "poe": ("repro.protocols.*",),
    "cclo": ("repro.cclo.*", "repro.collectives.*"),
    "memory": ("repro.memory.*",),
    "platform": ("repro.platform.*",),
    "driver": ("repro.driver.*",),
    "cluster": ("repro.cluster.*",),
    "obs": ("repro.obs.*", "repro.trace", "repro.sim.monitor"),
    # Support code and the parts of the repository these workloads do not
    # exercise (applications, MPI/v1 baselines, the bench CLI, the FPGA
    # resource model).
    "other": ("repro", "repro.units", "repro.errors", "repro.resources.*",
              "repro.apps.*", "repro.baselines.*", "repro.bench.*"),
}

LAYERS = tuple(name for name in LAYER_MODULES if name != "other")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def _matches(module: str, pattern: str) -> bool:
    if pattern.endswith(".*"):
        package = pattern[:-2]
        return module == package or module.startswith(package + ".")
    return module == pattern


def layers_of(module: str) -> List[str]:
    return [layer for layer, patterns in LAYER_MODULES.items()
            if any(_matches(module, p) for p in patterns)]


def repro_modules() -> List[str]:
    """Every module of the ``repro`` package on disk (nothing is imported)."""
    return sorted(module_of(os.path.join(root, name))
                  for root, _, files in os.walk(_REPRO_DIR)
                  for name in files if name.endswith(".py"))


def check_layer_map() -> None:
    """Raise unless every ``repro`` module maps to exactly one layer."""
    bad = {m: layers_of(m) for m in repro_modules() if len(layers_of(m)) != 1}
    if bad:
        raise RuntimeError(
            "modules not mapped to exactly one layer: "
            + ", ".join(f"{m} -> {ls or 'none'}" for m, ls in sorted(bad.items())))


def module_of(filename: str) -> str:
    """Dotted ``repro`` module for a source path, or ``""`` for other code."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR + os.sep):
        return ""
    rel = os.path.relpath(path, os.path.dirname(_REPRO_DIR))[:-len(".py")]
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_self_times(profile) -> Dict[str, tuple]:
    """Per layer: (self seconds, calls) from a ``cProfile.Profile``."""
    totals = {layer: [0.0, 0] for layer in LAYER_MODULES}
    for (filename, _, _), (_, calls, self_s, _, _) in \
            pstats.Stats(profile).stats.items():
        module = module_of(filename)
        layer = layers_of(module)[0] if module else "other"
        totals[layer][0] += self_s
        totals[layer][1] += calls
    return {layer: tuple(v) for layer, v in totals.items()}


class EntryCounters:
    """Counts calls through each layer's public entry points.

    Use as a context manager: wrappers are installed on entry and the
    original class attributes restored on exit.
    """

    KEYS = ("link.sends", "link.sends_ctrl", "link.sends_data",
            "link.bursts_tried", "link.bursts_admitted", "switch.ingress",
            "poe.messages", "cclo.uc_calls", "cclo.dmp_issues",
            "cclo.rx_incoming", "memory.pcie_dma", "platform.invokes",
            "platform.stages", "driver.calls", "cluster.builds",
            "cluster.build_s")

    def __init__(self):
        self.counts: Dict[str, float] = dict.fromkeys(self.KEYS, 0)
        self._saved: list = []

    def __enter__(self) -> "EntryCounters":
        from repro.cclo.dmp import DataMovementProcessor
        from repro.cclo.microcontroller import MicroController
        from repro.cclo.rbm import RxBufManager
        import repro.cluster
        from repro.driver.api import Accl
        from repro.memory.pcie import PcieLink
        from repro.network.link import Link
        from repro.network.switch import Switch
        from repro.platform.base import BasePlatform
        from repro.protocols.base import BasePoe

        self._wrap(Link, "send", self._link_send)
        self._wrap(Link, "try_send_burst", self._try_burst)
        for name in ("ingress", "ingress_burst"):
            self._wrap(Switch, name, self._counting("switch.ingress"))
        self._wrap(BasePoe, "send_message", self._counting("poe.messages"))
        self._wrap(MicroController, "call", self._counting("cclo.uc_calls"))
        self._wrap(DataMovementProcessor, "issue",
                   self._counting("cclo.dmp_issues"))
        self._wrap(RxBufManager, "handle_incoming",
                   self._counting("cclo.rx_incoming"))
        for name in ("dma_h2d", "dma_d2h", "dma_h2d_delay", "dma_d2h_delay"):
            self._wrap(PcieLink, name, self._counting("memory.pcie_dma"))
        for name in ("invoke_from_host", "invoke_from_kernel"):
            self._wrap(BasePlatform, name, self._counting("platform.invokes"))
        for name in ("stage_in", "stage_out"):
            self._wrap(BasePlatform, name, self._counting("platform.stages"))
        for name in ("send", "recv", "bcast", "reduce", "allreduce", "gather",
                     "allgather", "scatter", "alltoall", "barrier", "nop"):
            self._wrap(Accl, name, self._counting("driver.calls"))
        self._wrap(repro.cluster, "build_fpga_cluster", self._timed_build)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def _counting(self, key: str):
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def _link_send(self, original):
        counts = self.counts

        def send(link, segment):
            counts["link.sends"] += 1
            if segment.n_frames == 1:
                counts["link.sends_ctrl"] += 1
            else:
                counts["link.sends_data"] += 1
            return original(link, segment)
        return send

    def _try_burst(self, original):
        counts = self.counts

        def try_send_burst(link, burst):
            counts["link.bursts_tried"] += 1
            result = original(link, burst)
            if result is not None:
                counts["link.bursts_admitted"] += 1
            return result
        return try_send_burst

    def _timed_build(self, original):
        counts = self.counts

        def build(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                counts["cluster.builds"] += 1
                counts["cluster.build_s"] += time.perf_counter() - t0
        return build
