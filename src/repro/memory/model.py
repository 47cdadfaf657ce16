"""Capacity-tracked memories with bandwidth/latency port models.

The CCLO "manages buffers in FPGA memory (HBM, DDR, BRAM)" (§4.4); eager
Rx buffers, staged collectives and DLRM embedding tables all live in these.
Reads and writes occupy the memory port (a serializing byte-pipe) and pay a
fixed access latency, so copy costs — the heart of the eager-vs-rendezvous
trade-off — fall out of the model instead of being hard-coded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError, PlatformError
from repro.sim import BandwidthResource, Environment, Event
from repro import units


@dataclass(frozen=True)
class Allocation:
    """A named region inside a :class:`Memory`."""

    memory: "Memory"
    offset: int
    nbytes: int
    handle: int

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


class Memory:
    """One memory with a shared read/write port.

    Args:
        env: simulation environment.
        capacity: bytes available to the allocator.
        bandwidth: port bandwidth in bytes/s.
        access_latency: fixed latency per access in seconds.
        name: for tracing and error messages.
    """

    def __init__(
        self,
        env: Environment,
        capacity: int,
        bandwidth: float,
        access_latency: float = 0.0,
        name: str = "mem",
    ):
        if capacity <= 0:
            raise ConfigurationError(f"memory capacity must be positive: {capacity}")
        self.env = env
        self.capacity = capacity
        self.access_latency = access_latency
        self.name = name
        self._port = BandwidthResource(env, bandwidth, name=f"{name}.port")
        self._allocations: Dict[int, Allocation] = {}
        # Running total of live allocations: every rendezvous receive
        # allocates scratch, so re-summing the table per call is O(n).
        self._allocated_bytes = 0
        self._next_offset = 0
        self._handles = itertools.count(1)

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.allocated_bytes

    @property
    def bytes_accessed(self) -> int:
        return self._port.bytes_moved

    def allocate(self, nbytes: int) -> Allocation:
        """Reserve *nbytes*; raises :class:`PlatformError` when exhausted."""
        if nbytes <= 0:
            raise ConfigurationError(f"allocation size must be positive: {nbytes}")
        if nbytes > self.free_bytes:
            raise PlatformError(
                f"{self.name}: out of memory "
                f"(want {nbytes}, free {self.free_bytes} of {self.capacity})"
            )
        if self._next_offset + nbytes > self.capacity:
            # Bump pointer wrapped: compact (we only model capacity, not
            # fragmentation, which is a software-allocator concern).
            self._next_offset = self.allocated_bytes
        alloc = Allocation(self, self._next_offset, nbytes, next(self._handles))
        self._next_offset += nbytes
        self._allocations[alloc.handle] = alloc
        self._allocated_bytes += nbytes
        return alloc

    def free(self, alloc: Allocation) -> None:
        if self._allocations.pop(alloc.handle, None) is None:
            raise PlatformError(
                f"{self.name}: double free or foreign allocation {alloc.handle}"
            )
        self._allocated_bytes -= alloc.nbytes

    def read(self, nbytes: int) -> Event:
        """Event completing when *nbytes* have been read from the port."""
        return self.env.timeout(self.access_delay(nbytes), value=nbytes)

    def write(self, nbytes: int) -> Event:
        """Event completing when *nbytes* have been written via the port."""
        return self.env.timeout(self.access_delay(nbytes), value=nbytes)

    def access_delay(self, nbytes: int) -> float:
        """Reserve the port and return the completion delay from *now*.

        Same reservation as :meth:`read`/:meth:`write` but without an event —
        platforms composing several pipe stages into one completion use this
        to avoid scheduling intermediate events nobody waits on.
        """
        return self._port.reserve(nbytes) + self.access_latency - self.env.now

    def access_time(self, nbytes: int) -> float:
        """Analytic cost of one access if issued now (no reservation)."""
        return self._port.occupancy_delay(nbytes) + self.access_latency

    def __repr__(self) -> str:
        return (
            f"<Memory {self.name!r} {self.allocated_bytes}/{self.capacity}B "
            f"{self._port.rate / units.GIB:.0f} GiB/s>"
        )


def hbm_stack(env: Environment, name: str = "hbm") -> Memory:
    """Alveo-U55C HBM2: 16 GiB, ~460 GB/s aggregate, ~120 ns access."""
    return Memory(
        env,
        capacity=16 * units.GIB,
        bandwidth=460e9,
        access_latency=units.ns(120),
        name=name,
    )


def fpga_ddr(env: Environment, name: str = "ddr") -> Memory:
    """FPGA card DDR4 channel: 16 GiB, ~19 GB/s, ~90 ns access."""
    return Memory(
        env,
        capacity=16 * units.GIB,
        bandwidth=19e9,
        access_latency=units.ns(90),
        name=name,
    )


def host_dram(env: Environment, capacity: int = 256 * units.GIB,
              name: str = "dram") -> Memory:
    """Server DRAM: 256 GiB default, ~100 GB/s, ~85 ns access."""
    return Memory(
        env,
        capacity=capacity,
        bandwidth=100e9,
        access_latency=units.ns(85),
        name=name,
    )


def bram(env: Environment, capacity: int = 8 * units.MIB, name: str = "bram") -> Memory:
    """On-chip BRAM: small, single-cycle at 250 MHz, very wide."""
    return Memory(
        env,
        capacity=capacity,
        bandwidth=1e12,
        access_latency=units.ns(4),
        name=name,
    )
