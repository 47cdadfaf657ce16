"""Coyote: the shared-virtual-memory platform (§4.2 "Integration with Coyote").

Coyote gives the FPGA kernel a unified, virtualized view of host and device
memory: a software-populated TLB translates kernel memory requests and routes
them to host DMA (over PCIe) or device DMA (HBM/DDR).  Consequences modeled
here, each of which shows up in the evaluation:

- **F2F ≈ H2H** (Figs 7/10/11): a CCLO access to a host buffer rides PCIe at
  ~13 GB/s — still faster than the 12.5 GB/s network, so host- and
  device-resident data perform alike.
- **Page faults hurt**: an unmapped page interrupts the CPU; the CCL driver
  (CoyoteBuffer) therefore *eagerly maps* pages at buffer creation.
- **Invocation is cheap** (Fig 8): one PCIe write + one PCIe read, ~2.3 us.
- The ACCL+ integration widened the TLB associativity and the number of
  streaming interfaces; we expose the TLB capacity as a parameter.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.errors import PlatformError
from repro.memory import Memory, PcieLink, hbm_stack, host_dram
from repro.platform.base import BaseBuffer, BasePlatform, BufferLocation
from repro.sim import Environment, Event
from repro import units


class Tlb:
    """Software-populated translation cache for the FPGA memory manager."""

    PAGE_BYTES = 2 * units.MIB  # Coyote uses hugepages

    def __init__(
        self,
        env: Environment,
        entries: int = 1024,
        lookup_latency: float = units.ns(8),
        fault_penalty: float = units.us(20),
    ):
        self.env = env
        self.entries = entries
        self.lookup_latency = lookup_latency
        self.fault_penalty = fault_penalty
        self._mapped: Set[int] = set()
        self._lru: list = []
        self.hits = 0
        self.faults = 0

    def map_page(self, page: int) -> None:
        """Eagerly install a translation (driver-side, free of charge)."""
        if page in self._mapped:
            return
        if len(self._mapped) >= self.entries:
            victim = self._lru.pop(0)
            self._mapped.discard(victim)
        self._mapped.add(page)
        self._lru.append(page)

    def map_range(self, start_page: int, n_pages: int) -> None:
        for page in range(start_page, start_page + n_pages):
            self.map_page(page)

    def translate(self, page: int) -> float:
        """Return the latency of translating *page*, faulting if unmapped."""
        if page in self._mapped:
            self.hits += 1
            return self.lookup_latency
        self.faults += 1
        self.map_page(page)
        return self.lookup_latency + self.fault_penalty

    def __repr__(self) -> str:
        return f"<Tlb {len(self._mapped)}/{self.entries} faults={self.faults}>"


class CoyoteBuffer(BaseBuffer):
    """Buffer with eagerly-mapped pages (the paper's CoyoteBuffer class).

    "the CCL driver, specifically the CoyoteBuffer class, eagerly maps pages
    to the Coyote TLBs when instantiating buffers" — pass ``eager_map=False``
    to reproduce the page-fault penalty that motivates this (first touch
    interrupts the CPU; see the TLB ablation benchmark).
    """

    def __init__(self, platform: "CoyotePlatform", nbytes: int,
                 location: BufferLocation, array: Optional[np.ndarray] = None,
                 eager_map: bool = True):
        super().__init__(platform, nbytes, location, array)
        memory = (
            platform.device_memory
            if location is BufferLocation.DEVICE
            else platform.host_memory
        )
        self._allocation = memory.allocate(nbytes)
        first_page = self._allocation.offset // Tlb.PAGE_BYTES
        last_page = (self._allocation.end - 1) // Tlb.PAGE_BYTES
        self.pages = (first_page, last_page - first_page + 1)
        if eager_map:
            platform.tlb.map_range(*self.pages)


class CoyotePlatform(BasePlatform):
    """Shared virtual memory over host DRAM + device HBM, joined by PCIe."""

    name = "coyote"
    # One PCIe posted write (doorbell) + one read (ack): Fig 8 "cyt host".
    host_invocation_latency = units.us(2.3)
    # Kernel command lands in an on-fabric FIFO: ~20 cycles @250 MHz.
    kernel_invocation_latency = units.ns(80)

    def __init__(
        self,
        env: Environment,
        host_memory: Optional[Memory] = None,
        device_memory: Optional[Memory] = None,
        pcie: Optional[PcieLink] = None,
        tlb_entries: int = 1024,
    ):
        super().__init__(env)
        self.host_memory = host_memory or host_dram(env, name="cyt.dram")
        self.device_memory = device_memory or hbm_stack(env, name="cyt.hbm")
        self.pcie = pcie or PcieLink(env, name="cyt.pcie")
        self.tlb = Tlb(env, entries=tlb_entries)

    def allocate(self, nbytes, location=BufferLocation.DEVICE, array=None,
                 eager_map: bool = True):
        return CoyoteBuffer(self, nbytes, location, array,
                            eager_map=eager_map)

    def device_access(self, buffer: BaseBuffer, nbytes: int,
                      direction: str) -> Event:
        """Route a CCLO access through the TLB to the right memory."""
        if buffer.platform is not self:
            raise PlatformError("buffer belongs to a different platform")
        if nbytes > buffer.nbytes:
            raise PlatformError(
                f"access of {nbytes}B exceeds buffer of {buffer.nbytes}B"
            )
        # Touch every page the access spans: a lazily-mapped buffer faults
        # once per page, an eagerly-mapped one pays only lookups.
        first_page, n_pages = buffer.pages
        pages_touched = min(
            n_pages, max(1, -(-nbytes // Tlb.PAGE_BYTES))
        )
        if pages_touched == 1:
            # Almost every access: skip the generator.  sum() would add the
            # one latency to 0, which leaves the float unchanged.
            translate = self.tlb.translate(first_page)
        else:
            translate = sum(
                self.tlb.translate(first_page + i)
                for i in range(pages_touched)
            )
        if buffer.location is BufferLocation.DEVICE:
            mem_delay = self.device_memory.access_delay(nbytes)
            return self.env.timeout(translate + mem_delay)
        # Host memory: the access crosses PCIe and touches DRAM; both pipes
        # are charged, completion follows the slower one.
        dram_delay = self.host_memory.access_delay(nbytes)
        if direction == "read":
            pcie_delay = self.pcie.dma_h2d_delay(nbytes)  # host -> FPGA
        else:
            pcie_delay = self.pcie.dma_d2h_delay(nbytes)  # FPGA -> host
        return self.env.timeout(translate + max(dram_delay, pcie_delay))

    def requires_staging(self, buffer: BaseBuffer) -> bool:
        return False  # unified memory: the CCLO reaches host pages directly
