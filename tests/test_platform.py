"""Unit tests for the platform layer: Coyote, Vitis/XRT, SimPlatform."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError, PlatformError
from repro.platform import (
    BufferLocation,
    CoyotePlatform,
    SimPlatform,
    Tlb,
    VitisPlatform,
)
from repro.sim import Environment


def run_event(env, make_event):
    """Helper: run a process that yields one event, return elapsed time."""
    t = {}

    def proc():
        yield make_event()
        t["done"] = env.now

    start = env.now
    env.process(proc())
    env.run()
    return t["done"] - start


class TestTlb:
    def test_hit_is_cheap(self):
        env = Environment()
        tlb = Tlb(env)
        tlb.map_page(0)
        assert tlb.translate(0) == tlb.lookup_latency
        assert tlb.hits == 1 and tlb.faults == 0

    def test_miss_pays_fault_and_maps(self):
        env = Environment()
        tlb = Tlb(env)
        cost = tlb.translate(5)
        assert cost == pytest.approx(tlb.lookup_latency + tlb.fault_penalty)
        assert tlb.faults == 1
        assert tlb.translate(5) == tlb.lookup_latency

    def test_capacity_eviction(self):
        env = Environment()
        tlb = Tlb(env, entries=2)
        tlb.map_page(0)
        tlb.map_page(1)
        tlb.map_page(2)  # evicts 0
        assert tlb.translate(1) == tlb.lookup_latency
        assert tlb.translate(0) > tlb.lookup_latency  # faulted back in

    def test_map_range(self):
        env = Environment()
        tlb = Tlb(env)
        tlb.map_range(10, 4)
        for page in range(10, 14):
            assert tlb.translate(page) == tlb.lookup_latency


class TestCoyote:
    def test_buffer_pages_eagerly_mapped(self):
        env = Environment()
        plat = CoyotePlatform(env)
        buf = plat.allocate(8 * units.MIB, BufferLocation.HOST)
        assert plat.tlb.faults == 0
        elapsed = run_event(env, lambda: buf.device_read())
        assert plat.tlb.faults == 0
        assert plat.tlb.hits == 4  # one lookup per touched 2 MiB hugepage
        assert elapsed > 0

    def test_lazy_buffer_faults_on_first_touch(self):
        env = Environment()
        plat = CoyotePlatform(env)
        buf = plat.allocate(8 * units.MIB, BufferLocation.HOST,
                            eager_map=False)
        run_event(env, lambda: buf.device_read())
        assert plat.tlb.faults == 4
        # Second access hits the now-populated translations.
        faults_before = plat.tlb.faults
        run_event(env, lambda: buf.device_read())
        assert plat.tlb.faults == faults_before

    def test_host_access_rides_pcie(self):
        env = Environment()
        plat = CoyotePlatform(env)
        buf = plat.allocate(13 * 10**6, BufferLocation.HOST)
        elapsed = run_event(env, lambda: buf.device_read())
        # 13 MB over ~13 GB/s PCIe ~ 1 ms
        assert elapsed == pytest.approx(1e-3, rel=0.2)
        assert plat.pcie.bytes_h2d == 13 * 10**6

    def test_device_access_uses_hbm_not_pcie(self):
        env = Environment()
        plat = CoyotePlatform(env)
        buf = plat.allocate(units.MIB, BufferLocation.DEVICE)
        run_event(env, lambda: buf.device_write())
        assert plat.pcie.bytes_h2d == 0 and plat.pcie.bytes_d2h == 0
        assert plat.device_memory.bytes_accessed == units.MIB

    def test_no_staging_required(self):
        env = Environment()
        plat = CoyotePlatform(env)
        buf = plat.allocate(1024, BufferLocation.HOST)
        assert not plat.requires_staging(buf)

    def test_invocation_latencies_ordered(self):
        env = Environment()
        plat = CoyotePlatform(env)
        assert plat.kernel_invocation_latency < plat.host_invocation_latency
        assert plat.host_invocation_latency == pytest.approx(units.us(2.3))

    def test_wrap_array(self):
        env = Environment()
        plat = CoyotePlatform(env)
        arr = np.zeros(1024, dtype=np.float32)
        buf = plat.wrap(arr, BufferLocation.HOST)
        assert buf.nbytes == arr.nbytes
        assert buf.array is arr

    def test_wrap_size_mismatch_rejected(self):
        env = Environment()
        plat = CoyotePlatform(env)
        arr = np.zeros(10)
        with pytest.raises(ConfigurationError):
            plat.allocate(999, BufferLocation.HOST, array=arr)

    def test_oversized_access_rejected(self):
        env = Environment()
        plat = CoyotePlatform(env)
        buf = plat.allocate(100, BufferLocation.DEVICE)
        with pytest.raises(PlatformError):
            plat.device_access(buf, 200, "read")

    def test_foreign_buffer_rejected(self):
        env = Environment()
        plat_a = CoyotePlatform(env)
        plat_b = CoyotePlatform(env)
        buf = plat_a.allocate(100, BufferLocation.DEVICE)
        with pytest.raises(PlatformError, match="different platform"):
            plat_b.device_access(buf, 100, "read")

    @pytest.mark.parametrize("direction", ["read", "write"])
    def test_zero_byte_access_charges_nothing(self, direction):
        # A 0-byte access is a 0-byte access, on a buffer as on a view —
        # not a whole-buffer one.
        for whole in (True, False):
            env = Environment()
            plat = CoyotePlatform(env)
            buf = plat.allocate(units.MIB, BufferLocation.DEVICE)
            target = buf if whole else buf.view(4096, 8192)
            access = getattr(target, f"device_{direction}")
            elapsed = run_event(env, lambda: access(0))
            assert plat.device_memory.bytes_accessed == 0
            assert elapsed < units.ns(500)
            run_event(env, lambda: access())
            assert plat.device_memory.bytes_accessed == target.nbytes

    def test_buffer_free_returns_capacity(self):
        env = Environment()
        plat = CoyotePlatform(env)
        before = plat.device_memory.free_bytes
        buf = plat.allocate(units.MIB, BufferLocation.DEVICE)
        buf.free()
        assert plat.device_memory.free_bytes == before
        with pytest.raises(PlatformError):
            buf.free()


class TestVitis:
    def test_unstaged_host_buffer_access_rejected(self):
        env = Environment()
        plat = VitisPlatform(env)
        buf = plat.allocate(1024, BufferLocation.HOST)
        assert plat.requires_staging(buf)
        with pytest.raises(PlatformError, match="staged"):
            plat.device_access(buf, 1024, "read")

    def test_stage_in_enables_access_and_charges_pcie(self):
        env = Environment()
        plat = VitisPlatform(env)
        buf = plat.allocate(units.MIB, BufferLocation.HOST)
        elapsed = run_event(env, lambda: plat.stage_in(buf))
        assert elapsed > 0
        assert plat.pcie.bytes_h2d == units.MIB
        run_event(env, lambda: buf.device_read())
        assert plat.stagings == 1

    def test_stage_out_reverses(self):
        env = Environment()
        plat = VitisPlatform(env)
        buf = plat.allocate(units.MIB, BufferLocation.HOST)
        run_event(env, lambda: plat.stage_in(buf))
        run_event(env, lambda: plat.stage_out(buf))
        assert plat.pcie.bytes_d2h == units.MIB
        assert not buf.staged

    def test_device_buffer_needs_no_staging(self):
        env = Environment()
        plat = VitisPlatform(env)
        buf = plat.allocate(1024, BufferLocation.DEVICE)
        assert not plat.requires_staging(buf)
        elapsed = run_event(env, lambda: plat.stage_in(buf))
        assert elapsed == 0

    def test_invocation_much_higher_than_coyote(self):
        env = Environment()
        vitis = VitisPlatform(env)
        coyote = CoyotePlatform(env)
        assert vitis.host_invocation_latency > 10 * coyote.host_invocation_latency

    def test_host_buffer_has_device_shadow(self):
        env = Environment()
        plat = VitisPlatform(env)
        free_before = plat.device_memory.free_bytes
        buf = plat.allocate(units.MIB, BufferLocation.HOST)
        assert plat.device_memory.free_bytes == free_before - units.MIB
        buf.free()
        assert plat.device_memory.free_bytes == free_before


class TestSimPlatform:
    def test_zero_cost_access(self):
        env = Environment()
        plat = SimPlatform(env)
        buf = plat.allocate(units.GIB)
        elapsed = run_event(env, lambda: buf.device_read())
        assert elapsed == 0.0

    def test_zero_invocation(self):
        assert SimPlatform.host_invocation_latency == 0.0

    def test_capacity_enforced(self):
        env = Environment()
        plat = SimPlatform(env, capacity=1024)
        plat.allocate(1024)
        with pytest.raises(PlatformError):
            plat.allocate(1)
