"""Unit tests for memory models and the PCIe link."""

import pytest

from repro import units
from repro.errors import ConfigurationError, PlatformError
from repro.memory import Memory, PcieLink, bram, fpga_ddr, hbm_stack, host_dram
from repro.sim import Environment


class TestAllocator:
    def test_allocate_and_free(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=1e9)
        a = mem.allocate(400)
        b = mem.allocate(600)
        assert mem.free_bytes == 0
        mem.free(a)
        assert mem.free_bytes == 400
        mem.free(b)
        assert mem.free_bytes == 1000

    def test_allocated_bytes_tracks_live_allocations(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=1e9)
        allocs = [mem.allocate(n) for n in (100, 250, 50)]
        assert mem.allocated_bytes == 400
        mem.free(allocs[1])
        assert mem.allocated_bytes == 150
        allocs.append(mem.allocate(700))
        assert mem.allocated_bytes == 850
        for a in (allocs[0], allocs[2], allocs[3]):
            mem.free(a)
        assert mem.allocated_bytes == 0
        assert mem.free_bytes == 1000

    def test_exhaustion_raises(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9, name="tiny")
        mem.allocate(80)
        with pytest.raises(PlatformError, match="out of memory"):
            mem.allocate(21)

    def test_double_free_raises(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9)
        a = mem.allocate(10)
        mem.free(a)
        with pytest.raises(PlatformError):
            mem.free(a)

    def test_zero_alloc_rejected(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9)
        with pytest.raises(ConfigurationError):
            mem.allocate(0)

    def test_capacity_reusable_after_free(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9)
        for _ in range(10):
            a = mem.allocate(90)
            mem.free(a)
        assert mem.free_bytes == 100

    def test_allocation_end(self):
        env = Environment()
        mem = Memory(env, capacity=100, bandwidth=1e9)
        a = mem.allocate(30)
        assert a.end == a.offset + 30


class TestMemoryTiming:
    def test_read_duration(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=100.0, access_latency=0.25)
        t = {}

        def proc():
            yield mem.read(100)
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(1.25)

    def test_port_shared_between_read_and_write(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=100.0)
        t = {}

        def proc():
            ra = mem.read(100)
            wb = mem.write(100)
            yield ra
            yield wb
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(2.0)

    def test_access_time_analytic(self):
        env = Environment()
        mem = Memory(env, capacity=1000, bandwidth=100.0, access_latency=0.5)
        assert mem.access_time(100) == pytest.approx(1.5)

    def test_factory_capacities(self):
        env = Environment()
        assert hbm_stack(env).capacity == 16 * units.GIB
        assert fpga_ddr(env).capacity == 16 * units.GIB
        assert host_dram(env).capacity == 256 * units.GIB
        assert bram(env).capacity == 8 * units.MIB

    def test_bad_capacity_rejected(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            Memory(env, capacity=0, bandwidth=1e9)


class TestPcie:
    def test_dma_duration(self):
        env = Environment()
        pcie = PcieLink(env, bandwidth=1e9, dma_latency=0.001)
        t = {}

        def proc():
            yield pcie.dma_h2d(int(1e9))
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(1.001)

    def test_directions_are_independent(self):
        env = Environment()
        pcie = PcieLink(env, bandwidth=100.0, dma_latency=0.0)
        t = {}

        def proc():
            a = pcie.dma_h2d(100)
            b = pcie.dma_d2h(100)
            yield a
            yield b
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(1.0)  # full duplex

    def test_same_direction_serializes(self):
        env = Environment()
        pcie = PcieLink(env, bandwidth=100.0, dma_latency=0.0)
        t = {}

        def proc():
            a = pcie.dma_h2d(100)
            b = pcie.dma_h2d(100)
            yield a
            yield b
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(2.0)

    def test_counters(self):
        env = Environment()
        pcie = PcieLink(env)
        pcie.dma_h2d(100)
        pcie.dma_d2h(50)
        env.run()
        assert pcie.bytes_h2d == 100
        assert pcie.bytes_d2h == 50

    def test_negative_dma_rejected(self):
        env = Environment()
        pcie = PcieLink(env)
        with pytest.raises(ValueError):
            pcie.dma_h2d(-1)

    def test_mmio_roundtrip_cost(self):
        env = Environment()
        pcie = PcieLink(env, mmio_latency=units.us(0.9))
        t = {}

        def proc():
            yield pcie.mmio_write()
            yield pcie.mmio_read()
            t["done"] = env.now

        env.process(proc())
        env.run()
        assert t["done"] == pytest.approx(units.us(1.8))

    def test_dma_time_analytic(self):
        env = Environment()
        pcie = PcieLink(env, bandwidth=1e9, dma_latency=0.5)
        assert pcie.dma_time(int(1e9)) == pytest.approx(1.5)
