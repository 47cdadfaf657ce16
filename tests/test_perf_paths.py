"""Tests pinning the PR-2 performance fast paths to baseline behavior.

Every optimization here has a slower, simpler twin (uncoalesced link
delivery, ``payload_mode="functional"``, event-object sleeps); these tests
assert the fast paths are *observationally identical* to the twins —
same delivery order, same timestamps, same simulated totals.
"""

import random

import pytest

from repro import units
from repro.bench.harness import accl_collective_time
from repro.cclo.config_mem import CcloConfig
from repro.errors import ConfigurationError, NetworkError
from repro.network import Link, Segment
from repro.sim import Environment, Interrupt
from repro.sim.kernel import SimulationError


def _run_segment_train(coalesce: bool, train, sink_delay: float = 0.0):
    """Drive one link with a (payload, gap) train; returns the arrival
    log ``[(time, payload), ...]`` and the final simulation time."""
    env = Environment()
    link = Link(env, rate=units.gbps(10), latency=units.us(1),
                coalesce=coalesce)
    arrivals = []
    link.connect(lambda seg: arrivals.append((env.now, seg.payload_bytes)),
                 delay=sink_delay)

    def sender():
        for payload, gap in train:
            link.send(Segment(0, 1, payload_bytes=payload))
            if gap > 0.0:
                yield gap

    env.process(sender())
    env.run()
    return arrivals, env.now


class TestLinkCoalescing:
    """The coalesced delivery pump must be indistinguishable from one
    heap entry per segment."""

    @pytest.mark.parametrize("seed", [1, 7, 42, 1234])
    def test_randomized_trains_identical(self, seed):
        rng = random.Random(seed)
        train = []
        for _ in range(rng.randint(40, 120)):
            payload = rng.choice([
                0, 1, 64, rng.randint(1, Link.MAX_SEGMENT_BYTES),
                Link.MAX_SEGMENT_BYTES,
            ])
            # Mix back-to-back bursts (gap 0: the case coalescing targets)
            # with idle gaps long enough to drain the pump in between.
            gap = rng.choice([0.0, 0.0, 0.0, units.us(rng.uniform(0.1, 50))])
            train.append((payload, gap))

        coalesced, end_c = _run_segment_train(True, train)
        uncoalesced, end_u = _run_segment_train(False, train)
        assert coalesced == uncoalesced
        assert end_c == end_u

    def test_back_to_back_burst_single_heap_entry_timing(self):
        # Worked example: 3 segments at 1000 B/s, zero gap.  Wire size is
        # payload + Ethernet header; each serializes after the previous.
        env = Environment()
        link = Link(env, rate=1000.0, latency=0.5, coalesce=True)
        arrivals = []
        link.connect(lambda seg: arrivals.append(env.now))
        from repro.network.packet import ETHERNET_HEADER_BYTES
        payload = 1000 - ETHERNET_HEADER_BYTES
        for _ in range(3):
            link.send(Segment(0, 1, payload_bytes=payload, mtu=4000))
        env.run()
        assert arrivals == [pytest.approx(1.5), pytest.approx(2.5),
                            pytest.approx(3.5)]

    def test_pump_reschedules_after_idle_gap(self):
        train = [(1000, units.us(500)), (1000, 0.0)]
        coalesced, end_c = _run_segment_train(True, train)
        uncoalesced, end_u = _run_segment_train(False, train)
        assert coalesced == uncoalesced
        assert end_c == end_u

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_sink_delay_hands_over_at_arrival_plus_delay(self, coalesce):
        # A switch-bound link charges the forwarding latency: each segment
        # reaches the sink at the float a callback scheduled at arrival
        # with that delay would fire at, in arrival order.
        train = [(4096, 0.0), (64, 0.0), (9000, units.us(3)), (0, 0.0)]
        delay = units.ns(600)
        plain, _ = _run_segment_train(coalesce, train)
        delayed, _ = _run_segment_train(coalesce, train, sink_delay=delay)
        assert delayed == [(t + delay, n) for t, n in plain]

    def test_negative_sink_delay_rejected(self):
        link = Link(Environment())
        with pytest.raises(ValueError):
            link.connect(lambda seg: None, delay=-1.0)


class TestMaxSegmentBoundary:
    def _link(self):
        env = Environment()
        link = Link(env, rate=units.gbps(100), latency=0.0)
        arrivals = []
        link.connect(arrivals.append)
        return env, link, arrivals

    def test_exactly_max_segment_is_legal(self):
        env, link, arrivals = self._link()
        link.send(Segment(0, 1, payload_bytes=Link.MAX_SEGMENT_BYTES))
        env.run()
        assert len(arrivals) == 1
        assert arrivals[0].payload_bytes == Link.MAX_SEGMENT_BYTES

    def test_one_byte_over_max_raises_with_size_and_limit(self):
        env, link, arrivals = self._link()
        oversized = Link.MAX_SEGMENT_BYTES + 1
        with pytest.raises(NetworkError) as exc:
            link.send(Segment(0, 1, payload_bytes=oversized))
        message = str(exc.value)
        assert str(oversized) in message
        assert str(Link.MAX_SEGMENT_BYTES) in message
        assert arrivals == []


class TestRunUntilNow:
    def test_run_until_current_time_returns_immediately(self):
        env = Environment()
        fired = []
        env.schedule_callback(1.0, lambda: fired.append(env.now))
        assert env.run(until=env.now) is None
        assert env.now == 0.0
        assert fired == []  # nothing strictly in the future may run

    def test_run_until_now_after_advancing(self):
        env = Environment()
        env.schedule_callback(2.0, lambda: None)
        env.run(until=2.0)
        assert env.now == 2.0
        env.schedule_callback(1.0, lambda: None)
        assert env.run(until=env.now) is None
        assert env.now == 2.0

    def test_run_until_past_time_still_raises(self):
        env = Environment()
        env.schedule_callback(1.0, lambda: None)
        env.run(until=1.0)
        with pytest.raises(SimulationError):
            env.run(until=0.5)


class TestSleepFastPath:
    """``yield <float>`` sleeps: same semantics as ``yield env.timeout()``."""

    def test_float_yield_advances_time(self):
        env = Environment()
        log = []

        def proc():
            yield 1.5
            log.append(env.now)
            yield 0.25
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1.5, 1.75]

    def test_negative_sleep_rejected(self):
        env = Environment()

        def proc():
            yield -1.0

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_interrupt_during_float_sleep(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield 10.0
                log.append("overslept")
            except Interrupt as exc:
                log.append(("interrupted", env.now, exc.cause))
                yield 1.0
                log.append(("resumed", env.now))

        def interrupter(victim):
            yield 2.0
            victim.interrupt("wake")

        victim = env.process(sleeper())
        env.process(interrupter(victim))
        env.run()
        # The stale wakeup at t=10 must not resume the process a second
        # time: it re-slept for 1s after the interrupt, not 8s.
        assert log == [("interrupted", 2.0, "wake"), ("resumed", 3.0)]
        assert env.now == pytest.approx(10.0)  # stale token still pops

    def test_mixed_float_and_event_yields(self):
        env = Environment()
        log = []

        def proc():
            yield 1.0
            yield env.timeout(1.0)
            yield 1.0
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [3.0]


class TestPayloadModeCounted:
    """``payload_mode="counted"`` elides data materialization but must be
    cycle-identical to the default on the timing side."""

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            CcloConfig(payload_mode="bogus")

    def test_default_is_functional(self):
        assert CcloConfig().payload_mode == "functional"

    @pytest.mark.parametrize("size", [64 * units.KIB, 256 * units.MIB],
                             ids=["fig07-smallest", "fig07-largest"])
    def test_timing_identical_on_fig07_p2p_points(self, size):
        elapsed = {}
        events = {}
        for mode in ("functional", "counted"):
            config = CcloConfig(payload_mode=mode)
            before = Environment.total_events_processed
            elapsed[mode] = _p2p_elapsed(size, n_msgs=2, cclo_config=config)
            events[mode] = Environment.total_events_processed - before
        assert elapsed["counted"] == elapsed["functional"]  # bit-exact
        assert events["counted"] == events["functional"]

    def test_timing_identical_on_collective(self):
        times = {
            mode: accl_collective_time(
                "allreduce", 16 * units.KIB, n_nodes=4,
                cclo_config=CcloConfig(payload_mode=mode))
            for mode in ("functional", "counted")
        }
        assert times["counted"] == times["functional"]


def _p2p_elapsed(size, n_msgs, cclo_config):
    """The fig07 point kernel, parameterized by CCLO config."""
    from repro.cclo.microcontroller import CollectiveArgs
    from repro.cluster import build_fpga_cluster
    from repro.sim import all_of

    cluster = build_fpga_cluster(2, protocol="rdma", platform="coyote",
                                 cclo_config=cclo_config)
    p0, p1 = (cluster.nodes[0].platform, cluster.nodes[1].platform)
    events = []
    for i in range(n_msgs):
        rbuf = p1.allocate(size).view()
        sbuf = p0.allocate(size).view()
        events.append(cluster.engine(1).call(CollectiveArgs(
            opcode="recv", nbytes=size, peer=0, tag=i, rbuf=rbuf)))
        events.append(cluster.engine(0).call(CollectiveArgs(
            opcode="send", nbytes=size, peer=1, tag=i, sbuf=sbuf)))
    start = cluster.env.now
    cluster.env.run(until=all_of(cluster.env, events))
    return cluster.env.now - start
