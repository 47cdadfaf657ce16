"""Busy history of :class:`BandwidthResource`: values and memory.

The pipe keeps its merged occupancy intervals as one flat ``array('d')``.
These tests pin that layout against an independent list-of-pairs model
that applies the same merge rule and sums utilization newest first, so
every ``utilization(since)`` value must match it exactly, and against a
brute-force union of the reserved intervals, which must match it up to
rounding.  The regression tests check that the history keeps no
garbage-collected object per idle gap.
"""

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.bench.harness import _buffers_for, scale_topology_factory
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.platform.base import BufferLocation
from repro.sim import BandwidthResource, Environment, all_of


class ListHistory:
    """Reference model: merged ``[start, end]`` lists, one per idle gap."""

    def __init__(self):
        self.intervals = []

    def record(self, start, finish):
        if self.intervals and start <= self.intervals[-1][1]:
            last = self.intervals[-1]
            last[1] = max(last[1], finish)
        else:
            self.intervals.append([start, finish])

    def utilization(self, since, now):
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        busy = 0.0
        for start, end in reversed(self.intervals):
            if end <= since:
                break
            busy += max(0.0, min(end, now) - max(start, since))
        return min(1.0, busy / elapsed)


def union_utilization(spans, since, now):
    """Brute-force oracle: measure of the union of *spans* in the window."""
    elapsed = now - since
    if elapsed <= 0:
        return 0.0
    clipped = sorted((max(s, since), min(e, now)) for s, e in spans)
    busy = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                busy += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        busy += cur_e - cur_s
    return min(1.0, busy / elapsed)


# One reservation: gapped (idle time, then reserve), back to back (reserve
# at once), or overlapping the newest busy interval (reserve_at / occupy
# from a point inside it, as the flow paths lay slots into a train).
_op = st.one_of(
    st.tuples(st.just("gap"), st.floats(1e-9, 1e-5),
              st.integers(0, 10_000)),
    st.tuples(st.just("b2b"), st.integers(0, 10_000)),
    st.tuples(st.just("reserve_at"), st.floats(0.0, 1.0),
              st.integers(0, 10_000)),
    st.tuples(st.just("occupy"), st.floats(0.0, 1.0),
              st.floats(0.0, 1e-5), st.integers(0, 10_000)),
)


class TestFlatHistory:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(_op, min_size=1, max_size=60),
           sinces=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=8))
    def test_utilization_matches_list_model_and_union(self, ops, sinces):
        env = Environment()
        pipe = BandwidthResource(env, rate_bytes_per_s=1e9,
                                 per_transfer_overhead_s=5e-9)
        ref = ListHistory()
        spans = []
        for op in ops:
            kind = op[0]
            if kind in ("gap", "b2b"):
                if kind == "gap":
                    env.run(until=env.now + op[1])
                start = max(pipe.busy_until(), env.now)
                finish = pipe.reserve(op[-1])
            else:
                if ref.intervals:
                    first, last = ref.intervals[-1]
                    start = first + op[1] * (last - first)
                else:
                    start = env.now
                if kind == "reserve_at":
                    finish = pipe.reserve_at(start, op[2])
                else:
                    finish = start + op[2]
                    pipe.occupy(start, finish, op[2], op[3])
            ref.record(start, finish)
            spans.append((start, finish))
        env.run(until=max(pipe.busy_until(), env.now) * 1.1 + 1e-9)
        now = env.now

        assert [list(p) for p in zip(pipe._busy[0::2], pipe._busy[1::2])] \
            == ref.intervals
        for frac in sinces + [0.0]:
            since = frac * now
            got = pipe.utilization(since)
            assert got == ref.utilization(since, now)
            assert got == pytest.approx(union_utilization(spans, since, now),
                                        rel=1e-9, abs=1e-12)


class TestNoGarbagePerGap:
    def test_gapped_reservations_allocate_no_tracked_objects(self):
        env = Environment()
        pipe = BandwidthResource(env, rate_bytes_per_s=1e9)

        def sender():
            for _ in range(10_000):
                pipe.reserve(100)
                yield 1e-6   # idle gap: every reservation opens an interval

        gc.collect()
        before = len(gc.get_objects())
        env.process(sender())
        env.run()
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert grown < 10
        assert len(pipe._busy) == 2 * 10_000

    @staticmethod
    def _ring_growth(size):
        cluster = build_fpga_cluster(
            8, topology_factory=scale_topology_factory("fattree", 8),
            peering="lazy")
        bufs = [_buffers_for(cluster, "allreduce", size, r, 0,
                             BufferLocation.DEVICE)
                for r in range(cluster.size)]
        gc.collect()
        before = len(gc.get_objects())
        events = cluster.call_on_all(lambda r: CollectiveArgs(
            opcode="allreduce", comm_id=0, nbytes=size, root=0, tag=1 << 20,
            sbuf=bufs[r][0], rbuf=bufs[r][1], protocol="rndz",
            algorithm="ring"))
        cluster.env.run(until=all_of(cluster.env, events))
        del events
        gc.collect()
        return len(gc.get_objects()) - before

    def test_ring_allreduce_tracked_objects_do_not_scale_with_size(self):
        """Four times the bytes means several times the idle gaps on every
        link; the objects a run leaves behind must not follow."""
        small = self._ring_growth(256 * units.KIB)
        large = self._ring_growth(units.MIB)
        assert large <= small + 100
