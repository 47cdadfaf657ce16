"""Unit tests for Resource, BandwidthResource and TokenBucket."""

import pytest

from repro.sim import BandwidthResource, Environment, Resource
from repro.sim.resources import TokenBucket


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def worker(tag, hold):
        yield res.acquire()
        granted.append((tag, env.now))
        yield env.timeout(hold)
        res.release()

    env.process(worker("a", 5))
    env.process(worker("b", 5))
    env.process(worker("c", 1))
    env.run()
    by_tag = dict(granted)
    assert by_tag["a"] == 0
    assert by_tag["b"] == 0
    assert by_tag["c"] == pytest.approx(5)


def test_resource_release_idle_rejected():
    env = Environment()
    res = Resource(env)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)
    res.acquire()
    res.acquire()
    res.acquire()
    assert res.in_use == 1
    assert res.queue_length == 2


def test_bandwidth_transfer_duration():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
    finished = {}

    def proc():
        yield pipe.transfer(200)
        finished["t"] = env.now

    env.process(proc())
    env.run()
    assert finished["t"] == pytest.approx(2.0)


def test_bandwidth_serializes_fifo():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
    finish = {}

    def proc(tag, size):
        yield pipe.transfer(size)
        finish[tag] = env.now

    env.process(proc("a", 100))
    env.process(proc("b", 100))
    env.run()
    assert finish["a"] == pytest.approx(1.0)
    assert finish["b"] == pytest.approx(2.0)  # queued behind "a"


def test_bandwidth_overhead_charged_per_transfer():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0, per_transfer_overhead_s=0.5)
    finish = {}

    def proc():
        yield pipe.transfer(100)
        yield pipe.transfer(100)
        finish["t"] = env.now

    env.process(proc())
    env.run()
    assert finish["t"] == pytest.approx(3.0)  # 2 * (0.5 + 1.0)


def test_bandwidth_idle_gap_not_charged():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
    finish = {}

    def proc():
        yield pipe.transfer(100)
        yield env.timeout(10)
        yield pipe.transfer(100)
        finish["t"] = env.now

    env.process(proc())
    env.run()
    assert finish["t"] == pytest.approx(12.0)


def test_bandwidth_utilization_and_counters():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)

    def proc():
        yield pipe.transfer(100)
        yield env.timeout(1)

    env.process(proc())
    env.run()
    assert pipe.bytes_moved == 100
    assert pipe.utilization() == pytest.approx(0.5)


def test_bandwidth_reserve_matches_transfer_math():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=50.0)
    t1 = pipe.reserve(100)
    t2 = pipe.reserve(50)
    assert t1 == pytest.approx(2.0)
    assert t2 == pytest.approx(3.0)


def test_bandwidth_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthResource(env, rate_bytes_per_s=0)
    pipe = BandwidthResource(env, rate_bytes_per_s=10)
    with pytest.raises(ValueError):
        pipe.transfer(-1)


def test_token_bucket_blocks_when_empty():
    env = Environment()
    bucket = TokenBucket(env, tokens=2)
    times = []

    def taker(tag):
        yield bucket.take()
        times.append((tag, env.now))

    env.process(taker("a"))
    env.process(taker("b"))
    env.process(taker("c"))

    def giver():
        yield env.timeout(5)
        bucket.give()

    env.process(giver())
    env.run()
    by_tag = dict(times)
    assert by_tag["a"] == 0
    assert by_tag["b"] == 0
    assert by_tag["c"] == pytest.approx(5)


def test_token_bucket_never_exceeds_capacity():
    env = Environment()
    bucket = TokenBucket(env, tokens=3)
    bucket.give(10)
    assert bucket.available == 3


def test_token_bucket_fifo_fairness():
    env = Environment()
    bucket = TokenBucket(env, tokens=1)
    bucket.take()
    order = []

    def taker(tag, amount):
        yield bucket.take(amount)
        order.append(tag)

    env.process(taker("wants-one", 1))

    def giver():
        yield env.timeout(1)
        bucket.give(1)

    env.process(giver())
    env.run()
    assert order == ["wants-one"]


def test_token_bucket_oversized_request_rejected():
    env = Environment()
    bucket = TokenBucket(env, tokens=2)
    with pytest.raises(ValueError):
        bucket.take(3)


def test_bandwidth_utilization_windowed_since():
    """Regression: busy time before ``since`` must not inflate the window."""
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)

    def proc():
        yield pipe.transfer(100)   # busy [0, 1]
        yield env.timeout(2)       # idle [1, 3]

    env.process(proc())
    env.run()
    assert pipe.utilization() == pytest.approx(1.0 / 3.0)
    assert pipe.utilization(since=1.0) == 0.0            # fully idle window
    assert pipe.utilization(since=0.5) == pytest.approx(0.5 / 2.5)


def test_bandwidth_utilization_window_spanning_gaps():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)

    def proc():
        yield pipe.transfer(100)   # busy [0, 1]
        yield env.timeout(1)       # idle [1, 2]
        yield pipe.transfer(100)   # busy [2, 3]
        yield env.timeout(1)       # idle [3, 4]

    env.process(proc())
    env.run()
    assert pipe.utilization() == pytest.approx(0.5)
    assert pipe.utilization(since=2.0) == pytest.approx(0.5)
    assert pipe.utilization(since=2.5) == pytest.approx(0.5 / 1.5)
    assert pipe.utilization(since=3.0) == 0.0


def test_bandwidth_utilization_clips_in_flight_transfer():
    """A transfer scheduled beyond *now* only counts up to *now*."""
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)
    measured = {}

    def proc():
        pipe.transfer(200)         # busy [0, 2], still in flight at t=1
        yield env.timeout(1)
        measured["u"] = pipe.utilization()

    env.process(proc())
    env.run()
    assert measured["u"] == pytest.approx(1.0)


def test_bandwidth_back_to_back_transfers_merge_busy_intervals():
    env = Environment()
    pipe = BandwidthResource(env, rate_bytes_per_s=100.0)

    def proc():
        for _ in range(4):
            yield pipe.transfer(100)

    env.process(proc())
    env.run()
    # One merged interval: the flat history holds a single (start, end) pair.
    assert list(pipe._busy) == [0.0, 4.0]
    assert pipe.utilization() == pytest.approx(1.0)


def test_token_bucket_large_head_request_blocks_later_small_ones():
    """FIFO fairness: a small request must not overtake a big queued one."""
    env = Environment()
    bucket = TokenBucket(env, tokens=4, initial=0)
    order = []

    def taker(tag, amount):
        yield bucket.take(amount)
        order.append((tag, env.now))

    env.process(taker("big", 4))
    env.process(taker("small", 1))

    def giver():
        yield env.timeout(1)
        bucket.give(2)   # enough for "small", but "big" heads the queue
        yield env.timeout(1)
        bucket.give(2)   # big (4) proceeds; small still short
        yield env.timeout(1)
        bucket.give(1)   # now small proceeds

    env.process(giver())
    env.run()
    assert order == [("big", pytest.approx(2.0)),
                     ("small", pytest.approx(3.0))]
    assert bucket.available == 0


def test_token_bucket_take_queues_behind_existing_waiters():
    env = Environment()
    bucket = TokenBucket(env, tokens=2, initial=0)
    order = []

    def taker(tag):
        yield bucket.take(2)
        order.append(tag)

    env.process(taker("first"))
    env.process(taker("second"))

    def giver():
        yield env.timeout(1)
        bucket.give(2)
        yield env.timeout(1)
        bucket.give(2)

    env.process(giver())
    env.run()
    assert order == ["first", "second"]


def test_try_acquire_takes_only_a_free_slot():
    env = Environment()
    res = Resource(env, capacity=1)
    assert res.try_acquire()
    assert res.in_use == 1
    assert not res.try_acquire()
    waiter = res.acquire()
    res.release()  # hands the slot to the waiter, not back to the pool
    assert waiter.triggered and res.in_use == 1


def test_try_take_grants_only_what_take_grants_at_once():
    env = Environment()
    bucket = TokenBucket(env, 10)
    assert bucket.try_take(6)
    assert bucket.available == 4
    assert not bucket.try_take(5)
    assert bucket.available == 4
    queued = bucket.take(5)
    # Enough for a small request, but a waiter is queued ahead of it.
    assert not bucket.try_take(1)
    bucket.give(6)
    assert queued.triggered
    assert bucket.try_take(1)
    assert not bucket.try_take(11)  # beyond capacity: take() raises
