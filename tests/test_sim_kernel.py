"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    all_of,
    any_of,
)


def test_time_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_time():
    env = Environment()
    done = {}

    def proc():
        yield env.timeout(1.5)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == pytest.approx(1.5)


def test_timeout_carries_value():
    env = Environment()
    result = {}

    def proc():
        result["v"] = yield env.timeout(1.0, value="payload")

    env.process(proc())
    env.run()
    assert result["v"] == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(3, "c"))
    env.process(proc(1, "a"))
    env.process(proc(2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(2)
        return "child-result"

    def parent():
        value = yield env.process(child())
        return value, env.now

    p = env.process(parent())
    value, t = env.run(until=p)
    assert value == "child-result"
    assert t == pytest.approx(2)


def test_event_manual_trigger():
    env = Environment()
    gate = env.event()
    seen = {}

    def waiter():
        seen["v"] = yield gate

    def opener():
        yield env.timeout(5)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert seen["v"] == "open"


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = {}

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught["exc"] = exc

    env.process(waiter())
    gate.fail(RuntimeError("boom"))
    env.run()
    assert str(caught["exc"]) == "boom"


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("firmware fault")

    env.process(bad())
    with pytest.raises(ValueError, match="firmware fault"):
        env.run()


def test_run_until_time():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=3.5)
    assert ticks == [1, 2, 3]
    assert env.now == pytest.approx(3.5)


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_yield_non_event_rejected():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_interrupt_wakes_process():
    env = Environment()
    seen = {}

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            seen["cause"] = intr.cause
            seen["time"] = env.now

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(2)
        p.interrupt(cause="retransmit-timer")

    env.process(interrupter())
    env.run()
    assert seen["cause"] == "retransmit-timer"
    assert seen["time"] == pytest.approx(2)


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_all_of_waits_for_every_event():
    env = Environment()
    times = {}

    def waiter():
        evs = [env.timeout(1), env.timeout(5), env.timeout(3)]
        yield all_of(env, evs)
        times["done"] = env.now

    env.process(waiter())
    env.run()
    assert times["done"] == pytest.approx(5)


def test_any_of_returns_at_first_event():
    env = Environment()
    times = {}

    def waiter():
        evs = [env.timeout(4), env.timeout(2)]
        yield any_of(env, evs)
        times["done"] = env.now

    env.process(waiter())
    env.run()
    assert times["done"] == pytest.approx(2)


def test_all_of_empty_is_immediate():
    env = Environment()
    times = {}

    def waiter():
        yield all_of(env, [])
        times["done"] = env.now

    env.process(waiter())
    env.run()
    assert times["done"] == 0.0


def test_schedule_callback():
    env = Environment()
    fired = []
    env.schedule_callback(2.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [2.0]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == pytest.approx(7)


def test_peek_empty_heap_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_yielding_already_processed_event_resumes_immediately():
    env = Environment()
    trace = []

    def proc():
        t = env.timeout(1)
        yield env.timeout(2)  # t is processed by the time we yield it
        yield t
        trace.append(env.now)

    env.process(proc())
    env.run()
    assert trace == [2]


def test_many_processes_scale():
    env = Environment()
    counter = []

    def proc(i):
        yield env.timeout(i % 10)
        counter.append(i)

    for i in range(1000):
        env.process(proc(i))
    env.run()
    assert len(counter) == 1000


# ---------------------------------------------------------------------------
# edge cases: interrupt timing, failed condition children, instrumentation
# ---------------------------------------------------------------------------

def test_interrupt_process_whose_target_triggered_but_not_processed():
    """Interrupt racing the target event at the same timestamp.

    The interrupter's timeout pops first, so at interrupt time the waiter's
    own timeout has *triggered* (it sits in the heap) but its callbacks
    have not run.  The interrupt must still win: the waiter sees the
    Interrupt, never the timeout completion.
    """
    env = Environment()
    log = []
    holder = {}

    def interrupter():
        yield env.timeout(1.0)
        target = holder["p"]._target
        assert target.triggered and not target.processed
        holder["p"].interrupt("late")

    env.process(interrupter())  # started first => pops first at t=1.0

    def waiter():
        try:
            yield env.timeout(1.0)
            log.append("completed")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))

    holder["p"] = env.process(waiter())
    env.run()
    assert log == [("interrupted", "late")]


def test_interrupted_process_can_keep_running():
    env = Environment()
    log = []

    def waiter():
        try:
            yield env.timeout(10.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)  # life goes on after the interrupt
        log.append(env.now)

    p = env.process(waiter())

    def interrupter():
        yield env.timeout(2.0)
        p.interrupt()

    env.process(interrupter())
    env.run()
    assert log == [pytest.approx(3.0)]


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


@pytest.mark.parametrize("combinator", [any_of, all_of])
def test_condition_with_already_failed_child_raises_in_waiter(combinator):
    env = Environment()
    bad = Event(env)
    bad.fail(RuntimeError("boom"))
    bad.defuse()
    good = env.timeout(1.0)
    outcome = []

    def watcher():
        try:
            yield combinator(env, [bad, good])
            outcome.append("ok")
        except RuntimeError as exc:
            outcome.append(str(exc))

    env.process(watcher())
    env.run()
    assert outcome == ["boom"]


def test_all_of_failed_child_does_not_wait_for_siblings():
    env = Environment()
    bad = Event(env)
    bad.fail(RuntimeError("early"))
    bad.defuse()
    slow = env.timeout(100.0)
    seen = {}

    def watcher():
        try:
            yield all_of(env, [slow, bad])
        except RuntimeError:
            seen["at"] = env.now

    env.process(watcher())
    env.run()
    assert seen["at"] == pytest.approx(0.0)


def test_environment_instrumentation_counters_advance():
    events0 = Environment.total_events_processed
    sim0 = Environment.total_sim_time
    env = Environment()

    def proc():
        yield env.timeout(2.5)
        yield env.timeout(1.5)

    env.process(proc())
    env.run()
    assert Environment.total_events_processed - events0 >= 3
    assert Environment.total_sim_time - sim0 == pytest.approx(4.0)


def test_delayed_process_start_matches_leading_sleep():
    # process(gen, delay=d) starts where "yield d" at the top of the body
    # would have resumed it, at the same float, in creation order.
    def run(delayed):
        env = Environment()
        env.run(until=0.1)
        started = []

        def body(tag):
            started.append((tag, env.now))
            yield env.timeout(0.0)

        def sleeper(tag, d):
            yield d
            yield from body(tag)

        for tag, d in (("a", 3e-7), ("b", 1e-7), ("c", 3e-7)):
            if delayed:
                env.process(body(tag), delay=d)
            else:
                env.process(sleeper(tag, d))
        env.run()
        return started

    assert run(True) == run(False)
    assert [tag for tag, _ in run(True)] == ["b", "a", "c"]


def test_negative_process_delay_rejected():
    env = Environment()

    def body():
        yield env.timeout(1.0)

    with pytest.raises(ValueError):
        env.process(body(), delay=-1.0)
