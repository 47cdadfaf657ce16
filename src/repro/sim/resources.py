"""Shared-resource models: counted resources and serializing byte-pipes.

:class:`BandwidthResource` is the workhorse of the timing model.  Links,
memory ports and PCIe lanes are all byte-pipes: a transfer of *n* bytes
occupies the pipe for ``n / rate`` seconds, transfers are serialized FIFO,
and an optional per-transfer overhead models fixed command/packet costs.
Occupancy is tracked analytically (a "free-at" watermark) so that a transfer
costs O(1) events regardless of its size.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Optional

from repro.sim.kernel import Environment, Event

#: cached last busy end of a pipe with no busy history yet
_NO_BUSY = float("-inf")


class Resource:
    """A counted resource with FIFO queueing (e.g. DMA engines, QP slots)."""

    __slots__ = ("env", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Event that succeeds when a slot is granted.  Pair with release()."""
        ev = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a free slot now, without an event; False when none is free
        (the caller then waits on :meth:`acquire`).  Pair with release()."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use is unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1

    def __repr__(self) -> str:
        return f"<Resource {self.name!r} {self._in_use}/{self.capacity}>"


class BandwidthResource:
    """A FIFO byte-pipe with fixed rate and optional per-transfer overhead.

    ``transfer(nbytes)`` returns an event that succeeds when the last byte
    has left the pipe.  Back-to-back transfers queue behind each other, so
    sustained throughput can never exceed ``rate`` and small transfers pay
    ``per_transfer_overhead`` each — exactly the behaviour that produces the
    classic throughput-vs-message-size ramp of Figure 7.
    """

    __slots__ = ("env", "rate", "overhead", "name", "_free_at", "_busy_time",
                 "_bytes_moved", "_busy", "_busy_end")

    def __init__(
        self,
        env: Environment,
        rate_bytes_per_s: float,
        per_transfer_overhead_s: float = 0.0,
        name: str = "pipe",
    ):
        if rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_s}")
        if per_transfer_overhead_s < 0:
            raise ValueError("overhead must be non-negative")
        self.env = env
        self.rate = float(rate_bytes_per_s)
        self.overhead = float(per_transfer_overhead_s)
        self.name = name
        self._free_at = 0.0
        self._busy_time = 0.0
        self._bytes_moved = 0
        # Busy time in timestamped form: merged, non-overlapping occupancy
        # intervals sorted by start (and so by end), stored flat as
        # ``start0, end0, start1, end1, ...`` C doubles.  Back-to-back
        # transfers extend the last interval, so the array only grows at
        # idle gaps — by 16 bytes, never by a garbage-collected object.
        # ``_busy_end`` caches the last end (``-inf`` while empty).
        self._busy = array("d")
        self._busy_end = _NO_BUSY

    @property
    def bytes_moved(self) -> int:
        return self._bytes_moved

    def _record_busy(self, start: float, finish: float) -> None:
        if start <= self._busy_end:
            if finish > self._busy_end:
                self._busy[-1] = self._busy_end = finish
        else:
            self._busy.append(start)
            self._busy.append(finish)
            self._busy_end = finish

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of wall time the pipe was busy in ``[since, now]``.

        Occupancy scheduled beyond *now* (a transfer still in flight) is
        clipped to the window, so the result is exact for any ``since``.
        """
        now = self.env.now
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        busy = self._busy
        # Ends ascend, so bisect for the first interval ending after
        # *since*; only intervals from there on overlap the window.
        lo, hi = 0, len(busy) // 2
        while lo < hi:
            mid = (lo + hi) // 2
            if busy[2 * mid + 1] <= since:
                lo = mid + 1
            else:
                hi = mid
        tail = busy[2 * lo:]
        total = 0.0
        # Newest first: the summation order fixes the float result.
        for start, end in zip(tail[-2::-2], tail[::-2]):
            total += max(0.0, min(end, now) - max(start, since))
        return min(1.0, total / elapsed)

    def busy_until(self) -> float:
        """Simulation time at which the pipe becomes idle."""
        return max(self._free_at, self.env.now)

    def occupancy_delay(self, nbytes: int) -> float:
        """Time from *now* until a transfer of *nbytes* would finish."""
        start = max(self._free_at, self.env.now)
        return (start - self.env.now) + self.overhead + nbytes / self.rate

    def transfer(self, nbytes: int) -> Event:
        """Occupy the pipe for *nbytes*; event succeeds at completion time."""
        finish = self.reserve(nbytes)
        return self.env.timeout(finish - self.env._now, value=nbytes)

    def reserve(self, nbytes: int) -> float:
        """Like :meth:`transfer` but returns the completion *time* without an
        event — for components that aggregate several pipe stages analytically.

        This is the hottest non-kernel function in a sweep (every segment on
        every link lands here), so the busy-interval merge is inlined.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        now = self.env._now
        free_at = self._free_at
        start = free_at if free_at > now else now
        duration = self.overhead + nbytes / self.rate
        finish = start + duration
        self._free_at = finish
        self._busy_time += duration
        self._bytes_moved += nbytes
        busy_end = self._busy_end
        if start <= busy_end:
            if finish > busy_end:
                self._busy[-1] = self._busy_end = finish
            return finish
        busy = self._busy
        busy.append(start)
        busy.append(finish)
        self._busy_end = finish
        return finish

    def reserve_at(self, start: float, nbytes: int) -> float:
        """Occupy the pipe with *nbytes* from *start*, outside the FIFO.

        For a transfer whose slot the caller found inside occupancy laid
        down earlier (a control segment slotted into an analytic train):
        busy time, bytes and the busy interval are charged as
        :meth:`reserve` charges them, but the ``free_at`` watermark stays
        where the earlier reservation put it.  Returns the completion time.
        """
        duration = self.overhead + nbytes / self.rate
        finish = start + duration
        self._busy_time += duration
        self._bytes_moved += nbytes
        self._record_busy(start, finish)
        return finish

    def occupy(self, start: float, finish: float, busy: float,
               nbytes: int) -> None:
        """Charge an occupancy the caller computed in closed form.

        Flow-fidelity bursts lay a whole segment train at once: the pipe
        is busy over ``[start, finish]`` (merged into the busy history),
        *busy* seconds of serialization and *nbytes* bytes are added to
        the counters, and ``free_at`` advances to *finish* if that is later.
        """
        if finish > self._free_at:
            self._free_at = finish
        self._busy_time += busy
        self._bytes_moved += nbytes
        self._record_busy(start, finish)

    def register_metrics(self, registry, name: Optional[str] = None,
                         **labels) -> None:
        """Expose pipe throughput and utilization as callback gauges.

        Reading a gauge samples the live pipe; :meth:`reserve` — the
        hottest function in a sweep — is not touched.
        """
        base = name or self.name
        registry.gauge(f"{base}_bytes_moved",
                       fn=lambda: float(self._bytes_moved), **labels)
        registry.gauge(f"{base}_utilization",
                       fn=lambda: self.utilization(), **labels)

    def __repr__(self) -> str:
        gbps = self.rate * 8 / 1e9
        return f"<BandwidthResource {self.name!r} {gbps:.1f} Gb/s>"


class TokenBucket:
    """Credit-based flow control (RDMA-style tokens).

    The paper notes RDMA's token-based flow control makes it well-suited to
    the sophisticated rendezvous algorithms; TCP's window plays a similar
    role.  This primitive backs both.
    """

    __slots__ = ("env", "capacity", "name", "_available", "_waiters")

    def __init__(self, env: Environment, tokens: int, name: str = "tokens",
                 initial: Optional[int] = None):
        if tokens < 1:
            raise ValueError("token count must be >= 1")
        self.env = env
        self.capacity = tokens
        self.name = name
        self._available = tokens if initial is None else initial
        self._waiters: Deque[tuple] = deque()  # (event, amount)

    @property
    def available(self) -> int:
        return self._available

    def take(self, amount: int = 1) -> Event:
        if amount > self.capacity:
            raise ValueError(
                f"requested {amount} tokens, bucket holds only {self.capacity}"
            )
        ev = Event(self.env)
        if self._available >= amount and not self._waiters:
            self._available -= amount
            ev.succeed(amount)
        else:
            self._waiters.append((ev, amount))
        return ev

    def try_take(self, amount: int) -> bool:
        """Take *amount* tokens now, without an event, when :meth:`take`
        would grant them at once (enough available, nobody queued); False
        otherwise, and the caller waits on :meth:`take` instead."""
        if self._available >= amount and not self._waiters:
            self._available -= amount
            return True
        return False

    def give(self, amount: int = 1) -> None:
        self._available = min(self.capacity, self._available + amount)
        while self._waiters and self._waiters[0][1] <= self._available:
            ev, amt = self._waiters.popleft()
            self._available -= amt
            ev.succeed(amt)

    def register_metrics(self, registry, name: Optional[str] = None,
                         **labels) -> None:
        """Expose credit occupancy as callback gauges."""
        base = name or self.name
        registry.gauge(f"{base}_available",
                       fn=lambda: float(self._available), **labels)
        registry.gauge(f"{base}_waiters",
                       fn=lambda: float(len(self._waiters)), **labels)
