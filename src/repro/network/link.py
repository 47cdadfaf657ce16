"""Point-to-point link: serialization + propagation.

A :class:`Link` is unidirectional; duplex connections are two links.  The
transmitter serializes segments at the link rate (FIFO — this is where egress
contention and in-cast congestion appear) and the receiver sees the segment
after an additional fixed propagation/PHY latency.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.errors import NetworkError
from repro.sim import BandwidthResource, Environment
from repro.network.fidelity import LINK_FLOW_DECISIONS
from repro.network.packet import Burst, Segment
from repro import units


class Link:
    """Unidirectional serializing link.

    Args:
        env: simulation environment.
        rate: bytes/second (default 100 Gb/s).
        latency: propagation + PHY/MAC latency in seconds.
        name: for tracing.
    """

    #: Largest segment a link accepts.  The fabric is store-and-forward at
    #: segment granularity, so bounding segments bounds the per-hop
    #: pipelining error; protocol engines segment larger messages.
    MAX_SEGMENT_BYTES = 256 * units.KIB

    # Large fabrics build thousands of links; a fixed attribute layout
    # drops the per-instance __dict__.
    __slots__ = (
        "env", "rate", "latency", "name", "coalesce", "_pipe", "_sink",
        "_sink_delay", "_burst_sink", "_burst_at_tail", "_last_owner",
        "_train", "_train_prev", "_train_tail", "_intr_free", "_convoy",
        "_convoy_token", "_relay", "segments_carried", "_in_flight",
        "_pump_scheduled", "_span_tracer", "flow_decisions",
    )

    def __init__(
        self,
        env: Environment,
        rate: float = units.gbps(100),
        latency: float = units.ns(500),
        name: str = "link",
        coalesce: bool = True,
    ):
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self.env = env
        self.rate = rate
        self.latency = latency
        self.name = name
        self.coalesce = coalesce
        self._pipe = BandwidthResource(env, rate, name=f"{name}.pipe")
        self._sink: Optional[Callable[[Segment], None]] = None
        self._sink_delay = 0.0
        self._burst_sink: Optional[Callable[[Burst], None]] = None
        self._burst_at_tail = False
        # Message descriptor (segment/burst ``meta``) of the traffic that
        # last occupied the serializer.  A busy serializer normally forces
        # burst expansion, but when the only occupancy ahead is this same
        # message's own tail (a sub-burst train), FIFO continuation is
        # exact and the analytic path stays valid.
        self._last_owner: Any = None
        # Timing grid of the analytic train(s) currently occupying the
        # serializer — (f_head, step, f_pen, start_last, f_last) — kept so
        # single-frame control segments can be slotted into inter-segment
        # gaps exactly where packet-level FIFO would have put them.  The
        # previous window survives one generation because a continuation
        # sub-burst is admitted while its predecessor is still draining.
        self._train: Optional[Tuple[float, float, float, float, float]] = None
        self._train_prev: Optional[Tuple[float, float, float, float,
                                         float]] = None
        self._train_tail = -1.0
        self._intr_free = 0.0
        # First-hop convoy state (symmetric concurrent bulk messages):
        # {token, share, origin, dur, members: {id(header): phase},
        #  bursts: {id(header): Burst}, tail}.
        # Each member's segments occupy a rigid round-robin slot grid —
        # segment s of the member at *phase* serializes over
        # [origin + (s*share + phase)*dur, +dur] — which is exactly the
        # interleaving packet FIFO produces when `share` equal senders
        # start together and pace to their own egress instants.
        self._convoy: Optional[dict] = None
        # Convoy token of the sibling trains most recently carried through
        # this (downstream) hop; their slot grids are disjoint by
        # construction, so a busy serializer is no reason to expand them.
        self._convoy_token: Any = None
        # Most recent message-opening single burst and its serialization
        # start: the convoy-formation candidate.  Senders rarely start at
        # the same instant — command queues stagger them by ~1 us — so the
        # first sender lays a solid train before its siblings exist.  While
        # nothing of that train has been delivered downstream it can still
        # be re-spaced onto a convoy grid, exactly as packet FIFO would
        # have interleaved the late arrivals.
        self._relay: Optional[Tuple[Burst, float]] = None
        self.segments_carried = 0
        # Delivery pump state (coalesced path): in-flight segments with their
        # delivery times.  The pipe is FIFO and the latency constant, so
        # delivery times are strictly increasing within one link and a single
        # self-rescheduling heap entry can drain the queue in order.
        self._in_flight: Deque[Tuple[float, Segment]] = deque()
        self._pump_scheduled = False
        # Span tracing (None = disabled): bound via bind_tracer.
        self._span_tracer = None
        #: per-reason flow-fidelity decision counts (see
        #: :data:`repro.network.fidelity.LINK_FLOW_DECISIONS`); stays empty
        #: in packet mode, where no bursts reach this link.
        self.flow_decisions: dict = {}

    def _flow_decision(self, kind: str, burst: Optional[Burst] = None) -> None:
        """Count one flow-path decision; under a tracer also drop a
        zero-duration ``phase="fidelity"`` marker span (record-only:
        attribution ignores the phase, the decision log renders it)."""
        d = self.flow_decisions
        d[kind] = d.get(kind, 0) + 1
        tracer = self._span_tracer
        if tracer is not None and burst is not None:
            op = burst.op_id
            if op >= 0:
                now = self.env._now
                tracer.span_complete(
                    self.name, f"flow:{kind}", now, now, phase="fidelity",
                    op_id=op, reason=kind, segments=burst.n_segments,
                    nbytes=burst.payload_bytes)

    def bind_tracer(self, span_tracer) -> None:
        """Record queueing delay behind this link as ``wait:link_busy``
        spans (record-only; ``None`` deactivates)."""
        self._span_tracer = span_tracer

    def connect(self, sink: Callable[[Segment], None],
                delay: float = 0.0) -> None:
        """Attach the receiving side; exactly one sink per link.

        ``delay`` hands each segment to *sink* that long after it arrives:
        a switch's fixed forwarding latency is charged here, by the feeding
        link's delivery, instead of by a callback of its own per segment.
        The delivery fires at ``arrival + delay`` — the same float the
        switch's ``schedule_callback(delay, ...)`` at arrival produced —
        and, the delay being one constant per sink, the segments reach the
        sink in their arrival order.
        """
        if self._sink is not None:
            raise NetworkError(f"link {self.name!r} already has a sink")
        if delay < 0:
            raise ValueError(f"negative sink delay: {delay}")
        self._sink = sink
        self._sink_delay = delay

    def connect_burst(self, sink: Callable[[Burst], None],
                      at_tail: bool = False) -> None:
        """Attach the receiver of fast-forwarded bursts (flow fidelity).

        ``at_tail=False`` (switch hops) hands the burst over when its *head*
        segment arrives, so the next hop admits or expands it at the same
        instant the packet-level first segment would have shown up.
        ``at_tail=True`` (the terminal downlink) delivers at the *last*
        segment's arrival — the moment packet-level reassembly would have
        completed — saving the extra head-to-tail callback.
        """
        if self._burst_sink is not None:
            raise NetworkError(f"link {self.name!r} already has a burst sink")
        self._burst_sink = sink
        self._burst_at_tail = at_tail

    def can_fast_forward(self, owner: Any = None) -> bool:
        """True when a burst submitted *now* would take the analytic path:
        a burst-aware sink is wired and the serializer is idle — or busy
        only with *owner*'s own earlier sub-bursts (queued contenders force
        packet-level fidelity)."""
        if self._burst_sink is None:
            return False
        if self._pipe._free_at <= self.env._now or (
                owner is not None and self._last_owner is owner):
            return True
        convoy = self._convoy
        return (convoy is not None and self.env._now < convoy["tail"]
                and (id(owner) in convoy["members"]
                     or len(convoy["members"]) < convoy["share"]))

    @property
    def bytes_carried(self) -> int:
        return self._pipe.bytes_moved

    def utilization(self, since: float = 0.0) -> float:
        return self._pipe.utilization(since)

    def send(self, segment: Segment) -> float:
        """Enqueue *segment* for transmission.

        Returns the simulation time at which the last byte leaves the
        transmitter (useful for senders that pace subsequent segments).
        Delivery to the sink happens ``latency`` (plus the sink's
        ``connect`` delay) later.
        """
        if self._sink is None:
            raise NetworkError(f"link {self.name!r} has no sink connected")
        if segment.payload_bytes > self.MAX_SEGMENT_BYTES:
            raise NetworkError(
                f"segment of {segment.payload_bytes}B exceeds the "
                f"{self.MAX_SEGMENT_BYTES}B link segment bound; "
                "protocol engines must segment large messages"
            )
        env = self.env
        pipe = self._pipe
        egress_done = -1.0
        if (self._train is not None and segment.n_frames == 1
                and pipe._free_at > env._now
                and pipe._free_at == self._train_tail):
            egress_done = self._interleave(segment)
        if egress_done < 0.0:
            tracer = self._span_tracer
            if tracer is not None:
                queued_until = pipe.busy_until()
                if queued_until > env.now:
                    # The serializer is still busy with earlier traffic: the
                    # segment queues.  Attribute the head-of-line delay to
                    # the owning collective (ack/credit segments carry no op
                    # id).
                    meta = getattr(segment.meta, "meta", None)
                    op = getattr(meta, "op_id", -1)
                    if op >= 0:
                        tracer.span_complete(
                            self.name, "wait:link_busy", env.now,
                            queued_until, phase="wait", op_id=op,
                            cause="link_busy", nbytes=segment.wire_bytes)
            egress_done = pipe.reserve(segment.wire_bytes)
            self._last_owner = segment.meta
        self.segments_carried += 1
        # The fire time reproduces the relative path's float rounding
        # (now + (deliver_at - now)) bit-for-bit, then adds the sink's
        # constant delay exactly as a callback scheduled at arrival would.
        now = env._now
        fire_at = now + (egress_done + self.latency - now) + self._sink_delay
        if self.coalesce:
            # A back-to-back segment train keeps one heap entry alive instead
            # of one per segment: the pump delivers each segment at its exact
            # reserved time, so timing and per-link order are unchanged.
            self._in_flight.append((fire_at, segment))
            if not self._pump_scheduled:
                self._pump_scheduled = True
                env.schedule_callback_at(fire_at, self._pump)
        else:
            env.schedule_callback_at(fire_at, self._sink, segment)
        return egress_done

    def _pump(self) -> None:
        in_flight = self._in_flight
        _deliver_at, segment = in_flight.popleft()
        self._sink(segment)
        if in_flight:
            self.env.schedule_callback_at(in_flight[0][0], self._pump)
        else:
            self._pump_scheduled = False

    def _train_boundary(self, t: float) -> float:
        """Next instant the serializer yields between segments of the
        analytic train covering *t* — the slot packet-level FIFO would
        hand a queued single-frame segment.  Negative when no train
        window covers *t* (the caller falls back to a normal reserve)."""
        for train in (self._train_prev, self._train):
            if train is None:
                continue
            f_head, step, f_pen, start_last, f_last = train
            if t >= f_last:
                continue
            if t < f_head:
                return f_head
            if t < f_pen:
                k = math.ceil((t - f_head) / step)
                boundary = f_head + k * step
                return boundary if boundary < f_pen else f_pen
            if t < start_last:
                # Gap before the (late-arriving) last chunk: idle now.
                return t
            return f_last
        return -1.0

    def _interleave(self, segment: Segment) -> float:
        """Serialize a single-frame segment *inside* an analytic train.

        Packet-level FIFO lets a tiny control segment (ack, credit
        return, rendezvous CTS) slot in after the data segment currently
        on the wire, delaying it by at most one segment time — not by
        the train's whole reservation.  This reproduces that slot from
        the train's timing grid.  The train's own tail slip (one control
        frame of wire time, ~100 ns) is deliberately not modelled; the
        reservation and the already-scheduled burst delivery stand.

        Returns the egress-complete time, or a negative value when *now*
        falls outside every recorded train window; :meth:`send` counts and
        delivers the segment.
        """
        env = self.env
        now = env._now
        start = self._train_boundary(now)
        if start < 0.0:
            return -1.0
        if self._intr_free > start:
            # A previously interleaved segment still occupies the slot:
            # queue right behind it, as FIFO would.
            start = self._intr_free
        egress_done = self._pipe.reserve_at(start, segment.wire_bytes)
        self._intr_free = egress_done
        self._flow_decision("interleave")
        tracer = self._span_tracer
        if tracer is not None and start > now:
            meta = getattr(segment.meta, "meta", None)
            op = getattr(meta, "op_id", -1)
            if op >= 0:
                tracer.span_complete(
                    self.name, "wait:link_busy", now, start,
                    phase="wait", op_id=op, cause="link_busy",
                    nbytes=segment.wire_bytes)
        return egress_done

    def send_burst(self, burst: Burst) -> float:
        """Carry a whole segment train in one analytic step (flow fidelity).

        The caller guarantees ``burst.head_at >= now``.  On an idle
        serializer the train's exit times have a closed form: the head
        finishes one serialization after it arrives, full segments follow at
        the slower of their arrival spacing and this link's serialization
        time, and the (possibly short) last segment starts when both it has
        arrived and the train ahead has drained.  One delivery callback
        replaces the per-segment pump.

        Occupancy bookkeeping matches per-segment ``reserve`` calls in
        total busy time and bytes; the busy *interval* is recorded as one
        span (arrival spacing gaps inside a train are not broken out).

        If the serializer is busy at ``burst.head_at`` — queued contenders,
        in-cast — the burst is expanded back into per-segment sends at the
        segments' exact availability times, restoring packet-level fidelity
        from this hop on.  The one exception: a serializer busy only with
        an earlier sub-burst of the *same message* continues analytically
        (FIFO behind one's own tail is exactly what the packet loop does).

        Returns the time the second-to-last segment finishes serializing:
        the instant the packet-level transmit loop hands off the last
        segment, which is what the first-hop sender paces to.  (After an
        expansion the return value is meaningless; first-hop senders go
        through :meth:`try_send_burst`, which declines instead of
        expanding, so only downstream hops ever expand here.)
        """
        if burst.segment_bytes > self.MAX_SEGMENT_BYTES:
            raise NetworkError(
                f"burst chunks of {burst.segment_bytes}B exceed the "
                f"{self.MAX_SEGMENT_BYTES}B link segment bound"
            )
        pipe = self._pipe
        head_at = burst.head_at
        if burst.convoy is not None:
            # Downstream hop of a convoy train: siblings interleave here
            # with disjoint slot grids, so carry it past the busy check.
            handoff = self._convoy_carry(burst)
            if handoff is not None:
                return handoff
            self._flow_decision("burst:expand:convoy", burst)
            return self._expand_burst(burst)
        if burst.share > 1:
            # First hop of a symmetric concurrent transmit: serialize on
            # the convoy's round-robin slot grid instead of back-to-back.
            handoff = self._convoy_send(burst)
            if handoff is not None:
                return handoff
            self._flow_decision("burst:expand:convoy", burst)
            return self._expand_burst(burst)
        if self._burst_sink is None:
            self._flow_decision("burst:expand:unwired", burst)
            return self._expand_burst(burst)
        if pipe._free_at > head_at and self._last_owner is not burst.meta:
            self._flow_decision("burst:expand:busy", burst)
            return self._expand_burst(burst)
        return self._single_burst(burst)

    def try_send_burst(self, burst: Burst) -> Optional[float]:
        """First-hop entry: carry *burst* analytically or decline.

        Unlike :meth:`send_burst` this never expands — a declined burst has
        no side effects, letting the transmitting POE fall back to its
        per-segment loop (which paces and interleaves correctly, where an
        expansion at the first hop would dump the whole train into the
        FIFO at once)."""
        if self._burst_sink is None:
            self._flow_decision("burst:decline:unwired", burst)
            return None
        if burst.share > 1:
            return self._convoy_send(burst)
        if (self._pipe._free_at > burst.head_at
                and self._last_owner is not burst.meta):
            self._flow_decision("burst:decline:busy", burst)
            return None
        return self._single_burst(burst)

    def _burst_target(self) -> Callable[[Burst], None]:
        """Delivery callback for a carried burst: the plain sink, or the
        tracing wrapper that first records this hop's synthetic wire span."""
        if self._span_tracer is not None:
            return self._traced_burst_sink
        return self._burst_sink

    def _traced_burst_sink(self, burst: Burst) -> None:
        """Deliver a carried burst, recording the elided wire interval as a
        synthetic ``wire:burst`` span on this link's timeline.

        The span is reconstructed from the burst's timing fields *at fire
        time*, not at carry time: a committed train may be re-spaced onto a
        convoy grid (:meth:`_respace`) until its first delivery callback, so
        only now are ``head_at``/``last_at`` final.  Every carry path sets
        ``head_at = serialization_start + dur_full + latency``, which makes
        the serialization window ``[head_at - latency - dur_full,
        last_at - latency]`` — the same interval the per-segment sends would
        have occupied.  The sink runs after recording because downstream
        hops re-stamp the burst in place.
        """
        tracer = self._span_tracer
        if tracer is not None:
            op = burst.op_id
            if op >= 0:
                pipe = self._pipe
                dur = pipe.overhead + burst.wire_full / pipe.rate
                t1 = burst.last_at - self.latency
                t0 = burst.head_at - self.latency - dur
                tracer.span_complete(
                    self.name, "wire:burst", t0, t1, phase="wire", op_id=op,
                    nbytes=burst.payload_bytes, segments=burst.n_segments)
        self._burst_sink(burst)

    def _single_burst(self, burst: Burst) -> float:
        self._flow_decision("burst:carry", burst)
        pipe = self._pipe
        head_at = burst.head_at
        # Serialization of the head starts when it has both arrived and the
        # tail of this message's previous sub-burst has drained.
        base = head_at if head_at >= pipe._free_at else pipe._free_at
        n = burst.n_segments
        rate = pipe.rate
        dur_full = pipe.overhead + burst.wire_full / rate
        dur_last = pipe.overhead + burst.wire_last / rate
        step = dur_full if dur_full > burst.spacing else burst.spacing
        f_head = base + dur_full
        f_pen = f_head + (n - 2) * step
        start_last = f_pen if f_pen > burst.last_at else burst.last_at
        f_last = start_last + dur_last
        pipe.occupy(base, f_last, (n - 1) * dur_full + dur_last,
                    burst.wire_total)
        self._relay = (burst, base) if burst.seq_base == 0 else None
        self._last_owner = burst.meta
        self._train_prev = self._train
        self._train = (f_head, step, f_pen, start_last, f_last)
        self._train_tail = f_last
        self.segments_carried += n
        Environment.total_events_fast_forwarded += n - 1
        latency = self.latency
        burst.head_at = f_head + latency
        burst.spacing = step
        burst.last_at = f_last + latency
        self.env.schedule_callback_at(
            burst.last_at if self._burst_at_tail else burst.head_at,
            self._burst_target(), burst)
        return f_pen

    def _convoy_send(self, burst: Burst) -> Optional[float]:
        """First-hop convoy carry: one of ``share`` symmetric concurrent
        transmits, serialized on a rigid round-robin slot grid.

        When ``share`` equal senders start together and each paces its next
        segment to its own egress instant, packet FIFO interleaves them
        deterministically: the member admitted at *phase* owns the slots
        ``origin + (s*share + phase)*dur`` for its message-level segment
        ``s``.  The grid is pinned at formation and derived from each
        sub-burst's ``seq_base``, so continuation sub-bursts land on their
        slots no matter when their handoffs fire.

        Returns the handoff time, or ``None`` to decline (formation needs
        an idle serializer; joiners must arrive before their first slot;
        membership, share and segment timing must match the grid).  A
        declined first-hop burst must NOT be expanded — the POE falls back
        to its per-segment loop, which interleaves correctly.
        """
        if self._burst_sink is None:
            self._flow_decision("burst:decline:unwired", burst)
            return None
        pipe = self._pipe
        env = self.env
        dur = pipe.overhead + burst.wire_full / pipe.rate
        convoy = self._convoy
        if convoy is not None and env._now >= convoy["tail"]:
            convoy = self._convoy = None
        owner = burst.meta
        if convoy is None:
            convoy = self._convoy_form(burst, dur)
            if convoy is None:
                self._flow_decision("convoy:decline", burst)
                return None
        if dur != convoy["dur"]:
            self._flow_decision("convoy:decline", burst)
            return None
        members = convoy["members"]
        phase = members.get(id(owner))
        if phase is None:
            if burst.share == convoy["share"] + 1:
                # One more bulk transmit in flight than when the convoy
                # formed: a late arrival.  Widen the grid for everyone
                # (exact while nothing has been delivered downstream).
                if not self._convoy_grow(convoy):
                    self._flow_decision("convoy:decline", burst)
                    return None
                self._flow_decision("convoy:widen", burst)
            elif burst.share != convoy["share"]:
                self._flow_decision("convoy:decline", burst)
                return None
            phase = len(members)
            if (burst.seq_base != 0 or phase >= convoy["share"]
                    or burst.head_at > convoy["origin"] + phase * dur):
                self._flow_decision("convoy:decline", burst)
                return None
            members[id(owner)] = phase
            self._flow_decision("convoy:join", burst)
        elif burst.share != convoy["share"]:
            self._flow_decision("convoy:decline", burst)
            return None
        self._flow_decision("convoy:lay", burst)
        f_pen = self._convoy_lay(burst, convoy, phase)
        n = burst.n_segments
        self._last_owner = owner
        self.segments_carried += n
        Environment.total_events_fast_forwarded += n - 1
        env.schedule_callback_at(
            burst.last_at if self._burst_at_tail else burst.head_at,
            self._burst_target(), burst)
        return f_pen

    def _convoy_form(self, burst: Burst, dur: float) -> Optional[dict]:
        """Start a convoy for *burst*'s message, or return ``None``.

        Two ways in:

        - an idle serializer — the senders reached the link at the same
          instant and the grid simply starts at ``burst.head_at``;
        - a *re-spaceable* solo train — one sender started alone (command
          queues stagger real senders by ~1 us) and laid a solid opening
          sub-burst, but none of it has been delivered downstream yet
          (the first callback fires one serialization plus one propagation
          after its start), so the committed train can still be re-spaced
          onto the round-robin grid.  That re-spacing reproduces packet
          FIFO exactly: the founder's head segment is on the wire either
          way, and each later sender's first segment queues right behind
          whatever is serializing when it shows up — slot ``phase``.
        """
        pipe = self._pipe
        env = self.env
        if pipe._free_at <= burst.head_at:
            convoy = self._convoy = {
                "token": object(), "share": burst.share,
                "origin": burst.head_at, "dur": dur,
                "members": {}, "bursts": {}, "tail": burst.head_at,
            }
            self._flow_decision("convoy:form", burst)
            return convoy
        relay = self._relay
        if relay is None:
            return None
        founder, base = relay
        f_dur = pipe.overhead + founder.wire_full / pipe.rate
        if (founder.seq_base != 0 or f_dur != dur
                or env._now >= base + dur + self.latency):
            return None
        self._relay = None
        convoy = self._convoy = {
            "token": object(), "share": burst.share,
            "origin": base, "dur": dur,
            "members": {id(founder.meta): 0},
            "bursts": {id(founder.meta): founder}, "tail": base,
        }
        self._flow_decision("convoy:form:respace", burst)
        self._respace(founder, convoy, 0)
        return convoy

    def _convoy_grow(self, convoy: dict) -> bool:
        """Admit one more member: widen every committed train's spacing.

        Exact only while the whole convoy is younger than one delivery:
        every committed burst is still its message's opening sub-burst and
        no downstream callback has fired, so heads stay pinned to their
        (step-independent) slots and only the spacing stretches.
        """
        if self.env._now >= convoy["origin"] + convoy["dur"] + self.latency:
            return False
        for b in convoy["bursts"].values():
            if b.seq_base != 0:
                return False
        convoy["share"] += 1
        members = convoy["members"]
        for key, b in convoy["bursts"].items():
            self._respace(b, convoy, members[key])
        return True

    def _respace(self, burst: Burst, convoy: dict, phase: int,
                 busy: float = 0.0, nbytes: int = 0) -> float:
        """Move an already-committed train onto the convoy's current grid.

        Re-stamps the burst's timing in place — safe because its delivery
        callback reads the fields when it fires, and the head time (slot
        ``origin + phase*dur`` plus one serialization) does not depend on
        the grid step for an opening sub-burst.  Wire bookkeeping (busy
        time, bytes) is charged once, when the train is first laid
        (*busy*/*nbytes* from :meth:`_convoy_lay`), and does not change
        with spacing; only the busy span and ``free_at`` grow.
        Returns the handoff (the penultimate slot's egress).
        """
        pipe = self._pipe
        dur = convoy["dur"]
        n = burst.n_segments
        dur_last = pipe.overhead + burst.wire_last / pipe.rate
        step = convoy["share"] * dur
        start_head = convoy["origin"] + phase * dur + burst.seq_base * step
        f_head = start_head + dur
        f_pen = f_head + (n - 2) * step
        start_last = start_head + (n - 1) * step
        f_last = start_last + dur_last
        if f_last > convoy["tail"]:
            convoy["tail"] = f_last
        pipe.occupy(start_head, f_last, busy, nbytes)
        latency = self.latency
        burst.convoy = convoy["token"]
        burst.spacing = step
        burst.head_at = f_head + latency
        burst.last_at = f_last + latency
        return f_pen

    def _convoy_lay(self, burst: Burst, convoy: dict, phase: int) -> float:
        """Put a member's sub-burst on its slots; returns the handoff."""
        pipe = self._pipe
        f_pen = self._respace(
            burst, convoy, phase,
            ((burst.n_segments - 1) * convoy["dur"]
             + pipe.overhead + burst.wire_last / pipe.rate),
            burst.wire_total)
        convoy["bursts"][id(burst.meta)] = burst
        # A convoy train has no idle inter-segment gaps — the slots between
        # one member's segments belong to its siblings — so single-frame
        # control segments must NOT interleave into the grid.  They queue
        # behind the committed tail instead, exactly as packet FIFO orders
        # a completion notification after the data it follows.
        self._train = self._train_prev = None
        self._train_tail = -1.0
        return f_pen

    def _convoy_carry(self, burst: Burst) -> Optional[float]:
        """Downstream-hop carry of a convoy member's train.

        Upstream, sibling trains were spaced onto disjoint slot grids and
        store-and-forward preserves the stagger, so every segment here
        serializes on arrival: the serializer being "busy" with a sibling
        of the same convoy is occupancy in complementary slots, not
        contention.  Declines (-> expansion) when the slots are too narrow
        for this hop's rate or the occupancy is foreign traffic.
        """
        if self._burst_sink is None:
            return None
        pipe = self._pipe
        head_at = burst.head_at
        token = burst.convoy
        if (pipe._free_at > head_at and self._convoy_token is not token
                and self._last_owner is not burst.meta):
            return None
        dur = pipe.overhead + burst.wire_full / pipe.rate
        if dur * burst.share > burst.spacing * (1.0 + 1e-9):
            return None
        n = burst.n_segments
        dur_last = pipe.overhead + burst.wire_last / pipe.rate
        step = burst.spacing if burst.spacing > dur else dur
        f_head = head_at + dur
        f_pen = f_head + (n - 2) * step
        start_last = burst.last_at if burst.last_at > f_pen else f_pen
        f_last = start_last + dur_last
        pipe.occupy(head_at, f_last, (n - 1) * dur + dur_last,
                    burst.wire_total)
        self._last_owner = burst.meta
        self._convoy_token = token
        # Sibling trains fill each other's slot gaps: no control-segment
        # interleaving inside a convoy (see _convoy_lay).
        self._train = self._train_prev = None
        self._train_tail = -1.0
        self.segments_carried += n
        Environment.total_events_fast_forwarded += n - 1
        latency = self.latency
        burst.head_at = f_head + latency
        burst.spacing = step
        burst.last_at = f_last + latency
        self._flow_decision("convoy:carry", burst)
        self.env.schedule_callback_at(
            burst.last_at if self._burst_at_tail else burst.head_at,
            self._burst_target(), burst)
        return f_pen

    def _expand_burst(self, burst: Burst) -> float:
        """Replay a burst as individual segments at their availability
        times — the automatic packet-level fallback at congested hops."""
        env = self.env
        now = env._now
        send = self.send
        for avail, segment in burst.iter_segments():
            if avail <= now:
                send(segment)
            else:
                env.schedule_callback_at(avail, send, segment)
        return 0.0

    def register_metrics(self, registry, **labels) -> None:
        """Expose carried traffic and occupancy as callback gauges."""
        registry.gauge("link_segments_carried",
                       fn=lambda: float(self.segments_carried),
                       link=self.name, **labels)
        for reason in LINK_FLOW_DECISIONS:
            registry.gauge(
                "link_flow_decisions",
                fn=lambda r=reason: float(self.flow_decisions.get(r, 0.0)),
                link=self.name, reason=reason, **labels)
        self._pipe.register_metrics(registry, name="link",
                                    link=self.name, **labels)

    def __repr__(self) -> str:
        return f"<Link {self.name!r} {units.to_gbps(self.rate):.0f} Gb/s>"
