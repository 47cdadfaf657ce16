"""Common POE machinery: message headers, segmentation, reassembly.

A *message* is the unit the CCLO deals in; the wire deals in *segments*.
:class:`BasePoe` owns the split/merge: the transmit path cuts a message into
``segment_bytes`` chunks and paces them through the endpoint (subject to the
subclass's flow control), and the receive path counts segment arrivals per
message id, handing the completed message to the registered handler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import ProtocolError
from repro.network.endpoint import Endpoint
from repro.network.fidelity import POE_FLOW_DECISIONS
from repro.network.packet import Burst, Segment
from repro.sim import Environment, Event
from repro import units


@dataclass
class MessageHeader:
    """Transport-level message descriptor (not the ACCL+ signature).

    The ACCL+ lightweight protocol header (rank ids, tag, sequence number —
    §4.4.2) rides inside ``meta``; this descriptor is what the POE itself
    needs to move bytes.
    """

    msg_id: int
    src_addr: int
    dst_addr: int
    nbytes: int
    kind: str = "send"  # "send" | "write" | "datagram"
    session: int = 0
    meta: Any = None
    #: sim time the first segment entered the wire (-1 = untraced); lets the
    #: receiving POE close a wire-phase span without a round trip.
    tx_t0: float = -1.0

    def __repr__(self) -> str:
        return (
            f"<MessageHeader #{self.msg_id} {self.kind} "
            f"{self.src_addr}->{self.dst_addr} {self.nbytes}B>"
        )


class DeferredPayload:
    """Functional payload of a cut-through streaming send.

    The POE starts transmitting before the sending kernel has produced all
    the data; the value is filled in by the producer before the last byte
    leaves, and resolved by the receive side at delivery time.
    """

    _UNSET = object()

    def __init__(self):
        self._value: Any = self._UNSET

    def set(self, value: Any) -> None:
        self._value = value

    def get(self) -> Any:
        if self._value is self._UNSET:
            raise ProtocolError(
                "deferred payload delivered before the producer finished "
                "(cut-through pacing violated)"
            )
        return self._value

    @staticmethod
    def resolve(data: Any) -> Any:
        return data.get() if isinstance(data, DeferredPayload) else data


@dataclass
class _Reassembly:
    header: MessageHeader
    bytes_seen: int = 0
    data: Any = None


class BasePoe:
    """Shared transmit/receive plumbing for all protocol engines.

    Subclasses set class attributes (``protocol_name``, ``mtu``,
    ``poe_latency``) and may override hooks:

    - :meth:`_tx_flow_control` -- gate each segment (window/credits).
    - :meth:`_tx_post_segment` -- per-segment transmit bookkeeping.
    - :meth:`_on_segment_delivered` -- receive-side accounting (acks).
    - :meth:`_deliver` -- how a completed message reaches the consumer.
    """

    protocol_name = "raw"
    #: wire MTU used for header-overhead accounting
    mtu = 1500
    #: segmentation quantum (bounded by the link's segment cap)
    segment_bytes = 32 * units.KIB
    #: fixed pipeline latency through the POE per message, seconds
    poe_latency = units.ns(300)
    #: wait-cause label for time blocked in :meth:`_tx_flow_control`
    #: (subclasses name their mechanism: TCP retx window, RDMA credits)
    flow_control_cause = "flow_control"
    #: flow fidelity accounting — heap events the per-segment transmit /
    #: receive paths would have dispatched per segment but the analytic
    #: burst elides (flow-control yields, retx writes; credit/ack returns).
    #: Feeds ``Environment.total_events_fast_forwarded`` so events/s stays
    #: comparable across fidelity modes.
    _FLOW_TX_ELIDED_PER_SEGMENT = 0
    _FLOW_RX_ELIDED_PER_SEGMENT = 0

    def __init__(self, env: Environment, endpoint: Endpoint, name: str = ""):
        self.env = env
        self.endpoint = endpoint
        self.name = name or f"{self.protocol_name}@{endpoint.address}"
        self._msg_ids = itertools.count(1)
        self._handler: Optional[Callable[[MessageHeader, Any], None]] = None
        self._rx_state: Dict[tuple, _Reassembly] = {}
        self.messages_sent = 0
        self.messages_received = 0
        #: multi-segment transmit processes currently between start and
        #: local completion.  >1 means concurrent bulk messages share the
        #: uplink; when they are *symmetric* (all fast-forwarding, started
        #: together) the link carries them as a round-robin convoy with
        #: ``share`` equal to this count.  Single-segment sends (acks,
        #: credits, rendezvous control) are not counted — the link slots
        #: those into the train's inter-segment gaps exactly as
        #: packet-level FIFO does.
        self._tx_bulk_inflight = 0
        #: bulk transmits currently running the per-segment loop (below
        #: the flow admission floor, paced, or fallen back).  Non-zero
        #: poisons the convoy: packet-loop traffic interleaves at FIFO
        #: granularity, which the analytic grid cannot represent, so flow
        #: transmits must not admit (and fall back between sub-bursts)
        #: while any such sibling is active.
        self._tx_bulk_packet = 0
        #: flow-fidelity transmit enabled for this engine (set per topology)
        self._fidelity_flow = (
            getattr(endpoint, "fidelity", "packet") == "flow")
        #: per-reason flow admission/fallback counts (see
        #: :data:`repro.network.fidelity.POE_FLOW_DECISIONS`); stays empty
        #: in packet mode.
        self.flow_tx_decisions: dict = {}
        # Span tracing (None = disabled): bound by the owning engine.
        self._span_tracer = None
        self._trace_node = self.name
        endpoint.on_receive(self._on_segment)
        if hasattr(endpoint, "on_receive_burst"):
            endpoint.on_receive_burst(self._on_burst)

    def bind_tracer(self, span_tracer, node: str) -> None:
        """Activate span tracing; *node* names this POE's trace tracks.

        Pass ``None`` to deactivate (a plain event tracer has no spans).
        """
        self._span_tracer = span_tracer
        self._trace_node = node

    def register_metrics(self, registry, **labels) -> None:
        registry.gauge("poe_messages_sent",
                       fn=lambda: float(self.messages_sent), **labels)
        registry.gauge("poe_messages_received",
                       fn=lambda: float(self.messages_received), **labels)
        for reason in POE_FLOW_DECISIONS:
            registry.gauge(
                "poe_flow_decisions",
                fn=lambda r=reason: float(
                    self.flow_tx_decisions.get(r, 0.0)),
                reason=reason, **labels)

    def _flow_decision(self, header: MessageHeader, kind: str) -> None:
        """Count one flow admission/fallback decision for *header*; under a
        tracer also drop a zero-duration ``phase="fidelity"`` marker span
        (record-only — attribution ignores it, the decision log shows it)."""
        d = self.flow_tx_decisions
        d[kind] = d.get(kind, 0) + 1
        tracer = self._span_tracer
        if tracer is not None:
            op = getattr(header.meta, "op_id", -1)
            if op >= 0:
                now = self.env._now
                tracer.span_complete(
                    f"{self._trace_node}.poe", f"flow:{kind}", now, now,
                    phase="fidelity", op_id=op, reason=kind,
                    msg_id=header.msg_id, nbytes=header.nbytes)

    @property
    def address(self) -> int:
        return self.endpoint.address

    def on_message(self, handler: Callable[[MessageHeader, Any], None]) -> None:
        """Register the consumer for completed inbound messages."""
        if self._handler is not None:
            raise ProtocolError(f"{self.name}: message handler already set")
        self._handler = handler

    # -- transmit path ----------------------------------------------------

    def send_message(
        self,
        dst_addr: int,
        nbytes: int,
        meta: Any = None,
        data: Any = None,
        kind: str = "send",
        session: int = 0,
        pace: Any = None,
    ) -> Event:
        """Transmit a message; the event fires when the last byte has been
        handed to the wire (local completion).

        ``pace`` (a byte TokenBucket) throttles segmentation to a producer
        that is still generating the data — the cut-through streaming path.
        """
        if nbytes < 0:
            raise ProtocolError(f"negative message size: {nbytes}")
        header = MessageHeader(
            msg_id=next(self._msg_ids),
            src_addr=self.address,
            dst_addr=dst_addr,
            nbytes=nbytes,
            kind=kind,
            session=session,
            meta=meta,
        )
        self.messages_sent += 1
        # The message is in flight from now on, though its transmit process
        # starts only after the POE pipeline latency: flow-mode convoys read
        # the bulk count for their ``share`` in between.
        bulk = nbytes > self.segment_bytes
        if bulk:
            self._tx_bulk_inflight += 1
        return self.env.process(
            self._tx_process(header, data, pace, self.env._now, bulk),
            name=f"{self.name}.tx{header.msg_id}",
            delay=self.poe_latency,
        )

    def _tx_process(self, header: MessageHeader, data: Any, pace: Any,
                    t_start: float, bulk: bool):
        """Transmit process; starts ``poe_latency`` after *t_start*."""
        try:
            result = yield from self._tx_run(header, data, pace, t_start)
        finally:
            if bulk:
                self._tx_bulk_inflight -= 1
        return result

    def _tx_run(self, header: MessageHeader, data: Any, pace: Any,
                t_start: float):
        tracer = self._span_tracer
        env = self.env
        remaining = header.nbytes
        seqno = 0
        if (self._fidelity_flow and pace is None
                and self._tx_bulk_packet == 0
                and header.nbytes
                    >= self._FLOW_MIN_SEGMENTS * self.segment_bytes):
            # Flow fast-forward: submit the segment train as analytic
            # sub-bursts while nothing per-segment could have mattered —
            # pristine flow-control state and no packet-loop sibling on
            # this engine.  A lone message gets the FIFO closed form;
            # ``share`` concurrent bulk messages ask the link for a
            # round-robin convoy (declined unless they are symmetric).
            # Contention arriving mid-message drops the remainder back to
            # the per-segment loop (and mid-path congestion expands a
            # burst at the busy hop).
            remaining, seqno = yield from self._flow_tx_run(
                header, data, tracer)
            if remaining == 0:
                if tracer is not None:
                    tracer.span_complete(
                        f"{self._trace_node}.poe", f"tx:{header.kind}",
                        t_start, env.now, phase="poe",
                        op_id=getattr(header.meta, "op_id", -1),
                        nbytes=header.nbytes, dst=header.dst_addr)
                return header
        elif self._fidelity_flow and header.nbytes > self.segment_bytes:
            # Bulk message that never entered the analytic path: record why.
            if pace is not None:
                self._flow_decision(header, "reject:paced")
            elif self._tx_bulk_packet > 0:
                self._flow_decision(header, "reject:packet_sibling")
            else:
                self._flow_decision(header, "reject:below_floor")
        if tracer is not None and header.tx_t0 < 0:
            header.tx_t0 = env.now
        endpoint_send = self.endpoint.send
        flow_control = self._tx_flow_control
        post_segment = self._tx_post_segment
        address = self.address
        dst_addr = header.dst_addr
        protocol_name = self.protocol_name
        mtu = self.mtu
        segment_bytes = self.segment_bytes
        sent_any = seqno > 0
        bulk = header.nbytes > segment_bytes
        if bulk:
            self._tx_bulk_packet += 1
        try:
            while remaining > 0 or not sent_any:
                chunk = min(remaining, segment_bytes) if remaining else 0
                if pace is not None and chunk > 0:
                    yield pace.take(chunk)
                # A grant available at once comes back as None: no event,
                # no bounce through the now-bucket.
                wait = flow_control(header, chunk)
                if wait is not None:
                    t_fc = env._now
                    yield wait
                    if tracer is not None and env._now > t_fc:
                        tracer.span_complete(
                            f"{self._trace_node}.poe",
                            f"wait:{self.flow_control_cause}",
                            t_fc, env._now, phase="wait",
                            op_id=getattr(header.meta, "op_id", -1),
                            cause=self.flow_control_cause, dst=dst_addr)
                segment = Segment(
                    src=address,
                    dst=dst_addr,
                    payload_bytes=chunk,
                    protocol=protocol_name,
                    meta=header,
                    data=data if seqno == 0 else None,
                    mtu=mtu,
                    seqno=seqno,
                )
                egress_done = endpoint_send(segment)
                wait = post_segment(header, segment)
                if wait is not None:
                    yield wait
                remaining -= chunk
                seqno += 1
                sent_any = True
                if remaining > 0:
                    # Pace the next segment to the serializer: prevents
                    # flooding the heap, keeps FIFO fairness between
                    # concurrent messages.  Plain-float yields take the
                    # kernel's allocation-free sleep path.
                    pause = egress_done - env.now
                    yield pause if pause > 0.0 else 0.0
        finally:
            if bulk:
                self._tx_bulk_packet -= 1
        if tracer is not None:
            tracer.span_complete(
                f"{self._trace_node}.poe", f"tx:{header.kind}",
                t_start, env.now, phase="poe",
                op_id=getattr(header.meta, "op_id", -1),
                nbytes=header.nbytes, dst=header.dst_addr)
        return header

    def _tx_flow_control(self, header: MessageHeader,
                         chunk: int) -> Optional[Event]:
        """Subclass hook: gate *chunk* bytes' entry onto the wire.

        Returns ``None`` when the segment may go now, or an event to wait
        on.  Taking a grant that is available at once synchronously and
        returning ``None`` saves the event's bounce through the now-bucket.
        """
        return None

    def _tx_post_segment(self, header: MessageHeader,
                         segment: Segment) -> Optional[Event]:
        """Subclass hook: per-segment bookkeeping (e.g. retx buffering);
        an event return holds the next segment until it fires."""
        return None

    # -- flow-fidelity fast-forward ----------------------------------------

    #: segments per analytic sub-burst: the granularity at which a
    #: fast-forwarded transmit re-checks for contention.  A concurrent
    #: message arriving mid-train is noticed within one sub-burst's wire
    #: time and the remainder falls back to interleaved packet fidelity.
    _FLOW_SUBBURST_SEGMENTS = 32
    #: admission floor, in segments: the one-sub-burst fallback residue is
    #: an *absolute* error (up to one window of FIFO-vs-fair-share skew),
    #: so only messages long enough to keep it relatively negligible are
    #: fast-forwarded.  Shorter messages run at packet fidelity, where
    #: they are cheap anyway.
    _FLOW_MIN_SEGMENTS = 8 * _FLOW_SUBBURST_SEGMENTS

    def _flow_tx_run(self, header: MessageHeader, data: Any, tracer):
        """Analytic burst transmit as a train of sub-bursts.

        Pauses at each sub-burst's handoff instant (when the packet loop
        would have handed its last segment to the wire) and re-checks the
        admission conditions before continuing.  Each sub-burst is stamped
        with the engine's current bulk-transmit count as its ``share``:
        ``share > 1`` asks the link for convoy (round-robin) interleaving,
        and the link declines — forcing a fallback here — whenever the
        count disagrees with the convoy it actually formed.  Returns
        ``(remaining_bytes, next_seqno)`` — ``(0, n)`` when the whole
        message went out analytically, or the packet-loop resume point
        after a fallback.
        """
        nbytes = header.nbytes
        if not self._flow_tx_ready(header):
            self._flow_decision(header, "reject:flow_control")
            return nbytes, 0
        self._flow_decision(header, "admit")
        env = self.env
        seg = self.segment_bytes
        n_total = -(-nbytes // seg)
        tail_bytes = nbytes - (n_total - 1) * seg
        if tracer is not None:
            header.tx_t0 = env.now
        chunk = self._FLOW_SUBBURST_SEGMENTS
        sent = 0
        while sent < n_total:
            if sent > 0:
                self._flow_decision(header, "window:readmit")
            k = n_total - sent
            if k > chunk + 1:
                k = chunk
            is_tail = sent + k == n_total
            last_bytes = tail_bytes if is_tail else seg
            burst = Burst(
                src=self.address, dst=header.dst_addr,
                payload_bytes=(k - 1) * seg + last_bytes,
                n_segments=k, segment_bytes=seg, last_bytes=last_bytes,
                protocol=self.protocol_name, meta=header,
                data=data if sent == 0 else None,
                mtu=self.mtu, head_at=env.now, spacing=0.0,
                last_at=env.now, seq_base=sent,
                share=self._tx_bulk_inflight,
            )
            handoff = self.endpoint.send_burst(burst)
            if handoff is None:
                self._flow_decision(header, "fallback:link_declined")
                return nbytes - sent * seg, sent
            # k-1 elided pacing sleeps plus the per-segment protocol work.
            Environment.total_events_fast_forwarded += (
                (k - 1) + k * self._FLOW_TX_ELIDED_PER_SEGMENT)
            post = self._flow_tx_post(header, burst)
            pause = handoff - env.now
            if pause > 0.0:
                yield pause
            if post is not None:
                yield post
            sent += k
            if sent < n_total:
                if self._tx_bulk_packet > 0:
                    self._flow_decision(header, "fallback:packet_sibling")
                    return nbytes - sent * seg, sent
                if not self._flow_tx_ready(header):
                    self._flow_decision(header, "fallback:flow_control")
                    return nbytes - sent * seg, sent
        return 0, n_total

    def _flow_tx_ready(self, header: MessageHeader) -> bool:
        """Subclass hook: is per-segment flow control guaranteed not to
        stall this message on an idle path?  Must be conservative: any
        outstanding credit/window state forces the packet-level loop."""
        return True

    def _flow_tx_post(self, header: MessageHeader,
                      burst: Burst) -> Optional[Event]:
        """Subclass hook: transmit-side bulk bookkeeping for a burst
        (e.g. retx mirroring).  An Event return delays local completion."""
        return None

    def _flow_window_floor(self) -> float:
        """Flow-control capacity below which per-segment credits could run
        dry even on an idle path: roughly twice the bandwidth-delay product
        plus one in-flight segment.  Buckets at full capacity above this
        floor are transparent — packet mode would never have stalled."""
        link = self.endpoint.uplink
        if link is None:
            return float("inf")
        rtt = 4 * link.latency + units.us(2) + 4 * self.poe_latency
        return 2.0 * (link.rate * rtt + self.segment_bytes)

    def _on_burst(self, burst: Burst) -> None:
        """Receive a fast-forwarded train; runs at its last segment's arrival.

        Collapses ``n_segments`` calls of `_on_segment` into one: the
        burst's bytes accumulate into the same reassembly state packet
        segments use (a message may arrive as a mix of sub-bursts and
        fallen-back segments), and delivery fires once the message is
        whole.  Per-segment receive effects (credit returns, acks) are
        elided — on the idle paths that admit bursts they only refill
        already-full buckets — and counted as fast-forwarded events.
        """
        header: MessageHeader = burst.meta
        key = (header.src_addr, header.msg_id)
        state = self._rx_state.get(key)
        if state is None:
            state = _Reassembly(header=header)
            self._rx_state[key] = state
        state.bytes_seen += burst.payload_bytes
        if burst.data is not None:
            state.data = burst.data
        Environment.total_events_fast_forwarded += (
            burst.n_segments * self._FLOW_RX_ELIDED_PER_SEGMENT)
        self._flow_rx_effects(burst)
        if state.bytes_seen < header.nbytes:
            return
        del self._rx_state[key]
        self.messages_received += 1
        tracer = self._span_tracer
        if tracer is not None:
            now = self.env.now
            op = getattr(header.meta, "op_id", -1)
            if header.tx_t0 >= 0:
                tracer.span_complete(
                    f"{self._trace_node}.wire", f"wire:{header.kind}",
                    header.tx_t0, now, phase="wire", op_id=op,
                    nbytes=header.nbytes, src=header.src_addr)
            tracer.span_complete(
                f"{self._trace_node}.poe", "rx", now,
                now + self.poe_latency, phase="poe", op_id=op,
                nbytes=header.nbytes)
        self.env.schedule_callback(
            self.poe_latency, self._deliver_resolved, header, state.data
        )

    def _flow_rx_effects(self, burst: Burst) -> None:
        """Subclass hook: receive-side burst bookkeeping (memory landings)."""

    # -- receive path ------------------------------------------------------

    def _on_segment(self, segment: Segment) -> None:
        header: MessageHeader = segment.meta
        key = (header.src_addr, header.msg_id)
        state = self._rx_state.get(key)
        if state is None:
            state = _Reassembly(header=header)
            self._rx_state[key] = state
        state.bytes_seen += segment.payload_bytes
        if segment.data is not None:
            state.data = segment.data
        self._on_segment_delivered(segment)
        if state.bytes_seen >= header.nbytes:
            del self._rx_state[key]
            self.messages_received += 1
            tracer = self._span_tracer
            if tracer is not None:
                now = self.env.now
                op = getattr(header.meta, "op_id", -1)
                if header.tx_t0 >= 0:
                    # First byte on the wire to last byte reassembled: the
                    # message's wire occupancy, on the receiver's track.
                    tracer.span_complete(
                        f"{self._trace_node}.wire", f"wire:{header.kind}",
                        header.tx_t0, now, phase="wire", op_id=op,
                        nbytes=header.nbytes, src=header.src_addr)
                tracer.span_complete(
                    f"{self._trace_node}.poe", "rx", now,
                    now + self.poe_latency, phase="poe", op_id=op,
                    nbytes=header.nbytes)
            self.env.schedule_callback(
                self.poe_latency, self._deliver_resolved, header, state.data
            )

    def _deliver_resolved(self, header: MessageHeader, data: Any) -> None:
        # Resolution happens at delivery time, not scheduling time: a
        # cut-through producer may fill a DeferredPayload in between.
        self._deliver(header, DeferredPayload.resolve(data))

    def _on_segment_delivered(self, segment: Segment) -> None:
        """Subclass hook: receive-side per-segment work (acks/credits)."""

    def _deliver(self, header: MessageHeader, data: Any) -> None:
        if self._handler is None:
            raise ProtocolError(
                f"{self.name}: inbound message but no handler registered"
            )
        self._handler(header, data)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
