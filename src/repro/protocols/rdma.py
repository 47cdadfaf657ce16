"""RDMA protocol offload engine (Coyote network service, §4.3).

Supports the verbs the CCLO uses:

- **SEND** (two-sided): delivered to the remote consumer's message handler —
  the CCLO "consistently manages data and metadata streams from two-sided
  SEND".
- **WRITE** (one-sided): on the passive side, data bypasses the CCLO and is
  written straight to virtualized memory through a writer hook installed by
  the platform integration; only an optional completion record surfaces.

Queue pairs must be exchanged and registered before traffic flows (the CCL
driver does that at communicator construction), and flow control is
credit-based, which is what makes rendezvous algorithms safe at scale.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import ProtocolError
from repro.network.packet import Segment
from repro.protocols.base import BasePoe, MessageHeader
from repro.sim import Event
from repro.sim.resources import TokenBucket
from repro import units


class RdmaOpcode(enum.Enum):
    SEND = "send"
    WRITE = "write"


# Header ``kind`` strings of the two verbs, hoisted out of the per-segment
# paths (an enum member's ``.value`` is a descriptor lookup each time).
_SEND = RdmaOpcode.SEND.value
_WRITE = RdmaOpcode.WRITE.value


@dataclass(slots=True)
class QueuePair:
    qp_num: int
    local_addr: int
    remote_addr: int
    credits: "TokenBucket"


class RdmaPoe(BasePoe):
    """RoCE-style engine with SEND/WRITE verbs and QP-level credits."""

    protocol_name = "roce"
    mtu = 4096
    poe_latency = units.ns(300)
    #: QP-level credit exhaustion is the RDMA flow-control stall
    flow_control_cause = "credit_stall"
    #: per elided segment: one credit-take yield on the transmit side; one
    #: 16-byte credit-return segment (three wire hops) on the receive side
    _FLOW_TX_ELIDED_PER_SEGMENT = 1
    _FLOW_RX_ELIDED_PER_SEGMENT = 3

    DEFAULT_CREDIT_BYTES = 1 * units.MIB

    def __init__(
        self,
        env,
        endpoint,
        credit_bytes: int = DEFAULT_CREDIT_BYTES,
        name: str = "",
    ):
        super().__init__(env, endpoint, name)
        self.credit_bytes = credit_bytes
        self._qp_nums = itertools.count(1)
        self._qps: Dict[int, QueuePair] = {}
        self._by_remote: Dict[int, QueuePair] = {}
        self._lazy_qp = False
        # One shared name for every QP's credit bucket: large clusters
        # create many QPs and per-QP f-strings are pure construction cost.
        self._credit_name = f"{self.name}.crd"
        self._memory_writer: Optional[
            Callable[[MessageHeader, Any], Event]
        ] = None
        self._segment_writer: Optional[
            Callable[[MessageHeader, int], None]
        ] = None
        self.writes_completed = 0

    # -- queue pair management ------------------------------------------------

    @property
    def qp_count(self) -> int:
        return len(self._qps)

    def enable_lazy_qp(self) -> None:
        """Create queue pairs on first use instead of up front.

        QP exchange is an out-of-band, zero-sim-time control-plane step
        (see :meth:`create_qp`), so deferring it to the first verb toward a
        peer is timing-identical to eager all-pairs setup — but a node that
        talks to k peers allocates k QPs instead of n-1, which is what
        makes 1000-node clusters buildable.
        """
        self._lazy_qp = True

    def create_qp(self, remote_addr: int) -> QueuePair:
        """Create (or return) the queue pair toward *remote_addr*.

        QP number exchange is an out-of-band control-plane step; its cost is
        charged by the host driver during communicator setup, not here.
        """
        if remote_addr == self.address:
            raise ProtocolError(f"{self.name}: cannot create QP to self")
        if remote_addr in self._by_remote:
            return self._by_remote[remote_addr]
        qp = QueuePair(
            qp_num=next(self._qp_nums),
            local_addr=self.address,
            remote_addr=remote_addr,
            credits=TokenBucket(self.env, self.credit_bytes,
                                name=self._credit_name),
        )
        self._qps[qp.qp_num] = qp
        self._by_remote[remote_addr] = qp
        return qp

    def qp_to(self, remote_addr: int) -> QueuePair:
        qp = self._by_remote.get(remote_addr)
        if qp is None:
            if self._lazy_qp and remote_addr != self.address:
                return self.create_qp(remote_addr)
            raise ProtocolError(
                f"{self.name}: no queue pair to address {remote_addr}; "
                "exchange QPs during communicator setup first"
            )
        return qp

    def set_memory_writer(
        self, writer: Callable[[MessageHeader, Any], Event]
    ) -> None:
        """Install the passive-side WRITE path (platform memory management).

        The writer receives ``(header, data)``; ``header.meta`` carries the
        initiator-supplied destination descriptor (virtual address tuple).
        """
        if self._memory_writer is not None:
            raise ProtocolError(f"{self.name}: memory writer already set")
        self._memory_writer = writer

    def set_segment_writer(
        self, writer: Callable[[MessageHeader, int], None]
    ) -> None:
        """Install cut-through landing: called per arriving WRITE segment so
        memory traffic overlaps the arrival instead of trailing it."""
        if self._segment_writer is not None:
            raise ProtocolError(f"{self.name}: segment writer already set")
        self._segment_writer = writer

    # -- verbs ------------------------------------------------------------------

    def post_send(self, dst_addr: int, nbytes: int, meta: Any = None,
                  data: Any = None, pace: Any = None) -> Event:
        """Two-sided SEND verb."""
        qp = self.qp_to(dst_addr)
        return super().send_message(
            dst_addr, nbytes, meta=meta, data=data, kind=_SEND,
            session=qp.qp_num, pace=pace,
        )

    def post_write(self, dst_addr: int, nbytes: int, remote_descriptor: Any,
                   data: Any = None, pace: Any = None) -> Event:
        """One-sided WRITE verb: lands directly in remote memory."""
        qp = self.qp_to(dst_addr)
        return super().send_message(
            dst_addr, nbytes, meta=remote_descriptor, data=data,
            kind=_WRITE, session=qp.qp_num, pace=pace,
        )

    def send_message(self, dst_addr, nbytes, meta=None, data=None,
                     kind=_SEND, session=0, pace=None):
        """Generic entry (used by the CCLO Tx system); dispatches on verb."""
        if kind == _WRITE:
            return self.post_write(dst_addr, nbytes, meta, data, pace=pace)
        return self.post_send(dst_addr, nbytes, meta=meta, data=data,
                              pace=pace)

    # -- flow control -------------------------------------------------------------

    def _tx_flow_control(self, header: MessageHeader,
                         chunk: int) -> Optional[Event]:
        # Credits on hand are taken synchronously; only a starved QP waits.
        if chunk == 0:
            return None
        credits = self._by_remote[header.dst_addr].credits
        if credits.try_take(chunk):
            return None
        return credits.take(chunk)

    def _flow_tx_ready(self, header: MessageHeader) -> bool:
        # Credits are transparent only when untouched: the bucket is full,
        # nobody queues on it, and its capacity clears the bandwidth-delay
        # product so per-segment accounting could never have stalled.
        qp = self._by_remote.get(header.dst_addr)
        if qp is None:
            return False
        credits = qp.credits
        return (not credits._waiters
                and credits._available == credits.capacity
                and credits.capacity >= self._flow_window_floor())

    def _flow_rx_effects(self, burst) -> None:
        # Cut-through landings: packet mode writes every WRITE segment to
        # memory as it arrives, and the rendezvous drain waits on the last
        # of them.  The burst issues that completion-gating last landing;
        # the earlier overlapped writes are elided (they finish long before
        # the train does on any path idle enough to admit a burst).
        header: MessageHeader = burst.meta
        if header.kind == _WRITE and self._segment_writer is not None:
            self._segment_writer(header, burst.last_bytes)

    def _on_segment_delivered(self, segment) -> None:
        if segment.payload_bytes == 0:
            return
        credit_hdr = MessageHeader(
            msg_id=0,
            src_addr=self.address,
            dst_addr=segment.src,
            nbytes=16,
            kind="credit",
            meta=segment.payload_bytes,
        )
        self.endpoint.send(
            Segment(
                src=self.address,
                dst=segment.src,
                payload_bytes=16,
                protocol=self.protocol_name,
                meta=credit_hdr,
                mtu=self.mtu,
            )
        )

    def _on_segment(self, segment) -> None:
        header: MessageHeader = segment.meta
        if header.kind == "credit":
            qp = self._by_remote.get(header.src_addr)
            if qp is not None:
                qp.credits.give(header.meta)
            return
        if (header.kind == _WRITE
                and segment.payload_bytes > 0
                and self._segment_writer is not None):
            self._segment_writer(header, segment.payload_bytes)
        super()._on_segment(segment)

    # -- delivery ---------------------------------------------------------------

    def _deliver(self, header: MessageHeader, data: Any) -> None:
        if header.kind == _WRITE:
            if self._memory_writer is None:
                raise ProtocolError(
                    f"{self.name}: WRITE arrived but no memory writer is "
                    "installed (platform integration missing)"
                )
            self.writes_completed += 1
            self._memory_writer(header, data)
            return
        super()._deliver(header, data)
