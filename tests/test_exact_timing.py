"""Exact-timing pins for the packet-fidelity event path.

Every scenario here runs in packet fidelity and reports simulated times —
per-rank completion, per-message delivery, per-segment arrival — that are
compared *bit for bit* (``float.fromhex``) against values recorded before
the kernel's event fusions existed: switch forwarding charged by the
ingress link's delivery, synchronous credit/slot grants, inline DMP operand
gates and delayed process starts.  Each fusion removes heap events while
claiming to leave every simulated time unchanged; these pins are the
oracle independent of that claim.

The scenarios are chosen so each fusion is exercised where it could bite:

- an 8-node fat-tree ring allreduce (cross-switch hops, RDMA credits,
  rendezvous and the DMP), eager and rendezvous;
- one driver op of every opcode on an 8-node Coyote cluster, at an eager
  and a rendezvous size;
- segments from different ingress links reaching one switch egress at the
  same instant, on a star and across a leaf-spine;
- a credit-starved RDMA queue pair, so the credit slow path really waits;
- small collectives whose root fills several DMP pipelines at once;
- a DMP with a single parallel slot, so slot grants really queue;
- a TCP cluster, whose window and retransmission hooks keep their events.

Regenerate the table (only when a change is *meant* to move sim times) with
``PYTHONPATH=src python tests/test_exact_timing.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.bench.harness import _buffers_for, scale_topology_factory
from repro.cclo.config_mem import CcloConfig
from repro.cclo.microcontroller import CollectiveArgs
from repro.cluster import build_fpga_cluster
from repro.driver import attach_drivers
from repro.network import Segment
from repro.network.fidelity import fidelity_override
from repro.network.topology import LeafSpineTopology, StarTopology
from repro.platform.base import BufferLocation
from repro.protocols.rdma import RdmaPoe
from repro.sim import Environment, all_of


def _run_recording(env, events):
    """Run until every event fired; return each one's firing time."""
    times = [None] * len(events)
    for i, ev in enumerate(events):
        ev.add_callback(lambda _ev, i=i: times.__setitem__(i, env.now))
    env.run(until=all_of(env, events))
    return times


def _engine_collective(cluster, opcode, size, **kwargs):
    """One collective issued straight to every engine; per-rank times."""
    bufs = [_buffers_for(cluster, opcode, size, r, 0, BufferLocation.DEVICE)
            for r in range(cluster.size)]
    events = cluster.call_on_all(lambda r: CollectiveArgs(
        opcode=opcode, comm_id=0, nbytes=size, root=0, tag=1 << 20,
        sbuf=bufs[r][0], rbuf=bufs[r][1], **kwargs))
    return _run_recording(cluster.env, events)


def scenario_fattree_ring():
    out = {}
    factory = scale_topology_factory("fattree", 8)
    for sync, size in (("eager", 64 * units.KIB), ("rndz", units.MIB)):
        cluster = build_fpga_cluster(8, topology_factory=factory,
                                     peering="lazy")
        out[f"fattree_ring_{sync}"] = _engine_collective(
            cluster, "allreduce", size, protocol=sync, algorithm="ring")
    return out


def _driver_op(drivers, opcode, size):
    n = len(drivers)
    count = size // 4

    def arr(k=1):
        return np.arange(k * count, dtype=np.float32)

    reqs = []
    for rank, drv in enumerate(drivers):
        if opcode == "sendrecv":
            if rank == 0:
                reqs.append(drv.send(arr(), size, dst=n - 1, tag=7))
            elif rank == n - 1:
                reqs.append(drv.recv(arr(), size, src=0, tag=7))
        elif opcode == "bcast":
            reqs.append(drv.bcast(arr(), size, root=1))
        elif opcode == "reduce":
            reqs.append(drv.reduce(arr(), arr(), size, root=2))
        elif opcode == "allreduce":
            reqs.append(drv.allreduce(arr(), arr(), size))
        elif opcode == "gather":
            reqs.append(drv.gather(arr(), arr(n), size, root=3))
        elif opcode == "allgather":
            reqs.append(drv.allgather(arr(), arr(n), size))
        elif opcode == "scatter":
            reqs.append(drv.scatter(arr(n), arr(), size, root=4))
        elif opcode == "alltoall":
            reqs.append(drv.alltoall(arr(n), arr(n), size))
        elif opcode == "barrier":
            reqs.append(drv.barrier(sync=False))
        else:
            reqs.append(drv.nop())
    return [r.event for r in reqs]


DRIVER_OPS = ("sendrecv", "bcast", "reduce", "allreduce", "gather",
              "allgather", "scatter", "alltoall", "barrier", "nop")


def scenario_driver_ops():
    out = {}
    for size in (2 * units.KIB, 128 * units.KIB):
        for opcode in DRIVER_OPS:
            if opcode in ("barrier", "nop") and size != 2 * units.KIB:
                continue
            cluster = build_fpga_cluster(8, platform="coyote")
            drivers = attach_drivers(cluster)
            events = _driver_op(drivers, opcode, size)
            out[f"driver_{opcode}_{size}"] = _run_recording(
                cluster.env, events)
    return out


def _raw_arrivals(topology, senders, dst, n_segments, payload):
    """Every sender pushes *n_segments* back to back toward *dst* at t=0;
    returns the arrival log at *dst* as (time, src, seqno) triples."""
    env = topology.env
    eps = {a: topology.add_endpoint(a) for a in sorted(set(senders) | {dst})}
    log = []
    eps[dst].on_receive(lambda seg: log.append(
        (env.now, float(seg.src), float(seg.seqno))))
    for src in senders:
        for k in range(n_segments):
            eps[src].send(Segment(src, dst, payload_bytes=payload,
                                  mtu=4096, seqno=k))
    env.run()
    return [x for entry in log for x in entry]


def scenario_same_instant_egress():
    star = StarTopology(Environment())
    leafspine = LeafSpineTopology(Environment(), ports_per_leaf=2,
                                  n_spines=2)
    return {
        "star_same_instant": _raw_arrivals(
            star, [0, 1, 2], 3, 3, 4 * units.KIB),
        "leafspine_same_instant": _raw_arrivals(
            leafspine, [0, 1, 3], 2, 2, 8 * units.KIB),
    }


def scenario_same_instant_dmp():
    # Small F2F collectives on the star: the root's DMP fills several
    # instruction pipelines at one instant, so sibling operand reads and
    # result writes share its memory port in one timestep.
    out = {}
    for opcode in ("gather", "reduce", "allreduce", "scatter"):
        for sync in ("eager", "rndz"):
            cluster = build_fpga_cluster(8, platform="coyote")
            out[f"star_{opcode}_{sync}_1k"] = _engine_collective(
                cluster, opcode, units.KIB, protocol=sync)
    return out


def scenario_credit_starved():
    env = Environment()
    topo = StarTopology(env)
    poes = [RdmaPoe(env, topo.add_endpoint(a), credit_bytes=64 * units.KIB)
            for a in range(3)]
    for a in poes:
        for b in poes:
            if a is not b:
                a.create_qp(b.address)
    delivered = []
    for poe in poes:
        poe.on_message(lambda hdr, _data, me=poe.address: delivered.append(
            (env.now, float(hdr.src_addr), float(me), float(hdr.nbytes))))
    sends = [
        poes[0].post_send(2, units.MIB),
        poes[1].post_send(2, 512 * units.KIB),
        poes[2].post_send(0, 100_000),
        poes[0].post_send(1, 40 * units.KIB),
    ]
    done = _run_recording(env, sends)
    env.run()
    return {"credit_starved_local": done,
            "credit_starved_delivered": [x for d in delivered for x in d]}


def scenario_single_dmp_slot():
    out = {}
    config = CcloConfig(dmp_parallel_slots=1)
    for opcode, size, sync in (("allreduce", 64 * units.KIB, "eager"),
                               ("reduce", 256 * units.KIB, "rndz"),
                               ("bcast", 32 * units.KIB, "eager")):
        cluster = build_fpga_cluster(4, platform="coyote",
                                     cclo_config=config)
        out[f"one_slot_{opcode}"] = _engine_collective(
            cluster, opcode, size, protocol=sync)
    return out


def scenario_tcp():
    out = {}
    for opcode, size in (("allreduce", 96 * units.KIB),
                         ("bcast", 256 * units.KIB)):
        cluster = build_fpga_cluster(4, protocol="tcp", platform="coyote")
        out[f"tcp_{opcode}"] = _engine_collective(cluster, opcode, size)
    return out


SCENARIOS = (scenario_fattree_ring, scenario_driver_ops,
             scenario_same_instant_egress, scenario_same_instant_dmp,
             scenario_credit_starved,
             scenario_single_dmp_slot, scenario_tcp)


def run_all():
    out = {}
    with fidelity_override("packet"):
        for scenario in SCENARIOS:
            out.update(scenario())
    return out


EXPECTED = {
    'credit_starved_delivered': [
        '0x1.820ada981d32fp-17',
        '0x0.0p+0',
        '0x1.0000000000000p+0',
        '0x1.4000000000000p+15',
        '0x1.7a6df832ae8c7p-16',
        '0x1.0000000000000p+1',
        '0x0.0p+0',
        '0x1.86a0000000000p+16',
        '0x1.706c73769253fp-14',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+1',
        '0x1.0000000000000p+19',
        '0x1.4ce12220e9937p-13',
        '0x0.0p+0',
        '0x1.0000000000000p+1',
        '0x1.0000000000000p+20',
    ],
    'credit_starved_local': [
        '0x1.3dbe78b56c330p-13',
        '0x1.495299a9d9887p-14',
        '0x1.2b986f001d9c2p-16',
        '0x1.78f56304b94dap-18',
    ],
    'driver_allgather_131072': [
        '0x1.60872af14a80ap-13',
        '0x1.60872af14a80ap-13',
        '0x1.60872af14a80ap-13',
        '0x1.60872af14a80ap-13',
        '0x1.60872af14a80ap-13',
        '0x1.60872af14a80ap-13',
        '0x1.60872af14a80ap-13',
        '0x1.60872af14a80ap-13',
    ],
    'driver_allgather_2048': [
        '0x1.2d085344bfe1fp-15',
        '0x1.2d085344bfe1fp-15',
        '0x1.2d085344bfe1fp-15',
        '0x1.2d085344bfe1fp-15',
        '0x1.2d085344bfe1fp-15',
        '0x1.2d085344bfe1fp-15',
        '0x1.2d085344bfe1fp-15',
        '0x1.2d085344bfe1fp-15',
    ],
    'driver_allreduce_131072': [
        '0x1.5005dd64b3de8p-13',
        '0x1.5005dd64b3de8p-13',
        '0x1.5005dd64b3de8p-13',
        '0x1.5005dd64b3de8p-13',
        '0x1.5005dd64b3de8p-13',
        '0x1.5005dd64b3de8p-13',
        '0x1.5005dd64b3de8p-13',
        '0x1.5005dd64b3de8p-13',
    ],
    'driver_allreduce_2048': [
        '0x1.01651c7ebc8c7p-14',
        '0x1.01651c7ebc8c7p-14',
        '0x1.01651c7ebc8c7p-14',
        '0x1.01651c7ebc8c7p-14',
        '0x1.01651c7ebc8c7p-14',
        '0x1.01651c7ebc8c7p-14',
        '0x1.01651c7ebc8c7p-14',
        '0x1.01651c7ebc8c7p-14',
    ],
    'driver_alltoall_131072': [
        '0x1.75c5d4fbfe085p-14',
        '0x1.75c5d4fbfe085p-14',
        '0x1.75c5d4fbfe085p-14',
        '0x1.75c5d4fbfe085p-14',
        '0x1.75c5d4fbfe085p-14',
        '0x1.75c5d4fbfe085p-14',
        '0x1.75c5d4fbfe085p-14',
        '0x1.75c5d4fbfe085p-14',
    ],
    'driver_alltoall_2048': [
        '0x1.e6b8efe6a7e20p-17',
        '0x1.e6b8efe6a7e20p-17',
        '0x1.e6b8efe6a7e20p-17',
        '0x1.e6b8efe6a7e20p-17',
        '0x1.e6b8efe6a7e20p-17',
        '0x1.e6b8efe6a7e20p-17',
        '0x1.e6b8efe6a7e20p-17',
        '0x1.e6b8efe6a7e20p-17',
    ],
    'driver_barrier_2048': [
        '0x1.972b13a2c9c21p-17',
        '0x1.972b13a2c9c21p-17',
        '0x1.972b13a2c9c21p-17',
        '0x1.972b13a2c9c21p-17',
        '0x1.972b13a2c9c21p-17',
        '0x1.972b13a2c9c21p-17',
        '0x1.972b13a2c9c21p-17',
        '0x1.972b13a2c9c21p-17',
    ],
    'driver_bcast_131072': [
        '0x1.0998dc5bd958dp-14',
        '0x1.4f20e233191d4p-15',
        '0x1.907bd45f4c4ecp-15',
        '0x1.907bd45f4c4ecp-15',
        '0x1.d1d6c68b7f803p-15',
        '0x1.907bd45f4c4eap-15',
        '0x1.d1d6c68b7f802p-15',
        '0x1.d1d6c68b7f804p-15',
    ],
    'driver_bcast_2048': [
        '0x1.fdd6bdc4b8730p-18',
        '0x1.a78779d7c4d94p-18',
        '0x1.05a15b890b655p-17',
        '0x1.0c57582fba913p-17',
        '0x1.130d54d669bd0p-17',
        '0x1.2ab9dc52791a9p-17',
        '0x1.316fd8f928466p-17',
        '0x1.3825d59fd7723p-17',
    ],
    'driver_gather_131072': [
        '0x1.b4f943b6f3bc1p-16',
        '0x1.d16aa5eab322dp-15',
        '0x1.b4f943b6f3bc1p-16',
        '0x1.991d811d50f0cp-13',
        '0x1.b4f943b6f3bc1p-16',
        '0x1.d16aa5eab322dp-15',
        '0x1.b4f943b6f3bc1p-16',
        '0x1.bd61304121264p-14',
    ],
    'driver_gather_2048': [
        '0x1.91110d992bd34p-17',
        '0x1.fd77975b63eabp-18',
        '0x1.35128c5cce680p-18',
        '0x1.351de48b4cc8ep-15',
        '0x1.f7297d807d944p-16',
        '0x1.a1bce423128adp-16',
        '0x1.53499fc3f9311p-16',
        '0x1.0b29634c1860dp-16',
    ],
    'driver_nop_2048': [
        '0x1.853b3dc3afed8p-19',
        '0x1.853b3dc3afed8p-19',
        '0x1.853b3dc3afed8p-19',
        '0x1.853b3dc3afed8p-19',
        '0x1.853b3dc3afed8p-19',
        '0x1.853b3dc3afed8p-19',
        '0x1.853b3dc3afed8p-19',
        '0x1.853b3dc3afed8p-19',
    ],
    'driver_reduce_131072': [
        '0x1.bf3617dbf8b32p-15',
        '0x1.b4f943b6f3bc1p-16',
        '0x1.c24c0609b027dp-14',
        '0x1.b4f943b6f3bc1p-16',
        '0x1.bf3617dbf8b32p-15',
        '0x1.b4f943b6f3bc1p-16',
        '0x1.51f7c6ee3bc41p-14',
        '0x1.b4f943b6f3bc1p-16',
    ],
    'driver_reduce_2048': [
        '0x1.70660326de0c8p-16',
        '0x1.aca80a7adf50fp-16',
        '0x1.efb7d80fe4e35p-16',
        '0x1.35128c5cce680p-18',
        '0x1.fd77975b63eabp-18',
        '0x1.773fda55b47e5p-17',
        '0x1.efc3e8fdb7074p-17',
        '0x1.3423fbd2dcc81p-16',
    ],
    'driver_scatter_131072': [
        '0x1.82f62a4c87c7fp-15',
        '0x1.afa58d8c8028ep-15',
        '0x1.c607b9fb6dcd3p-15',
        '0x1.25f5fc3fc8905p-14',
        '0x1.6420f0beb73f4p-14',
        '0x1.529ae4b0cf7d7p-14',
        '0x1.68f29650cbadfp-14',
        '0x1.7423ac8842802p-14',
    ],
    'driver_scatter_2048': [
        '0x1.fdd6bdc4b8730p-18',
        '0x1.05a15b890b655p-17',
        '0x1.0c57582fba913p-17',
        '0x1.2403dfabc9eecp-17',
        '0x1.a78779d7c4d94p-18',
        '0x1.2ab9dc52791a9p-17',
        '0x1.316fd8f928466p-17',
        '0x1.3825d59fd7723p-17',
    ],
    'driver_sendrecv_131072': [
        '0x1.1e63032ffd62ep-16',
        '0x1.a118e78863c5fp-16',
    ],
    'driver_sendrecv_2048': [
        '0x1.35128c5cce680p-18',
        '0x1.fdd6bdc4b8730p-18',
    ],
    'fattree_ring_eager': [
        '0x1.de754beaf50cbp-14',
        '0x1.de754beaf50cbp-14',
        '0x1.cf92cd339e999p-14',
        '0x1.cf92cd339e999p-14',
        '0x1.de754beaf50cbp-14',
        '0x1.de754beaf50cbp-14',
        '0x1.cf92cd339e999p-14',
        '0x1.cf92cd339e999p-14',
    ],
    'fattree_ring_rndz': [
        '0x1.5cf041293eb6ap-11',
        '0x1.514ae72a29492p-11',
        '0x1.499a2d06562e2p-11',
        '0x1.515d019b3027cp-11',
        '0x1.5cf60d8076aa2p-11',
        '0x1.5150b381613cap-11',
        '0x1.499ff95d8e21ap-11',
        '0x1.51573543f8344p-11',
    ],
    'leafspine_same_instant': [
        '0x1.89294b5e3b5f6p-19',
        '0x1.8000000000000p+1',
        '0x0.0p+0',
        '0x1.e25e26a26651ep-19',
        '0x1.8000000000000p+1',
        '0x1.0000000000000p+0',
        '0x1.b16d374656665p-18',
        '0x0.0p+0',
        '0x0.0p+0',
        '0x1.de07a4e86bdf9p-18',
        '0x1.0000000000000p+0',
        '0x0.0p+0',
        '0x1.0551094540ac6p-17',
        '0x0.0p+0',
        '0x1.0000000000000p+0',
        '0x1.1b9e40164b691p-17',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
    ],
    'one_slot_allreduce': [
        '0x1.841bdfd4e5cb3p-15',
        '0x1.841bdfd4e5cb3p-15',
        '0x1.841bdfd4e5cb3p-15',
        '0x1.841bdfd4e5cb3p-15',
    ],
    'one_slot_bcast': [
        '0x1.73a35de41bfecp-17',
        '0x1.7d1d768bd2cfbp-17',
        '0x1.edcf461762db8p-17',
        '0x1.2f408ad17973ap-16',
    ],
    'one_slot_reduce': [
        '0x1.08dcfe07544a8p-13',
        '0x1.4de988107a8c8p-15',
        '0x1.6848047adfd73p-14',
        '0x1.4de988107a8c8p-15',
    ],
    'star_allreduce_eager_1k': [
        '0x1.87614bbd92fa1p-15',
        '0x1.87614bbd92fa1p-15',
        '0x1.87614bbd92fa1p-15',
        '0x1.87614bbd92fa1p-15',
        '0x1.87614bbd92fa1p-15',
        '0x1.87614bbd92fa1p-15',
        '0x1.87614bbd92fa1p-15',
        '0x1.87614bbd92fa1p-15',
    ],
    'star_allreduce_rndz_1k': [
        '0x1.caf1b07aea53dp-17',
        '0x1.085c50a906ea6p-16',
        '0x1.085c50a906ea6p-16',
        '0x1.2b3fc91498aacp-16',
        '0x1.085c50a906ea6p-16',
        '0x1.2b3fc91498aacp-16',
        '0x1.2b3fc91498aaep-16',
        '0x1.4e2341802a6b4p-16',
    ],
    'star_gather_eager_1k': [
        '0x1.f8a52681636bep-16',
        '0x1.aa38c90056c04p-16',
        '0x1.5e087e9f24d2ap-16',
        '0x1.160a3acff375ep-16',
        '0x1.a3d02eae73cfdp-17',
        '0x1.2393df5981a96p-17',
        '0x1.561fa162fe40cp-18',
        '0x1.c8571c4687a3dp-20',
    ],
    'star_gather_rndz_1k': [
        '0x1.065d0acbcca3fp-17',
        '0x1.30a45c191c37fp-18',
        '0x1.3e1055667a8f9p-18',
        '0x1.4b7c4eb3d8e74p-18',
        '0x1.58e84801373eep-18',
        '0x1.6654414e95968p-18',
        '0x1.73c03a9bf3ee3p-18',
        '0x1.812c33e95245dp-18',
    ],
    'star_reduce_eager_1k': [
        '0x1.a2bce2daba4f9p-16',
        '0x1.c8571c4687a3dp-20',
        '0x1.561fa162fe40cp-18',
        '0x1.1d14bdda2d4c5p-17',
        '0x1.8f19ab02db785p-17',
        '0x1.008f4c15c4d22p-16',
        '0x1.3991c2aa1be7fp-16',
        '0x1.7294393e72fdcp-16',
    ],
    'star_reduce_rndz_1k': [
        '0x1.44b9f3753ae76p-17',
        '0x1.49a30a1505b2ap-18',
        '0x1.570f0362640a5p-18',
        '0x1.647afcafc261fp-18',
        '0x1.71e6f5fd20b99p-18',
        '0x1.7f52ef4a7f113p-18',
        '0x1.8cbee897dd68dp-18',
        '0x1.9a2ae1e53bc07p-18',
    ],
    'star_same_instant': [
        '0x1.2ff4701a106cep-19',
        '0x0.0p+0',
        '0x0.0p+0',
        '0x1.5c8eddbc25e62p-19',
        '0x1.0000000000000p+0',
        '0x0.0p+0',
        '0x1.89294b5e3b5f6p-19',
        '0x1.0000000000000p+1',
        '0x0.0p+0',
        '0x1.b5c3b90050d8ap-19',
        '0x0.0p+0',
        '0x1.0000000000000p+0',
        '0x1.e25e26a26651ep-19',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+0',
        '0x1.077c4a223de59p-18',
        '0x1.0000000000000p+1',
        '0x1.0000000000000p+0',
        '0x1.1dc980f348a23p-18',
        '0x0.0p+0',
        '0x1.0000000000000p+1',
        '0x1.3416b7c4535edp-18',
        '0x1.0000000000000p+0',
        '0x1.0000000000000p+1',
        '0x1.4a63ee955e1b7p-18',
        '0x1.0000000000000p+1',
        '0x1.0000000000000p+1',
    ],
    'star_scatter_eager_1k': [
        '0x1.853b3dc3afedap-19',
        '0x1.19b9bf86d5b66p-18',
        '0x1.2725b8d4340e1p-18',
        '0x1.3491b2219265bp-18',
        '0x1.41fdab6ef0bd5p-18',
        '0x1.4f69a4bc4f150p-18',
        '0x1.5cd59e09ad6cap-18',
        '0x1.6a4197570bc44p-18',
    ],
    'star_scatter_rndz_1k': [
        '0x1.750f947a22696p-18',
        '0x1.bf4ca373147b4p-18',
        '0x1.bff450622bb8ep-18',
        '0x1.c09bfd5142f68p-18',
        '0x1.c4740d6beceedp-18',
        '0x1.ff4e1c4a3af02p-18',
        '0x1.fff5c939522dcp-18',
        '0x1.00e06a836a79ep-17',
    ],
    'tcp_allreduce': [
        '0x1.17729a87d2af3p-14',
        '0x1.17729a87d2af3p-14',
        '0x1.17729a87d2af3p-14',
        '0x1.17729a87d2af3p-14',
    ],
    'tcp_bcast': [
        '0x1.2c35f91642ebfp-14',
        '0x1.7d84e2c9433ecp-14',
        '0x1.7d8f5d9834b2ap-14',
        '0x1.88ebbee36f6bcp-14',
    ],
}


@pytest.fixture(scope="module")
def measured():
    return run_all()


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_sim_times_bit_identical(measured, key):
    expected = [float.fromhex(h) for h in EXPECTED[key]]
    # Compare as hex strings so a mismatch prints the differing bits.
    assert [t.hex() for t in measured[key]] == [t.hex() for t in expected]


def test_table_covers_every_scenario_key(measured):
    assert sorted(measured) == sorted(EXPECTED)


if __name__ == "__main__":
    print("EXPECTED = {")
    for name, times in sorted(run_all().items()):
        print(f"    {name!r}: [")
        for t in times:
            print(f"        {t.hex()!r},")
        print("    ],")
    print("}")
