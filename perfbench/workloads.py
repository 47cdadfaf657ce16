"""The benchmark's three workloads, built only from the public simulator API.

Each workload is one *repetition*: ``setup()`` builds a fresh cluster and
returns a :class:`Rep`, whose ``ops()`` generator yields the collectives
to run one after another.  Everything a generator does between two yields
(making inputs, idling the simulated clock) happens outside the timed
window; the runner times each op from issue to completion.

Why these three (also recorded in ``BENCHMARK.json``):

- ``ring-chunked``: a 4 MiB ring allreduce on a 64-node fat tree moves
  64 KiB per ring step, below the 8 MiB flow admission floor, so the heap,
  the per-segment link path, the switch and POE control do the work.
- ``bulk-flow``: 16 MiB allreduce + bcast on a 128-node fat tree, where the
  flow-fidelity burst/convoy path and POE admission do the work.
- ``app-loop``: an 8-node cluster driven through the host driver in a
  closed loop of small collectives on float32 host arrays, the way DLRM and
  vecmat use ACCL+; the driver, platform/PCIe, uC/DMP/RBM and the
  functional memory model do the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

import numpy as np

import repro.cluster
from repro import units
from repro.bench.harness import _buffers_for, scale_topology_factory
from repro.cclo.microcontroller import CollectiveArgs
from repro.driver import attach_drivers
from repro.platform.base import BufferLocation
from repro.sim import Environment

KIB = units.KIB
MIB = units.MIB


@dataclass
class Op:
    """One collective across the cluster, as the runner sees it.

    ``issue()`` submits it on every rank and returns the completion events;
    ``check()`` returns ``None`` when the output is right, or what is wrong.
    """

    key: str
    issue: Callable[[], list]
    check: Callable[[], Optional[str]] = lambda: None


@dataclass
class Rep:
    env: Environment
    ops: Callable[[], Iterator[Op]]


# ---------------------------------------------------------------------------
# ring-chunked and bulk-flow: timing-only device buffers on a fat tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FabricWorkload:
    """Fixed collectives on one fresh fat-tree cluster per repetition.

    Buffers are timing-only (no payload values), so the inputs do not
    depend on the seed and correctness is the simulated time per op.
    """

    nodes: int
    size: int
    collectives: tuple        # (opcode, algorithm or None) in issue order
    fidelity: str = "flow"
    # Relative tolerance on simulated time against the packet-fidelity
    # reference: 0 where flow mode fast-forwards nothing, 1e-2 (the
    # figX_scale tolerance of ``repro.bench.validate``) where it does.
    sim_rtol: float = 0.0

    def setup(self, seed: int) -> Rep:
        del seed  # fixed inputs; see the class docstring
        factory = scale_topology_factory("fattree", self.nodes)
        cluster = repro.cluster.build_fpga_cluster(
            self.nodes, topology_factory=factory, peering="lazy")
        plans = [
            {rank: _buffers_for(cluster, opcode, self.size, rank, 0,
                                BufferLocation.DEVICE)
             for rank in range(self.nodes)}
            for opcode, _ in self.collectives
        ]

        def ops() -> Iterator[Op]:
            for i, (opcode, algorithm) in enumerate(self.collectives):
                yield Op(self.key(opcode, algorithm),
                         self._issuer(cluster, opcode, algorithm, plans[i],
                                      tag=(1 << 20) + i))

        return Rep(cluster.env, ops)

    def key(self, opcode: str, algorithm: Optional[str]) -> str:
        return f"{opcode}:{algorithm or 'auto'}:{self.size}B:{self.nodes}n"

    def _issuer(self, cluster, opcode, algorithm, buffers, tag):
        def make_args(rank):
            sbuf, rbuf = buffers[rank]
            return CollectiveArgs(
                opcode=opcode, comm_id=0, nbytes=self.size, root=0, tag=tag,
                sbuf=sbuf, rbuf=rbuf, protocol="rndz", algorithm=algorithm)
        return lambda: cluster.call_on_all(make_args)


# ---------------------------------------------------------------------------
# app-loop: closed loop of small host-array collectives through the driver
# ---------------------------------------------------------------------------

APP_NODES = 8
APP_OPCODES = ("allreduce", "bcast", "reduce", "gather")
APP_SIZES = tuple(256 << i for i in range(9))          # 256 B .. 64 KiB
#: Simulated start of op ``i`` is ``APP_T0 + i * APP_SLOT``.  Starting every
#: op on a slot of one binade ([1 s, 2 s)) makes float rounding of absolute
#: times the same for every slot, so an op's simulated time depends only on
#: its shape and one reference per shape holds for any seed's op order.  The
#: idle gap stands for the application's compute between collectives.
APP_T0 = 1.0
APP_SLOT = 2.0 ** -10                                   # ~977 us


def app_key(opcode: str, size: int, root: int) -> str:
    return f"{opcode}:{size}B:root{root if opcode != 'allreduce' else 0}"


#: The loop's ops: every opcode at every size from every root, once.  A
#: fixed mix keeps the work equal across seeds; the seed draws the order
#: and the payloads.  Allreduce ignores its root.
APP_MIX = tuple((opcode, size, root)
                for opcode in APP_OPCODES
                for size in APP_SIZES
                for root in range(APP_NODES))


@dataclass(frozen=True)
class AppLoop:
    n_ops: int = len(APP_MIX)
    fidelity: str = "packet"
    sim_rtol: float = 0.0

    def setup(self, seed: int) -> Rep:
        def draws() -> Iterator[tuple]:
            rng = np.random.default_rng(seed)
            for i in rng.permutation(len(APP_MIX))[:self.n_ops]:
                opcode, size, root = APP_MIX[i]
                # Integer-valued float32 inputs keep every sum exact, so the
                # numpy check is an equality, whatever the reduction order
                # inside the collective.
                data = rng.integers(-1024, 1024, (APP_NODES, size // 4)
                                    ).astype(np.float32)
                yield opcode, size, root, data

        return app_rep(draws())


def app_rep(draws: Iterator[tuple]) -> Rep:
    """A fresh 8-node cluster running ``(opcode, size, root, data)`` draws,
    one per slot, each only after every rank finished the one before."""
    cluster = repro.cluster.build_fpga_cluster(
        APP_NODES, protocol="rdma", platform="coyote",
        env=Environment(APP_T0))
    drivers = attach_drivers(cluster)
    env = cluster.env

    def ops() -> Iterator[Op]:
        for i, (opcode, size, root, data) in enumerate(draws):
            slot = APP_T0 + i * APP_SLOT
            if env.now > slot:
                raise RuntimeError(
                    f"op {i - 1} overran its {APP_SLOT * 1e6:.0f} us slot")
            env.run(until=slot)
            yield issue_app_op(drivers, opcode, size, root, data)

    return Rep(env, ops)


def issue_app_op(drivers, opcode: str, size: int, root: int,
                 data: np.ndarray) -> Op:
    """One collective on host arrays, with its numpy reference check."""
    n = len(drivers)
    out: Dict[int, np.ndarray] = {}
    for rank in range(n):
        if opcode == "bcast":
            out[rank] = data[root].copy() if rank == root else \
                np.zeros_like(data[root])
        elif opcode == "gather" and rank == root:
            out[rank] = np.zeros(n * data.shape[1], np.float32)
        elif opcode == "allreduce" or (opcode == "reduce" and rank == root):
            out[rank] = np.zeros_like(data[rank])

    def issue() -> list:
        reqs = []
        for rank, drv in enumerate(drivers):
            if opcode == "allreduce":
                req = drv.allreduce(data[rank], out[rank], size)
            elif opcode == "bcast":
                req = drv.bcast(out[rank], size, root)
            elif opcode == "reduce":
                req = drv.reduce(data[rank], out.get(rank), size, root)
            else:
                req = drv.gather(data[rank], out.get(rank), size, root)
            reqs.append(req.event)
        return reqs

    def check() -> Optional[str]:
        if opcode == "bcast":
            expected = {r: data[root] for r in range(n)}
        elif opcode == "gather":
            expected = {root: data.reshape(-1)}
        else:
            total = data.sum(axis=0, dtype=np.float32)
            expected = ({r: total for r in range(n)} if opcode == "allreduce"
                        else {root: total})
        for rank, want in expected.items():
            if not np.array_equal(out[rank], want):
                return f"rank {rank} output differs from numpy"
        return None

    return Op(app_key(opcode, size, root), issue, check)


WORKLOADS = {
    "ring-chunked": {
        "full": FabricWorkload(64, 4 * MIB, (("allreduce", "ring"),)),
        "tiny": FabricWorkload(8, 256 * KIB, (("allreduce", "ring"),)),
    },
    "bulk-flow": {
        "full": FabricWorkload(128, 16 * MIB, (("allreduce", "reduce_bcast"),
                                               ("bcast", None)),
                               sim_rtol=1e-2),
        "tiny": FabricWorkload(8, 1 * MIB, (("allreduce", "reduce_bcast"),
                                            ("bcast", None)),
                               sim_rtol=1e-2),
    },
    "app-loop": {
        "full": AppLoop(),
        "tiny": AppLoop(12),
    },
}
