"""Closed-loop live repair rounds on an in-process loopback cluster.

One client keeps one operation outstanding.  Every round writes one
stripe and repairs one of its chunks on each path, in a seeded order;
the lost index walks a seeded permutation of all nine positions of
``rs(6,3)``, so data and parity chunks are both rebuilt.  Before a
repair the chunk is dropped from its server, and the repair rebuilds it
onto that same server.  The previous round's stripe is then retired, so
the bytes stored stay fixed however long the loop runs, and the stripe
left at the end, with its rebuilt chunks, is read back and compared.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.live.cluster import LiveCluster, LiveStripe
from repro.live.config import LiveConfig
from repro.live.wire import MessageType

SPEC = "rs(6,3)"
K, N = 6, 9
NUM_SERVERS = 10
#: (metric suffix, strategy, num_slices)
PATHS: "List[Tuple[str, str, int]]" = [
    ("star", "star", 1),
    ("ppr", "ppr", 1),
    ("ppr_s16", "ppr", 16),
    ("chain_s16", "chain", 16),
]
SETUPS = 3


#: A timed sample: ``(seconds, index into host_ref_ms)``, the index of
#: the host-speed probe taken right after the sample's round or set-up.
Sample = Tuple[float, int]


@dataclass
class LiveResult:
    setup_s: "List[Sample]" = field(default_factory=list)
    repair_s: "Dict[str, List[Sample]]" = field(
        default_factory=lambda: {name: [] for name, _, _ in PATHS}
    )
    repaired_bytes: int = 0
    write_s: "List[Sample]" = field(default_factory=list)
    written_bytes: int = 0
    round_s: "List[Tuple[bool, float]]" = field(default_factory=list)
    host_ref_ms: "List[float]" = field(default_factory=list)
    loop_lag_s: "List[float]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: "List[str]" = field(default_factory=list)


class LiveLoop:
    """Drives the rounds; ``ledger`` (if any) traces every other round."""

    def __init__(
        self,
        chunk_bytes: int,
        seed: int,
        host_probe: "Callable[[], float]",
        ledger=None,
    ):
        self.chunk_bytes = chunk_bytes
        self.rng = np.random.default_rng([seed, chunk_bytes])
        self.host_probe = host_probe
        self.ledger = ledger
        self.result = LiveResult()
        self._lost_order = self.rng.permutation(N)
        self._repairs = 0
        self._op = 0

    # ------------------------------------------------------------------
    async def run(self, seconds: float) -> LiveResult:
        cluster: "Optional[LiveCluster]" = None
        for attempt in range(SETUPS):
            start = time.perf_counter()
            cluster, stripe = await self._setup()
            self.result.setup_s.append(
                (time.perf_counter() - start, len(self.result.host_ref_ms))
            )
            self.result.host_ref_ms.append(self.host_probe())
            if attempt < SETUPS - 1:
                await cluster.stop()
                gc.collect()  # a stopped cluster is held only by cycles
        assert cluster is not None
        try:
            await self._rounds(cluster, stripe, seconds)
            await self._verify_stored(cluster)
        finally:
            await cluster.stop()
        return self.result

    async def _setup(self) -> "Tuple[LiveCluster, LiveStripe]":
        """Cluster start, the first stripe, one warm-up op per path."""
        cluster = LiveCluster(
            num_servers=NUM_SERVERS,
            config=LiveConfig(),
            payload_bytes=self.chunk_bytes,
            seed=int(self.rng.integers(2**31)),
        )
        await cluster.start()
        stripe = await self._write(cluster, timed=False)
        for _, strategy, slices in PATHS:
            index = int(self.rng.integers(N))
            await self._repair(cluster, stripe, index, strategy, slices)
        return cluster, stripe

    async def _rounds(
        self, cluster: LiveCluster, stripe: LiveStripe, seconds: float
    ) -> None:
        ledger = self.ledger
        lag_task = None
        if ledger is not None:
            lag_task = asyncio.create_task(self._probe_loop_lag())
        deadline = time.perf_counter() + seconds
        round_no = 0
        try:
            while time.perf_counter() < deadline or round_no < 2:
                traced = ledger is not None and round_no % 2 == 0
                if traced:
                    ledger.install()
                start = time.perf_counter()
                fresh = await self._write(cluster, timed=True)
                for path in self.rng.permutation(len(PATHS)):
                    name, strategy, slices = PATHS[int(path)]
                    index = int(self._lost_order[self._repairs % N])
                    self._repairs += 1
                    seconds_taken = await self._repair(
                        cluster, fresh, index, strategy, slices
                    )
                    if seconds_taken is not None:
                        self.result.repair_s[name].append(
                            (seconds_taken, len(self.result.host_ref_ms))
                        )
                        self.result.repaired_bytes += self.chunk_bytes
                await self._retire(cluster, stripe)
                stripe = fresh
                self.result.round_s.append(
                    (traced, time.perf_counter() - start)
                )
                if traced:
                    ledger.uninstall()
                self.result.host_ref_ms.append(self.host_probe())
                round_no += 1
        finally:
            if ledger is not None:
                ledger.uninstall()
            if lag_task is not None:
                lag_task.cancel()
                try:
                    await lag_task
                except asyncio.CancelledError:
                    pass

    async def _probe_loop_lag(self, period: float = 0.002) -> None:
        """Benchmark-owned task: how late the loop wakes a sleeper."""
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + period
            await asyncio.sleep(period)
            self.result.loop_lag_s.append(max(0.0, loop.time() - due))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _begin_op(self) -> None:
        self._op += 1
        self.result.attempted += 1
        if self.ledger is not None:
            self.ledger.op = self._op

    def _end_op(self) -> None:
        if self.ledger is not None:
            self.ledger.op = -1

    async def _repair(
        self,
        cluster: LiveCluster,
        stripe: LiveStripe,
        index: int,
        strategy: str,
        slices: int,
    ) -> "Optional[float]":
        """Drop one chunk, rebuild it onto its server; seconds or None."""
        host = stripe.hosts[index]
        await self._call(
            cluster, host, MessageType.DROP_CHUNK,
            {"chunk_id": stripe.chunk_ids[index]},
        )
        self._begin_op()
        start = time.perf_counter()
        try:
            report = await cluster.repair(
                stripe.stripe_id,
                index,
                strategy=strategy,
                destination=host,
                num_slices=slices,
            )
        except ReproError as exc:
            self._fail(f"repair {strategy}/S={slices} #{index}: {exc!r}")
            return None
        finally:
            self._end_op()
        elapsed = time.perf_counter() - start
        if not report.result.verified:
            self._fail(f"repair {strategy}/S={slices} #{index} not verified")
            return None
        if report.attempts > 1:
            self.result.failed += 1  # a replan, though the bytes are right
        return elapsed

    async def _write(self, cluster: LiveCluster, timed: bool) -> LiveStripe:
        data = self.rng.integers(
            0, 256, size=(K, self.chunk_bytes), dtype=np.uint8
        )
        self._begin_op()
        start = time.perf_counter()
        try:
            stripe = await cluster.write_stripe(SPEC, data=data)
        finally:
            self._end_op()
        if timed:
            self.result.write_s.append(
                (time.perf_counter() - start, len(self.result.host_ref_ms))
            )
            self.result.written_bytes += int(data.nbytes)
        return stripe

    async def _retire(self, cluster: LiveCluster, old: LiveStripe) -> None:
        """Drop every chunk of ``old`` and forget its ground truth."""
        for chunk_id, host in zip(old.chunk_ids, old.hosts):
            await self._call(
                cluster, host, MessageType.DROP_CHUNK, {"chunk_id": chunk_id}
            )
            cluster._truth.pop(chunk_id, None)
        cluster.stripes.pop(old.stripe_id, None)

    async def _call(self, cluster, host, mtype, payload):
        return await cluster.pool.get(cluster.server(host).address).call(
            mtype, payload
        )

    async def _verify_stored(self, cluster: LiveCluster) -> None:
        """Read every stored chunk back with GET_CHUNK and compare."""
        for stripe in list(cluster.stripes.values()):
            for chunk_id, host in zip(stripe.chunk_ids, stripe.hosts):
                self.result.attempted += 1
                try:
                    response = await self._call(
                        cluster, host, MessageType.GET_CHUNK,
                        {"chunk_id": chunk_id},
                    )
                except ReproError as exc:
                    self._fail(f"GET_CHUNK {chunk_id}: {exc!r}")
                    continue
                truth = cluster.truth_payload(chunk_id)
                if truth is None or not np.array_equal(
                    response.buffers.get(0), truth
                ):
                    self._fail(f"GET_CHUNK {chunk_id}: bytes differ")

    def _fail(self, message: str) -> None:
        self.result.failed += 1
        self.result.errors.append(message)
