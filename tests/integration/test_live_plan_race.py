"""Inputs that race ahead of their plan command, on real sockets.

A child's ``PARTIAL_RESULT`` (or ``STREAM_BEGIN``) can land at its parent
before the parent's ``PARTIAL_OP``: frames from different peers race.
The input waits for the plan, then merges exactly as if it had arrived
second.  A ``REPAIR_ABORT`` (or shutdown) releases such waiters at once.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.codes.registry import make_code
from repro.errors import RpcError, RpcRemoteError
from repro.live import LiveCluster, LiveConfig
from repro.live.chunkserver import LiveChunkServer
from repro.live.coordinator import LiveAttempt
from repro.live.rpc import RpcClient
from repro.live.wire import MessageType
from repro.repair.executor import execute_plan
from repro.repair.plan import DESTINATION, build_plan

CONFIG = LiveConfig(
    heartbeat_interval=0.2,
    failure_detection_timeout=1.0,
    rpc_timeout=5.0,
    repair_timeout=15.0,
)


def hold_plan_until_children_arrive(
    server: LiveChunkServer, children: int, held: list
) -> None:
    """Delay ``server``'s PARTIAL_OP until ``children`` PARTIAL_RESULTs
    are already waiting at it, so every child's result races the plan.
    ``held`` gets how many had arrived when the plan was let through."""
    arrived = []
    on_result = server._on_partial_result
    on_op = server._on_partial_op

    async def counted_result(frame):
        arrived.append(frame.payload["sender"])
        return await on_result(frame)

    async def late_op(frame):
        for _ in range(500):
            if len(arrived) >= children:
                break
            await asyncio.sleep(0.01)
        held.append(len(arrived))
        return await on_op(frame)

    server.rpc.register(MessageType.PARTIAL_RESULT, counted_result)
    server.rpc.register(MessageType.PARTIAL_OP, late_op)


class TestPartialResultBeforePlan:
    def test_raced_results_repair_exactly_and_chain_on_the_link(self):
        spec, lost_index = "rs(6,3)", 2
        code = make_code(spec)
        recipe = code.repair_recipe(
            lost_index, [i for i in range(code.n) if i != lost_index]
        )
        plan = build_plan("ppr", recipe)
        children = len(plan.children_of(DESTINATION))
        assert children >= 2
        held = []
        destinations = []

        async def scenario():
            async with LiveCluster(
                num_servers=10, config=CONFIG, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe(spec, chunk_size="64MiB")
                truth = {
                    i: cluster.truth_payload(chunk_id)
                    for i, chunk_id in enumerate(stripe.chunk_ids)
                }
                await cluster.kill_server(stripe.hosts[lost_index])

                def on_attempt(info: LiveAttempt) -> None:
                    destinations.append(info.destination)
                    hold_plan_until_children_arrive(
                        cluster.server(info.destination), children, held
                    )

                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=lost_index,
                    strategy="ppr",
                    on_attempt=on_attempt,
                )
                return truth, report

        with obs.recording() as tracer:
            truth, report = asyncio.run(scenario())
        (destination,) = destinations

        central = execute_plan(plan, {h: truth[h] for h in recipe.helpers})
        assert np.array_equal(report.payload, central)
        assert np.array_equal(report.payload, truth[lost_index])
        assert report.result.verified
        assert report.attempts == 1

        # Every child's result reached the destination before its plan.
        # Once the plan landed they merged one after another, and each
        # arrival's network record depends on the previous arrival.
        assert held == [children]
        arrivals = [
            s
            for s in tracer.spans
            if s.name == "live.phase.network"
            and s.node == destination
        ]
        assert len(arrivals) == children
        gids = {s.attrs["gid"] for s in arrivals}
        chained = [
            s for s in arrivals if gids & set(s.attrs.get("deps", []))
        ]
        assert len(chained) == children - 1
        previous = {
            dep for s in chained for dep in s.attrs["deps"] if dep in gids
        }
        assert len(previous) == children - 1  # one chain, no fork


class TestAbortReleasesPlanWaiters:
    @pytest.mark.parametrize("shutdown", [False, True])
    def test_waiters_fail_at_once(self, shutdown):
        """Nothing parked for an aborted repair sits out the plan timeout."""
        config = LiveConfig(partial_wait_timeout=30.0, rpc_timeout=30.0)

        async def scenario():
            server = LiveChunkServer("cs-00", config=config)
            await server.start()
            client = RpcClient(server.address, config)
            try:
                await client.call(
                    MessageType.STREAM_BEGIN,
                    {
                        "stream_id": "r9/cs-01",
                        "repair_id": "r9",
                        "sender": "cs-01",
                        "num_slices": 4,
                        "row_len": 16,
                    },
                )
                result = asyncio.ensure_future(
                    client.call(
                        MessageType.PARTIAL_RESULT,
                        {"repair_id": "r9", "sender": "cs-02"},
                        buffers={0: np.ones(16, np.uint8)},
                    )
                )
                for _ in range(20):
                    await asyncio.sleep(0)
                assert "r9" in server._plan_events
                assert server._background  # the stream consumer
                started = asyncio.get_running_loop().time()
                if shutdown:
                    await server.stop()
                    with pytest.raises(RpcError):
                        await asyncio.wait_for(result, timeout=2.0)
                else:
                    await client.call(
                        MessageType.REPAIR_ABORT, {"repair_id": "r9"}
                    )
                    for _ in range(20):
                        await asyncio.sleep(0)
                    assert not server._plan_events
                    assert not server._background
                    with pytest.raises(RpcRemoteError) as failure:
                        await asyncio.wait_for(result, timeout=2.0)
                    assert failure.value.code == "RepairAbortedError"
                assert asyncio.get_running_loop().time() - started < 2.0
            finally:
                await client.close()
                if server.alive:
                    await server.stop()

        asyncio.run(scenario())
