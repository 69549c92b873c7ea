"""m-PPR draining a repair storm in the simulator under user load.

The scenario is the one :func:`repro.qos.scenario.run_scenario` runs,
built from the same public pieces so that set-up (cluster, stripe
writes, heartbeats) is timed apart from the simulated run, and scaled
to the paper's BIGSITE: 85 servers at 1.4 Gbps, 120 ``RS(12,4)``
stripes of 64 MiB modeled chunks, token-bucket admission for repair
traffic, and a Zipf client population reading 1 MiB at 200 req/s for
120 simulated seconds.  Three servers crash about 20 s in.

The placement, the crash victims and the user arrival trace are fixed,
so the storm's size does not swing with the seed; a storm seed draws
the stripe bytes and the crash instant within one heartbeat interval.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.codes import ReedSolomonCode
from repro.core.mppr import MPPRConfig, RepairManager
from repro.fs.cluster import StorageCluster
from repro.qos.admission import (
    DEGRADED,
    FOREGROUND,
    TRAFFIC_CLASSES,
    AdmissionConfig,
)
from repro.qos.population import ClientPopulation, PopulationConfig
from repro.workloads.failures import crash_random_servers

LAYOUT_SEED = 2016
NUM_SERVERS = 85
NUM_CLIENTS = 8
K, M = 12, 4
STRIPES = 120
CHUNK = "64MiB"
RATE = 200.0
READ = "1MiB"
DURATION = 120.0
KILL_AT = 20.0
KILLS = 3
HORIZON = 240.0
#: Simulated events between two host-speed probes in an untraced storm.
PROBE_EVERY = 4000


class _Recorder:
    """The population's latency sink: keeps every sample, in order."""

    def __init__(self) -> None:
        self.samples: "Dict[str, List[float]]" = {
            FOREGROUND: [],
            DEGRADED: [],
        }

    def observe(self, traffic_class: str, latency_s: float) -> None:
        self.samples.setdefault(traffic_class, []).append(latency_s)


@dataclass
class StormOutcome:
    """What one storm measured; everything but the walls is simulated."""

    setup_s: float
    wall_s: float
    makespan_s: float
    foreground_s: "List[float]"
    degraded_s: "List[float]"
    lost: int
    repaired: int
    verified: int
    unscheduled: int
    degraded_dropped: int
    class_bytes: "Dict[str, float]"
    events: int
    flows: int
    peak_active_flows: int
    qos_delayed: int
    write_stripe_s: float
    host_ref_ms: "List[float]" = field(default_factory=list)
    errors: "List[str]" = field(default_factory=list)

    def fingerprint(self) -> str:
        """Digest of the simulated outcome (exact floats, no walls)."""
        blob = json.dumps(
            [
                repr(self.makespan_s),
                [repr(v) for v in self.foreground_s],
                [repr(v) for v in self.degraded_s],
                self.lost,
                self.repaired,
                self.verified,
                self.unscheduled,
                self.degraded_dropped,
                {k: repr(v) for k, v in sorted(self.class_bytes.items())},
                self.events,
            ]
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def run_storm(
    seed: int,
    ledger=None,
    probe: "Optional[Callable[[], float]]" = None,
) -> StormOutcome:
    """Build, run and check one storm.

    ``ledger`` traces the run.  ``probe`` (untraced runs only) times the
    host-speed kernel once after set-up and then every ``PROBE_EVERY``
    events; its time is left out of the storm's wall time.
    """
    rng = np.random.default_rng([seed, LAYOUT_SEED])
    setup_start = time.perf_counter()
    cluster = StorageCluster.bigsite(
        num_servers=NUM_SERVERS,
        num_clients=NUM_CLIENTS,
        heartbeat_interval=1.0,
        seed=LAYOUT_SEED,
    )
    controller = cluster.enable_qos(
        AdmissionConfig(
            repair_rate="250Mbps", repair_burst="16MiB", repair_floor="10Mbps"
        )
    )
    code = ReedSolomonCode(K, M)
    writes_start = time.perf_counter()
    for _ in range(STRIPES):
        data = rng.integers(
            0, 256, size=(K, cluster.config.payload_bytes), dtype=np.uint8
        )
        cluster.write_stripe(code, CHUNK, data=data)
    writes_s = time.perf_counter() - writes_start
    manager = RepairManager(
        cluster, MPPRConfig(strategy="ppr", repair_timeout=DURATION)
    )
    cluster.metaserver._repair_manager = manager
    cluster.metaserver.start_heartbeats()
    recorder = _Recorder()
    population = ClientPopulation(
        cluster,
        PopulationConfig(
            num_users=100_000,
            requests_per_second=RATE,
            read_size=READ,
            seed=LAYOUT_SEED,
        ),
        harness=recorder,  # type: ignore[arg-type]
    )
    population.start(DURATION)
    crash: "Dict[str, float]" = {}

    def storm() -> None:
        lost = crash_random_servers(cluster, KILLS, LAYOUT_SEED)
        crash["at"] = cluster.sim.now
        crash["lost"] = float(sum(len(chunks) for chunks in lost.values()))

    cluster.sim.schedule(KILL_AT + float(rng.random()), storm)
    setup_s = time.perf_counter() - setup_start

    peak = 0
    network = cluster.network
    probes: "List[float]" = []
    probe_s = 0.0
    if probe is not None and ledger is None:
        probes.append(probe())

    def after_event(_now: float) -> None:
        nonlocal peak, probe_s
        if len(network.active) > peak:
            peak = len(network.active)
        if probes and cluster.sim.events_executed % PROBE_EVERY == 0:
            start = time.perf_counter()
            probes.append(probe())
            probe_s += time.perf_counter() - start

    cluster.sim.add_clock_observer(after_event)
    if ledger is not None:
        ledger.install()
        cluster.sim.set_profiler(ledger)
        ledger.start_events()
    start = time.perf_counter()
    try:
        cluster.run(until=HORIZON)
    finally:
        wall_s = time.perf_counter() - start - probe_s
        if ledger is not None:
            ledger.stop_events()
            cluster.sim.set_profiler(None)
            ledger.uninstall()
    population.stop()

    completed = manager.completed
    outcome = StormOutcome(
        setup_s=setup_s,
        wall_s=wall_s,
        makespan_s=(
            max(r.end_time for r in completed) - crash["at"] if completed else 0.0
        ),
        foreground_s=recorder.samples[FOREGROUND],
        degraded_s=recorder.samples[DEGRADED],
        lost=int(crash.get("lost", 0)),
        repaired=len(completed),
        verified=sum(1 for r in completed if r.verified),
        unscheduled=len(manager.failed_chunks) + len(manager.queue)
        + len(manager.inflight),
        degraded_dropped=population.degraded_dropped,
        class_bytes={
            cls: float(network.class_bytes_moved.get(cls, 0.0))
            for cls in TRAFFIC_CLASSES
        },
        events=cluster.sim.events_executed,
        flows=network.completed_flows,
        peak_active_flows=peak,
        qos_delayed=int(controller.flows_delayed),
        write_stripe_s=writes_s / STRIPES,
        host_ref_ms=probes,
    )
    if outcome.lost == 0 or outcome.repaired != outcome.lost:
        outcome.errors.append(
            f"storm seed {seed}: {outcome.repaired} of {outcome.lost} "
            f"lost chunks repaired"
        )
    if outcome.verified != outcome.repaired:
        outcome.errors.append(
            f"storm seed {seed}: {outcome.repaired - outcome.verified} "
            f"repairs not verified"
        )
    if outcome.unscheduled:
        outcome.errors.append(
            f"storm seed {seed}: {outcome.unscheduled} chunks left unrepaired"
        )
    return outcome
