"""The repair benchmark: one run of one workload, one JSON result line.

    python3 repairbench/run.py --workload live_large --seed 1 --seconds 30 --trace 0

Every workload measures the paper's two regimes.  The single-repair
regime runs on the live TCP stack (:mod:`live_loop`): a closed loop of
repairs on four paths plus stripe writes.  The many-failure regime runs
in the simulator (:mod:`storm`): m-PPR draining a three-server crash
under Zipf user reads.  Workloads differ in the live chunk size and in
how the time is split between the regimes (``WORKLOADS``).  Simulated
outcomes are reported as simulated; wall times of interpreter-bound
parts are scaled to a reference host speed (``REF_MS``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with the per-layer ledger (:mod:`ledger`) installed and prints
the per-layer metrics, the ledger and the layer-prediction table.  The
last line of standard output is the JSON result.  Exit status: 0 when
every check passed, 1 when a correctness check failed, 2 on bad usage or
when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "repairbench")

KIB = 1024
MIB = 1024 * KIB

#: Interpreter-bound wall times are reported at a reference host speed.
#: On a shared host the speed of the Python interpreter drifts by up to
#: half from one minute to the next, while numpy's memory-bound kernels
#: barely move.  :func:`host_probe` is interpreter-bound, drifts with the
#: host and is never touched by the program, so the times of the storms
#: (a pure-Python simulation) and of the 64 KiB live loops (asyncio,
#: framing and RPC dominate) are scaled by ``REF_MS`` over the median
#: probe time measured during that part.  The 8 MiB live loop is
#: dominated by GF kernels on buffers far larger than the caches; its
#: times are reported as measured.
REF_MS = 3.0

#: name -> (live chunk bytes, share of --seconds for the live loop,
#: storm seeds run in order, where a repeated seed must repeat its
#: outcome, and whether the live loop's times are scaled to REF_MS).
WORKLOADS: "Dict[str, Tuple[int, float, Tuple[int, ...], bool]]" = {
    "live_large": (8 * MIB, 0.45, (0, 1), False),
    "live_small": (64 * KIB, 0.45, (0, 1), True),
    "sim_storm": (64 * KIB, 0.2, (0, 1, 0), True),
}

END_TO_END_UNITS = {
    "repair_MBps": "MB/s",
    "repair_p50_ms.star": "ms",
    "repair_p50_ms.ppr": "ms",
    "repair_p50_ms.ppr_s16": "ms",
    "repair_p50_ms.chain_s16": "ms",
    "write_MBps": "MB/s",
    "write_p50_ms": "ms",
    "sim_wall_s": "s",
    "storm_makespan_s": "s",
    "foreground_read_p999_s": "s",
    "degraded_read_p50_s": "s",
    "setup_s": "s",
    "peak_rss_MiB": "MiB",
}

PER_LAYER_UNITS = {
    "galois.calls": "count/op",
    "galois.MB": "MB/op",
    "galois.self_ms": "ms/op",
    "galois.GBps": "GB/s",
    "linalg.self_ms": "ms/op",
    "linalg.GBps": "GB/s",
    "codes.encode_ms": "ms/op",
    "codes.recipe_ms": "ms/op",
    "wire.frames": "count/op",
    "wire.MB": "MB/op",
    "wire.self_ms": "ms/op",
    "rpc.calls": "count/op",
    "rpc.rtt_p50_ms": "ms",
    "rpc.retries": "count/op",
    "rpc.failed": "count",
    "rpc.window_wait_ms": "ms/op",
    "coord.attempts": "count/repair",
    "coord.plan_ms": "ms/repair",
    "coord.disk_read_ms": "ms/repair",
    "coord.network_ms": "ms/repair",
    "coord.compute_ms": "ms/repair",
    "coord.disk_write_ms": "ms/repair",
    "loop.lag_p50_ms": "ms",
    "loop.lag_p99_ms": "ms",
    "plan.calls": "count/op",
    "plan.self_ms": "ms/op",
    "sim.events.executed": "count/storm",
    "sim.events.per_s": "1/s",
    "sim.network.flows": "count/storm",
    "sim.network.peak_active": "count",
    "sim.network.self_s": "s/storm",
    "sim.network.share": "ratio",
    "mppr.scheduled": "count/storm",
    "mppr.retries": "count/storm",
    "mppr.self_s": "s/storm",
    "qos.delayed_flows": "count/storm",
    "qos.degraded_dropped": "count/storm",
    "qos.self_s": "s/storm",
    "fs.write_stripe_ms": "ms",
    "ledger.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
    "host.ref_ms": "ms",
}


def host_probe() -> float:
    """A fixed pure-Python + numpy kernel; its time tracks host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += (i * i) % 7
    values = np.arange(1 << 18, dtype=np.uint32)
    acc += int((values * np.uint32(2654435761)).sum() & 0xFF)
    elapsed = time.perf_counter() - start
    if acc < 0:
        raise AssertionError("unreachable: keeps the loop's result live")
    return elapsed * 1e3


def tail(values: "List[float]") -> "Tuple[str, float]":
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if n * (1.0 - q) >= 10:
            return label, float(np.quantile(values, q))
    return "p50", float(np.median(values)) if values else 0.0


def source_digest() -> str:
    """Digest of the program and the storm definition, for determinism."""
    digest = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
    files.append(os.path.join(HERE, "storm.py"))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_across_processes(storm_seed: int, fingerprint: str) -> "Optional[str]":
    """Compare with the outcome an earlier process recorded for this seed."""
    path = os.path.join(OUT_DIR, "fingerprints", f"{source_digest()}-{storm_seed}")
    if os.path.exists(path):
        with open(path) as handle:
            recorded = handle.read().strip()
        if recorded != fingerprint:
            return (
                f"storm seed {storm_seed}: outcome {fingerprint} differs from "
                f"{recorded} recorded by an earlier process"
            )
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    scratch = f"{path}.{os.getpid()}"
    with open(scratch, "w") as handle:
        handle.write(fingerprint + "\n")
    os.replace(scratch, path)
    return None


def rpc_retries() -> float:
    """Reconnect retries the RPC client counted in the process registry."""
    from repro import obs

    return sum(
        float(snap.get("value", 0.0))
        for snap in obs.registry().snapshot()
        if snap.get("name") == "live.rpc.retries"
    )


class Run:
    """One workload run: the live loop, then the storms."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.errors: "List[str]" = []
        self.attempted = 0
        self.failed = 0
        self.live_ledger = None
        self.sim_ledger = None
        if trace:
            from ledger import Ledger

            self.live_ledger = Ledger()
            self.sim_ledger = Ledger()

    def execute(self) -> None:
        from live_loop import LiveLoop
        from storm import run_storm

        chunk_bytes, live_share, storm_seeds, _ = WORKLOADS[self.workload]
        loop = LiveLoop(chunk_bytes, self.seed, host_probe, self.live_ledger)
        self.live = asyncio.run(loop.run(self.seconds * live_share))
        self.attempted += self.live.attempted
        self.failed += self.live.failed
        self.errors += self.live.errors
        gc.collect()  # the stopped live cluster is held only by cycles

        plan: "List[Tuple[int, bool]]" = [(s, self.trace) for s in storm_seeds]
        if self.trace:
            plan.append((storm_seeds[0], False))  # the untraced twin
        self.storms: "List[Tuple[int, bool, object]]" = []
        first: "Dict[int, str]" = {}
        self.host_ref_ms = list(self.live.host_ref_ms)
        for index, traced in plan:
            storm_seed = self.seed * 16 + index
            outcome = run_storm(
                storm_seed, self.sim_ledger if traced else None, host_probe
            )
            self.host_ref_ms += outcome.host_ref_ms
            self.storms.append((index, traced, outcome))
            self.errors += outcome.errors
            fingerprint = outcome.fingerprint()
            if index in first:
                if first[index] != fingerprint:
                    self.errors.append(
                        f"storm seed {storm_seed}: repetition gave outcome "
                        f"{fingerprint}, first run {first[index]}"
                    )
                continue
            first[index] = fingerprint
            problem = check_across_processes(storm_seed, fingerprint)
            if problem:
                self.errors.append(problem)
            self.attempted += outcome.lost + len(outcome.degraded_s)
            self.attempted += outcome.degraded_dropped
            self.failed += outcome.degraded_dropped
            self.failed += outcome.lost - outcome.verified

    # ------------------------------------------------------------------
    def distinct_storms(self):
        seen = set()
        for index, _, outcome in self.storms:
            if index not in seen:
                seen.add(index)
                yield outcome

    def live_seconds(self, samples: "List[Tuple[float, int]]") -> "List[float]":
        """Live times, scaled to REF_MS by the probe taken after each."""
        if not WORKLOADS[self.workload][3]:
            return [seconds for seconds, _ in samples]
        probes = self.live.host_ref_ms
        return [seconds * REF_MS / probes[at] for seconds, at in samples]

    def storm_scale(self, outcome) -> float:
        """REF_MS over the median probe taken during one storm."""
        return REF_MS / statistics.median(outcome.host_ref_ms)

    def end_to_end(self) -> "Dict[str, float]":
        live = self.live
        repairs = {
            name: self.live_seconds(samples)
            for name, samples in live.repair_s.items()
        }
        repair_total = sum(sum(v) for v in repairs.values())
        metrics = {
            "repair_MBps": live.repaired_bytes / 1e6 / repair_total,
        }
        for name, seconds in repairs.items():
            metrics[f"repair_p50_ms.{name}"] = statistics.median(seconds) * 1e3
        writes = self.live_seconds(live.write_s)
        metrics["write_MBps"] = live.written_bytes / 1e6 / sum(writes)
        metrics["write_p50_ms"] = statistics.median(writes) * 1e3
        storms = list(self.distinct_storms())
        foreground = [v for s in storms for v in s.foreground_s]
        degraded = [v for s in storms for v in s.degraded_s]
        metrics["sim_wall_s"] = statistics.median(
            s.wall_s * self.storm_scale(s) for _, _, s in self.storms
        )
        metrics["storm_makespan_s"] = statistics.median(s.makespan_s for s in storms)
        metrics["foreground_read_p999_s"] = float(np.quantile(foreground, 0.999))
        metrics["degraded_read_p50_s"] = statistics.median(degraded)
        # A storm's first probe is taken right after its set-up.
        metrics["setup_s"] = statistics.median(
            self.live_seconds(live.setup_s)
        ) + statistics.median(
            s.setup_s * REF_MS / s.host_ref_ms[0] for _, _, s in self.storms
        )
        metrics["peak_rss_MiB"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        return metrics

    def report_lines(self) -> "List[str]":
        """Human-readable context: sample counts and tails, as measured."""
        lines = [f"workload {self.workload} seed {self.seed} trace {int(self.trace)}"]
        timed = [(f"repair {n}", v) for n, v in self.live.repair_s.items()]
        for label, samples in timed + [("write", self.live.write_s)]:
            seconds = [value for value, _ in samples]
            tail_label, value = tail(seconds)
            lines.append(
                f"  live {label:<17} n={len(seconds):<4} "
                f"p50={statistics.median(seconds) * 1e3:9.2f} ms  "
                f"{tail_label}={value * 1e3:9.2f} ms"
            )
        for s in self.distinct_storms():
            fg_label, fg = tail(s.foreground_s)
            dg_label, dg = tail(s.degraded_s)
            lines.append(
                f"  storm: lost={s.lost} repaired={s.repaired} "
                f"makespan={s.makespan_s:.3f}s reads={len(s.foreground_s)} "
                f"fg {fg_label}={fg:.4f}s degraded={len(s.degraded_s)} "
                f"{dg_label}={dg:.3f}s outcome={s.fingerprint()}"
            )
        lines.append(
            "  storm walls: "
            + " ".join(f"{s.wall_s:.2f}s" for _, _, s in self.storms)
        )
        storm_probes = [p for _, _, s in self.storms for p in s.host_ref_ms]
        lines.append(
            f"  host.ref_ms median: live {statistics.median(self.live.host_ref_ms):.3f} "
            f"storms {statistics.median(storm_probes):.3f} "
            f"(the times above are as measured; interpreter-bound metrics "
            f"are scaled to host.ref_ms={REF_MS})"
        )
        return lines

    # ------------------------------------------------------------------
    def per_layer(self) -> "Dict[str, float]":
        live, lg, sg = self.live, self.live_ledger, self.sim_ledger
        assert lg is not None and sg is not None
        traced_rounds = [s for traced, s in live.round_s if traced]
        plain_rounds = [s for traced, s in live.round_s if not traced]
        ops = 5.0 * len(traced_rounds)  # four repairs and a write per round
        repairs = max(lg.counts["coord.repairs"], 1.0)
        traced_storms = [s for _, traced, s in self.storms if traced]
        twin = [s for _, traced, s in self.storms if not traced][0]
        n_storms = float(len(traced_storms))
        storm_wall = sum(s.wall_s for s in traced_storms)

        def per_op(value: float) -> float:
            return value / ops

        def rate(nbytes: float, seconds: float) -> float:
            return nbytes / 1e9 / seconds if seconds > 0 else 0.0

        def p(values: "List[float]", q: float) -> float:
            return float(np.quantile(values, q)) * 1e3 if values else 0.0

        sim_self = sg.self_s
        metrics = {
            "galois.calls": per_op(lg.counts["galois.calls"]),
            "galois.MB": per_op(lg.counts["galois.bytes"]) / 1e6,
            "galois.self_ms": per_op(lg.self_s["galois"]) * 1e3,
            "galois.GBps": rate(lg.counts["galois.bytes"], lg.self_s["galois"]),
            "linalg.self_ms": per_op(lg.self_s["linalg"]) * 1e3,
            "linalg.GBps": rate(lg.counts["linalg.bytes"], lg.self_s["linalg"]),
            "codes.encode_ms": per_op(lg.self_s["codes.encode"]) * 1e3,
            "codes.recipe_ms": per_op(lg.self_s["codes.recipe"]) * 1e3,
            "wire.frames": per_op(lg.counts["wire.frames"]),
            "wire.MB": per_op(lg.counts["wire.bytes"]) / 1e6,
            "wire.self_ms": per_op(lg.self_s["wire"]) * 1e3,
            "rpc.calls": per_op(len(lg.samples["rpc.call"])),
            "rpc.rtt_p50_ms": p(lg.samples["rpc.call"], 0.5),
            "rpc.retries": rpc_retries() / max(live.attempted, 1),
            "rpc.failed": lg.counts["rpc.failed"],
            "rpc.window_wait_ms": per_op(sum(lg.samples["rpc.window"])) * 1e3,
            "coord.attempts": lg.counts["coord.attempts"] / repairs,
            "loop.lag_p50_ms": p(live.loop_lag_s, 0.5),
            "loop.lag_p99_ms": p(live.loop_lag_s, 0.99),
            "plan.calls": per_op(lg.counts["plan.calls"]),
            "plan.self_ms": per_op(lg.self_s["plan"]) * 1e3,
            "sim.events.executed": sg.counts["sim.events.executed"] / n_storms,
            "sim.events.per_s": sg.counts["sim.events.executed"] / storm_wall,
            "sim.network.flows": statistics.mean(s.flows for s in traced_storms),
            "sim.network.peak_active": max(
                s.peak_active_flows for s in traced_storms
            ),
            "sim.network.self_s": sim_self["sim.network"] / n_storms,
            "sim.network.share": sim_self["sim.network"] / storm_wall,
            "mppr.scheduled": sg.counts["mppr.scheduled"] / n_storms,
            "mppr.retries": (
                sg.counts["mppr.scheduled"]
                - sum(s.repaired for s in traced_storms)
            )
            / n_storms,
            "mppr.self_s": sim_self["mppr"] / n_storms,
            "qos.delayed_flows": statistics.mean(
                s.qos_delayed for s in traced_storms
            ),
            "qos.degraded_dropped": statistics.mean(
                s.degraded_dropped for s in traced_storms
            ),
            "qos.self_s": sim_self["qos"] / n_storms,
            "fs.write_stripe_ms": statistics.median(
                s.write_stripe_s for _, _, s in self.storms
            )
            * 1e3,
            "host.ref_ms": statistics.median(self.host_ref_ms),
        }
        for phase in ("plan", "disk_read", "network", "compute", "disk_write"):
            metrics[f"coord.{phase}_ms"] = lg.counts[f"coord.{phase}_s"] / repairs * 1e3
        live_wall = sum(traced_rounds)
        total = live_wall + storm_wall
        attributed = lg.attributed_s() + sg.attributed_s()
        metrics["ledger.unattributed_share"] = max(0.0, 1.0 - attributed / total)
        live_over = statistics.median(traced_rounds) / statistics.median(plain_rounds)
        sim_over = traced_storms[0].wall_s / twin.wall_s
        metrics["trace.overhead_share"] = (
            live_wall * (live_over - 1.0) + storm_wall * (sim_over - 1.0)
        ) / total
        self._ledger_rows = (live_wall, storm_wall, lg, sg)
        return metrics

    def ledger_lines(self) -> "List[str]":
        live_wall, storm_wall, lg, sg = self._ledger_rows
        lines = ["", "ledger (self time, traced phases only)"]
        for title, wall, led in (("live", live_wall, lg), ("sim", storm_wall, sg)):
            lines.append(f"  {title}: wall {wall:.3f}s")
            for layer, seconds in sorted(led.self_s.items(), key=lambda kv: -kv[1]):
                lines.append(
                    f"    {layer:<14} {seconds:9.3f}s  {seconds / wall:6.1%}"
                )
            rest = wall - led.attributed_s()
            lines.append(f"    {'unattributed':<14} {rest:9.3f}s  {rest / wall:6.1%}")
        with open(os.path.join(HERE, "layers.json")) as handle:
            table = json.load(handle)
        lines += ["", "layer predictions (layers.json)"]
        lines.append(
            f"  {'layer':<18} {'should move':<44} {'on':<22} flat on"
        )
        for row in table["layers"]:
            lines.append(
                f"  {row['layer']:<18} {', '.join(row['moves']):<44} "
                f"{', '.join(row['on']):<22} {', '.join(row['flat_on'])}"
            )
        return lines

    def write_spans(self) -> str:
        path = os.path.join(
            OUT_DIR, "spans", f"{self.workload}-{self.seed}.jsonl"
        )
        assert self.live_ledger is not None and self.sim_ledger is not None
        self.live_ledger.write_spans(path)
        self.sim_ledger.write_spans(path + ".sim")
        return path


def parse_args(argv: "List[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: "List[str]") -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    source = os.path.realpath(os.path.join(ROOT, "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if not os.path.realpath(repro.__file__).startswith(source + os.sep):
        print(f"error: repro imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    for message in run.errors:
        print(f"CHECK FAILED: {message}")
    try:
        for line in run.report_lines():
            print(line)
        if args.trace:
            metrics = run.per_layer()
            units = PER_LAYER_UNITS
            for line in run.ledger_lines():
                print(line)
            print(f"spans written to {os.path.relpath(run.write_spans(), ROOT)}")
        else:
            metrics = run.end_to_end()
            units = END_TO_END_UNITS
    except (statistics.StatisticsError, ValueError, ZeroDivisionError, IndexError):
        if run.errors:  # failed operations left nothing to measure
            return 1
        raise
    correct = not run.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(run.attempted),
                "failed": int(run.failed),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
