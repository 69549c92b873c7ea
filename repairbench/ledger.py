"""The per-layer ledger: spans recorded around public calls into each layer.

Nothing inside the program is instrumented.  :class:`Ledger` replaces
public functions and methods of the ``repro`` package with thin wrappers
while a traced phase runs (:meth:`Ledger.install` / :meth:`Ledger.uninstall`)
and records one span per call: name, start, end, parent span and the
closed-loop operation it belongs to.  Because the benchmark keeps one
operation outstanding, every span recorded while an operation runs
belongs to it, whichever server task made the call.

Synchronous calls nest on one stack, so a layer's *self time* is its
spans' duration minus the part covered by child spans.  Coroutine calls
(RPCs, frame reads, stream sends, whole repairs) interleave with other
tasks; they are kept as spans with counts and latencies, never as self
time.  In the simulator, :meth:`Simulation.set_profiler` hands every
executed event to :meth:`Ledger.observe_event`, which charges the wall
time since the previous event to the callback's layer, minus the spans
recorded inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Synchronous calls whose self time the ledger books, by layer.
SYNC_TARGETS: "List[Tuple[str, str, str]]" = [
    ("galois", "repro.galois.vector", "addmul"),
    ("galois", "repro.galois.vector", "scale"),
    ("galois", "repro.galois.vector", "scale_into"),
    ("galois", "repro.galois.vector", "xor_into"),
    ("galois", "repro.galois.vector", "linear_combine"),
    ("linalg", "repro.linalg.matrix", "GFMatrix.mul_buffer"),
    ("codes.encode", "repro.codes.linear", "GeneratorMatrixCode.encode"),
    ("codes.recipe", "repro.codes.linear", "GeneratorMatrixCode.repair_recipe"),
    ("wire", "repro.live.wire", "frame_parts"),
    ("wire", "repro.live.wire", "write_frame"),
    ("wire", "repro.live.wire", "decode_body"),
    ("plan", "repro.repair.plan", "build_plan"),
    ("plan", "repro.core.coordinator", "build_partial_requests"),
    ("plan", "repro.core.coordinator", "RepairCoordinator.start_repair"),
    ("sim.network", "repro.sim.network", "FlowNetwork.start_flow"),
    ("sim.network", "repro.sim.network", "FlowNetwork.cancel_flow"),
    ("sim.network", "repro.sim.network", "FlowNetwork.cancel_flows_touching"),
    ("mppr", "repro.core.mppr", "RepairManager.select_sources"),
    ("mppr", "repro.core.mppr", "RepairManager.select_destination"),
    ("mppr", "repro.core.mppr", "RepairManager.schedule_pending"),
    ("qos", "repro.qos.admission", "AdmissionController.delay"),
]

#: Coroutine calls: counted and timed, never booked as self time.
ASYNC_TARGETS: "List[Tuple[str, str, str]]" = [
    ("wire.read", "repro.live.wire", "read_frame"),
    ("rpc.call", "repro.live.rpc", "RpcClient.call"),
    ("rpc.stream", "repro.live.rpc", "StreamSender.begin"),
    ("rpc.window", "repro.live.rpc", "StreamSender.data"),
    ("rpc.stream", "repro.live.rpc", "StreamSender.drain"),
    ("coord", "repro.live.coordinator", "LiveCoordinator.repair"),
]

#: Simulator callbacks are charged to the layer of the module defining them.
CALLBACK_LAYERS: "List[Tuple[str, str]]" = [
    ("repro.sim.network", "sim.network"),
    ("repro.core.mppr", "mppr"),
    ("repro.qos", "qos"),
    ("repro.fs", "fs"),
    ("repro.sim", "sim.events"),
]

#: Layers whose self time counts as attributed in the ledger.
LEDGER_LAYERS = (
    "galois",
    "linalg",
    "codes.encode",
    "codes.recipe",
    "wire",
    "plan",
    "sim.network",
    "mppr",
    "qos",
    "fs",
    "sim.events",
)

GALOIS_LEAVES = {"addmul", "scale", "scale_into", "xor_into"}


def _resolve(module_name: str, qualname: str) -> "Tuple[Any, str, Any]":
    """``(owner, attribute, original)`` of a dotted target."""
    owner: Any = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Ledger:
    """Spans, counts and per-layer self time of one traced phase."""

    def __init__(self) -> None:
        #: Finished spans: ``(id, name, start, end, parent_id, op)``.
        self.spans: "List[Tuple[int, str, float, float, int, int]]" = []
        self.self_s: "Dict[str, float]" = defaultdict(float)
        self.counts: "Dict[str, float]" = defaultdict(float)
        self.samples: "Dict[str, List[float]]" = defaultdict(list)
        #: Current closed-loop operation (-1 between operations).
        self.op = -1
        self._next_id = 0
        #: Open synchronous spans: ``[id, child_seconds]``.
        self._stack: "List[List[float]]" = []
        self._root_child_s = 0.0
        self._last_event: "Optional[float]" = None
        self._patches: "List[Tuple[Any, str, Any, Any]]" = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; idempotent."""
        if self._patches:
            return
        for layer, module_name, qualname in SYNC_TARGETS:
            owner, attr, original = _resolve(module_name, qualname)
            self._patch(owner, attr, original, self._sync(layer, attr, original))
        for layer, module_name, qualname in ASYNC_TARGETS:
            owner, attr, original = _resolve(module_name, qualname)
            self._patch(owner, attr, original, self._async(layer, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))
        if inspect.isclass(owner):
            return
        # ``from module import name`` copies the binding: rebind every
        # module of the package that holds the original function.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is owner:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original, wrapper))

    def _open(self) -> "List[float]":
        self._next_id += 1
        entry = [float(self._next_id), 0.0]
        self._stack.append(entry)
        return entry

    def _close(self, entry: "List[float]", name: str, start: float) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        parent = int(self._stack[-1][0]) if self._stack else 0
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self._root_child_s += duration
        self.spans.append((int(entry[0]), name, start, end, parent, self.op))
        return duration - entry[1]

    def _sync(self, layer: str, attr: str, fn: Callable) -> Callable:
        ledger = self
        name = f"{layer}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entry = ledger._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.self_s[layer] += ledger._close(entry, name, start)
                ledger._count(layer, attr, args, kwargs)

        return wrapper

    def _async(self, layer: str, attr: str, fn: Callable) -> Callable:
        ledger = self
        name = f"{layer}.{attr}"

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            op = ledger.op
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            except Exception:
                if layer == "rpc.call":
                    ledger.counts["rpc.failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                ledger._next_id += 1
                ledger.spans.append((ledger._next_id, name, start, end, 0, op))
                ledger.samples[layer].append(end - start)
            if layer == "coord":
                ledger._count_report(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Counts at the same boundaries
    # ------------------------------------------------------------------
    def _count(self, layer: str, attr: str, args: tuple, kwargs: dict) -> None:
        counts = self.counts
        counts[f"{layer}.calls"] += 1
        if layer == "galois" and attr in GALOIS_LEAVES:
            src = args[-1] if args else kwargs.get("src", kwargs.get("buf"))
            counts["galois.bytes"] += int(getattr(src, "nbytes", 0))
        elif layer == "linalg":
            counts["linalg.bytes"] += int(args[1].nbytes)
        elif attr == "start_repair" and kwargs.get("kind") == "repair":
            counts["mppr.scheduled"] += 1
        elif attr == "decode_body":
            counts["wire.frames"] += 1
            counts["wire.bytes"] += len(args[3])

    def _count_report(self, report: Any) -> None:
        counts = self.counts
        counts["coord.repairs"] += 1
        counts["coord.attempts"] += report.attempts
        for phase in ("plan", "disk_read", "network", "compute", "disk_write"):
            counts[f"coord.{phase}_s"] += report.breakdown.busy(phase)

    # ------------------------------------------------------------------
    # Simulator events (Simulation.set_profiler protocol)
    # ------------------------------------------------------------------
    def start_events(self) -> None:
        """Open the event clock just before the simulation runs."""
        self._last_event = time.perf_counter()
        self._root_child_s = 0.0

    def observe_event(self, callback: Any, dt: float) -> None:
        now = time.perf_counter()
        if self._last_event is not None:
            own = now - self._last_event - self._root_child_s
            layer = "sim.other"
            module = getattr(callback, "__module__", "") or ""
            for prefix, name in CALLBACK_LAYERS:
                if module.startswith(prefix):
                    layer = name
                    break
            self.self_s[layer] += own
        self.counts["sim.events.executed"] += 1
        self._root_child_s = 0.0
        self._last_event = time.perf_counter()

    def stop_events(self) -> None:
        self._last_event = None

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        return sum(self.self_s.get(layer, 0.0) for layer in LEDGER_LAYERS)

    def write_spans(self, path: str) -> None:
        """One JSON object per span, for offline critical-path work."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "repair_id": op,
                        }
                    )
                    + "\n"
                )
