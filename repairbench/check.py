"""The benchmark's own check.

    python3 repairbench/check.py [--seconds 2]

Runs every workload of ``BENCHMARK.json`` briefly on two seeds, plus one
traced run each, and fails unless:

* every run exits 0 with ``correct`` true and a result line with exactly
  the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the metrics printed are exactly the catalogue's ``end_to_end`` (or,
  traced, ``per_layer``) names, each with the catalogue's unit;
* the workloads of the catalogue are the workloads of ``run.py``;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, a run exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (101, 202)


def run_once(cwd: str, workload: str, seed: int, seconds: float, trace: int):
    with open(os.path.join(cwd, "BENCHMARK.json")) as handle:
        command = json.load(handle)["command"]
    return subprocess.run(
        command
        + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_result(
    proc: "subprocess.CompletedProcess", expected: "Dict[str, str]", label: str
) -> "List[str]":
    problems: "List[str]" = []
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return problems + [f"{label}: no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return problems + [f"{label}: last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct={result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{label}: failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"{label}: missing {missing}, not in catalogue {extra}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"}:
            problems.append(f"{label}: {name} has keys {sorted(entry)}")
            continue
        if name in expected and entry["unit"] != expected[name]:
            problems.append(
                f"{label}: {name} unit {entry['unit']!r}, "
                f"catalogue {expected[name]!r}"
            )
        if not isinstance(entry["value"], (int, float)):
            problems.append(f"{label}: {name} value {entry['value']!r}")
    return problems


def check_bare_directory(catalogue: dict) -> "List[str]":
    """Without the program next to it the benchmark must refuse to run."""
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="repairbench-bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in catalogue["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        workload = catalogue["workloads"][0]["name"]
        proc = run_once(bare, workload, SEEDS[0], 1, 0)
    finally:
        shutil.rmtree(bare)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory: exit 0")
    if any(line.startswith("{") for line in proc.stdout.splitlines()):
        problems.append("bare directory: printed a result")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        catalogue = json.load(handle)
    sys.path.insert(0, HERE)
    import run as bench

    problems: "List[str]" = []
    names = [w["name"] for w in catalogue["workloads"]]
    if sorted(names) != sorted(bench.WORKLOADS):
        problems.append(f"workloads {names} vs run.py {sorted(bench.WORKLOADS)}")
    end_to_end = {m["name"]: m["unit"] for m in catalogue["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in catalogue["per_layer"]}
    if end_to_end != bench.END_TO_END_UNITS:
        problems.append("end_to_end catalogue differs from run.py")
    if per_layer != bench.PER_LAYER_UNITS:
        problems.append("per_layer catalogue differs from run.py")
    for workload in names:
        for seed in SEEDS:
            proc = run_once(ROOT, workload, seed, args.seconds, 0)
            problems += check_result(proc, end_to_end, f"{workload} seed {seed}")
        proc = run_once(ROOT, workload, SEEDS[0], args.seconds, 1)
        problems += check_result(proc, per_layer, f"{workload} traced")
        print(f"{workload}: checked", flush=True)
    problems += check_bare_directory(catalogue)
    for problem in problems:
        print(f"FAIL {problem}")
    print("benchmark check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
