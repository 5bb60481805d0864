"""Fast smoke check of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/smoke.py

Run from the repository root. It checks that BENCHMARK.json keeps to its
schema, that each run's last stdout line is the result object with exactly the
metrics BENCHMARK.json names (with their units), that every tiny mission
passes its output checks, and that a directory holding only BENCHMARK.json and
the benchmark's files makes the benchmark exit non-zero without a result.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def schema_problems(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)}")
    if not (1 <= len(spec["paths"]) <= 16) or not all(
            PATH.match(p) and ".." not in p.split("/") for p in spec["paths"]):
        problems.append("paths")
    if not (1 <= len(spec["command"]) <= 32) or any(
            len(c) > 200 or c.startswith("/") or ".." in c.split("/") for c in spec["command"]):
        problems.append("command")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("workload count")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            problems.append(f"workload {w}")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                problems.append(f"{group} metric {m}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']}")
    names = [m["name"] for g in ("workloads", "end_to_end", "per_layer") for m in spec[g]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or \
            setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be in s, lower, with the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("file too large")
    return problems


def result_problems(line: str, expected: dict[str, str]) -> list[str]:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:200]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted={result['attempted']}")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
    return problems


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [f"BENCHMARK.json: {p}" for p in schema_problems(spec)]
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace, expected in modes.items():
            args = [*spec["command"], "--workload", w["name"], "--seed", "0",
                    "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = run(args, ROOT)
            lines = proc.stdout.strip().splitlines()
            found = ([f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
                     if proc.returncode != 0 or not lines
                     else result_problems(lines[-1], expected))
            problems += [f"{w['name']} --trace {trace}: {p}" for p in found]
            print(f"{w['name']:12s} trace {trace}: {'ok' if not found else 'FAILED'}")

    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        w = spec["workloads"][0]["name"]
        proc = run([*spec["command"], "--workload", w, "--seed", "0", "--seconds", "1",
                    "--trace", "0"], bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("a directory without the program still printed a result")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
