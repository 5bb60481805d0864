"""Run perfbench in two checkouts, in alternating pairs, and record every result.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload sweep-small --pairs 10 --seed 81 --out BENCH_8.json

`--parent` and `--change` are two checkouts of the repository (for example a
`git archive` of the parent commit and the working tree).

Pair i runs `perfbench/run.py --workload W --seed (seed + i)` once in each
checkout, for the `run_seconds` that BENCHMARK.json sets, the parent first on
even i and the change first on odd i, so slow drift on a shared machine does not
favour one side. Each run's full result JSON (provenance included) is kept.
The summary gives, per metric, the median and quartiles of each side over the
pairs and the number of pairs in which the change was better (by the metric's
own direction, lower or higher).

The output file collects entries by (workload, trace): running the script
again for another workload adds to it, and running it for the same workload
and trace replaces that entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `checkout`; returns its result file's JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    result = checkout / ".bench_out" / f"result-{workload}-full-seed{seed}-trace{trace}.json"
    report = json.loads(result.read_text())
    report["verdict"] = verdict
    return report


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's [q1, median, q3] and the pairs the change won."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        out[name] = {
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, seconds, args.trace)
            print(f"pair {i} seed {seed} {side}: "
                  f"{json.dumps(pair[side]['verdict']['metrics'])}", flush=True)
        runs.append(pair)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"entries": []}
    doc.update({
        "script": "tools/bench_pairs.py",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "statistic": "per metric: [q1, median, q3] over pairs for each side "
                     "(inclusive quartiles), and the count of pairs where the "
                     "change is better in the metric's direction",
    })
    entry = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
             "pairs": args.pairs, "seeds": [r["seed"] for r in runs],
             "summary": summarize(runs, better), "runs": runs}
    doc["entries"] = [e for e in doc["entries"]
                      if (e["workload"], e["trace"]) != (args.workload, args.trace)]
    doc["entries"].append(entry)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
