"""Print one sha256 over the program's deterministic outputs.

    python3 tools/same_bytes.py [CHECKOUT]

CHECKOUT (default: this repository) is a checkout whose `src/` is imported.
Run it on two checkouts: equal digests mean every output below has the same
bytes. The outputs are `solve` stdout and `--out` JSON for every method and
topology on generated missions with sigma^2 0 and 0.1, `solve --no-wrap` and
`solve --grid 10` on the sigma^2 0.1 mission, one auction `solve` beyond the
subset cap (n = 13, which reads value rows of one store per start),
`validate` beyond the cap on n = 13, m = 4 missions whose agents each have their
own start (sigma^2 0 and 0.1), `validate` stdout
and CSV (on both missions, and on the sigma^2 0.1 mission with `--no-wrap`,
`--quadrature`, `--grid`, `--seed` and `--topology` changed), `solve` and
`validate` on an n = 7 mission edited so that its agents share a start but
have capacities 1, 2 and 5 (tables solved through capacity 5), the `bench` CSV
without its wall-time columns, `check` for optimality, monotonicity,
convergence and submodularity, and `run_experiment` sweeps (rows without wall
times, plus error records): one on a ring, and one base sweep with each of
`wrapping`, `max_rounds`, `quadrature_nodes`, `grid_step`, `topology` and
`rollout_rounds` (0: no rollouts) changed in turn. Every command's exit code
is included. Last, on a generated n = 5, m = 1, sigma^2 0.1 mission with
capacity 2, whose set values past the capacity re-solve the solver's table:
every subset's `set_value` as a float hex, and the `check_submodularity_V` and
`check_monotonicity_V` reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path


def collect(work: Path) -> list[tuple[str, str]]:
    """Every output as (label, text); files go to `work`, the working directory."""
    from mdpauction import cli, harness
    from mdpauction.auction import TOPOLOGIES
    from mdpauction.instance import GenerationConfig, generate_instance
    from mdpauction.valuedp import ValueSolver

    outputs = []

    def run(args: list[str], out: Path | None = None, strip_wall: bool = False) -> None:
        """Run the CLI in-process; keep its exit code, stdout, stderr and `--out` file."""
        stdout, stderr = io.StringIO(), io.StringIO()
        if out is not None:
            out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args + (["--out", str(out)] if out else []))
        outputs.append((" ".join(args), f"exit {code}\n{stdout.getvalue()}\n{stderr.getvalue()}"))
        if out is not None:
            text = out.read_text() if out.exists() else "<no file>"
            outputs.append((f"{args[0]} --out",
                            harness.strip_wall_columns(text) if strip_wall else text))

    for sigma in ("0", "0.1"):
        mission = work / f"mission-{sigma}.json"
        run(["gen", "--n", "7", "--m", "4", "--sigma", sigma, "--seed", "11",
             "--out", str(mission)])
        for method in ("auction", "cbba", "robust-cbba"):
            for topology in TOPOLOGIES:
                run(["solve", str(mission), "--method", method, "--topology", topology,
                     "--samples", "30", "--seed", "3"], work / "solve.json")
        run(["solve", str(mission), "--quadrature", "3", "--grid", "2"], work / "solve.json")
        run(["validate", str(mission), "--rounds", "200", "--samples", "30"],
            work / "validate.csv")
    for flags in (["--no-wrap"], ["--grid", "10"]):
        run(["solve", str(work / "mission-0.1.json"), *flags], work / "solve.json")
    # each flag below changes this mission's validate output on its own
    # (--topology line only together with --seed 2)
    for flags in (["--no-wrap"], ["--quadrature", "3"], ["--grid", "10"], ["--seed", "2"],
                  ["--seed", "2", "--topology", "line"]):
        run(["validate", str(work / "mission-0.1.json"), "--rounds", "200", "--samples", "30",
             *flags], work / "validate.csv")
    mixed = work / "mission-mixed.json"
    run(["gen", "--n", "7", "--m", "3", "--sigma", "0.1", "--seed", "12", "--out", str(mixed)])
    doc = json.loads(mixed.read_text())
    for agent, capacity in zip(doc["agents"], (1, 2, 5)):
        agent["capacity"] = capacity
    mixed.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    run(["solve", str(mixed)], work / "solve.json")
    run(["validate", str(mixed), "--rounds", "200", "--samples", "30"], work / "validate.csv")
    run(["gen", "--n", "13", "--m", "4", "--sigma", "0.1", "--seed", "11",
         "--out", str(work / "mission-13.json")])
    run(["solve", str(work / "mission-13.json"), "--quadrature", "3"], work / "solve.json")
    for sigma in ("0", "0.1"):  # beyond the cap, every agent at its own start
        apart = work / f"mission-13-apart-{sigma}.json"
        run(["gen", "--n", "13", "--m", "4", "--sigma", sigma, "--seed", "13",
             "--out", str(apart)])
        doc = json.loads(apart.read_text())
        for i, agent in enumerate(doc["agents"]):
            agent["start"] = {"x": 10.0 + 25.0 * i, "y": 80.0 - 20.0 * i}
        apart.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        run(["validate", str(apart), "--rounds", "200", "--samples", "30", "--quadrature", "3"],
            work / "validate.csv")
    run(["bench", "--dims", "2,3", "--repeats", "1", "--samples", "20"],
        work / "bench.csv", strip_wall=True)
    for prop in ("optimality", "monotonicity", "convergence"):
        run(["check", "--property", prop, "--trials", "12", "--seed", "5"])
    run(["check", "--property", "submodularity", "--trials", "20"])

    sweep = harness.run_experiment(harness.ExperimentConfig(
        dimensions=((2, 2), (4, 3), (3, 0)), sigma_grid=(0.0, 0.1), instances_per_cell=2,
        rollout_rounds=20, robust_samples=10, topology="ring", master_seed=9))
    outputs.append(("sweep rows", harness.rows_to_csv(sweep.rows, include_wall=False)))
    outputs.append(("sweep errors", json.dumps(sweep.errors, sort_keys=True)))

    # every field change below gives rows that differ from the base sweep's
    base = harness.ExperimentConfig(
        dimensions=((3, 2), (6, 3)), sigma_grid=(0.1,), instances_per_cell=2,
        rollout_rounds=20, robust_samples=10, master_seed=1)
    for change in ({}, {"wrapping": False}, {"max_rounds": 1}, {"quadrature_nodes": 3},
                   {"grid_step": 2.0}, {"topology": "line"}, {"rollout_rounds": 0}):
        sweep = harness.run_experiment(dataclasses.replace(base, **change))
        outputs.append((f"sweep {change}",
                        harness.rows_to_csv(sweep.rows, include_wall=False)
                        + json.dumps(sweep.errors, sort_keys=True)))

    bounded = generate_instance(GenerationConfig(n_tasks=5, n_agents=1, sigma_v_sq=0.1,
                                                 seed=3, capacity=2))
    solver = ValueSolver(bounded)
    agent = bounded.agents[0]
    values = [f"{subset} {solver.set_value(agent, subset).hex()}"
              for size in range(6) for subset in itertools.combinations(range(5), size)]
    outputs.append(("capacity-2 set values", "\n".join(values)))
    for check in (harness.check_submodularity_V, harness.check_monotonicity_V):
        outputs.append((check.__name__, repr(check(bounded, max_set=5))))
    return outputs


def main() -> None:
    checkout = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative file names keep the temporary path out of the digest
        try:
            outputs = collect(Path())
        finally:
            os.chdir(home)
    digest = hashlib.sha256()
    for label, text in outputs:
        digest.update(f"{label}\n{len(text)}\n{text}\n".encode())
    print(f"{digest.hexdigest()}  ({len(outputs)} outputs, {checkout})")


if __name__ == "__main__":
    main()
