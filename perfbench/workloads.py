"""The benchmark's workloads: seeded inputs, one mission runner each, output checks.

A workload is an endless, seed-determined sequence of missions. Setup makes a
pool of them (instance files for the CLI workloads, job tuples for the sweep);
the timed loop walks the pool and wraps around if a fast program exhausts it.
The first `reward_prefix` missions are always run, so reward means cover the
same missions on every commit, whatever the speed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mdpauction import cli, harness, instance

# Stream tags keep the seed streams of different workloads apart.
TAGS = {"validate-n8": 81, "sweep-small": 82, "beyond-cap": 83}


def derive(*keys: int) -> int:
    """A 32-bit seed that depends on every key; same keys, same seed."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass
class Mission:
    index: int
    args: tuple


@dataclass
class Outcome:
    digest: str
    rewards: dict[str, float]
    problems: list[str] = field(default_factory=list)


def check_rows(rows: list[dict], methods, rounds: int, price: float,
               penalty: float) -> list[str]:
    """Conservation and reward identity on every method row of one mission.

    served + failed + unassigned must equal rounds * n (a task counted twice
    breaks it), and actual_reward_mean * rounds must equal
    price * served - penalty * (failed + unassigned) (unit prices per task).
    """
    problems = []
    got = [r["method"] for r in rows]
    if got != list(methods):
        problems.append(f"methods {got} != {list(methods)}")
    for r in rows:
        n = int(r["n_tasks"])
        served, failed, unassigned = (int(r[c]) for c in
                                      ("served_total", "failed_total", "unassigned_total"))
        if int(r.get("rollout_count", rounds)) != rounds:
            problems.append(f"{r['method']}: rollout_count {r['rollout_count']} != {rounds}")
        if served + failed + unassigned != rounds * n:
            problems.append(f"{r['method']}: served+failed+unassigned "
                            f"{served + failed + unassigned} != {rounds * n}")
        total = float(r["actual_reward_mean"]) * rounds
        expect = price * served - penalty * (failed + unassigned)
        if abs(total - expect) > 1e-9 * max(1.0, rounds * n):
            problems.append(f"{r['method']}: reward identity {total!r} != {expect!r}")
    return problems


class CliWorkload:
    """Missions that run `mdpauction validate` in-process on generated files.

    Mission i has sizes[i % len(sizes)] tasks; runs stop only after whole
    rounds of sizes, so every size has the same share of the samples.
    """

    def __init__(self, name, seed, workdir: Path, pool, reward_prefix, rounds,
                 methods, extra_args, sizes, m, sigma):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.pool_size = pool
        self.reward_prefix = reward_prefix
        self.rounds = rounds
        self.methods = methods
        self.extra_args = extra_args
        self.sizes = sizes
        self.m = m
        self.sigma = sigma
        self.group = len(sizes)

    def make_instance(self, i: int) -> instance.MissionInstance:
        cfg = instance.GenerationConfig(
            n_tasks=self.sizes[i % len(self.sizes)], n_agents=self.m,
            sigma_v_sq=self.sigma, seed=derive(self.seed, TAGS[self.name], i))
        return instance.generate_instance(cfg)

    def setup(self) -> list[Mission]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        missions = []
        for i in range(self.pool_size):
            inst = self.make_instance(i)
            self.price, self.penalty = inst.tasks[0].price, inst.penalty
            if any(t.price != self.price for t in inst.tasks):
                raise RuntimeError("the reward identity check needs unit prices")
            path = self.workdir / f"mission-{i:04d}.json"
            instance.save_instance(inst, path)
            missions.append(Mission(i, (str(path),)))
        return missions

    def run(self, mission: Mission) -> Outcome:
        path = mission.args[0]
        out_csv = Path(path).with_suffix(".csv")
        argv = ["validate", path, "--methods", ",".join(self.methods),
                "--rounds", str(self.rounds), "--seed", "0",
                "--quadrature", "8", "--grid", "1.0", "--topology", "complete",
                *self.extra_args, "--out", str(out_csv)]
        stdout, stderr = io.StringIO(), io.StringIO()
        out_csv.unlink(missing_ok=True)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0 or not out_csv.exists():
            return Outcome("", {}, [f"exit {code}: {stderr.getvalue().strip()}"])
        data = out_csv.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        n = self.sizes[mission.index % len(self.sizes)]
        for r in rows:
            r["n_tasks"] = n
        problems = check_rows(rows, self.methods, self.rounds, self.price, self.penalty)
        rewards = {r["method"]: float(r["actual_reward_mean"]) for r in rows}
        return Outcome(hashlib.sha256(data).hexdigest(), rewards, problems)


class BeyondCap(CliWorkload):
    def make_instance(self, i: int) -> instance.MissionInstance:
        # Distinct start positions, so no two agents could share a value table.
        inst = super().make_instance(i)
        rng = np.random.default_rng(derive(self.seed, TAGS[self.name], i, 1))
        agents = [dataclasses.replace(a, start=instance.Location(
            *(float(v) for v in rng.uniform(0.0, instance.PLANE_SIDE, 2))))
            for a in inst.agents]
        return dataclasses.replace(inst, agents=agents)


class SweepWorkload:
    """Every job of the paper sweep, one `harness.run_cell_instance` per mission.

    Each pass is the whole sweep under its own master seed, in shuffled order,
    so a pass cut short by the clock still samples every cell evenly.
    """

    name = "sweep-small"
    group = 1

    def __init__(self, seed, passes, cfg_fields):
        self.seed = seed
        self.passes = passes
        self.cfg_fields = cfg_fields

    def setup(self) -> list[Mission]:
        missions = []
        for p in range(self.passes):
            cfg = harness.ExperimentConfig(
                master_seed=derive(self.seed, TAGS[self.name], p), **self.cfg_fields)
            jobs = harness._cell_jobs(cfg)
            order = np.random.default_rng(derive(self.seed, TAGS[self.name], p, 1)
                                          ).permutation(len(jobs))
            base = len(missions)
            missions += [Mission(base + pos, (cfg, *jobs[k])) for pos, k in enumerate(order)]
        if not missions:
            raise RuntimeError("the sweep has no jobs")
        self.pool_size = len(missions)
        self.reward_prefix = len(missions) // self.passes
        gen = instance.GenerationConfig(n_tasks=1, n_agents=1, sigma_v_sq=0.0, seed=0)
        self.price, self.penalty = gen.price, gen.penalty
        return missions

    def run(self, mission: Mission) -> Outcome:
        cfg = mission.args[0]
        rows = harness.run_cell_instance(*mission.args)
        text = harness.rows_to_csv(rows, include_wall=False)
        problems = check_rows(rows, cfg.methods, cfg.rollout_rounds,
                              self.price, self.penalty)
        rewards = {r["method"]: float(r["actual_reward_mean"]) for r in rows}
        return Outcome(hashlib.sha256(text.encode()).hexdigest(), rewards, problems)


def make(name: str, seed: int, size: str, workdir: Path):
    """The workload `name` at `size` ("full" for measurement, "tiny" for the smoke check)."""
    full = size == "full"
    if name == "validate-n8":
        return CliWorkload(
            name, seed, workdir, pool=48 if full else 3, reward_prefix=6 if full else 2,
            rounds=1000 if full else 50, methods=("auction", "cbba", "robust-cbba"),
            extra_args=["--samples", "100" if full else "10"],
            sizes=(8,) if full else (4,), m=3 if full else 2, sigma=0.1)
    if name == "beyond-cap":
        return BeyondCap(
            name, seed, workdir, pool=48 if full else 2, reward_prefix=6 if full else 2,
            rounds=1000 if full else 50, methods=("auction",), extra_args=[],
            sizes=(16,) if full else (13, 14), m=4 if full else 7, sigma=0.0)
    if name == "sweep-small":
        if full:
            return SweepWorkload(seed, passes=8, cfg_fields={})
        return SweepWorkload(seed, passes=2, cfg_fields=dict(
            dimensions=((2, 2), (3, 2)), sigma_grid=(0.0, 0.1), instances_per_cell=1,
            rollout_rounds=10, robust_samples=10))
    raise ValueError(f"unknown workload {name!r}")
