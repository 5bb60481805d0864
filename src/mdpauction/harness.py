"""Experiment orchestration, property suites, and the brute-force referee.

`run_mission`, the one mission runner for `mdpauction validate` and the sweep,
allocates every method and rolls the allocations out on paired scenarios.
Everything here is seeded and deterministic: instance seeds derive from the
master seed through SeedSequence, rollouts pair scenarios across methods, and
CSV output is byte-identical across runs except for wall-time columns.
Set MDPAUCTION_WORKERS=k to fan instances out over k processes (the row order
is still deterministic).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .auction import AllocationResult, NetworkModel, run_auction
from .baselines import RobustConfig, check_batch, run_cbba
from .instance import GenerationConfig, MissionInstance, generate_instance
from .rollout import check_rounds, validate
from .valuedp import ValueSolver, build_quadrature, deterministic_route_reward

SUBMODULARITY_TOLERANCE = 1e-9
SCREEN_BYTES_CAP = 1 << 26  # bytes of scenario speeds `classify_r_submodular` may hold

# the allocation methods `run_method` knows, in report order
METHODS = ("auction", "cbba", "robust-cbba")

CSV_COLUMNS = [
    "n_tasks",
    "n_agents",
    "sigma_v_sq",
    "instance_seed",
    "method",
    "expected_reward",
    "actual_reward_mean",
    "actual_reward_std",
    "finish_rate",
    "served_total",
    "failed_total",
    "unassigned_total",
    "rounds_to_converge",
    "converged",
    "score_evaluations",
    "setup_wall_s",
    "coordination_wall_s",
    "total_wall_s",
]

WALL_COLUMNS = ("setup_wall_s", "coordination_wall_s", "total_wall_s")


@dataclass
class PropertyReport:
    name: str
    checks: int = 0
    violations: int = 0
    worst: float = 0.0
    witnesses: list = field(default_factory=list)

    def record(self, magnitude: float, witness: dict, tolerance: float) -> None:
        self.checks += 1
        if magnitude > tolerance:
            self.violations += 1
            self.worst = max(self.worst, magnitude)
            if len(self.witnesses) < 20:
                self.witnesses.append(witness)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _subsets(ids: tuple[int, ...]):
    for r in range(len(ids) + 1):
        yield from itertools.combinations(ids, r)


def _nested(ids: tuple[int, ...]):
    """(small, big) for every subset `big` of ids and every subset `small` of it."""
    for big in _subsets(ids):
        for small in _subsets(big):
            yield small, big


def _gains(values: dict, ids: tuple[int, ...]):
    """(small, big, j, gain_small, gain_big) for nested pairs and each j outside big.

    `values` maps each sorted subset of ids to a float or an array of floats.
    """
    for small, big in _nested(ids):
        for j in ids:
            if j in big:
                continue
            gain_small = values[tuple(sorted(small + (j,)))] - values[small]
            gain_big = values[tuple(sorted(big + (j,)))] - values[big]
            yield small, big, j, gain_small, gain_big


def _set_values(inst: MissionInstance, agent, max_set: int, solver: ValueSolver | None):
    """(task ids, V at the agent's start for every subset) for the V checks."""
    if inst.n_tasks > max_set:
        raise ValueError(f"instance has {inst.n_tasks} tasks; cap is {max_set}")
    if agent is None:
        agent = inst.agents[0]
    if solver is None:
        solver = ValueSolver(inst)
    ids = tuple(range(inst.n_tasks))
    return ids, {s: solver.set_value(agent, s) for s in _subsets(ids)}


def check_submodularity_V(
    inst: MissionInstance,
    agent=None,
    max_set: int = 4,
    solver: ValueSolver | None = None,
    tolerance: float = SUBMODULARITY_TOLERANCE,
) -> PropertyReport:
    """Exhaustive V(A+j) - V(A) >= V(B+j) - V(B) over nested A within B."""
    ids, values = _set_values(inst, agent, max_set, solver)
    report = PropertyReport(name="submodularity")
    for small, big, j, gain_small, gain_big in _gains(values, ids):
        witness = {"small": small, "big": big, "task": j,
                   "gain_small": gain_small, "gain_big": gain_big}
        report.record(gain_big - gain_small, witness, tolerance)
    return report


def check_monotonicity_V(
    inst: MissionInstance,
    agent=None,
    max_set: int = 4,
    solver: ValueSolver | None = None,
) -> PropertyReport:
    """V(B) >= V(A) for A within B; holds structurally through the skip action."""
    ids, values = _set_values(inst, agent, max_set, solver)
    report = PropertyReport(name="monotonicity")
    for small, big in _nested(ids):
        report.record(values[small] - values[big], {"small": small, "big": big},
                      SUBMODULARITY_TOLERANCE)
    return report


def classify_r_submodular(
    inst: MissionInstance,
    agent=None,
    quadrature_nodes: int = 2,
    tolerance: float = SUBMODULARITY_TOLERANCE,
) -> bool:
    """Scenario-wise brute force: is the clairvoyant route reward submodular for
    every combination of quadrature-node speeds on the traversable arcs?

    Arcs are depot->task and task->task ordered pairs. The Q^arcs combinations
    are the rows of one (Q^arcs, L, L) speed array, scored at once; an array over
    SCREEN_BYTES_CAP bytes is refused before anything is allocated. The
    assignment grid and the per-subset rewards are each no larger than the
    array, so the peak is about three times it: 38 MiB for the 13 MB array of
    n = 4 at Q = 2. n = 5 at Q = 2 (about 10 GB) is refused. At zero variance
    the rule is one exact node, so there is one row whatever Q is.
    """
    if agent is None:
        agent = inst.agents[0]
    ids = tuple(range(inst.n_tasks))
    arcs = [(0, j + 1) for j in ids] + [(i + 1, j + 1) for i in ids for j in ids if i != j]
    node_speeds = np.array(build_quadrature(agent.speed, quadrature_nodes).speeds)
    rows, size = len(node_speeds) ** len(arcs), len(ids) + 1
    if rows * size * size * 8 > SCREEN_BYTES_CAP:
        raise ValueError(f"route screen needs {rows} speed rows ({len(node_speeds)}^{len(arcs)})"
                         f" of {size}x{size} floats; the cap is {SCREEN_BYTES_CAP} bytes")
    speeds = np.full((rows, size, size), inst.speed.mean)
    # row r gives arc i the node grid[i, r], in itertools.product order
    grid = np.indices((len(node_speeds),) * len(arcs)).reshape(len(arcs), rows)
    for (a, b), nodes in zip(arcs, grid):
        speeds[:, a, b] = node_speeds[nodes]
    rewards = {s: deterministic_route_reward(inst, agent, s, speeds) for s in _subsets(ids)}
    return not any(np.any(gain_big - gain_small > tolerance)
                   for _, _, _, gain_small, gain_big in _gains(rewards, ids))


def brute_force_opt(
    inst: MissionInstance,
    solver: ValueSolver | None = None,
    max_tasks: int = 4,
    max_agents: int = 3,
) -> tuple[float, dict[int, list[int]]]:
    """Exact optimum of sum-of-values minus the unassigned penalty.

    Enumerates every capacity-feasible task->agent map (including leaving tasks
    unassigned). Shares the solver's tables, so comparisons against auction
    values are same-arithmetic.
    """
    n, m = inst.n_tasks, inst.n_agents
    if n > max_tasks or m > max_agents:
        raise ValueError(
            f"brute force capped at {max_tasks} tasks / {max_agents} agents"
        )
    if solver is None:
        solver = ValueSolver(inst)
    best_value, best_map = None, None
    for owners in itertools.product(range(-1, m), repeat=n):
        sets: dict[int, list[int]] = {a.id: [] for a in inst.agents}
        unassigned = 0
        for j, owner in enumerate(owners):
            if owner < 0:
                unassigned += 1
            else:
                sets[owner].append(j)
        if any(len(sets[a.id]) > a.capacity for a in inst.agents):
            continue
        value = (
            math.fsum(
                solver.set_value(a, sets[a.id]) if sets[a.id] else 0.0
                for a in inst.agents
            )
            - inst.penalty * unassigned
        )
        if best_value is None or value > best_value:
            best_value, best_map = value, sets
    return best_value, best_map


@dataclass(frozen=True)
class ExperimentConfig:
    dimensions: tuple[tuple[int, int], ...] = ((2, 2), (3, 2), (4, 2), (5, 2))
    sigma_grid: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
    instances_per_cell: int = 10
    methods: tuple[str, ...] = METHODS
    rollout_rounds: int = 100
    robust_samples: int = 100
    quadrature_nodes: int = 8
    grid_step: float = 1.0
    master_seed: int = 0
    wrapping: bool = True
    topology: str = "complete"  # one of auction.TOPOLOGIES
    max_rounds: int | None = None


def derive_seed(master: int, *keys: int) -> int:
    return int(np.random.SeedSequence([master, *keys]).generate_state(1)[0])


def run_method(
    inst: MissionInstance,
    method: str,
    network: NetworkModel,
    robust_cfg: RobustConfig,
    quadrature_nodes: int = 8,
    grid_step: float = 1.0,
    wrapping: bool = True,
    max_rounds: int | None = None,
) -> tuple[AllocationResult, float, float]:
    """Allocate `inst` with one of METHODS.

    Returns (allocation, setup_s, coordination_s); the CBBA variants read
    `robust_cfg`. The auction's setup builds each start's empty-bundle table
    before coordination starts (see `ValueSolver.table`; beyond the subset
    cap it only makes each start's empty row store) and is timed apart.
    """
    if method == "auction":
        solver = ValueSolver(inst, quadrature_nodes=quadrature_nodes, grid_step=grid_step)
        t0 = time.perf_counter()
        for agent in inst.agents:
            solver.table(agent)
        t1 = time.perf_counter()
        allocation = run_auction(
            inst, network=network, solver=solver, wrapping=wrapping, max_rounds=max_rounds
        )
        return allocation, t1 - t0, time.perf_counter() - t1
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    allocation = run_cbba(
        inst,
        network=network,
        variant="robust" if method == "robust-cbba" else "deterministic",
        robust_cfg=robust_cfg,
        max_rounds=max_rounds,
    )
    return allocation, 0.0, time.perf_counter() - t0


def run_mission(
    inst: MissionInstance,
    methods: Sequence[str],
    network: NetworkModel,
    robust_cfg: RobustConfig,
    quadrature_nodes: int = 8,
    grid_step: float = 1.0,
    wrapping: bool = True,
    max_rounds: int | None = None,
    rounds: int = 100,
    seed: int = 0,
) -> list[dict]:
    """One row per method, in `methods` order: the allocation's counters and wall
    times, then its `RolloutReport` fields from `rounds` rollouts on one scenario
    list seeded by `seed` and shared by all methods (`rounds` <= 0: no rollouts).
    Rollouts or a robust scenario batch over `rollout.ROLLOUT_BYTES_CAP` are
    refused before any allocation.
    """
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if method in methods[:i]:
            raise ValueError(f"method {method!r} is repeated")
    if rounds > 0:
        check_rounds(inst, rounds)
    if "robust-cbba" in methods:
        check_batch(inst, robust_cfg)
    rows, allocations = [], {}
    for method in methods:
        allocation, setup_s, coord_s = run_method(
            inst, method, network, robust_cfg, quadrature_nodes, grid_step, wrapping, max_rounds
        )
        allocations[method] = allocation
        rows.append({
            "method": method,
            "expected_reward": allocation.expected_reward(inst),
            "rounds_to_converge": allocation.rounds_to_converge,
            "converged": allocation.converged,
            "score_evaluations": allocation.score_evaluations,
            "setup_wall_s": setup_s,
            "coordination_wall_s": coord_s,
            "total_wall_s": setup_s + coord_s,
        })
    if rounds > 0:
        reports = validate(inst, allocations, rounds, seed)
        for row in rows:
            row.update(reports[row["method"]].as_row())
    return rows


def run_cell_instance(cfg: ExperimentConfig, n: int, m: int, sigma: float, seed: int) -> list[dict]:
    """All method rows for one generated instance (rollouts paired by seed)."""
    inst = generate_instance(
        GenerationConfig(n_tasks=n, n_agents=m, sigma_v_sq=sigma, seed=seed)
    )
    rows = run_mission(
        inst, cfg.methods, NetworkModel.from_name(cfg.topology, m, cfg.master_seed),
        RobustConfig(cfg.robust_samples, derive_seed(cfg.master_seed, 7001, seed)),
        cfg.quadrature_nodes, cfg.grid_step, cfg.wrapping, cfg.max_rounds,
        cfg.rollout_rounds, derive_seed(cfg.master_seed, 40, seed),
    )
    cell = {"n_tasks": n, "n_agents": m, "sigma_v_sq": sigma, "instance_seed": seed}
    return [{**cell, **row} for row in rows]


@dataclass
class ExperimentResult:
    rows: list[dict]
    errors: list[dict] = field(default_factory=list)


def _cell_jobs(cfg: ExperimentConfig):
    jobs = []
    for cell, (n, m) in enumerate(cfg.dimensions):
        for s_idx, sigma in enumerate(cfg.sigma_grid):
            for i in range(cfg.instances_per_cell):
                seed = derive_seed(cfg.master_seed, cell, s_idx, i)
                jobs.append((n, m, sigma, seed))
    return jobs


def _run_job(args) -> tuple[list[dict], dict | None]:
    """(rows, None) for a job that ran, ([], error record) for one that raised."""
    cfg, n, m, sigma, seed = args
    try:
        return run_cell_instance(cfg, n, m, sigma, seed), None
    except Exception as err:  # noqa: BLE001 - sweep must survive bad cells
        return [], {"n_tasks": n, "n_agents": m, "sigma_v_sq": sigma,
                    "instance_seed": seed, "error": f"{type(err).__name__}: {err}"}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Sweep dimensions x sigma x instances; failures are recorded, not fatal.

    Serial and parallel runs return the same rows and the same error records.
    """
    jobs = [(cfg, *job) for job in _cell_jobs(cfg)]
    workers = int(os.environ.get("MDPAUCTION_WORKERS", "1") or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [_run_job(job) for job in jobs]
    rows: list[dict] = []
    errors: list[dict] = []
    for job_rows, error in results:
        rows.extend(job_rows)
        if error is not None:
            errors.append(error)
    return ExperimentResult(rows=rows, errors=errors)


def format_float(x) -> str:
    """How CSV cells and CLI lines print a float: repr of the Python float, so a
    numpy float prints like a Python one and reruns compare byte for byte."""
    return repr(float(x))


def csv_text(rows: list[dict], columns: list[str]) -> str:
    """`rows` as CSV over `columns`: missing cells empty, floats via format_float."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        cells = ((c, row.get(c, "")) for c in columns)
        writer.writerow({c: format_float(v) if isinstance(v, float) else v for c, v in cells})
    return buffer.getvalue()


def rows_to_csv(rows: list[dict], include_wall: bool = True) -> str:
    return csv_text(rows, [c for c in CSV_COLUMNS if include_wall or c not in WALL_COLUMNS])


def strip_wall_columns(csv_text: str) -> str:
    """Drop wall-time columns so reruns can be compared byte for byte."""
    reader = csv.reader(io.StringIO(csv_text))
    rows = list(reader)
    if not rows:
        return csv_text
    keep = [i for i, name in enumerate(rows[0]) if name not in WALL_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in keep])
    return out.getvalue()


def optimality_study(
    count: int = 200,
    seed: int = 0,
    n_tasks: int = 4,
    n_agents: int = 2,
    sigma_grid: tuple[float, ...] = (0.0, 0.1),
) -> list[dict]:
    """Auction value against the brute-force optimum on small instances.

    The ratio uses the same value tables on both sides. Optimum 0 with auction
    value 0 counts as ratio 1.
    """
    rows = []
    for i in range(count):
        sigma = sigma_grid[i % len(sigma_grid)]
        inst_seed = derive_seed(seed, 2, i)
        inst = generate_instance(
            GenerationConfig(
                n_tasks=n_tasks, n_agents=n_agents, sigma_v_sq=sigma, seed=inst_seed
            )
        )
        solver = ValueSolver(inst, quadrature_nodes=8)
        allocation = run_auction(inst, solver=solver)
        auction_value = allocation.expected_reward(inst)
        opt_value, _ = brute_force_opt(inst, solver=solver)
        if opt_value <= 0.0:
            ratio = 1.0 if auction_value >= opt_value else 0.0
        else:
            ratio = auction_value / opt_value
        rows.append(
            {
                "instance_seed": inst_seed,
                "sigma_v_sq": sigma,
                "auction_value": auction_value,
                "opt_value": opt_value,
                "ratio": ratio,
            }
        )
    return rows


def submodularity_study(
    count: int = 100,
    seed: int = 0,
    n_tasks: int = 3,
    quadrature_nodes: int = 2,
    sigma_grid: tuple[float, ...] = (0.05, 0.1, 0.2),
) -> dict:
    """Screen tiny instances for scenario-wise route-reward submodularity, then
    check the expected value table on the ones that pass.

    Generation keeps drawing until `count` instances pass the screen.
    """
    screened = 0
    checked = 0
    violations = 0
    worst = 0.0
    witnesses = []
    draw = 0
    while checked < count:
        sigma = sigma_grid[draw % len(sigma_grid)]
        inst_seed = derive_seed(seed, 3, draw)
        draw += 1
        inst = generate_instance(
            GenerationConfig(
                n_tasks=n_tasks, n_agents=1, sigma_v_sq=sigma, seed=inst_seed
            )
        )
        screened += 1
        if not classify_r_submodular(inst, quadrature_nodes=quadrature_nodes):
            continue
        solver = ValueSolver(inst, quadrature_nodes=quadrature_nodes)
        report = check_submodularity_V(inst, solver=solver, max_set=n_tasks)
        checked += 1
        if not report.ok:
            violations += report.violations
            worst = max(worst, report.worst)
            witnesses.append({"instance_seed": inst_seed, "sigma_v_sq": sigma,
                              "witness": report.witnesses[0]})
        if screened > 60 * count:
            raise RuntimeError("screen pass rate too low; widen the study")
    return {
        "screened": screened,
        "checked": checked,
        "violations": violations,
        "worst": worst,
        "witnesses": witnesses,
    }


def convergence_study(
    count: int = 500,
    seed: int = 0,
    topologies: tuple[str, ...] = ("complete", "ring", "line"),
    n_agents: int = 4,
    wrapping: bool = True,
) -> list[dict]:
    """Rounds-to-converge for the auction across network shapes."""
    rows = []
    per_topology = count // len(topologies) + (count % len(topologies) > 0)
    for t_idx, topology in enumerate(topologies):
        network = NetworkModel.from_name(topology, n_agents, seed)
        for i in range(per_topology):
            inst_seed = derive_seed(seed, 7, t_idx, i)
            sigma = (0.0, 0.1)[i % 2]
            n = 2 + (i % 4)
            inst = generate_instance(
                GenerationConfig(
                    n_tasks=n, n_agents=n_agents, sigma_v_sq=sigma, seed=inst_seed
                )
            )
            solver = ValueSolver(inst, quadrature_nodes=4)
            allocation = run_auction(
                inst, network=network, solver=solver, wrapping=wrapping
            )
            rows.append(
                {
                    "topology": topology,
                    "diameter": network.diameter,
                    "n_tasks": n,
                    "instance_seed": inst_seed,
                    "rounds": allocation.rounds_to_converge,
                    "bound": n * network.diameter,
                    "converged": allocation.converged,
                    "oscillating": len(allocation.oscillating_tasks),
                }
            )
    return rows[:count] if len(rows) > count else rows


def bench_complexity(
    n_values: tuple[int, ...] = (2, 3, 4, 5),
    n_agents: int = 2,
    seed: int = 0,
    robust_samples: int = 100,
    repeats: int = 3,
    instances_per_n: int = 5,
) -> list[dict]:
    """Score-evaluation counters and wall times per method as tasks grow.

    Runs at sigma^2 = 0 so the deterministic and robust insertion baselines
    walk identical decision paths and the counter ratio is exactly the sample
    count. Counters and wall times sum over `instances_per_n` instances so a
    single instance's convergence-round draw doesn't dominate the trend; each
    instance's wall contribution is the minimum over `repeats` runs.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if instances_per_n < 1:
        raise ValueError(f"instances_per_n must be >= 1, got {instances_per_n}")
    rows = []
    for n in n_values:
        totals = {
            method: {"evaluations": 0, "setup_wall_s": 0.0,
                     "coordination_wall_s": 0.0}
            for method in METHODS
        }
        network = NetworkModel.complete(n_agents)
        first_seed = None
        for k in range(instances_per_n):
            inst_seed = derive_seed(seed, 6, n, k)
            if first_seed is None:
                first_seed = inst_seed
            inst = generate_instance(
                GenerationConfig(
                    n_tasks=n, n_agents=n_agents, sigma_v_sq=0.0, seed=inst_seed
                )
            )
            robust_cfg = RobustConfig(robust_samples, derive_seed(seed, 7001, inst_seed))
            for method, stats in totals.items():
                best_setup, best_coord = math.inf, math.inf
                allocation = None
                for _ in range(repeats):
                    allocation, setup_s, coord_s = run_method(
                        inst, method, network, robust_cfg
                    )
                    best_setup = min(best_setup, setup_s)
                    best_coord = min(best_coord, coord_s)
                stats["evaluations"] += allocation.score_evaluations
                stats["setup_wall_s"] += best_setup
                stats["coordination_wall_s"] += best_coord
        for method, stats in totals.items():
            rows.append(
                {
                    "n_tasks": n,
                    "n_agents": n_agents,
                    "instance_seed": first_seed,
                    "method": method,
                    "score_evaluations": stats["evaluations"],
                    "setup_wall_s": stats["setup_wall_s"],
                    "coordination_wall_s": stats["coordination_wall_s"],
                    "total_wall_s": stats["setup_wall_s"]
                    + stats["coordination_wall_s"],
                }
            )
    return rows
