"""Insertion-heuristic bundle auction baselines.

Both variants bid the best single-position insertion gain in mean path score
over a list of speed scenarios (`insertion_bid`). The deterministic variant
scores over the one mean-speed scenario and shares its bids unwrapped; the
robust variant scores over N sampled scenarios (common random numbers across
the candidate positions of one call) and wraps its bids before sharing. Both run
the auction module's one bundle-growth loop and coordination driver
(`run_bundle_auction`); like the value-function method they differ only in
their offers, which here insert the task at its best path position, while the
value-function method appends (its execution order comes from the policy, not
the path).

Score accounting: each insertion bid over N scenarios costs N * (|path|+1) path
evaluations (N = 1 for the deterministic variant); the baseline path's own
score is amortized and not counted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .auction import AllocationResult, NetworkModel, run_bundle_auction
from .instance import AgentSpec, MissionInstance, distance
from .rollout import ROLLOUT_BYTES_CAP, rollout_bytes
from .valuedp import Scenario, mean_scenario


@dataclass
class EvalCounter:
    count: int = 0


@dataclass(frozen=True)
class RobustConfig:
    sample_count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")


@dataclass(frozen=True)
class PathScore:
    reward: float
    served: tuple[int, ...]
    finish_time: float


def path_reward(
    inst: MissionInstance,
    agent: AgentSpec,
    path: list[int],
    scenario: Scenario | None = None,
) -> PathScore:
    """Simulate a fixed visit order; failed tasks are passed through at zero reward.

    Service starts at max(arrival, ready_time) and succeeds iff arrival is no
    later than the due time. Times are exact (no grid).
    """
    if scenario is None:
        scenario = mean_scenario(inst)
    seen = set()
    for j in path:
        if not (0 <= j < inst.n_tasks) or j in seen:
            raise ValueError(f"path visits task {j} twice or out of range")
        seen.add(j)
    t = 0.0
    here = agent.start
    here_index = 0
    reward = 0.0
    served = []
    for j in path:
        task = inst.tasks[j]
        speed = scenario.speed(here_index, j + 1)
        arrival = t + distance(here, task.location) / speed
        if arrival <= task.due_time:
            reward += task.price
            served.append(j)
            t = max(arrival, task.ready_time) + task.service_duration
        else:
            t = arrival
        here = task.location
        here_index = j + 1
    return PathScore(reward=reward, served=tuple(served), finish_time=t)


def check_batch(inst: MissionInstance, cfg: RobustConfig) -> None:
    """Refuse a robust batch whose `rollout_bytes` exceed ROLLOUT_BYTES_CAP."""
    need = rollout_bytes(inst.n_tasks, cfg.sample_count)
    if need > ROLLOUT_BYTES_CAP:
        raise ValueError(f"sample_count {cfg.sample_count} over n_tasks={inst.n_tasks} needs "
                         f"{need} bytes of scenario batch; the cap is {ROLLOUT_BYTES_CAP}")


def _sample_scenarios(inst: MissionInstance, cfg: RobustConfig, call_index: int) -> list[Scenario]:
    """Per-call scenario batch; deterministic in (cfg.seed, call_index)."""
    size = inst.n_tasks + 1
    speeds = inst.speed.sample([(cfg.seed, call_index)], (cfg.sample_count, size, size))[0]
    return [Scenario(speeds[k]) for k in range(cfg.sample_count)]


def _mean_reward(
    inst: MissionInstance, agent: AgentSpec, path: list[int], scenarios: list[Scenario]
) -> float:
    """Mean path reward over the scenario list (fsum, so exact in any order)."""
    return math.fsum(
        path_reward(inst, agent, path, sc).reward for sc in scenarios
    ) / len(scenarios)


def insertion_bid(
    inst: MissionInstance,
    agent: AgentSpec,
    path: list[int],
    task_id: int,
    scenarios: list[Scenario],
    counter: EvalCounter | None = None,
    base_mean: float | None = None,
) -> tuple[float, int]:
    """Best mean insertion gain over the scenario list, common random numbers.

    Every candidate position is scored on the same N scenarios (the one
    mean-speed scenario for the deterministic variant); the bid is the best
    mean score minus the path's own mean score. Counts N path evaluations per
    position.
    """
    n = len(scenarios)
    if base_mean is None:
        base_mean = _mean_reward(inst, agent, path, scenarios)
    best_gain, best_pos = None, 0
    for pos in range(len(path) + 1):
        candidate = path[:pos] + [task_id] + path[pos:]
        total = 0.0
        for sc in scenarios:
            total += path_reward(inst, agent, candidate, sc).reward
            if counter is not None:
                counter.count += 1
        gain = total / n - base_mean
        if best_gain is None or gain > best_gain:
            best_gain, best_pos = gain, pos
    return best_gain, best_pos


def run_cbba(
    inst: MissionInstance,
    network: NetworkModel | None = None,
    variant: str = "deterministic",
    robust_cfg: RobustConfig | None = None,
    max_rounds: int | None = None,
    trace: list | None = None,
) -> AllocationResult:
    """Insertion-bid bundle auction to consensus (deterministic or robust).

    An oversized robust batch is refused before any is sampled (`check_batch`).
    """
    if variant not in ("deterministic", "robust"):
        raise ValueError(f"unknown variant {variant!r}")
    robust = variant == "robust"
    if robust and robust_cfg is None:
        robust_cfg = RobustConfig()
    if robust:
        check_batch(inst, robust_cfg)
    counter = EvalCounter()
    calls = [0] * inst.n_agents  # growth passes so far, per agent

    def scenarios(call_index: int) -> list[Scenario]:
        if robust:
            return _sample_scenarios(inst, robust_cfg, call_index)
        return [mean_scenario(inst)]

    def offers(agent: AgentSpec, state):
        calls[agent.id] += 1
        batch = scenarios(calls[agent.id] * (agent.id + 1))
        base = _mean_reward(inst, agent, state.path, batch)
        for j in range(inst.n_tasks):
            if j not in state.bundle:
                gain, pos = insertion_bid(
                    inst, agent, state.path, j, batch, counter, base_mean=base
                )
                yield j, gain, pos

    final = functools.cache(lambda: scenarios(0))  # drawn once coordination ends
    return run_bundle_auction(
        "robust-cbba" if robust else "cbba",
        inst,
        network,
        offers,
        robust,
        lambda agent, state: _mean_reward(inst, agent, state.path, final()),
        lambda: counter.count,
        max_rounds,
        trace,
    )
