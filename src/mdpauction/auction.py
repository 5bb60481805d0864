"""Decentralized bundle auction with value-function bids and consensus.

Every allocation method here is one bundle auction that differs only in its
offers: the (task, gain, path position) triples an agent sees for the tasks
outside its bundle. `grow_bundle` is the one greedy growth rule, and
`run_bundle_auction` the one driver from offers to a reported allocation. The
value-function auction offers the marginal gain of adding j to the bundle's
value function, appended at the path's end (`marginal_offers`), and its
allocation carries the `ValueSolver` it bid with, whose tables its agents
execute. Shared bids can be wrapped down to the bundle's smallest standing bid
so the broadcast sequence is non-increasing, which restores the
diminishing-gain property consensus convergence relies on. Conflicts are
resolved with the standard bundle-algorithm decision table over (winning bid,
winner, timestamp) triples; losing a task truncates the bundle at the lost
entry.

Agents act synchronously: every cycle is a build phase followed by one message
exchange over the network. Timestamps never count as state changes (they tick
every round); convergence means bids, winners, and bundles all held still for
`diameter` consecutive cycles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .instance import AgentSpec, MissionInstance
from .valuedp import ValueSolver

logger = logging.getLogger(__name__)

UNASSIGNED = -1
MESSAGE_VERSION = 1
TOPOLOGIES = ("complete", "ring", "line", "random")


@dataclass
class BundleState:
    """One agent's local view of the auction."""

    agent_id: int
    capacity: int
    n_tasks: int
    n_agents: int
    bundle: list[int] = field(default_factory=list)  # insertion order
    path: list[int] = field(default_factory=list)  # execution order
    winning_bids: np.ndarray = None  # y: best known bid per task
    winners: np.ndarray = None  # z: believed winner per task (UNASSIGNED = none)
    timestamps: np.ndarray = None  # s: freshness of info about each agent

    def __post_init__(self):
        if self.winning_bids is None:
            self.winning_bids = np.zeros(self.n_tasks)
        if self.winners is None:
            self.winners = np.full(self.n_tasks, UNASSIGNED, dtype=np.int64)
        if self.timestamps is None:
            self.timestamps = np.zeros(self.n_agents)

    def snapshot(self) -> "Message":
        return Message(
            version=MESSAGE_VERSION,
            sender=self.agent_id,
            winning_bids=self.winning_bids.copy(),
            winners=self.winners.copy(),
            timestamps=self.timestamps.copy(),
        )


@dataclass(frozen=True)
class Message:
    version: int
    sender: int
    winning_bids: np.ndarray
    winners: np.ndarray
    timestamps: np.ndarray


@dataclass
class NetworkModel:
    """Undirected connected topology over agent ids with synchronous rounds."""

    neighbors: list[list[int]]
    name: str = "custom"

    def __post_init__(self):
        m = len(self.neighbors)
        for i, peers in enumerate(self.neighbors):
            for p in peers:
                if not (0 <= p < m) or p == i:
                    raise ValueError(f"invalid neighbor {p} for agent {i}")
        self.diameter = self._diameter()

    @property
    def n_agents(self) -> int:
        return len(self.neighbors)

    def _diameter(self) -> int:
        m = len(self.neighbors)
        if m == 1:
            return 0
        worst = 0
        for src in range(m):
            dist = {src: 0}
            queue = [src]
            for node in queue:
                for nxt in self.neighbors[node]:
                    if nxt not in dist:
                        dist[nxt] = dist[node] + 1
                        queue.append(nxt)
            if len(dist) < m:
                raise ValueError("network is not connected")
            worst = max(worst, max(dist.values()))
        return worst

    @classmethod
    def from_name(cls, name: str, m: int, seed: int) -> "NetworkModel":
        """The topology `name` (one of TOPOLOGIES) over m agents; `seed` shapes "random"."""
        if name == "complete":
            return cls.complete(m)
        if name == "ring":
            return cls.ring(m)
        if name == "line":
            return cls.line(m)
        if name == "random":
            return cls.random_connected(m, seed=seed)
        raise ValueError(f"unknown topology {name!r}")

    @classmethod
    def complete(cls, m: int) -> "NetworkModel":
        return cls([[j for j in range(m) if j != i] for i in range(m)], name="complete")

    @classmethod
    def ring(cls, m: int) -> "NetworkModel":
        if m < 3:
            return cls.complete(m)
        return cls(
            [sorted({(i - 1) % m, (i + 1) % m}) for i in range(m)], name="ring"
        )

    @classmethod
    def line(cls, m: int) -> "NetworkModel":
        neighbors = []
        for i in range(m):
            peers = [p for p in (i - 1, i + 1) if 0 <= p < m]
            neighbors.append(peers)
        return cls(neighbors, name="line")

    @classmethod
    def random_connected(cls, m: int, seed: int, edge_probability: float = 0.4) -> "NetworkModel":
        rng = np.random.default_rng(seed)
        neighbors = [set() for _ in range(m)]
        order = rng.permutation(m)
        for a, b in zip(order[:-1], order[1:]):  # random spanning tree keeps it connected
            neighbors[a].add(int(b))
            neighbors[b].add(int(a))
        for i in range(m):
            for j in range(i + 1, m):
                if j not in neighbors[i] and rng.random() < edge_probability:
                    neighbors[i].add(j)
                    neighbors[j].add(i)
        return cls([sorted(s) for s in neighbors], name="random")


@dataclass
class AllocationResult:
    method: str
    assignment: dict[int, list[int]]  # agent id -> task ids, bundle order
    paths: dict[int, list[int]]  # agent id -> execution order
    unassigned: list[int]
    per_agent_value: dict[int, float]
    rounds_to_converge: int
    converged: bool
    score_evaluations: int
    oscillating_tasks: list[int] = field(default_factory=list)
    # the value-function auction's solver: rollouts follow its tables; the
    # CBBA variants leave it None and rollouts fly `paths`
    solver: ValueSolver | None = field(default=None, compare=False, repr=False)

    @property
    def total_value(self) -> float:
        return math.fsum(self.per_agent_value.values())

    def expected_reward(self, inst: MissionInstance) -> float:
        """Planner-side prediction: agent values minus the unassigned penalty."""
        return self.total_value - inst.penalty * len(self.unassigned)


def wrap_bid(raw: float, bundle_bids) -> float:
    """Cap a bid at the smallest standing bid already in the bundle."""
    smallest = min(bundle_bids, default=None)
    if smallest is None:
        return raw
    return min(raw, smallest)


def marginal_offers(
    inst: MissionInstance, agent: AgentSpec, solver: ValueSolver, state: BundleState
):
    """V(bundle + j) - V(bundle) for every task j outside the bundle, at the path's end.

    The solver solves every set these offers read in one batch first
    (`ValueSolver.prefetch`).
    """
    base = frozenset(state.bundle)
    outside = [j for j in range(inst.n_tasks) if j not in base]
    solver.prefetch(agent, [base | {j} for j in outside])
    for j in outside:
        yield j, solver.marginal_gain(agent, base, j), len(state.path)


def grow_bundle(state: BundleState, offers, wrapping: bool) -> bool:
    """Greedily grow the bundle until full, no task is eligible, or gains hit 0.

    `offers()` is called once per growth pass and yields (task, gain, path
    position) for the tasks outside the bundle, in task id order. With
    `wrapping` each gain is capped at the bundle's smallest standing bid. An
    offer is eligible when it is positive and strictly beats the known winning
    bid; ties among eligible offers go to the lowest task id. The winner is
    inserted into the path at its position and appended to the bundle.
    Returns True if the bundle grew.
    """
    grew = False
    while len(state.bundle) < state.capacity:
        standing = [float(state.winning_bids[j]) for j in state.bundle]
        best = None  # (offer, task, pos)
        for j, gain, pos in offers():
            offer = wrap_bid(gain, standing) if wrapping else gain
            if offer <= 0.0 or not offer > float(state.winning_bids[j]):
                continue
            if best is None or offer > best[0]:
                best = (offer, j, pos)
        if best is None:
            break
        offer, j, pos = best
        state.path.insert(pos, j)
        state.bundle.append(j)
        state.winning_bids[j] = offer
        state.winners[j] = state.agent_id
        grew = True
    return grew


def _release_from(state: BundleState, index: int) -> None:
    """Drop bundle[index:] keeping the lost entry's new owner; reset the rest."""
    dropped = state.bundle[index:]
    for j in dropped[1:]:
        if state.winners[j] == state.agent_id:
            state.winners[j] = UNASSIGNED
            state.winning_bids[j] = 0.0
    del state.bundle[index:]
    state.path = [j for j in state.path if j in set(state.bundle)]


def consensus_round(state: BundleState, inbox: list[Message], now: float) -> bool:
    """Apply the decision table to each inbound message; truncate on losses.

    Returns True when bids, winners, or the bundle changed (timestamp ticks do
    not count). Malformed messages are logged and dropped.
    """
    i = state.agent_id
    changed = False
    for msg in inbox:
        if (
            len(msg.winning_bids) != state.n_tasks
            or len(msg.winners) != state.n_tasks
            or len(msg.timestamps) != state.n_agents
        ):
            logger.warning(
                "agent %d dropped malformed message from %d (vector length mismatch)",
                i,
                msg.sender,
            )
            continue
        k = msg.sender
        for j in range(state.n_tasks):
            action = _decide(state, msg, j)
            if action == "update":
                if (
                    state.winners[j] != msg.winners[j]
                    or state.winning_bids[j] != msg.winning_bids[j]
                ):
                    changed = True
                state.winners[j] = msg.winners[j]
                state.winning_bids[j] = msg.winning_bids[j]
            elif action == "reset":
                if state.winners[j] != UNASSIGNED or state.winning_bids[j] != 0.0:
                    changed = True
                state.winners[j] = UNASSIGNED
                state.winning_bids[j] = 0.0
        merged = np.maximum(state.timestamps, msg.timestamps)
        merged[i] = state.timestamps[i]
        merged[k] = now
        state.timestamps = merged
    lost_at = None
    for idx, j in enumerate(state.bundle):
        if state.winners[j] != i:
            lost_at = idx
            break
    if lost_at is not None:
        _release_from(state, lost_at)
        changed = True
    return changed


def _beats(bid_a: float, id_a: int, bid_b: float, id_b: int) -> bool:
    """Strict dominance with ties to the lower agent id."""
    return bid_a > bid_b or (bid_a == bid_b and id_a < id_b)


def _decide(state: BundleState, msg: Message, j: int) -> str:
    """One entry of the decision table: sender k tells receiver i about task j."""
    i, k = state.agent_id, msg.sender
    zk = int(msg.winners[j])
    zi = int(state.winners[j])
    yk = float(msg.winning_bids[j])
    yi = float(state.winning_bids[j])

    def newer(about: int) -> bool:
        return msg.timestamps[about] > state.timestamps[about]

    if zk == k:  # sender claims the task
        if zi == i:
            return "update" if _beats(yk, k, yi, i) else "leave"
        if zi == k:
            return "update"
        if zi == UNASSIGNED:
            return "update"
        return "update" if newer(zi) or _beats(yk, k, yi, zi) else "leave"
    if zk == i:  # sender believes the receiver holds it
        if zi == i:
            return "leave"
        if zi == k:
            return "reset"
        if zi == UNASSIGNED:
            return "leave"
        return "reset" if newer(zi) else "leave"
    if zk == UNASSIGNED:  # sender believes nobody holds it
        if zi == i:
            return "leave"
        if zi == k:
            return "update"
        if zi == UNASSIGNED:
            return "leave"
        return "update" if newer(zi) else "leave"
    # sender believes a third agent m holds it
    m = zk
    if zi == i:
        return "update" if newer(m) and _beats(yk, m, yi, i) else "leave"
    if zi == k:
        return "update" if newer(m) else "reset"
    if zi == m:
        return "update" if newer(m) else "leave"
    if zi == UNASSIGNED:
        return "update" if newer(m) else "leave"
    n = zi  # receiver believes a fourth agent n holds it
    if newer(m) and newer(n):
        return "update"
    if newer(m) and _beats(yk, m, yi, n):
        return "update"
    if newer(n) and state.timestamps[m] > msg.timestamps[m]:
        return "reset"
    return "leave"


def run_coordination(
    inst: MissionInstance,
    network: NetworkModel,
    states: list[BundleState],
    build_fn,
    max_rounds: int | None = None,
    trace: list | None = None,
) -> tuple[int, bool, list[int]]:
    """Synchronous build/exchange cycles until quiet for `diameter` rounds.

    `build_fn(agent_index, state) -> bool` grows one agent's bundle. Returns
    (last active cycle, converged flag, oscillating task ids). When `trace` is
    a list, one record per cycle is appended with every agent's outgoing
    message (versioned snapshot).
    """
    m = network.n_agents
    quiet_target = max(network.diameter, 1)
    n_bound = max(inst.n_tasks, 1)
    if max_rounds is None:
        max_rounds = 2 * n_bound * quiet_target + 2 * quiet_target + 8
    quiet = 0
    last_active = 0
    recent_changes: list[set[int]] = []
    for cycle in range(1, max_rounds + 1):
        changed = False
        for i in range(m):
            if build_fn(i, states[i]):
                changed = True
        snapshots = [s.snapshot() for s in states]
        if trace is not None:
            trace.append({"cycle": cycle, "messages": snapshots})
        before = [s.winners.copy() for s in states]
        for i in range(m):
            inbox = [snapshots[p] for p in network.neighbors[i]]
            if consensus_round(states[i], inbox, now=float(cycle)):
                changed = True
        moved = set()
        for i in range(m):
            moved.update(np.nonzero(states[i].winners != before[i])[0].tolist())
        recent_changes.append(moved)
        if changed:
            quiet = 0
            last_active = cycle
        else:
            quiet += 1
            if quiet >= quiet_target:
                return last_active, True, []
    oscillating = sorted(set().union(*recent_changes[-(2 * quiet_target + 2):]))
    return last_active, False, [int(j) for j in oscillating]


def run_bundle_auction(
    method: str,
    inst: MissionInstance,
    network: NetworkModel | None,
    offers,
    wrapping: bool,
    value,
    evaluations,
    max_rounds: int | None = None,
    trace: list | None = None,
) -> AllocationResult:
    """Grow bundles from `offers`, exchange bids to consensus, report the allocation.

    `offers(agent, state)` yields one pass of (task, gain, path position)
    triples for `grow_bundle`; `value(agent, state)` is an agent's reported
    value once coordination ends; `evaluations()` is the score-evaluation
    count. The network defaults to the complete graph.
    """
    if network is None:
        network = NetworkModel.complete(inst.n_agents)
    if network.n_agents != inst.n_agents:
        raise ValueError("network size does not match the instance's agent count")
    states = [
        BundleState(
            agent_id=a.id,
            capacity=a.capacity,
            n_tasks=inst.n_tasks,
            n_agents=inst.n_agents,
        )
        for a in inst.agents
    ]

    def build(i: int, state: BundleState) -> bool:
        return grow_bundle(state, lambda: offers(inst.agents[i], state), wrapping)

    rounds, converged, oscillating = run_coordination(
        inst, network, states, build, max_rounds, trace=trace
    )
    assigned = {j for s in states for j in s.bundle}
    return AllocationResult(
        method=method,
        assignment={s.agent_id: list(s.bundle) for s in states},
        paths={s.agent_id: list(s.path) for s in states},
        unassigned=sorted(set(range(inst.n_tasks)) - assigned),
        per_agent_value={a.id: value(a, s) for a, s in zip(inst.agents, states)},
        rounds_to_converge=rounds,
        converged=converged,
        score_evaluations=evaluations(),
        oscillating_tasks=oscillating,
    )


def run_auction(
    inst: MissionInstance,
    network: NetworkModel | None = None,
    solver: ValueSolver | None = None,
    wrapping: bool = True,
    max_rounds: int | None = None,
    trace: list | None = None,
) -> AllocationResult:
    """Run the value-function auction to consensus and report the allocation,
    which carries the solver it bid with (by default a fresh `ValueSolver(inst)`)."""
    if solver is None:
        solver = ValueSolver(inst)
    allocation = run_bundle_auction(
        "auction",
        inst,
        network,
        lambda agent, state: marginal_offers(inst, agent, solver, state),
        wrapping,
        lambda agent, state: solver.set_value(agent, state.bundle) if state.bundle else 0.0,
        lambda: solver.total_evaluations,
        max_rounds,
        trace,
    )
    return replace(allocation, solver=solver)
