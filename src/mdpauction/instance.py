"""Mission domain model, seeded instance generation, and the instance file format.

Conventions used across the package:

* coordinates live on a [0, 100] x [0, 100] plane, distances are Euclidean;
* times are minutes from mission start, the planning horizon defaults to 480;
* speeds are distance units per minute; travel time = distance / speed;
* task ids are 0..n-1 and agent ids 0..m-1, densely numbered;
* location index 0 is the depot and index j+1 is task j.

Instances serialize to a JSON document (see :func:`serialize_instance`); floats
are written with full precision so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

WINDOW_PROBABILITIES = (0.25, 0.5, 0.75, 1.0)
SERVICE_RANGE = (10.0, 30.0)
WIDTH_RANGE = (30.0, 90.0)
PLANE_SIDE = 100.0

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """Raised when an instance document is malformed or violates an invariant."""


@dataclass(frozen=True)
class Location:
    x: float
    y: float


def distance(a: Location, b: Location) -> float:
    """Euclidean distance between two locations."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Task:
    """A customer to visit once.

    The service window is [ready_time, due_time]: service may start no earlier
    than ready_time (arriving early means waiting) and no later than due_time.
    ``windowed`` records whether the window was drawn or spans the horizon.
    """

    id: int
    location: Location
    price: float
    ready_time: float
    due_time: float
    service_duration: float
    windowed: bool

    def __post_init__(self):
        if not (0.0 <= self.ready_time <= self.due_time):
            raise InstanceFormatError(
                f"tasks[{self.id}].due_time: window [{self.ready_time}, "
                f"{self.due_time}] is inverted or negative"
            )
        if self.service_duration < 0.0:
            raise InstanceFormatError(
                f"tasks[{self.id}].service_duration: must be >= 0"
            )
        if self.price < 0.0:
            raise InstanceFormatError(f"tasks[{self.id}].price: must be >= 0")


@dataclass(frozen=True)
class SpeedModel:
    """Truncated-normal travel speed: max(N(mean, variance), truncation_floor)."""

    mean: float
    variance: float
    truncation_floor: float

    def __post_init__(self):
        if self.mean <= 0.0 or not math.isfinite(self.mean):
            raise InstanceFormatError("speed.mean: must be finite and > 0")
        if self.variance < 0.0 or not math.isfinite(self.variance):
            raise InstanceFormatError("speed.variance: must be finite and >= 0")
        if not (0.0 < self.truncation_floor < self.mean):
            raise InstanceFormatError(
                "speed.truncation_floor: must be in (0, mean)"
            )

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def sample(self, seeds: Sequence, shape: tuple[int, ...]):
        """(len(seeds), *shape) speeds; row r is drawn from `default_rng(seeds[r])`.

        Every entry is max(mean + std * z, truncation_floor) for the row's
        standard normals z in order. At zero variance every entry is the mean
        and no generator is created.
        """
        import numpy as np

        out = np.empty((len(seeds), *shape))
        if self.variance == 0.0:
            out.fill(self.mean)
            return out
        for row, seed in zip(out, seeds):
            np.random.default_rng(seed).standard_normal(out=row)
        out *= self.std
        out += self.mean
        return np.maximum(out, self.truncation_floor, out=out)


@dataclass(frozen=True)
class AgentSpec:
    id: int
    start: Location
    capacity: int
    speed: SpeedModel

    def __post_init__(self):
        if self.capacity < 1:
            raise InstanceFormatError(f"agents[{self.id}].capacity: must be >= 1")


@dataclass
class MissionInstance:
    horizon: float
    depot: Location
    penalty: float
    tasks: list[Task]
    agents: list[AgentSpec]
    seed: int | None = None
    window_probability: float | None = None

    def __post_init__(self):
        validate_instance(self)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def speed(self) -> SpeedModel:
        """The mission's speed model, which validation makes every agent share."""
        return self.agents[0].speed


def validate_instance(inst: MissionInstance) -> None:
    """Check cross-field invariants; raises InstanceFormatError on the first one broken."""
    if not (math.isfinite(inst.horizon) and inst.horizon > 0.0):
        raise InstanceFormatError("horizon: must be finite and > 0")
    if inst.penalty < 0.0:
        raise InstanceFormatError("penalty: must be >= 0")
    for pos, task in enumerate(inst.tasks):
        if task.id != pos:
            raise InstanceFormatError(
                f"tasks[{pos}].id: expected {pos}, got {task.id} (ids must be 0..n-1)"
            )
    if not inst.agents:
        raise InstanceFormatError("agents: a mission needs at least one agent")
    for pos, agent in enumerate(inst.agents):
        if agent.id != pos:
            raise InstanceFormatError(
                f"agents[{pos}].id: expected {pos}, got {agent.id} (ids must be 0..m-1)"
            )
        if agent.speed != inst.speed:
            # scenarios draw one speed per arc for the whole fleet
            raise InstanceFormatError(
                f"agents[{pos}].speed: all agents must share one speed model"
            )


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for random instance generation; defaults mirror the benchmark setup."""

    n_tasks: int
    n_agents: int
    sigma_v_sq: float
    seed: int
    horizon: float = 480.0
    mean_speed: float = 1.0
    price: float = 1.0
    penalty: float = 1.0
    capacity: int | None = None  # None -> ceil(n/m) + 1
    floor_fraction: float = 0.1

    def __post_init__(self):
        if self.n_tasks < 0:
            raise ValueError("n_tasks must be >= 0")
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        for name in ("sigma_v_sq", "horizon", "mean_speed", "price", "penalty"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.horizon <= 0.0 or self.mean_speed <= 0.0:
            raise ValueError("horizon and mean_speed must be > 0")
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not (0.0 < self.floor_fraction < 1.0):
            raise ValueError("floor_fraction must be in (0, 1)")

    def default_capacity(self) -> int:
        if self.capacity is not None:
            return self.capacity
        return math.ceil(self.n_tasks / self.n_agents) + 1


def generate_instance(cfg: GenerationConfig) -> MissionInstance:
    """Draw a random mission instance; equal configs give identical instances.

    Locations are uniform on the plane. Each task is windowed with a
    per-instance probability drawn from WINDOW_PROBABILITIES; a windowed task
    gets ready_time ~ U(0, t_max) with t_max = horizon - travel(depot) - service
    (clamped at 0 so the task is reachable from the depot at mean speed) and a
    window width ~ U(30, 90). Unwindowed tasks span [0, horizon].
    """
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    depot = Location(*rng.uniform(0.0, PLANE_SIDE, 2))
    p_tw = float(rng.choice(WINDOW_PROBABILITIES))

    tasks = []
    for j in range(cfg.n_tasks):
        loc = Location(*rng.uniform(0.0, PLANE_SIDE, 2))
        windowed = bool(rng.random() < p_tw)
        service = float(rng.uniform(*SERVICE_RANGE))
        if windowed:
            t_max = max(
                0.0, cfg.horizon - distance(depot, loc) / cfg.mean_speed - service
            )
            ready = float(rng.uniform(0.0, t_max))
            width = float(rng.uniform(*WIDTH_RANGE))
            due = ready + width
        else:
            ready, due = 0.0, cfg.horizon
        tasks.append(
            Task(
                id=j,
                location=loc,
                price=cfg.price,
                ready_time=ready,
                due_time=due,
                service_duration=service,
                windowed=windowed,
            )
        )

    speed = SpeedModel(
        mean=cfg.mean_speed,
        variance=cfg.sigma_v_sq,
        truncation_floor=cfg.floor_fraction * cfg.mean_speed,
    )
    capacity = cfg.default_capacity()
    agents = [
        AgentSpec(id=i, start=depot, capacity=capacity, speed=speed)
        for i in range(cfg.n_agents)
    ]
    return MissionInstance(
        horizon=cfg.horizon,
        depot=depot,
        penalty=cfg.penalty,
        tasks=tasks,
        agents=agents,
        seed=cfg.seed,
        window_probability=p_tw,
    )


def _require(mapping: dict, key: str, kind, where: str, optional: bool = False):
    """`mapping[key]` as `kind`; a float must be finite, an optional field may be null."""
    if optional and mapping.get(key) is None:
        return None
    if key not in mapping:
        raise InstanceFormatError(f"{where}.{key}: missing required field")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise InstanceFormatError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    if kind is float and not math.isfinite(value):
        raise InstanceFormatError(f"{where}.{key}: expected a finite number")
    return value


def instance_to_dict(inst: MissionInstance) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "horizon": inst.horizon,
        "penalty": inst.penalty,
        "seed": inst.seed,
        "window_probability": inst.window_probability,
        "depot": {"x": inst.depot.x, "y": inst.depot.y},
        "tasks": [
            {
                "id": t.id,
                "x": t.location.x,
                "y": t.location.y,
                "price": t.price,
                "ready_time": t.ready_time,
                "due_time": t.due_time,
                "service_duration": t.service_duration,
                "windowed": t.windowed,
            }
            for t in inst.tasks
        ],
        "agents": [
            {
                "id": a.id,
                "start": {"x": a.start.x, "y": a.start.y},
                "capacity": a.capacity,
                "speed": {
                    "mean": a.speed.mean,
                    "variance": a.speed.variance,
                    "truncation_floor": a.speed.truncation_floor,
                },
            }
            for a in inst.agents
        ],
    }


def serialize_instance(inst: MissionInstance) -> str:
    """Render the instance as a JSON document; floats keep full precision."""
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)


def instance_from_dict(doc: dict) -> MissionInstance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("document: expected a JSON object at top level")
    version = _require(doc, "format_version", int, "document")
    if version != FORMAT_VERSION:
        raise InstanceFormatError(
            f"document.format_version: unsupported version {version}"
        )
    horizon = _require(doc, "horizon", float, "document")
    penalty = _require(doc, "penalty", float, "document")
    depot_doc = _require(doc, "depot", dict, "document")
    depot = Location(
        _require(depot_doc, "x", float, "depot"),
        _require(depot_doc, "y", float, "depot"),
    )
    tasks = []
    for pos, td in enumerate(_require(doc, "tasks", list, "document")):
        where = f"tasks[{pos}]"
        if not isinstance(td, dict):
            raise InstanceFormatError(f"{where}: expected an object")
        tasks.append(
            Task(
                id=_require(td, "id", int, where),
                location=Location(
                    _require(td, "x", float, where), _require(td, "y", float, where)
                ),
                price=_require(td, "price", float, where),
                ready_time=_require(td, "ready_time", float, where),
                due_time=_require(td, "due_time", float, where),
                service_duration=_require(td, "service_duration", float, where),
                windowed=_require(td, "windowed", bool, where),
            )
        )
    agents = []
    for pos, ad in enumerate(_require(doc, "agents", list, "document")):
        where = f"agents[{pos}]"
        if not isinstance(ad, dict):
            raise InstanceFormatError(f"{where}: expected an object")
        start_doc = _require(ad, "start", dict, where)
        speed_doc = _require(ad, "speed", dict, where)
        agents.append(
            AgentSpec(
                id=_require(ad, "id", int, where),
                start=Location(
                    _require(start_doc, "x", float, f"{where}.start"),
                    _require(start_doc, "y", float, f"{where}.start"),
                ),
                capacity=_require(ad, "capacity", int, where),
                speed=SpeedModel(
                    mean=_require(speed_doc, "mean", float, f"{where}.speed"),
                    variance=_require(speed_doc, "variance", float, f"{where}.speed"),
                    truncation_floor=_require(
                        speed_doc, "truncation_floor", float, f"{where}.speed"
                    ),
                ),
            )
        )
    return MissionInstance(
        horizon=horizon,
        depot=depot,
        penalty=penalty,
        tasks=tasks,
        agents=agents,
        seed=_require(doc, "seed", int, "document", optional=True),
        window_probability=_require(doc, "window_probability", float, "document",
                                    optional=True),
    )


def parse_instance(text: str) -> MissionInstance:
    """Parse a JSON instance document; errors name the offending line or field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(
            f"line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    return instance_from_dict(doc)


def save_instance(inst: MissionInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))
        fh.write("\n")


def load_instance(path) -> MissionInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
