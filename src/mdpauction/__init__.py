"""Auction-based multi-agent task allocation with MDP value bidding."""

from .auction import AllocationResult, NetworkModel, run_auction, wrap_bid
from .baselines import RobustConfig, insertion_bid, path_reward, run_cbba
from .instance import (
    AgentSpec,
    GenerationConfig,
    InstanceFormatError,
    Location,
    MissionInstance,
    SpeedModel,
    Task,
    generate_instance,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .rollout import RolloutReport, validate
from .valuedp import (
    Action,
    AgentState,
    QuadratureRule,
    Scenario,
    ValueSolver,
    ValueTable,
    build_quadrature,
    deterministic_route_reward,
    next_action,
    solve_value,
    value_of,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AgentSpec",
    "AgentState",
    "AllocationResult",
    "GenerationConfig",
    "InstanceFormatError",
    "Location",
    "MissionInstance",
    "NetworkModel",
    "QuadratureRule",
    "RobustConfig",
    "RolloutReport",
    "Scenario",
    "SpeedModel",
    "Task",
    "ValueSolver",
    "ValueTable",
    "build_quadrature",
    "deterministic_route_reward",
    "generate_instance",
    "insertion_bid",
    "load_instance",
    "next_action",
    "parse_instance",
    "path_reward",
    "run_auction",
    "run_cbba",
    "save_instance",
    "serialize_instance",
    "solve_value",
    "validate",
    "value_of",
    "wrap_bid",
]
