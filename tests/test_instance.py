import dataclasses
import json
import math
import re

import pytest

from mdpauction.instance import (
    WINDOW_PROBABILITIES,
    AgentSpec,
    GenerationConfig,
    InstanceFormatError,
    Location,
    MissionInstance,
    SpeedModel,
    Task,
    distance,
    generate_instance,
    instance_to_dict,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)


def test_distance_identity():
    p = Location(12.5, 73.25)
    assert distance(p, p) == 0.0


def test_distance_pythagorean_triple():
    assert distance(Location(0.0, 0.0), Location(3.0, 4.0)) == 5.0


def test_distance_plane_diagonal():
    # closed form: 100 * sqrt(2)
    assert distance(Location(0.0, 0.0), Location(100.0, 100.0)) == 141.42135623730951


def test_distance_symmetry_and_triangle():
    a, b, c = Location(1.0, 2.0), Location(40.0, 9.0), Location(33.0, 77.0)
    assert distance(a, b) == distance(b, a)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


def test_generate_basic_fields():
    inst = generate_instance(
        GenerationConfig(n_tasks=2, n_agents=2, sigma_v_sq=0.1, seed=7)
    )
    assert inst.horizon == 480.0
    assert inst.penalty == 1.0
    assert all(t.price == 1.0 for t in inst.tasks)
    assert all(a.speed.mean == 1.0 for a in inst.agents)
    assert 0.0 <= inst.depot.x <= 100.0 and 0.0 <= inst.depot.y <= 100.0
    for t in inst.tasks:
        assert 0.0 <= t.location.x <= 100.0
        assert 0.0 <= t.location.y <= 100.0
    # all agents launch from the shared depot
    assert all(a.start == inst.depot for a in inst.agents)


def test_generate_empty_task_list():
    inst = generate_instance(
        GenerationConfig(n_tasks=0, n_agents=1, sigma_v_sq=0.0, seed=3)
    )
    assert inst.tasks == []
    assert inst.n_agents == 1


def test_generate_determinism():
    cfg = GenerationConfig(n_tasks=6, n_agents=3, sigma_v_sq=0.05, seed=123)
    assert generate_instance(cfg) == generate_instance(cfg)


def test_generate_distinct_seeds_differ():
    a = generate_instance(GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=0.1, seed=1))
    b = generate_instance(GenerationConfig(n_tasks=4, n_agents=2, sigma_v_sq=0.1, seed=2))
    assert a != b


def test_default_capacity_rule():
    inst = generate_instance(
        GenerationConfig(n_tasks=5, n_agents=2, sigma_v_sq=0.0, seed=0)
    )
    assert all(a.capacity == math.ceil(5 / 2) + 1 for a in inst.agents)
    inst2 = generate_instance(
        GenerationConfig(n_tasks=5, n_agents=2, sigma_v_sq=0.0, seed=0, capacity=1)
    )
    assert all(a.capacity == 1 for a in inst2.agents)


def test_generated_ranges_over_many_draws():
    # aggregate enough instances to exceed 10,000 task draws
    seen_p = set()
    n_tasks_total = 0
    seed = 0
    while n_tasks_total < 10_000:
        inst = generate_instance(
            GenerationConfig(n_tasks=25, n_agents=2, sigma_v_sq=0.1, seed=seed)
        )
        seed += 1
        seen_p.add(inst.window_probability)
        n_tasks_total += inst.n_tasks
        for t in inst.tasks:
            assert 0.0 <= t.location.x <= 100.0 and 0.0 <= t.location.y <= 100.0
            assert 10.0 <= t.service_duration <= 30.0
            assert 0.0 <= t.ready_time <= t.due_time
            if t.windowed:
                width = t.due_time - t.ready_time
                assert 30.0 <= width <= 90.0
                bound = max(
                    0.0,
                    480.0 - distance(inst.depot, t.location) / 1.0 - t.service_duration,
                )
                assert t.ready_time <= bound + 1e-9
            else:
                assert t.ready_time == 0.0 and t.due_time == 480.0
    assert seen_p <= set(WINDOW_PROBABILITIES)
    assert len(seen_p) == len(WINDOW_PROBABILITIES)


def test_round_trip_bit_exact():
    inst = generate_instance(
        GenerationConfig(n_tasks=7, n_agents=3, sigma_v_sq=0.2, seed=99)
    )
    text = serialize_instance(inst)
    back = parse_instance(text)
    assert back == inst
    assert serialize_instance(back) == text


def test_save_load_round_trip(tmp_path):
    inst = generate_instance(
        GenerationConfig(n_tasks=3, n_agents=2, sigma_v_sq=0.1, seed=5)
    )
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_parse_missing_horizon_names_field():
    inst = generate_instance(
        GenerationConfig(n_tasks=1, n_agents=1, sigma_v_sq=0.0, seed=1)
    )
    doc = instance_to_dict(inst)
    del doc["horizon"]
    with pytest.raises(InstanceFormatError, match="horizon"):
        parse_instance(json.dumps(doc))


def test_parse_window_inversion_names_task_field():
    inst = generate_instance(
        GenerationConfig(n_tasks=2, n_agents=1, sigma_v_sq=0.0, seed=1)
    )
    doc = instance_to_dict(inst)
    doc["tasks"][1]["ready_time"] = 100.0
    doc["tasks"][1]["due_time"] = 50.0
    with pytest.raises(InstanceFormatError, match=r"tasks\[1\].due_time"):
        parse_instance(json.dumps(doc))


def test_parse_bad_json_reports_position():
    with pytest.raises(InstanceFormatError, match="line 1"):
        parse_instance("{not json")


def test_parse_wrong_type_names_field():
    inst = generate_instance(
        GenerationConfig(n_tasks=1, n_agents=1, sigma_v_sq=0.0, seed=1)
    )
    doc = instance_to_dict(inst)
    doc["penalty"] = "one"
    with pytest.raises(InstanceFormatError, match="penalty"):
        parse_instance(json.dumps(doc))


def _doc_with(path, value):
    """A valid instance document with the field at `path` set to `value`."""
    doc = instance_to_dict(generate_instance(
        GenerationConfig(n_tasks=2, n_agents=2, sigma_v_sq=0.1, seed=1)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)  # writes NaN and Infinity, which json.loads reads back


@pytest.mark.parametrize("path, value, message", [
    (("horizon",), math.inf, "document.horizon: expected a finite number"),
    (("penalty",), math.nan, "document.penalty: expected a finite number"),
    (("depot", "x"), math.nan, "depot.x: expected a finite number"),
    (("tasks", 1, "price"), math.nan, "tasks[1].price: expected a finite number"),
    (("tasks", 0, "price"), 10**400, "tasks[0].price: expected a finite number"),
    (("tasks", 0, "x"), math.inf, "tasks[0].x: expected a finite number"),
    (("tasks", 0, "y"), -math.inf, "tasks[0].y: expected a finite number"),
    (("tasks", 0, "ready_time"), -math.inf, "tasks[0].ready_time: expected a finite number"),
    (("tasks", 0, "due_time"), math.inf, "tasks[0].due_time: expected a finite number"),
    (("tasks", 1, "service_duration"), math.nan,
     "tasks[1].service_duration: expected a finite number"),
    (("agents", 1, "start", "y"), math.inf, "agents[1].start.y: expected a finite number"),
    (("agents", 0, "speed", "variance"), math.nan,
     "agents[0].speed.variance: expected a finite number"),
    (("seed",), "hello", "document.seed: expected int, got str"),
    (("seed",), 1.5, "document.seed: expected int, got float"),
    (("seed",), True, "document.seed: expected int, got bool"),
    (("window_probability",), [1], "document.window_probability: expected float, got list"),
    (("window_probability",), math.nan, "document.window_probability: expected a finite number"),
])
def test_parse_rejects_non_finite_or_mistyped_field(path, value, message):
    with pytest.raises(InstanceFormatError, match="^" + re.escape(message) + "$"):
        parse_instance(_doc_with(path, value))


@pytest.mark.parametrize("key", ["seed", "window_probability"])
def test_parse_accepts_null_or_missing_optional_field(key):
    assert getattr(parse_instance(_doc_with((key,), None)), key) is None
    doc = json.loads(_doc_with((key,), None))
    del doc[key]
    assert getattr(parse_instance(json.dumps(doc)), key) is None


def test_task_invariant_rejects_inverted_window():
    with pytest.raises(InstanceFormatError, match=r"tasks\[0\].due_time"):
        Task(id=0, location=Location(0.0, 0.0), price=1.0, ready_time=5.0,
             due_time=4.0, service_duration=1.0, windowed=True)


def test_speed_model_invariants():
    with pytest.raises(InstanceFormatError):
        SpeedModel(mean=0.0, variance=0.1, truncation_floor=0.1)
    with pytest.raises(InstanceFormatError):
        SpeedModel(mean=1.0, variance=-0.1, truncation_floor=0.1)
    with pytest.raises(InstanceFormatError):
        SpeedModel(mean=1.0, variance=0.1, truncation_floor=1.0)
    model = SpeedModel(mean=1.0, variance=0.25, truncation_floor=0.1)
    assert model.std == 0.5


def test_agent_capacity_invariant():
    speed = SpeedModel(mean=1.0, variance=0.0, truncation_floor=0.1)
    with pytest.raises(InstanceFormatError):
        AgentSpec(id=0, start=Location(0.0, 0.0), capacity=0, speed=speed)


def test_mission_instance_rejects_gapped_task_ids():
    speed = SpeedModel(mean=1.0, variance=0.0, truncation_floor=0.1)
    agent = AgentSpec(id=0, start=Location(0.0, 0.0), capacity=1, speed=speed)
    task = Task(id=1, location=Location(1.0, 1.0), price=1.0, ready_time=0.0,
                due_time=480.0, service_duration=10.0, windowed=False)
    with pytest.raises(InstanceFormatError, match="ids"):
        MissionInstance(horizon=480.0, depot=Location(0.0, 0.0), penalty=1.0,
                        tasks=[task], agents=[agent])


def test_mission_rejects_mixed_speed_models():
    inst = generate_instance(
        GenerationConfig(n_tasks=2, n_agents=3, sigma_v_sq=0.1, seed=1)
    )
    slower = SpeedModel(mean=0.8, variance=0.1, truncation_floor=0.1)
    doc = instance_to_dict(inst)
    doc["agents"][1]["speed"]["mean"] = slower.mean
    with pytest.raises(InstanceFormatError, match=r"^agents\[1\]\.speed: "):
        parse_instance(json.dumps(doc))
    agents = list(inst.agents)
    agents[1] = dataclasses.replace(agents[1], speed=slower)
    with pytest.raises(InstanceFormatError, match=r"^agents\[1\]\.speed: "):
        dataclasses.replace(inst, agents=agents)
    assert inst.speed == inst.agents[2].speed


def test_mission_rejects_empty_agent_list():
    inst = generate_instance(
        GenerationConfig(n_tasks=2, n_agents=1, sigma_v_sq=0.0, seed=1)
    )
    doc = instance_to_dict(inst)
    doc["agents"] = []
    with pytest.raises(InstanceFormatError, match="^agents: "):
        parse_instance(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match="^agents: "):
        dataclasses.replace(inst, agents=[])


def test_generation_config_rejects_bad_values():
    with pytest.raises(ValueError):
        GenerationConfig(n_tasks=-1, n_agents=1, sigma_v_sq=0.0, seed=0)
    with pytest.raises(ValueError):
        GenerationConfig(n_tasks=1, n_agents=0, sigma_v_sq=0.0, seed=0)
    with pytest.raises(ValueError):
        GenerationConfig(n_tasks=1, n_agents=1, sigma_v_sq=-0.5, seed=0)
    with pytest.raises(ValueError):
        GenerationConfig(n_tasks=1, n_agents=1, sigma_v_sq=0.0, seed=0, horizon=0.0)
