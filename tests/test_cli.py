import json
import re
import subprocess
import sys
import tracemalloc

import pytest

from mdpauction import baselines, harness
from mdpauction.cli import main
from mdpauction.instance import (
    GenerationConfig,
    generate_instance,
    load_instance,
    serialize_instance,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen ---------------------------------------------------------------------------


def test_gen_stdout_matches_library(capsys):
    code, out, err = run_cli(["gen", "--n", "3", "--m", "2", "--sigma", "0.1",
                              "--seed", "7"], capsys)
    assert code == 0 and err == ""
    expected = serialize_instance(
        generate_instance(GenerationConfig(n_tasks=3, n_agents=2,
                                           sigma_v_sq=0.1, seed=7))
    )
    assert out == expected + "\n"


def test_gen_to_file_round_trips(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(["gen", "--n", "2", "--m", "1", "--seed", "3",
                          "--out", str(path)], capsys)
    assert code == 0
    inst = load_instance(str(path))
    assert inst.n_tasks == 2 and inst.n_agents == 1 and inst.seed == 3


def test_gen_batch_files(tmp_path, capsys):
    stem = tmp_path / "batch.json"
    code, _, _ = run_cli(["gen", "--n", "2", "--m", "1", "--seed", "0",
                          "--count", "3", "--out", str(stem)], capsys)
    assert code == 0
    files = sorted(tmp_path.glob("batch-*.json"))
    assert [f.name for f in files] == [
        "batch-0000.json", "batch-0001.json", "batch-0002.json"
    ]
    texts = [f.read_text() for f in files]
    assert len(set(texts)) == 3  # distinct derived seeds
    run_cli(["gen", "--n", "2", "--m", "1", "--seed", "0", "--count", "3",
             "--out", str(tmp_path / "again.json")], capsys)
    for i, f in enumerate(sorted(tmp_path.glob("again-*.json"))):
        assert f.read_text() == texts[i]


def test_gen_batch_requires_out(capsys):
    code, out, err = run_cli(["gen", "--n", "2", "--m", "1", "--count", "2"],
                             capsys)
    assert code == 1
    assert err.startswith("error:")


def test_gen_rejects_bad_size(capsys):
    code, _, err = run_cli(["gen", "--n", "-1", "--m", "1"], capsys)
    assert code == 1 and err.startswith("error:")


def test_gen_zero_count_is_rejected(tmp_path, capsys):
    code, out, err = run_cli(["gen", "--n", "3", "--m", "2", "--count", "0",
                              "--out", str(tmp_path / "m.json")], capsys)
    assert code == 1 and out == ""
    assert "--count must be >= 1, got 0" in err
    assert list(tmp_path.iterdir()) == []


# --- solve -------------------------------------------------------------------------


@pytest.fixture()
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(["gen", "--n", "4", "--m", "2", "--sigma", "0.1", "--seed", "5",
             "--out", str(path)], capsys)
    return str(path)


def test_solve_auction_output(instance_file, capsys):
    args = ["solve", instance_file, "--method", "auction", "--quadrature", "4"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "method: auction"
    assert lines[1].startswith("agent 0: tasks [")
    assert lines[2].startswith("agent 1: tasks [")
    assert lines[3].startswith("unassigned: [")
    assert lines[4].startswith("total value: ")
    assert lines[5].startswith("expected reward: ")
    assert lines[6].startswith("rounds: ")
    assert "converged: True" in lines[6]
    code2, out2, _ = run_cli(args, capsys)
    assert out2 == out  # byte-identical rerun


@pytest.mark.parametrize("method", ["cbba", "robust-cbba"])
def test_solve_baselines(instance_file, capsys, method):
    code, out, _ = run_cli(
        ["solve", instance_file, "--method", method, "--samples", "20"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == f"method: {method}"


def test_solve_json_out(instance_file, tmp_path, capsys):
    out_path = tmp_path / "plan.json"
    args = ["solve", instance_file, "--method", "auction", "--quadrature", "4",
            "--out", str(out_path)]
    assert run_cli(args, capsys)[0] == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {
        "method", "assignment", "paths", "unassigned", "per_agent_value",
        "total_value", "expected_reward", "rounds_to_converge", "converged",
        "score_evaluations",
    }
    assert doc["method"] == "auction"
    first = out_path.read_text()
    run_cli(args, capsys)
    assert out_path.read_text() == first


def test_solve_missing_file(capsys):
    code, _, err = run_cli(["solve", "/nonexistent/inst.json"], capsys)
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_zero_agent_mission_is_rejected(instance_file, capsys, command):
    with open(instance_file) as fh:
        doc = json.load(fh)
    doc["agents"] = []
    with open(instance_file, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run_cli([command, instance_file], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: agents")


@pytest.mark.parametrize("grid", ["inf", "nan"])
def test_solve_rejects_non_finite_grid(instance_file, capsys, grid):
    code, out, err = run_cli(["solve", instance_file, "--grid", grid], capsys)
    assert code == 1 and out == ""
    assert err == f"error: grid_step must be finite and > 0, got {float(grid)}\n"


def test_solve_rejects_zero_quadrature_nodes(instance_file, capsys):
    # sigma^2 0.1 needs a rule with at least one node
    code, out, err = run_cli(["solve", instance_file, "--quadrature", "0"], capsys)
    assert code == 1 and out == ""
    assert err == "error: node_count must be >= 1, got 0\n"


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_non_finite_quadrature_rule_is_rejected(instance_file, capsys, command):
    # numpy's Gauss-Hermite weights are NaN at 600 nodes: refused, not solved
    code, out, err = run_cli([command, instance_file, "--quadrature", "600"], capsys)
    assert code == 1 and out == ""
    assert err == ("error: node_count 600 gives a Gauss-Hermite rule with non-finite "
                   "nodes, weights or weight sum\n")


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_non_finite_instance_field_is_rejected(instance_file, capsys, command):
    with open(instance_file) as fh:
        doc = json.load(fh)
    doc["tasks"][0]["price"] = float("nan")
    with open(instance_file, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run_cli([command, instance_file], capsys)
    assert code == 1 and out == ""
    assert err == "error: tasks[0].price: expected a finite number\n"


def test_unknown_command_and_flag(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 2
    assert run_cli(["gen", "--n", "2", "--m", "1", "--bogus"], capsys)[0] == 2


# --- validate ----------------------------------------------------------------------


def test_validate_generated_instance(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    args = ["validate", "--n", "3", "--m", "2", "--sigma", "0.1", "--seed", "2",
            "--rounds", "20", "--quadrature", "4", "--samples", "10",
            "--out", str(out_path)]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 3
    for line, method in zip(lines, ("auction", "cbba", "robust-cbba")):
        assert line.startswith(f"{method}: expected ")
        assert "finish_rate" in line
    text = out_path.read_text()
    header = text.splitlines()[0]
    assert header == ("instance_seed,method,rollout_count,expected_reward,"
                      "actual_reward_mean,actual_reward_std,finish_rate,"
                      "served_total,failed_total,unassigned_total")
    run_cli(args, capsys)
    assert out_path.read_text() == text  # deterministic CSV bytes


def test_validate_instance_file(instance_file, capsys):
    code, out, _ = run_cli(
        ["validate", instance_file, "--methods", "cbba", "--rounds", "10"],
        capsys,
    )
    assert code == 0
    assert out.startswith("cbba: expected ")


def test_validate_unknown_method(capsys):
    code, _, err = run_cli(
        ["validate", "--methods", "auction,magic", "--rounds", "5"], capsys
    )
    assert code == 1 and "magic" in err


@pytest.mark.parametrize("methods, message", [
    (",", "--methods names no method"),
    ("auction,auction", "method 'auction' is repeated"),
])
def test_validate_rejects_empty_or_repeated_methods(tmp_path, capsys, methods, message):
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(["validate", "--n", "3", "--m", "2", "--methods", methods,
                              "--rounds", "5", "--out", str(out_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
    assert not out_path.exists()


def test_validate_rejects_zero_rounds_before_allocating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no method may run")

    monkeypatch.setattr(harness, "run_auction", refuse)
    monkeypatch.setattr(harness, "run_cbba", refuse)
    code, out, err = run_cli(["validate", "--n", "3", "--m", "2", "--rounds", "0"], capsys)
    assert (code, out, err) == (1, "", "error: rounds must be >= 1\n")


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_value_table_is_refused_before_allocating(tmp_path, capsys):
    # k = 12 at a 0.001-minute grid would ask numpy for ~190 GiB
    path = tmp_path / "n12.json"
    run_cli(["gen", "--n", "12", "--m", "3", "--sigma", "0.1", "--seed", "4",
             "--out", str(path)], capsys)
    (code, out, err), peak = _peak_bytes(
        lambda: run_cli(["solve", str(path), "--grid", "0.001"], capsys))
    assert (code, out) == (1, "")
    assert err.startswith("error: a value table over k=12 tasks with 480001 time bins")
    assert "Q=8" in err and "grid 0.001" in err and "horizon 480.0" in err
    assert peak < 1 << 20, peak
    # a subnormal grid step makes the bin count overflow a float
    code, out, err = run_cli(["solve", str(path), "--grid", "1e-320"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: grid_step 1e-320 splits horizon 480.0 into infinitely many time bins\n"


def test_oversized_row_store_is_refused_before_allocating(tmp_path, capsys):
    # n = 13 > SUBSET_CAP at a 0.001-minute grid: the serve transitions alone
    # would take about 8.4 GB
    path = tmp_path / "n13.json"
    run_cli(["gen", "--n", "13", "--m", "2", "--sigma", "0.1", "--seed", "4",
             "--out", str(path)], capsys)
    for args in (["solve"], ["validate", "--methods", "auction"]):
        (code, out, err), peak = _peak_bytes(
            lambda: run_cli([*args, str(path), "--grid", "0.001"], capsys))
        assert (code, out) == (1, "")
        assert err.startswith("error: the value rows of one start over n=13 tasks with "
                              "480001 time bins and Q=8 quadrature nodes would hold"), err
        assert peak < 1 << 20, peak


def test_oversized_rollout_is_refused_before_allocating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no method may run")

    monkeypatch.setattr(harness, "run_auction", refuse)
    monkeypatch.setattr(harness, "run_cbba", refuse)
    (code, out, err), peak = _peak_bytes(
        lambda: run_cli(["validate", "--n", "12", "--m", "3", "--rounds", "100000000"],
                        capsys))
    assert (code, out) == (1, "")
    assert err.startswith("error: 100000000 rounds over n=12 tasks need")
    assert peak < 1 << 20, peak


def test_oversized_robust_batch_is_refused_before_sampling(instance_file, monkeypatch,
                                                           capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no batch may be sampled")

    monkeypatch.setattr(baselines, "_sample_scenarios", refuse)
    # validate refuses before any method allocates, the auction included
    monkeypatch.setattr(harness, "run_auction", refuse)
    for command in (["solve", instance_file, "--method", "robust-cbba"],
                    ["validate", instance_file]):
        (code, out, err), peak = _peak_bytes(
            lambda: run_cli(command + ["--samples", "100000000"], capsys))
        assert (code, out) == (1, ""), command
        assert err.startswith("error: sample_count 100000000 over n_tasks=4 needs")
        assert err.count("\n") == 1
        assert peak < 1 << 20, (command, peak)


# --- bench -------------------------------------------------------------------------


def test_bench_stdout_deterministic(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    args = ["bench", "--dims", "2,3", "--samples", "10", "--repeats", "1",
            "--out", str(out_path)]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("n=2 method=auction evaluations=")
    header = out_path.read_text().splitlines()[0]
    assert header == ("n_tasks,n_agents,instance_seed,method,score_evaluations,"
                      "setup_wall_s,coordination_wall_s,total_wall_s")
    code2, out2, _ = run_cli(args, capsys)
    assert out2 == out  # counters never depend on the clock


@pytest.mark.parametrize("dims", [",", ""])
def test_bench_rejects_empty_dims(tmp_path, capsys, dims):
    out_path = tmp_path / "bench.csv"
    code, out, err = run_cli(["bench", "--dims", dims, "--repeats", "1",
                              "--out", str(out_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --dims names no task count")
    assert not out_path.exists()


# --- check -------------------------------------------------------------------------


def test_check_monotonicity_passes(capsys):
    code, out, _ = run_cli(
        ["check", "--property", "monotonicity", "--trials", "5"], capsys
    )
    assert code == 0
    assert "property: monotonicity" in out
    assert out.strip().endswith("PASS")


def test_check_submodularity_line(capsys):
    code, out, _ = run_cli(
        ["check", "--property", "submodularity", "--trials", "3"], capsys
    )
    first, verdict = out.splitlines()
    match = re.fullmatch(r"property: submodularity screened=(\d+) checked=3 "
                         r"violations=(\d+) worst=\S+", first)
    assert match, first
    assert int(match[1]) >= 3
    violations = int(match[2])
    assert (code == 0) == (violations == 0)
    assert verdict == ("PASS" if violations == 0 else "FAIL")


def test_check_optimality_passes(capsys):
    code, out, _ = run_cli(
        ["check", "--property", "optimality", "--trials", "4"], capsys
    )
    assert code == 0
    assert "min_ratio=" in out
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_zero_robust_samples_is_rejected(instance_file, capsys, command):
    code, _, err = run_cli(
        [command, instance_file, "--samples", "0"]
        + (["--method", "robust-cbba"] if command == "solve" else ["--rounds", "5"]),
        capsys,
    )
    assert code == 1
    assert "sample_count must be >= 1, got 0" in err


def test_bench_zero_repeats_is_rejected(capsys):
    code, _, err = run_cli(["bench", "--dims", "2", "--repeats", "0"], capsys)
    assert code == 1
    assert "repeats must be >= 1, got 0" in err


def test_check_zero_trials_is_rejected(capsys):
    code, out, err = run_cli(
        ["check", "--property", "optimality", "--trials", "0"], capsys
    )
    assert code == 1 and out == ""
    assert "--trials must be >= 1, got 0" in err


@pytest.mark.parametrize("args, message", [
    (["gen", "--n", "2", "--m", "1", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["solve", "m.json", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["validate", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["bench", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["check", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["bench", "--dims", "a"], "argument --dims: invalid int value in 'a'"),
    (["bench", "--dims", "2,x"], "argument --dims: invalid int value in '2,x'"),
], ids=["gen-seed", "solve-seed", "validate-seed", "bench-seed", "check-seed", "dims-a",
        "dims-2x"])
def test_bad_seed_or_dims_is_a_usage_error(capsys, args, message):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.endswith(f"mdpauction {args[0]}: error: {message}\n")


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "mdpauction.cli", "gen", "--n", "1", "--m", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"horizon"' in proc.stdout
