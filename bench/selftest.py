"""Checks of the benchmark itself (not part of the repository's test suite).

Run from the repository root:  python3 -m pytest -q bench/selftest.py

The traced-run test makes two short traced runs, so the file takes about a
minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _, _, final in metrics.END_TO_END if final]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_plans_are_seeded_and_drawn_from_the_recorded_menu():
    golden = json.loads(run.GOLDEN.read_text())
    for workload in workloads.WORKLOADS:
        for seed in range(12):
            plan = workloads.make_plan(workload, seed)
            assert plan == workloads.make_plan(workload, seed)
            for op in plan:
                assert op.get("expect") == "error" or workloads.op_key(op) in golden
    assert workloads.make_plan("catalog-grid", 1) != workloads.make_plan("catalog-grid", 2)


def test_table_plans_build_the_same_gfs_for_every_seed():
    def builds(workload, seed):
        return sorted(workloads.op_key(op) for op in workloads.make_plan(workload, seed)
                      if op["kind"] == "table" and op["family"] != "dpb-higher")

    for workload in ("tables-symbolic", "tables-rational"):
        assert all(builds(workload, seed) == builds(workload, 0) for seed in range(1, 12))
    for seed in range(12):
        plan = workloads.make_plan("tables-symbolic", seed)
        for n in workloads.SYMBOLIC_NS:
            kinds = [op["family"] in ("dpb", "carlitz") and op["kind"] == "table"
                     for op in plan if op["n"] == n]
            assert kinds == sorted(kinds, reverse=True)  # builders before reusers


def test_reported_times_are_scaled_by_their_own_pass():
    passes = [{"wall_s": 4.0, "cpu_s": 3.0, "scale": 0.5, "cpu_scale": 0.5, "rss_kb": 1024,
               "ops": [["a", 1.0, True, None]]},
              {"wall_s": 1.0, "cpu_s": 1.0, "scale": 2.0, "cpu_scale": 2.0, "rss_kb": 2048,
               "ops": [["a", 0.5, True, None]]}]
    fake = {"timed": passes, "setups": [(0.2, 0.5), (0.4, 2.0)]}
    scaled, measured = run.library_end_to_end(fake), run.library_end_to_end(fake, scaled=False)
    assert (scaled["wall_s"], scaled["cpu_s"], scaled["op_p50_s"]) == (2.0, 1.75, 0.75)
    assert (measured["wall_s"], measured["cpu_s"], measured["op_p50_s"]) == (2.5, 2.0, 0.75)
    assert scaled["setup_s"] == pytest.approx(0.45) and measured["setup_s"] == pytest.approx(0.3)
    assert scaled["peak_rss_mb"] == measured["peak_rss_mb"] == 2.0


def test_independent_routes_agree_with_the_library():
    from polybern import families

    for k in (-2, 0, 3):
        table = families.table("dpb", 10, k=k)
        assert [oracles.as_lambda_list(v) for v in table.values] == oracles.dpb_stirling(k, 10)
        table = families.table("poly-bernoulli", 16, k=k)
        assert [oracles.as_lambda_list(v) for v in table.values] == [
            oracles.trim([b]) for b in oracles.kaneko(k, 16)]
    table = families.table("bernoulli", 20)
    assert [oracles.as_lambda_list(v) for v in table.values] == [
        oracles.trim([b]) for b in oracles.bernoulli_triangular(20)]


def _exact(result: dict) -> dict:
    return {name: result["metrics"][name]["value"] for name in metrics.EXACT}


def test_exact_counters_repeat_across_traced_runs():
    first, _ = run.run_workload("catalog-grid", 3, seconds=1, trace=True)
    second, _ = run.run_workload("catalog-grid", 3, seconds=1, trace=True)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, *_ in metrics.PER_LAYER]
    assert _exact(first) == _exact(second)
    assert first["metrics"]["identities.calls"]["value"] == 216
    assert first["metrics"]["identities.pass_ratio"]["value"] == 1.0


def test_exact_counters_repeat_for_a_traced_cli_op():
    rows = []
    for _ in range(2):
        res, _ = run.launch({"mode": "cli", "argv": ["eval", "t/(elam(1)-1)", "--order", "8"],
                             "op_id": 0}, 60)
        assert res["exit"] == 0
        rows.append((res["stdout_bytes"], res["trace"]["counters"],
                     {name: row[0] for name, row in res["trace"]["stats"].items()}))
    assert rows[0] == rows[1]


def test_a_perturbed_golden_digest_raises_fail_ratio(tmp_path):
    golden = json.loads(run.GOLDEN.read_text())
    plan = workloads.make_plan("tables-rational", 5)
    golden[workloads.op_key(plan[0])] = "0" * 20
    perturbed = tmp_path / "golden.json"
    perturbed.write_text(json.dumps(golden))
    result, lines = run.run_workload("tables-rational", 5, seconds=1, trace=False,
                                     golden=perturbed)
    assert not result["correct"]
    assert list(result["metrics"]) == [name for name, _, _, final in metrics.END_TO_END if final]
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]
    assert any("FAILED" in line for line in lines)


def test_a_perturbed_cli_digest_fails_the_op():
    op = workloads.README_OPS[0]
    good = json.loads(run.GOLDEN.read_text())
    stdout = "n  value\n0  1\n1  -1/2\n2  2/3\n3  -3/2\n"
    assert run.check_cli(op, 0, stdout, "", good)
    assert not run.check_cli(op, 0, stdout, "", {workloads.op_key(op): "0" * 20})
