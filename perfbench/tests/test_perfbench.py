"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from perfbench import checks, inputs, report, tracing, workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def edgehome_pool():
    return inputs.load_pools(("edgehome",), 40, seed=3)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------
def test_same_seed_gives_same_ops_and_pools():
    pools_a = inputs.load_pools(("bfcl", "geoengine"), 30, seed=4)
    pools_b = inputs.load_pools(("bfcl", "geoengine"), 30, seed=4)
    ops_a = inputs.draw_ops(pools_a, 50, inputs.seeded_rng(4))
    ops_b = inputs.draw_ops(pools_b, 50, inputs.seeded_rng(4))
    ops_c = inputs.draw_ops(pools_a, 50, inputs.seeded_rng(9))
    assert ops_a == ops_b
    assert ops_a != ops_c
    assert {op.tenant for op in ops_a} == {"bfcl", "geoengine"}


def test_repeat_text_frac():
    assert inputs.repeat_text_frac(["a", "b", "a", "a"]) == 0.5
    assert inputs.repeat_text_frac([]) == 0.0


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------
def test_every_metric_name_is_well_formed():
    names = (list(report.END_TO_END_UNITS) + list(report.PER_LAYER_UNITS)
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    for name in names:
        assert NAME.fullmatch(name), name
        assert report.METRIC_NAME.match(name), name


def test_benchmark_json_matches_the_reported_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(
        report.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(
        report.PER_LAYER_UNITS)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["unit"] == report.END_TO_END_UNITS[metric["name"]]
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == report.PER_LAYER_UNITS[metric["name"]]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(
        workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------
def test_untouched_episodes_pass_and_a_tampered_one_fails(edgehome_pool):
    keys = [("edgehome", q.qid) for q in edgehome_pool["edgehome"].queries[:4]]
    reference = checks.reference_episodes(
        edgehome_pool, keys, ("lis-k3", "hermes2-pro-8b", "q4_K_M"))
    served = [(tenant, qid, reference[(tenant, qid)]) for tenant, qid in keys]
    assert checks.served_equal_reference(served, reference) == []

    tenant, qid, episode = served[1]
    tampered = dict(episode)
    tampered["energy_j"] = math.nextafter(episode["energy_j"], math.inf)
    served[1] = (tenant, qid, tampered)
    problems = checks.served_equal_reference(served, reference)
    assert len(problems) == 1 and qid in problems[0]


def test_unknown_episode_fails(edgehome_pool):
    assert checks.served_equal_reference(
        [("edgehome", "nope", {})], {}) != []


def test_a_failed_op_fails_the_run():
    assert checks.failed_ops(10, 0) == []
    assert checks.failed_ops(10, 1) != []
    assert checks.failed_ops(0, 0) != []


def _episode(time_s, energy_j):
    from repro.core.episode import EpisodeResult

    return EpisodeResult(qid="q", scheme="s", model="m", quant="q",
                         time_s=time_s, energy_j=energy_j)


def test_headline_direction():
    good = {("bfcl", "lis-k3"): [_episode(1.0, 10.0)],
            ("bfcl", "default"): [_episode(2.0, 20.0)]}
    assert checks.headline_direction(good) == []
    bad = dict(good)
    bad[("bfcl", "lis-k3")] = [_episode(1.0, 30.0)]
    assert checks.headline_direction(bad) != []


def test_passes_must_repeat():
    first = [_episode(1.0, 2.0)]
    assert checks.same_episodes(first, [_episode(1.0, 2.0)], "pass 2") == []
    assert checks.same_episodes(first, [_episode(1.0, 2.5)], "pass 2") != []
    assert checks.same_episodes(first, [], "pass 2") != []


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
def test_self_time_subtracts_covered_child_time():
    spans = [
        (1, None, "outer", 0.0, 10.0, None),
        (2, 1, "child", 1.0, 4.0, None),
        (3, 1, "child", 3.0, 5.0, None),   # overlaps the first child
        (4, 2, "outer", 2.0, 3.0, None),   # nested, same name
    ]
    table = tracing.SpanTable.build(spans)
    assert table.self_s[1] == pytest.approx(6.0)
    assert table.self_s[2] == pytest.approx(2.0)
    assert table.of("outer", outer_only=True) == [1]


def test_tracer_restores_every_patched_function():
    import repro.hardware.inference as inference
    import repro.utils.rng as rng
    from repro.core.agent_base import FunctionCallingAgent

    before = (rng.derive_rng, inference.simulate_inference,
              FunctionCallingAgent.run_planned)
    with tracing.Tracer():
        assert rng.derive_rng is not before[0]
        assert inference.simulate_inference is not before[1]
    assert (rng.derive_rng, inference.simulate_inference,
            FunctionCallingAgent.run_planned) == before


@pytest.fixture
def short_edge_http(monkeypatch):
    """``run_edge_http`` over small pools and a few hundred requests."""
    monkeypatch.setattr(workloads, "POOL_QUERIES", 40)
    monkeypatch.setattr(workloads, "EDGE_WARMUP_OPS", 20)
    monkeypatch.setattr(workloads, "EDGE_MIN_OPS", 120)

    def traced_run(seed):
        with tracing.Tracer() as tracer:
            run = workloads.run_edge_http(seed, 0.1, tracer=tracer, setups=1)
        return run, report.per_layer(run, run, tracer, run), tracer
    return traced_run


def test_traced_edge_http_run_is_correct_and_its_breakdown_sums(
        short_edge_http):
    run, metrics, tracer = short_edge_http(2)
    assert run.problems == []
    assert run.attempted == 120 and run.failed == 0
    # the spans cover the timed ops only, not the correctness check after
    table = tracing.SpanTable.build(tracer.spans)
    assert len(table.of("execute", outer_only=True)) == run.ok
    parts = sum(metrics[f"gateway.{name}_ms_mean"]
                for name in ("queue", "plan", "execute", "accounting"))
    assert parts + metrics["gateway.residual_ms_per_req"] == pytest.approx(
        metrics["gateway.submit_ms_mean"])
    assert metrics["rng.derivations_per_req"] > 0
    assert metrics["batcher.batches"] > 0
    assert metrics["http.resp_bytes_per_req"] > 0


def test_seeded_metrics_repeat_exactly(short_edge_http):
    exact = ("success_rate", "prompt_tokens_per_op", "edge_time_s_per_op",
             "edge_energy_j_per_op")
    first, first_layers, _ = short_edge_http(4)
    again, again_layers, _ = short_edge_http(4)
    assert ({name: report.end_to_end(first)[name] for name in exact}
            == {name: report.end_to_end(again)[name] for name in exact})
    assert (first_layers["rng.derivations_per_req"]
            == again_layers["rng.derivations_per_req"])


def test_run_dataclass_counts_phases():
    run = workloads.Run("x")
    run.count("timed", True)
    run.count("timed", False)
    assert dataclasses.asdict(run)["phases"] == {
        "timed": {"sent": 2, "ok": 1, "failed": 1}}
