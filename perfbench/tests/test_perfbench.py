"""The benchmark's own tests.  Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

run._import_program()

import checks  # noqa: E402
import metrics  # noqa: E402
import oneshot  # noqa: E402
import serve_mixed  # noqa: E402


#: Tiny runs: the one-shot ladders always make 100 requests; the serve
#: run gets time to finish its four-cycle pool, revisits included.
SECONDS = {"oneshot-analyze": 0.3, "oneshot-lint": 0.3, "serve-mixed": 5.0}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- every workload runs at a tiny size --------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_tiny_and_correct(workload):
    out = run.run_workload(workload, seed=3, seconds=SECONDS[workload],
                           trace=False, tiny=True)
    assert out["failed"] == 0, out["problems"]
    assert out["attempted"] > 0
    assert set(out["metrics"]) == set(metrics.END_TO_END)
    assert out["metrics"]["ok_frac"]["value"] == 1.0
    for name, metric in out["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    out = run.run_workload(workload, seed=3, seconds=SECONDS[workload],
                           trace=True, tiny=True)
    assert out["failed"] == 0, out["problems"]
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(values) == set(metrics.PER_LAYER)
    assert values["lang.parse_calls"] > 0 and values["cfg.nodes"] > 0
    assert values["trace.request_ms"] > 0
    if workload == "oneshot-lint":
        assert values["lint.verify_total_ms"] > values["lint.verify_ms"]
        assert values["lint.probe_runs"] > 0
        assert values["lint.confirmed_frac"] == 1.0
    if workload == "serve-mixed":
        assert values["serve.wait_ms"] > 0
        assert values["serve.disk_hits"] > 0
        assert values["regions.query_ms"] > 0
    trace_file = os.path.join(ROOT, metrics.OUT_DIR, f"trace-{workload}-3.json")
    with open(trace_file, encoding="utf-8") as fh:
        assert json.load(fh)["spans"]


# -- the emitted names are the ones BENCHMARK.json declares ------------------


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        metrics.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


# -- inputs are a function of the seed ---------------------------------------


@pytest.mark.parametrize("workload", ["oneshot-analyze", "oneshot-lint"])
def test_ladder_inputs_follow_the_seed(workload):
    first = oneshot.generate(workload, 7)
    assert first == oneshot.generate(workload, 7)
    assert first["sources"] != oneshot.generate(workload, 8)["sources"]
    # Sizes stay on their rungs whatever the seed.
    for meta in first["meta"]:
        if meta["family"] != "defect":
            assert abs(meta["lines"] - meta["target"]) <= 0.1 * meta["target"]


def test_serve_inputs_follow_the_seed():
    first = serve_mixed.generate(7, tiny=True)
    assert first == serve_mixed.generate(7, tiny=True)
    assert first["programs"] != serve_mixed.generate(8, tiny=True)["programs"]


def test_generated_programs_parse():
    from repro.lang.parser import parse_program

    job = oneshot.generate("oneshot-lint", 5)
    for source in job["sources"] + job["light_sources"]:
        parse_program(source)


# -- a wrong answer is caught and counted ------------------------------------


def _corrupt_constant(text: str) -> str:
    answer = json.loads(text)
    table = answer.get("constants", answer.get("constant_uses"))
    key = sorted(table)[0]
    table[key] += 1
    return checks.canonical(answer)


def test_wrong_oneshot_answer_lowers_ok_frac(monkeypatch):
    original = oneshot.Worker.run

    def corrupted(self):
        result, rss = original(self)
        for key, text in result["answers"].items():
            answer = json.loads(text)
            if answer.get("constants"):
                result["answers"][key] = _corrupt_constant(text)
                break
        else:
            pytest.fail("no constant to corrupt")
        return result, rss

    monkeypatch.setattr(oneshot.Worker, "run", corrupted)
    out = run.run_workload("oneshot-analyze", seed=3, seconds=0.3,
                           trace=False, tiny=True)
    assert out["failed"] > 0
    assert out["metrics"]["ok_frac"]["value"] < 1.0


def test_wrong_daemon_answer_lowers_ok_frac(monkeypatch):
    original = serve_mixed._drive

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        for record in result["heavy"]:
            if record["kind"] == "source" and record["op"] == "analyze":
                record["response"]["result"]["nodes"] += 1
                break
        return result

    monkeypatch.setattr(serve_mixed, "_drive", corrupted)
    out = run.run_workload("serve-mixed", seed=3, seconds=5.0,
                           trace=False, tiny=True)
    assert out["failed"] == 1
    assert out["metrics"]["ok_frac"]["value"] < 1.0


def test_constprop_check_rejects_a_wrong_constant():
    from repro.serve.ops import run_op

    source = "x := 2;\ny := x + 3;\nprint y;\n"
    answer = run_op("constprop", source)
    assert checks.check_constprop(source, answer) is None
    wrong = json.loads(_corrupt_constant(checks.canonical(answer)))
    assert "constprop-cfg" in checks.check_constprop(source, wrong)


def test_lint_check_rejects_unverified_definite_findings():
    document = {"verified": True, "diagnostics": [
        {"rule": "R003", "severity": "definite", "verified": True},
    ]}
    assert checks.check_lint(document) is None
    demoted = {"verified": True, "diagnostics": [
        {"rule": "R003", "severity": "possible", "demoted": True,
         "refuted": True},
    ]}
    assert "refuted" in checks.check_lint(demoted)


def test_edit_query_check_rejects_a_stale_solve():
    source = "x := 1;\ny := x + 2;\nprint y;\n"
    facts = checks.scratch_facts(source, [])
    assert checks.check_edit_query(source, [], facts) is None
    from repro.cfg.builder import build_cfg
    from repro.lang.parser import parse_program

    graph = build_cfg(parse_program(source))
    node = next(n.id for n in graph.nodes.values() if n.target == "y")
    assert checks.check_edit_query(source, [(node, "x * 5")], facts)
