"""The oracle verifier: genuine definite findings earn independent
confirmation; fabricated ones are demoted, and ones a probe actively
contradicts are marked refuted (the measured-false-positive channel)."""

from __future__ import annotations

import pytest

from repro.cfg.builder import build_cfg
from repro.cfg.graph import NodeKind
from repro.cfg.interp import run_cfg
from repro.lang.errors import InterpError
from repro.lang.parser import parse_program
from repro.lint.engine import LintEngine
from repro.lint.model import make_diagnostic
from repro.lint.oracle import (
    PROBE_VALUE_LIMIT,
    probe_environments,
    verify_diagnostics,
)


def graph_of(source: str):
    return build_cfg(parse_program(source))


def node_of_kind(graph, kind, index=0):
    return [
        nid for nid in sorted(graph.nodes) if graph.node(nid).kind is kind
    ][index]


def test_probe_environments_are_deterministic():
    graph = graph_of("x := a + b;\nprint x;\n")
    envs = probe_environments(graph)
    assert envs == probe_environments(graph)
    assert envs[0] == {}
    assert all(set(env) <= graph.variables() for env in envs[1:])


def test_genuine_findings_are_confirmed():
    source = "x := 1;\nx := 2;\nif (0) {\n    y := x;\n}\nprint x;\n"
    result = LintEngine(graph_of(source)).run(verify=True)
    definite = [d for d in result.diagnostics if d.severity == "definite"]
    assert {d.rule for d in definite} == {"R003", "R004", "R005"}
    assert all(d.verified is True for d in definite)
    assert result.unverified_definite() == 0


def test_bogus_dead_store_is_demoted_not_shipped():
    # Claim 'x := 1' is a dead store in a program that prints x: the
    # liveness witness fails, so the finding is demoted to possible.
    graph = graph_of("x := 1;\nprint x;\n")
    nid = node_of_kind(graph, NodeKind.ASSIGN)
    bogus = make_diagnostic(
        "R003", graph.node(nid).span, "fabricated", node=nid, var="x"
    )
    (out,) = verify_diagnostics(graph, [bogus])
    assert out.severity == "possible"
    assert out.verified is False and out.demoted is True
    # The splice would change output, but the static witness already
    # failed, so this is an unconfirmed claim -- not a measured FP.
    assert out.refuted is False


def test_bogus_unreachable_claim_is_refuted_by_probe_trace():
    graph = graph_of("print 7;\n")
    nid = node_of_kind(graph, NodeKind.PRINT)
    bogus = make_diagnostic(
        "R004", graph.node(nid).span, "fabricated", node=nid
    )
    (out,) = verify_diagnostics(graph, [bogus])
    assert out.demoted is True and out.refuted is True


def test_bogus_use_before_def_is_refuted_by_trace_replay():
    graph = graph_of("x := 1;\nprint x;\n")
    nid = node_of_kind(graph, NodeKind.PRINT)
    bogus = make_diagnostic(
        "R001", graph.node(nid).span, "fabricated", node=nid, var="x"
    )
    (out,) = verify_diagnostics(graph, [bogus])
    assert out.demoted is True and out.refuted is True


def test_bogus_constant_branch_is_refuted_when_probes_disagree():
    # p is an entry variable, so probes drive both arms.
    graph = graph_of("if (p > 1) { print 1; } else { print 2; }\n")
    nid = node_of_kind(graph, NodeKind.SWITCH)
    bogus = make_diagnostic(
        "R005", graph.node(nid).span, "fabricated", node=nid,
        data={"value": 1, "arm": "T"},
    )
    (out,) = verify_diagnostics(graph, [bogus])
    assert out.demoted is True and out.refuted is True


def test_non_definite_findings_earn_witness_verdicts():
    # Every rule now has a checker, so possible/info findings no longer
    # pass through untouched: a genuine copy chain comes back as a *new*
    # diagnostic carrying verified=True (severity unchanged -- only
    # definite findings are demoted on failure).
    graph = graph_of("x := 1;\ny := x;\nprint y;\n")
    result = LintEngine(graph).run(verify=True)
    r010 = [d for d in result.diagnostics if d.rule == "R010"]
    assert r010
    assert all(d.verified is True for d in r010)
    assert all(d.severity == "info" and not d.refuted for d in r010)
    # Without verification the same findings stay unjudged.
    plain = LintEngine(graph).run(verify=False).diagnostics
    assert all(d.verified is None for d in plain if d.rule == "R010")


def test_verification_never_mutates_inputs():
    graph = graph_of("x := 1;\nx := 2;\nprint x;\n")
    engine = LintEngine(graph)
    unverified = engine.run(verify=False).diagnostics
    snapshot = list(unverified)
    verify_diagnostics(graph, unverified)
    # The cached diagnostics are frozen; the oracle returned new objects.
    assert unverified == snapshot
    assert all(d.verified is None for d in unverified)


def test_value_limit_aborts_bigint_blowup():
    # Squaring doubles the digit count per iteration: within a tiny step
    # budget the values dwarf any bound, so the capped run must abort
    # (and the oracle treats that probe as inconclusive).
    source = (
        "x := 10;\nn := 5;\n"
        "while (n > 0) {\n    x := x * x;\n    n := n - 1;\n}\n"
        "print x;\n"
    )
    graph = graph_of(source)
    with pytest.raises(InterpError):
        run_cfg(graph, {}, max_steps=1000, value_limit=PROBE_VALUE_LIMIT)
    # Without the cap the same run is legal (just huge): 10 ** (2 ** 5).
    assert run_cfg(graph, {}, max_steps=1000).outputs[0] == 10 ** 32


def test_inconclusive_probes_still_allow_static_confirmation():
    # The loop never terminates under the empty env's step budget -- all
    # probes may be inconclusive -- yet static witnesses still confirm.
    source = (
        "x := 1;\nx := 2;\n"
        "while (1) {\n    print x;\n}\n"
    )
    result = LintEngine(graph_of(source)).run(verify=True, max_steps=100)
    r003 = [d for d in result.diagnostics if d.rule == "R003"]
    assert r003 and all(d.verified is True for d in r003)


def test_checker_exception_is_routed_to_failures_not_raised(monkeypatch):
    import repro.lint.oracle as oracle_mod

    def boom(oracle, diag):
        raise RuntimeError("synthetic checker crash")

    monkeypatch.setitem(oracle_mod._CHECKERS, "R003", boom)
    graph = graph_of("x := 1;\nx := 2;\nprint x;\n")
    result = LintEngine(graph).run(verify=True)
    # The error is recorded, attributed to the rule's oracle...
    assert len(result.oracle_failures) == 1
    record = result.oracle_failures[0]
    assert record["pass"] == "oracle:R003"
    assert record["phase"] == "lint-verify"
    assert record["type"] == "RuntimeError"
    # ...and the definite finding is demoted, never shipped bare.
    r003 = [d for d in result.diagnostics if d.rule == "R003"]
    assert r003
    assert all(d.severity == "possible" and d.demoted for d in r003)
    assert result.unverified_definite() == 0


def test_checker_exception_on_info_finding_marks_it_unverified(monkeypatch):
    import repro.lint.oracle as oracle_mod

    def boom(oracle, diag):
        raise ValueError("synthetic checker crash")

    monkeypatch.setitem(oracle_mod._CHECKERS, "R010", boom)
    graph = graph_of("x := 1;\ny := x;\nprint y;\n")
    result = LintEngine(graph).run(verify=True)
    assert result.oracle_failures
    r010 = [d for d in result.diagnostics if d.rule == "R010"]
    # Severity survives; the finding just loses its witness.
    assert r010
    assert all(d.severity == "info" and d.verified is False for d in r010)
    assert all(not d.refuted for d in r010)


def test_cli_reports_oracle_failures_as_analysis_error(monkeypatch, tmp_path, capsys):
    import repro.lint.oracle as oracle_mod
    from repro.cli import main

    def boom(oracle, diag):
        raise RuntimeError("synthetic checker crash")

    monkeypatch.setitem(oracle_mod._CHECKERS, "R003", boom)
    path = tmp_path / "prog.dfg"
    path.write_text("x := 1;\nx := 2;\nprint x;\n")
    code = main(["lint", str(path), "--fail-on", "never"])
    assert code == 2
    err = capsys.readouterr().err
    assert "repro: analysis error:" in err
    assert "RuntimeError" in err and "synthetic checker crash" in err


def _crash_r003(monkeypatch):
    import repro.lint.oracle as oracle_mod

    def boom(oracle, diag):
        raise RuntimeError("synthetic checker crash")

    monkeypatch.setitem(oracle_mod._CHECKERS, "R003", boom)


def test_batch_lint_exits_nonzero_on_oracle_failures(monkeypatch, tmp_path):
    import json

    from repro.cli import main

    _crash_r003(monkeypatch)
    out = tmp_path / "lint.json"
    # In-process (no workers), so the patched checker is the one that runs.
    code = main([
        "batch", "--suite", "lint", "--smoke", "--workers", "0",
        "--output", str(out),
    ])
    assert code == 1
    batch = json.loads(out.read_text())["batch"]
    assert batch["lint"]["oracle_failures"] > 0
    assert batch["lint"]["oracle_failures"] == sum(
        row["lint"]["oracle_failures"] for row in batch["rows"]
    )


def test_batch_sarif_answers_oracle_failures_as_errors(monkeypatch, tmp_path):
    import json

    from repro.serve.cache import ResultCache
    from repro.serve.ops import SARIF_BLOB
    from repro.serve.server import RequestBroker

    _crash_r003(monkeypatch)
    cache = ResultCache(str(tmp_path / "cache"))
    broker = RequestBroker(cache, pool_workers=0)
    source = "x := 1;\nx := 2;\nprint x;\n"
    line = json.dumps({
        "op": "batch-sarif", "docs": [{"label": "p.dfg", "source": source}],
    }).encode()
    for _ in range(2):  # the second request must not find a cached blob
        response = broker.handle_line(line)
        assert response["ok"]
        (doc,) = response["result"]["documents"]
        assert "sarif" not in doc
        assert doc["error"]["kind"] == "analysis"
        assert "oracle" in doc["error"]["message"]
    assert cache.load(broker._doc_sha("p.dfg", source), SARIF_BLOB) is None
