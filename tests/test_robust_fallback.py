"""The degradation policy: oracle fallback, cross-checks, deadlines."""

from __future__ import annotations

import pytest

from repro.cfg.builder import build_cfg
from repro.lang.parser import parse_program
from repro.pipeline.manager import AnalysisManager, PassRegistry
from repro.pipeline.passes import default_registry
from repro.robust import (
    AnalysisError,
    Deadline,
    DegradationPolicy,
    FakeClock,
    IncidentLog,
    InputError,
    default_oracles,
)
from repro.robust.fallback import results_equal
from repro.util.metrics import Metrics

SOURCE = """
x := 0;
while (x < 5) { x := x + 1; }
if (x > 2) { y := x * 2; } else { y := 7; }
print y;
"""


def _graph():
    return build_cfg(parse_program(SOURCE))


def _registry(**overrides) -> PassRegistry:
    """A registry with the standard pass bodies, selected ones replaced."""
    registry = PassRegistry()
    for spec in default_registry():
        build = overrides.get(spec.name, spec.build)
        registry.register(
            spec.name, deps=spec.deps, uses_exprs=spec.uses_exprs,
            description=spec.description,
        )(build)
    return registry


def test_raising_pass_falls_back_to_oracle() -> None:
    def broken_dom(graph, deps, counter):
        raise RuntimeError("fast kernel bug")

    log = IncidentLog()
    manager = AnalysisManager(
        _graph(),
        registry=_registry(dom=broken_dom),
        metrics=Metrics(),
        policy=DegradationPolicy(incidents=log),
    )
    dom = manager.get("dom")  # does not raise
    reference = AnalysisManager(_graph(), metrics=Metrics()).get("dom")
    assert results_equal("dom", dom, reference)
    assert log.count("oracle-fallback") == 1
    incident = log.incidents[0]
    assert incident.pass_name == "dom"
    assert incident.recovered
    assert incident.error["type"] == "RuntimeError"


def test_incidents_mirror_into_metrics() -> None:
    def broken_liveness(graph, deps, counter):
        raise RuntimeError("boom")

    metrics = Metrics()
    manager = AnalysisManager(
        _graph(),
        registry=_registry(liveness=broken_liveness),
        metrics=metrics,
        policy=DegradationPolicy(incidents=IncidentLog(metrics=metrics)),
    )
    manager.get("liveness")
    assert metrics.counter["incident:oracle-fallback"] == 1
    doc = metrics.as_dict()
    assert len(doc["incidents"]) == 1
    assert doc["incidents"][0]["kind"] == "oracle-fallback"


def test_clean_metrics_payload_has_no_incidents_key() -> None:
    metrics = Metrics()
    AnalysisManager(_graph(), metrics=metrics).run_all()
    assert "incidents" not in metrics.as_dict()


def test_cross_check_substitutes_oracle_on_mismatch() -> None:
    def lying_reaching(graph, deps, counter):
        return {}  # plausible type, wrong answer

    log = IncidentLog()
    manager = AnalysisManager(
        _graph(),
        registry=_registry(reaching=lying_reaching),
        metrics=Metrics(),
        policy=DegradationPolicy(incidents=log, cross_check=True),
    )
    reaching = manager.get("reaching")
    reference = AnalysisManager(_graph(), metrics=Metrics()).get("reaching")
    assert results_equal("reaching", reaching, reference)
    assert log.count("cross-check-mismatch") == 1


def test_cross_check_quiet_when_results_agree() -> None:
    log = IncidentLog()
    manager = AnalysisManager(
        _graph(),
        metrics=Metrics(),
        policy=DegradationPolicy(incidents=log, cross_check=True),
    )
    manager.run_all()
    assert len(log) == 0


def test_pass_without_oracle_escalates() -> None:
    def broken_dfg(graph, deps, counter):
        raise RuntimeError("no oracle for me")

    log = IncidentLog()
    manager = AnalysisManager(
        _graph(),
        registry=_registry(dfg=broken_dfg),
        metrics=Metrics(),
        policy=DegradationPolicy(incidents=log),
    )
    with pytest.raises(AnalysisError) as excinfo:
        manager.get("dfg")
    assert excinfo.value.pass_name == "dfg"
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    assert log.count("unrecovered") == 1


def test_input_error_is_not_degraded() -> None:
    def picky_dom(graph, deps, counter):
        raise InputError("graph rejected", phase="pass:dom")

    manager = AnalysisManager(
        _graph(),
        registry=_registry(dom=picky_dom),
        metrics=Metrics(),
        policy=DegradationPolicy(incidents=IncidentLog()),
    )
    # A malformed input is precise; substituting an oracle answer would
    # mask the caller's bug.
    with pytest.raises(InputError):
        manager.get("dom")


def test_timeout_recovers_and_deadline_resets() -> None:
    clock = FakeClock()

    def slow_dom(graph, deps, counter):
        from repro.graphs.dominance import edge_dominators

        clock.advance(2.0)  # past the 1s budget
        return edge_dominators(graph)

    log = IncidentLog()
    manager = AnalysisManager(
        _graph(),
        registry=_registry(dom=slow_dom),
        metrics=Metrics(),
        policy=DegradationPolicy(
            incidents=log, deadline=Deadline(1.0, clock=clock.now)
        ),
    )
    results = manager.run_all()  # no PassTimeout escapes
    assert log.count("timeout-fallback") == 1
    # The deadline was reset after the recovered timeout, so the many
    # passes after `dom` ran without further incidents.
    assert len(log) == 1
    assert "sccp" in results


def test_default_oracles_cover_reference_twins() -> None:
    names = set(default_oracles())
    assert names == {
        "dfs", "dom", "pdom", "cycle-equiv", "sese",
        "liveness", "reaching", "available", "pavailable",
        "defuse", "sparse-range", "sparse-taint", "ntscd",
    }
    registered = set(default_registry().names())
    assert names <= registered


def test_oracles_match_fast_passes() -> None:
    graph = _graph()
    manager = AnalysisManager(graph, metrics=Metrics())
    deps = {"csr": manager.get("csr")}
    for name, oracle in default_oracles().items():
        fast = manager.get(name)
        reference = oracle(graph, deps, manager.metrics.counter)
        assert results_equal(name, fast, reference), name
