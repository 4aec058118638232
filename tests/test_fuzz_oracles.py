"""Unit tests for the fuzzing oracles (PR 5).

Every oracle must pass a program against itself (reflexivity), fail on a
genuinely divergent pair, and never raise -- a crashing oracle comes
back as a failing verdict, not an exception.
"""

from __future__ import annotations

from repro.cfg.builder import build_cfg
from repro.fuzz.harness import trial_context
from repro.fuzz.oracles import (
    ORACLES,
    dfg_digest,
    oracle_constprop,
    oracle_dataflow,
    oracle_determinism,
    oracle_hierarchical_vs_flat,
    oracle_io,
    oracle_structure,
    run_oracles,
)
from repro.lang.parser import parse_program

CLEAN = """\
a := p; total := 0; count := 3;
while (count > 0) {
  total := total + a;
  count := count - 1;
}
print total;
"""

# Same shape, different arithmetic: observably different output.
BROKEN = CLEAN.replace("total + a", "total - a")


def _pair(src_a, src_b, mutator="reorder"):
    a = parse_program(src_a)
    graph_a = build_cfg(a)
    graph_b = build_cfg(parse_program(src_b))
    context = trial_context(a, graph_a, 7, mutator, family="random")
    return graph_a, graph_b, context


def test_all_oracles_reflexive():
    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    verdicts = run_oracles(graph_a, graph_b, context)
    assert {v.oracle for v in verdicts} == set(ORACLES)
    assert all(v.ok for v in verdicts), [
        (v.oracle, v.detail) for v in verdicts if not v.ok
    ]


def test_io_oracle_catches_miscompile():
    graph_a, graph_b, context = _pair(CLEAN, BROKEN)
    verdict = oracle_io(graph_a, graph_b, context)
    assert not verdict.ok
    assert "env" in verdict.detail


def test_io_oracle_trap_tolerance_is_mutator_scoped():
    trapping = "x := p / 0; print x;"
    fine = "x := p; print x;"
    # Base traps, mutant does not: under opt-roundtrip that environment
    # is inconclusive (DCE may drop trapping work) -- under any other
    # mutator it is a divergence.
    graph_a, graph_b, context = _pair(trapping, fine, mutator="opt-roundtrip")
    assert oracle_io(graph_a, graph_b, context).ok
    graph_a, graph_b, context = _pair(trapping, fine, mutator="reorder")
    assert not oracle_io(graph_a, graph_b, context).ok


CONSTANT_RICH = """\
a := 2; b := a + 3;
if (p > 0) { c := b * 2; } else { c := 10; }
print c + a;
"""


def test_constprop_oracle_cross_checks_engines():
    graph_a, graph_b, context = _pair(CONSTANT_RICH, CONSTANT_RICH)
    verdict = oracle_constprop(graph_a, graph_b, context)
    assert verdict.ok
    assert verdict.checks > 0


def test_dataflow_oracle_reference_vs_csr():
    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    verdict = oracle_dataflow(graph_a, graph_b, context)
    assert verdict.ok and verdict.checks >= 2  # both sides checked


def test_structure_oracle_flags_shape_change_under_same_shape_expectation():
    graph_a, graph_b, context = _pair(
        "a := p; b := q; print a + b;", "a := p; print a;"
    )
    context = dict(context, expectations=("same_shape",))
    verdict = oracle_structure(graph_a, graph_b, context)
    assert not verdict.ok


def test_sparse_vs_dense_oracle_checks_every_client():
    from repro.fuzz.oracles import oracle_sparse_vs_dense

    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    verdict = oracle_sparse_vs_dense(graph_a, graph_b, context)
    assert verdict.ok
    # chains, ssa, pruned ssa, range, taint, ntscd -- one check each.
    assert verdict.checks == 6


def test_hierarchical_oracle_checks_the_edit_engine(monkeypatch):
    # The oracle must judge the engine ``edit`` ships: one corrupted
    # decoded edge in RegionDataflow is a failing verdict.
    from repro.regions.incremental import RegionDataflow

    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    verdict = oracle_hierarchical_vs_flat(graph_a, graph_b, context)
    assert verdict.ok and verdict.checks == 4

    decode = RegionDataflow.decode

    def corrupt(self, name):
        facts = decode(self, name)
        if name == "liveness":
            eid = min(facts)
            facts = {**facts, eid: facts[eid] | {"bogus"}}
        return facts

    monkeypatch.setattr(RegionDataflow, "decode", corrupt)
    verdict = oracle_hierarchical_vs_flat(graph_a, graph_b, context)
    assert not verdict.ok
    assert verdict.detail.startswith("liveness:")
    assert f"[{min(graph_b.edges)}]" in verdict.detail


def test_determinism_oracle_and_digest_stability():
    graph = build_cfg(parse_program(CLEAN))
    assert dfg_digest(graph) == dfg_digest(graph.copy())
    _, graph_b, context = _pair(CLEAN, CLEAN)
    assert oracle_determinism(graph, graph_b, context).ok


def test_io_oracle_skipped_for_non_executable():
    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    context = dict(context, executable=False)
    verdicts = run_oracles(graph_a, graph_b, context)
    assert "io" not in {v.oracle for v in verdicts}
    assert all(v.ok for v in verdicts)


def test_crashing_oracle_becomes_failing_verdict(monkeypatch):
    import repro.fuzz.oracles as oracles_mod

    def boom(base, mutant, context):
        raise RuntimeError("synthetic oracle crash")

    monkeypatch.setitem(oracles_mod.ORACLES, "io", boom)
    graph_a, graph_b, context = _pair(CLEAN, CLEAN)
    verdicts = run_oracles(graph_a, graph_b, context)
    failed = [v for v in verdicts if not v.ok]
    assert [v.oracle for v in failed] == ["io"]
    assert "oracle crashed" in failed[0].detail
