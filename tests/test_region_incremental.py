"""Incremental re-solving is exact and O(dirty region spine).

Two contracts, checked independently:

* **Correctness** -- after any supported statement edit (expression
  rewrite, splice, unsplice), the incremental engine's decoded facts
  equal a from-scratch flat bitset solve of the post-edit graph.  A
  randomized differential sweep drives seeded edit walks over the
  structured-random / irreducible / ``goto``-soup families; the engine
  may *choose* to fall back to a full rebuild (out-of-universe
  expression, vanished variable) but must never be wrong.
* **Locality** -- the :class:`~repro.util.counters.WorkCounter` ticks
  prove the work bound: an expression rewrite re-summarizes at most the
  edited node's spine to the root (times the three dirtied analyses --
  reaching stays warm), a splice/unsplice reuses the unit tuples of
  every region the edit did not touch, and a quiescent ``solve_all``
  does no summary work at all.
"""

from __future__ import annotations

import random

import pytest

from repro.cfg.builder import build_cfg
from repro.cfg.graph import NodeKind
from repro.dataflow.bitsets import (
    anticipatable_bitsets,
    available_bitsets,
    liveness_bitsets,
    reaching_bitsets,
)
from repro.lang.ast_nodes import BinOp, IntLit, Var
from repro.regions.edits import EditSession
from repro.util.counters import WorkCounter
from repro.workloads.generators import (
    irreducible_program,
    random_jump_program,
    random_program,
)
from repro.workloads.ladders import diamond_chain


def _flat_all(graph):
    return {
        "available": available_bitsets(graph),
        "anticipatable": anticipatable_bitsets(graph),
        "liveness": liveness_bitsets(graph),
        "reaching": reaching_bitsets(graph),
    }


def _population():
    for seed in range(16):
        yield f"random-{seed}", build_cfg(random_program(seed, size=18))
    for seed in range(6):
        yield f"irr-{seed}", build_cfg(irreducible_program(seed, blocks=5))
    for seed in range(6):
        yield f"jump-{seed}", build_cfg(random_jump_program(seed, blocks=7))


def _random_edit(rng, graph, session, spliced) -> bool:
    """One seeded edit mirroring the PR-5 mutator kinds: mutate a
    statement's expression, insert a statement, or delete one."""
    variables = sorted(graph.variables()) or ["v0"]
    op = rng.random()
    if op < 0.45:
        nodes = [
            n for n in graph.nodes.values()
            if n.kind in (NodeKind.ASSIGN, NodeKind.PRINT, NodeKind.SWITCH)
        ]
        if not nodes:
            return False
        node = rng.choice(sorted(nodes, key=lambda n: n.id))
        if rng.random() < 0.6:
            expr = BinOp(
                "+", Var(rng.choice(variables)), Var(rng.choice(variables))
            )
        else:
            expr = IntLit(rng.randrange(100))
        session.rewrite_rhs(node.id, expr)
        return True
    if op < 0.8 or not spliced:
        eid = rng.choice(sorted(graph.edges))
        expr = BinOp("*", Var(rng.choice(variables)), IntLit(rng.randrange(10)))
        nid, _, _ = session.splice_assign(eid, rng.choice(variables), expr)
        spliced.append(nid)
        return True
    nid = spliced.pop(rng.randrange(len(spliced)))
    if nid not in graph.nodes:
        return False
    if len(graph.in_edges(nid)) != 1 or len(graph.out_edges(nid)) != 1:
        return False
    session.unsplice(nid)
    return True


def test_randomized_edits_match_from_scratch() -> None:
    rng = random.Random(99)
    checks = 0
    for name, graph in _population():
        session = EditSession(graph)
        spliced: list[int] = []
        for step in range(8):
            if not _random_edit(rng, graph, session, spliced):
                continue
            incremental = session.solve_all()
            reference = _flat_all(graph)
            checks += 1
            for analysis in reference:
                assert incremental[analysis] == reference[analysis], (
                    name, step, analysis,
                )
    assert checks > 100


def _spine_systems(engine, nid: int) -> int:
    """How many systems lie on ``nid``'s spine to the root (inclusive)."""
    systems = engine.systems.systems
    index = engine.systems.sys_of_node[nid]
    count = 0
    walk: int | None = index
    while walk is not None:
        count += 1
        walk = systems[walk].parent
    return count


def test_rewrite_resummarizes_only_the_dirty_spine() -> None:
    graph = build_cfg(diamond_chain(40))
    counter = WorkCounter()
    session = EditSession(graph, counter=counter)
    session.solve_all()

    # An in-universe rewrite: give one arm the other arm's expression
    # (both already live in the expression universe, so no rebuild).
    node_a, node_b = [
        n for n in sorted(graph.nodes.values(), key=lambda n: n.id)
        if n.kind is NodeKind.ASSIGN and isinstance(n.expr, BinOp)
    ][:2]
    spine = _spine_systems(session.engine, node_a.id)
    total = len(session.engine.systems.systems)
    assert total > 4 * spine  # the bound below is meaningfully local

    before = counter.snapshot().get("inc_regions_resummarized", 0)
    session.rewrite_rhs(node_a.id, node_b.expr)
    session.solve_all()
    delta = counter.snapshot().get("inc_regions_resummarized", 0) - before
    assert counter.snapshot().get("inc_full_rebuilds", 0) == 0
    assert delta > 0
    # Three analyses dirty (available/anticipatable/liveness; reaching
    # is warm for a same-variable rewrite), each visiting at most the
    # spine plus the concrete root re-solve.
    assert delta <= 3 * (spine + 1)

    # Quiescent re-query: every cache is warm, no summary work at all.
    before = counter.snapshot().get("inc_regions_resummarized", 0)
    session.solve_all()
    assert counter.snapshot().get("inc_regions_resummarized", 0) == before


def test_splice_reuses_units_of_untouched_regions() -> None:
    graph = build_cfg(diamond_chain(40))
    counter = WorkCounter()
    session = EditSession(graph, counter=counter)
    session.solve_all()
    total = len(session.engine.systems.systems)

    eid = sorted(graph.edges)[len(graph.edges) // 2]
    var = sorted(graph.variables())[0]
    before = counter.snapshot().get("region_units_reused", 0)
    nid, _, _ = session.splice_assign(eid, var, Var(var))
    session.solve_all()
    reused = counter.snapshot().get("region_units_reused", 0) - before
    # The reassembly after the splice rebuilt units only for the handful
    # of regions the edit touched; everything else carried over.
    assert reused > total - 8
    assert counter.snapshot().get("inc_full_rebuilds", 0) == 0

    session.unsplice(nid)
    assert session.solve_all() == _flat_all(graph)


def test_out_of_universe_rewrite_falls_back_and_stays_exact() -> None:
    graph = build_cfg(diamond_chain(10))
    counter = WorkCounter()
    session = EditSession(graph, counter=counter)
    session.solve_all()

    node = next(
        n for n in sorted(graph.nodes.values(), key=lambda n: n.id)
        if n.kind is NodeKind.ASSIGN
    )
    # A brand-new variable cannot be expressed in the sticky universes:
    # the engine must rebuild rather than answer from stale spaces.
    session.rewrite_rhs(node.id, BinOp("+", Var("zz_new"), IntLit(1)))
    assert session.solve_all() == _flat_all(graph)
    assert counter.snapshot().get("inc_full_rebuilds", 0) >= 1


def test_manager_adopts_incremental_structure() -> None:
    from repro.pipeline.manager import AnalysisManager

    graph = build_cfg(diamond_chain(12))
    manager = AnalysisManager(graph)
    manager.get("sese")
    session = EditSession(graph, manager=manager)

    eid = sorted(graph.edges)[3]
    var = sorted(graph.variables())[0]
    session.splice_assign(eid, var, Var(var))
    # The manager's sese result is the session's live structure, not a
    # from-scratch rebuild -- the pass was adopted, not recomputed.
    assert manager.get("sese") is session.structure
    # A pass downstream of the adopted structure answers exactly as a
    # fresh manager on the edited graph does.
    adopted, fresh = manager.get("dfg"), AnalysisManager(graph).get("dfg")
    assert adopted.ports() == fresh.ports()
    assert adopted.dep_edges() == fresh.dep_edges()
