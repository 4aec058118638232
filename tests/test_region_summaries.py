"""The PR-6 tentpole contract: hierarchical region-summary solving -- the
:class:`~repro.regions.edits.EditSession` engine the ``edit`` op ships --
is *byte-identical* to the flat bitset solvers and to the generic-solver
``*_reference`` oracles on the four core analyses.

Bitvector frameworks are distributive, so summarizing a region as a
composed ``(gen, kill)`` transfer function and applying it to the real
boundary fact must reproduce the flat fixpoint exactly -- every
divergence is a bug in the system construction or the solve, never a
precision trade-off.  The sweep covers the same seeded 204-program
population as the perf-equivalence suite (structured random,
irreducible, ``goto`` soup, ladder families) plus hypothesis-generated
programs (which include infinite loops); dissolution is *tolerated*
(the solve must stay exact through it) but asserted absent outside the
``goto`` family, where unresolvable jump edges are the one known
source.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.cfg.builder import build_cfg
from repro.dataflow.anticipatable import anticipatable_expressions_reference
from repro.dataflow.available import available_expressions_reference
from repro.dataflow.liveness import live_variables_reference
from repro.dataflow.reaching import reaching_definitions_reference
from repro.regions.edits import EditSession
from repro.regions.replay import _flat_all
from repro.workloads.generators import (
    irreducible_program,
    random_jump_program,
    random_program,
)
from repro.workloads.ladders import (
    diamond_chain,
    loop_nest,
    sparse_use_program,
    wide_variable_program,
)

from strategies import programs

# -- the seeded population (same shape as test_perf_equivalence) -----------

CASES: list[tuple[str, object]] = []
for _seed in range(120):
    CASES.append((f"random-{_seed}", lambda s=_seed: random_program(s, size=18)))
for _seed in range(40):
    CASES.append(
        (f"irreducible-{_seed}", lambda s=_seed: irreducible_program(s, blocks=5))
    )
for _seed in range(40):
    CASES.append(
        (f"jump-{_seed}", lambda s=_seed: random_jump_program(s, blocks=7))
    )
CASES += [
    ("diamond-60", lambda: diamond_chain(60)),
    ("loopnest-3x3", lambda: loop_nest(3, 3)),
    ("wide-24", lambda: wide_variable_program(24, 2)),
    ("sparse-8", lambda: sparse_use_program(8)),
]
assert len(CASES) >= 200

CHUNK = 26
CHUNKS = [CASES[i:i + CHUNK] for i in range(0, len(CASES), CHUNK)]
CHUNK_IDS = [f"{chunk[0][0]}..{chunk[-1][0]}" for chunk in CHUNKS]

REFERENCES = {
    "available": available_expressions_reference,
    "anticipatable": anticipatable_expressions_reference,
    "liveness": live_variables_reference,
    "reaching": reaching_definitions_reference,
}


def _graphs(chunk):
    for name, make in chunk:
        yield name, build_cfg(make())


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_decoded_facts_match_reference_oracles(chunk) -> None:
    for name, graph in _graphs(chunk):
        session = EditSession(graph)
        if not name.startswith("jump"):
            assert session.engine.systems.dissolved == 0, name
        facts = session.solve_all()
        for analysis, reference in REFERENCES.items():
            assert facts[analysis] == reference(graph), (name, analysis)


@given(program=programs())
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hierarchical_matches_flat_on_arbitrary_programs(program) -> None:
    # ``programs()`` may generate infinite loops and other graphs no
    # execution-based check could cover; the solve is static, so the
    # equivalence must hold regardless.
    graph = build_cfg(program)
    session = EditSession(graph)
    assert session.engine.systems.dissolved == 0
    assert session.solve_all() == _flat_all(graph)
