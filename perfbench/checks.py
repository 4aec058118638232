"""Output checks behind ``correct``, ``failed`` and ``ok_frac``.

Every answer is checked; nothing is sampled.  Each function returns
``None`` when the answer is right and a one-line reason when it is not.
The references run in the benchmark process, outside every timed
region.
"""

from __future__ import annotations

import functools
import hashlib
import json

from repro.cfg.builder import build_cfg
from repro.core.dfg import CTRL_VAR
from repro.lang.parser import parse_expr, parse_program
from repro.pipeline.manager import AnalysisManager


def canonical(payload) -> str:
    """The daemon's canonical wire form (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=32)
def _cfg_constants(source: str):
    graph = build_cfg(parse_program(source))
    result = AnalysisManager(graph).get("constprop-cfg")
    constants = {
        f"{node}:{var}": value
        for (node, var), value in result.constant_uses().items()
        if var != CTRL_VAR
    }
    return graph, constants


def _agree(found: dict, reference: dict) -> str | None:
    """The differential rule of ``tests/test_differential_constprop.py``:
    wherever both engines call a use constant, the values are equal."""
    for key in sorted(found.keys() & reference.keys()):
        if found[key] != reference[key]:
            return (
                f"use {key}: DFG says {found[key]}, "
                f"constprop-cfg says {reference[key]}"
            )
    return None


def check_constprop(source: str, answer: dict) -> str | None:
    _graph, reference = _cfg_constants(source)
    return _agree(answer.get("constants", {}), reference)


def check_analyze(source: str, answer: dict) -> str | None:
    graph, reference = _cfg_constants(source)
    shape = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "variables": len(graph.variables()),
    }
    for key, value in shape.items():
        if answer.get(key) != value:
            return f"{key}: answer {answer.get(key)}, graph {value}"
    return _agree(answer.get("constant_uses", {}), reference)


def check_analyze_pair(analyze: dict, constprop: dict) -> str | None:
    """The two ops read the same constprop pass of the same source."""
    if analyze.get("constant_uses") != constprop.get("constants"):
        return "analyze and constprop report different constants"
    if analyze.get("dead_nodes") != constprop.get("dead_nodes"):
        return "analyze and constprop report different dead nodes"
    return None


def check_lint(document: dict) -> str | None:
    """Zero unverified and zero refuted definite findings.  (Oracle
    failures never reach here: ``run_op`` raises on them.)"""
    if document.get("verified") is not True:
        return "lint document was not verified"
    for diag in document.get("diagnostics", ()):
        was_definite = diag.get("severity") == "definite" or diag.get("demoted")
        if not was_definite:
            continue
        where = f"{diag.get('rule')} at node {diag.get('node')}"
        if diag.get("refuted"):
            return f"refuted definite finding {where}"
        if diag.get("demoted") or diag.get("verified") is not True:
            return f"unverified definite finding {where}"
    return None


def check_oneshot(op: str, source: str, answer: dict) -> str | None:
    if op == "analyze":
        return check_analyze(source, answer)
    if op == "constprop":
        return check_constprop(source, answer)
    return check_lint(answer)


def scratch_facts(source: str, rewrites: list[tuple[int, str]]) -> dict:
    """A from-scratch flat bitset solve of ``source`` after applying the
    ``(node, expression)`` rewrites, in the daemon's ``query`` shape."""
    from repro.dataflow.bitsets import (
        anticipatable_bitsets,
        available_bitsets,
        liveness_bitsets,
        reaching_bitsets,
    )

    graph = build_cfg(parse_program(source))
    for node, expr in rewrites:
        graph.node(node).expr = parse_expr(expr)
        graph.note_rewrite()
    facts = {
        "available": available_bitsets(graph),
        "anticipatable": anticipatable_bitsets(graph),
        "liveness": liveness_bitsets(graph),
        "reaching": reaching_bitsets(graph),
    }
    return {
        analysis: {
            str(eid): sorted(str(v) for v in values)
            for eid, values in sorted(decoded.items())
        }
        for analysis, decoded in sorted(facts.items())
    }


def check_edit_query(
    source: str, rewrites: list[tuple[int, str]], facts: dict
) -> str | None:
    if facts != scratch_facts(source, rewrites):
        return (f"edit query after {len(rewrites)} rewrite(s) differs "
                "from a from-scratch solve")
    return None
