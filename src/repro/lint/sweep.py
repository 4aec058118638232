"""The corpus sweep behind ``repro lintsweep``: the measured guarantees.

Two populations:

* the **equivalence corpus** (the 204-program population of
  ``tests/test_perf_equivalence.py``, via
  :func:`repro.perf.batch.equivalence_suite`): every program is linted
  with verification on, and the sweep asserts **zero unverified definite
  findings** -- a definite finding either earns an independent witness
  or is demoted, never shipped bare;
* the **planted-defect population**
  (:func:`repro.workloads.lint_defects.lint_defect_case`): programs with
  ground-truth labels, scored for recall (every planted defect found at
  its exact line) and precision (every finding of a planted rule matches
  a label).

The resulting ``repro.lintsweep/1`` payload is checked in as
``LINT_<tag>.json`` and gated in CI: ``ok`` requires zero unverified
definites, zero refuted findings, zero oracle-checker failures
(checkers that *raised* instead of answering), and recall >= the floor.
"""

from __future__ import annotations

from repro.cfg.builder import build_cfg
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lint.engine import LintEngine
from repro.lint.oracle import DEFAULT_PROBE_STEPS
from repro.perf.batch import equivalence_suite, resolve_family
from repro.workloads.lint_defects import PLANTED_RULES, lint_defect_case

LINTSWEEP_SCHEMA = "repro.lintsweep/1"

#: Recall floor the payload's ``ok`` flag enforces.
RECALL_FLOOR = 0.95


def _lint_source(source: str, max_steps: int):
    graph = build_cfg(parse_program(source))
    return LintEngine(graph).run(verify=True, max_steps=max_steps)


def _sweep_corpus(smoke: bool, max_steps: int) -> dict:
    """Lint every corpus program; count verification outcomes by rule."""
    by_rule: dict[str, dict[str, int]] = {}
    programs = 0
    findings = 0
    unverified_definite = 0
    refuted = 0
    oracle_failures = 0
    failures: list[str] = []
    for spec in equivalence_suite(smoke=smoke):
        programs += 1
        program = resolve_family(spec["family"])(*spec["args"])
        # Generated ASTs carry no spans; round-trip through the pretty
        # printer so findings point at real source positions.
        result = _lint_source(pretty_program(program), max_steps)
        findings += len(result.diagnostics)
        oracle_failures += len(result.oracle_failures)
        bad = result.unverified_definite()
        unverified_definite += bad
        if bad or result.oracle_failures:
            failures.append(spec["label"])
        for diag in result.diagnostics:
            row = by_rule.setdefault(
                diag.rule,
                {"found": 0, "verified": 0, "demoted": 0, "refuted": 0},
            )
            row["found"] += 1
            if diag.verified:
                row["verified"] += 1
            if diag.demoted:
                row["demoted"] += 1
            if diag.refuted:
                row["refuted"] += 1
                refuted += 1
    return {
        "programs": programs,
        "findings": findings,
        "unverified_definite": unverified_definite,
        "refuted": refuted,
        "oracle_failures": oracle_failures,
        "failing_programs": sorted(failures),
        "by_rule": dict(sorted(by_rule.items())),
    }


def _sweep_planted(smoke: bool, max_steps: int) -> dict:
    """Score diagnostics against the generator's ground-truth labels."""
    cases = 8 if smoke else 40
    planted = 0
    found = 0
    oracle_failures = 0
    scored_findings = 0
    matched_findings = 0
    missed: list[dict] = []
    for seed in range(cases):
        source, labels = lint_defect_case(seed)
        result = _lint_source(source, max_steps)
        oracle_failures += len(result.oracle_failures)
        # A diagnostic matches a label when the rule agrees and the
        # primary span sits on the labelled line.
        positions = {
            (d.rule, d.span.line)
            for d in result.diagnostics
            if d.span is not None
        }
        label_keys = {(label.rule, label.line) for label in labels}
        planted += len(labels)
        for label in labels:
            if (label.rule, label.line) in positions:
                found += 1
            else:
                missed.append(
                    {"seed": seed, "rule": label.rule, "line": label.line}
                )
        for diag in result.diagnostics:
            if diag.rule not in PLANTED_RULES or diag.span is None:
                continue
            scored_findings += 1
            if (diag.rule, diag.span.line) in label_keys:
                matched_findings += 1
    recall = round(found / planted, 4) if planted else 1.0
    precision = (
        round(matched_findings / scored_findings, 4)
        if scored_findings
        else 1.0
    )
    return {
        "cases": cases,
        "planted": planted,
        "found": found,
        "recall": recall,
        "scored_findings": scored_findings,
        "matched_findings": matched_findings,
        "precision": precision,
        "oracle_failures": oracle_failures,
        "missed": missed,
    }


def run_lint_sweep(
    tag: str = "dev", smoke: bool = False,
    max_steps: int = DEFAULT_PROBE_STEPS,
) -> dict:
    """The full sweep; returns the ``repro.lintsweep/1`` payload.

    No timing or environment fields: the payload for a given corpus is
    deterministic, so it can be checked in and diffed across PRs.
    """
    corpus = _sweep_corpus(smoke, max_steps)
    planted = _sweep_planted(smoke, max_steps)
    ok = (
        corpus["unverified_definite"] == 0
        and corpus["refuted"] == 0
        and corpus["oracle_failures"] == 0
        and planted["oracle_failures"] == 0
        and planted["recall"] >= RECALL_FLOOR
    )
    return {
        "schema": LINTSWEEP_SCHEMA,
        "tag": tag,
        "mode": "smoke" if smoke else "full",
        "recall_floor": RECALL_FLOOR,
        "corpus": corpus,
        "planted": planted,
        "ok": ok,
    }
