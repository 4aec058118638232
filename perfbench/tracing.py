"""Spans around the public functions of each layer, for traced runs only.

:func:`install` wraps, from outside the program, the functions each
layer exposes (module attributes at their call sites, class methods on
the class) so every call records a span ``[name, start, end, parent,
request id]`` plus counts.  Nothing under ``src/`` changes: an untraced
run never imports this module's wrappers.  Spans stay in memory and
:meth:`Tracer.dump` writes them once, when the run ends.

A metric's ``_ms`` value is **self time**: the span's duration minus
the durations of its direct child spans, so the per-layer numbers add
up to the traced request time (``trace.request_ms``).
``lint.verify_total_ms`` is the one inclusive figure: the whole
``verify_diagnostics`` call, probes and reference analyses included.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

#: Pass names (pipeline manager spans) that make up the structure layer:
#: the ``sese`` get with everything it resolves first.
STRUCTURE_PASSES = frozenset(
    ("cfg", "csr", "dfs", "dom", "pdom", "cycle-equiv", "sese")
)

#: The dense witness analyses the lint oracle calls, by home module.
_REFERENCES = {
    "repro.lint.oracle": (
        "reaching_definitions_reference",
        "live_variables_reference",
        "available_expressions_reference",
        "partially_available_expressions_reference",
        "anticipatable_expressions_reference",
        "cfg_constant_propagation",
        "build_def_use_chains",
        "natural_loops",
    ),
    # Imported inside oracle methods at call time: patch the home module.
    "repro.sparse.range_analysis": ("range_analysis_reference",),
    "repro.sparse.taint": ("taint_analysis_reference",),
    "repro.controldep.ntscd": ("ntscd_reference",),
}

#: Per-layer time metrics (self time, milliseconds).
TIME_METRICS = (
    "lang.parse", "cfg.build", "cfg.variables",
    "pipeline.structure", "pipeline.dfg", "pipeline.constprop",
    "pipeline.other",
    "lint.rules", "lint.verify", "lint.probe", "lint.reference",
    "serve.handle", "serve.wait", "serve.cache_load", "serve.cache_store",
    "serve.export", "serve.import",
    "regions.edit", "regions.query",
)


class Tracer:
    """In-memory span and count recorder, safe across handler threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter() - self._epoch, None, parent, None,
                threading.get_ident()]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter() - self._epoch
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def tag_request(self, first: int, request_id) -> None:
        """Stamp every span this thread opened since ``first`` (the
        request's own top span) with the request id."""
        thread = threading.get_ident()
        with self._lock:
            for span in self.spans[first:]:
                if span[5] == thread:
                    span[4] = request_id

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span (seconds), in span order."""
        own = [
            (s[2] if s[2] is not None else s[1]) - s[1] for s in self.spans
        ]
        selfs = list(own)
        for s, duration in zip(self.spans, own):
            if s[3] >= 0:
                selfs[s[3]] -= duration
        return selfs

    def layer_ms(self) -> dict[str, float]:
        """Self milliseconds per metric name."""
        out = {name: 0.0 for name in TIME_METRICS}
        for span, self_s in zip(self.spans, self.self_times()):
            if span[0] in out:
                out[span[0]] += self_s * 1e3
        return out

    def total_ms(self, name: str) -> float:
        return sum(
            (s[2] - s[1]) * 1e3 for s in self.spans
            if s[0] == name and s[2] is not None
        )

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write every span once (called when the run ends)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        doc = {
            "schema": "perfbench.trace/1",
            "fields": ["name", "start_s", "end_s", "parent", "request",
                       "thread"],
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    original = getattr(owner, attr)

    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, result)
        return result

    traced.__wrapped__ = original
    traced.__name__ = getattr(original, "__name__", attr)
    setattr(owner, attr, traced)


class _PassSpan:
    """Wraps the pipeline manager's own ``pass:<name>`` span so the
    tracer sees each real (uncached) pass computation and its ticks."""

    def __init__(self, tracer: Tracer, inner, name: str) -> None:
        self.tracer = tracer
        self.inner = inner
        self.name = name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)
        self.span = self.inner.__enter__()
        return self.span

    def __exit__(self, *exc_info):
        try:
            return self.inner.__exit__(*exc_info)
        finally:
            self.tracer.count(
                "pipeline.work_ticks", sum(self.span.work.values())
            )
            self.tracer.end(self.index)


def _pass_metric(pass_name: str) -> str:
    if pass_name.startswith("lint"):
        return "lint.rules"
    if pass_name in STRUCTURE_PASSES:
        return "pipeline.structure"
    if pass_name in ("dfg", "constprop"):
        return f"pipeline.{pass_name}"
    return "pipeline.other"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary.  Call once per process, before any
    request runs."""
    import importlib

    import repro.cfg.graph as graph_mod
    import repro.lint.engine as lint_engine
    import repro.lint.oracle as oracle
    import repro.pipeline.manager as manager_mod
    import repro.regions.edits as edits
    import repro.serve.cache as cache_mod
    import repro.serve.ops as ops
    import repro.serve.server as server
    import repro.util.metrics as metrics_mod

    def count_parse(args, result):
        tracer.count("lang.parse_calls")

    def count_nodes(args, result):
        tracer.count("cfg.nodes", result.num_nodes)

    for module in (ops, server):
        _wrap(tracer, module, "parse_program", "lang.parse", count_parse)
        _wrap(tracer, module, "build_cfg", "cfg.build", count_nodes)
    _wrap(tracer, graph_mod.CFG, "variables", "cfg.variables",
          lambda args, result: tracer.count("cfg.variables_calls"))

    original_span = metrics_mod.Metrics.span

    def span(self, name, cached=None):
        inner = original_span(self, name, cached)
        if cached is False and name.startswith("pass:"):
            return _PassSpan(tracer, inner, _pass_metric(name[5:]))
        return inner

    metrics_mod.Metrics.span = span

    def count_verify(args, result):
        before = args[1]
        tracer.count("lint.findings", len(result))
        tracer.count(
            "lint.definite_in",
            sum(1 for d in before if d.severity == "definite"),
        )
        tracer.count(
            "lint.definite_confirmed",
            sum(1 for d in result
                if d.severity == "definite" and d.verified is True),
        )

    _wrap(tracer, lint_engine, "verify_diagnostics", "lint.verify",
          count_verify)
    _wrap(tracer, oracle, "run_cfg", "lint.probe",
          lambda args, result: tracer.count("lint.probe_runs"))
    for module_name, names in _REFERENCES.items():
        module = importlib.import_module(module_name)
        for attr in names:
            _wrap(tracer, module, attr, "lint.reference")

    broker = server.RequestBroker
    _wrap(tracer, broker, "_dispatch", "serve.handle")
    original_handle = broker.handle_line

    def handle_line(self, line):
        index = tracer.begin("serve.wait")
        try:
            response = original_handle(self, line)
        finally:
            tracer.end(index)
        tracer.tag_request(index, response.get("id"))
        return response

    broker.handle_line = handle_line
    _wrap(tracer, cache_mod.ResultCache, "load", "serve.cache_load")
    _wrap(tracer, cache_mod.ResultCache, "store", "serve.cache_store")
    _wrap(tracer, manager_mod.AnalysisManager, "export_result",
          "serve.export")
    _wrap(tracer, manager_mod.AnalysisManager, "import_result",
          "serve.import")

    session = edits.EditSession
    for attr in ("__init__", "rewrite_rhs", "splice_assign", "unsplice"):
        _wrap(tracer, session, attr, "regions.edit")
    _wrap(tracer, session, "solve_all", "regions.query")


def traced_request(tracer: Tracer, request_id, call, *args):
    """Run one one-shot request under a top span stamped ``request_id``."""
    index = tracer.begin("request")
    try:
        return call(*args)
    finally:
        tracer.end(index)
        tracer.tag_request(index, request_id)
