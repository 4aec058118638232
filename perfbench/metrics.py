"""Metric names, units and shared settings.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
checks that the two agree.
"""

from __future__ import annotations

#: Where traced runs write their spans and rows (inside the checkout).
OUT_DIR = ".perfbench"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: A light request answered within this limit meets its objective.
LIGHT_SLO_MS = 50.0

END_TO_END = {
    "setup_s": "s",
    "oneshot_p50_ms": "ms",
    "oneshot_p90_ms": "ms",
    "lines_per_s": "1/s",
    "scaling_exponent": "1",
    "light_p50_ms": "ms",
    "light_p99_ms": "ms",
    "light_slo_frac": "frac",
    "heavy_p50_ms": "ms",
    "heavy_p90_ms": "ms",
    "serve_rps": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Per-layer time metrics come from ``tracing.TIME_METRICS`` (+ ``_ms``);
#: the rest are counts and ratios.
PER_LAYER = {
    "lang.parse_ms": "ms",
    "lang.parse_calls": "count",
    "cfg.build_ms": "ms",
    "cfg.nodes": "count",
    "cfg.variables_calls": "count",
    "cfg.variables_ms": "ms",
    "pipeline.structure_ms": "ms",
    "pipeline.dfg_ms": "ms",
    "pipeline.constprop_ms": "ms",
    "pipeline.other_ms": "ms",
    "pipeline.work_ticks": "count",
    "lint.rules_ms": "ms",
    "lint.verify_ms": "ms",
    "lint.verify_total_ms": "ms",
    "lint.findings": "count",
    "lint.confirmed_frac": "frac",
    "lint.probe_runs": "count",
    "lint.probe_ms": "ms",
    "lint.reference_ms": "ms",
    "serve.handle_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.cache_load_ms": "ms",
    "serve.cache_store_ms": "ms",
    "serve.export_ms": "ms",
    "serve.import_ms": "ms",
    "serve.hit_rate": "frac",
    "serve.warm_hits": "count",
    "serve.disk_hits": "count",
    "serve.misses": "count",
    "serve.parses": "count",
    "regions.edit_ms": "ms",
    "regions.query_ms": "ms",
    "regions.work_ticks": "count",
    "trace.request_ms": "ms",
    "trace.overhead_frac": "frac",
    "loadgen.lag_p99_ms": "ms",
    "calibration.loop_ms": "ms",
}


def _pack(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"unexpected {extra}")
    return {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }


def end_to_end(**values) -> dict:
    return _pack(values, END_TO_END)


def per_layer(layer_ms: dict, counts: dict, per: float, totals: dict,
              values: dict) -> dict:
    """Per-layer metrics.  ``layer_ms``, ``counts`` and ``totals`` are
    sums over the traced part of the run and are divided by ``per``
    (ladder passes, or heavy schedule cycles on ``serve-mixed``);
    ``values`` are reported as given (ratios, daemon ``stats``).  Layers
    a workload never calls read 0."""
    out = {f"{name}_ms": ms / per for name, ms in layer_ms.items()}
    for name in ("lang.parse_calls", "cfg.nodes", "cfg.variables_calls",
                 "pipeline.work_ticks", "lint.findings", "lint.probe_runs"):
        out[name] = counts.get(name, 0) / per
    definite = counts.get("lint.definite_in", 0)
    out["lint.confirmed_frac"] = (
        counts.get("lint.definite_confirmed", 0) / definite if definite else 0.0
    )
    out.update({
        "serve.wire_ms": 0.0, "serve.hit_rate": 0.0, "serve.warm_hits": 0,
        "serve.disk_hits": 0, "serve.misses": 0, "serve.parses": 0,
        "regions.work_ticks": 0, "loadgen.lag_p99_ms": 0.0,
    })
    out.update({name: total / per for name, total in totals.items()})
    out.update(values)
    return _pack(out, PER_LAYER)
