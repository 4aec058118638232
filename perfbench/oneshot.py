"""The ``oneshot-analyze`` and ``oneshot-lint`` workloads.

Each run generates a seeded ladder of distinct programs, starts a
worker process (``oneshot_worker.py``) that calls ``run_op`` cold for
every request, and checks every answer afterwards in this process.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import checks
import gen
import metrics
from stats import median, on_reference, percentile, scaling_exponent

#: Each ladder is ``count`` positions whose target sizes follow
#: ``knots``: the k-th position sits at ``x = k / (count - 1)`` and its
#: size is log-linear between the knots around ``x``.  Sizes change
#: smoothly, so the latency distribution has no gaps for a percentile
#: to jump across; gentle plateaus hold the 35-65% and the 70-97%
#: bands, so ``p50``, ``p90`` and the heavy percentiles average over
#: many similar programs; a few large programs extend the scaling fit.
#: Families rotate along it.
LADDERS = {
    "oneshot-analyze": {
        "ops": ("analyze", "constprop"),
        "families": ("random", "loop", "jump", "irreducible"),
        "count": 40,
        "knots": ((0.0, 50), (0.35, 200), (0.65, 260), (0.7, 450),
                  (0.97, 600), (1.0, 2000)),
        # Requests on the upper plateau's programs are "heavy".
        "heavy": (450, 600),
    },
    # No goto-jump programs here: they mostly loop forever, so every
    # interpreter probe runs to its step limit and a program's cost
    # swings with its seed.  Random programs, whose lint cost varies
    # most between programs of one size (by a fifth), stay below 60
    # lines, under the percentiles; loop nests and irreducible programs
    # carry the ladder to 450.  Above that a program costs 2-3 s (a
    # 400-line random one 6-10 s), too few fit in a run to give steady
    # figures.  Two planted-defect programs make every rule and every
    # oracle checker fire.
    "oneshot-lint": {
        "ops": ("lint",),
        "families": ("random", "loop", "irreducible"),
        "random_max": 60,
        "count": 55,
        "knots": ((0.0, 30), (0.35, 70), (0.65, 90), (0.7, 140),
                  (0.97, 180), (1.0, 450)),
        "extra": ((65, "defect"), (65, "defect")),
        "heavy": (140, 180),
    },
}

#: Tiny ladders for the benchmark's own tests.
TINY = {"count": 4, "knots": ((0.0, 10), (1.0, 24))}

#: Light requests per ladder request, each on its own tiny program, new
#: in each variant's pass: many distinct programs keep light latency
#: from resting on a few seeds' luck.  Analyze gets 960 light slots a
#: pass, ten beyond ``light_p99_ms``; lint, whose tiny requests cost
#: about four tiny analyzes, gets 342, three beyond it.
LIGHT_PER_REQUEST = {"oneshot-analyze": 12, "oneshot-lint": 6}
LIGHT_LINES = 8

#: Each ladder position holds this many programs of the same target size
#: and family, and pass ``p`` runs variant ``p % VARIANTS``.  A
#: position's latency is the median over its variants, so the
#: percentiles rest on three programs per position, not on the cost of
#: one seed's program.
VARIANTS = 3


def _size(knots, x: float) -> int:
    for (x0, s0), (x1, s1) in zip(knots, knots[1:]):
        if x <= x1:
            t = (x - x0) / (x1 - x0)
            return round(s0 * (s1 / s0) ** t)
    return knots[-1][1]


def ladder(spec: dict, tiny: bool = False) -> list[tuple[int, str]]:
    """``(target lines, family)`` for every program of a ladder."""
    shape = TINY if tiny else spec
    count = shape["count"]
    families = spec["families"]
    out = []
    for k in range(count):
        target = _size(shape["knots"], k / (count - 1))
        family = families[k % len(families)]
        if family == "random" and target > spec.get("random_max", target):
            family = families[1 + (k // len(families)) % (len(families) - 1)]
        out.append((target, family))
    if not tiny:
        out += list(spec.get("extra", ()))
    return out


def generate(workload: str, seed: int, tiny: bool = False) -> dict:
    """The job a worker runs: sources, their size metadata, the request
    plan of each variant's pass and the light sources.  Pure in
    ``seed``."""
    spec = LADDERS[workload]
    sources, meta, plans = [], [], []
    for v in range(VARIANTS):
        first = len(sources)
        for k, (target, family) in enumerate(ladder(spec, tiny)):
            source = gen.program_of_lines(family, target, seed, f"p{k}.{v}")
            sources.append(source)
            meta.append({
                "target": target, "family": family, "position": k,
                "lines": gen.line_count(source),
            })
        plans.append([
            [op, i] for i in range(first, len(sources)) for op in spec["ops"]
        ])
    light = [
        gen.program_of_lines("random", LIGHT_LINES, seed, f"light{k}")
        for k in range(VARIANTS * LIGHT_PER_REQUEST[workload] * len(plans[0]))
    ]
    return {
        "sources": sources, "meta": meta, "plans": plans,
        "light_sources": light, "light_op": spec["ops"][0],
        "heavy": (0, 10**9) if tiny else spec["heavy"],
    }


class Worker:
    """One ``oneshot_worker.py`` child, started and warmed up."""

    def __init__(self, root: str, job: dict) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench",
                                          "oneshot_worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True, cwd=root,
        )
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line or not json.loads(line).get("ready"):
            self.close()
            raise RuntimeError("one-shot worker failed to start")

    def run(self) -> tuple[dict, int]:
        """Start the timed passes; returns the result and the child's
        peak RSS in KiB."""
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        rss = self._reap()
        if not line:
            raise RuntimeError("one-shot worker died during the run")
        return json.loads(line), rss

    def _reap(self) -> int:
        self.proc.stdin.close()
        _pid, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss

    def close(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            self._reap()


def verify(job: dict, result: dict) -> list[str | None]:
    """One verdict per request record: ``None`` or why it is wrong."""
    answers = result["answers"]
    reasons: dict[str, str | None] = {}
    digests: dict[str, str] = {}
    for key, text in answers.items():
        kind, op, index = key.split(":")
        index = int(index)
        source = (
            job["sources"][index] if kind == "heavy"
            else job["light_sources"][index]
        )
        reasons[key] = checks.check_oneshot(op, source, json.loads(text))
        digests[key] = checks.sha256(text)
    if any(op == "analyze" for op, _ in job["plans"][0]):
        for index in range(len(job["sources"])):
            a = answers.get(f"heavy:analyze:{index}")
            c = answers.get(f"heavy:constprop:{index}")
            if a and c and reasons[f"heavy:analyze:{index}"] is None:
                reasons[f"heavy:analyze:{index}"] = checks.check_analyze_pair(
                    json.loads(a), json.loads(c)
                )
    verdicts = []
    for kind, op, index, _latency, digest, error in result["records"]:
        key = f"{kind}:{op}:{index}"
        if error is not None:
            verdicts.append(error)
        elif digest != digests.get(key):
            verdicts.append(f"{key}: answer differs from an earlier repeat")
        else:
            verdicts.append(reasons.get(key))
    return verdicts


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        tiny: bool = False) -> dict:
    setups, worker = [], None
    for _ in range(metrics.SETUP_REPEATS):
        if worker is not None:
            worker.close()
        t0 = time.perf_counter()
        job = generate(workload, seed, tiny=tiny)
        job.update(
            seconds=seconds, trace=trace,
            trace_path=os.path.join(
                root, metrics.OUT_DIR, f"trace-{workload}-{seed}.json"
            ),
        )
        worker = Worker(root, job)
        setups.append(time.perf_counter() - t0)
    try:
        result, rss_kib = worker.run()
    finally:
        worker.close()
    verdicts = verify(job, result)
    records = result["records"]
    failed = sum(1 for v in verdicts if v is not None)
    out = {
        "attempted": len(records),
        "failed": failed,
        "problems": sorted({v for v in verdicts if v is not None})[:5],
    }
    if trace:
        out["metrics"] = _layer_metrics(job, result)
        out["rows"] = _rows(job, result)
        return out
    out["metrics"] = _end_to_end(job, result, median(setups), rss_kib,
                                 verdicts)
    out["fit"] = _fit_points(
        job, records, _reference_ms(records, result["calibration_ms"])
    )
    return out


def _end_to_end(job, result, setup_s, rss_kib, verdicts) -> dict:
    """End-to-end metrics, times on the reference CPU (``stats``).  A
    ladder position's latency is the median of its timings across the
    passes (one program of each variant), so a burst of load from
    outside that hits one pass does not move it.  A light slot's (the
    k-th light request of a pass) is the median in the same way."""
    records = result["records"]
    meta = job["meta"]
    ref_ms = _reference_ms(records, result["calibration_ms"])
    timings: dict = {}
    targets: dict = {}
    slots = len(job["light_sources"]) // VARIANTS
    for (kind, op, index, *_rest), ms in zip(records, ref_ms):
        if kind == "light":
            key = (kind, op, index % slots)
        else:
            key = (kind, op, meta[index]["position"])
            targets[key] = meta[index]["target"]
        timings.setdefault(key, []).append(ms)
    latency = {key: median(samples) for key, samples in timings.items()}
    heavy = {k: v for k, v in latency.items() if k[0] == "heavy"}
    light_ms = [v for k, v in latency.items() if k[0] == "light"]
    top_ms = [
        v for k, v in heavy.items()
        if job["heavy"][0] <= targets[k] <= job["heavy"][1]
    ]
    ladder = [
        (meta[r[2]]["lines"], ms) for r, ms in zip(records, ref_ms)
        if r[0] == "heavy"
    ]
    light_ok = [
        ms for r, ms, v in zip(records, ref_ms, verdicts)
        if r[0] == "light" and v is None
    ]
    light_n = sum(1 for r in records if r[0] == "light")
    failed = sum(1 for v in verdicts if v is not None)
    return metrics.end_to_end(
        setup_s=setup_s,
        oneshot_p50_ms=percentile(heavy.values(), 50),
        oneshot_p90_ms=percentile(heavy.values(), 90),
        lines_per_s=1e3 * sum(lines for lines, _ in ladder)
        / sum(ms for _, ms in ladder),
        scaling_exponent=scaling_exponent(_fit_points(job, records, ref_ms)),
        light_p50_ms=percentile(light_ms, 50),
        light_p99_ms=percentile(light_ms, 99),
        light_slo_frac=sum(
            1 for t in light_ok if t <= metrics.LIGHT_SLO_MS
        ) / light_n,
        heavy_p50_ms=percentile(top_ms, 50),
        heavy_p90_ms=percentile(top_ms, 90),
        serve_rps=1e3 * len(records) / sum(ref_ms),
        ok_frac=1.0 - failed / len(records),
        peak_rss_mb=rss_kib / 1024.0,
    )


def _reference_ms(records, calibration) -> list[float]:
    """Every record's latency on the reference CPU.  The worker times the
    calibration loop after each untraced ladder request; a request is
    scaled by the sample that follows it, and the light requests after
    it by that same sample."""
    out, k = [], -1
    for kind, _op, _index, latency, _digest, _error in records:
        if kind == "heavy":
            k += 1
        out.append(on_reference(latency, calibration[max(k, 0)]))
    return out


def _fit_points(job, records, ref_ms) -> list[tuple[str, float, float]]:
    """One point per (op, ladder position): the median lines against the
    median latency of its timings across passes."""
    times: dict = {}
    for (kind, op, index, *_rest), ms in zip(records, ref_ms):
        if kind == "heavy":
            meta = job["meta"][index]
            times.setdefault((op, meta["position"]), []).append(
                (meta["lines"], ms)
            )
    return [
        (op, median(l for l, _ in samples), median(t for _, t in samples))
        for (op, _position), samples in sorted(times.items())
    ]


def _layer_metrics(job, result) -> dict:
    trace = result["trace"]
    passes = result["passes"]
    records = result["records"]
    untraced = result["untraced_records"]
    base = sum(r[3] for r in records[:untraced])
    traced = sum(r[3] for r in records[untraced:])
    return metrics.per_layer(
        trace["layer_ms"], trace["counts"], passes,
        totals={
            "lint.verify_total_ms": trace["verify_total_ms"],
            "trace.request_ms": trace["request_ms"],
        },
        values={
            "trace.overhead_frac": traced / base - 1.0,
            "calibration.loop_ms": median(result["calibration_ms"]),
        },
    )


def _band(target: int) -> int:
    """The size band of a ladder target: powers of 1.5 from 10 lines."""
    return round(10 * 1.5 ** round(math.log(target / 10, 1.5)))


def _rows(job, result) -> list[dict]:
    """One row per (op, size band) of the traced passes: mean lines,
    mean latency and mean self milliseconds per layer per request -- the
    per-layer view of the points behind ``scaling_exponent``."""
    records = result["records"]
    by_request = result["trace"]["by_request"]
    groups: dict = {}
    for rid in range(result["untraced_records"], len(records)):
        kind, op, index, latency, _d, _e = records[rid]
        if kind != "heavy":
            continue
        meta = job["meta"][index]
        group = groups.setdefault(
            (op, _band(meta["target"])),
            {"n": 0, "lines": 0, "ms": 0.0, "layers": {}},
        )
        group["n"] += 1
        group["lines"] += meta["lines"]
        group["ms"] += latency * 1e3
        for layer, ms in by_request.get(str(rid), {}).items():
            group["layers"][layer] = group["layers"].get(layer, 0.0) + ms
    return [
        {
            "op": op, "band": band,
            "lines": round(g["lines"] / g["n"], 1),
            "latency_ms": round(g["ms"] / g["n"], 3),
            "layers_ms": {
                k: round(v / g["n"], 3) for k, v in sorted(g["layers"].items())
            },
        }
        for (op, band), g in sorted(groups.items())
    ]
