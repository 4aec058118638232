"""Child process that makes the one-shot requests of a ladder workload.

Run by ``perfbench/oneshot.py`` with the checkout's ``src`` on
``PYTHONPATH``.  Protocol, one JSON line each way:

1. the parent writes the job (ladder sources, one plan per variant,
   light sources);
2. the child imports the program, answers one fixed program to warm up,
   and writes ``{"ready": true}``;
3. the parent writes ``go`` (or ``quit``); the child runs whole passes,
   pass ``p`` over plan ``p % len(plans)``, until ``seconds`` are spent
   and writes one result line.

Each ladder request is followed by light requests on tiny programs
(a block of them for each variant's pass).
After each untraced ladder request the child also times the calibration
loop (``stats.calibration_ms``).  Answers are hashed outside the timed
call; the first answer for every
``(op, source)`` travels back in full so the parent can check it.
In a traced job the child first runs untraced passes for half the time,
then installs the tracer and repeats exactly as many passes, which gives
both the per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import sys
import time

import checks
from stats import calibration_ms


#: Answered once before timing, so imports and lazy set-up are done.
WARM_UP = "x := 1;\nif (x > 0) {\n    y := x + 2;\n}\nprint y;\n"


class _Runner:
    def __init__(self, job: dict) -> None:
        from repro.serve.ops import run_op

        self.run_op = run_op
        self.job = job
        self.answers: dict[str, str] = {}
        self.records: list[list] = []
        self.tracer = None
        self.calibration: list[float] = []
        #: Every ladder position is timed in at least three passes (its
        #: latency is the median), and a run makes at least 100 ladder
        #: requests.
        self.min_passes = max(3, -(-100 // len(job["plans"][0])))

    def request(self, kind: str, op: str, index: int, source: str) -> None:
        rid = len(self.records)
        error = digest = None
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                answer = self.run_op(op, source)
            else:
                from tracing import traced_request

                answer = traced_request(
                    self.tracer, rid, self.run_op, op, source
                )
        except Exception as exc:  # every failure is counted, none stops the run
            answer = None
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if answer is not None:
            text = checks.canonical(answer)
            digest = checks.sha256(text)
            self.answers.setdefault(f"{kind}:{op}:{index}", text)
        self.records.append([kind, op, index, latency, digest, error])
        if kind == "heavy" and self.tracer is None:
            self.calibration.append(calibration_ms())

    def one_pass(self, p: int) -> None:
        job = self.job
        light = job["light_sources"]
        variant = p % len(job["plans"])
        plan = job["plans"][variant]
        per = len(light) // (len(plan) * len(job["plans"]))
        first = variant * per * len(plan)
        for slot, (op, index) in enumerate(plan):
            self.request("heavy", op, index, job["sources"][index])
            for k in range(first + slot * per, first + (slot + 1) * per):
                self.request("light", job["light_op"], k, light[k])

    def run(self, seconds: float, passes: int | None = None) -> int:
        """Whole passes until ``seconds`` are spent (or exactly
        ``passes``); returns the number of passes run."""
        start = time.perf_counter()
        done = 0
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if passes is not None and done >= passes:
                break
            if (passes is None and done >= self.min_passes
                    and elapsed + 0.5 * last >= seconds):
                break
            t0 = time.perf_counter()
            self.one_pass(done)
            last = time.perf_counter() - t0
            done += 1
        return done


def main() -> int:
    job = json.loads(sys.stdin.readline())
    runner = _Runner(job)
    runner.run_op(job["light_op"], WARM_UP)
    # The job and the program's modules are long-lived: keep the cyclic
    # collector from rescanning them inside timed requests.
    gc.collect()
    gc.freeze()
    print(json.dumps({"ready": True}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result: dict = {}
    if not job["trace"]:
        passes = runner.run(job["seconds"])
    else:
        from tracing import Tracer, install

        passes = runner.run(job["seconds"] / 2)
        untraced = len(runner.records)
        runner.tracer = Tracer()
        install(runner.tracer)
        runner.run(0, passes=passes)
        result["untraced_records"] = untraced
        result["trace"] = {
            "layer_ms": runner.tracer.layer_ms(),
            "counts": dict(runner.tracer.counts),
            "verify_total_ms": runner.tracer.total_ms("lint.verify"),
            "request_ms": runner.tracer.total_ms("request"),
            "by_request": _by_request(runner.tracer, untraced),
        }
        runner.tracer.dump(job["trace_path"])
    result.update(
        passes=passes, records=runner.records,
        answers=runner.answers, calibration_ms=runner.calibration,
    )
    print(json.dumps(result), flush=True)
    return 0


def _by_request(tracer, first_rid: int) -> dict[str, dict[str, float]]:
    """Self milliseconds per layer for every traced request id."""
    table: dict[str, dict[str, float]] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        rid = span[4]
        if rid is None or rid < first_rid:
            continue
        row = table.setdefault(str(rid), {})
        row[span[0]] = row.get(span[0], 0.0) + self_s * 1e3
    return table


if __name__ == "__main__":
    sys.exit(main())
