"""The ``serve-mixed`` workload: one daemon, two TCP connections.

* **Heavy connection, closed loop.**  Sends the next request 5 ms after
  the last answer arrives.  A schedule cycle is eight slots: cold
  ``analyze``, ``constprop`` and ``lint`` misses on new programs,
  revisits of programs three cycles old (long evicted from the
  ``--warm 4`` LRU, so they are disk-tier hits), and an edit burst
  (``open``, ``rewrite``, ``query``, ``rewrite``, ``query``, ``close``).
  Misses store to the cache while revisits load from it.
* **Light connection, open loop** at ``LIGHT_RATE`` requests per second,
  alternating ``ping`` and warm-hit ``analyze`` of two small programs.
  Each light request is timed from when it was due, so time spent
  queued behind a heavy request counts.

After the daemon has shut down, every answer is checked: source ops
byte-for-byte against a one-shot ``run_op`` (whose latency gives
``oneshot_p50_ms`` here), edit queries against a from-scratch solve.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import re
import select
import shutil
import socket
import subprocess
import sys
import threading
import time

import checks
import gen
import metrics
from stats import (
    calibration_ms,
    median,
    on_reference,
    percentile,
    scaling_exponent,
)

WARM = 4
#: Pause between a heavy answer and the next heavy request.  Without it
#: the heavy handler re-takes the broker lock before the waiting light
#: handler wakes, and light latency turns on thread scheduling luck.
HEAVY_THINK_S = 0.005
LIGHT_RATE = 100.0
LIGHT_LINES = 30

#: Cold analyze/constprop misses: (target lines, family), rotating.
#: Sizes span 8x so the daemon's fixed per-miss costs (arena, export,
#: cache files) do not flatten the scaling fit into noise.
SOURCE_MIX = (
    (50, "random"), (100, "loop"), (200, "jump"), (400, "irreducible"),
    (100, "random"), (200, "loop"), (50, "irreducible"), (400, "random"),
)
#: Cold lint misses, rotating.  No planted-defect programs: one of those
#: holds the lock three times longer than any other request, and the
#: light tail would follow a handful of them (oneshot-lint runs them).
LINT_MIX = (
    (30, "random"), (45, "loop"), (65, "irreducible"),
    (30, "irreducible"), (45, "random"), (65, "loop"),
)
EDIT_LINES = 80
#: Revisits target the program of the same slot this many cycles back.
REVISIT_BACK = 3
#: One heavy cycle.  ``A``/``C``/``L``: new program; ``-``: revisit.
CYCLE = ("A", "C", "L", "A-", "E", "L-", "C-", "L2")
_OPS = {"A": "analyze", "C": "constprop", "L": "lint", "L2": "lint"}
#: The heavy loop stops early if a run ever exhausts the pool.
POOL_CYCLES = 150
TINY_CYCLES = 4
LIGHT_ID = 10_000_000


def generate(seed: int, tiny: bool = False) -> dict:
    """Programs for every heavy slot of every cycle, plus the light set.
    ``cycles[c][slot]`` indexes ``programs``."""
    programs, cycles = [], []
    n_cycles = TINY_CYCLES if tiny else POOL_CYCLES

    def add(family: str, target: int, tag: str) -> int:
        lines = target
        if tiny:
            lines = max(10, target // 5)
        source = gen.program_of_lines(family, lines, seed, tag)
        programs.append({
            "source": source, "family": family, "target": target,
            "lines": gen.line_count(source),
        })
        return len(programs) - 1

    k_src = k_lint = 0
    for c in range(n_cycles):
        slots = {}
        for slot in ("A", "C"):
            lines, family = SOURCE_MIX[k_src % len(SOURCE_MIX)]
            slots[slot] = add(family, lines, f"{slot}{c}")
            k_src += 1
        for slot in ("L", "L2"):
            lines, family = LINT_MIX[k_lint % len(LINT_MIX)]
            slots[slot] = add(family, lines, f"{slot}{c}")
            k_lint += 1
        slots["E"] = add("random", EDIT_LINES, f"E{c}")
        cycles.append(slots)
    light = [
        gen.program_of_lines("random", 12 if tiny else LIGHT_LINES, seed,
                             f"light{k}")
        for k in range(2)
    ]
    return {"programs": programs, "cycles": cycles, "light": light,
            "seed": seed}


class Conn:
    """A line-delimited JSON connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.buffer = b""

    def send(self, obj: dict) -> None:
        self.sock.sendall(checks.canonical(obj).encode() + b"\n")

    def recv_line(self) -> bytes:
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line

    def call(self, obj: dict) -> dict:
        self.send(obj)
        return json.loads(self.recv_line())

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """A ``repro serve`` child on a free localhost port."""

    def __init__(self, root: str, cache_dir: str,
                 trace_path: str | None = None) -> None:
        serve_args = ["--host", "127.0.0.1", "--port", "0",
                      "--cache-dir", cache_dir, "--warm", str(WARM)]
        if trace_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [sys.executable,
                   os.path.join(root, "perfbench", "traced_serve.py"),
                   trace_path, *serve_args]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.rusage = None
        self.port = self._read_port(deadline=time.monotonic() + 60)

    def _read_port(self, deadline: float) -> int:
        seen = b""
        fd = self.proc.stderr.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            seen += chunk
            match = re.search(rb"listening on [\d.]+:(\d+)", seen)
            if match:
                return int(match.group(1))
        self.kill()
        raise RuntimeError(f"daemon did not start: {seen.decode()[-500:]}")

    def wait(self, timeout: float = 60.0) -> None:
        """Reap the child (after ``shutdown``), keeping its rusage."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
                return
            time.sleep(0.05)
        self.kill()
        raise RuntimeError("daemon did not exit after shutdown")

    def _reaped(self, status, usage) -> None:
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = usage
        self.proc.stderr.close()

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            _pid, status, usage = os.wait4(self.proc.pid, 0)
            self._reaped(status, usage)


class Session:
    """One daemon with its two connections, warmed up."""

    def __init__(self, root: str, job: dict, cache_dir: str,
                 trace_path: str | None = None) -> None:
        self.daemon = Daemon(root, cache_dir, trace_path)
        try:
            self.heavy = Conn(self.daemon.port)
            self.light = Conn(self.daemon.port)
            self.light.call({"id": 0, "op": "ping"})
            for k, source in enumerate(job["light"]):
                self.light.call({"id": 0, "op": "analyze", "source": source,
                                 "file": f"light{k}.dfg"})
        except Exception:
            self.daemon.kill()
            raise

    def stop(self) -> dict:
        """``stats`` then ``shutdown``; returns the stats payload."""
        try:
            stats = self.heavy.call({"id": 0, "op": "stats"})["result"]
            self.heavy.call({"id": 0, "op": "shutdown"})
        finally:
            self.heavy.close()
            self.light.close()
        self.daemon.wait()
        return stats


# -- the two load loops ------------------------------------------------------


def _heavy_loop(conn: Conn, job: dict, deadline: float | None,
                max_requests: int | None, calibration: list) -> list[dict]:
    records: list[dict] = []
    rid = 0

    def call(request: dict, **meta) -> dict:
        nonlocal rid
        rid += 1
        request["id"] = rid
        t0 = time.perf_counter()
        conn.send(request)
        line = conn.recv_line()
        t1 = time.perf_counter()
        response = json.loads(line)
        records.append({"id": rid, "t0": t0, "t1": t1, "line": line,
                        "response": response, **meta})
        calibration.append(calibration_ms())
        time.sleep(HEAVY_THINK_S)
        return response

    def done() -> bool:
        if max_requests is not None and len(records) >= max_requests:
            return True
        return deadline is not None and time.perf_counter() >= deadline

    for c, slots in enumerate(job["cycles"]):
        for slot in CYCLE:
            if done():
                return records
            revisit = slot.endswith("-")
            base = slot.rstrip("-")
            if revisit:
                if c < REVISIT_BACK:
                    continue
                index = job["cycles"][c - REVISIT_BACK][base]
            else:
                index = slots[base]
            source = job["programs"][index]["source"]
            if base == "E":
                _edit_burst(call, job, c, index, source)
                continue
            op = _OPS[base]
            call({"op": op, "source": source, "file": f"p{index}.dfg"},
                 kind="source", op=op, program=index, revisit=revisit)
    return records


def _edit_burst(call, job: dict, cycle: int, index: int, source: str) -> None:
    name = f"s{cycle}"
    opened = call({"op": "edit", "action": "open", "session": name,
                   "source": source}, kind="edit", program=index, rewrites=[])
    if not opened.get("ok"):
        return
    statements = [
        s for s in opened["result"]["statements"] if s["kind"] == "ASSIGN"
    ]
    rng = random.Random(f"{job['seed']}:edit:{cycle}")
    rewrites: list = []
    for _ in range(2):
        target = rng.choice(statements)
        expr = f"{target['target']} * {rng.randint(2, 9)}"
        rewrites.append([target["id"], expr])
        call({"op": "edit", "action": "rewrite", "session": name,
              "node": target["id"], "expr": expr},
             kind="edit", program=index, rewrites=list(rewrites))
        call({"op": "edit", "action": "query", "session": name},
             kind="query", program=index, rewrites=list(rewrites))
    call({"op": "edit", "action": "close", "session": name},
         kind="edit", program=index, rewrites=list(rewrites))


class _LightLoop:
    """Open-loop sender plus a receiver thread on the light connection."""

    def __init__(self, conn: Conn, job: dict) -> None:
        self.conn = conn
        self.job = job
        self.records: list[dict] = []
        self.stop = threading.Event()
        self.error: BaseException | None = None

    def request(self, k: int) -> dict:
        if k % 2 == 0:
            return {"id": LIGHT_ID + k, "op": "ping"}
        light = (k // 2) % len(self.job["light"])
        return {"id": LIGHT_ID + k, "op": "analyze", "file": f"light{light}.dfg",
                "source": self.job["light"][light]}

    def send_loop(self, start: float) -> None:
        k = 0
        try:
            while not self.stop.is_set():
                due = start + k / LIGHT_RATE
                pause = due - time.perf_counter()
                if pause > 0 and self.stop.wait(pause):
                    break
                request = self.request(k)
                sent = time.perf_counter()
                self.conn.send(request)
                self.records.append({"k": k, "due": due, "sent": sent,
                                     "request": request})
                k += 1
        except BaseException as exc:  # reported by run(), never lost
            self.error = exc

    def recv_loop(self, sender: threading.Thread) -> None:
        got = 0
        try:
            while sender.is_alive() or got < len(self.records):
                if got >= len(self.records):
                    time.sleep(0.001)
                    continue
                line = self.conn.recv_line()
                record = self.records[got]
                record["recv"] = time.perf_counter()
                record["line"] = line
                got += 1
        except BaseException as exc:
            self.error = exc


def _drive(session: Session, job: dict, seconds: float | None,
           max_requests: int | None = None) -> dict:
    """Run both loops; the light loop lasts as long as the heavy one."""
    start = time.perf_counter()
    light = _LightLoop(session.light, job)
    sender = threading.Thread(target=light.send_loop, args=(start,))
    receiver = threading.Thread(target=light.recv_loop, args=(sender,))
    sender.start()
    receiver.start()
    calibration: list[float] = []
    try:
        deadline = None if seconds is None else start + seconds
        heavy = _heavy_loop(session.heavy, job, deadline, max_requests,
                            calibration)
    finally:
        light.stop.set()
        sender.join(timeout=180)
        receiver.join(timeout=180)
    wall = time.perf_counter() - start
    if light.error is not None:
        raise RuntimeError(f"light loop failed: {light.error!r}")
    if receiver.is_alive():
        raise RuntimeError("light responses did not arrive")
    return {"heavy": heavy, "light": light.records, "wall": wall,
            "calibration_ms": calibration}


# -- checking ----------------------------------------------------------------


class _OneShot:
    """Memoized, timed one-shot answers: the byte-identity reference."""

    def __init__(self) -> None:
        from repro.serve.ops import run_op

        self.run_op = run_op
        self.answers: dict = {}
        #: Latency on the reference CPU, ms.
        self.latency: dict = {}

    def get(self, op: str, source: str, label: str):
        key = (op, source, label)
        if key not in self.answers:
            t0 = time.perf_counter()
            try:
                answer = checks.canonical(self.run_op(op, source, label=label))
            except Exception as exc:
                answer = exc
            elapsed = time.perf_counter() - t0
            self.latency[key] = on_reference(elapsed, calibration_ms())
            self.answers[key] = answer
        return self.answers[key]


def _result_text(response: dict) -> str | None:
    if not response.get("ok"):
        return None
    return checks.canonical(response["result"])


def _verify(job: dict, run: dict, oneshot: _OneShot) -> tuple[int, list]:
    problems = []
    programs = job["programs"]
    for record in run["heavy"]:
        response = record["response"]
        if not response.get("ok"):
            problems.append(f"heavy {record['id']}: {response.get('error')}")
            continue
        source = programs[record["program"]]["source"]
        if record["kind"] == "source":
            want = oneshot.get(record["op"], source,
                               f"p{record['program']}.dfg")
            if _result_text(response) != want:
                problems.append(
                    f"{record['op']} of program {record['program']} differs "
                    "from the one-shot answer"
                )
        elif record["kind"] == "query":
            reason = checks.check_edit_query(
                source, [tuple(r) for r in record["rewrites"]],
                response["result"]["facts"],
            )
            if reason:
                problems.append(reason)
    for record in run["light"]:
        response = json.loads(record["line"])
        request = record["request"]
        if not response.get("ok"):
            problems.append(f"light {request['id']}: {response.get('error')}")
        elif request["op"] == "ping":
            if response["result"].get("pong") is not True:
                problems.append("ping without pong")
        elif _result_text(response) != oneshot.get(
            "analyze", request["source"], request["file"]
        ):
            problems.append("light analyze differs from the one-shot answer")
    return len(problems), problems


# -- metrics -----------------------------------------------------------------


def _end_to_end(job, run, setup_s, oneshot, rss_kib, failed, attempted):
    """End-to-end metrics, times on the reference CPU (``stats``).  The
    heavy loop times the calibration loop after each answer: a heavy
    request is scaled by the sample that follows it, a light one by the
    last sample before its answer arrived.  One-shot references are
    scaled as they are timed (``_OneShot``).

    ``serve_rps`` is the heavy connection's closed-loop throughput:
    answered requests per second of heavy latency, so neither the think
    pause nor the calibration loop counts.  The light connection is left
    out: it completes its fixed offered rate whatever the CPU, so scaling
    its count would only report the calibration (``light_slo_frac``
    shows when it falls behind)."""
    heavy = run["heavy"]
    calibration = run["calibration_ms"]
    for r, cal in zip(heavy, calibration):
        r["ms"] = on_reference(r["t1"] - r["t0"], cal)
    answered = [r["t1"] for r in heavy]
    light_ms = [
        on_reference(r["recv"] - r["due"], calibration[
            max(bisect.bisect_right(answered, r["recv"]) - 1, 0)
        ])
        for r in run["light"]
    ]
    source_ops = [r for r in heavy if r["kind"] == "source"]
    heavy_ms = [r["ms"] for r in source_ops]
    light_ok = [
        ms for ms, r in zip(light_ms, run["light"])
        if json.loads(r["line"]).get("ok")
    ]
    lines = [job["programs"][r["program"]]["lines"] for r in source_ops]
    busy = sum(heavy_ms) / 1e3
    # One fit point per (op, target size): median lines against median
    # latency of the cold misses of that size.  Lint misses span too
    # narrow a size range (30-65 lines) for a slope.
    sizes: dict = {}
    for r in source_ops:
        if not r["revisit"] and r["op"] != "lint":
            program = job["programs"][r["program"]]
            sizes.setdefault((r["op"], program["target"]), []).append(
                (program["lines"], r["ms"])
            )
    misses = [
        (op, median(l for l, _ in pts), median(t for _, t in pts))
        for (op, _target), pts in sorted(sizes.items())
    ]
    oneshot_ms = list(oneshot.latency.values())
    return metrics.end_to_end(
        setup_s=setup_s,
        oneshot_p50_ms=percentile(oneshot_ms, 50),
        oneshot_p90_ms=percentile(oneshot_ms, 90),
        lines_per_s=sum(lines) / busy,
        scaling_exponent=scaling_exponent(misses),
        light_p50_ms=percentile(light_ms, 50),
        light_p99_ms=percentile(light_ms, 99),
        light_slo_frac=sum(
            1 for ms in light_ok if ms <= metrics.LIGHT_SLO_MS
        ) / len(light_ms),
        heavy_p50_ms=percentile(heavy_ms, 50),
        heavy_p90_ms=percentile(heavy_ms, 90),
        serve_rps=1e3 * sum(1 for r in heavy if r["response"].get("ok"))
        / sum(r["ms"] for r in heavy),
        ok_frac=1.0 - failed / attempted,
        peak_rss_mb=rss_kib / 1024.0,
    )


def _layer_metrics(run, traced, stats, trace_doc, lag_ms) -> dict:
    per = len(traced["heavy"]) / len(CYCLE)
    base = sum(r["t1"] - r["t0"] for r in run["heavy"][:len(traced["heavy"])])
    over = sum(r["t1"] - r["t0"] for r in traced["heavy"])
    handle = trace_doc["handle_ms_by_request"]
    wire = sum(
        (r["t1"] - r["t0"]) * 1e3 - handle.get(str(r["id"]), 0.0)
        for r in traced["heavy"]
    ) + sum(
        (r["recv"] - r["sent"]) * 1e3
        - handle.get(str(r["request"]["id"]), 0.0)
        for r in traced["light"]
    )
    work = sum(
        sum(r["response"]["result"].get("work", {}).values())
        for r in traced["heavy"]
        if r["kind"] in ("edit", "query") and r["response"].get("ok")
    )
    lookups = stats["warm_hits"] + stats["disk_hits"] + stats["misses"]
    return metrics.per_layer(
        trace_doc["layer_ms"], trace_doc["counts"], per,
        totals={
            "lint.verify_total_ms": trace_doc["verify_total_ms"],
            "trace.request_ms": trace_doc["request_ms"],
            "serve.wire_ms": wire,
            "regions.work_ticks": work,
            "serve.warm_hits": stats["warm_hits"],
            "serve.disk_hits": stats["disk_hits"],
            "serve.misses": stats["misses"],
            "serve.parses": stats["parses"],
        },
        values={
            "serve.hit_rate": (
                (stats["warm_hits"] + stats["disk_hits"]) / lookups
                if lookups else 0.0
            ),
            "trace.overhead_frac": over / base - 1.0,
            "loadgen.lag_p99_ms": lag_ms,
            "calibration.loop_ms": median(run["calibration_ms"]),
        },
    )


# -- the run -----------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, root: str,
        tiny: bool = False) -> dict:
    out_dir = os.path.join(root, metrics.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    caches = []

    def fresh_cache() -> str:
        path = os.path.join(out_dir, f"cache-{os.getpid()}-{len(caches)}")
        shutil.rmtree(path, ignore_errors=True)
        caches.append(path)
        return path

    sessions: list[Session] = []
    try:
        setups, session = [], None
        for _ in range(metrics.SETUP_REPEATS):
            if session is not None:
                session.stop()
            t0 = time.perf_counter()
            job = generate(seed, tiny=tiny)
            session = Session(root, job, fresh_cache())
            sessions.append(session)
            setups.append(time.perf_counter() - t0)
        gc.collect()
        gc.freeze()  # the generated pool lives all run: never rescan it
        first = _drive(session, job, seconds / 2 if trace else seconds)
        stats = session.stop()
        rss_kib = session.daemon.rusage.ru_maxrss
        traced = trace_doc = None
        if trace:
            trace_path = os.path.join(out_dir, f"trace-serve-mixed-{seed}.json")
            session = Session(root, job, fresh_cache(), trace_path)
            sessions.append(session)
            traced = _drive(session, job, None, len(first["heavy"]))
            stats = session.stop()
            with open(trace_path, encoding="utf-8") as fh:
                trace_doc = json.load(fh)
    finally:
        gc.unfreeze()
        for s in sessions:
            s.daemon.kill()
        for path in caches:
            shutil.rmtree(path, ignore_errors=True)

    # Keep the collector off the recorded answers while one-shot
    # references are timed.
    gc.collect()
    gc.freeze()
    oneshot = _OneShot()
    runs = [first] + ([traced] if traced else [])
    failed, problems = 0, []
    attempted = 0
    try:
        for r in runs:
            n, p = _verify(job, r, oneshot)
            failed += n
            problems += p
            attempted += len(r["heavy"]) + len(r["light"])
    finally:
        gc.unfreeze()
    out = {"attempted": attempted, "failed": failed, "problems": problems[:5]}
    if trace:
        lag = percentile(
            [(r["sent"] - r["due"]) * 1e3 for r in first["light"]], 99
        )
        out["metrics"] = _layer_metrics(first, traced, stats, trace_doc, lag)
        return out
    out["metrics"] = _end_to_end(job, first, median(setups), oneshot,
                                 rss_kib, failed, attempted)
    return out
