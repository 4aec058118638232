"""The ``repro serve`` daemon: a line-delimited JSON request broker.

Protocol (schema ``repro.serve/1``): one JSON object per line, over a
Unix-domain socket or localhost TCP.  Requests carry ``{"id", "op",
...params}``; every response echoes the id::

    {"schema": "repro.serve/1", "id": 1, "op": "analyze", "ok": true,
     "cache": "warm", "result": {...}}
    {"schema": "repro.serve/1", "id": 2, "op": "analyze", "ok": false,
     "error": {"kind": "language", "message": "..."}}

A malformed line -- unparsable JSON, a non-object, an unknown op,
missing or mistyped params -- never kills the connection: it produces a
structured ``ok: false`` response whose ``error.kind`` maps onto the
one-shot CLI's exit-2 taxonomy (``input`` / ``language`` / ``analysis``
/ ``internal``).

Request handling is layered for reuse:

* the **warm tier** is an LRU of :class:`~repro.pipeline.manager.
  AnalysisManager` instances keyed by source SHA-256, each memoizing
  the op-level answers it has already served;
* the **disk tier** is the cross-run :class:`~repro.serve.cache.
  ResultCache`: a cold manager imports exported pass blobs instead of
  recomputing, and publishes whatever it had to compute;
* CPU-heavy ``batch-sarif`` misses fan out across a
  :class:`~repro.robust.pool.SupervisedPool` (per-doc timeout,
  crash isolation, quarantine) when the daemon is started with pool
  workers; the pool's clock/sleep are injectable so tests drive
  timeouts with a :class:`~repro.robust.watchdog.FakeClock`.

``edit`` requests thread :class:`~repro.regions.edits.EditSession`:
repeated edits to the same named document hit the dirty-spine
incremental path -- the daemon parses the document exactly once at
``open``.  **Aliasing discipline:** a session always parses its *own*
graph rather than borrowing the warm LRU's; sharing would let session
edits mutate a graph whose analysis results are still being served for
the original content hash (the regression tests in
``tests/test_serve_protocol.py`` pin this).

Shutdown is graceful: the ``shutdown`` response is flushed first, the
listener stops accepting, and every in-flight request completes before
the serve loop returns (handler threads are joined, draining).
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from typing import Callable

from repro.cfg.builder import build_cfg
from repro.lang.errors import LangError
from repro.lang.parser import parse_expr, parse_program
from repro.pipeline.manager import AnalysisManager
from repro.robust.errors import (
    AnalysisError,
    InputError,
    ReproError,
    error_record,
)
from repro.robust.incidents import IncidentLog
from repro.serve.cache import ResultCache, source_sha
from repro.serve.ops import (
    LINT_BLOB,
    OP_PASSES,
    OPS,
    SARIF_BLOB,
    analyze_payload,
    constprop_payload,
    lint_document,
)
from repro.util.counters import WorkCounter
from repro.util.metrics import Metrics

SERVE_SCHEMA = "repro.serve/1"

#: Handler read-poll interval: how quickly an idle connection notices a
#: pending shutdown.
_POLL_S = 0.2

#: Guard against a runaway client: one request line tops out at 32 MiB.
MAX_LINE_BYTES = 32 * 1024 * 1024


def canonical_json(payload: object) -> bytes:
    """The canonical wire form: sorted keys, no whitespace, UTF-8."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _require(obj: dict, field: str, kind: type, what: str = "request"):
    value = obj.get(field)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(
            f"{what} needs {field!r} of type {kind.__name__}",
            phase="serve-request",
        )
    return value


class _WarmEntry:
    """One warm document: its graph, manager and memoized op answers."""

    __slots__ = ("source", "graph", "manager", "ops")

    def __init__(self, source: str, graph, manager: AnalysisManager) -> None:
        self.source = source
        self.graph = graph
        self.manager = manager
        #: op name -> label-free answer payload
        self.ops: dict[str, dict] = {}


class RequestBroker:
    """Protocol-level request handling, independent of any socket.

    ``handle_line`` is the full request->response function; the socket
    layer only frames lines and moves bytes.  Tests exercise the broker
    both directly and end-to-end over real sockets.
    """

    def __init__(
        self,
        cache: ResultCache,
        warm: int = 32,
        pool_workers: int = 0,
        pool_timeout_s: float | None = 30.0,
        pool_retries: int = 1,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        debug_ops: bool = False,
    ) -> None:
        self.cache = cache
        self.incidents: IncidentLog = cache.incidents
        self.warm = max(1, warm)
        self.pool_workers = pool_workers
        self.pool_timeout_s = pool_timeout_s
        self.pool_retries = pool_retries
        self.debug_ops = debug_ops
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._managers: OrderedDict[str, _WarmEntry] = OrderedDict()
        self._sessions: dict[str, dict] = {}
        self.stopping = False
        self.stats = {
            "requests": 0,
            "errors": 0,
            "parses": 0,
            "warm_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "sessions_opened": 0,
            "pool_dispatches": 0,
        }
        self._by_op: dict[str, int] = {}

    # -- the protocol surface ------------------------------------------------

    def handle_line(self, line: bytes) -> dict:
        """One request line -> one response object (never raises)."""
        request_id = None
        op = None
        try:
            try:
                obj = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InputError(
                    f"unparsable request line: {exc}", phase="serve-request"
                ) from None
            if not isinstance(obj, dict):
                raise InputError(
                    "request must be a JSON object", phase="serve-request"
                )
            request_id = obj.get("id")
            op = obj.get("op")
            with self._lock:
                self.stats["requests"] += 1
                if isinstance(op, str):
                    self._by_op[op] = self._by_op.get(op, 0) + 1
                result, cache_state = self._dispatch(op, obj)
            response = {
                "schema": SERVE_SCHEMA,
                "id": request_id,
                "op": op,
                "ok": True,
                "result": result,
            }
            if cache_state is not None:
                response["cache"] = cache_state
            return response
        except ReproError as exc:
            return self._error(request_id, op, exc.kind, str(exc))
        except LangError as exc:
            return self._error(request_id, op, "language", str(exc))
        except Exception as exc:  # the daemon must outlive any request
            return self._error(
                request_id, op, "internal",
                f"{type(exc).__name__}: {exc}",
            )

    def _error(self, request_id, op, kind: str, message: str) -> dict:
        self.stats["errors"] += 1
        return {
            "schema": SERVE_SCHEMA,
            "id": request_id,
            "op": op,
            "ok": False,
            "error": {"kind": kind, "message": message},
        }

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, op, obj: dict) -> tuple[dict, str | None]:
        if op == "ping":
            return {
                "pong": True,
                "protocol": SERVE_SCHEMA,
                "engine_version": self.cache.version,
            }, None
        if op == "stats":
            return self._stats_payload(), None
        if op == "shutdown":
            self.stopping = True
            return {"stopping": True}, None
        if op in ("analyze", "constprop", "lint"):
            return self._source_op(op, obj)
        if op == "batch-sarif":
            return self._batch_sarif(obj), None
        if op == "edit":
            return self._edit(obj), None
        if op == "debug-sleep" and self.debug_ops:
            time.sleep(float(obj.get("ms", 0)) / 1000.0)
            return {"slept_ms": obj.get("ms", 0)}, None
        known = ", ".join(OPS)
        raise InputError(
            f"unknown op {op!r}; available: {known}", phase="serve-request"
        )

    def _stats_payload(self) -> dict:
        return {
            **{key: self.stats[key] for key in sorted(self.stats)},
            "by_op": dict(sorted(self._by_op.items())),
            "cache": self.cache.as_dict(),
            "warm": {
                "size": len(self._managers),
                "capacity": self.warm,
            },
            "sessions_open": len(self._sessions),
            "incidents": len(self.incidents),
        }

    # -- warm tier -----------------------------------------------------------

    def _entry_for(self, source: str, sha: str) -> tuple[_WarmEntry, bool]:
        """The warm entry for ``sha``, creating (and LRU-evicting) as
        needed; returns ``(entry, created)``."""
        entry = self._managers.get(sha)
        if entry is not None:
            self._managers.move_to_end(sha)
            return entry, False
        self.stats["parses"] += 1
        graph = build_cfg(parse_program(source))
        manager = AnalysisManager(graph, metrics=Metrics())
        entry = _WarmEntry(source, graph, manager)
        self._managers[sha] = entry
        while len(self._managers) > self.warm:
            self._managers.popitem(last=False)
        return entry, True

    def _source_op(self, op: str, obj: dict) -> tuple[dict, str]:
        source = _require(obj, "source", str, f"op {op!r}")
        label = obj.get("file", "")
        if not isinstance(label, str):
            raise InputError(
                f"op {op!r} 'file' must be a string", phase="serve-request"
            )
        sha = source_sha(source)
        entry, _created = self._entry_for(source, sha)
        if op in entry.ops:
            state = "warm"
            document = entry.ops[op]
        elif op == "lint":
            document, state = self._lint_answer(entry, sha)
        else:
            document, state = self._pass_answer(op, entry, sha)
        self.stats[
            {"warm": "warm_hits", "disk": "disk_hits", "miss": "misses"}[state]
        ] += 1
        if op == "lint":
            return dict(document, file=label), state
        return document, state

    def _lint_answer(self, entry: _WarmEntry, sha: str) -> tuple[dict, str]:
        blob = self.cache.load(sha, LINT_BLOB)
        if blob is not None:
            document = json.loads(blob.decode("utf-8"))
            state = "disk"
        else:
            document, failures = lint_document(entry.graph)
            if failures:
                # Do not cache or memoize: the zero-false-positive
                # guarantee was not measured, which is the one-shot
                # CLI's exit-2 condition.
                raise AnalysisError(
                    f"{failures} lint oracle check(s) raised",
                    phase="lint-verify",
                )
            self.cache.store(sha, LINT_BLOB, canonical_json(document))
            state = "miss"
        entry.ops["lint"] = document
        return document, state

    def _pass_answer(
        self, op: str, entry: _WarmEntry, sha: str
    ) -> tuple[dict, str]:
        """Resolve ``op``'s pass set through the disk cache, then build
        the answer from the (now warm) manager."""
        manager = entry.manager
        loaded = computed = 0
        for name in OP_PASSES[op]:
            if manager.cached(name):
                continue
            blob = self.cache.load(sha, name)
            if blob is not None:
                manager.import_result(name, blob)
                loaded += 1
            else:
                manager.get(name)
                self.cache.store(sha, name, manager.export_result(name))
                computed += 1
        if op == "analyze":
            document = analyze_payload(entry.graph, manager)
        else:
            document = constprop_payload(entry.graph, manager)
        entry.ops[op] = document
        state = "miss" if computed else ("disk" if loaded else "warm")
        return document, state

    # -- batch-sarif ---------------------------------------------------------

    def _doc_sha(self, label: str, source: str) -> str:
        """SARIF bakes the label into every location, so the op-blob key
        covers label and source together."""
        return source_sha(f"{label}\x00{source}")

    def _batch_sarif(self, obj: dict) -> dict:
        docs = _require(obj, "docs", list, "op 'batch-sarif'")
        answers: dict[int, dict] = {}
        specs: list[dict] = []
        spec_index: list[int] = []
        for i, doc in enumerate(docs):
            if not isinstance(doc, dict) or not isinstance(
                doc.get("label"), str
            ):
                raise InputError(
                    "batch-sarif docs need a string 'label' plus 'source' "
                    "or 'family'+'args'",
                    phase="serve-request",
                )
            label = doc["label"]
            if isinstance(doc.get("source"), str):
                sha = self._doc_sha(label, doc["source"])
                blob = self.cache.load(sha, SARIF_BLOB)
                if blob is not None:
                    answers[i] = {
                        "label": label,
                        "cache": "disk",
                        "sarif": json.loads(blob.decode("utf-8")),
                    }
                    continue
                spec = {
                    "label": label, "source": doc["source"],
                    "lint": True, "sarif": True,
                }
            elif isinstance(doc.get("family"), str):
                spec = {
                    "label": label, "family": doc["family"],
                    "args": list(doc.get("args", ())),
                    "lint": True, "sarif": True,
                }
            else:
                raise InputError(
                    f"batch-sarif doc {label!r} needs 'source' or "
                    f"'family'+'args'",
                    phase="serve-request",
                )
            if "timeout_s" in doc:
                spec["timeout_s"] = doc["timeout_s"]
            specs.append(spec)
            spec_index.append(i)
        rows = self._run_specs(specs)
        for i, spec, row in zip(spec_index, specs, rows):
            label = spec["label"]
            if "error" in row:
                answers[i] = {
                    "label": label,
                    "error": row["error"],
                    "quarantined": bool(row.get("quarantined")),
                }
                continue
            failures = row["lint"]["oracle_failures"]
            if failures:
                # The one-shot ``repro lint`` exits 2 here: the findings'
                # zero-false-positive guarantee was not measured, so the
                # document is neither served as ok nor cached.
                answers[i] = {
                    "label": label,
                    "error": error_record(AnalysisError(
                        f"{failures} lint oracle check(s) raised",
                        phase="lint-verify",
                    )),
                    "quarantined": False,
                }
                continue
            sarif = row["sarif"]
            if "source" in spec:
                self.cache.store(
                    self._doc_sha(label, spec["source"]),
                    SARIF_BLOB,
                    canonical_json(sarif),
                )
            answers[i] = {"label": label, "cache": "miss", "sarif": sarif}
        return {"documents": [answers[i] for i in range(len(docs))]}

    def _run_specs(self, specs: list[dict]) -> list[dict]:
        """Cold batch docs: supervised pool when configured, else inline."""
        if not specs:
            return []
        from repro.perf.batch import _analyze_one

        if self.pool_workers > 0:
            from repro.robust.pool import SupervisedPool

            self.stats["pool_dispatches"] += len(specs)
            pool = SupervisedPool(
                self.pool_workers,
                timeout_s=self.pool_timeout_s,
                retries=self.pool_retries,
                incidents=self.incidents,
                clock=self._clock,
                sleep=self._sleep,
            )
            return pool.run(specs)
        return [_analyze_one(spec) for spec in specs]

    # -- edit sessions -------------------------------------------------------

    def _edit(self, obj: dict) -> dict:
        action = _require(obj, "action", str, "op 'edit'")
        name = _require(obj, "session", str, "op 'edit'")
        if action == "open":
            return self._edit_open(name, obj)
        state = self._sessions.get(name)
        if state is None:
            raise InputError(
                f"no open edit session {name!r}", phase="serve-edit"
            )
        session = state["session"]
        before = session.counter.snapshot()
        if action == "rewrite":
            node = _require(obj, "node", int, "edit rewrite")
            expr = parse_expr(_require(obj, "expr", str, "edit rewrite"))
            session.rewrite_rhs(node, expr)
            result: dict = {"edits": session.edits}
        elif action == "splice":
            edge = _require(obj, "edge", int, "edit splice")
            target = _require(obj, "target", str, "edit splice")
            expr = parse_expr(_require(obj, "expr", str, "edit splice"))
            nid, e1, e2 = session.splice_assign(edge, target, expr)
            result = {
                "edits": session.edits,
                "node": nid, "entry_edge": e1, "exit_edge": e2,
            }
        elif action == "unsplice":
            node = _require(obj, "node", int, "edit unsplice")
            merged = session.unsplice(node)
            result = {"edits": session.edits, "merged_edge": merged}
        elif action == "query":
            facts = session.solve_all()
            result = {
                "edits": session.edits,
                "facts": {
                    analysis: {
                        str(eid): sorted(str(v) for v in values)
                        for eid, values in sorted(decoded.items())
                    }
                    for analysis, decoded in sorted(facts.items())
                },
            }
        elif action == "close":
            del self._sessions[name]
            return {"closed": True, "edits": session.edits}
        else:
            raise InputError(
                f"unknown edit action {action!r}; available: open, "
                f"rewrite, splice, unsplice, query, close",
                phase="serve-edit",
            )
        result["session"] = name
        result["work"] = dict(sorted(session.counter.diff(before).items()))
        return result

    def _edit_open(self, name: str, obj: dict) -> dict:
        source = _require(obj, "source", str, "edit open")
        if name in self._sessions:
            raise InputError(
                f"edit session {name!r} is already open", phase="serve-edit"
            )
        # The one parse of this document's lifetime.  Deliberately a
        # fresh graph -- never the warm LRU's: session edits mutate the
        # graph in place, and the LRU's results must stay valid for the
        # original content hash (see module docstring).
        self.stats["parses"] += 1
        from repro.regions.edits import EditSession

        graph = build_cfg(parse_program(source))
        manager = AnalysisManager(graph, metrics=Metrics())
        session = EditSession(graph, manager=manager)
        self._sessions[name] = {"session": session, "sha": source_sha(source)}
        self.stats["sessions_opened"] += 1
        return {
            "session": name,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "statements": session.statement_rows(),
            "edge_ids": sorted(graph.edges),
        }


# -- the socket layer --------------------------------------------------------


class _Handler(socketserver.BaseRequestHandler):
    """Frame request lines; all semantics live in the broker."""

    def handle(self) -> None:  # pragma: no cover - exercised over sockets
        broker: RequestBroker = self.server.broker  # type: ignore[attr-defined]
        sock = self.request
        sock.settimeout(_POLL_S)
        buffer = b""
        while not broker.stopping:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk
            if len(buffer) > MAX_LINE_BYTES:
                response = broker._error(
                    None, None, "input",
                    f"request line exceeds {MAX_LINE_BYTES} bytes",
                )
                self._send(sock, response)
                return
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if not line.strip():
                    continue
                response = broker.handle_line(line)
                if not self._send(sock, response):
                    return
                if (
                    response.get("ok")
                    and response.get("op") == "shutdown"
                ):
                    # Response is on the wire; now stop the accept loop.
                    # serve_forever runs in a different thread, so this
                    # cannot deadlock.
                    self.server.shutdown()
                    return

    @staticmethod
    def _send(sock, response: dict) -> bool:
        try:
            sock.sendall(canonical_json(response) + b"\n")
            return True
        except OSError:
            return False


class _TCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = False  # server_close joins handlers: shutdown drains
    block_on_close = True
    allow_reuse_address = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _UnixServer(
        socketserver.ThreadingMixIn, socketserver.UnixStreamServer
    ):
        daemon_threads = False
        block_on_close = True
else:  # pragma: no cover - non-POSIX fallback
    _UnixServer = None  # type: ignore[assignment]


class ReproServer:
    """The daemon: a broker bound to a Unix or localhost TCP socket.

    ``serve_forever`` blocks until a ``shutdown`` request (or
    :meth:`shutdown` from another thread), then drains in-flight
    handlers and cleans up the socket.  Tests run it on a background
    thread via :meth:`start_background`.
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: ResultCache | None = None,
        cache_dir: str | None = None,
        warm: int = 32,
        pool_workers: int = 0,
        pool_timeout_s: float | None = 30.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        debug_ops: bool = False,
    ) -> None:
        if cache is None:
            cache = ResultCache(cache_dir)
        self.broker = RequestBroker(
            cache,
            warm=warm,
            pool_workers=pool_workers,
            pool_timeout_s=pool_timeout_s,
            clock=clock,
            sleep=sleep,
            debug_ops=debug_ops,
        )
        self.socket_path = socket_path
        if socket_path is not None:
            if _UnixServer is None:  # pragma: no cover
                raise InputError(
                    "unix sockets are unavailable on this platform; "
                    "use --tcp",
                    phase="serve-socket",
                )
            if os.path.exists(socket_path):
                os.unlink(socket_path)
            self._server = _UnixServer(socket_path, _Handler)
        else:
            self._server = _TCPServer((host, port), _Handler)
        self._server.broker = self.broker  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        """``("unix", path)`` or ``("tcp", host, port)``."""
        if self.socket_path is not None:
            return ("unix", self.socket_path)
        host, port = self._server.server_address[:2]
        return ("tcp", host, port)

    def serve_forever(self) -> None:
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self.broker.stopping = True
            self._server.server_close()  # joins handler threads: drain
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        self._thread = thread
        return thread

    def shutdown(self) -> None:
        """Stop from outside a request (SIGINT path); drains like a
        ``shutdown`` request."""
        self.broker.stopping = True
        self._server.shutdown()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
