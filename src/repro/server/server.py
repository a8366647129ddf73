"""The asyncio query server: NDJSON over TCP plus a thin HTTP/1.1 endpoint.

One listener serves both protocols — the first line of a connection is
sniffed: an HTTP request line (``POST /query HTTP/1.1``) routes to the
thin HTTP handler (one request, JSON body in, JSON body out, connection
closed); anything else is treated as the first line of an NDJSON protocol
stream (:mod:`repro.server.protocol`).

Concurrency model
-----------------

* The **event loop** owns all connection I/O, admission control, and
  tenant accounting.  It never executes a query.
* Queries run in a **worker thread pool** via ``run_in_executor`` — the
  engine is thread-safe by construction (locked plan cache, reentrant
  compiled plans, per-execution governors), which this server is the
  first component to drive with genuinely concurrent clients.
* Each request on a connection is dispatched as its **own task**, so a
  ``cancel`` op (or ``stats``) is processed while earlier queries are
  still executing.  Responses may therefore arrive out of request order;
  clients match on ``id``.
* **Cancellation is cooperative and strictly per-query**: every
  execution gets a fresh :class:`~repro.engine.governor.CancelToken`,
  registered in the session's in-flight table.  A ``cancel`` op or a
  client disconnect trips the token; the worker thread observes it at
  the next governor checkpoint and unwinds with ``QUERY_CANCELLED``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro import __version__
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import PlanCache
from repro.data.database import Database
from repro.data.values import CollectionValue
from repro.engine.governor import CancelToken
from repro.errors import QueryError
from repro.server.admission import (
    AdmissionController,
    ServerError,
    TenantAccount,
    TenantBudget,
)
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    decode_result,
    encode_message,
    encode_reply,
    encode_result,
    error_payload,
    http_status_for,
)
from repro.server.session import Session

__all__ = ["ReproServer", "ServerConfig", "ServerThread"]

_http_request_ids = itertools.count(1)

#: Bounds on the HTTP header section — without them a client could
#: stream header lines indefinitely and pin event-loop work.
_MAX_HEADER_LINES = 100
_MAX_HEADER_BYTES = 64 * 1024


@dataclass
class ServerConfig:
    """Everything a :class:`ReproServer` needs to run.

    ``options`` is the server-wide default option set; sessions may adjust
    the serving-relevant subset with the ``set`` op.  ``workers`` sizes
    the executor pool; ``max_inflight``/``queue_depth`` shape admission
    control (defaults: as many in flight as workers, twice that queued);
    ``tenant_budget`` is the serving budget applied to every tenant.
    """

    database: Database
    options: OptimizerOptions = field(default_factory=OptimizerOptions)
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 8
    max_inflight: int | None = None
    queue_depth: int | None = None
    cache_size: int = 256
    tenant_budget: TenantBudget = field(default_factory=TenantBudget)
    #: Seconds a graceful close waits for in-flight queries to observe
    #: their cancelled tokens before giving up on them.
    drain_timeout: float = 5.0


class ReproServer:
    """The serving front-end (see the module docstring).

    Typical embedded use (tests, benchmarks)::

        server = ReproServer(ServerConfig(database=db, port=0))
        host, port = await server.start()
        ...
        await server.close()
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        # Derive the effective admission limits into instance attributes —
        # writing them back into ``config`` would make a ServerConfig
        # reused for a second server keep the first server's numbers.
        self.max_inflight = (
            config.max_inflight
            if config.max_inflight is not None
            else max(1, config.workers)
        )
        self.queue_depth = (
            config.queue_depth
            if config.queue_depth is not None
            else 2 * self.max_inflight
        )
        self.plan_cache = PlanCache(config.cache_size)
        self.admission = AdmissionController(
            self.max_inflight, self.queue_depth
        )
        self.metrics = ServerMetrics()
        self.accounts: dict[str, TenantAccount] = {}
        self.sessions: set[Session] = set()
        self.connections_total = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, config.workers),
            thread_name_prefix="repro-serve",
        )
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._closing = False
        # The shared session behind the thin HTTP endpoint: HTTP requests
        # are stateless, so they all compile through one session (and thus
        # the shared plan cache); per-request state (tokens) is keyed by a
        # server-assigned id.
        self._http_session = self._new_session()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, cancel in-flight queries,
        drain the worker pool."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self.sessions):
            session.cancel_all()
        self._http_session.cancel_all()
        if self._conn_tasks:
            _, pending = await asyncio.wait(
                self._conn_tasks, timeout=self.config.drain_timeout
            )
            # A client that never sends FIN would otherwise leave its
            # reader task to be torn down (noisily) with the loop.
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self._pool.shutdown(wait=True)
        )

    # -- shared state --------------------------------------------------------

    def _new_session(self, tenant: str = "default") -> Session:
        session = Session(
            self.config.database,
            self.config.options,
            self.plan_cache,
            tenant=tenant,
        )
        session.account = self._account(tenant)
        return session

    def _account(self, tenant: str) -> TenantAccount:
        account = self.accounts.get(tenant)
        if account is None:
            account = TenantAccount(tenant, self.config.tenant_budget)
            self.accounts[tenant] = account
        return account

    def stats_snapshot(self) -> dict[str, Any]:
        """The ``stats`` payload: metrics, admission, cache, tenants."""
        cache_hits, cache_misses, cache_len = self.plan_cache.stats()
        return {
            "server": {
                "version": __version__,
                "sessions": len(self.sessions),
                "connections_total": self.connections_total,
                "workers": self.config.workers,
            },
            "metrics": self.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "plan_cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "entries": cache_len,
                "maxsize": self.plan_cache.maxsize,
            },
            "tenants": {
                tenant: account.snapshot()
                for tenant, account in sorted(self.accounts.items())
            },
        }

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.connections_total += 1
        try:
            try:
                first = await reader.readline()
            except (ValueError, ConnectionError):
                return
            if not first:
                return
            if _looks_like_http(first):
                await self._handle_http(first, reader, writer)
            else:
                await self._handle_ndjson(first, reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancelled us mid-read; finish cleanly so the
            # streams machinery doesn't log the cancellation.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # -- the NDJSON protocol -------------------------------------------------

    async def _handle_ndjson(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        session = self._new_session()
        self.sessions.add(session)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(reply: dict[str, Any] | bytes) -> None:
            line = reply if isinstance(reply, bytes) else encode_message(reply)
            async with write_lock:
                if writer.is_closing():
                    return
                try:
                    writer.write(line)
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass

        def dispatch(line: bytes) -> None:
            task = asyncio.ensure_future(
                self._dispatch(session, line, respond, writer)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        try:
            dispatch(first_line)
            while not session.closed and not self._closing:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line over the buffer limit: reject and drop the
                    # connection (recovery would need resynchronization).
                    await respond(
                        {
                            "id": None,
                            "ok": False,
                            "error": {
                                "code": "PROTOCOL_ERROR",
                                "message": "request line too long",
                            },
                        }
                    )
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                if line.strip():
                    dispatch(line)
        finally:
            # Disconnect cleanup: trip every in-flight token, then wait
            # for the dispatch tasks to settle (workers observe the
            # cancelled tokens at their next governor checkpoint).
            cancelled = session.cancel_all()
            if cancelled:
                self.metrics.record(
                    "disconnect_cancel", 0.0, ok=True, rows=0
                )
            if tasks:
                await asyncio.wait(
                    tasks, timeout=self.config.drain_timeout
                )
            self.sessions.discard(session)

    async def _dispatch(
        self,
        session: Session,
        line: bytes,
        respond: Any,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Parse and execute one request, always answering exactly once."""
        start = time.perf_counter()
        request_id: Any = None
        op = "?"
        try:
            message = decode_line(line)
            request_id = message.get("id")
            op = message.get("op")
            if not isinstance(op, str):
                raise ProtocolError("request needs a string 'op' field")
            payload = await self._perform(session, op, request_id, message)
        except Exception as exc:  # noqa: BLE001 - every failure becomes typed
            error = error_payload(exc)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.metrics.record(
                op if isinstance(op, str) else "?",
                elapsed_ms,
                ok=False,
                error_code=error["code"],
            )
            await respond({"id": request_id, "ok": False, "error": error})
            return
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.record(
            op,
            elapsed_ms,
            ok=True,
            rows=payload.get("rows", 0),
            nbytes=payload.get("bytes", 0),
            from_cache=payload.pop("_from_cache", None),
        )
        head = {"id": request_id, "ok": True}
        result = payload.pop("result", None)  # JSON text, from a query
        await respond(
            {**head, **payload}
            if result is None
            else encode_reply(head, result, payload) + b"\n"
        )
        if op == "close":
            session.closed = True

    async def _perform(
        self,
        session: Session,
        op: str,
        request_id: Any,
        message: dict[str, Any],
    ) -> dict[str, Any]:
        """Execute one op; returns the success payload (op-specific)."""
        if op == "hello":
            tenant = message.get("tenant", session.tenant)
            if not isinstance(tenant, str) or not tenant:
                raise ProtocolError("'tenant' must be a non-empty string")
            session.tenant = tenant
            session.account = self._account(tenant)
            return {
                "server": "repro",
                "version": __version__,
                "session": session.session_id,
                "tenant": tenant,
                "extents": sorted(self.config.database.extent_names()),
                "options": session.options_snapshot(),
            }
        if op == "query":
            source = message.get("q")
            if not isinstance(source, str):
                raise ProtocolError("'query' needs a string 'q' field")
            return await self._run_governed(
                session,
                request_id,
                lambda token: self._execute_source(
                    session, source, message.get("params"), token
                ),
            )
        if op == "prepare":
            name = message.get("name")
            source = message.get("q")
            if not isinstance(source, str):
                raise ProtocolError("'prepare' needs a string 'q' field")
            if not isinstance(name, str) or not name:
                raise ProtocolError("'prepare' needs a non-empty 'name'")
            loop = asyncio.get_running_loop()
            compiled, from_cache = await loop.run_in_executor(
                self._pool, session.prepare, name, source
            )
            return {
                "name": name,
                "params": sorted(compiled.param_names),
                "_from_cache": from_cache,
            }
        if op == "execute":
            name = message.get("name")
            if not isinstance(name, str) or not name:
                raise ProtocolError("'execute' needs a non-empty 'name'")
            compiled = session.statement(name)  # raises UNKNOWN_STATEMENT
            return await self._run_governed(
                session,
                request_id,
                lambda token: self._execute_prepared(
                    session, compiled, message.get("params"), token
                ),
            )
        if op == "cancel":
            target = message.get("target")
            return {"cancelled": session.cancel(target), "target": target}
        if op == "set":
            applied = session.set_options(message.get("options", {}))
            return {"applied": applied, "options": session.options_snapshot()}
        if op == "stats":
            return {"stats": self.stats_snapshot()}
        if op == "close":
            return {"bye": True}
        exc = ProtocolError(f"unknown operation {op!r}")
        exc.code = "UNKNOWN_OPERATION"
        raise exc

    # -- query execution -----------------------------------------------------

    async def _run_governed(
        self,
        session: Session,
        request_id: Any,
        run: Any,
        account: TenantAccount | None = None,
    ) -> dict[str, Any]:
        """Admission + tenant budget + worker-pool execution of one query."""
        account = account or session.account or self._account(session.tenant)
        account.admit()  # typed TENANT_BUDGET_EXHAUSTED before any work
        # Register before admission: a duplicate id is rejected up front
        # (DUPLICATE_REQUEST_ID), and a query waiting in the admission
        # queue is already cancellable / covered by disconnect cleanup.
        token = session.register(request_id)
        loop = asyncio.get_running_loop()
        try:
            await self.admission.acquire()
            start = time.perf_counter()
            payload: dict[str, Any] | None = None
            try:
                payload = await loop.run_in_executor(self._pool, run, token)
                return payload
            finally:
                self.admission.release()
                wall_ms = (time.perf_counter() - start) * 1000.0
                # Failed queries still spend the wall clock they consumed.
                account.charge(
                    wall_ms,
                    payload.get("rows", 0) if payload else 0,
                    payload.get("bytes", 0) if payload else 0,
                )
        finally:
            session.settle(request_id)

    def _execute_source(
        self,
        session: Session,
        source: str,
        params: Any,
        token: CancelToken,
    ) -> dict[str, Any]:
        """Worker-thread body for the ``query`` op."""
        compiled, from_cache = session.pipeline.compile_oql_cached(source)
        return self._execute_compiled(session, compiled, params, token, from_cache)

    def _execute_prepared(
        self,
        session: Session,
        compiled: Any,
        params: Any,
        token: CancelToken,
    ) -> dict[str, Any]:
        """Worker-thread body for the ``execute`` op (always a cached plan)."""
        return self._execute_compiled(session, compiled, params, token, True)

    def _execute_compiled(
        self,
        session: Session,
        compiled: Any,
        params: Any,
        token: CancelToken,
        from_cache: bool,
    ) -> dict[str, Any]:
        values = _decode_params(params)
        start = time.perf_counter()
        result = compiled.execute(
            self.config.database, values, cancel_token=token
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        # The result's JSON text, made once: ``bytes`` is its length (it is
        # ASCII), and the reply splices it in (``encode_reply``).
        text = json.dumps(encode_result(result), separators=(",", ":"), allow_nan=False)
        # What the tenant is billed and the metrics aggregate: a collection's
        # elements; a record, string or number is one row (not its len()).
        rows = len(result) if isinstance(result, CollectionValue) else 1
        return {
            "result": text,
            "rows": rows,
            "bytes": len(text),
            "elapsed_ms": round(elapsed_ms, 3),
            "_from_cache": from_cache,
        }

    # -- the thin HTTP endpoint ----------------------------------------------

    async def _handle_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One-shot HTTP/1.1: ``POST /query`` and ``GET /stats``."""
        start = time.perf_counter()
        status, payload = await self._http_response(request_line, reader)
        result = payload.pop("result", None)
        body = (
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
            if result is None
            else encode_reply({"ok": payload.pop("ok")}, result, payload)
        )
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 422: "Unprocessable Entity",
                  429: "Too Many Requests", 499: "Client Closed Request",
                  500: "Internal Server Error",
                  504: "Gateway Timeout"}.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        error = payload.get("error") if isinstance(payload, dict) else None
        self.metrics.record(
            "http",
            elapsed_ms,
            ok=error is None,
            error_code=error["code"] if error else None,
            rows=payload.get("rows", 0) if isinstance(payload, dict) else 0,
            nbytes=len(body),
        )
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    async def _http_response(
        self, request_line: bytes, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        try:
            method, path, _ = request_line.decode("ascii").split(None, 2)
        except ValueError:
            return 400, _http_error("PROTOCOL_ERROR", "malformed request line")
        headers: dict[str, str] = {}
        header_bytes = 0
        for _ in range(_MAX_HEADER_LINES):
            try:
                line = await reader.readline()
            except (ValueError, ConnectionError):
                return 400, _http_error("PROTOCOL_ERROR", "bad headers")
            if line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                return 400, _http_error(
                    "PROTOCOL_ERROR", "header section too large"
                )
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            # A client streaming header lines forever must not pin the
            # connection; each line is bounded, so bound the count too.
            return 400, _http_error("PROTOCOL_ERROR", "too many headers")
        if method == "GET" and path.rstrip("/") in ("", "/stats"):
            return 200, {"ok": True, "stats": self.stats_snapshot()}
        if method != "POST":
            return 405, _http_error(
                "PROTOCOL_ERROR", f"unsupported method {method}"
            )
        if path.rstrip("/") not in ("", "/query"):
            return 404, _http_error("PROTOCOL_ERROR", f"unknown path {path}")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return 400, _http_error("PROTOCOL_ERROR", "bad Content-Length")
        if length <= 0 or length > MAX_LINE_BYTES:
            return 400, _http_error(
                "PROTOCOL_ERROR", "Content-Length required (JSON body)"
            )
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError):
            return 400, _http_error("PROTOCOL_ERROR", "truncated body")
        try:
            message = decode_line(body)
            source = message.get("q")
            if not isinstance(source, str):
                raise ProtocolError("body needs a string 'q' field")
            tenant = message.get("tenant", "default")
            if not isinstance(tenant, str) or not tenant:
                raise ProtocolError("'tenant' must be a non-empty string")
            session = self._http_session
            payload = await self._run_governed(
                session,
                ("http", next(_http_request_ids)),
                lambda token: self._execute_source(
                    session, source, message.get("params"), token
                ),
                account=self._account(tenant),
            )
        except Exception as exc:  # noqa: BLE001 - typed error responses
            error = error_payload(exc)
            return http_status_for(error), {"ok": False, "error": error}
        payload.pop("_from_cache", None)
        return 200, {"ok": True, **payload}


class ServerThread:
    """A :class:`ReproServer` on a background thread's own event loop.

    The embedded runner the tests and the load benchmark use: blocking
    clients on the calling thread(s), the server loop isolated on its own
    thread.  ``start()`` returns the bound address; ``stop()`` performs
    the graceful close and joins the thread.
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        self.server: ReproServer | None = None
        self._address: tuple[str, int] | None = None
        self._ready = None  # threading.Event, created in start()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = None
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        assert self._address is not None
        return self._address

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.server = ReproServer(self.config)
            self._address = await self.server.start()
        except BaseException as exc:  # pragma: no cover - startup bugs
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def _http_error(code: str, message: str) -> dict[str, Any]:
    return {"ok": False, "error": {"code": code, "message": message}}


def _looks_like_http(first_line: bytes) -> bool:
    try:
        text = first_line.decode("ascii")
    except UnicodeDecodeError:
        return False
    parts = text.split()
    return (
        len(parts) == 3
        and parts[0] in ("GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS")
        and parts[2].startswith("HTTP/")
    )


def _decode_params(params: Any) -> dict[str, Any]:
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object of name -> value")
    values = {}
    for name, value in params.items():
        try:
            values[name] = decode_result(value)
        except ValueError as exc:
            raise ProtocolError(f"parameter {name!r}: {exc}") from exc
    return values
