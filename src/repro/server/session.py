"""Connection sessions: the state one client holds between requests.

A session owns

* a :class:`~repro.core.pipeline.QueryPipeline` bound to the server's
  database but sharing the **server-wide plan cache** — so a statement
  prepared (or simply run) on one connection is a cache hit on every
  other connection with the same options;
* **session-scoped options**: per-query governor limits and the execution
  backend, adjustable with the ``set`` op (the options are part of the
  plan-cache key, so different sessions' settings never collide);
* **named prepared statements** (``prepare``/``execute``), which are
  plain :class:`~repro.core.pipeline.CompiledQuery` templates — reusable
  across any number of ``execute`` calls without recompilation;
* the **in-flight registry**: request id -> :class:`CancelToken` for
  every query this session currently has executing, which is what the
  ``cancel`` op and disconnect cleanup act on.  Tokens are strictly
  per-query: cancelling one request trips only that request's governor,
  never another session's (or even another request on the same session).
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any

from repro.core.optimizer import SETTABLE_OPTIONS, OptimizerOptions, update_options
from repro.core.pipeline import CompiledQuery, PlanCache, QueryPipeline
from repro.data.database import Database
from repro.engine.governor import CancelToken
from repro.errors import OptionError
from repro.server.protocol import ProtocolError

if TYPE_CHECKING:
    from repro.server.admission import TenantAccount

__all__ = ["Session"]

_session_ids = itertools.count(1)


class Session:
    """One connection's serving state (see the module docstring)."""

    def __init__(
        self,
        database: Database,
        options: OptimizerOptions,
        plan_cache: PlanCache,
        tenant: str = "default",
    ):
        self.session_id = next(_session_ids)
        self.tenant = tenant
        self.pipeline = QueryPipeline(database, options)
        # Share the server-wide cache: prepared statements and plain
        # queries hit across connections.  (The cache key includes the
        # options, so sessions with different settings coexist.)
        self.pipeline.plan_cache = plan_cache
        self.prepared: dict[str, CompiledQuery] = {}
        #: request id -> CancelToken for queries currently executing.
        #: Written from the event loop, read from worker threads and the
        #: disconnect path, so guard with a lock.
        self._inflight: dict[Any, CancelToken] = {}
        self._inflight_lock = threading.Lock()
        #: Filled in by the server once the tenant is known (``hello``).
        self.account: "TenantAccount | None" = None
        self.closed = False

    # -- options -------------------------------------------------------------

    def set_options(self, updates: dict[str, Any]) -> dict[str, Any]:
        """Apply ``set`` op updates to the session's options.

        Returns the applied mapping.  Values arrive as decoded JSON and are
        checked by :func:`~repro.core.optimizer.update_options`, as every
        setting is; a refused update is a :class:`ProtocolError` and changes
        nothing (an ill-typed value stored here would fail every following
        query).
        """
        if not isinstance(updates, dict) or not updates:
            raise ProtocolError("'set' expects a non-empty 'options' object")
        try:
            self.pipeline.options = update_options(self.pipeline.options, updates)
        except OptionError as exc:
            raise ProtocolError(str(exc)) from exc
        return dict(updates)

    def options_snapshot(self) -> dict[str, Any]:
        options = self.pipeline.options
        return {name: getattr(options, name) for name in sorted(SETTABLE_OPTIONS)}

    # -- prepared statements -------------------------------------------------

    def prepare(self, name: str, source: str) -> tuple[CompiledQuery, bool]:
        """Compile *source* (through the shared plan cache) and register it
        under *name*; re-preparing a name replaces the old statement.
        Returns the statement and whether the plan came from the cache."""
        if not name or not isinstance(name, str):
            raise ProtocolError("'prepare' expects a non-empty string 'name'")
        compiled, from_cache = self.pipeline.compile_oql_cached(source)
        self.prepared[name] = compiled
        return compiled, from_cache

    def statement(self, name: str) -> CompiledQuery:
        compiled = self.prepared.get(name)
        if compiled is None:
            exc = ProtocolError(
                f"no prepared statement {name!r} in this session "
                f"(prepared: {sorted(self.prepared)})"
            )
            exc.code = "UNKNOWN_STATEMENT"
            raise exc
        return compiled

    # -- in-flight queries ---------------------------------------------------

    def register(self, request_id: Any) -> CancelToken:
        """A fresh per-request cancellation token, tracked until settled.

        A request id already in flight is rejected: silently overwriting
        the first token would leave one of the two queries invisible to
        ``cancel`` and disconnect cleanup (it would run to completion
        holding a worker slot)."""
        token = CancelToken()
        with self._inflight_lock:
            if request_id in self._inflight:
                exc = ProtocolError(
                    f"request id {request_id!r} is already in flight on "
                    "this session; concurrent requests need distinct ids"
                )
                exc.code = "DUPLICATE_REQUEST_ID"
                raise exc
            self._inflight[request_id] = token
        return token

    def settle(self, request_id: Any) -> None:
        """Drop the token for a finished request (idempotent)."""
        with self._inflight_lock:
            self._inflight.pop(request_id, None)

    def cancel(self, request_id: Any) -> bool:
        """Cancel one in-flight request; False when it is not in flight."""
        with self._inflight_lock:
            token = self._inflight.get(request_id)
        if token is None:
            return False
        token.cancel()
        return True

    def cancel_all(self) -> int:
        """Disconnect cleanup: cancel everything this session has running."""
        with self._inflight_lock:
            tokens = list(self._inflight.values())
        for token in tokens:
            token.cancel()
        return len(tokens)

    @property
    def inflight_count(self) -> int:
        with self._inflight_lock:
            return len(self._inflight)
