"""The wire protocol: newline-delimited JSON requests and responses.

Every message is one JSON object on one line (``\\n``-terminated).  A
request carries an ``op`` and a client-chosen ``id``; the response echoes
the ``id`` and carries either ``"ok": true`` with op-specific payload
fields or ``"ok": false`` with a typed ``error`` object::

    -> {"id": 1, "op": "query", "q": "select e.name from e in Employees"}
    <- {"id": 1, "ok": true, "result": {"$bag": [...]}, "rows": 60, ...}

    -> {"id": 2, "op": "query", "q": "select nope from x in Nope"}
    <- {"id": 2, "ok": false,
        "error": {"code": "UNKNOWN_EXTENT", "message": "...", "stage": "..."}}

Operations
----------

``hello``     declare a tenant (``tenant``) and fetch server info.
``query``     compile (through the shared plan cache) and run ``q`` with
              optional ``params``; responds with the encoded result.
``prepare``   compile ``q`` and register it under ``name`` in the session;
              responds with the statement's declared parameter names.
``execute``   run the prepared statement ``name`` with ``params``.
``cancel``    cancel the in-flight request whose id is ``target``.
``set``       update session-scoped options (governor limits, backend).
``stats``     server metrics snapshot (see :mod:`repro.server.metrics`).
``close``     say goodbye; the server closes the connection after replying.

Results are encoded with the same tagged-JSON value scheme the fuzzer's
repro artifacts use (:mod:`repro.data.codec`): records become
``{"$record": {...}, "$oid": n}``, sets/bags/lists become
``{"$set"|"$bag"|"$list": [...]}``, NULL becomes ``{"$null": true}``, a
non-finite float ``{"$float": "inf"|"-inf"|"nan"}`` (replies are strict
RFC 8259 JSON) — so a client can reconstruct engine values exactly, and the
tests can cross-check server responses against in-process execution
value-for-value.

Error codes
-----------

Engine errors map 1:1 onto the :mod:`repro.errors` taxonomy; the serving
layer adds its own codes for failures that happen before a query reaches
the engine:

==========================  ====================================================
code                        meaning
==========================  ====================================================
``PLANNING_ERROR``          parse / translate / rewrite rejection
``TYPECHECK_ERROR``         T1–T9 violation
``UNKNOWN_EXTENT``          name did not resolve against the schema
``BACKEND_UNSUPPORTED``     the selected backend refuses the query/database
``EXECUTION_ERROR``         runtime failure in a well-typed plan
``QUERY_TIMEOUT``           governor wall-clock deadline exceeded
``BUDGET_EXCEEDED``         governor row/memory budget exceeded
``QUERY_CANCELLED``         cancel op, client disconnect, or token trip
``ADMISSION_REJECTED``      server saturated: in-flight limit and queue full
``TENANT_BUDGET_EXHAUSTED`` the session/tenant spent its serving budget
``PROTOCOL_ERROR``          malformed request (bad JSON, missing fields)
``UNKNOWN_OPERATION``       unrecognized ``op``
``UNKNOWN_STATEMENT``       ``execute`` names a statement never prepared
``DUPLICATE_REQUEST_ID``    a request id the session already has in flight
``INTERNAL_ERROR``          anything else (a server bug; never expected)
==========================  ====================================================
"""

from __future__ import annotations

import json
from typing import Any

from repro.data.codec import decode_value, encode_value
from repro.errors import (
    BackendUnsupportedError,
    BudgetExceeded,
    ExecutionError,
    PlanningError,
    QueryCancelled,
    QueryError,
    QueryTimeout,
    TypeCheckError,
    UnknownExtentError,
)

__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "decode_line",
    "decode_result",
    "encode_message",
    "encode_reply",
    "encode_result",
    "error_payload",
    "http_status_for",
]

#: The longest request line the server will buffer before rejecting the
#: connection — a malformed client must not balloon server memory.
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed request: bad JSON, a non-object, or missing fields."""

    code = "PROTOCOL_ERROR"


def encode_message(message: dict[str, Any]) -> bytes:
    """One protocol message as an NDJSON line (UTF-8, ``\\n``-terminated)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def encode_reply(head: dict[str, Any], result: str, tail: dict[str, Any]) -> bytes:
    """``{**head, "result": ..., **tail}`` as :func:`encode_message` writes it
    (no newline), *result* being the result's JSON text, spliced in as is."""
    left, right = (json.dumps(part, separators=(",", ":")) for part in (head, tail))
    return f'{left[:-1]},"result":{result},{right[1:]}'.encode("utf-8")


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError` when invalid."""
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


#: An engine value as tagged JSON (records/sets/bags/lists/NULL) and back;
#: decoding raises ``ValueError`` on a value of the wrong shape.
encode_result = encode_value
decode_result = decode_value


#: QueryError subclass -> protocol error code, most specific first.
_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (QueryTimeout, "QUERY_TIMEOUT"),
    (BudgetExceeded, "BUDGET_EXCEEDED"),
    (QueryCancelled, "QUERY_CANCELLED"),
    (TypeCheckError, "TYPECHECK_ERROR"),
    (UnknownExtentError, "UNKNOWN_EXTENT"),
    (BackendUnsupportedError, "BACKEND_UNSUPPORTED"),
    (ExecutionError, "EXECUTION_ERROR"),
    (PlanningError, "PLANNING_ERROR"),
)


def error_payload(exc: BaseException) -> dict[str, Any]:
    """The typed ``error`` object for an exception.

    Engine errors keep their structured context (stage, operator); serving
    errors (:class:`~repro.server.admission.ServerError`,
    :class:`ProtocolError`) carry the code they declare.  Anything else is
    an ``INTERNAL_ERROR`` — the catch-all that should never fire.
    """
    code = getattr(exc, "code", None)
    if isinstance(exc, QueryError):
        for cls, query_code in _ERROR_CODES:
            if isinstance(exc, cls):
                code = query_code
                break
        else:  # pragma: no cover - QueryError itself is never raised bare
            code = "EXECUTION_ERROR"
        payload: dict[str, Any] = {"code": code, "message": exc.message}
        if exc.stage is not None:
            payload["stage"] = exc.stage
        if exc.operator is not None:
            payload["operator"] = exc.operator
        return payload
    if isinstance(code, str):
        return {"code": code, "message": str(exc)}
    return {
        "code": "INTERNAL_ERROR",
        "message": f"{type(exc).__name__}: {exc}",
    }


#: Protocol error code -> HTTP status for the thin HTTP endpoint.
_HTTP_STATUS = {
    "PLANNING_ERROR": 400,
    "TYPECHECK_ERROR": 400,
    "UNKNOWN_EXTENT": 400,
    "BACKEND_UNSUPPORTED": 400,
    "PROTOCOL_ERROR": 400,
    "UNKNOWN_OPERATION": 400,
    "UNKNOWN_STATEMENT": 400,
    "DUPLICATE_REQUEST_ID": 400,
    "ADMISSION_REJECTED": 429,
    "TENANT_BUDGET_EXHAUSTED": 429,
    "QUERY_TIMEOUT": 504,
    "QUERY_CANCELLED": 499,
    "BUDGET_EXCEEDED": 422,
    "EXECUTION_ERROR": 500,
    "INTERNAL_ERROR": 500,
}


def http_status_for(error: dict[str, Any] | None) -> int:
    """The HTTP status the thin endpoint sends for a response payload."""
    if error is None:
        return 200
    return _HTTP_STATUS.get(error.get("code", ""), 500)
