"""A small thread-safe blocking client for the NDJSON protocol.

Used by the end-to-end tests and the load-generator benchmark; it is not
a supported public driver (any language with sockets and JSON can speak
the protocol directly — that is the point of NDJSON).

Responses may arrive out of request order (the server dispatches every
request as its own task), so the client matches them by ``id``: reads go
through :meth:`wait`, which buffers responses for other ids until their
own waiter asks.  Sends and receives are independently locked, so one
thread can wait on a slow query while another sends ``cancel``.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any

from repro.server.protocol import decode_result

__all__ = ["ServeClient", "ServerReply"]


class ServerReply(dict):
    """A response object; ``ok``/``error`` as attributes for convenience."""

    @property
    def ok(self) -> bool:
        return bool(self.get("ok"))

    @property
    def error_code(self) -> str | None:
        error = self.get("error")
        return error.get("code") if isinstance(error, dict) else None

    def value(self) -> Any:
        """The decoded engine value of a successful query response."""
        if not self.ok:
            raise RuntimeError(f"response is an error: {self.get('error')}")
        return decode_result(self["result"])


def _not_json(token: str) -> None:
    raise ValueError(f"reply is not strict JSON: it holds a bare {token}")


class ServeClient:
    """One NDJSON protocol connection (see the module docstring)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._buffered: dict[Any, ServerReply] = {}
        self._buffered_cond = threading.Condition()
        self._next_id = 1
        self._id_lock = threading.Lock()

    # -- low-level -----------------------------------------------------------

    def send(self, op: str, **fields: Any) -> int:
        """Send one request; returns the assigned id (match with wait)."""
        with self._id_lock:
            request_id = self._next_id
            self._next_id += 1
        message = {"id": request_id, "op": op, **fields}
        data = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        with self._send_lock:
            self._sock.sendall(data)
        return request_id

    def send_raw(self, data: bytes) -> None:
        """Send raw bytes (malformed-request tests)."""
        with self._send_lock:
            self._sock.sendall(data)

    def wait(self, request_id: Any) -> ServerReply:
        """Block until the response for *request_id* arrives."""
        while True:
            with self._buffered_cond:
                reply = self._buffered.pop(request_id, None)
                if reply is not None:
                    return reply
            got_read_lock = self._recv_lock.acquire(blocking=False)
            if not got_read_lock:
                # Another thread is reading; wait for it to buffer ours.
                with self._buffered_cond:
                    self._buffered_cond.wait(timeout=0.05)
                continue
            try:
                with self._buffered_cond:
                    reply = self._buffered.pop(request_id, None)
                    if reply is not None:
                        return reply
                line = self._file.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                reply = ServerReply(json.loads(line, parse_constant=_not_json))
            finally:
                self._recv_lock.release()
            if reply.get("id") == request_id:
                return reply
            with self._buffered_cond:
                self._buffered[reply.get("id")] = reply
                self._buffered_cond.notify_all()

    def call(self, op: str, **fields: Any) -> ServerReply:
        """Send one request and wait for its response."""
        return self.wait(self.send(op, **fields))

    # -- the protocol ops ----------------------------------------------------

    def hello(self, tenant: str = "default") -> ServerReply:
        return self.call("hello", tenant=tenant)

    def query(self, q: str, params: dict[str, Any] | None = None) -> ServerReply:
        return self.call("query", q=q, **({"params": params} if params else {}))

    def prepare(self, name: str, q: str) -> ServerReply:
        return self.call("prepare", name=name, q=q)

    def execute(
        self, name: str, params: dict[str, Any] | None = None
    ) -> ServerReply:
        return self.call(
            "execute", name=name, **({"params": params} if params else {})
        )

    def cancel(self, target: int) -> ServerReply:
        return self.call("cancel", target=target)

    def set_options(self, **options: Any) -> ServerReply:
        return self.call("set", options=options)

    def stats(self) -> ServerReply:
        return self.call("stats")

    def close(self, polite: bool = True) -> None:
        """Close the connection; *polite* says goodbye first."""
        try:
            if polite:
                self.call("close")
        except (OSError, ConnectionError, ValueError):
            pass
        # Close the makefile wrapper too — it holds its own reference to
        # the socket, and the FIN only goes out once both are closed.
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close(polite=False)
