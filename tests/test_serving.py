"""End-to-end tests for the serving layer (repro.server).

Every test drives a real server — :class:`ServerThread` running the
asyncio front-end on its own event loop — through real sockets, with the
blocking :class:`ServeClient` on the test thread(s).  Results are
cross-checked value-for-value against in-process execution of the same
query: the server must never change an answer, only transport it.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from corpus import CORPUS
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.data.datagen import (
    ab_database,
    auction_database,
    company_database,
    travel_database,
    university_database,
)
from repro.data.values import (
    NULL,
    BagValue,
    CollectionValue,
    ListValue,
    Record,
    SetValue,
    is_null,
)
from repro.server import ServeClient, ServerConfig, ServerThread, TenantBudget
from repro.server.protocol import decode_result, encode_result
from repro.testing.schemagen import random_database
from test_edge_cases import NESTING_SHAPES, TOO_DEEP, deepest_accepted

#: A query slow enough (~800k join pairs on the test database) that a
#: cancel or a competing request reliably lands while it is in flight,
#: but cheap to answer (a single count).
SLOW_QUERY = (
    "count( select struct( a: e1.name, b: e2.name, c: e3.name, d: e4.name ) "
    "from e1 in Employees, e2 in Employees, e3 in Employees, "
    "e4 in Employees )"
)


@pytest.fixture(scope="module")
def server(company_db):
    """One shared server over the company database for the happy paths."""
    with ServerThread(ServerConfig(database=company_db)) as (host, port):
        yield host, port, company_db


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# protocol round-trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_hello(self, server):
        host, port, db = server
        with ServeClient(host, port) as client:
            reply = client.hello()
            assert reply.ok
            assert reply["tenant"] == "default"
            assert set(reply["extents"]) == set(db.extent_names())
            assert isinstance(reply["session"], int)
            assert "options" in reply

    def test_query_matches_in_process(self, server):
        host, port, db = server
        reference = Optimizer(db).run_oql(
            "select distinct e.name from e in Employees where e.salary > 50000"
        )
        with ServeClient(host, port) as client:
            reply = client.query(
                "select distinct e.name from e in Employees "
                "where e.salary > 50000"
            )
            assert reply.ok
            assert reply.value() == reference
            assert reply["rows"] >= 1
            assert reply["elapsed_ms"] >= 0

    def test_prepare_execute_params_roundtrip(self, server):
        host, port, db = server
        source = (
            "select distinct e.name from e in Employees "
            "where e.salary > :floor"
        )
        compiled = Optimizer(db).compile_oql(source)
        with ServeClient(host, port) as client:
            prep = client.prepare("above", source)
            assert prep.ok
            assert prep["params"] == ["floor"]
            for floor in (0, 50000, 10**9):
                reply = client.execute("above", params={"floor": floor})
                assert reply.ok
                assert reply.value() == compiled.execute(db, floor=floor)

    def test_prepared_statement_is_session_scoped(self, server):
        host, port, _ = server
        with ServeClient(host, port) as one, ServeClient(host, port) as two:
            assert one.prepare("mine", "count(Employees)").ok
            assert one.execute("mine").ok
            reply = two.execute("mine")
            assert not reply.ok
            assert reply.error_code == "UNKNOWN_STATEMENT"

    def test_out_of_order_responses(self, server):
        """A fast query sent after a slow one answers first; the client
        matches responses by id, not arrival order."""
        host, port, db = server
        reference = Optimizer(db).run_oql("count(Employees)")
        with ServeClient(host, port) as client:
            slow_id = client.send("query", q=SLOW_QUERY)
            fast_id = client.send("query", q="count(Employees)")
            fast = client.wait(fast_id)
            assert fast.ok and fast.value() == reference
            slow = client.wait(slow_id)
            assert slow.ok and slow["rows"] == 1

    def test_session_options_sqlite_backend(self, server):
        host, port, db = server
        queries = [q for q in CORPUS if q.family == "company"][:6]
        references = [Optimizer(db).run_oql(q.oql) for q in queries]
        with ServeClient(host, port) as client:
            reply = client.set_options(backend="sqlite")
            assert reply.ok and reply["applied"] == {"backend": "sqlite"}
            for query, reference in zip(queries, references):
                got = client.query(query.oql)
                assert got.ok, (query.name, got.get("error"))
                assert got.value() == reference, query.name

    def test_set_rejects_unknown_option(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            reply = client.set_options(unnest=False)
            assert not reply.ok
            assert reply.error_code == "PROTOCOL_ERROR"

    def test_set_rejects_db_path(self, server):
        """db_path flows into sqlite3.connect(); a client that could set
        it would make the server write an arbitrary filesystem path."""
        host, port, _ = server
        with ServeClient(host, port) as client:
            reply = client.set_options(db_path="/tmp/evil.db")
            assert not reply.ok
            assert reply.error_code == "PROTOCOL_ERROR"
            assert "db_path" in reply["error"]["message"]
            assert "db_path" not in client.hello()["options"]

    def test_set_bounds_num_workers(self, server):
        """Client-requested worker counts are clamped server-side — a
        session must not spawn an unbounded thread pool."""
        host, port, _ = server
        with ServeClient(host, port) as client:
            for bad in (100000, -1, True, "8", 2.5):
                reply = client.set_options(num_workers=bad)
                assert not reply.ok, bad
                assert reply.error_code == "PROTOCOL_ERROR", bad
            ok = client.set_options(num_workers=2)
            assert ok.ok and ok["applied"] == {"num_workers": 2}

    def test_duplicate_inflight_request_id_rejected(self, server):
        """A request reusing an id that is still in flight is rejected
        (DUPLICATE_REQUEST_ID) instead of silently shadowing the first
        query's cancellation token."""
        host, port, db = server
        with ServeClient(host, port) as client:
            client.send_raw(
                json.dumps({"id": "dup", "op": "query", "q": SLOW_QUERY})
                .encode() + b"\n"
            )
            # Wait until the slow query is registered, then reuse its id.
            assert wait_until(
                lambda: client.stats()["stats"]["admission"]["inflight"] >= 1
            )
            client.send_raw(
                json.dumps(
                    {"id": "dup", "op": "query", "q": "count(Employees)"}
                ).encode() + b"\n"
            )
            rejected = client.wait("dup")
            assert not rejected.ok
            assert rejected.error_code == "DUPLICATE_REQUEST_ID"
            # The original query is still cancellable under its id.
            assert client.cancel("dup")["cancelled"] is True
            done = client.wait("dup")
            assert done.error_code == "QUERY_CANCELLED"


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------


class TestTypedErrors:
    def test_planning_error(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            reply = client.query("select from where")
            assert not reply.ok
            assert reply.error_code == "PLANNING_ERROR"
            assert reply["error"]["message"]

    def test_unknown_operation(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            reply = client.call("frobnicate")
            assert reply.error_code == "UNKNOWN_OPERATION"

    def test_malformed_json_line(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            client.send_raw(b"this is not json\n")
            reply = client.wait(None)
            assert reply.error_code == "PROTOCOL_ERROR"

    #: Parameter values of the wrong shape.  They used to reach the engine
    #: (a Python list or None as a value, a record whose identity is a
    #: string) or answer INTERNAL_ERROR with a raw AttributeError/TypeError.
    MALFORMED_VALUES = [
        {"$record": 5},
        {"$set": 3},
        {"$bag": [[1]]},
        {"$oid": 1},
        [1, 2],
        None,
        {"$record": {"k": 1}, "$oid": "zz"},
    ]

    @pytest.mark.parametrize("value", MALFORMED_VALUES, ids=json.dumps)
    def test_malformed_parameter_value_is_a_protocol_error(self, server, value):
        host, port, db = server
        source = "select distinct e.name from e in Employees where e.age > :a"
        with ServeClient(host, port) as client:
            reply = client.call("query", q=source, params={"a": value})
            assert reply.error_code == "PROTOCOL_ERROR", reply
            assert "parameter 'a'" in reply["error"]["message"]
            assert client.prepare("q", source).ok
            reply = client.call("execute", name="q", params={"a": value})
            assert reply.error_code == "PROTOCOL_ERROR", reply
            # the connection stays usable
            expected = Optimizer(db).run_oql(source, a=40)
            assert client.execute("q", params={"a": 40}).value() == expected
        status, body = _http(
            host, port, "/query", {"q": source, "params": {"a": value}}
        )
        assert status == 400 and body["error"]["code"] == "PROTOCOL_ERROR", body
        assert "parameter 'a'" in body["error"]["message"]

    def test_query_timeout_is_typed(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            assert client.set_options(timeout=0.05).ok
            reply = client.query(SLOW_QUERY)
            assert not reply.ok
            assert reply.error_code == "QUERY_TIMEOUT"

    def test_max_rows_budget_is_typed(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            assert client.set_options(max_rows=10).ok
            reply = client.query("select e from e in Employees")
            assert not reply.ok
            assert reply.error_code == "BUDGET_EXCEEDED"


#: ``set`` values that used to be stored and fail every later query with a
#: raw TypeError (or be silently accepted): wrong JSON types, non-positive
#: limits, fractional row/byte budgets, a non-boolean switch.
ILL_TYPED_OPTIONS = [
    {"max_bytes": [1]},
    {"timeout": "soon"},
    {"max_rows": "many"},
    {"max_rows": -5},
    {"max_rows": 0},
    {"max_rows": 2.5},
    {"max_bytes": True},
    {"timeout": 0},
    {"timeout": float("inf")},  # would echo back as a bare Infinity
    {"timeout": {"s": 1}},
    {"parallel": "yes"},
    {"parallel": 1},
    # one bad value rejects the whole update
    {"max_rows": 100, "timeout": "soon"},
]


class TestSetOptionValidation:
    @pytest.mark.parametrize("options", ILL_TYPED_OPTIONS, ids=json.dumps)
    def test_ill_typed_values_are_rejected_at_set_time(self, server, options):
        host, port, db = server
        with ServeClient(host, port) as client:
            before = client.call("hello")["options"]
            reply = client.set_options(**options)
            assert not reply.ok
            assert reply.error_code == "PROTOCOL_ERROR"
            assert any(name in reply["error"]["message"] for name in options)
            # nothing was stored: the session answers the next query
            assert client.call("hello")["options"] == before
            reply = client.query("count(Employees)")
            assert reply.ok
            assert reply.value() == Optimizer(db).run_oql("count(Employees)")

    def test_well_typed_values_still_apply(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            applied = {"timeout": 1.5, "max_rows": 100000, "max_bytes": None, "parallel": True}
            reply = client.set_options(**applied)
            assert reply.ok
            assert {k: reply["options"][k] for k in applied} == applied
            assert client.set_options(timeout=None, max_rows=None).ok
            assert client.query("count(Employees)").ok

    def test_http_queries_survive_rejected_sets(self, server):
        # The plan cache is server-wide and its key holds the options: an
        # unhashable value that reached a session used to fail there.
        host, port, db = server
        with ServeClient(host, port) as client:
            for options in ILL_TYPED_OPTIONS:
                assert not client.set_options(**options).ok
            status, body = _http(host, port, "/query", {"q": "count(Employees)"})
            assert status == 200 and body["ok"] is True
            assert client.query("count(Employees)").ok


# ---------------------------------------------------------------------------
# admission control and tenant budgets
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_rejection_shape_when_saturated(self, company_db):
        config = ServerConfig(
            database=company_db, workers=1, max_inflight=1, queue_depth=0
        )
        with ServerThread(config) as (host, port):
            with ServeClient(host, port) as busy, ServeClient(host, port) as rej:
                slow_id = busy.send("query", q=SLOW_QUERY)
                # Wait until the slow query holds the only slot.
                assert wait_until(
                    lambda: rej.stats()["stats"]["admission"]["inflight"] >= 1
                )
                reply = rej.query("count(Employees)")
                assert not reply.ok
                assert reply.error_code == "ADMISSION_REJECTED"
                assert "queue" in reply["error"]["message"]
                busy.cancel(slow_id)
                done = busy.wait(slow_id)
                assert done.error_code in (None, "QUERY_CANCELLED")

    def test_queueing_admits_after_release(self, company_db):
        config = ServerConfig(
            database=company_db, workers=2, max_inflight=1, queue_depth=4
        )
        with ServerThread(config) as (host, port):
            with ServeClient(host, port) as client:
                first = client.send("query", q="count(Employees)")
                second = client.send("query", q="count(Departments)")
                assert client.wait(first).ok
                assert client.wait(second).ok

    def test_server_config_is_not_mutated(self, company_db):
        """Deriving the default admission limits must not write them back
        into the caller's ServerConfig — a config reused for a second
        server would silently keep the first server's numbers."""
        config = ServerConfig(database=company_db, workers=4)
        with ServerThread(config) as (host, port):
            with ServeClient(host, port) as client:
                admission = client.stats()["stats"]["admission"]
                assert admission["max_inflight"] == 4
                assert admission["queue_depth"] == 8
        assert config.max_inflight is None
        assert config.queue_depth is None

    def test_tenant_budget_exhaustion(self, company_db):
        config = ServerConfig(
            database=company_db,
            tenant_budget=TenantBudget(max_queries=2),
        )
        with ServerThread(config) as (host, port):
            with ServeClient(host, port) as client:
                assert client.query("count(Employees)").ok
                assert client.query("count(Departments)").ok
                reply = client.query("count(Employees)")
                assert not reply.ok
                assert reply.error_code == "TENANT_BUDGET_EXHAUSTED"

    def test_tenants_are_isolated(self, company_db):
        config = ServerConfig(
            database=company_db,
            tenant_budget=TenantBudget(max_queries=1),
        )
        with ServerThread(config) as (host, port):
            with ServeClient(host, port) as a, ServeClient(host, port) as b:
                assert a.hello(tenant="alpha").ok
                assert b.hello(tenant="beta").ok
                assert a.query("count(Employees)").ok
                assert a.query("count(Employees)").error_code == (
                    "TENANT_BUDGET_EXHAUSTED"
                )
                # beta has its own budget, unaffected by alpha's exhaustion.
                assert b.query("count(Employees)").ok


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


class TestCancellation:
    def _cancel_when_inflight(self, client, target):
        """Retry ``cancel`` until the request has actually registered."""
        assert wait_until(
            lambda: client.call("cancel", target=target)["cancelled"]
        ), "query never became cancellable"

    def test_cancel_inflight_query(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            qid = client.send("query", q=SLOW_QUERY)
            self._cancel_when_inflight(client, qid)
            reply = client.wait(qid)
            assert not reply.ok
            assert reply.error_code == "QUERY_CANCELLED"

    def test_cancel_unknown_request_is_a_noop(self, server):
        host, port, _ = server
        with ServeClient(host, port) as client:
            reply = client.cancel(99999)
            assert reply.ok
            assert reply["cancelled"] is False

    def test_cancellation_is_session_isolated(self, server):
        """Cancelling session A's query must not disturb session B's —
        tokens are per-request, not per-database or per-server."""
        host, port, db = server
        reference = Optimizer(db).run_oql("count(Employees)")
        with ServeClient(host, port) as a, ServeClient(host, port) as b:
            results = []

            def b_runs_queries():
                for _ in range(5):
                    results.append(b.query("count(Employees)"))

            slow_id = a.send("query", q=SLOW_QUERY)
            worker = threading.Thread(target=b_runs_queries)
            worker.start()
            self._cancel_when_inflight(a, slow_id)
            cancelled = a.wait(slow_id)
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert cancelled.error_code == "QUERY_CANCELLED"
            assert len(results) == 5
            for reply in results:
                assert reply.ok, reply.get("error")
                assert reply.value() == reference

    def test_disconnect_cancels_inflight_queries(self, server):
        """Dropping the socket mid-query trips the query's token and the
        session is reaped; other sessions keep working."""
        host, port, db = server
        watcher = ServeClient(host, port)
        try:
            before = watcher.stats()["stats"]["server"]["sessions"]
            doomed = ServeClient(host, port)
            doomed.send("query", q=SLOW_QUERY)
            assert wait_until(
                lambda: watcher.stats()["stats"]["admission"]["inflight"] >= 1
            )
            doomed.close(polite=False)
            assert wait_until(
                lambda: watcher.stats()["stats"]["server"]["sessions"]
                <= before
            ), "disconnected session was never cleaned up"
            assert wait_until(
                lambda: watcher.stats()["stats"]["admission"]["inflight"] == 0
            ), "in-flight query survived its connection"
            endpoints = watcher.stats()["stats"]["metrics"]["endpoints"]
            assert "disconnect_cancel" in endpoints
            # The server still answers.
            reference = Optimizer(db).run_oql("count(Employees)")
            assert watcher.query("count(Employees)").value() == reference
        finally:
            watcher.close(polite=False)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_query_metrics_counters(self, company_db):
        with ServerThread(ServerConfig(database=company_db)) as (host, port):
            with ServeClient(host, port) as client:
                for _ in range(4):
                    assert client.query("count(Employees)").ok
                assert not client.query("syntax error here").ok
                stats = client.stats()["stats"]
            queries = stats["metrics"]["endpoints"]["query"]
            assert queries["requests"] == 5
            assert queries["errors"] == 1
            assert queries["p50_ms"] >= 0
            assert queries["p99_ms"] >= queries["p50_ms"]
            assert 0 < queries["cache_hit_rate"] <= 1.0
            cache = stats["plan_cache"]
            # One compile, three hits (the failed parse never caches).
            assert cache["misses"] >= 1
            assert cache["hits"] >= 3

    def test_plan_cache_is_shared_across_sessions(self, company_db):
        with ServerThread(ServerConfig(database=company_db)) as (host, port):
            with ServeClient(host, port) as one:
                assert one.query("count(Departments)").ok
            with ServeClient(host, port) as two:
                assert two.query("count(Departments)").ok
                cache = two.stats()["stats"]["plan_cache"]
                assert cache["hits"] >= 1, (
                    "second session should hit the first session's plan"
                )


# ---------------------------------------------------------------------------
# the HTTP endpoint
# ---------------------------------------------------------------------------


def _http(host, port, path, body=None, method=None):
    url = f"http://{host}:{port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHttp:
    def test_post_query(self, server):
        host, port, db = server
        reference = Optimizer(db).run_oql("count(Employees)")
        status, body = _http(host, port, "/query", {"q": "count(Employees)"})
        assert status == 200
        assert body["ok"] is True
        from repro.server.protocol import decode_result

        assert decode_result(body["result"]) == reference

    def test_post_bad_query_maps_to_400(self, server):
        host, port, _ = server
        status, body = _http(host, port, "/query", {"q": "select from"})
        assert status == 400
        assert body["error"]["code"] == "PLANNING_ERROR"

    def test_get_stats(self, server):
        host, port, _ = server
        status, body = _http(host, port, "/stats")
        assert status == 200
        assert "metrics" in body["stats"]

    def test_unknown_path_404(self, server):
        host, port, _ = server
        status, body = _http(host, port, "/nope", {"q": "count(Employees)"})
        assert status == 404
        assert body["error"]["code"] == "PROTOCOL_ERROR"

    def test_body_without_query_400(self, server):
        host, port, _ = server
        status, body = _http(host, port, "/query", {"nope": 1})
        assert status == 400
        assert body["error"]["code"] == "PROTOCOL_ERROR"

    def test_header_flood_is_bounded(self, server):
        """A client streaming header lines forever must be rejected
        promptly (400 / connection close), not pin the connection.
        Pre-fix, the server read header lines without limit and this
        test timed out waiting for a response."""
        import socket

        host, port, _ = server
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\n")
            try:
                for index in range(200):
                    sock.sendall(f"X-Flood-{index}: y\r\n".encode())
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server already hung up on us — also a pass
            # The server answers (or resets) after the 100-line cap; the
            # reset can race the 400 bytes off the wire, so accept both.
            response = b""
            try:
                while b"\r\n" not in response:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    response += chunk
            except ConnectionError:
                pass
            if response:
                assert response.startswith(b"HTTP/1.1 400")

    def test_http_tenant_budget_maps_to_429(self, company_db):
        config = ServerConfig(
            database=company_db, tenant_budget=TenantBudget(max_queries=1)
        )
        with ServerThread(config) as (host, port):
            status, _ = _http(
                host, port, "/query", {"q": "count(Employees)", "tenant": "t"}
            )
            assert status == 200
            status, body = _http(
                host, port, "/query", {"q": "count(Employees)", "tenant": "t"}
            )
            assert status == 429
            assert body["error"]["code"] == "TENANT_BUDGET_EXHAUSTED"


# ---------------------------------------------------------------------------
# what a request is billed, and what a client may call a placeholder
# ---------------------------------------------------------------------------


class TestRowsAndParameterNames:
    #: (query, rows): the elements of a collection; one for anything else
    #: — never a record's field count or a string's length.
    ROWS = [
        ("struct(a: count(Employees), b: 2, c: 3, d: 4)", 1),
        ('"hello world"', 1),
        ("count(Employees)", 1),
        ("select d.dno from d in Departments where d.dno < 0", 0),
        ("select d.dno from d in Departments", None),  # len() of the bag
    ]

    def test_rows_is_the_result_cardinality(self, company_db):
        with ServerThread(ServerConfig(database=company_db)) as (host, port):
            billed = {"wire": 0, "web": 0}
            with ServeClient(host, port) as client:
                assert client.hello(tenant="wire").ok
                for query, rows in self.ROWS:
                    if rows is None:
                        rows = len(Optimizer(company_db).run_oql(query))
                        assert rows > 1
                    reply = client.query(query)
                    assert reply.ok and reply["rows"] == rows, query
                    status, body = _http(
                        host, port, "/query", {"q": query, "tenant": "web"}
                    )
                    assert status == 200 and body["rows"] == rows, query
                    billed["wire"] += rows
                    billed["web"] += rows
                stats = client.stats()["stats"]
            for tenant, rows in billed.items():
                assert stats["tenants"][tenant]["rows"] == rows
            endpoints = stats["metrics"]["endpoints"]
            assert endpoints["query"]["rows"] == billed["wire"]
            assert endpoints["http"]["rows"] == billed["web"]

    @pytest.mark.parametrize("name", ["database", "self", "cancel_token"])
    def test_placeholder_named_like_an_argument_of_execute(self, server, name):
        host, port, db = server
        source = "select distinct e.name from e in Employees where e.age > :"
        expected = Optimizer(db).run_oql(source + "p", p=40)
        assert len(expected) > 0
        with ServeClient(host, port) as client:
            reply = client.query(source + name, params={name: 40})
            assert reply.ok, reply
            assert reply.value() == expected
            assert client.prepare("q", source + name).ok
            assert client.execute("q", params={name: 40}).value() == expected
        status, body = _http(
            host, port, "/query", {"q": source + name, "params": {name: 40}}
        )
        assert status == 200, body
        from repro.server.protocol import decode_result

        assert decode_result(body["result"]) == expected


# ---------------------------------------------------------------------------
# concurrency: the corpus under 8 clients, cross-checked
# ---------------------------------------------------------------------------


FAMILIES = sorted({q.family for q in CORPUS})


@pytest.mark.parametrize("family", FAMILIES)
def test_concurrent_clients_agree_with_in_process(family, databases):
    """Eight concurrent clients each run the family's full corpus slice;
    every response must equal the in-process answer (ISSUE acceptance:
    zero incorrect results under concurrency)."""
    db = databases[family]
    queries = [q for q in CORPUS if q.family == family]
    references = {q.name: Optimizer(db).run_oql(q.oql) for q in queries}
    failures: list[str] = []
    with ServerThread(ServerConfig(database=db)) as (host, port):

        def one_client(client_index: int) -> None:
            try:
                with ServeClient(host, port) as client:
                    for query in queries:
                        reply = client.query(query.oql)
                        if not reply.ok:
                            failures.append(
                                f"client {client_index} {query.name}: "
                                f"{reply.get('error')}"
                            )
                        elif reply.value() != references[query.name]:
                            failures.append(
                                f"client {client_index} {query.name}: "
                                "wrong result"
                            )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(f"client {client_index}: {exc!r}")

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "client thread hung"
    assert failures == []


# ---------------------------------------------------------------------------
# replies: one encode, spliced; strict JSON; the nesting limit on the wire
# ---------------------------------------------------------------------------


def reference_encode(value):
    """The tagged-JSON encoder as it was before it dispatched on exact
    classes: the reference the codec must still agree with (non-finite
    floats aside, which it used to leave bare)."""
    if is_null(value):
        return {"$null": True}
    if isinstance(value, Record):
        encoded = {"$record": {attr: reference_encode(v) for attr, v in value.items()}}
        if value.oid is not None:
            encoded["$oid"] = value.oid
        return encoded
    if isinstance(value, SetValue):
        return {"$set": [reference_encode(v) for v in value]}
    if isinstance(value, BagValue):
        return {"$bag": [reference_encode(v) for v in value]}
    if isinstance(value, ListValue):
        return {"$list": [reference_encode(v) for v in value]}
    if isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(f"cannot encode value {value!r} as tagged JSON")


def reference_reply(head, value, elapsed_ms):
    """The reply the server used to write for *value*: its payload built
    over the reference encoding and ``json.dumps``-ed whole."""
    encoded = reference_encode(value)
    payload = {
        "result": encoded,
        "rows": len(value) if isinstance(value, CollectionValue) else 1,
        "bytes": len(json.dumps(encoded, separators=(",", ":"))),
        "elapsed_ms": elapsed_ms,
    }
    return json.dumps({**head, **payload}, separators=(",", ":")).encode()


def strict_loads(text):
    def refuse(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=refuse)


#: The e2e benchmark's scale S (``benchmarks/e2e/workloads.py``).
SCALE_S = {
    "company": (company_database, 60, 8),
    "university": (university_database, 40, 12),
    "travel": (travel_database, 6, 5),
    "ab": (ab_database, 30, 40),
    "auction": (auction_database, 40, 25),
}


@pytest.fixture(scope="module")
def scale_s():
    return {
        family: generator(*sizes, seed=1998)
        for family, (generator, *sizes) in SCALE_S.items()
    }


class RawConnection:
    """One NDJSON connection read line by line, bytes as the server wrote
    them."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=60)
        self.lines = self.sock.makefile("rb")

    def call(self, **message):
        self.sock.sendall(json.dumps(message).encode() + b"\n")
        return self.lines.readline()

    def close(self):
        self.lines.close()
        self.sock.close()


def _post_raw(host, port, body):
    request = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.read()


class TestReplyBytes:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_replies_are_byte_identical_to_the_whole_message_encoding(
        self, scale_s, family
    ):
        """Every corpus answer, over ``query``, ``execute`` and ``POST
        /query``, is the line the server wrote when it ``json.dumps``-ed the
        whole reply (``elapsed_ms`` taken from the reply), and ``bytes`` is
        the length of the result's encoding."""
        db = scale_s[family]
        with ServerThread(ServerConfig(database=db)) as (host, port):
            wire = RawConnection(host, port)
            try:
                for index, query in enumerate(q for q in CORPUS if q.family == family):
                    value = Optimizer(db).run_oql(query.oql)
                    replies = {
                        "query": wire.call(id=index, op="query", q=query.oql),
                        "prepare": wire.call(
                            id="p", op="prepare", name="s", q=query.oql
                        ),
                        "execute": wire.call(id=f"x{index}", op="execute", name="s"),
                        "http": _post_raw(host, port, {"q": query.oql}) + b"\n",
                    }
                    heads = {
                        "query": {"id": index, "ok": True},
                        "execute": {"id": f"x{index}", "ok": True},
                        "http": {"ok": True},
                    }
                    assert strict_loads(replies["prepare"])["ok"]
                    for op, head in heads.items():
                        reply = strict_loads(replies[op])
                        expected = reference_reply(head, value, reply["elapsed_ms"])
                        assert replies[op] == expected + b"\n", (query.name, op)
                        assert reply["bytes"] == len(
                            json.dumps(reference_encode(value), separators=(",", ":"))
                        )
            finally:
                wire.close()

    def test_the_encoding_equals_the_reference_on_every_corpus_answer(self, scale_s):
        for query in CORPUS:
            value = Optimizer(scale_s[query.family]).run_oql(query.oql)
            assert json.dumps(encode_result(value)) == json.dumps(
                reference_encode(value)
            ), query.name

    @pytest.mark.parametrize("seed", [3, 17, 2026])
    def test_the_encoding_equals_the_reference_on_generated_data(self, seed):
        db, _ = random_database(seed)
        for name in db.extent_names():
            extent = db.extent(name)
            for value in [extent, *extent.elements()]:
                assert json.dumps(encode_result(value)) == json.dumps(
                    reference_encode(value)
                )

    #: Values where dispatch could go wrong: bool is an int, NULL, empty
    #: and repeated collection members, identity, subclasses.
    EDGE_VALUES = [
        True,
        1,
        False,
        0,
        1.5,
        -0.0,
        "",
        NULL,
        Record(),
        Record(a=True, b=1, c=NULL).with_oid(7),
        SetValue(),
        BagValue(),
        ListValue(),
        BagValue([1, 1, True, 2.0, "x", "x", Record(k=1), Record(k=1)]),
        ListValue([SetValue([1, 2]), BagValue([NULL, NULL]), ListValue([])]),
        BagValue([Record(k=1).with_oid(1), Record(k=1).with_oid(2)]),
    ]

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    def test_the_encoding_equals_the_reference_on_edge_values(self, value):
        assert json.dumps(encode_result(value)) == json.dumps(reference_encode(value))
        assert repr(decode_result(encode_result(value))) == repr(value)

    def test_subclasses_encode_as_their_engine_class(self):
        class Count(int):
            pass

        class Tagged(SetValue):
            pass

        value = Tagged([Count(3), Record(a=Count(4))])
        assert json.dumps(encode_result(value)) == json.dumps(reference_encode(value))
        with pytest.raises(ValueError, match="cannot encode"):
            encode_result(object())

    def test_a_reply_dumps_its_result_once(self, server, monkeypatch):
        """The result is ``json.dumps``-ed once — no second pass to count
        its bytes, no third inside the envelope."""
        host, port, db = server
        query = "select e from e in Employees"
        encoded = encode_result(Optimizer(db).run_oql(query))
        dumped = []
        real_dumps = json.dumps

        def counting_dumps(obj, *args, **kwargs):
            dumped.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        with ServeClient(host, port) as client:
            assert client.query(query).ok
        _post_raw(host, port, {"q": query})
        monkeypatch.undo()
        holding_result = [
            obj
            for obj in dumped
            if obj == encoded
            or (isinstance(obj, dict) and obj.get("result") == encoded)
        ]
        assert len(holding_result) == 2  # one for each reply


#: A float without a JSON spelling, from an aggregate over nothing: min's
#: zero is +inf.
_NOTHING = "min(select e.age from e in Employees where e.age < 0)"
NON_FINITE = {
    "inf": _NOTHING,
    "nan": f"{_NOTHING} - {_NOTHING}",
    "-inf": f"0 - {_NOTHING}",
    "record": f"struct(A: {_NOTHING})",
}


def same_value(got, expected):
    if isinstance(expected, float) and math.isnan(expected):
        return isinstance(got, float) and math.isnan(got)
    return repr(got) == repr(expected)


class TestNonFiniteFloats:
    @pytest.mark.parametrize("query", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_a_non_finite_result_is_strict_json(self, server, query):
        host, port, db = server
        expected = Optimizer(db).run_oql(query)
        with ServeClient(host, port) as client:  # parses strictly
            reply = client.query(query)
            assert reply.ok, reply
            assert same_value(reply.value(), expected)
            assert client.prepare("s", query).ok
            assert same_value(client.execute("s").value(), expected)
        body = strict_loads(_post_raw(host, port, {"q": query}))
        assert same_value(decode_result(body["result"]), expected)
        assert "$float" in json.dumps(body["result"])

    def test_a_tagged_float_parameter_binds(self, server):
        host, port, db = server
        source = "select distinct e.name from e in Employees where e.age > :a"
        expected = Optimizer(db).run_oql(source, a=float("-inf"))
        assert len(expected) == len(db.extent("Employees"))
        with ServeClient(host, port) as client:
            reply = client.query(source, params={"a": {"$float": "-inf"}})
            assert reply.ok, reply
            assert reply.value() == expected
            bad = client.query(source, params={"a": {"$float": "Infinity"}})
            assert bad.error_code == "PROTOCOL_ERROR"


class TestNestingLimitOnTheWire:
    TOO_DEEP = {
        "200 parentheses": "(" * 200 + "1" + ")" * 200,
        "3000 not": "not " * 3000 + "true",
        **TOO_DEEP,
    }

    @pytest.mark.parametrize("source", TOO_DEEP.values(), ids=TOO_DEEP.keys())
    def test_too_deep_is_a_planning_error(self, server, source):
        host, port, _ = server
        with ServeClient(host, port) as client:
            reply = client.query(source)
        assert reply.error_code == "PLANNING_ERROR"
        assert "nested deeper than" in reply["error"]["message"]
        status, body = _http(host, port, "/query", {"q": source})
        assert status == 400 and "nested deeper than" in body["error"]["message"]

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_the_deepest_accepted_query_of_each_shape_answers(self, server, backend):
        host, port, db = server
        with ServeClient(host, port) as client:
            assert client.set_options(backend=backend).ok
            for shape, (deep, shallow) in NESTING_SHAPES.items():
                n = deepest_accepted(shape)
                reply = client.query(deep(n))
                assert reply.ok, (shape, reply)
                assert reply.value() == Optimizer(db).run_oql(shallow(n)), shape
                refused = client.query(deep(n + 1))
                assert refused.error_code == "PLANNING_ERROR", shape
