"""The expression compiler: kernels must be indistinguishable from the
tree-walking interpreter.

Four groups of guarantees:

* **Three-valued NULL logic** — a parametrized sweep over comparisons,
  arithmetic, the full ``and``/``or`` truth tables, ``if``, projections
  off NULL, and division by zero, each checked for exact agreement between
  the kernel and :class:`~repro.calculus.evaluator.Evaluator` (same value,
  or same exception class).
* **Generated code throughout** — terms too deep for one Python
  expression compile (their deep subterms become row functions), and a
  fault anywhere reruns its chunk through the interpreter.
* **Blocking-operator memoization** — hash join, nested-loop join, and
  hash nest build their blocking side exactly once per execution even when
  their stream is re-entered; the regression is pinned by counting the
  build child's ``rows_produced``.
* **EXPLAIN ANALYZE annotations** — per-operator ``eval_mode`` and
  ``eval_ms`` reporting, including the rendered report text and the
  no-profiling default.
"""

from __future__ import annotations

import builtins

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS
from kernel_runs import execution
from repro.calculus.evaluator import (
    DivisionByZeroError,
    EvaluationError,
    Evaluator,
)
from repro.calculus.monoids import SET
from repro.calculus.terms import (
    Apply,
    BinOp,
    Comprehension,
    Const,
    Extent,
    Filter,
    Generator,
    If,
    IsNull,
    Lambda,
    Let,
    Merge,
    Not,
    Null,
    Param,
    Proj,
    RecordCons,
    Singleton,
    Var,
    Zero,
    free_vars,
    path,
    substitute,
)
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue
from repro.engine import compile as compile_module
from repro.engine.compile import ExprCompiler, _factory
from repro.engine.physical import (
    Execution,
    PHashJoin,
    PHashNest,
    PScan,
    _Context,
)
from repro.errors import PlanningError
from repro.testing.oracle import check_sample

T, F, N = Const(True), Const(False), Null()
X = Var("x")


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.add_extent("R", [Record(k=i, v=i * 10) for i in range(6)])
    database.add_extent("S", [Record(k=i % 3, w=i) for i in range(6)])
    return database


def _engines(db):
    return Evaluator(db), ExprCompiler()


def _outcome(fn):
    """(value, None) on success, (None, exception class) on failure."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        return None, type(exc)


def _run(kernel, env, ex=None):
    """Evaluate *kernel* in *ex* (a run over no database, by default) on
    the one-row chunk holding *env*; a captured fault is raised, as an
    operator would replay it."""
    ex = execution() if ex is None else ex
    values, _, err = kernel.fn(ex, {name: [value] for name, value in env.items()}, 1)
    if err is not None:
        raise err
    return values[0]


# ---------------------------------------------------------------------------
# Three-valued NULL logic: kernel == interpreter
# ---------------------------------------------------------------------------


def _null_cases() -> list:
    cases = []
    one = Const(1)
    for op in ("==", "!=", "<", "<=", ">", ">="):
        cases += [BinOp(op, N, one), BinOp(op, one, N), BinOp(op, N, N)]
    for op in ("+", "-", "*", "/"):
        cases += [BinOp(op, N, Const(2)), BinOp(op, Const(2), N)]
    for a in (T, F, N):
        for b in (T, F, N):
            cases += [BinOp("and", a, b), BinOp("or", a, b)]
    cases += [
        Not(N),
        IsNull(N),
        IsNull(Const(1)),
        If(N, Const(1), Const(2)),  # NULL condition takes the else branch
        Proj(N, "a"),  # path step off NULL is NULL
        Proj(Proj(X, "a"), "b"),  # x.a is NULL, so x.a.b is NULL
        BinOp("+", Proj(X, "n"), Const(1)),  # NULL attribute propagates
        Let("v", N, IsNull(Var("v"))),
        BinOp("/", Const(1), Const(0)),  # both engines raise EvaluationError
        BinOp("and", BinOp("==", Proj(X, "n"), Const(3)), F),
    ]
    return cases


_ENV = {"x": Record(a=NULL, n=NULL)}


@pytest.mark.parametrize("term", _null_cases(), ids=repr)
def test_null_semantics_match_interpreter(term, db):
    evaluator, compiler = _engines(db)
    expected = _outcome(lambda: evaluator.evaluate(term, dict(_ENV)))
    kernel = compiler.compile_kernel(term)
    assert _outcome(lambda: _run(kernel, _ENV)) == expected


@pytest.mark.parametrize(
    "term, expected",
    [
        # Left-to-right short-circuit, strict NULL on the left operand:
        # the decided value wins before the NULL is ever looked at, but a
        # NULL left operand poisons the connective without evaluating the
        # right side (the interpreter's apply_binop semantics).
        (BinOp("and", F, N), False),
        (BinOp("and", T, N), NULL),
        (BinOp("and", N, F), NULL),
        (BinOp("or", T, N), True),
        (BinOp("or", F, N), NULL),
        (BinOp("or", N, T), NULL),
    ],
)
def test_connective_truth_table_pinned(term, expected, db):
    _, compiler = _engines(db)
    assert _run(compiler.compile_kernel(term), {}) is expected


def test_predicate_treats_null_as_false(db):
    _, compiler = _engines(db)
    predicate = compiler.compile_predicate_kernel
    assert _run(predicate(BinOp("==", N, Const(1))), {}) is False
    assert _run(predicate(T), {}) is True
    with pytest.raises(EvaluationError):
        _run(predicate(Const(7)), {})


# ---------------------------------------------------------------------------
# What the emitter lowers, and memoization
# ---------------------------------------------------------------------------


def test_a_lambda_application_has_no_kernel(db):
    applied = Apply(Lambda("v", BinOp("*", Var("v"), Const(2))), Var("xs"))
    _, compiler = _engines(db)
    with pytest.raises(PlanningError, match="no kernel for the Apply term"):
        compiler.compile_kernel(BinOp("+", applied, Const(1)))


_V = Var("v")


@pytest.mark.parametrize(
    "term",
    [
        # no qualifier, and a filter before any generator: one binding
        Comprehension("bag", X),
        Comprehension("sum", X, (Filter(BinOp(">", X, Const(1))),)),
        # an extent domain (every domain is emitted inline)
        Comprehension("sum", path("v", "k"), (Generator("v", Extent("R")),)),
        # an inner generator shadowing the outer one's variable
        Comprehension(
            "list",
            BinOp("+", _V, Comprehension("sum", _V, (Generator("v", path("x", "ys")),))),
            (Generator("v", path("x", "xs")),),
        ),
    ],
    ids=["no-qualifier", "leading-filter", "extent-domain", "shadowing"],
)
def test_folds_agree_with_the_interpreter(term, db):
    evaluator, compiler = _engines(db)
    kernel = compiler.compile_kernel(term)
    for x in (3, Record(xs=BagValue([1, 2, 1]), ys=BagValue([10, 20]))):
        env = {"x": x}
        got = _outcome(lambda: repr(_run(kernel, env, execution(db))))
        assert got == _outcome(lambda: repr(evaluator.evaluate(term, env)))


_DOMAIN_ROWS = BagValue([Record(k=1), Record(k=2), NULL, Record(k=2)])


@pytest.mark.parametrize(
    "domain",
    [Extent("R"), Param("p"), Proj(Param("q"), "xs"), Var("l")],
    ids=["extent", "param", "param-path", "let-bound"],
)
@pytest.mark.parametrize("monoid", ["sum", "all", "avg", "bag"])
@pytest.mark.parametrize("p", [_DOMAIN_ROWS, NULL, 7], ids=["bag", "null", "int"])
def test_every_domain_compiles_and_agrees_with_the_interpreter(domain, monoid, p, db):
    head = BinOp(">", path("v", "k"), Const(1)) if monoid == "all" else path("v", "k")
    fold = Comprehension(
        monoid, head, (Generator("v", domain), Filter(Not(IsNull(Var("v")))))
    )
    term = Let("l", Param("p"), fold)
    params = {"p": p, "q": Record(xs=ListValue(_DOMAIN_ROWS.elements()))}
    evaluator = Evaluator(db, params)
    kernel = ExprCompiler().compile_kernel(term)
    got = _outcome(lambda: repr(_run(kernel, {}, execution(db, params))))
    assert got == _outcome(lambda: repr(evaluator.evaluate(term, {})))


@pytest.mark.parametrize("test", [Not(IsNull(_V)), IsNull(_V)], ids=repr)
def test_a_null_test_filter_is_emitted_bare(test, db, compiled_sources):
    # `[not] v is NULL` is a boolean: no walrus, no fault arm.
    fold = Comprehension("bag", _V, (Generator("v", Var("xs")), Filter(test)))
    evaluator, compiler = _engines(db)
    kernel = compiler.compile_kernel(fold)
    [source] = compiled_sources
    assert "_fault" not in source and " NULL)" in source
    env = {"xs": BagValue([1, NULL, 2])}
    assert repr(_run(kernel, env)) == repr(evaluator.evaluate(fold, env))


def test_monoid_constructors_compile(db):
    # Zero / Singleton / Merge roots (set operations evaluate as a merge of
    # two grouped columns) are emitted, not interpreted.
    term = Merge("set", Merge("set", Singleton("set", Var("x")), Zero("set")), Var("s"))
    evaluator, compiler = _engines(db)
    env = {"x": 1, "s": SetValue([2, 3])}
    kernel = compiler.compile_kernel(term)
    assert _run(kernel, env) == evaluator.evaluate(term, env) == SetValue([1, 2, 3])


def test_a_singleton_of_a_primitive_monoid_faults_as_the_interpreter(db):
    # Ill-formed (a primitive monoid has no unit): the kernel faults on the
    # row, and the chunk's rerun raises the interpreter's own error.
    term = BinOp("==", Singleton("sum", Var("x")), Const(42))
    evaluator, compiler = _engines(db)
    kernel = compiler.compile_kernel(term)
    assert kernel.fn(execution(), {"x": []}, 0) == ([], 0, None)
    assert _outcome(lambda: _run(kernel, {"x": 41})) == _outcome(
        lambda: evaluator.evaluate(term, {"x": 41})
    )


def test_term_too_deep_for_one_expression_compiles(db, compiled_sources):
    # Python refuses to parse more than 200 levels of parentheses; the
    # comprehension form of a deep if-chain would hit that, so its deep
    # subterms are row functions of their own.
    term = Const(0)
    for depth in range(1, 120):
        term = If(BinOp("==", Var("x"), Const(depth)), Const(depth), term)
    evaluator, compiler = _engines(db)
    kernel = compiler.compile_kernel(term)
    [source] = compiled_sources
    assert "nonlocal _k" in source  # a row function per 32 levels
    for x in (0, 1, 119, 120):
        assert _run(kernel, {"x": x}) == evaluator.evaluate(term, {"x": x})


def test_memo_distinguishes_equal_constants_of_different_types(db):
    # Python's cross-type equality makes Const(True) == Const(1) ==
    # Const(1.0) with equal hashes; the memo must not serve one constant's
    # kernel for another (fuzzer-found: a some-head Const(True) received
    # the kernel of a sum-head Const(1), yielding a non-boolean predicate).
    _, compiler = _engines(db)

    def value(term):
        return _run(compiler.compile_kernel(term), {})

    assert value(Const(1)) is not value(T)
    assert value(T) is True
    assert value(Const(1)) == 1
    assert type(value(Const(1.0))) is float
    assert type(value(Const(0))) is int
    assert value(F) is False


def test_compiled_terms_are_memoized_structurally(db):
    _, compiler = _engines(db)
    term = BinOp("==", path("r", "k"), Const(3))
    assert compiler.compile_kernel(term) is compiler.compile_kernel(term)
    # Value and predicate lowerings are distinct entries.
    assert compiler.compile_kernel(term) is not compiler.compile_predicate_kernel(
        term
    )


def test_compiled_query_reuses_one_compiler(db):
    pipeline = QueryPipeline(db)
    compiled = pipeline.compile_oql("select r.v from r in R where r.k > 2")
    assert compiled.expr_compiler() is compiled.expr_compiler()
    assert isinstance(compiled.expr_compiler(), ExprCompiler)


def test_kernel_caches_stop_growing_after_the_first_executions(
    databases, monkeypatch
):
    # The physical plan is kept per compiled query and database state, and
    # its operators hold their kernels: after the first execution no
    # execution lowers a term, or looks one up.
    walked = []
    kernel = compile_module.ExprCompiler._kernel
    monkeypatch.setattr(
        compile_module.ExprCompiler,
        "_kernel",
        lambda self, kind, term: walked.append(term) or kernel(self, kind, term),
    )
    grew = {}
    steady_walks = 0
    for query in CORPUS:
        database = databases[query.family]
        compiled = QueryPipeline(database).compile_oql(query.oql)
        compiler = compiled.expr_compiler()
        sizes = []
        for _ in range(50):
            del walked[:]
            compiled.execute(database)
            sizes.append(len(compiler._memo))
        steady_walks += len(walked)
        if sizes[0] != sizes[-1]:
            grew[query.name] = (sizes[0], sizes[-1])
    assert grew == {}
    assert steady_walks == 0


# ---------------------------------------------------------------------------
# Cold compile: each shape compiles once a process, a fault compiles nothing
# ---------------------------------------------------------------------------


def _compile_spy(sources: list[str]):
    """A stand-in for the ``compile`` the emitter's module calls (a module
    global shadows the builtin) that records every source text."""

    def spy(source, *args, **kwargs):
        sources.append(source)
        return builtins.compile(source, *args, **kwargs)

    return spy


@pytest.fixture()
def compiled_sources(monkeypatch):
    """Every source text the emitter hands Python's ``compile()``, starting
    from an empty code cache."""
    sources: list[str] = []
    monkeypatch.setattr(
        compile_module, "compile", _compile_spy(sources), raising=False
    )
    _factory.cache_clear()
    return sources


def _is_statement_form(source: str) -> bool:
    return "while _i < n" in source


def _cold_sweep(databases) -> list:
    """Every corpus query compiled and run on a plan cache that has never
    seen it."""
    return [
        QueryPipeline(databases[query.family]).run_oql(query.oql)
        for query in CORPUS
    ]


def test_cold_corpus_sweep_compiles_each_shape_once(databases, compiled_sources):
    first = _cold_sweep(databases)
    # Nothing with a row loop in it is ever generated ...
    assert not any(_is_statement_form(source) for source in compiled_sources)
    # ... and the ~240 kernels of a sweep are under a hundred shapes (two
    # compile() calls per kernel, 482 a sweep, before the code cache).
    assert 0 < len(compiled_sources) <= 100
    assert len(set(compiled_sources)) == len(compiled_sources)
    del compiled_sources[:]
    assert _cold_sweep(databases) == first
    assert compiled_sources == []


def _chunked(kernel, columns: dict, n: int, size: int, ex=None):
    """Drive *kernel* in *ex* over *n* rows in chunks of *size*, as an
    operator would: ``(values, t, error type, error text)`` at the first
    fault."""
    ex = execution() if ex is None else ex
    values: list = []
    for start in range(0, n, size):
        stop = min(start + size, n)
        chunk = {name: column[start:stop] for name, column in columns.items()}
        got, t, err = kernel.fn(ex, chunk, stop - start)
        values.extend(got[:t])
        if err is not None:
            return values, len(values), type(err), str(err)
    return values, n, None, None


def _sum_chain(operators: int) -> BinOp:
    term = _TEN_OVER_X
    for _ in range(operators - 1):
        term = BinOp("+", term, Const(1))
    return term


def _row_by_row(evaluator, term, predicate: bool, columns: dict, n: int):
    """The reference: the AST interpreter, one row at a time."""
    values: list = []
    for i in range(n):
        try:
            value = evaluator.evaluate(
                term, {name: column[i] for name, column in columns.items()}
            )
            if predicate:
                if value is NULL:
                    value = False
                elif value is not True and value is not False:
                    raise EvaluationError(
                        "predicate did not evaluate to a boolean"
                    )
        except Exception as err:  # noqa: BLE001 - the fault is the result
            return values, i, type(err), str(err)
        values.append(value)
    return values, n, None, None


_ROWS = 20
_TEN_OVER_X = BinOp("/", Const(10), X)
_BAG12, _BAG10 = BagValue([1, 2]), BagValue([1, 0])


def _sum_over_x(head, *filters):
    """``sum{ head | v <- x, filters }``."""
    quals = (Generator("v", X),) + tuple(Filter(f) for f in filters)
    return Comprehension("sum", head, quals)


#: name -> (term, is predicate, a good x, the x that faults)
_FAULTS = {
    "division-by-zero": (_TEN_OVER_X, False, 5, 0),
    "modulo-by-zero": (BinOp("%", Const(10), X), False, 5, 0),
    # With typechecking off an ill-typed strict operator reaches execution:
    # the interpreter's TypeError arm.
    "ill-typed-arithmetic": (BinOp("+", Const(1), X), False, 5, "a"),
    "ill-typed-comparison": (BinOp("<", X, Const(1)), False, 0, "a"),
    "non-boolean-predicate": (X, True, True, 7),
    "non-boolean-if": (If(X, Const(1), Const(2)), False, False, 7),
    "non-boolean-not": (Not(X), False, True, 7),
    "unbound-parameter": (
        If(BinOp("==", X, Const(0)), Param("p"), Const(1)), False, 5, 0,
    ),
    "projection-off-non-record": (Proj(X, "a"), False, Record(a=1), 5),
    "inside-let-body": (
        Let("v", X, BinOp("/", Const(10), Var("v"))), False, 5, 0,
    ),
    "inside-record-field": (
        RecordCons((("a", X), ("b", _TEN_OVER_X))), False, 5, 0,
    ),
    "reached-side-of-and": (
        BinOp("and", BinOp("<", X, Const(9)), BinOp(">", _TEN_OVER_X, Const(1))),
        True, 5, 0,
    ),
    "reached-side-of-or": (
        BinOp("or", BinOp(">", X, Const(9)), BinOp(">", _TEN_OVER_X, Const(1))),
        True, 5, 0,
    ),
    "merge-of-non-collection": (
        Merge("set", Singleton("set", Const(1)), X), False, SetValue([2]), 7,
    ),
    "unknown-extent": (
        If(BinOp("==", X, Const(0)), Extent("Nope"), Const(1)), False, 5, 0,
    ),
    # Forty levels deep: the fault is raised inside a row function.
    "inside-a-row-function": (_sum_chain(40), False, 5, 0),
    # A comprehension is a generated fold; its faults are the interpreter's.
    "fold-head": (_sum_over_x(BinOp("/", Const(10), Var("v"))), False, _BAG12, _BAG10),
    "fold-filter": (
        _sum_over_x(Var("v"), BinOp(">", BinOp("/", Const(10), Var("v")), Const(1))),
        False, _BAG12, _BAG10,
    ),
    "fold-domain-not-a-collection": (_sum_over_x(Var("v")), False, _BAG12, 7),
    # A NULL domain folds to the zero, which the division then meets.
    "fold-null-domain-is-zero": (
        BinOp("/", Const(10), _sum_over_x(Var("v"))), False, _BAG12, NULL,
    ),
    # ``all`` is decided by 10 / 20 > 1 before the 0 it never reaches: the
    # good rows answer False; the bad row reaches its 0.
    "fold-all-decided-before-a-fault": (
        Comprehension(
            "all",
            BinOp(">", BinOp("/", Const(10), Var("v")), Const(1)),
            (Generator("v", X),),
        ),
        False, ListValue([20, 0]), ListValue([1, 0]),
    ),
}


@pytest.mark.parametrize("chunk_size", [1, 7, 1024])
@pytest.mark.parametrize("fault_row", [0, _ROWS // 2, _ROWS - 1])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_fault_matrix_matches_row_by_row_interpreter(
    fault, fault_row, chunk_size, db, compiled_sources
):
    term, predicate, good, bad = _FAULTS[fault]
    columns = {"x": [good] * _ROWS}
    columns["x"][fault_row] = bad
    evaluator, compiler = _engines(db)
    expected = _row_by_row(evaluator, term, predicate, columns, _ROWS)
    assert expected[1] == fault_row and expected[2] is not None
    kernel = compiler._kernel("pred" if predicate else "expr", term)
    # One compile() per kernel, at lowering; a fault compiles nothing,
    # however many there are.
    assert len(compiled_sources) == 1
    ex = execution(db)
    assert _chunked(kernel, columns, _ROWS, chunk_size, ex) == expected
    assert _chunked(kernel, columns, _ROWS, chunk_size, ex) == expected
    assert len(compiled_sources) == 1


@pytest.mark.parametrize("chunk_size", [1, 7, 1024])
@pytest.mark.parametrize(
    "term",
    [
        BinOp("and", BinOp("!=", X, Const(0)), BinOp(">", _TEN_OVER_X, Const(1))),
        BinOp("or", BinOp("==", X, Const(0)), BinOp(">", _TEN_OVER_X, Const(1))),
    ],
    ids=["and", "or"],
)
def test_short_circuited_side_does_not_fault(term, chunk_size, db):
    columns = {"x": [5, 0, 20, 0]}
    evaluator, compiler = _engines(db)
    expected = _row_by_row(evaluator, term, True, columns, 4)
    assert expected[1:] == (4, None, None)
    kernel = compiler.compile_predicate_kernel(term)
    assert _chunked(kernel, columns, 4, chunk_size) == expected


@pytest.mark.parametrize("operators", [60, 70])
def test_arithmetic_chain_too_long_for_one_expression_compiles(
    operators, db, compiled_sources
):
    # Past ~65 chained operators Python no longer parses the comprehension
    # form as one expression; the chain's deep end is then a row function,
    # with the same values and the same fault.
    term = _sum_chain(operators)
    evaluator, compiler = _engines(db)
    kernel = compiler.compile_kernel(term)
    [source] = compiled_sources
    assert ("nonlocal _k" in source) == (operators > 32)
    for columns in ({"x": [5, 2, 1, 10]}, {"x": [5, 2, 0, 10]}):
        expected = _row_by_row(evaluator, term, False, columns, 4)
        assert _chunked(kernel, columns, 4, 1024) == expected
        assert _chunked(kernel, columns, 4, 1) == expected
    assert expected[1:] == (2, DivisionByZeroError, "division by zero")


def _if_chain(depth: int) -> If:
    term = BinOp("/", Const(1), Var("z"))
    for level in range(1, depth):
        term = If(BinOp("==", X, Const(level)), Const(level), term)
    return term


@pytest.mark.parametrize("depth", range(95, 102))
def test_if_chain_at_the_compile_limits_matches_interpreter(depth, db):
    # Around 100 nested ifs Python would stop parsing the comprehension
    # form as one expression (parenthesis depth); on either side of that
    # limit the kernel must truncate and fault like the interpreter.
    term = _if_chain(depth)
    evaluator, compiler = _engines(db)
    kernel = compiler.compile_kernel(term)
    columns = {"x": [1, depth - 1, 0, 2], "z": [1, 1, 0, 1]}
    expected = _row_by_row(evaluator, term, False, columns, 4)
    assert expected[1:3] == (2, DivisionByZeroError)
    assert _chunked(kernel, columns, 4, 1024) == expected


def test_terms_equal_up_to_column_names_share_code_not_columns(db):
    def kernel_for(name):
        _, compiler = _engines(db)
        term = BinOp(
            "and", BinOp(">", path(name, "k"), Const(2)), Not(IsNull(Var(name)))
        )
        return compiler.compile_predicate_kernel(term)

    left, right = kernel_for("_e3"), kernel_for("_u17")
    assert left.fn is not right.fn
    assert left.fn.__code__ is right.fn.__code__
    rows, nulls = [Record(k=1), Record(k=5), NULL], [NULL] * 3
    expected = ([False, True, False], 3, None)
    ex = execution(db)
    assert left.fn(ex, {"_e3": rows, "_u17": nulls}, 3) == expected
    assert right.fn(ex, {"_u17": rows, "_e3": nulls}, 3) == expected
    # ... and name their own column when it is missing.
    for kernel, name in ((left, "_e3"), (right, "_u17")):
        values, t, err = kernel.fn(ex, {}, 1)
        assert (values, t) == ([], 0)
        assert str(err) == f"unbound variable {name!r}; in scope: []"


def test_equal_constants_of_different_types_share_code_and_keep_values(db):
    _, compiler = _engines(db)
    kernels = [compiler.compile_kernel(Const(v)) for v in (True, 1, 1.0)]
    assert len({id(kernel.fn.__code__) for kernel in kernels}) == 1
    values = [kernel.fn(execution(db), {}, 1)[0][0] for kernel in kernels]
    assert [type(value) for value in values] == [bool, int, float]


_NAMES = ("x", "y", "z")
_leaves = st.one_of(
    st.sampled_from([Var(name) for name in _NAMES]),
    st.sampled_from([Const(0), Const(1), Const(2), T, F, N, Param("p")]),
)


def _grow(children):
    arith = st.sampled_from(["+", "-", "*", "/", "==", "<", "and", "or"])
    return st.one_of(
        st.builds(BinOp, arith, children, children),
        st.builds(If, children, children, children),
        st.builds(Not, children),
        st.builds(IsNull, children),
        st.builds(Proj, children, st.sampled_from(["a", "b"])),
        st.builds(Let, st.just("v"), children, children),
        st.builds(lambda a, b: RecordCons((("a", a), ("b", b))), children, children),
    )


_terms = st.recursive(_leaves, _grow, max_leaves=12)
_values = st.one_of(
    st.integers(-2, 2),
    st.booleans(),
    st.just(NULL),
    st.builds(lambda a, b: Record(a=a, b=b), st.integers(0, 2), st.just(NULL)),
)
_envs = st.fixed_dictionaries({name: _values for name in _NAMES})


def _outcomes(kernel, renaming, envs):
    columns = {
        renaming[name]: [env[name] for env in envs] for name in _NAMES
    }
    values, t, err = kernel.fn(execution(), columns, len(envs))
    # repr, not ==: True and 1 must not pass for each other.
    return repr(values), t, type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(
    term=_terms,
    fresh=st.permutations(["_e3", "_u17", "y", "x"]),
    envs=st.lists(_envs, min_size=1, max_size=4),
    predicate=st.booleans(),
)
def test_renamed_terms_emit_the_same_source_and_agree_with_a_fresh_compile(
    term, fresh, envs, predicate
):
    # compile() is only ever reached on a code-cache miss, so "the renamed
    # term emitted the same text" is "it compiled nothing".
    sources: list[str] = []
    database = Database()
    kind = "pred" if predicate else "expr"
    renaming = dict(zip(_NAMES, fresh))
    renamed = substitute(term, {a: Var(b) for a, b in renaming.items()})
    assert free_vars(renamed) == {renaming[name] for name in free_vars(term)}
    compile_module.compile = _compile_spy(sources)
    try:
        _factory.cache_clear()
        original = _engines(database)[1]._kernel(kind, term)
        _outcomes(original, dict(zip(_NAMES, _NAMES)), envs)  # error path too
        del sources[:]
        shared = _engines(database)[1]._kernel(kind, renamed)
        through_cache = _outcomes(shared, renaming, envs)
        assert sources == []
        _factory.cache_clear()
        alone = _engines(database)[1]._kernel(kind, renamed)
        assert _outcomes(alone, renaming, envs) == through_cache
        assert sources != [] or alone.trivial_true  # really uncached
    finally:
        del compile_module.compile
        _factory.cache_clear()


def test_code_cache_is_bounded(db):
    _, compiler = _engines(db)
    bound = _factory.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 64):
        compiler.compile_kernel(Proj(X, f"a{i}"))  # a new shape each
        assert _factory.cache_info().currsize <= bound
    assert _factory.cache_info().currsize == bound
    _factory.cache_clear()


# ---------------------------------------------------------------------------
# Blocking operators build exactly once per execution
# ---------------------------------------------------------------------------


def _exhaust_twice(op):
    """Two passes over *op* in one execution, and that execution."""
    ex = Execution(op)
    return list(op.rows(ex)), list(op.rows(ex)), ex


def test_hash_join_build_side_runs_once(db):
    context = _Context(db)
    left, right = PScan(context, "R", "r"), PScan(context, "S", "s")
    join = PHashJoin(
        context,
        left,
        right,
        (path("r", "k"),),
        (path("s", "k"),),
        Const(True),
        ("s",),
        False,
        ((False,), (False,)),
    )
    first, second, ex = _exhaust_twice(join)
    assert len(first) == len(second) == 6
    # The build (right) side was scanned exactly once; the probe side re-ran.
    assert ex.counts[right].rows_produced == 6
    assert ex.counts[left].rows_produced == 12


def test_nested_loop_join_inner_runs_once(db):
    context = _Context(db)
    left, right = PScan(context, "R", "r"), PScan(context, "S", "s")
    join = PHashJoin(
        context,
        left,
        right,
        (),
        (),
        BinOp("==", path("r", "k"), path("s", "k")),
        ("s",),
        False,
        ((), ()),
    )
    first, second, ex = _exhaust_twice(join)
    assert len(first) == len(second) == 6
    assert ex.counts[right].rows_produced == 6
    assert ex.counts[left].rows_produced == 12


def test_hash_nest_groups_built_once(db):
    context = _Context(db)
    child = PScan(context, "S", "s")
    nest = PHashNest(
        context, child, SET, path("s", "w"), ("s",), (), "ws", Const(True), (False,)
    )
    first, second, ex = _exhaust_twice(nest)
    assert len(first) == len(second) == 6
    assert ex.counts[child].rows_produced == 6


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE annotations
# ---------------------------------------------------------------------------

_STATS_QUERY = "select e from e in Employees where e.salary > 30000"


class TestExplainAnalyzeAnnotations:
    def test_compiled_mode_and_eval_time_reported(self, company_db):
        stats = QueryPipeline(company_db).run_oql_stats(_STATS_QUERY)
        modes = {op.eval_mode for op in stats.operators}
        assert "compiled" in modes
        assert "" in modes  # scans evaluate no expressions
        assert any(op.eval_ms > 0 for op in stats.operators if op.eval_mode)

    def test_report_renders_eval_columns(self, company_db):
        report = QueryPipeline(company_db).run_oql_stats(_STATS_QUERY).report()
        assert "exprs=compiled" in report
        assert "eval=" in report

    def test_unprofiled_execution_skips_eval_timers(self, company_db):
        compiled = QueryPipeline(company_db).compile_oql(_STATS_QUERY)
        physical = compiled.physical(company_db)
        ex = Execution(physical)
        physical.value(ex)

        def walk(op):
            yield op
            for child in op.children():
                yield from walk(child)

        assert all(ex.counts[op].eval_ms == 0.0 for op in walk(physical))

    def test_paper_queries_fully_compiled(self, company_db):
        # Every operator that evaluates expressions runs kernels: a term
        # kind losing its handler would refuse the plan, not degrade.
        for source in (
            "select distinct struct( E: e.name, C: c.name ) "
            "from e in Employees, c in e.children",
            "select distinct struct( E: e, M: count( select distinct c "
            "from c in e.children where for all d in e.manager.children: "
            "c.age > d.age ) ) from e in Employees",
        ):
            stats = QueryPipeline(company_db).run_oql_stats(source)
            modes = {op.eval_mode for op in stats.operators if op.eval_mode}
            assert modes == {"compiled"}, source


# ---------------------------------------------------------------------------
# Differential wiring
# ---------------------------------------------------------------------------


def test_oracle_agreement_on_null_heavy_query(db):
    verdict = check_sample(
        "select r.v from r in R where r.k >= :low and r.k < :high",
        {"low": 1, "high": 4},
        db,
    )
    assert verdict.agreed, verdict.describe()
