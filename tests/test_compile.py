"""The expression compiler: kernels must be indistinguishable from the
tree-walking interpreter.

Four groups of guarantees:

* **Three-valued NULL logic** — a parametrized sweep over comparisons,
  arithmetic, the full ``and``/``or`` truth tables, ``if``, projections
  off NULL, and division by zero, each checked for exact agreement between
  the kernel and :class:`~repro.calculus.evaluator.Evaluator` (same value,
  or same exception class).
* **Per-node fallback** — a residual comprehension subtree degrades that
  subtree to the interpreter, leaves the rest compiled, reports ``mixed``,
  and still produces the interpreter's value.
* **Blocking-operator memoization** — hash join, nested-loop join, and
  hash nest build their blocking side exactly once per execution even when
  their stream is re-entered; the regression is pinned by counting the
  build child's ``rows_produced``.
* **EXPLAIN ANALYZE annotations** — per-operator ``eval_mode`` and
  ``eval_ms`` reporting, including the rendered report text and the
  no-profiling default.
"""

from __future__ import annotations

import pytest

from repro.calculus.evaluator import EvaluationError, Evaluator
from repro.calculus.monoids import SET
from repro.calculus.terms import (
    Apply,
    BinOp,
    Comprehension,
    Const,
    Generator,
    If,
    IsNull,
    Lambda,
    Let,
    Merge,
    Not,
    Null,
    Proj,
    Singleton,
    Var,
    Zero,
    path,
)
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.values import NULL, Record, SetValue
from repro.engine.compile import ExprCompiler, _Counter, _KernelEmitter
from repro.engine.physical import (
    PHashJoin,
    PHashNest,
    PNestedLoopJoin,
    PScan,
    _Context,
)
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
    evaluator = Evaluator(db)
    compiler = ExprCompiler()
    compiler.activate(evaluator, db)
    return evaluator, compiler


def _outcome(fn):
    """(value, None) on success, (None, exception class) on failure."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        return None, type(exc)


def _run(kernel, env):
    """Evaluate *kernel* on the one-row chunk holding *env*; a captured
    fault is raised, as an operator would replay it."""
    values, _, err = kernel.fn({name: [value] for name, value in env.items()}, 1)
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
    assert kernel.mode == "compiled"
    assert _outcome(lambda: _run(kernel, _ENV)) == expected


@pytest.mark.parametrize("term", _null_cases(), ids=repr)
def test_null_semantics_match_on_statement_form(term, db):
    # The statement loop normally runs only as the comprehension form's
    # error path; driven directly here, its success results must agree
    # with the interpreter (and hence with the comprehension form) too.
    evaluator, compiler = _engines(db)
    expected = _outcome(lambda: evaluator.evaluate(term, dict(_ENV)))
    emitter = _KernelEmitter(compiler, _Counter())
    statement = emitter._statement_kernel(term, False, emitter.gen)
    values, _, err = statement({name: [v] for name, v in _ENV.items()}, 1)
    assert ((values[0], None) if err is None else (None, type(err))) == expected


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
# Per-node fallback and memoization
# ---------------------------------------------------------------------------


def test_residual_comprehension_falls_back_per_node(db):
    comp = Comprehension("sum", Var("v"), (Generator("v", Var("xs")),))
    term = BinOp("+", comp, Const(1))
    evaluator, compiler = _engines(db)
    env = {"xs": SetValue([1, 2, 3])}
    kernel = compiler.compile_kernel(term)
    assert kernel.mode == "mixed"
    assert kernel.fallback_nodes >= 1 and kernel.compiled_nodes >= 1
    assert _run(kernel, env) == evaluator.evaluate(term, dict(env)) == 7


def test_monoid_constructors_compile(db):
    # Zero / Singleton / Merge roots (set operations evaluate as a merge of
    # two grouped columns) are emitted, not interpreted.
    term = Merge("set", Merge("set", Singleton("set", Var("x")), Zero("set")), Var("s"))
    evaluator, compiler = _engines(db)
    env = {"x": 1, "s": SetValue([2, 3])}
    kernel = compiler.compile_kernel(term)
    assert kernel.mode == "compiled"
    assert _run(kernel, env) == evaluator.evaluate(term, env) == SetValue([1, 2, 3])


@pytest.mark.parametrize(
    "term, mode",
    [
        # outside the emitted subset: that subtree goes to the interpreter
        (Apply(Lambda("v", BinOp("+", Var("v"), Const(1))), Var("x")), "mixed"),
        # ill-formed (a primitive monoid has no unit): cannot be emitted at
        # all, so the interpreter raises on it when evaluated
        (Singleton("sum", Var("x")), "interpreted"),
    ],
    ids=repr,
)
def test_what_the_emitter_cannot_lower_goes_to_the_interpreter(term, mode, db):
    evaluator, compiler = _engines(db)
    env = {"x": 41}
    kernel = compiler.compile_kernel(BinOp("==", term, Const(42)))
    assert kernel.mode == mode
    assert _outcome(lambda: _run(kernel, env)) == _outcome(
        lambda: evaluator.evaluate(BinOp("==", term, Const(42)), env)
    )


def test_term_too_deep_to_emit_is_interpreted_whole(db):
    # Python refuses to compile more than 100 levels of indentation; the
    # statement form of a deep if-chain hits that, and lowering degrades to
    # one interpreter call per row instead of failing to plan.
    term = Const(0)
    for depth in range(1, 120):
        term = If(BinOp("==", Var("x"), Const(depth)), Const(depth), term)
    evaluator, compiler = _engines(db)
    kernel = compiler.compile_kernel(term)
    assert kernel.mode == "interpreted"
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


# ---------------------------------------------------------------------------
# Blocking operators build exactly once per execution
# ---------------------------------------------------------------------------


def _exhaust_twice(op):
    return list(op.rows()), list(op.rows())


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
    )
    first, second = _exhaust_twice(join)
    assert len(first) == len(second) == 6
    # The build (right) side was scanned exactly once; the probe side re-ran.
    assert right.rows_produced == 6
    assert left.rows_produced == 12


def test_nested_loop_join_inner_runs_once(db):
    context = _Context(db)
    left, right = PScan(context, "R", "r"), PScan(context, "S", "s")
    join = PNestedLoopJoin(
        context,
        left,
        right,
        BinOp("==", path("r", "k"), path("s", "k")),
        ("s",),
        False,
    )
    first, second = _exhaust_twice(join)
    assert len(first) == len(second) == 6
    assert right.rows_produced == 6
    assert left.rows_produced == 12


def test_hash_nest_groups_built_once(db):
    context = _Context(db)
    child = PScan(context, "S", "s")
    nest = PHashNest(
        context, child, SET, path("s", "w"), ("s",), (), "ws", Const(True)
    )
    first, second = _exhaust_twice(nest)
    assert len(first) == len(second) == 6
    assert child.rows_produced == 6


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
        physical.value()

        def walk(op):
            yield op
            for child in op.children():
                yield from walk(child)

        assert all(op.eval_ms == 0.0 for op in walk(physical))

    def test_paper_queries_fully_compiled(self, company_db):
        # Regression guard: the paper's flagship shapes must not silently
        # regress to interpreter fallback (e.g. a Term kind losing its
        # handler).  Any non-empty mode other than "compiled" is a bug.
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
