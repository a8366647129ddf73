"""Every kernel is generated code, at any term depth.

A subterm more than ``_DEPTH`` levels below its expression's root is
emitted as a row function of its own (``_KernelEmitter.split``), so no
expression of a kernel nests deeper than Python parses.  The sweep below
nests each handler kind at depths either side of that limit and far past
it, and checks each kernel against the row-by-row interpreter by ``repr``,
faults included, at chunk sizes 1 and 1024; folds below a split keep
counting their work for the governor.  A λ is the one term kind with no
handler: prepare leaves none in a closed term of relational type, and a
plan that holds one is refused when it is built.
"""

from __future__ import annotations

import sys

import pytest

from kernel_runs import execution
from repro.calculus.evaluator import Evaluator, evaluate
from repro.calculus.terms import (
    Apply,
    BinOp,
    Comprehension,
    Const,
    Extent,
    Filter,
    Generator,
    If,
    Lambda,
    Let,
    Not,
    Param,
    Proj,
    RecordCons,
    Singleton,
    Var,
    comprehension,
    path,
    subterms,
)
from repro.core.normalization import prepare
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.datagen import company_database
from repro.data.values import NULL, BagValue, ListValue, Record
from repro.engine import compile as compile_module
from repro.engine.compile import ExprCompiler
from repro.engine.governor import Governor
from repro.errors import GovernorError, PlanningError, QueryError

X = Var("x")
_TEN_OVER_X = BinOp("/", Const(10), X)
_POSITIVE = BinOp(">", _TEN_OVER_X, Const(0))
_TAKEN = BinOp(">", X, Const(-1))  # true on every row
_UNTAKEN = BinOp("<", X, Const(-1))  # false on every row


def _nest(step, leaf, depth: int):
    term = leaf
    for level in range(depth):
        term = step(term, level)
    return term


def _let_body(depth: int):
    # A let bound at the root and read at the leaf, below every split.
    leaf = BinOp("/", Const(10), Var("top"))

    def step(t, level):
        v = f"v{level}"
        return Let(v, BinOp("+", X, Const(level)), BinOp("+", t, Var(v)))

    return Let("top", X, _nest(step, leaf, depth - 1))


def _fold(monoid, head, t, level, filters=()):
    v = f"v{level}"
    return Comprehension(monoid, head(Var(v)), (Generator(v, Var("xs")), *filters))


#: kind -> depth -> term over columns x (an int, 0 faults) and xs ({{1}}).
FAMILIES = {
    "binop-left": lambda d: _nest(lambda t, _: BinOp("+", t, Const(1)), _TEN_OVER_X, d),
    "binop-right": lambda d: _nest(lambda t, _: BinOp("-", Const(1), t), _TEN_OVER_X, d),
    "and": lambda d: _nest(lambda t, _: BinOp("and", _TAKEN, t), _POSITIVE, d),
    "or": lambda d: _nest(lambda t, _: BinOp("or", t, _UNTAKEN), _POSITIVE, d),
    "if-then": lambda d: _nest(lambda t, _: If(_TAKEN, t, Const(0)), _TEN_OVER_X, d),
    "if-else": lambda d: _nest(lambda t, _: If(_UNTAKEN, Const(0), t), _TEN_OVER_X, d),
    "let-value": lambda d: _nest(
        lambda t, level: Let(f"v{level}", t, BinOp("+", Var(f"v{level}"), Const(1))),
        _TEN_OVER_X,
        d,
    ),
    "let-body": _let_body,
    "proj": lambda d: _nest(
        lambda t, _: Proj(RecordCons((("a", t), ("b", X))), "a"), _TEN_OVER_X, d
    ),
    "record": lambda d: _nest(
        lambda t, _: RecordCons((("a", X), ("b", t))), _TEN_OVER_X, d
    ),
    "not": lambda d: _nest(lambda t, _: Not(t), _POSITIVE, d),
    "fold-head": lambda d: _nest(
        lambda t, level: _fold("sum", lambda v: BinOp("+", t, v), t, level),
        _TEN_OVER_X,
        d,
    ),
    "fold-filter": lambda d: _nest(
        lambda t, level: _fold(
            "some", lambda v: BinOp(">", v, Const(0)), t, level, (Filter(t),)
        ),
        _POSITIVE,
        d,
    ),
    "fold-domain": lambda d: _nest(
        lambda t, level: Comprehension(
            "bag", BinOp("+", Var(f"v{level}"), Const(1)), (Generator(f"v{level}", t),)
        ),
        Comprehension("bag", _TEN_OVER_X, ()),
        d,
    ),
}
DEPTHS = [1, 31, 32, 33, 100, 300]
_COLUMNS = {"x": [2, 0, 4], "xs": [BagValue([1])] * 3}


def _engines():
    return Evaluator(Database()), ExprCompiler()


def _chunked(kernel, columns: dict, size: int, governor=None):
    """*kernel* over the rows of *columns* in chunks of *size*, in one run
    under *governor*: the values by ``repr`` up to the first fault, its
    row, class and text."""
    ex = execution(Database(), governor=governor)
    n = len(columns["x"])
    values: list = []
    for start in range(0, n, size):
        stop = min(start + size, n)
        chunk = {name: column[start:stop] for name, column in columns.items()}
        got, t, err = kernel.fn(ex, chunk, stop - start)
        values.extend(got[:t])
        if err is not None:
            return repr(values), len(values), type(err), str(err)
    return repr(values), n, None, None


def _row_by_row(evaluator, term, columns: dict):
    n = len(columns["x"])
    values: list = []
    for i in range(n):
        try:
            values.append(
                evaluator.evaluate(term, {k: col[i] for k, col in columns.items()})
            )
        except Exception as err:  # noqa: BLE001 - the fault is the result
            return repr(values), i, type(err), str(err)
    return repr(values), n, None, None


@pytest.fixture(autouse=True)
def deep_stack():
    """Room for a 300-deep term: its own hash and the interpreter recurse
    on it, as the emitter does."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    yield
    sys.setrecursionlimit(limit)


@pytest.fixture()
def sources(monkeypatch):
    """Every kernel source lowered from now on."""
    seen: list[str] = []
    factory = compile_module._factory
    monkeypatch.setattr(
        compile_module, "_factory", lambda source: seen.append(source) or factory(source)
    )
    return seen


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_every_handler_compiles_at_every_depth(kind, depth, sources):
    term = FAMILIES[kind](depth)
    evaluator, compiler = _engines()
    kernel = compiler.compile_kernel(term)
    [source] = sources
    # Row functions appear once the term outgrows one expression (at 31
    # and 32 that depends on the levels each kind's step adds).
    if depth not in (31, 32):
        assert ("def _h" in source) == (depth > 32)
    expected = _row_by_row(evaluator, term, _COLUMNS)
    assert expected[1] == 1 and expected[2] is not None  # x = 0 faults
    for size in (1, 1024):
        assert _chunked(kernel, _COLUMNS, size) == expected


@pytest.mark.parametrize("kind", ["fold-head", "fold-filter", "fold-domain"])
def test_folds_below_a_split_tick_the_governor(kind, sources, monkeypatch):
    # Twelve nested folds fit one expression; split every third level, they
    # trip a tiny work budget at the same row as they do unsplit.  Row 1
    # does not fault: fold-domain's leaf divides before any of its folds
    # reaches an element, so a fault there would pre-empt the count.
    depth = 12
    term = FAMILIES[kind](depth)
    columns = {**_COLUMNS, "x": [2, 1, 0]}
    outcomes = []
    for split in (False, True):
        if split:
            monkeypatch.setattr(compile_module, "_DEPTH", 3)
        for size in (1, 1024):
            kernel = ExprCompiler().compile_kernel(term)
            governor = Governor(max_rows=depth + depth // 2)
            outcomes.append(_chunked(kernel, columns, size, governor))
    assert ["def _h" in source for source in sources] == [False, False, True, True]
    assert outcomes[:2] == outcomes[2:]
    # Row 0 settles `depth` elements, the folds in a domain included; row 1
    # goes past the budget.
    for _, row, error, _ in outcomes:
        assert row == 1 and issubclass(error, GovernorError)


def _three_views() -> tuple[QueryPipeline, Database]:
    # Each view within the parser's nesting limit, each one level of the
    # next (one copy, so the head stays small): a 75-deep head.
    database = Database()
    database.add_extent("E", [Record(a=i) for i in range(4)])
    pipeline = QueryPipeline(database)
    below = ":x"
    for name in ("C1", "C2", "C3"):
        pipeline.define_view(f"define {name} as " + " + ".join([below] + [":x"] * 24))
        below = name
    return pipeline, database


def test_a_head_deeper_than_one_expression_runs_compiled():
    pipeline, database = _three_views()
    source = "select e.a + C3 + C2 from e in E"
    stats = pipeline.run_oql_stats(source, {"x": 1})
    [reduce] = [op for op in stats.operators if op.operator.startswith("Reduce")]
    assert reduce.eval_mode == "compiled"
    compiled = pipeline.compile_oql(source)
    got = compiled.execute(database, {"x": 1})
    assert repr(got) == repr(evaluate(compiled.term, database, params={"x": 1}))


# ---------------------------------------------------------------------------
# What a λ does now
# ---------------------------------------------------------------------------

_EMPLOYEES = ("e", Extent("Employees"))


def test_if_of_lambdas_normalizes_away_and_runs_compiled():
    # (if c then f else g) a → if c then f a else g a, then N1 on each.
    fn = If(
        BinOp(">", path("e", "salary"), Const(0)),
        Lambda("v", BinOp("+", Var("v"), Const(1))),
        Lambda("w", BinOp("*", Var("w"), Const(2))),
    )
    term = comprehension("sum", Apply(fn, Const(1)), _EMPLOYEES)
    assert not any(isinstance(sub, (Lambda, Apply)) for sub in subterms(prepare(term)))
    database = company_database()
    stats = QueryPipeline(database).compile_term(term).run(database, profile=True)
    assert stats.result == evaluate(term, database) == 120
    assert {op.eval_mode for op in stats.operators} <= {"compiled", ""}


@pytest.mark.parametrize("typecheck", [True, False])
def test_an_applied_parameter_is_refused_when_planned(typecheck):
    # An application no λ reduces (here of a parameter) has no kernel.
    term = comprehension("sum", Apply(Param("g"), Const(1)), _EMPLOYEES)
    pipeline = QueryPipeline(company_database(), OptimizerOptions(typecheck=typecheck))
    with pytest.raises(PlanningError, match="no kernel for the Apply term") as caught:
        pipeline.compile_term(term)
    assert caught.value.stage == "plan"


def test_a_singleton_of_a_primitive_monoid_faults_only_when_reached():
    database = Database()
    database.add_extent("Nope", [])
    database.add_extent("One", [Record(a=1)])
    pipeline = QueryPipeline(database, OptimizerOptions(typecheck=False))

    def run(extent: str):
        term = comprehension("sum", Singleton("sum", Var("e")), ("e", Extent(extent)))
        return pipeline.compile_term(term).execute(database)

    assert run("Nope") == 0
    with pytest.raises(QueryError, match="singleton of primitive monoid sum"):
        run("One")


# ---------------------------------------------------------------------------
# Folds past CPython's block and indentation limits
# ---------------------------------------------------------------------------

_WIDE = {
    "x": [2, 4, 0, 5],
    "one": [ListValue([1])] * 4,
    "xs": [ListValue([1, 3])] * 4,
    "ys": [BagValue([1, NULL, 2])] * 4,
}


def _many_generators(count: int):
    """``sum{ v0 + v<count-1> + 10 / x | v0 <- one, v1 <- one, … }``, every
    eighth domain ``ys`` (three elements, one NULL) and the rest ``one``;
    a fault on x = 0."""
    head = BinOp("+", BinOp("+", Var("v0"), Var(f"v{count - 1}")), _TEN_OVER_X)
    domains = [Var("ys") if i % 8 == 7 else Var("one") for i in range(count)]
    return Comprehension("sum", head, tuple(Generator(f"v{i}", d) for i, d in enumerate(domains)))


def _many_filters(count: int):
    """``bag{ v | <count/2 filters on x>, v <- ys, <the rest on v> }``: the
    leading ones fault on x = 0 and fail on x = 2 (before any loop), the
    trailing ones skip v = 2 and, being NULL there, v = NULL."""
    leading = [Filter(BinOp("<", _TEN_OVER_X, Const(i + 3))) for i in range(count // 2)]
    trailing = [Filter(BinOp("!=", Var("v"), Const(2))) for _ in range(count - count // 2)]
    return Comprehension("bag", Var("v"), (*leading, Generator("v", Var("ys")), *trailing))


def _nested_folds(count: int):
    """*count* folds, each in the head of the one around it, cycling
    sum, max, min, avg and prod, over domains of one, two and three
    elements (one NULL)."""
    term = _TEN_OVER_X
    for level in reversed(range(count)):
        monoid = ("sum", "max", "min", "avg", "prod")[level % 5]
        v = f"v{level}"
        domain = Var(("one", "xs", "one", "ys")[level % 4])
        term = Comprehension(monoid, BinOp("+", Var(v), term), (Generator(v, domain),))
    return term


LIMIT_CASES = {
    "40-generators": lambda: _many_generators(40),
    "150-filters": lambda: _many_filters(150),
    "400-filters": lambda: _many_filters(400),
    "12-nested-folds": lambda: _nested_folds(12),
}


def _interpreter_ticks(term, columns: dict) -> int:
    governor = Governor(max_rows=10**9)
    evaluator = Evaluator(Database(), governor=governor)
    for i in range(len(columns["x"])):
        evaluator.evaluate(term, {k: col[i] for k, col in columns.items()})
    return governor.ticks


@pytest.mark.parametrize("case", sorted(LIMIT_CASES))
def test_folds_past_the_nesting_limits_compile_and_agree(case, sources, monkeypatch):
    term = LIMIT_CASES[case]()
    kernel = ExprCompiler().compile_kernel(term)
    [source] = sources
    assert "def _f" in source and "def _h" not in source
    expected = _row_by_row(Evaluator(Database()), term, _WIDE)
    assert expected[1] == 2 and expected[2] is not None  # x = 0 faults
    for size in (1, 3, 1024):
        assert _chunked(kernel, _WIDE, size) == expected
    # Without the fault, generated code answers alone (its error path is
    # gone) and settles the units the interpreter ticks.
    clean = {name: column[:2] + column[3:] for name, column in _WIDE.items()}
    governor = Governor(max_rows=10**9)
    with monkeypatch.context() as patch:
        patch.setattr(compile_module, "_interpreted", lambda term, predicate: None)
        got = _chunked(ExprCompiler().compile_kernel(term), clean, 1024, governor)
    assert got == _row_by_row(Evaluator(Database()), term, clean)
    assert governor.ticks == _interpreter_ticks(term, clean) > 0


def test_forty_generators_continue_in_generator_functions(sources):
    ExprCompiler().compile_kernel(_many_generators(40))
    [source] = sources
    assert source.count("def _g") == (40 - 1) // compile_module._LOOPS
