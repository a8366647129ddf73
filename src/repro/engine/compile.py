"""Expression compilation: calculus terms → chunk kernels.

The physical operators evaluate a handful of :class:`~repro.calculus.terms.
Term` trees — select predicates, map heads, join keys, unnest paths, reduce
accumulators — once per row of every chunk.  Walking the AST through
:class:`~repro.calculus.evaluator.Evaluator` for every row pays a large
constant factor: a type-dispatch dictionary lookup, a bound-method call, two
``isinstance`` NULL tests, and (for binary operations) a chain of string
comparisons in ``apply_binop``, all per node per row.

This module removes that factor by *lowering* each term to a **kernel**: a
function ``fn(ex, cols, n) -> (values, t, error)`` that evaluates the term
over all *n* rows of a columnar :class:`~repro.engine.batch.Chunk`, reading
column lists hoisted into locals instead of an environment dict per row.
Everything a run varies — parameter values, the database, the governor —
it reads from *ex*, the :class:`~repro.engine.physical.Execution` it is
called in, so one kernel serves every execution of the plans that hold it.
A kernel is one generated body plus the definition:

* the **comprehension form** — the term as a single Python expression
  (walrus assignments standing in for temporaries), so the whole chunk
  evaluates as one list comprehension;
* **folds as row functions of statements** — each comprehension is a
  function of the row (``_fN(_i, <temps it reads>)``) defined before the
  comprehension and called where the fold sits: one ``for`` per generator,
  one ``if`` per filter, its accumulator a local and its monoid's merge
  inline;
* **row functions for deep terms** — a subterm more than :data:`_DEPTH`
  levels below its expression's root is a row function ``_hN`` too, so no
  expression nests deeper than Python parses, at any term depth;
* the **interpreter as its error path** — any exception in the
  comprehension reruns the chunk through :func:`_interpreted`, one
  ``Evaluator._eval`` call per row of an interpreter built from *ex*, so
  the faulting row and the error's class and text are the interpreter's by
  construction.

Kernels never raise mid-chunk: an exception at row *t* is returned as
``(values so far, t, error)`` so the caller can deliver the preceding rows
first and replay the error lazily (see :class:`CompiledKernel`).

Two properties are load-bearing:

* **Semantic equivalence.**  Every kernel reproduces the interpreter's
  values exactly, including three-valued NULL logic (strict NULL
  propagation through arithmetic and comparisons, short-circuiting
  ``and``/``or`` that yield NULL only when the short-circuit value is not
  reached, ``if`` taking the else-branch on a NULL condition) and object
  identity equality via :func:`~repro.data.values.identity_key`; generated
  code states no error behaviour of its own — a row the interpreter would
  fault on only has to raise *something*, at evaluation time, never
  eagerly at compile time.  The differential fuzz oracle checks every
  query against the calculus interpreter (see ``repro.testing.oracle``).
* **Totality.**  Every term kind a plan holds has a handler.  The one
  kind without — a λ or its application, which :func:`~repro.core.
  normalization.prepare` leaves in no closed term of relational type — is
  a :class:`~repro.errors.PlanningError` when the plan is built.

The compiler is cached per plan on :class:`~repro.core.pipeline.
CompiledQuery`, so the plan cache amortizes codegen along with planning.
What the plan cache cannot amortize — a first-seen query — is kept off
Python's ``compile()``, which cost more than the rest of such a query put
together: generated source carries no column names, so kernels of the same
shape, in any query of the process, are closures of one compiled factory
(:func:`_factory`), and a fault compiles nothing.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Mapping

from repro.calculus.evaluator import EvaluationError, Evaluator
from repro.calculus.monoids import CollectionMonoid, folder
from repro.calculus.terms import (
    BOOLEAN_OPS,
    BinOp,
    Comprehension,
    Const,
    Extent,
    Filter,
    If,
    IsNull,
    Let,
    Merge,
    Not,
    Null,
    Param,
    Proj,
    RecordCons,
    Singleton,
    Term,
    Var,
    Zero,
    free_vars,
)
from repro.data.values import (
    NULL,
    CollectionValue,
    ListValue,
    Record,
    SetValue,
    identity_key,
    layout_of,
)
from repro.engine.governor import charge_values
from repro.errors import GovernorError, PlanningError

#: A kernel: ``fn(ex, cols, n) -> (values, t, error)``.  *ex* is the
#: execution it runs in; *cols* maps column names to value lists (all at
#: least *n* long); rows ``[0, t)`` evaluated successfully into *values*, and
#: *error* is the exception row *t* raised (None when ``t == n``).  Kernels
#: never raise themselves.
KernelFn = Callable[[Any, Mapping[str, list], int], "tuple[list, int, Any]"]

#: Types whose ``==`` is plain value equality — the fast path that skips
#: :func:`identity_key` (which returns scalars unchanged anyway).
_SCALARS = frozenset((bool, int, float, str))


class CompiledKernel:
    """A term lowered to a chunk-level loop.

    ``fn(ex, cols, n)`` evaluates the term in execution *ex* over rows
    ``0..n-1`` of a columnar chunk and returns ``(values, t, error)``: the
    results for rows ``[0, t)``, plus the exception row *t* raised — or
    ``(values, n, None)`` when every row succeeded.  Capturing instead of raising is the
    contract that lets operators deliver the pre-error rows to their
    consumer before replaying the failure, so a short-circuiting consumer
    (``exists`` satisfied early) never observes an error it would not have
    reached row by row.

    ``trivial_true`` marks the predicate kernel for ``Const(True)`` (the
    planner's "no predicate" marker) so operators can skip the kernel call
    — and the ``[True] * n`` allocation — entirely.
    """

    __slots__ = ("fn", "term", "trivial_true")

    def __init__(self, fn: KernelFn, term: Term, trivial_true: bool = False):
        self.fn = fn
        self.term = term
        self.trivial_true = trivial_true

    def __repr__(self) -> str:
        suffix = ", trivial" if self.trivial_true else ""
        return f"CompiledKernel({self.term}{suffix})"


class ExprCompiler:
    """Lowers terms to kernels; one instance per compiled query.

    The physical plan is built once per compiled query and database state
    and its operators hold their kernels, so a term is lowered when a plan
    is built, never per execution.  Kernels are memoized structurally on
    ``(kind, term)`` (terms compare exactly, constants by type and value):
    the plans of several database states, and equal terms within one plan,
    share a kernel.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, CompiledKernel] = {}

    # -- entry points -------------------------------------------------------

    def compile_kernel(self, term: Term, kind: str = "expr") -> CompiledKernel:
        """Lower *term* to a value-producing kernel.  Of kind ``plain``,
        *term* is a bag comprehension whose head the plan's typing found
        plain (:meth:`~repro.algebra.typing.PlanTypeChecker.plain`); of
        kind ``row``, a ``RecordCons`` the kernel returns as the tuple of
        its values (its error path, the interpreter, as the struct)."""
        return self._kernel(kind, term)

    def compile_predicate_kernel(self, term: Term) -> CompiledKernel:
        """Lower *term* to a strict-boolean kernel: each result is ``True``
        or ``False`` — a NULL predicate fails the filter, anything
        non-boolean faults with :class:`EvaluationError`."""
        return self._kernel("pred", term)

    def _kernel(self, kind: str, term: Term) -> CompiledKernel:
        key = (kind, term)
        kernel = self._memo.get(key)
        if kernel is None:
            kernel = self._memo[key] = self._lower(term, kind)
        return kernel

    def _lower(self, term: Term, kind: str) -> CompiledKernel:
        predicate = kind == "pred"
        if predicate and isinstance(term, Const) and term.value is True:
            return CompiledKernel(_true_kernel, term, trivial_true=True)
        emitter = _KernelEmitter(kind == "plain" and isinstance(term, Comprehension))
        slow = _interpreted(term, predicate)
        return CompiledKernel(emitter.kernel(term, predicate, slow, kind == "row"), term)


def _true_kernel(ex: Any, cols: Mapping[str, list], n: int) -> tuple[list, int, Any]:
    return [True] * n, n, None


def _interpreted(term: Term, predicate: bool) -> KernelFn:
    """*term* through the AST interpreter, one call per row: every
    kernel's error path, ``_slow``.

    Not generated and not fast — it is the definition.  The interpreter is
    built from the execution when the chunk reruns, so it reads that run's
    parameters and database and settles on the governor then in force (a
    kept build's :class:`~repro.engine.reuse.SettleRecorder` included).  A
    row's env holds the term's free variables the chunk has; an absent
    column is left out, so the interpreter's own unbound-variable error
    fires only if the row reads the name.  Expressions are deterministic,
    so rerunning a chunk whose comprehension raised reaches the same fault;
    the cost is evaluating that chunk's prefix rows twice, and a fault
    aborts the query anyway.  The free variables are walked per call, not per kernel: nearly
    every kernel is lowered with an error path that never runs.
    """

    def kern(ex: Any, cols: Mapping[str, list], n: int) -> tuple[list, int, Any]:
        present = [(v, cols[v]) for v in free_vars(term) if v in cols]
        out: list = []
        try:
            # _eval (not evaluate): skips the defensive env copy — the
            # interpreter never mutates the environment it is handed.
            interpreter = Evaluator(ex.database, ex.params, governor=ex.governor)
            evaluate = interpreter._eval  # noqa: SLF001
            for i in range(n):
                value = evaluate(term, {v: col[i] for v, col in present})
                if predicate and value is not True:
                    if value is not False and value is not NULL:
                        raise EvaluationError(
                            "predicate did not evaluate to a boolean"
                        )
                    value = False
                out.append(value)
        except Exception as exc:  # noqa: BLE001 - the fault is the result
            return out, len(out), exc
        return out, n, None

    return kern


# ---------------------------------------------------------------------------
# Out-of-line helpers of generated code, off the hot path.
# ---------------------------------------------------------------------------


def _fault() -> None:
    """What generated code calls where the interpreter would raise (a
    non-boolean condition, a projection off a non-record).  It only has to
    reach the kernel's ``except`` arm: the error the query reports is the
    one the interpreter raises when that arm reruns the chunk."""
    raise EvaluationError("fault in generated code")


def _proj(value: Any, attr: str) -> Any:
    """The inline projection's slow path: NULL, a Record subclass, a fault."""
    if isinstance(value, Record):
        return value[attr]  # raises on a missing attribute
    if value is NULL:
        return NULL
    return _fault()


def _members(value: Any) -> Any:
    """A generator domain's elements where it is not a set or a list (whose
    own tuples folds read inline): a bag's, none for NULL, else a fault."""
    if isinstance(value, CollectionValue):
        return value.members()
    if value is NULL:
        return ()
    return _fault()


def _settle(ex: Any, out: list, units: int, kept: list) -> tuple:
    """A clean chunk's result, once the elements its folds reached settle
    as work units on *ex*'s governor and the collection elements they kept
    are charged (sampled from the execution's running count, ``ex.kept``);
    a trip is its error."""
    governor = ex.governor
    try:
        if governor is not None:
            governor.tick_many(units)
            for values in kept if governor.max_bytes is not None else ():
                charge_values(governor.charge, values, ex.kept)
                ex.kept += len(values)
    except GovernorError as exc:
        return [], 0, exc
    return out, len(out), None


_UNBOUND = object()

#: Term levels an expression nests before :meth:`_KernelEmitter.split`
#: moves a subterm into a row function of its own.
_DEPTH = 32

#: Generator loops a fold's row function nests before the rest of its
#: qualifiers continue in a generator function (CPython compiles 20 blocks).
_LOOPS = 16

#: Each primitive monoid's merge of a head ``{e}`` into the accumulator
#: ``{a}`` (``{h}`` a temp), as ``Monoid.loop`` states it: a NULL is
#: skipped, ``all`` and ``some`` return at the deciding element, avg keeps
#: a total ``{a}`` and a count ``{c}``.
_MERGES = {
    "sum": "if ({h} := {e}) is not NULL: {a} = {a} + {h}",
    "prod": "if ({h} := {e}) is not NULL: {a} = {a} * {h}",
    "max": "if ({h} := {e}) is not NULL and not {a} >= {h}: {a} = {h}",
    "min": "if ({h} := {e}) is not NULL and not {a} <= {h}: {a} = {h}",
    "all": "if ({h} := {e}) is not NULL and ({a} := {a} and {h}) is False: return False",
    "some": "if ({h} := {e}) is not NULL and ({a} := {a} or {h}) is True: return True",
    "avg": "if ({h} := {e}) is not NULL: {a} = {a} + {h}; {c} = {c} + 1",
}

#: What generated code reads that no kernel owns — the globals of every
#: shape.  What a kernel does own (column names, constants, monoid
#: functions, its error path) reaches it as closure variables.
_HELPERS: dict[str, Any] = {
    "NULL": NULL,
    "Record": Record,
    "identity_key": identity_key,
    "_SCALARS": _SCALARS,
    "_fault": _fault,
    "_proj": _proj,
    "_record": Record._of,
    "_members": _members,
    "SetValue": SetValue,
    "ListValue": ListValue,
    "_settle": _settle,
}


@functools.lru_cache(maxsize=1024)
def _factory(source: str) -> Callable[..., KernelFn]:
    """Kernel source → its ``_make``, each distinct text once per process.

    Generated source holds no column names and no constants: it is
    ``def _make(v2, c3, …): def _kern(ex, cols, n): …; return _kern``, the
    values a kernel owns being ``_make``'s parameters
    (:meth:`_KernelEmitter.bind`).  So the text is the term's *shape* —
    ``_e3.name == 'x'`` and ``_u17.name == 'y'`` emit the same characters —
    and equal characters are equal code.  The key is the text itself; there
    is no alpha-equivalence function to get wrong.  A kernel is one call of
    its shape's ``_make``: its own function and closure cells over a code
    object, and a globals dict, shared with every kernel of that shape (one
    globals dict per code object keeps CPython's per-instruction
    ``LOAD_GLOBAL`` caches valid whichever kernel runs).  The bound (a few
    kB per entry) only matters to a process that keeps meeting new shapes;
    the 53-query corpus has under a hundred.
    """
    ns = dict(_HELPERS)  # a copy: exec stores this shape's ``_make`` in it
    exec(compile(source, "<repro.engine.compile:kernel>", "exec"), ns)  # noqa: S102
    return ns["_make"]


class _KernelEmitter:
    """Emits one term as a kernel ``def _kern(ex, cols, n)``.

    ``xgen`` returns a node as one Python expression, and the whole chunk
    evaluates as one list comprehension over it::

        def _kern(ex, cols, n):
            try:
                <column hoists and row functions>
                _k, _b = 0, []
                _out = [<expr> for _i in range(n)]
            except Exception:
                return _slow(ex, cols, n)
            return _settle(ex, _out, _k, _b)

    * **variable reads index hoisted column locals** — a prologue binds
      ``_colK = cols[vJ]`` once per chunk, and the row body reads
      ``_colK[_i]``;
    * **names and constants are parameters, not text** — ``vJ`` above is a
      parameter of the enclosing ``_make`` bound to the column's name, as
      ``cJ`` is to a constant's value, so the text depends on the term's
      shape alone and :func:`_factory` compiles each shape once
      (attribute, extent and parameter names are the query's own, not the
      unnester's fresh ones, and stay literal);
    * **the run is the execution** — parameters and extents are read as
      ``ex.params[…]`` and ``ex.database.extent(…)``, and ``_settle``
      ticks ``ex.governor``;
    * **lets bind walrus temps, not env copies** — a ``let``-bound variable
      becomes a function-local name shadowing any same-named column for
      the extent of the body, so no per-row dict is materialized;
    * **errors are the interpreter's** — no error arm is spelled here: a
      raw ``KeyError`` (absent column, unbound parameter),
      ``ZeroDivisionError``, ``TypeError`` or :func:`_fault` abandons the
      partial list and ``_slow`` — :func:`_interpreted` — reruns the chunk
      for the truncation row and the structured error.  Success values
      must agree with the interpreter; a faulting row only has to raise;
    * **folds and deep subterms are row functions** — a fold is a function
      of statements (:meth:`_x_comprehension`), a deep subterm one that
      returns it (:meth:`split`), both defined by :meth:`rowfn`; folds
      count the elements they reach in ``_k`` and keep collections in
      ``_b``.
    """

    handlers: dict[type, Callable[..., str]]

    def __init__(self, plain_root: bool = False):
        #: The root bag comprehension's elements are their own keys.
        self.plain_root = plain_root
        #: Per-chunk setup lines (column hoists, row functions), emitted
        #: inside the try but before the comprehension.
        self.prologue: list[str] = []
        self.n = 0
        #: Term levels below the root of the expression being emitted.
        self.depth = 0
        #: Column name -> hoisted local holding ``cols[name]``.
        self._columns: dict[str, str] = {}
        #: Let-bound variable -> walrus temp (shadows columns).
        self._scope: dict[str, str] = {}
        #: What this kernel owns, by the name generated code calls it:
        #: ``_make``'s parameters, in binding order.
        self.bound: dict[str, Any] = {}

    def kernel(
        self, term: Term, predicate: bool, slow: KernelFn, row: bool = False
    ) -> KernelFn:
        """The kernel for *term*, with *slow* as its error path: this
        shape's ``_make`` (:func:`_factory`) applied to what it owns.  A
        *row* kernel's ``RecordCons`` is the tuple of its fields."""
        if row:
            expr = f"({''.join(f'{self.xgen(field)}, ' for _, field in term.fields)})"
        else:
            expr = self.xgen(term)
        if predicate:
            t = self.wtemp()
            expr = (
                f"(True if ({t} := {expr}) is True else "
                f"(False if {t} is False or {t} is NULL else _fault()))"
            )
        self.bound["_slow"] = slow
        # Folds count the elements they reach in _k, collections kept in _b.
        source = (
            f"def _make({', '.join(self.bound)}):\n"
            "    def _kern(ex, cols, n):\n"
            "        try:\n"
            + "".join(self.prologue)
            + "            _k, _b = 0, []\n"
            + f"            _out = [{expr} for _i in range(n)]\n"
            "        except Exception:\n"
            "            return _slow(ex, cols, n)\n"
            "        return _settle(ex, _out, _k, _b)\n"
            "    return _kern\n"
        )
        return _factory(source)(*self.bound.values())

    # -- emission helpers ---------------------------------------------------

    def pline(self, text: str) -> None:
        self.prologue.append(f"            {text}\n")

    def wtemp(self) -> str:
        """A name for a walrus-assignment target (function-scoped: an
        assignment expression in a comprehension binds in the enclosing
        ``_kern`` or row-function frame, which is exactly what the nested
        conditional expressions rely on)."""
        self.n += 1
        return f"_w{self.n}"

    def bind(self, prefix: str, value: Any) -> str:
        self.n += 1
        name = f"{prefix}{self.n}"
        self.bound[name] = value
        return name

    def column(self, name: str) -> str:
        """The hoisted local for ``cols[name]``, binding it on first use."""
        local = self._columns.get(name)
        if local is None:
            self.n += 1
            local = f"_col{self.n}"
            self._columns[name] = local
            self.pline(f"{local} = cols[{self.bind('v', name)}]")
        return local

    def scoped(self, var: str, local: str, emit: Callable[[], str]) -> str:
        """Run *emit* with let-variable *var* bound to the temp *local*."""
        scope = self._scope
        saved = scope.get(var, _UNBOUND)
        scope[var] = local
        expr = emit()
        if saved is _UNBOUND:
            del scope[var]
        else:
            scope[var] = saved
        return expr

    def rowfn(self, prefix: str, term: Term, body: Callable[[], list[str]]) -> str:
        """*body*'s statements as a row function defined in the prologue,
        and its call, which sits where *term* did::

            def <prefix>N(_i, <the let and generator temps term reads>):
                nonlocal _k
                <body>

        Its folds count what they reach in the kernel's ``_k``."""
        free = free_vars(term)
        args = ", ".join(("_i", *(t for v, t in self._scope.items() if v in free)))
        self.n += 1
        name = f"{prefix}{self.n}"
        lines = "".join(f"\n{' ' * 16}{line}" for line in ("nonlocal _k", *body()))
        self.pline(f"def {name}({args}):{lines}")
        return f"{name}({args})"

    def split(self, term: Term) -> str:
        """*term* as the call of a row function ``_hN`` that returns it, its
        depth counted from 0 again.  Each term level nests at most about
        five brackets and Python parses 200, so no expression of a kernel
        nests deeper than it parses, at any term depth.  The call sits where
        the subterm did, so a lazy position (a branch, a right operand, a
        fold head) stays lazy."""
        depth, self.depth = self.depth, 0
        call = self.rowfn("_h", term, lambda: [f"return {self.xgen(term)}"])
        self.depth = depth
        return call

    # -- one handler per term kind ------------------------------------------

    def xgen(self, term: Term) -> str:
        """*term* as one Python expression: a row function's call
        (:meth:`split`) more than :data:`_DEPTH` levels below its root."""
        handler = self.handlers.get(type(term))
        if handler is None:
            raise PlanningError(f"no kernel for the {type(term).__name__} term {term}")
        if self.depth >= _DEPTH and term.children():
            return self.split(term)
        self.depth += 1
        expr = handler(self, term)
        self.depth -= 1
        return expr

    def _x_var(self, term: Var) -> str:
        bound = self._scope.get(term.name)
        if bound is not None:
            return bound
        return f"{self.column(term.name)}[_i]"

    def _x_const(self, term: Const) -> str:
        # Bound, not inlined by repr: operands must be names so that
        # generated `x.__class__` / `x is NULL` stays valid (a literal
        # there is a syntax error / SyntaxWarning), and the value must stay
        # out of the text the code cache is keyed on.
        return self.bind("c", term.value)

    def _x_null(self, term: Null) -> str:
        return "NULL"

    def _x_zero(self, term: Zero) -> str:
        # Finalized, as the interpreter does: avg's zero is NULL.
        return self.bind("c", term.monoid.finalize(term.monoid.zero))

    def _x_extent(self, term: Extent) -> str:
        return f"ex.database.extent({term.name!r})"

    def _x_param(self, term: Param) -> str:
        # Kept lazy (no prologue hoist) so a parameter referenced only in
        # an untaken If branch stays unread.
        return f"ex.params[{term.name!r}]"

    def _x_record(self, term: RecordCons) -> str:
        """``_record(L, (…))``: the struct's layout ``L`` bound, its values
        evaluated in the struct's order, sorted by name by a bound ``S``
        where that order is not."""
        layout, sort = layout_of(tuple(name for name, _ in term.fields))
        values = f"({''.join(f'{self.xgen(expr)}, ' for _, expr in term.fields)})"
        if sort is not None:
            values = f"{self.bind('S', sort)}({values})"
        return f"_record({self.bind('L', layout)}, {values})"

    def _x_proj(self, term: Proj) -> str:
        """A record's value read through its own layout (a missing attribute's
        ``KeyError`` reruns the chunk); ``_proj`` for anything else."""
        base = self.xgen(term.expr)
        t = self.wtemp()
        attr = term.attr
        return (
            f"({t}._values[{t}._layout[{attr!r}]] "
            f"if ({t} := {base}).__class__ is Record "
            f"else _proj({t}, {attr!r}))"
        )

    def _x_if(self, term: If) -> str:
        cond = self.xgen(term.cond)
        t = self.wtemp()
        then = self.xgen(term.then)
        orelse = self.xgen(term.orelse)
        return (
            f"({then} if ({t} := {cond}) is True else "
            f"({orelse} if {t} is False or {t} is NULL else _fault()))"
        )

    def _x_let(self, term: Let) -> str:
        value = self.xgen(term.value)
        out = self.wtemp()
        body = self.scoped(term.var, out, lambda: self.xgen(term.body))
        # Tuple evaluates left to right: bind the temp, then the body.
        return f"((({out} := ({value})), {body})[1])"

    def _x_not(self, term: Not) -> str:
        if isinstance(term.expr, IsNull):  # a boolean: no NULL, no fault
            return f"(({self.xgen(term.expr.expr)}) is not NULL)"
        value = self.xgen(term.expr)
        t = self.wtemp()
        return (
            f"(False if ({t} := {value}) is True else "
            f"(True if {t} is False else "
            f"(NULL if {t} is NULL else _fault())))"
        )

    def _x_isnull(self, term: IsNull) -> str:
        return f"(({self.xgen(term.expr)}) is NULL)"

    def _x_singleton(self, term: Singleton) -> str:
        if not term.monoid.is_collection:  # no unit: the interpreter faults
            return "_fault()"
        return f"{self.bind('f', folder(term.monoid))}(({self.xgen(term.expr)},))"

    def _x_merge(self, term: Merge) -> str:
        merge = self.bind("f", term.monoid.merge)
        return f"{merge}({self.xgen(term.left)}, {self.xgen(term.right)})"

    def _x_binop(self, term: BinOp) -> str:
        op = term.op
        if op in BOOLEAN_OPS:
            return self._x_shortcircuit(term)
        lt = self.wtemp()
        rt_ = self.wtemp()
        left = self.xgen(term.left)
        right = self.xgen(term.right)
        if op in ("==", "!="):
            body = (
                f"({lt} {op} {rt_} "
                f"if {lt}.__class__ in _SCALARS "
                f"and {rt_}.__class__ in _SCALARS "
                f"else identity_key({lt}) {op} identity_key({rt_}))"
            )
        else:
            # Raw operator: ZeroDivisionError / TypeError rerun the chunk
            # through the interpreter, which raises the structured fault.
            body = f"({lt} {op} {rt_})"
        # Bitwise `|` forces *both* walruses before the NULL test — both
        # operands are evaluated before NULL propagates.
        return (
            f"(NULL if (({lt} := {left}) is NULL) "
            f"| (({rt_} := {right}) is NULL) else {body})"
        )

    def _x_shortcircuit(self, term: BinOp) -> str:
        lt = self.wtemp()
        rt_ = self.wtemp()
        left = self.xgen(term.left)
        right = self.xgen(term.right)
        shortcut = "False" if term.op == "and" else "True"
        # right IS evaluated when left is NULL, as in the interpreter.
        return (
            f"({shortcut} if ({lt} := {left}) is {shortcut} else "
            f"(NULL if (({rt_} := {right}) is NULL) or {lt} is NULL "
            f"else {lt} {term.op} {rt_}))"
        )

    def _x_comprehension(self, term: Comprehension) -> str:
        """A fold as the call of a row function ``_fN`` of statements: the
        accumulator a local, the monoid's merge inline (:data:`_MERGES`), a
        collection's heads appended to a list kept in ``_b`` and folded by
        the monoid's ``folder`` (the root bag of a plain kernel is plain:
        ``BagValue.of_plain``)."""
        # Only the root bag is plain: its domains and head hold other folds.
        plain = self.plain_root and term.monoid_name == "bag"
        self.plain_root = False
        monoid, saved = term.monoid, dict(self._scope)  # an emitter that raises is discarded
        a, h, c = self.wtemp(), self.wtemp(), self.wtemp()
        if isinstance(monoid, CollectionMonoid):
            first, merge = f"{a} = []", f"{a}.append({{e}})"
            last = [f"_b.append({a})", f"return {self.bind('f', folder(monoid, plain))}({a})"]
        else:
            zero = self.bind("c", monoid.zero)
            first, merge = f"{a} = {zero}", _MERGES[monoid.name].format(a=a, h=h, c=c, e="{e}")
            last = [f"return {a}"]
            if monoid.has_carrier:
                first = f"{a}, {c} = {zero}"
                last = [f"return {self.bind('f', monoid.finalize)}(({a}, {c}))"]
        call = self.rowfn("_f", term, lambda: [
            first,
            # A filter that fails before the first loop returns the empty fold.
            *self._loops(term.qualifiers, term.head, merge, last[-1]),
            *last,
        ])
        self._scope.clear()
        self._scope.update(saved)
        return call

    def _loops(self, qualifiers: tuple, head: Term, merge: str, empty: str) -> list[str]:
        """Statements running *qualifiers* around *merge* of the head (its
        ``{e}``): a generator domain a ``for`` over its own tuple, with
        ``_k`` read after the domain, whose own folds count into it; a
        singleton domain an assignment; a filter an ``if`` that skips the
        element (before the first loop, runs *empty*).  Past :data:`_LOOPS` loops
        the rest is a generator function ``_gN`` of the heads, so no
        function nests more blocks than Python compiles."""
        lines, pad, loops = [], "", 0
        self.depth += 1  # a qualifier nests twice a head's brackets
        for k, qualifier in enumerate(qualifiers):
            t = self.wtemp()
            if isinstance(qualifier, Filter):
                pred, skip = qualifier.pred, ("continue" if loops else empty)
                if isinstance(pred.expr if isinstance(pred, Not) else pred, IsNull):
                    lines.append(f"{pad}if not {self.xgen(pred)}: {skip}")  # a boolean
                else:
                    lines.append(
                        f"{pad}if ({t} := {self.xgen(pred)}) is not True and "
                        f"({t} is False or {t} is NULL or _fault()): {skip}"
                    )
                continue
            domain = qualifier.domain
            if isinstance(domain, Singleton) and domain.monoid.is_collection:
                lines.append(f"{pad}{t} = {self.xgen(domain.expr)}")
                self._scope[qualifier.var] = t
                continue
            if loops == _LOOPS:
                rest = Comprehension("bag", head, qualifiers[k:])
                heads = self.rowfn("_g", rest, lambda: self._loops(
                    qualifiers[k:], head, "yield {e}", "return"
                ))
                self.depth -= 1
                return [*lines, f"{pad}for {t} in {heads}:", f"{pad}    " + merge.format(e=t)]
            element = self.wtemp()
            lines += [
                f"{pad}{t} = {t}._order if ({t} := {self.xgen(domain)}).__class__ is SetValue "
                f"else ({t}._items if {t}.__class__ is ListValue else _members({t}))",
                f"{pad}_k = len({t}) + _k",
                f"{pad}for {element} in {t}:",
            ]
            self._scope[qualifier.var] = element
            loops, pad = loops + 1, pad + "    "
        self.depth -= 1
        return [*lines, pad + merge.format(e=self.xgen(head))]


# The table holds plain function objects (no dynamic attribute lookup per
# node).  Lambda and Apply have none: a plan that holds one is refused.
_KernelEmitter.handlers = {
    Var: _KernelEmitter._x_var,
    Const: _KernelEmitter._x_const,
    Null: _KernelEmitter._x_null,
    Zero: _KernelEmitter._x_zero,
    Extent: _KernelEmitter._x_extent,
    Param: _KernelEmitter._x_param,
    RecordCons: _KernelEmitter._x_record,
    Proj: _KernelEmitter._x_proj,
    If: _KernelEmitter._x_if,
    Let: _KernelEmitter._x_let,
    Not: _KernelEmitter._x_not,
    IsNull: _KernelEmitter._x_isnull,
    Singleton: _KernelEmitter._x_singleton,
    Merge: _KernelEmitter._x_merge,
    BinOp: _KernelEmitter._x_binop,
    Comprehension: _KernelEmitter._x_comprehension,
}
