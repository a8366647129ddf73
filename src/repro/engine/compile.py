"""Expression compilation: calculus terms → chunk kernels.

The physical operators evaluate a handful of :class:`~repro.calculus.terms.
Term` trees — select predicates, map heads, join keys, unnest paths, reduce
accumulators — once per row of every chunk.  Walking the AST through
:class:`~repro.calculus.evaluator.Evaluator` for every row pays a large
constant factor: a type-dispatch dictionary lookup, a bound-method call, two
``isinstance`` NULL tests, and (for binary operations) a chain of string
comparisons in ``apply_binop``, all per node per row.

This module removes that factor by *lowering* each term to a **kernel**: a
function ``fn(cols, n) -> (values, t, error)`` that evaluates the term over
all *n* rows of a columnar :class:`~repro.engine.batch.Chunk`, reading
column lists hoisted into locals instead of an environment dict per row.  A
kernel is one generated body plus the definition:

* the **comprehension form** — the term as a single Python expression
  (walrus assignments standing in for temporaries), so the whole chunk
  evaluates as one list comprehension;
* the **interpreter as its error path** — any exception in the
  comprehension reruns the chunk through :func:`_interpreted`, one
  ``Evaluator._eval`` call per row, so the faulting row and the error's
  class and text are the interpreter's by construction.  The same closure
  is the whole kernel of a term the emitter cannot lower at all.

Kernels never raise mid-chunk: an exception at row *t* is returned as
``(values so far, t, error)`` so the caller can deliver the preceding rows
first and replay the error lazily (see :class:`CompiledKernel`).

Three properties are load-bearing:

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
* **Per-node fallback.**  A node kind the emitter does not know (a lambda,
  a residual :class:`~repro.calculus.terms.Comprehension` that survived
  unnesting) becomes a call that hands *that subtree* to the AST
  interpreter; its siblings and ancestors stay compiled.  Compilation
  therefore never fails — it degrades.
* **Observability.**  :class:`CompiledKernel` counts compiled vs. fallback
  nodes, so EXPLAIN ANALYZE can annotate each physical operator with
  whether its expressions run ``compiled``, ``mixed``, or ``interpreted``.

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
import threading
from typing import Any, Callable, Mapping

from repro.calculus.evaluator import EvaluationError, Evaluator
from repro.calculus.terms import (
    BOOLEAN_OPS,
    BinOp,
    Const,
    Extent,
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
from repro.data.values import NULL, Record, identity_key

#: A kernel: ``fn(cols, n) -> (values, t, error)``.  *cols* maps column
#: names to value lists (all at least *n* long); rows ``[0, t)`` evaluated
#: successfully into *values*, and *error* is the exception row *t* raised
#: (None when ``t == n``).  Kernels never raise themselves.
KernelFn = Callable[[Mapping[str, list], int], "tuple[list, int, Any]"]

#: Types whose ``==`` is plain value equality — the fast path that skips
#: :func:`identity_key` (which returns scalars unchanged anyway).
_SCALARS = frozenset((bool, int, float, str))


class CompiledKernel:
    """A term lowered to a chunk-level loop, plus how much of it compiled.

    ``fn(cols, n)`` evaluates the term over rows ``0..n-1`` of a columnar
    chunk and returns ``(values, t, error)``: the results for rows
    ``[0, t)``, plus the exception row *t* raised — or ``(values, n,
    None)`` when every row succeeded.  Capturing instead of raising is the
    contract that lets operators deliver the pre-error rows to their
    consumer before replaying the failure, so a short-circuiting consumer
    (``exists`` satisfied early) never observes an error it would not have
    reached row by row.

    ``compiled_nodes`` / ``fallback_nodes`` count the term's AST nodes that
    were lowered natively vs. delegated to the interpreter; ``mode``
    summarizes them for EXPLAIN ANALYZE.  ``trivial_true`` marks the
    predicate kernel for ``Const(True)`` (the planner's "no predicate"
    marker) so operators can skip the kernel call — and the ``[True] * n``
    allocation — entirely.
    """

    __slots__ = ("fn", "term", "compiled_nodes", "fallback_nodes", "trivial_true")

    def __init__(
        self,
        fn: KernelFn,
        term: Term,
        compiled_nodes: int,
        fallback_nodes: int,
        trivial_true: bool = False,
    ):
        self.fn = fn
        self.term = term
        self.compiled_nodes = compiled_nodes
        self.fallback_nodes = fallback_nodes
        self.trivial_true = trivial_true

    @property
    def mode(self) -> str:
        """``compiled`` | ``mixed`` | ``interpreted``."""
        if self.fallback_nodes == 0:
            return "compiled"
        if self.compiled_nodes == 0:
            return "interpreted"
        return "mixed"

    def __repr__(self) -> str:
        suffix = ", trivial" if self.trivial_true else ""
        return f"CompiledKernel({self.term}, {self.mode}{suffix})"


class ExprRuntime(threading.local):
    """Per-execution bindings that kernels read at evaluation time.

    Kernels must be reusable across executions (they are cached on
    :class:`~repro.core.pipeline.CompiledQuery`), so anything that varies per
    execution — the prepared-statement parameter values, the database, the
    fallback interpreter — is reached through this one mutable cell, rebound
    by :meth:`ExprCompiler.activate` before each execution plans.

    The cell is a ``threading.local``: a ``CompiledQuery`` shared by a
    thread pool has each thread activate and read *its own* bindings, so
    concurrent executions with different parameters cannot clobber each
    other mid-query.  (``__init__`` runs once per thread on first access,
    giving every thread the empty defaults until it activates.)
    """

    def __init__(self) -> None:
        self.params: Mapping[str, Any] = {}
        self.database: Any = None
        self.evaluator: Evaluator | None = None


def _memo_key(kind: str, term: Term) -> tuple:
    """A memo key that never conflates equal-but-differently-typed constants.

    Terms are frozen dataclasses, so structural equality is the natural memo
    relation — except that Python compares ``bool``/``int``/``float`` across
    types: ``Const(True) == Const(1) == Const(1.0)`` (with equal hashes).
    Memoizing on the term alone would therefore serve the kernel for
    ``Const(1)`` to a ``Const(True)`` head (a fuzzer-found bug: a ``some``
    accumulator then yields ``1``, which is not a boolean to a predicate).
    Equal terms always have the same tree shape, so a traversal-ordered
    tuple of the constant value *types* disambiguates fully.
    """
    const_types: list[type] = []
    stack = [term]
    while stack:
        node = stack.pop()
        if type(node) is Const:
            const_types.append(type(node.value))
        stack.extend(node.children())
    return (kind, term, tuple(const_types))


class ExprCompiler:
    """Lowers terms to kernels; one instance per compiled query (or plan).

    Kernels are memoized structurally (terms are frozen dataclasses), so
    re-planning the same query — every execution replans, and the planner
    reconstructs e.g. residual predicates afresh — reuses the kernels from
    the first execution instead of re-lowering.  The memo key is
    :func:`_memo_key`, not the bare term (see there).
    """

    def __init__(self) -> None:
        self.runtime = ExprRuntime()
        self._memo: dict[tuple, CompiledKernel] = {}
        #: Identity front-cache over the structural memo: every execution
        #: replans from the same cached logical plan, so operators pass the
        #: very same Term objects — a ``(kind, id)`` hit skips the
        #: tree-walking :func:`_memo_key`.  The stored term keeps the id
        #: alive; an ``is`` check guards against id reuse.  Only the object
        #: a shape was first lowered from is pinned, so the map is bounded
        #: by the memo: the planner also rebuilds some terms (a join's
        #: residual conjunction) afresh per execution, and pinning those
        #: would retain one term per request for the life of the query.
        self._by_id: dict[tuple[str, int], tuple[Term, CompiledKernel]] = {}

    def activate(self, evaluator: Evaluator, database: Any) -> None:
        """Point the runtime at one execution's interpreter and database."""
        runtime = self.runtime
        runtime.params = evaluator.params
        runtime.database = database
        runtime.evaluator = evaluator

    # -- entry points -------------------------------------------------------

    def compile_kernel(self, term: Term) -> CompiledKernel:
        """Lower *term* to a value-producing kernel."""
        return self._kernel("expr", term)

    def compile_predicate_kernel(self, term: Term) -> CompiledKernel:
        """Lower *term* to a strict-boolean kernel: each result is ``True``
        or ``False`` — a NULL predicate fails the filter, anything
        non-boolean faults with :class:`EvaluationError`."""
        return self._kernel("pred", term)

    def _kernel(self, kind: str, term: Term) -> CompiledKernel:
        hit = self._by_id.get((kind, id(term)))
        if hit is not None and hit[0] is term:
            return hit[1]
        key = _memo_key(kind, term)
        kernel = self._memo.get(key)
        if kernel is None:
            kernel = self._memo[key] = self._lower(term, kind == "pred")
            self._by_id[(kind, id(term))] = (term, kernel)
        return kernel

    def _lower(self, term: Term, predicate: bool) -> CompiledKernel:
        if predicate and isinstance(term, Const) and term.value is True:
            return CompiledKernel(_true_kernel, term, 1, 0, trivial_true=True)
        slow = _interpreted(self.runtime, term, predicate)
        emitter = _KernelEmitter(self.runtime)
        try:
            fn = emitter.kernel(term, predicate, slow)
        except Exception:  # noqa: BLE001 - degrade, never fail to plan
            # The emitter choked on the term as a whole (e.g. nesting deeper
            # than Python parses as one expression): interpret it from the
            # root.
            return CompiledKernel(slow, term, 0, 1)
        return CompiledKernel(fn, term, emitter.compiled, emitter.fallback)


def _true_kernel(cols: Mapping[str, list], n: int) -> tuple[list, int, Any]:
    return [True] * n, n, None


def _interpreted(runtime: ExprRuntime, term: Term, predicate: bool) -> KernelFn:
    """*term* through the AST interpreter, one call per row: every
    kernel's error path, and the whole kernel of a term that does not emit.

    Not generated and not fast — it is the definition.  A row's env holds
    the term's free variables the chunk has; an absent column is left out,
    so the interpreter's own unbound-variable error fires only if the row
    reads the name.  Expressions are deterministic, so rerunning a chunk
    whose comprehension raised reaches the same fault; the cost is
    evaluating that chunk's prefix rows twice, and a fault aborts the query
    anyway.  The free variables are walked per call, not per kernel: nearly
    every kernel is lowered with an error path that never runs.
    """

    def kern(cols: Mapping[str, list], n: int) -> tuple[list, int, Any]:
        present = [(v, cols[v]) for v in free_vars(term) if v in cols]
        out: list = []
        try:
            # _eval (not evaluate): skips the defensive env copy — the
            # interpreter never mutates the environment it is handed.
            evaluate = runtime.evaluator._eval  # noqa: SLF001
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


def _proj_slow(value: Any, attr: str) -> Any:
    """The non-fast-path projection: NULL, Record subclass, or a fault."""
    if isinstance(value, Record):
        return value[attr]  # raises on a missing attribute
    if value is NULL:
        return NULL
    return _fault()


def _subtree(runtime: ExprRuntime, term: Term) -> Callable[[dict], Any]:
    """One subtree handed to the interpreter (its siblings stay compiled)."""

    def run(env: dict) -> Any:
        return runtime.evaluator._eval(term, env)  # noqa: SLF001

    return run


_UNBOUND = object()

#: What generated code reads that no kernel owns — the globals of every
#: shape.  What a kernel does own (its ``rt`` cell, column names, constants,
#: monoid functions, fallback subtrees, its error path) reaches it as
#: closure variables.
_HELPERS: dict[str, Any] = {
    "NULL": NULL,
    "Record": Record,
    "identity_key": identity_key,
    "_SCALARS": _SCALARS,
    "_proj_slow": _proj_slow,
    "_fault": _fault,
}


@functools.lru_cache(maxsize=1024)
def _factory(source: str) -> Callable[..., KernelFn]:
    """Kernel source → its ``_make``, each distinct text once per process.

    Generated source holds no column names and no constants: it is
    ``def _make(rt, v2, c3, …): def _kern(cols, n): …; return _kern``, the
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
    """Emits one term as a kernel ``def _kern(cols, n)``.

    ``xgen`` returns a node as one Python expression, and the whole chunk
    evaluates as one list comprehension over it::

        def _kern(cols, n):
            try:
                <column hoists>
                return [<expr> for _i in range(n)], n, None
            except Exception:
                return _slow(cols, n)

    * **variable reads index hoisted column locals** — a prologue binds
      ``_colK = cols[vJ]`` once per chunk, and the row body reads
      ``_colK[_i]``;
    * **names and constants are parameters, not text** — ``vJ`` above is a
      parameter of the enclosing ``_make`` bound to the column's name, as
      ``cJ`` is to a constant's value, so the text depends on the term's
      shape alone and :func:`_factory` compiles each shape once
      (attribute, extent and parameter names are the query's own, not the
      unnester's fresh ones, and stay literal);
    * **lets bind walrus temps, not env copies** — a ``let``-bound variable
      becomes a function-local name shadowing any same-named column for
      the extent of the body, so no per-row dict is materialized;
    * **errors are the interpreter's** — no error arm is spelled here: a
      raw ``KeyError`` (absent column, unbound parameter),
      ``ZeroDivisionError``, ``TypeError`` or :func:`_fault` abandons the
      partial list and ``_slow`` — :func:`_interpreted` — reruns the chunk
      for the truncation row and the structured error.  Success values
      must agree with the interpreter; a faulting row only has to raise.

    Subtrees outside the emitted subset evaluate through one call into the
    AST interpreter, fed a per-row env dict materialized from the subtree's
    free variables (columns absent from the chunk are omitted so the
    interpreter's own unbound error fires only if actually read).
    """

    handlers: dict[type, Callable[..., str]]

    def __init__(self, runtime: ExprRuntime):
        self.runtime = runtime
        #: AST nodes lowered natively / handed to the interpreter.
        self.compiled = 0
        self.fallback = 0
        #: Per-chunk setup lines (column hoists, fallback column pairs),
        #: emitted inside the try but before the comprehension.
        self.prologue: list[str] = []
        self.n = 0
        #: Column name -> hoisted local holding ``cols[name]``.
        self._columns: dict[str, str] = {}
        #: Let-bound variable -> walrus temp (shadows columns).
        self._scope: dict[str, str] = {}
        #: What this kernel owns, by the name generated code calls it:
        #: ``_make``'s parameters, in binding order.  ``rt`` is the
        #: compiler's ExprRuntime: activate() mutates it in place, so
        #: generated code reading ``rt.params`` / ``rt.database`` always
        #: sees the live execution.
        self.bound: dict[str, Any] = {"rt": runtime}

    def kernel(self, term: Term, predicate: bool, slow: KernelFn) -> KernelFn:
        """The kernel for *term*, with *slow* as its error path: this
        shape's ``_make`` (:func:`_factory`) applied to what it owns."""
        expr = self.xgen(term)
        if predicate:
            t = self.wtemp()
            expr = (
                f"(True if ({t} := {expr}) is True else "
                f"(False if {t} is False or {t} is NULL else _fault()))"
            )
        self.bound["_slow"] = slow
        source = (
            f"def _make({', '.join(self.bound)}):\n"
            "    def _kern(cols, n):\n"
            "        try:\n"
            + "".join(self.prologue)
            + f"            return [{expr} for _i in range(n)], n, None\n"
            "        except Exception:\n"
            "            return _slow(cols, n)\n"
            "    return _kern\n"
        )
        return _factory(source)(*self.bound.values())

    # -- emission helpers ---------------------------------------------------

    def pline(self, text: str) -> None:
        self.prologue.append(f"            {text}\n")

    def wtemp(self) -> str:
        """A name for a walrus-assignment target (function-scoped: an
        assignment expression in a comprehension binds in the enclosing
        ``_kern`` frame, which is exactly what the nested conditional
        expressions rely on)."""
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
        try:
            return emit()
        finally:
            if saved is _UNBOUND:
                del scope[var]
            else:
                scope[var] = saved

    def fallback_call(self, term: Term) -> str:
        """*term* as one interpreter call over a per-row env dict.

        The env is a dict comprehension over prologue-hoisted (name,
        column) pairs of the subtree's free variables, with let-bound temps
        layered on top (they win over columns).  Columns absent from the
        chunk are omitted (the ``if _n in cols`` prologue filter) so the
        interpreter's own unbound-variable error fires only if the row
        actually reads the name.
        """
        self.fallback += 1
        sub = self.bind("s", _subtree(self.runtime, term))
        names = sorted(free_vars(term))
        scoped = [
            (name, self._scope[name]) for name in names if name in self._scope
        ]
        col_names = tuple(name for name in names if name not in self._scope)
        if col_names:
            self.n += 1
            pairs = f"_sub{self.n}"
            self.pline(
                f"{pairs} = [(_n, cols[_n]) for _n in "
                f"{self.bind('v', col_names)} if _n in cols]"
            )
            env = f"{{_n: _c[_i] for _n, _c in {pairs}}}"
        else:
            env = "{}"
        if scoped:
            inner = ", ".join(f"{name!r}: {bound}" for name, bound in scoped)
            env = f"{{**{env}, {inner}}}"
        return f"{sub}({env})"

    # -- one handler per term kind ------------------------------------------

    def xgen(self, term: Term) -> str:
        """*term* as one Python expression."""
        handler = self.handlers.get(type(term))
        if handler is None:
            return self.fallback_call(term)
        result = handler(self, term)
        self.compiled += 1
        return result

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
        return f"rt.database.extent({term.name!r})"

    def _x_param(self, term: Param) -> str:
        # Kept lazy (no prologue hoist) so a parameter referenced only in
        # an untaken If branch stays unread.
        return f"rt.params[{term.name!r}]"

    def _x_record(self, term: RecordCons) -> str:
        inner = ", ".join(
            f"{name!r}: {self.xgen(expr)}" for name, expr in term.fields
        )
        return f"Record({{{inner}}})"

    def _x_proj(self, term: Proj) -> str:
        base = self.xgen(term.expr)
        t = self.wtemp()
        attr = term.attr
        return (
            f"({t}._fields[{attr!r}] "
            f"if ({t} := {base}).__class__ is Record "
            f"and {attr!r} in {t}._fields "
            f"else _proj_slow({t}, {attr!r}))"
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
        return f"{self.bind('f', term.monoid.unit)}({self.xgen(term.expr)})"

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


# The table holds plain function objects (no dynamic attribute lookup per
# node).  NOTE: Lambda, Apply and Comprehension deliberately have no entry —
# loops are the algebra's job, and the interpreter fallback stays exercised.
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
}
