"""Expression compilation: calculus terms → chunk kernels.

The physical operators evaluate a handful of :class:`~repro.calculus.terms.
Term` trees — select predicates, map heads, join keys, unnest paths, reduce
accumulators — once per row of every chunk.  Walking the AST through
:class:`~repro.calculus.evaluator.Evaluator` for every row pays a large
constant factor: a type-dispatch dictionary lookup, a bound-method call, two
``isinstance`` NULL tests, and (for binary operations) a chain of string
comparisons in ``apply_binop``, all per node per row.

This module removes that factor by *lowering* each term to a **kernel**: one
generated Python function ``fn(cols, n) -> (values, t, error)`` that
evaluates the term over all *n* rows of a columnar
:class:`~repro.engine.batch.Chunk`, reading column lists hoisted into locals
instead of an environment dict per row.  A kernel has two generated bodies:

* the **comprehension form** — where the term lowers to a single Python
  expression (walrus assignments standing in for temporaries) the whole
  chunk evaluates as one list comprehension;
* the **statement form** — straight-line statements with explicit
  NULL-propagation branches inside one ``while`` loop.  It is the
  comprehension form's error path (any exception in the comprehension
  reruns the chunk here, which reproduces the exact faulting row and the
  interpreter's structured error) and the only body for terms the
  comprehension form cannot express.

Kernels never raise mid-chunk: an exception at row *t* is returned as
``(values so far, t, error)`` so the caller can deliver the preceding rows
first and replay the error lazily (see :class:`CompiledKernel`).

Three properties are load-bearing:

* **Semantic equivalence.**  Every kernel reproduces the interpreter's
  behaviour exactly, including three-valued NULL logic (strict NULL
  propagation through arithmetic and comparisons, short-circuiting
  ``and``/``or`` that yield NULL only when the short-circuit value is not
  reached, ``if`` taking the else-branch on a NULL condition), object
  identity equality via :func:`~repro.data.values.identity_key`, and the
  interpreter's error behaviour (same exception classes raised at
  *evaluation* time, never eagerly at compile time).  The differential fuzz
  oracle checks every query against the calculus interpreter (see
  ``repro.testing.oracle``).
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
together: the statement form is emitted with its kernel but compiled only
when a chunk first faults, and generated source carries no column names, so
kernels of the same shape, in any query of the process, are closures of one
compiled factory (:func:`_factory`).
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Mapping

from repro.calculus.evaluator import (
    DivisionByZeroError,
    EvaluationError,
    Evaluator,
    UnboundParameterError,
)
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


class _Counter:
    """Mutable compile-time tally threaded through the recursive lowering."""

    __slots__ = ("compiled", "fallback")

    def __init__(self) -> None:
        self.compiled = 0
        self.fallback = 0


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
        #: alive; an ``is`` check guards against id reuse.
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
        counter = _Counter()
        try:
            fn = _KernelEmitter(self, counter).kernel(term, predicate)
        except Exception:  # noqa: BLE001 - degrade, never fail to plan
            # The emitter choked on the term as a whole (e.g. nesting deeper
            # than Python compiles): interpret it from the root.
            counter = _Counter()
            fn = _KernelEmitter(self, counter).interpreted(term, predicate)
        return CompiledKernel(fn, term, counter.compiled, counter.fallback)

    def _fallback(self, term: Term, counter: _Counter) -> Callable[[dict], Any]:
        """Hand this subtree to the interpreter (siblings stay compiled)."""
        counter.fallback += 1
        runtime = self.runtime

        def run(env: dict) -> Any:
            # _eval (not evaluate): skips the defensive env copy — the
            # interpreter never mutates the environment it is handed.
            return runtime.evaluator._eval(term, env)  # noqa: SLF001

        return run


def _true_kernel(cols: Mapping[str, list], n: int) -> tuple[list, int, Any]:
    return [True] * n, n, None


# ---------------------------------------------------------------------------
# Out-of-line error helpers: generated code reproduces the interpreter's
# exceptions through these, keeping the fault arms off the hot path.
# ---------------------------------------------------------------------------


def _binop_type_error(op: str, a, b, exc: TypeError) -> EvaluationError:
    """The structured error for an ill-typed operator application.

    Mirrors :func:`repro.calculus.evaluator.apply_binop` so kernels and the
    interpreter fail identically (the differential oracle pins this)."""
    return EvaluationError(
        f"operator {op!r} applied to incompatible values "
        f"{type(a).__name__} and {type(b).__name__}: {exc}"
    )


def _var_miss(name: str, env: Mapping[str, Any]) -> None:
    raise EvaluationError(
        f"unbound variable {name!r}; in scope: {sorted(env)}"
    )


def _param_miss(name: str, params: Mapping[str, Any]) -> None:
    raise UnboundParameterError(
        f"parameter :{name} has no bound value; bound: {sorted(params)}"
    )


def _proj_slow(value: Any, attr: str) -> Any:
    """The non-fast-path projection: NULL, Record subclass, or type error."""
    if isinstance(value, Record):
        return value[attr]  # formats the missing-attribute KeyError
    if value is NULL:
        return NULL
    raise EvaluationError(
        f"projection .{attr} applied to non-record {type(value).__name__}"
    )


def _pred_miss() -> None:
    raise EvaluationError("predicate did not evaluate to a boolean")


def _if_miss() -> None:
    raise EvaluationError("if condition is not a boolean")


def _not_miss() -> None:
    raise EvaluationError("'not' applied to a non-boolean")


_UNBOUND = object()

#: What generated code reads that no kernel owns — the globals of every
#: shape.  What a kernel does own (its ``rt`` cell, column names, constants,
#: monoid functions, fallback subtrees) reaches it as closure variables.
_HELPERS: dict[str, Any] = {
    "NULL": NULL,
    "Record": Record,
    "EvaluationError": EvaluationError,
    "DivisionByZeroError": DivisionByZeroError,
    "_binop_type_error": _binop_type_error,
    "identity_key": identity_key,
    "_SCALARS": _SCALARS,
    "_var_miss": _var_miss,
    "_param_miss": _param_miss,
    "_proj_slow": _proj_slow,
    "_pred_miss": _pred_miss,
    "_if_miss": _if_miss,
    "_not_miss": _not_miss,
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
    """Emits one term as a kernel ``def _kern(cols, n)``, in both forms.

    Statement form: ``gen`` returns, per node, the *expression string* (a
    temporary name or an inlined literal) holding the node's value,
    appending any statements it needs at the current indentation depth of
    the row loop.  Expression form: ``xgen`` returns the node as one Python
    expression.  Both forms share the kernel conventions:

    * **variable reads index hoisted column locals** — a prologue binds
      ``_colK = cols[vJ]`` once per chunk (raising the interpreter's
      unbound-variable error if the column is absent), and the row body
      reads ``_colK[_i]``;
    * **names and constants are parameters, not text** — ``vJ`` above is a
      parameter of the enclosing ``_make`` bound to the column's name, as
      ``cJ`` is to a constant's value, so the text depends on the term's
      shape alone and :func:`_factory` compiles each shape once
      (attribute, extent and parameter names are the query's own, not the
      unnester's fresh ones, and stay literal);
    * **lets bind scope temps, not env copies** — a ``let``-bound variable
      becomes a loop-local name shadowing any same-named column for the
      extent of the body, so no per-row dict is materialized;
    * **errors truncate instead of raising** — the statement loop runs
      inside one ``try`` whose handler returns ``(_out, _i, exc)``, giving
      the caller the rows that preceded the failure.

    Subtrees outside the emitted subset evaluate through one call into the
    AST interpreter, fed a per-row env dict materialized from the subtree's
    free variables (columns absent from the chunk are omitted so the
    interpreter's own unbound error fires only if actually read).
    """

    handlers: dict[type, Callable[..., str]]
    xhandlers: dict[type, Callable[..., str]]

    def __init__(self, compiler: ExprCompiler, counter: _Counter):
        self.compiler = compiler
        self.counter = counter
        self.lines: list[str] = []
        #: Per-chunk setup lines (column hoists, fallback column pairs),
        #: emitted inside the try but before the row loop.
        self.prologue: list[str] = []
        self.n = 0
        #: Column name -> hoisted local holding ``cols[name]``.
        self._columns: dict[str, str] = {}
        #: Let-bound variable -> loop-local temp (shadows columns).
        self._scope: dict[str, str] = {}
        #: What this kernel owns, by the name generated code calls it:
        #: ``_make``'s parameters, in binding order.  ``rt`` is the
        #: compiler's ExprRuntime: activate() mutates it in place, so
        #: generated code reading ``rt.params`` / ``rt.database`` always
        #: sees the live execution.
        self.bound: dict[str, Any] = {"rt": compiler.runtime}

    def kernel(self, term: Term, predicate: bool) -> KernelFn:
        """The kernel for *term*: the comprehension form where the term
        lowers to a single expression, the statement loop otherwise.

        The comprehension form evaluates the whole chunk as one list
        comprehension — no per-row appends, no loop-counter bookkeeping —
        and keeps the statement loop as its error path: any exception
        inside the comprehension (a NULL-division, a bad projection, an
        unbound parameter) abandons the partial list and reruns the chunk
        through the statement loop, which reproduces the exact truncation
        point and structured error.  Expressions are deterministic, so the
        rerun reaches the same fault; the only cost is double-evaluating
        the prefix rows of a faulting chunk, and faults abort the query
        anyway.

        Both forms are *emitted* here (the statement form's walk is what
        fills the counter), but an error path is compiled only by the first
        chunk that faults (:meth:`_on_fault`): most kernels never fault, and
        ``compile()`` costs more than everything else a first-seen query
        does.
        """
        source = self._statement_source(term, predicate, self.gen)
        fast = _KernelEmitter(self.compiler, _Counter())
        try:
            return fast._comprehension_kernel(
                term, predicate, self._on_fault(source, term, predicate)
            )
        except Exception:  # noqa: BLE001 - the comprehension form is optional
            return self._instantiate(source)

    def interpreted(self, term: Term, predicate: bool) -> KernelFn:
        """A kernel whose row body is one interpreter call on *term*."""
        return self._statement_kernel(term, predicate, self._gen_fallback)

    def _on_fault(self, source: str, term: Term, predicate: bool) -> KernelFn:
        """The statement form as an error path: compiled and instantiated
        by the first chunk that needs it, reused by every later one.

        A statement form Python cannot compile (nesting deeper than its
        indentation limit, where the comprehension form still fit) becomes
        the whole-term interpreter kernel — the same degradation
        :meth:`ExprCompiler._lower` applies at plan time.  Two threads
        faulting at once both build the same kernel; the last store wins.
        """
        # The closure outlives the emitter: hold the text and the values,
        # not ``self`` with its line buffers.
        values, compiler = tuple(self.bound.values()), self.compiler
        fn: KernelFn | None = None

        def slow(cols: Mapping[str, list], n: int) -> tuple[list, int, Any]:
            nonlocal fn
            if fn is None:
                try:
                    fn = _factory(source)(*values)
                except Exception:  # noqa: BLE001 - degrade, never fail a query
                    fn = _KernelEmitter(compiler, _Counter()).interpreted(
                        term, predicate
                    )
            return fn(cols, n)

        return slow

    def _instantiate(self, source: str) -> KernelFn:
        """This kernel: its shape's ``_make`` applied to what it owns."""
        return _factory(source)(*self.bound.values())

    def _make_source(self, kern: str) -> str:
        """*kern* (``def _kern`` one level in) wrapped as ``_make``."""
        return f"def _make({', '.join(self.bound)}):\n{kern}    return _kern\n"

    def _statement_kernel(
        self, term: Term, predicate: bool, gen: Callable[[Term, int], str]
    ) -> KernelFn:
        return self._instantiate(self._statement_source(term, predicate, gen))

    def _statement_source(
        self, term: Term, predicate: bool, gen: Callable[[Term, int], str]
    ) -> str:
        result = gen(term, 4)
        if predicate:
            self.line(4, f"if {result} is True:")
            self.line(5, "_append(True)")
            self.line(4, f"elif {result} is False or {result} is NULL:")
            self.line(5, "_append(False)")
            self.line(4, "else:")
            self.line(5, "_pred_miss()")
        else:
            self.line(4, f"_append({result})")
        prologue = ("\n".join(self.prologue) + "\n") if self.prologue else ""
        return self._make_source(
            "    def _kern(cols, n):\n"
            "        _out = []\n"
            "        _append = _out.append\n"
            "        _i = 0\n"
            "        try:\n"
            + prologue
            + "            while _i < n:\n"
            + "\n".join(self.lines)
            + "\n"
            "                _i += 1\n"
            "        except Exception as _exc:\n"
            "            return _out, _i, _exc\n"
            "        return _out, n, None\n"
        )

    # -- emission helpers ---------------------------------------------------

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def pline(self, depth: int, text: str) -> None:
        self.prologue.append("    " * depth + text)

    def temp(self) -> str:
        self.n += 1
        return f"t{self.n}"

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
            key = self.bind("v", name)
            self.pline(3, "try:")
            self.pline(4, f"{local} = cols[{key}]")
            self.pline(3, "except KeyError:")
            self.pline(4, f"_var_miss({key}, cols)")
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
        sub = self.bind("s", self.compiler._fallback(term, self.counter))
        names = sorted(free_vars(term))
        scoped = [
            (name, self._scope[name]) for name in names if name in self._scope
        ]
        col_names = tuple(name for name in names if name not in self._scope)
        if col_names:
            self.n += 1
            pairs = f"_sub{self.n}"
            self.pline(
                3,
                f"{pairs} = [(_n, cols[_n]) for _n in "
                f"{self.bind('v', col_names)} if _n in cols]",
            )
            env = f"{{_n: _c[_i] for _n, _c in {pairs}}}"
        else:
            env = "{}"
        if scoped:
            inner = ", ".join(f"{name!r}: {bound}" for name, bound in scoped)
            env = f"{{**{env}, {inner}}}"
        return f"{sub}({env})"

    # -- statement form -----------------------------------------------------

    def gen(self, term: Term, depth: int) -> str:
        handler = self.handlers.get(type(term))
        if handler is None:
            return self._gen_fallback(term, depth)
        result = handler(self, term, depth)
        self.counter.compiled += 1
        return result

    def _gen_fallback(self, term: Term, depth: int) -> str:
        out = self.temp()
        self.line(depth, f"{out} = {self.fallback_call(term)}")
        return out

    # Leaves read the same in both forms; ``depth`` is the statement form's.

    def _gen_var(self, term: Var, depth: int = 0) -> str:
        bound = self._scope.get(term.name)
        if bound is not None:
            return bound
        return f"{self.column(term.name)}[_i]"

    def _gen_const(self, term: Const, depth: int = 0) -> str:
        # Bound, not inlined by repr: operands must be names so that
        # generated `x.__class__` / `x is NULL` stays valid (a literal
        # there is a syntax error / SyntaxWarning), and the value must stay
        # out of the text the code cache is keyed on.
        return self.bind("c", term.value)

    def _gen_null(self, term: Null, depth: int = 0) -> str:
        return "NULL"

    def _gen_zero(self, term: Zero, depth: int = 0) -> str:
        return self.bind("c", term.monoid.finalize(term.monoid.zero))

    def _gen_extent(self, term: Extent, depth: int) -> str:
        out = self.temp()
        self.line(depth, f"{out} = rt.database.extent({term.name!r})")
        return out

    def _gen_param(self, term: Param, depth: int) -> str:
        out = self.temp()
        self.line(depth, "try:")
        self.line(depth + 1, f"{out} = rt.params[{term.name!r}]")
        self.line(depth, "except KeyError:")
        self.line(depth + 1, f"_param_miss({term.name!r}, rt.params)")
        return out

    def _gen_record(self, term: RecordCons, depth: int) -> str:
        parts = [(name, self.gen(expr, depth)) for name, expr in term.fields]
        inner = ", ".join(f"{name!r}: {value}" for name, value in parts)
        out = self.temp()
        self.line(depth, f"{out} = Record({{{inner}}})")
        return out

    def _gen_proj(self, term: Proj, depth: int) -> str:
        base = self.gen(term.expr, depth)
        out = self.temp()
        self.line(depth, f"if {base}.__class__ is Record:")
        self.line(depth + 1, "try:")
        self.line(depth + 2, f"{out} = {base}._fields[{term.attr!r}]")
        self.line(depth + 1, "except KeyError:")
        self.line(depth + 2, f"_proj_slow({base}, {term.attr!r})")
        self.line(depth, "else:")
        self.line(depth + 1, f"{out} = _proj_slow({base}, {term.attr!r})")
        return out

    def _gen_if(self, term: If, depth: int) -> str:
        cond = self.gen(term.cond, depth)
        out = self.temp()
        self.line(depth, f"if {cond} is True:")
        then = self.gen(term.then, depth + 1)
        self.line(depth + 1, f"{out} = {then}")
        self.line(depth, f"elif {cond} is False or {cond} is NULL:")
        orelse = self.gen(term.orelse, depth + 1)
        self.line(depth + 1, f"{out} = {orelse}")
        self.line(depth, "else:")
        self.line(depth + 1, "_if_miss()")
        return out

    def _gen_let(self, term: Let, depth: int) -> str:
        value = self.gen(term.value, depth)
        out = self.temp()
        self.line(depth, f"{out} = {value}")
        return self.scoped(term.var, out, lambda: self.gen(term.body, depth))

    def _gen_not(self, term: Not, depth: int) -> str:
        value = self.gen(term.expr, depth)
        out = self.temp()
        self.line(depth, f"if {value} is True:")
        self.line(depth + 1, f"{out} = False")
        self.line(depth, f"elif {value} is False:")
        self.line(depth + 1, f"{out} = True")
        self.line(depth, f"elif {value} is NULL:")
        self.line(depth + 1, f"{out} = NULL")
        self.line(depth, "else:")
        self.line(depth + 1, "_not_miss()")
        return out

    def _gen_isnull(self, term: IsNull, depth: int) -> str:
        value = self.gen(term.expr, depth)
        out = self.temp()
        self.line(depth, f"{out} = {value} is NULL")
        return out

    def _gen_singleton(self, term: Singleton, depth: int) -> str:
        value = self.gen(term.expr, depth)
        out = self.temp()
        self.line(depth, f"{out} = {self.bind('f', term.monoid.unit)}({value})")
        return out

    def _gen_merge(self, term: Merge, depth: int) -> str:
        left = self.gen(term.left, depth)
        right = self.gen(term.right, depth)
        out = self.temp()
        merge = self.bind("f", term.monoid.merge)
        self.line(depth, f"{out} = {merge}({left}, {right})")
        return out

    def _gen_binop(self, term: BinOp, depth: int) -> str:
        op = term.op
        if op in BOOLEAN_OPS:
            return self._gen_shortcircuit(term, depth)
        left = self.gen(term.left, depth)
        right = self.gen(term.right, depth)
        out = self.temp()
        self.line(depth, f"if {left} is NULL or {right} is NULL:")
        self.line(depth + 1, f"{out} = NULL")
        if op in ("==", "!="):
            self.line(
                depth,
                f"elif {left}.__class__ in _SCALARS "
                f"and {right}.__class__ in _SCALARS:",
            )
            self.line(depth + 1, f"{out} = {left} {op} {right}")
            self.line(depth, "else:")
            self.line(
                depth + 1,
                f"{out} = identity_key({left}) {op} identity_key({right})",
            )
            return out
        self.line(depth, "else:")
        if op in ("/", "%"):
            fault = "division by zero" if op == "/" else "modulo by zero"
            self.line(depth + 1, f"if {right} == 0:")
            self.line(
                depth + 2, f"raise DivisionByZeroError({fault!r})"
            )
        # A well-typed plan never trips the TypeError arm; with
        # typechecking off the fault must still surface structured,
        # matching the interpreter (zero-cost when not raised on 3.11+).
        self.line(depth + 1, "try:")
        self.line(depth + 2, f"{out} = {left} {op} {right}")
        self.line(depth + 1, "except TypeError as exc:")
        self.line(
            depth + 2,
            f"raise _binop_type_error({op!r}, {left}, {right}, exc) from exc",
        )
        return out

    def _gen_shortcircuit(self, term: BinOp, depth: int) -> str:
        shortcut = "False" if term.op == "and" else "True"
        left = self.gen(term.left, depth)
        out = self.temp()
        self.line(depth, f"if {left} is {shortcut}:")
        self.line(depth + 1, f"{out} = {shortcut}")
        self.line(depth, "else:")
        right = self.gen(term.right, depth + 1)
        self.line(depth + 1, f"if {left} is NULL or {right} is NULL:")
        self.line(depth + 2, f"{out} = NULL")
        self.line(depth + 1, "else:")
        self.line(depth + 2, f"{out} = {left} {term.op} {right}")
        return out

    # -- comprehension form -------------------------------------------------
    #
    # Where a term lowers to a *single Python expression* the whole chunk
    # evaluates as one list comprehension:
    #
    #     def _kern(cols, n):
    #         try:
    #             <column hoists>
    #             return [<expr> for _i in range(n)], n, None
    #         except Exception:
    #             return _slow(cols, n)
    #
    # which is ~2.5x faster than the statement loop (one LIST_APPEND per
    # row, no loop-counter or try-frame bookkeeping per row).  Error arms
    # that the statement form spells out (division by zero, type faults,
    # unbound parameters) are not re-spelled here: the raw exception —
    # KeyError, ZeroDivisionError, TypeError — aborts the comprehension
    # and the chunk reruns through ``_slow``, whose loop reproduces the
    # structured error and exact truncation row.  Success paths must agree
    # between the two forms; error paths only need to *reach* ``_slow``.

    def _comprehension_kernel(
        self, term: Term, predicate: bool, slow: KernelFn
    ) -> KernelFn:
        expr = self.xgen(term)
        if predicate:
            t = self.wtemp()
            expr = (
                f"(True if ({t} := {expr}) is True else "
                f"(False if {t} is False or {t} is NULL else _pred_miss()))"
            )
        self.bound["_slow"] = slow
        prologue = ("\n".join(self.prologue) + "\n") if self.prologue else ""
        return self._instantiate(
            self._make_source(
                "    def _kern(cols, n):\n"
                "        try:\n"
                + prologue
                + f"            return [{expr} for _i in range(n)], n, None\n"
                "        except Exception:\n"
                "            return _slow(cols, n)\n"
            )
        )

    def xgen(self, term: Term) -> str:
        """*term* as one Python expression."""
        handler = self.xhandlers.get(type(term))
        if handler is None:
            return self.fallback_call(term)
        return handler(self, term)

    def _x_extent(self, term: Extent) -> str:
        return f"rt.database.extent({term.name!r})"

    def _x_param(self, term: Param) -> str:
        # Raw KeyError on an unbound parameter reruns through the slow
        # loop, which raises the structured UnboundParameterError.  Kept
        # lazy (no prologue hoist) so a parameter referenced only in an
        # untaken If branch stays unread.
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
            f"({orelse} if {t} is False or {t} is NULL else _if_miss()))"
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
            f"(NULL if {t} is NULL else _not_miss())))"
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
            # Raw operator: ZeroDivisionError / TypeError rerun through
            # the slow loop, which raises the structured fault.
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


# The tables hold plain function objects (no dynamic attribute lookup per
# node).  NOTE: Lambda, Apply and Comprehension deliberately have no entry —
# loops are the algebra's job, and the interpreter fallback stays exercised.
_KernelEmitter.handlers = {
    Var: _KernelEmitter._gen_var,
    Const: _KernelEmitter._gen_const,
    Null: _KernelEmitter._gen_null,
    Zero: _KernelEmitter._gen_zero,
    Extent: _KernelEmitter._gen_extent,
    Param: _KernelEmitter._gen_param,
    RecordCons: _KernelEmitter._gen_record,
    Proj: _KernelEmitter._gen_proj,
    If: _KernelEmitter._gen_if,
    Let: _KernelEmitter._gen_let,
    Not: _KernelEmitter._gen_not,
    IsNull: _KernelEmitter._gen_isnull,
    Singleton: _KernelEmitter._gen_singleton,
    Merge: _KernelEmitter._gen_merge,
    BinOp: _KernelEmitter._gen_binop,
}
_KernelEmitter.xhandlers = {
    Var: _KernelEmitter._gen_var,
    Const: _KernelEmitter._gen_const,
    Null: _KernelEmitter._gen_null,
    Zero: _KernelEmitter._gen_zero,
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
