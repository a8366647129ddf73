"""The query unnesting algorithm — Section 4 of the paper (Figure 7).

This is the paper's primary contribution: a *complete* translation of monoid
comprehensions into the nested relational algebra that removes every form of
query nesting, using only two genuinely new rewrite ideas (rules C8 and C9)
on top of a straightforward compositional translation.

The translation state mirrors the paper's judgement ``[[ ⊕{e | q̄} ]]ᵘ_w (E)``:

* ``E``  — the algebra plan built so far (``None`` before rule C1 fires);
* ``w``  — the variables in scope, i.e. exactly ``plan.columns()``;
* ``u``  — when compiling an *inner* comprehension (a "box" in the paper's
  Figure 2 terminology), the variables introduced inside the box by
  outer-joins/outer-unnests.  The paper encodes inner-ness as ``u ≠ ()``;
  we carry an explicit :class:`_Box` record holding the variables that were
  in scope at box entry (the group-by list ``w\\u``) and the null-test
  variables ``u``.

Rule map (Figure 7 → this module):

* C1  first outermost generator over an extent → ``Scan`` (+ pushed ``Select``)
* C2  outermost comprehension, generators exhausted → ``Reduce``
* C3  outermost generator over an extent → ``Join``
* C4  outermost generator over a path → ``Unnest``
* C5  inner comprehension, generators exhausted → ``Nest``
* C6  inner generator over an extent → ``OuterJoin``
* C7  inner generator over a path → ``OuterUnnest``
* C8  nested comprehension in the predicate, free variables covered by ``w``
      → splice the inner box onto the current stream (applied as early as
      possible, per the paper)
* C9  nested comprehension in the head once all generators are consumed →
      same splice

Completeness (the paper's Theorem 1) holds constructively here: after
normalization the only places nested comprehensions can remain are the
predicate and the head, C8/C9 eliminate each of those, and generator domains
that normalization could not flatten (a set comprehension feeding a
non-idempotent accumulator) are handled by splicing the domain as a box and
unnesting its output — so ``unnest`` is total on prepared terms.

Soundness (Theorem 2) is checked empirically by the test suite, which
compares plan evaluation against the direct calculus semantics over
randomized databases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_

from repro.algebra.operators import (
    Eval,
    Join,
    Nest,
    Operator,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Seed,
    Select,
    Unnest,
)
from repro.calculus.terms import (
    Comprehension,
    Extent,
    Filter,
    Generator,
    Lambda,
    Term,
    Var,
    _rebuild,
    conj,
    conjuncts,
    free_vars,
    fresh_name,
)
from repro.core.normalization import prepare
from repro.errors import PlanningError


class UnnestingError(PlanningError):
    """The translator was given a term it cannot compile (internal bug)."""


class TraceEntry:
    """One rule firing, recorded for the Figure 2 style walkthrough.

    Its detail is ``detail.format(*args)``, rendered on first read: the
    terms and plans a firing names are printed only when someone looks.
    """

    __slots__ = ("rule", "plan", "_detail", "_args")

    def __init__(
        self, rule: str, detail: str, plan: Operator | None = None, args: tuple = ()
    ):
        self.rule, self.plan, self._detail, self._args = rule, plan, detail, args

    @property
    def detail(self) -> str:
        if self._args:
            self._detail, self._args = self._detail.format(*self._args), ()
        return self._detail

    def __str__(self) -> str:
        return f"({self.rule}) {self.detail}"


@dataclass
class UnnestingTrace:
    """The sequence of rule firings of one translation."""

    entries: list[TraceEntry] = field(default_factory=list)

    def record(
        self, rule: str, detail: str, plan: Operator | None = None, *args: object
    ) -> None:
        """Record a firing; *detail* is a ``str.format`` template over *args*."""
        self.entries.append(TraceEntry(rule, detail, plan, args))

    def rules_fired(self) -> list[str]:
        return [entry.rule for entry in self.entries]

    def __str__(self) -> str:
        return "\n".join(str(entry) for entry in self.entries)


@dataclass(frozen=True)
class _Box:
    """Inner-comprehension state: the paper's ``u``/``w\\u`` bookkeeping."""

    entry_vars: tuple[str, ...]  # variables in scope at box entry (group-by)
    out_var: str  # the variable the box binds its result to


def unnest(term: Term, trace: UnnestingTrace | None = None) -> Operator:
    """Translate a *prepared* calculus term into an unnested algebra plan.

    The input must already be normalized and canonicalized (see
    :func:`repro.core.normalization.prepare`); use :func:`unnest_query` for
    the one-call version.  Returns a plan rooted at ``Reduce`` (or ``Eval``
    for top-level terms that are not comprehensions).
    """
    translator = _Translator(trace or UnnestingTrace())
    return translator.translate_query(term)


def unnest_query(term: Term, trace: UnnestingTrace | None = None) -> Operator:
    """Prepare (normalize, with fresh generator names) and unnest *term*."""
    return unnest(prepare(term), trace)


class _Translator:
    """One translation run; holds the trace and fresh-name state."""

    def __init__(self, trace: UnnestingTrace):
        self.trace = trace

    # -- entry points ---------------------------------------------------------

    def translate_query(self, term: Term) -> Operator:
        if isinstance(term, Comprehension):
            return self._compile(term, plan=None, box=None)
        # Top-level non-comprehension (e.g. a Merge produced by rule N3):
        # splice every nested comprehension onto a Seed and evaluate the
        # residual expression over the resulting singleton stream.
        plan: Operator = Seed()
        boxes = _boxes([term], set(plan.columns()))
        plan, (residual,) = self._splice_boxes(
            boxes, plan, [term], "C9", "spliced top-level box into {}"
        )
        leftover = _any_comprehension(residual)
        if leftover is not None:
            raise UnnestingError(
                f"unspliceable comprehension remains at top level: {leftover}"
            )
        return Eval(plan, residual)

    # -- the main compilation loop (Figure 7) ---------------------------------

    def _compile(
        self,
        comp: Comprehension,
        plan: Operator | None,
        box: _Box | None,
    ) -> Operator:
        """Compile one (canonical) comprehension.

        *box* is None for the outermost comprehension (rules C1–C4, C2) and
        a :class:`_Box` for inner comprehensions (rules C5–C7).
        """
        if box is not None and plan is None:
            raise UnnestingError("inner comprehension compiled without a stream")
        pending = list(comp.generators())
        preds = [c for f in comp.filters() for c in conjuncts(f.pred)]
        head = comp.head
        null_vars: list[str] = []

        while True:
            w = set(plan.columns()) if plan is not None else set()

            # (C8) — splice the nested comprehensions of the predicate as
            # soon as their free variables no longer depend on pending
            # generators.  Each is replaced everywhere it occurs (predicate
            # and head), so a repeated subquery is computed only once.
            boxes = _boxes(preds, w)
            if boxes:
                plan, terms = self._splice_boxes(
                    boxes, plan, [head, *preds], "C8", "predicate box -> {}: {}"
                )
                head, preds[:] = terms[0], terms[1:]
                continue

            if pending:
                gen = pending.pop(0)
                plan, introduced = self._compile_generator(
                    gen, plan, preds, box is not None
                )
                if box is not None:
                    null_vars.extend(introduced)
                continue

            # (C9) — splice nested comprehensions remaining in the head.
            boxes = _boxes([head], w)
            if boxes:
                plan, terms = self._splice_boxes(
                    boxes, plan, [head, *preds], "C9", "head box -> {}: {}"
                )
                head, preds[:] = terms[0], terms[1:]
                continue
            break

        residual = conj(*preds)
        leftover = _any_comprehension(residual) or _any_comprehension(head)
        if leftover is not None:
            raise UnnestingError(
                f"comprehension survived unnesting (free variables "
                f"{sorted(free_vars(leftover))} never came into scope): {leftover}"
            )

        if plan is None:
            plan = Seed()
        if box is None:
            result: Operator = Reduce(plan, comp.monoid_name, head, residual)
            self.trace.record("C2", "reduce[{}]", result, comp.monoid_name)
            return result
        # Rule C5: the Γ grouping variables are the range variables in scope
        # at box entry.  The paper's correctness argument assumes bindings of
        # those variables are distinguishable; the evaluators honor that by
        # keying a group with a binding's occurrence where it ranges over a
        # bag or list and with identity_key otherwise, so one value or object
        # held twice, or two value-equal objects, form separate groups.
        result = Nest(
            plan,
            comp.monoid_name,
            head,
            group_by=box.entry_vars,
            null_vars=tuple(null_vars),
            out_var=box.out_var,
            pred=residual,
        )
        self.trace.record(
            "C5",
            "nest[{}] group_by({}) -> {}",
            result,
            comp.monoid_name,
            ",".join(box.entry_vars) or "()",
            box.out_var,
        )
        return result

    def _splice(
        self, nested: Comprehension, plan: Operator | None
    ) -> tuple[Operator, str]:
        """Compile *nested* as a box consuming the current stream."""
        if plan is None:
            plan = Seed()
        out = fresh_name("m")
        new_plan = self._compile(nested, plan, box=_Box(plan.columns(), out))
        return new_plan, out

    def _splice_boxes(
        self,
        boxes: list[Comprehension],
        plan: Operator | None,
        terms: list[Term],
        rule: str,
        detail: str,
    ) -> tuple[Operator, list[Term]]:
        """Splice *boxes* onto *plan*, left to right, and replace them in
        *terms* with their output variables in one rebuild.

        α-equivalent boxes share one output variable (:class:`_Spliced`).
        A box is spliced with the earlier boxes it contains already replaced,
        as though each splice had been followed by its own replacement.
        """
        spliced = _Spliced()
        for box in boxes:
            out = spliced.lookup(box)
            if out is None:
                nested = _replace_boxes(box, spliced, root=False) if spliced else box
                plan, name = self._splice(nested, plan)
                out = Var(name)
                spliced.add(box, out)
                self.trace.record(rule, detail, plan, name, nested)
            spliced.by_box[id(box)] = out
        return plan, [_replace_boxes(t, spliced) for t in terms]

    def _compile_generator(
        self,
        gen: Generator,
        plan: Operator | None,
        preds: list[Term],
        inner: bool,
    ) -> tuple[Operator, list[str]]:
        """Compile one generator: rules C1, C3, C4 (outer) / C6, C7 (inner)."""
        domain = gen.domain
        introduced = [gen.var]

        # A generator domain that normalization could not flatten (e.g. a set
        # comprehension feeding a bag/sum accumulator): splice the domain as
        # a box and unnest its output variable.
        if isinstance(domain, Comprehension):
            plan, out = self._splice(domain, plan)
            self.trace.record("C8", "generator-domain box -> {}", plan, out)
            domain = Var(out)

        w = set(plan.columns()) if plan is not None else set()
        own, mixed = _split_predicates(preds, w, gen.var)

        if isinstance(domain, Extent):
            right: Operator = Scan(domain.name, gen.var)
            if not inner:
                if plan is None or isinstance(plan, Seed):
                    # (C1) — the first generator seeds the plan.
                    plan = Select(right, conj(*own)) if own else right
                    if mixed:
                        plan = Select(plan, conj(*mixed))
                    self.trace.record("C1", "scan {} <- {}", plan, gen.var, domain.name)
                else:
                    # (C3) — join with the extent; p[v] is pushed below.
                    if own:
                        right = Select(right, conj(*own))
                    plan = Join(plan, right, conj(*mixed))
                    self.trace.record("C3", "join {} <- {}", plan, gen.var, domain.name)
            else:
                # (C6) — inner generators must not block the stream.
                plan = OuterJoin(plan, right, conj(*(own + mixed)))
                self.trace.record(
                    "C6", "outer-join {} <- {}", plan, gen.var, domain.name
                )
            return plan, introduced

        # Path (or other expression) domain.
        pred = conj(*(own + mixed))
        if not inner:
            # (C4)
            if plan is None:
                plan = Seed()
            plan = Unnest(plan, domain, gen.var, pred)
            self.trace.record("C4", "unnest {} <- {}", plan, gen.var, domain)
        else:
            # (C7)
            assert plan is not None
            plan = OuterUnnest(plan, domain, gen.var, pred)
            self.trace.record("C7", "outer-unnest {} <- {}", plan, gen.var, domain)
        return plan, introduced


# ---------------------------------------------------------------------------
# Predicate bookkeeping
# ---------------------------------------------------------------------------


def _split_predicates(
    preds: list[Term], w: set[str], var: str
) -> tuple[list[Term], list[Term]]:
    """Extract the conjuncts that become evaluable once *var* is in scope.

    Returns ``(own, mixed)`` — the paper's ``p[v]`` (conjuncts over *var*
    alone) and ``p[(w, v)]`` (conjuncts over *var* plus in-scope variables).
    Conjuncts that still contain a nested comprehension are left for rule C8,
    and conjuncts referencing not-yet-bound variables stay pending.
    ``preds`` is mutated: extracted conjuncts are removed.
    """
    own: list[Term] = []
    mixed: list[Term] = []
    remaining: list[Term] = []
    for pred in preds:
        if _any_comprehension(pred) is not None:
            remaining.append(pred)
            continue
        names = free_vars(pred)
        if names <= {var}:
            own.append(pred)
        elif var in names and names <= w | {var}:
            mixed.append(pred)
        else:
            remaining.append(pred)
    preds[:] = remaining
    return own, mixed


# ---------------------------------------------------------------------------
# Term search/replace helpers
# ---------------------------------------------------------------------------


def _boxes(terms: list[Term], w: set[str]) -> list[Comprehension]:
    """The outermost comprehensions of *terms* whose free vars ⊆ w, left to
    right: the boxes that can be spliced onto a stream binding *w*.

    Comprehensions under a lambda are skipped (their result depends on the
    lambda's argument, so they cannot be computed once per stream tuple).
    """
    found: list[Comprehension] = []

    def walk(term: Term) -> None:
        if isinstance(term, Comprehension):
            # An inner part of a non-spliceable comprehension cannot be
            # spliced from *here* either: its free variables include
            # generator vars of the enclosing comprehension, which are not
            # stream columns.
            if free_vars(term) <= w:
                found.append(term)
        elif not isinstance(term, Lambda):
            for child in term.children():
                walk(child)

    for term in terms:
        walk(term)
    return found


def _any_comprehension(term: Term) -> Comprehension | None:
    """Any comprehension subterm of *term* (or None)."""
    if isinstance(term, Comprehension):
        return term
    for child in term.children():
        found = _any_comprehension(child)
        if found is not None:
            return found
    return None


class _Spliced:
    """The boxes spliced so far and their output variables, found again by
    α-equivalence.

    Two comprehensions that differ only in the names of their bound
    variables denote the same subquery; giving all of them the same box
    output variable is the common-subexpression sharing the paper's
    graph-reduction discussion (Section 2) calls for.  A box of the walk
    that found them is recognised by identity; another comprehension is
    compared by α-canonical form, and a comprehension is canonicalised once,
    and only when a box of its monoid and qualifier count was spliced.
    """

    def __init__(self) -> None:
        self.by_box: dict[int, Var] = {}
        self._shapes: dict[tuple[str, int], list[tuple[Comprehension, Var]]] = {}
        self._tables: dict[tuple[str, int], dict[Term, Var]] = {}
        self._canon: dict[int, tuple[Comprehension, Term]] = {}

    def __bool__(self) -> bool:
        return bool(self._shapes)

    def _canonical(self, comp: Comprehension) -> Term:
        known = self._canon.get(id(comp))
        if known is None:  # keeps *comp* alive, so its id is not reused
            known = self._canon[id(comp)] = (comp, _alpha_canonical(comp))
        return known[1]

    def _table(self, shape: tuple[str, int]) -> dict[Term, Var] | None:
        table = self._tables.get(shape)
        if table is None and shape in self._shapes:
            table = self._tables[shape] = {
                self._canonical(box): out for box, out in self._shapes[shape]
            }
        return table

    def lookup(self, comp: Comprehension) -> Var | None:
        """The output variable of the spliced box *comp* is a copy of."""
        out = self.by_box.get(id(comp))
        if out is None:
            table = self._table((comp.monoid_name, len(comp.qualifiers)))
            if table is not None:
                out = table.get(self._canonical(comp))
        return out

    def add(self, box: Comprehension, out: Var) -> None:
        shape = (box.monoid_name, len(box.qualifiers))
        self._shapes.setdefault(shape, []).append((box, out))
        if shape in self._tables:
            self._tables[shape][self._canonical(box)] = out


def _replace_boxes(term: Term, spliced: _Spliced, root: bool = True) -> Term:
    """*term* with each outermost copy of a spliced box replaced by the box's
    output variable; with ``root=False`` *term* itself is kept.

    Replacing the outermost copies in one walk is what replacing every copy
    of each box in turn would give: a term is α-equivalent to a box exactly
    when it still is after the copies of other boxes inside both are
    replaced.
    """

    def walk(t: Term) -> Term:
        if isinstance(t, Comprehension):
            out = spliced.lookup(t)
            if out is not None:
                return out
        return _walk_children(t, walk)

    return walk(term) if root else _walk_children(term, walk)


def _walk_children(term: Term, walk) -> Term:
    """*term* with *walk* applied to its children; itself if none changed."""
    children = term.children()
    if not children:
        return term
    walked = tuple([walk(child) for child in children])
    if all(map(is_, walked, children)):
        return term
    return _rebuild(term, walked)


def _alpha_canonical(term: Term) -> Term:
    """Rename bound variables to canonical positional names.

    Alpha-equivalent terms map to identical canonical terms; free variables
    are untouched, so the comparison respects the context.
    """
    counter = [0]

    def canon(t: Term, env: dict[str, str]) -> Term:
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, Comprehension):
            inner_env = dict(env)
            quals: list = []
            for qualifier in t.qualifiers:
                if isinstance(qualifier, Generator):
                    domain = canon(qualifier.domain, inner_env)
                    name = f"\x00{counter[0]}"
                    counter[0] += 1
                    inner_env[qualifier.var] = name
                    quals.append(Generator(name, domain))
                else:
                    quals.append(Filter(canon(qualifier.pred, inner_env)))
            return Comprehension(
                t.monoid_name, canon(t.head, inner_env), tuple(quals)
            )
        if isinstance(t, Lambda):
            inner_env = dict(env)
            name = f"\x00{counter[0]}"
            counter[0] += 1
            inner_env[t.param] = name
            return Lambda(name, canon(t.body, inner_env))
        children = tuple(canon(c, env) for c in t.children())
        return _rebuild(t, children)

    return canon(term, {})
