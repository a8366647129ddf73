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
    conj,
    conjuncts,
    free_vars,
    fresh_name,
    substitute,
    transform,
)
from repro.core.normalization import prepare
from repro.errors import PlanningError


class UnnestingError(PlanningError):
    """The translator was given a term it cannot compile (internal bug)."""


@dataclass
class TraceEntry:
    """One rule firing, recorded for the Figure 2 style walkthrough."""

    rule: str
    detail: str
    plan: Operator | None = None

    def __str__(self) -> str:
        return f"({self.rule}) {self.detail}"


@dataclass
class UnnestingTrace:
    """The sequence of rule firings of one translation."""

    entries: list[TraceEntry] = field(default_factory=list)

    def record(self, rule: str, detail: str, plan: Operator | None = None) -> None:
        self.entries.append(TraceEntry(rule, detail, plan))

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
    """Prepare (normalize + canonicalize) and unnest *term*."""
    return unnest(_uniquify(prepare(term)), trace)


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
        residual = term
        while True:
            nested = _find_spliceable(residual, set(plan.columns()))
            if nested is None:
                break
            out = fresh_name("m")
            plan = self._compile(
                nested, plan, box=_Box(plan.columns(), out)
            )
            residual = _replace(residual, nested, Var(out))
            self.trace.record("C9", f"spliced top-level box into {out}", plan)
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

            # (C8) — splice a nested comprehension from the predicate as soon
            # as its free variables no longer depend on pending generators.
            spliced = False
            for index, pred in enumerate(preds):
                nested = _find_spliceable(pred, w)
                if nested is None:
                    continue
                plan, out = self._splice(nested, plan)
                # Replace the comprehension everywhere it occurs (predicate
                # and head), so a repeated subquery is computed only once.
                preds[:] = [_replace(p, nested, Var(out)) for p in preds]
                head = _replace(head, nested, Var(out))
                self.trace.record(
                    "C8", f"predicate box -> {out}: {nested}", plan
                )
                spliced = True
                break
            if spliced:
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
            nested = _find_spliceable(head, w)
            if nested is not None:
                plan, out = self._splice(nested, plan)
                head = _replace(head, nested, Var(out))
                preds[:] = [_replace(p, nested, Var(out)) for p in preds]
                self.trace.record("C9", f"head box -> {out}: {nested}", plan)
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
            self.trace.record("C2", f"reduce[{comp.monoid_name}]", result)
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
            f"nest[{comp.monoid_name}] group_by({','.join(box.entry_vars) or '()'})"
            f" -> {box.out_var}",
            result,
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
            self.trace.record("C8", f"generator-domain box -> {out}", plan)
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
                    self.trace.record("C1", f"scan {gen.var} <- {domain.name}", plan)
                else:
                    # (C3) — join with the extent; p[v] is pushed below.
                    if own:
                        right = Select(right, conj(*own))
                    plan = Join(plan, right, conj(*mixed))
                    self.trace.record("C3", f"join {gen.var} <- {domain.name}", plan)
            else:
                # (C6) — inner generators must not block the stream.
                plan = OuterJoin(plan, right, conj(*(own + mixed)))
                self.trace.record(
                    "C6", f"outer-join {gen.var} <- {domain.name}", plan
                )
            return plan, introduced

        # Path (or other expression) domain.
        pred = conj(*(own + mixed))
        if not inner:
            # (C4)
            if plan is None:
                plan = Seed()
            plan = Unnest(plan, domain, gen.var, pred)
            self.trace.record("C4", f"unnest {gen.var} <- {domain}", plan)
        else:
            # (C7)
            assert plan is not None
            plan = OuterUnnest(plan, domain, gen.var, pred)
            self.trace.record("C7", f"outer-unnest {gen.var} <- {domain}", plan)
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


def _find_spliceable(term: Term, w: set[str]) -> Comprehension | None:
    """The first outermost comprehension in *term* whose free vars ⊆ w.

    Comprehensions under a lambda are skipped (their result depends on the
    lambda's argument, so they cannot be computed once per stream tuple).
    """
    if isinstance(term, Comprehension):
        if free_vars(term) <= w:
            return term
        # An inner part of a non-spliceable comprehension can still not be
        # spliced from *here*: its free variables include generator vars of
        # the enclosing comprehension, which are not stream columns.
        return None
    if isinstance(term, Lambda):
        return None
    for child in term.children():
        found = _find_spliceable(child, w)
        if found is not None:
            return found
    return None


def _any_comprehension(term: Term) -> Comprehension | None:
    """Any comprehension subterm of *term* (or None)."""
    if isinstance(term, Comprehension):
        return term
    for child in term.children():
        found = _any_comprehension(child)
        if found is not None:
            return found
    return None


def _replace(term: Term, target: Term, replacement: Term) -> Term:
    """Replace every alpha-equivalent occurrence of *target* by *replacement*.

    Two comprehensions that differ only in the names of their bound
    variables denote the same subquery; replacing all of them with the same
    box output variable is the common-subexpression sharing the paper's
    graph-reduction discussion (Section 2) calls for.
    """
    canon = _alpha_canonical(target)

    def step(t: Term) -> Term:
        if isinstance(t, Comprehension) and _alpha_canonical(t) == canon:
            return replacement
        return t

    return transform(term, step)


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
        from repro.calculus.terms import _rebuild

        return _rebuild(t, children)

    return canon(term, {})


def _uniquify(term: Term) -> Term:
    """Give every comprehension generator a globally unique variable name.

    The C8 early-splice test compares free variables against stream columns;
    shadowed names would make that test unsound, so the translator runs on
    alpha-unique terms.
    """

    def rename(t: Term) -> Term:
        if not isinstance(t, Comprehension):
            return t
        mapping: dict[str, Term] = {}
        quals = []
        for qualifier in t.qualifiers:
            if isinstance(qualifier, Generator):
                domain = substitute(qualifier.domain, mapping)
                new_name = fresh_name(qualifier.var.strip("_") or "v")
                mapping[qualifier.var] = Var(new_name)
                quals.append(Generator(new_name, domain))
            else:
                quals.append(Filter(substitute(qualifier.pred, mapping)))
        return Comprehension(t.monoid_name, substitute(t.head, mapping), tuple(quals))

    return transform(term, rename)
