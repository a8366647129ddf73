"""The normalization algorithm for monoid comprehensions (paper Figure 4).

Normalization puts the calculus into a canonical form: beta-redexes and
record projections are reduced (N1, N2), generator domains built from
conditionals / zeros / singletons / merges are simplified away (N3–N6),
nested comprehension domains are flattened (N7), existential quantifications
in filters are unnested (N8), and same-monoid head nesting collapses (N9).

The paper proves these rules reduce every generator domain to a *path*
(``x.A1...An`` over a range variable or an extent).  Queries that still
contain nesting after normalization — nesting in the head, in aggregates, in
universal quantifiers — are exactly the ones the unnesting algorithm of
Section 4 (:mod:`repro.core.unnesting`) handles with outer-joins and
grouping.

The rules are expressed declaratively in the :data:`NORMALIZATION_RULES`
rule set (run by the generic :class:`~repro.core.rewrite.RewriteEngine`,
mirroring the paper's OPTL organization where "30 lines are for
normalization of comprehensions").

Soundness side conditions (made explicit here, they are implicit in the
paper's monoid well-formedness discussion):

* N6 (merge split) and N7 (flattening) may collapse duplicates when the
  generator domain is an *idempotent* collection (a set) feeding a
  *non-idempotent* accumulator (e.g. ``sum``).  In that configuration the
  rules are not meaning-preserving, so we keep the term nested and let the
  unnesting algorithm deal with it.
* N8 (existential unnesting) requires the outer accumulator to be
  idempotent, as stated in the paper.
"""

from __future__ import annotations

from repro.calculus.monoids import monoid as lookup_monoid
from repro.calculus.terms import (
    Apply,
    BinOp,
    Comprehension,
    Const,
    Filter,
    Generator,
    If,
    Lambda,
    Let,
    Merge,
    Not,
    Proj,
    Qualifier,
    RecordCons,
    Singleton,
    Term,
    Zero,
    alpha_rename,
    bound_vars,
    conj,
    conjuncts,
    fresh_name,
    free_vars,
    substitute,
    subterms,
    transform,
)
from repro.core.rewrite import RewriteEngine, RuleSet

NORMALIZATION_RULES = RuleSet("normalization", transform=transform)


def normalize(term: Term) -> Term:
    """Normalize *term* to a fixpoint of rules N1–N9."""
    engine = RewriteEngine()
    return engine.run_phase(NORMALIZATION_RULES, term)


# ---------------------------------------------------------------------------
# Expression-level rules
# ---------------------------------------------------------------------------


@NORMALIZATION_RULES.rule("N1-beta", "(λv.e1) e2 → e1[e2/v]", roots=(Apply,))
def _beta(term: Term) -> Term | None:
    if isinstance(term, Apply) and isinstance(term.fn, Lambda):
        return substitute(term.fn.body, {term.fn.param: term.arg})
    return None


@NORMALIZATION_RULES.rule(
    "let-inline", "let v = e1 in e2 → e2[e1/v] (reduction rule D6)", roots=(Let,)
)
def _let_inline(term: Term) -> Term | None:
    if isinstance(term, Let):
        return substitute(term.body, {term.var: term.value})
    return None


@NORMALIZATION_RULES.rule("N2-projection", "(…, A = e, …).A → e", roots=(Proj,))
def _projection(term: Term) -> Term | None:
    if isinstance(term, Proj) and isinstance(term.expr, RecordCons):
        try:
            return term.expr.field_expr(term.attr)
        except KeyError:
            return None
    return None


@NORMALIZATION_RULES.rule(
    "if-const", "fold conditionals on literal conditions", roots=(If,)
)
def _if_const(term: Term) -> Term | None:
    if isinstance(term, If):
        if term.cond == Const(True):
            return term.then
        if term.cond == Const(False):
            return term.orelse
    return None


@NORMALIZATION_RULES.rule("not-const", "fold negations of literals", roots=(Not,))
def _not_const(term: Term) -> Term | None:
    if isinstance(term, Not):
        if term.expr == Const(True):
            return Const(False)
        if term.expr == Const(False):
            return Const(True)
    return None


@NORMALIZATION_RULES.rule(
    "bool-simplify", "true/false identities of and/or", roots=(BinOp,)
)
def _bool_simplify(term: Term) -> Term | None:
    # The reference and/or are left-biased, not Kleene: a NULL left operand
    # makes the result NULL whatever the right one is.  So the absorbing
    # constant folds only from the left (`false and p`, `true or p`, where
    # p is never evaluated); `p and false` / `p or true` are NULL for a
    # NULL p and stay as written.  The identities hold on either side.
    if not (isinstance(term, BinOp) and term.op in ("and", "or")):
        return None
    identity = Const(term.op == "and")
    if term.left == identity:
        return term.right
    if term.right == identity:
        return term.left
    if term.left == Const(term.op == "or"):
        return term.left
    return None


@NORMALIZATION_RULES.rule(
    "const-fold", "evaluate operations over two literals", roots=(BinOp,)
)
def _const_fold(term: Term) -> Term | None:
    if not isinstance(term, BinOp):
        return None
    if term.op in ("and", "or"):
        return None  # handled by bool-simplify
    if not (isinstance(term.left, Const) and isinstance(term.right, Const)):
        return None
    from repro.calculus.evaluator import EvaluationError, apply_binop

    try:
        value = apply_binop(term.op, term.left.value, term.right.value)
    except (EvaluationError, TypeError):
        return None  # e.g. division by zero stays a runtime error
    return Const(value)


# ---------------------------------------------------------------------------
# Comprehension rules
# ---------------------------------------------------------------------------


@NORMALIZATION_RULES.rule(
    "some-head-to-filter",
    "some{ p | q̄ } → some{ true | q̄, p } (the paper's two spellings of "
    "QUERY C's inner quantifier; the filter form feeds join predicates)",
    roots=(Comprehension,),
)
def _some_head_to_filter(term: Term) -> Term | None:
    if (
        isinstance(term, Comprehension)
        and term.monoid_name == "some"
        and term.head != Const(True)
    ):
        return Comprehension(
            "some", Const(True), term.qualifiers + (Filter(term.head),)
        )
    return None


@NORMALIZATION_RULES.rule(
    "all-head-to-filter",
    "all{ p | q̄ } → all{ false | q̄, ¬p } (our dual of some-head-to-filter, "
    "not a paper rule: only a False head moves `all`, so the negated head "
    "is a filter and feeds join predicates)",
    roots=(Comprehension,),
)
def _all_head_to_filter(term: Term) -> Term | None:
    # Exact under the left-biased 3VL: ¬p is evaluated on the same bindings
    # as p, and True/NULL heads contribute nothing to `all`.  A head that
    # contains a comprehension is left alone — the unnesting algorithm
    # splices it as its own box (QUERY E, Figure 2), which a filter copy of
    # it would change.
    if (
        isinstance(term, Comprehension)
        and term.monoid_name == "all"
        and term.head != Const(False)
        and not any(isinstance(t, Comprehension) for t in subterms(term.head))
    ):
        negated = normalize_predicates(Not(term.head))
        return Comprehension(
            "all", Const(False), term.qualifiers + (Filter(negated),)
        )
    return None


@NORMALIZATION_RULES.rule(
    "filter-const", "D3/D4: constant filters", roots=(Comprehension,)
)
def _filter_const(term: Term) -> Term | None:
    if not isinstance(term, Comprehension):
        return None
    if any(
        isinstance(q, Filter) and q.pred == Const(False) for q in term.qualifiers
    ):
        return Zero(term.monoid_name)
    if any(
        isinstance(q, Filter) and q.pred == Const(True) for q in term.qualifiers
    ):
        quals = tuple(
            q
            for q in term.qualifiers
            if not (isinstance(q, Filter) and q.pred == Const(True))
        )
        return Comprehension(term.monoid_name, term.head, quals)
    return None


def _generator_rule(matcher):
    """Build a rule body that applies *matcher* to the first matching
    generator of a comprehension."""

    def apply(term: Term) -> Term | None:
        if not isinstance(term, Comprehension):
            return None
        for index, qualifier in enumerate(term.qualifiers):
            if isinstance(qualifier, Generator):
                replacement = matcher(term, index, qualifier)
                if replacement is not None:
                    return replacement
        return None

    return apply


def _n4(comp: Comprehension, index: int, gen: Generator) -> Term | None:
    if isinstance(gen.domain, Zero):
        return Zero(comp.monoid_name)
    return None


def _n5(comp: Comprehension, index: int, gen: Generator) -> Term | None:
    if isinstance(gen.domain, Singleton):
        before = comp.qualifiers[:index]
        after = comp.qualifiers[index + 1 :]
        return _substitute_tail(comp, before, after, {gen.var: gen.domain.expr})
    return None


def _n3(comp: Comprehension, index: int, gen: Generator) -> Term | None:
    domain = gen.domain
    if not isinstance(domain, If):
        return None
    before = comp.qualifiers[:index]
    after = comp.qualifiers[index + 1 :]
    then_comp = Comprehension(
        comp.monoid_name,
        comp.head,
        before + (Filter(domain.cond), Generator(gen.var, domain.then)) + after,
    )
    else_comp = Comprehension(
        comp.monoid_name,
        comp.head,
        before + (Filter(Not(domain.cond)), Generator(gen.var, domain.orelse)) + after,
    )
    return Merge(comp.monoid_name, then_comp, else_comp)


def _n6(comp: Comprehension, index: int, gen: Generator) -> Term | None:
    domain = gen.domain
    if not isinstance(domain, Merge):
        return None
    domain_monoid = lookup_monoid(domain.monoid_name)
    # Sound unless an idempotent merge (set union) feeds a non-idempotent
    # accumulator (duplicates would be double-counted).
    if not (comp.monoid.idempotent or not domain_monoid.idempotent):
        return None
    before = comp.qualifiers[:index]
    after = comp.qualifiers[index + 1 :]
    left = Comprehension(
        comp.monoid_name, comp.head, before + (Generator(gen.var, domain.left),) + after
    )
    right = Comprehension(
        comp.monoid_name, comp.head, before + (Generator(gen.var, domain.right),) + after
    )
    return Merge(comp.monoid_name, left, right)


def _n7(comp: Comprehension, index: int, gen: Generator) -> Term | None:
    domain = gen.domain
    if not isinstance(domain, Comprehension):
        return None
    domain_monoid = domain.monoid
    if not domain_monoid.is_collection:
        raise TypeError(
            f"generator domain is a {domain.monoid_name} comprehension, "
            "which is not a collection"
        )
    if not (comp.monoid.idempotent or not domain_monoid.idempotent):
        return None
    inner = _avoid_capture(domain, comp)
    before = comp.qualifiers[:index]
    after = comp.qualifiers[index + 1 :]
    return Comprehension(
        comp.monoid_name,
        comp.head,
        before
        + inner.qualifiers
        + (Generator(gen.var, Singleton(inner.monoid_name, inner.head)),)
        + after,
    )


for _name, _matcher, _description in (
    ("N4-zero-domain", _n4, "⊕{e | …, v <- zero, …} → zero"),
    ("N5-singleton-domain", _n5, "⊕{e | …, v <- {e'}, …} binds v to e'"),
    ("N3-conditional-domain", _n3, "split a generator over if-then-else"),
    ("N6-merge-domain", _n6, "split a generator over e1 ⊕ e2"),
    ("N7-flatten-domain", _n7,
     "flatten a generator over a nested comprehension"),
):
    NORMALIZATION_RULES.rule(_name, _description, roots=(Comprehension,))(
        _generator_rule(_matcher)
    )


@NORMALIZATION_RULES.rule(
    "N8-exists-filter",
    "⊕{e | …, some{p | r̄}, …} → ⊕{e | …, r̄, p, …} for idempotent ⊕",
    roots=(Comprehension,),
)
def _n8(term: Term) -> Term | None:
    if not isinstance(term, Comprehension) or not term.monoid.idempotent:
        return None
    for index, qualifier in enumerate(term.qualifiers):
        if not isinstance(qualifier, Filter):
            continue
        pred = qualifier.pred
        if isinstance(pred, Comprehension) and pred.monoid_name == "some":
            inner = _avoid_capture(pred, term)
            new_quals = (
                term.qualifiers[:index]
                + inner.qualifiers
                + (Filter(inner.head),)
                + term.qualifiers[index + 1 :]
            )
            return Comprehension(term.monoid_name, term.head, new_quals)
    return None


@NORMALIZATION_RULES.rule(
    "N9-head-flatten",
    "⊕{ ⊕{e | r̄} | s̄ } → ⊕{ e | s̄, r̄ } for primitive ⊕",
    roots=(Comprehension,),
)
def _n9(term: Term) -> Term | None:
    if (
        isinstance(term, Comprehension)
        and isinstance(term.head, Comprehension)
        and term.head.monoid_name == term.monoid_name
        and not term.monoid.is_collection
    ):
        inner = _avoid_capture(term.head, term)
        return Comprehension(
            term.monoid_name, inner.head, term.qualifiers + inner.qualifiers
        )
    return None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _substitute_tail(
    comp: Comprehension,
    before: tuple[Qualifier, ...],
    after: tuple[Qualifier, ...],
    mapping: dict[str, Term],
) -> Comprehension:
    """Substitute in the qualifiers after a removed generator and the head."""
    new_after: list[Qualifier] = []
    current = dict(mapping)
    for qualifier in after:
        if isinstance(qualifier, Generator):
            new_after.append(
                Generator(qualifier.var, substitute(qualifier.domain, current))
            )
            current.pop(qualifier.var, None)
        else:
            new_after.append(Filter(substitute(qualifier.pred, current)))
    head = substitute(comp.head, current)
    return Comprehension(comp.monoid_name, head, before + tuple(new_after))


def _avoid_capture(inner: Comprehension, context: Term) -> Comprehension:
    """Rename *inner*'s generators when they clash with *context*'s names."""
    inner_vars = {g.var for g in inner.generators()}
    context_names = bound_vars(context) | free_vars(context)
    if inner_vars & context_names:
        return alpha_rename(inner, fresh_name("r"))
    return inner


# ---------------------------------------------------------------------------
# Predicate normalization (Section 6: "34 lines for normalization of
# predicates (using DeMorgan's laws)")
# ---------------------------------------------------------------------------

_NEGATED_COMPARISON = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


def normalize_predicates(term: Term) -> Term:
    """Push negations inward (DeMorgan) and flip negated comparisons."""
    return transform(term, _predicate_step)


def _predicate_step(term: Term) -> Term:
    if not isinstance(term, Not):
        return term
    inner = term.expr
    if isinstance(inner, Not):
        return inner.expr
    if isinstance(inner, Const) and isinstance(inner.value, bool):
        return Const(not inner.value)
    if isinstance(inner, BinOp):
        if inner.op == "and":
            return BinOp(
                "or",
                normalize_predicates(Not(inner.left)),
                normalize_predicates(Not(inner.right)),
            )
        if inner.op == "or":
            return BinOp(
                "and",
                normalize_predicates(Not(inner.left)),
                normalize_predicates(Not(inner.right)),
            )
        if inner.op in _NEGATED_COMPARISON:
            return BinOp(_NEGATED_COMPARISON[inner.op], inner.left, inner.right)
    # ¬∃ → ∀¬ and ¬∀ → ∃¬ (quantifier duality of the all/some monoids).
    if isinstance(inner, Comprehension) and inner.monoid_name == "some":
        return Comprehension(
            "all", normalize_predicates(Not(inner.head)), inner.qualifiers
        )
    if isinstance(inner, Comprehension) and inner.monoid_name == "all":
        return Comprehension(
            "some", normalize_predicates(Not(inner.head)), inner.qualifiers
        )
    return term


# ---------------------------------------------------------------------------
# Canonical form for the unnesting algorithm
# ---------------------------------------------------------------------------


def canonicalize(term: Term) -> Term:
    """Rewrite every comprehension into ``⊕{ e | v1 <- path1, ..., pred }``.

    The unnesting algorithm (Figure 7) assumes generators come first and all
    filters are conjoined into a single trailing predicate.  Moving a filter
    later in the qualifier list never changes the produced bindings, so this
    is meaning-preserving for any monoid.
    """
    return transform(term, _canonical_step)


def _canonical_step(term: Term) -> Term:
    if not isinstance(term, Comprehension):
        return term
    generators = term.generators()
    preds = [f.pred for f in term.filters()]
    pred = conj(*preds)
    quals: tuple[Qualifier, ...] = tuple(generators)
    if conjuncts(pred):
        quals += (Filter(pred),)
    return Comprehension(term.monoid_name, term.head, quals)


def prepare(term: Term) -> Term:
    """The full front half of the pipeline: normalize, then canonicalize."""
    return canonicalize(normalize(normalize_predicates(term)))
