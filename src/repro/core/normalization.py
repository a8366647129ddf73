"""The normalization algorithm for monoid comprehensions (paper Figure 4).

Normalization puts the calculus into a canonical form: beta-redexes and
record projections are reduced (N1, N2), an application commutes through a
conditional (so a closed term of relational type keeps no λ), generator
domains built from conditionals / zeros / singletons / merges are
simplified away (N3–N6), nested comprehension domains are flattened (N7),
existential quantifications in filters are unnested (N8), and same-monoid
head nesting collapses (N9).

The paper proves these rules reduce every generator domain to a *path*
(``x.A1...An`` over a range variable or an extent).  Queries that still
contain nesting after normalization — nesting in the head, in aggregates, in
universal quantifiers — are exactly the ones the unnesting algorithm of
Section 4 (:mod:`repro.core.unnesting`) handles with outer-joins and
grouping.

:func:`prepare` is one structural recursion.  The rules are local and
strongly normalizing, and their normal form is syntactic (Ricciotti–Cheney,
arXiv:2011.13451), so a walk that normalizes a node's parts before it looks
at the node needs no redex search: each rule fires where the walk already
is.  A generator is renamed to a fresh name as it is entered, so a splice
(N7–N9) never captures a variable and the unnester gets alpha-unique terms;
a variable that N1, N5, N7 or a ``let`` removes is bound in the walk's
environment to its normal value, so substitution is not a second walk.
Negations are pushed inward (DeMorgan, the paper's "normalization of
predicates") where the input has them, and every comprehension comes out as
``⊕{ e | v1 <- path1, ..., pred }``: generators first, the filters conjoined
into one trailing predicate, as the unnesting algorithm (Figure 7) assumes.

The rules in their declarative form — the spec this recursion implements —
are :data:`repro.testing.normalization_spec.NORMALIZATION_RULES`; tests and
the fuzzer check ``prepare`` against them up to α-renaming.  Two soundness
side conditions are implicit in the paper's monoid well-formedness
discussion: N6 and N7 keep a generator over an *idempotent* collection (a
set) feeding a *non-idempotent* accumulator (e.g. ``sum``) nested, since
flattening it could collapse duplicates; N3 and N6 leave a comprehension
whose monoid finalizes a carrier (avg, sorted) whole, since its halves'
values do not merge; and N8 requires an idempotent outer accumulator, as
the paper states.
"""

from __future__ import annotations

from operator import is_

from repro.calculus.evaluator import EvaluationError, apply_binop
from repro.calculus.monoids import monoid as lookup_monoid
from repro.calculus.terms import (
    TRUE,
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
    Var,
    Zero,
    _rebuild,
    fresh_name,
    subterms,
)
from repro.calculus.typing import CalculusTypeError

FALSE = Const(False)

#: DeMorgan: the operator or quantifier a negation turns each one into.
_DUAL = {"and": "or", "or": "and", "some": "all", "all": "some"}
_NEGATED_COMPARISON = {
    "==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"
}


def prepare(term: Term) -> Term:
    """Normalize *term* (N1–N9, negations pushed inward) into canonical
    comprehensions whose generators all have fresh, distinct names."""
    return _Normalizer().walk(term, {}, True)


def _boxless(term: Term) -> bool:
    """No comprehension in *term*: the unnester splices one in an ``all``
    head as a box of its own (QUERY E, Figure 2), so the head stays."""
    return not any(type(sub) is Comprehension for sub in subterms(term))


class _Qualifiers(list):
    """A comprehension's qualifiers in the order the rules leave them, and
    its filters conjoined left to right so far (None: no filter)."""

    __slots__ = ("pred",)

    def __init__(self) -> None:
        super().__init__()
        self.pred: Term | None = None


class _Normalizer:
    """One :func:`prepare` call.

    ``walk(t, env, dm)`` returns the normal form of *t* with *env*'s
    bindings substituted; with *dm* it first pushes *t*'s negations inward,
    which the input needs and a term the walk returned does not.  Every
    comprehension it returns is canonical; ``parts`` keeps its qualifiers in
    the order the rules left them, because a splice conjoins the spliced
    filters one by one.  ``used`` holds the bound values already placed in
    the output: a second occurrence is a copy with fresh names.
    """

    __slots__ = ("parts", "used", "frames", "branching")

    def __init__(self) -> None:
        self.parts: dict[int, tuple[Comprehension, tuple[Qualifier, ...]]] = {}
        self.used: set[int] = set()
        #: The environment each comprehension being built was entered with.
        self.frames: list[dict[str, Term]] = []
        #: Generators over a conditional or a merge (N3, N6), and whether
        #: they are their comprehension's own rather than spliced into it.
        self.branching: dict[int, tuple[Generator, bool]] = {}

    def walk(self, t: Term, env: dict[str, Term], dm: bool) -> Term:
        kind = type(t)
        if kind is Var:
            value = env.get(t.name)
            if value is None:
                return t
            if type(value) is not Var and type(value) is not Const:
                if id(value) in self.used:
                    return self.walk(value, {}, False)
                self.used.add(id(value))
            return value
        if kind is Comprehension:
            return self.comprehension(t, env, dm)
        if kind is BinOp:
            left, right = self.walk(t.left, env, dm), self.walk(t.right, env, dm)
            if left is t.left and right is t.right:
                return self.binop(t.op, left, right, t)
            return self.binop(t.op, left, right)
        if kind is Proj:  # N2
            expr = self.walk(t.expr, env, dm)
            if type(expr) is RecordCons:
                for name, value in expr.fields:
                    if name == t.attr:
                        return value
            return t if expr is t.expr else Proj(expr, t.attr)
        if kind is Not:
            return self.negation(t.expr, env, dm)
        if kind is If:
            cond, then, orelse = (self.walk(c, env, dm) for c in t.children())
            if cond == TRUE:
                return then
            if cond == FALSE:
                return orelse
            return If(cond, then, orelse)
        if kind is Let:
            return self.walk(t.body, {**env, t.var: self.walk(t.value, env, dm)}, dm)
        if kind is Lambda:
            name = fresh_name(t.param.strip("_") or "v")
            return Lambda(name, self.walk(t.body, {**env, t.param: Var(name)}, dm))
        if kind is Apply:
            return self.apply(self.walk(t.fn, env, dm), self.walk(t.arg, env, dm))
        children = t.children()
        if not children:
            return t
        walked = tuple([self.walk(child, env, dm) for child in children])
        return t if all(map(is_, walked, children)) else _rebuild(t, walked)

    def apply(self, fn: Term, arg: Term) -> Term:
        """``fn arg`` of two normal forms: N1, and the commuting conversion
        ``(if c then f else g) a → if c then f a else g a``, so a closed
        term of relational type leaves no λ behind."""
        if type(fn) is Lambda:  # N1
            return self.walk(fn.body, {fn.param: arg}, False)
        if type(fn) is If:  # the else branch gets its own copy of the argument
            copy = self.walk(arg, {}, False)
            return If(fn.cond, self.apply(fn.then, arg), self.apply(fn.orelse, copy))
        return Apply(fn, arg)

    def binop(self, op: str, left: Term, right: Term, same: Term | None = None) -> Term:
        if op == "and" or op == "or":
            # The reference and/or are left-biased, not Kleene: a NULL left
            # operand makes the result NULL whatever the right one is.  So
            # the absorbing constant folds only from the left (`false and
            # p`, `true or p`); `p and false` / `p or true` stay as written.
            identity = TRUE if op == "and" else FALSE
            if left == identity:
                return right
            if right == identity:
                return left
            if left == (FALSE if op == "and" else TRUE):
                return left
        elif type(left) is Const and type(right) is Const:
            try:
                return Const(apply_binop(op, left.value, right.value))
            except (EvaluationError, TypeError):
                pass  # e.g. division by zero stays a runtime error
        return same if same is not None else BinOp(op, left, right)

    def negation(self, expr: Term, env: dict[str, Term], dm: bool) -> Term:
        """``¬expr``: DeMorgan on the input's syntax, then the literal fold."""
        if dm:
            kind = type(expr)
            if kind is Not:
                return self.walk(expr.expr, env, dm)
            if kind is Const and type(expr.value) is bool:
                return FALSE if expr.value else TRUE
            if kind is BinOp:
                if expr.op == "and" or expr.op == "or":
                    left = self.negation(expr.left, env, dm)
                    right = self.negation(expr.right, env, dm)
                    return self.binop(_DUAL[expr.op], left, right)
                flipped = _NEGATED_COMPARISON.get(expr.op)
                if flipped is not None:
                    left = self.walk(expr.left, env, dm)
                    return self.binop(flipped, left, self.walk(expr.right, env, dm))
            if kind is Comprehension and expr.monoid_name in _DUAL:
                dual = _DUAL[expr.monoid_name]
                return self.comprehension(
                    Comprehension(dual, Not(expr.head), expr.qualifiers), env, dm
                )
        expr = self.walk(expr, env, dm)
        if expr == TRUE:
            return FALSE
        if expr == FALSE:
            return TRUE
        return Not(expr)

    # -- comprehensions ------------------------------------------------------

    def comprehension(self, t: Comprehension, env: dict[str, Term], dm: bool) -> Term:
        name = t.monoid_name
        monoid = lookup_monoid(name)
        out = _Qualifiers()
        self.frames.append(env)
        head = self.body(t, dict(env), dm, monoid, out)
        self.frames.pop()
        if head is None:
            return Zero(name)
        split = self.split(name, monoid, head, out)
        if split is not None:
            return split
        generators = tuple([q for q in out if type(q) is Generator])
        result = Comprehension(
            name, head, generators if out.pred is None else generators + (Filter(out.pred),)
        )
        self.parts[id(result)] = (result, tuple(out))
        return result

    def body(self, t, env, dm, monoid, out: _Qualifiers) -> Term | None:
        """Append *t*'s qualifiers to *out*; returns its head (None: zero)."""
        name = t.monoid_name
        known = self.parts.get(id(t))
        if not self.scope(known[1] if known else t.qualifiers, env, dm, True, monoid, out, t):
            return None
        if name == "all":
            # all{ p | q̄ } → all{ false | q̄, ¬p }.  The rule set folds p
            # before N5/N7 substitute into it (a box they bring keeps p), so
            # p is normalized with the substituted variables free.
            back = {}
            free = dict(env)
            for var, value in env.items():
                if type(value) is not Var:
                    free[var] = Var(fresh_name(var.strip("_") or "v"))
                    back[free[var].name] = value
            head = self.walk(t.head, free, dm)
            if head != FALSE and _boxless(head):
                negated = self.negation(head, {}, True)
                negated = self.walk(negated, back, False) if back else negated
                return FALSE if self.filter(negated, monoid, out) else None
            if back:
                head = self.walk(head, back, False)
        else:
            head = self.walk(t.head, env, dm)
        if type(head) is Zero and not monoid.is_collection and self.emptied(
            head, t.head, env, dm, name
        ):
            return None  # N9 of a box that an ancestor's value emptied
        while (  # N9
            type(head) is Comprehension
            and head.monoid_name == name
            and not monoid.is_collection
        ):
            head = self.splice(head, monoid, out)
            if head is None:
                return None
        if name == "some" and head != TRUE:  # some{ p | q̄ } → some{ true | q̄, p }
            return TRUE if self.filter(head, monoid, out) else None
        if name == "all" and head != FALSE and _boxless(head):
            return FALSE if self.filter(self.negation(head, {}, True), monoid, out) else None
        return head

    def emptied(self, zero: Zero, term: Term, env, dm: bool, name: str) -> bool:
        """Whether *zero* — *term* normalized under *env* — is the zero of a
        ``name`` comprehension that a value bound outside the current one
        emptied.  The rule set normalizes bottom-up, so it splices that box
        (N8, N9) before the value reaches it, and the emptiness then empties
        the current comprehension."""
        if zero.monoid_name != name:
            return False
        outer = self.frames[-1]
        free = {
            k: Var(k) if type(v) is not Var and outer.get(k) is v else v
            for k, v in env.items()
        }
        if free == env:
            return False
        before = self.walk(term, free, dm)
        return type(before) is Comprehension and before.monoid_name == name

    def scope(self, quals, env, dm, fresh, monoid, out, where) -> bool:
        """Append *quals*' normal forms to *out*; False when the
        comprehension is its monoid's zero.  A *fresh* scope renames its
        generators; otherwise *quals* are a normal comprehension's, spliced
        into another, and are walked only to substitute what *env* binds."""
        for q in quals:
            if type(q) is Generator:
                domain = self.walk(q.domain, env, dm) if fresh or env else q.domain
                kind = type(domain)
                if kind is Zero:  # N4
                    return False
                if kind is Singleton:  # N5
                    env[q.var] = domain.expr
                    continue
                if kind is Comprehension:
                    inner = domain.monoid
                    if not inner.is_collection:
                        raise CalculusTypeError(
                            f"generator domain of {q.var!r} is a {inner.name} "
                            "comprehension, which is not a collection",
                            where,
                        )
                    if monoid.idempotent or not inner.idempotent:  # N7
                        head = self.splice(domain, monoid, out)
                        if head is None:
                            return False
                        env[q.var] = head
                        continue
                var = q.var
                if fresh:
                    var = fresh_name(var.strip("_") or "v")
                    env[q.var] = Var(var)
                gen = Generator(var, domain)
                if kind is If or kind is Merge:
                    self.branching[id(gen)] = (gen, fresh)
                out.append(gen)
            else:
                pred = self.walk(q.pred, env, dm) if fresh or env else q.pred
                if type(pred) is Zero and monoid.idempotent and fresh and self.emptied(
                    pred, q.pred, env, dm, "some"
                ):
                    return False  # N8 of a box that an ancestor's value emptied
                if not self.filter(pred, monoid, out):
                    return False
        return True

    def filter(self, pred: Term, monoid, out: _Qualifiers) -> bool:
        if type(pred) is Const:  # filter-const (D3/D4)
            if pred == FALSE:
                return False
            if pred == TRUE:
                return True
        if type(pred) is Comprehension and pred.monoid_name == "some" and monoid.idempotent:
            head = self.splice(pred, monoid, out)  # N8
            return head is not None and self.filter(head, monoid, out)
        out.append(Filter(pred))
        out.pred = pred if out.pred is None else BinOp("and", out.pred, pred)
        return True

    def splice(self, comp: Comprehension, monoid, out: _Qualifiers) -> Term | None:
        """Append normal *comp*'s qualifiers to *out*; returns its head
        (None: zero).  N6–N8 fire under an idempotent accumulator where a
        non-idempotent one keeps the term, so only the qualifiers of such a
        comprehension spliced into an idempotent one are dispatched again."""
        quals = self.parts[id(comp)][1]
        if comp.monoid.idempotent or not monoid.idempotent:
            if out.pred is None:
                if comp.qualifiers and type(comp.qualifiers[-1]) is Filter:
                    out.pred = comp.qualifiers[-1].pred  # its filters, conjoined
            else:
                for q in quals:
                    if type(q) is Filter:
                        out.pred = BinOp("and", out.pred, q.pred)
            out.extend(quals)
            return comp.head
        env: dict[str, Term] = {}
        if not self.scope(quals, env, False, False, monoid, out, comp):
            return None
        return self.walk(comp.head, env, False) if env else comp.head

    def split(self, name: str, monoid, head: Term, out: _Qualifiers) -> Term | None:
        """N3, else N6: split over the first generator whose domain is a
        conditional, else a merge, and normalize each half anew.  Like the
        rule set, which tries N3 and N6 before N7 splices, a comprehension's
        own generators go before the ones spliced into it.  Not for a
        monoid whose value is not its carrier (avg, sorted): its two
        halves' values would not merge."""
        if not self.branching or monoid.has_carrier:
            return None
        order = sorted(
            (not self.branching[id(q)][1], i)
            for i, q in enumerate(out)
            if id(q) in self.branching
        )
        conditionals = [i for _, i in order if type(out[i].domain) is If]
        merges = [
            i for _, i in order
            if type(out[i].domain) is Merge
            and (monoid.idempotent or not out[i].domain.monoid.idempotent)
        ]
        if not conditionals and not merges:
            return None
        index = (conditionals or merges)[0]
        var, domain = out[index].var, out[index].domain
        if conditionals:
            halves = (
                (Filter(domain.cond), Generator(var, domain.then)),
                (Filter(Not(domain.cond)), Generator(var, domain.orelse)),
            )
        else:
            halves = ((Generator(var, domain.left),), (Generator(var, domain.right),))
        before, after = tuple(out[:index]), tuple(out[index + 1 :])
        left, right = (
            self.walk(Comprehension(name, head, before + half + after), {}, False)
            for half in halves
        )
        return Merge(name, left, right)
