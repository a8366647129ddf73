"""A small declarative rewrite-rule engine — the OPTGEN/OPTL analogue.

The paper expresses its optimizer in OPTL, "a language for specifying query
optimizers ... [that] extends C++ with a number of term manipulation
constructs and with a rule language for specifying query transformations",
compiled by OPTGEN.  In Python the natural equivalent is first-class rule
objects: a :class:`Rule` is a named partial function on nodes, a
:class:`RuleSet` groups rules into an optimizer phase, and
:class:`RewriteEngine` rewrites a tree to each phase's normal form.

The pipeline runs one phase through it, the algebraic rules of
:mod:`repro.core.optimizer`.  Figure 4's N1–N9 rules are a phase too, but
only as the spec (:mod:`repro.testing.normalization_spec`) that tests and
the fuzzer hold the pipeline's one-walk normalization
(:func:`repro.core.normalization.prepare`) to.

The engine walks ``children()``; a phase names its domain's ``rebuild``
(:func:`repro.calculus.terms._rebuild`, :func:`repro.algebra.operators.rebuild`).
A phase is one bottom-up walk: at each node it normalizes the children and
tries the rules; when one fires it walks the replacement's children and
retries there, in a loop, until none fires.  An identity memo keeps every
node the walk returned (each is normal) for the phase, so a replacement
reusing one does not enter it again.  No confirming pass is needed: a rule
reads only the node it fires at and what lies below, so a normal subtree
stays normal wherever it is put, and such local rules are strongly
normalizing (Ricciotti–Cheney, arXiv:2011.13451) — redex order cannot change
the normal form, which ``tests/test_rewrite_confluence.py`` checks.  More
than ``max_firings`` firings in a phase is divergence: :class:`PlanningError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Any, Callable

from repro.algebra.operators import rebuild as rebuild_plan
from repro.errors import PlanningError


@dataclass(frozen=True)
class Rule:
    """One rewrite rule: returns a replacement node or None when not applicable."""

    name: str
    apply: Callable[[Any], Any | None]
    description: str = ""
    #: Node classes the rule can fire at (subclasses included); ``None``
    #: means the rule is tried at every node.
    roots: tuple[type, ...] | None = None

    def __call__(self, node: Any) -> Any | None:
        return self.apply(node)


@dataclass
class RuleSet:
    """A named optimizer phase: an ordered collection of rules, and the
    ``rebuild`` of its node domain (by default the algebra's).

    Register rules through :meth:`rule`: the set keeps, per node class, the
    rules whose ``roots`` admit it, and registration resets that index.
    """

    name: str
    rules: list[Rule] = field(default_factory=list)
    rebuild: Callable[[Any, tuple], Any] = rebuild_plan
    _by_class: dict[type, tuple[Rule, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def rule(
        self, name: str, description: str = "", roots: tuple[type, ...] | None = None
    ) -> Callable:
        """Decorator registering a function as a rule of this set.

        *roots* names the node classes the rule can fire at; the engine
        then skips it everywhere else instead of calling it to be told no.
        """

        def register(fn: Callable[[Any], Any | None]) -> Rule:
            rule = Rule(name, fn, description, roots)
            self.rules.append(rule)
            self._by_class.clear()
            return rule

        return register

    def rules_for(self, cls: type) -> tuple[Rule, ...]:
        """The rules to try at a node of class *cls*, in phase order."""
        rules = self._by_class.get(cls)
        if rules is None:
            rules = self._by_class[cls] = tuple(
                r for r in self.rules if r.roots is None or issubclass(cls, r.roots)
            )
        return rules

    def __len__(self) -> int:
        return len(self.rules)


@dataclass
class Firing:
    """A record of one rule application."""

    phase: str
    rule: str

    def __str__(self) -> str:
        return f"{self.phase}/{self.rule}"


class RewriteEngine:
    """Rewrites a tree to each phase's normal form, one walk a phase."""

    def __init__(self, max_firings: int = 10_000):
        self._max_firings = max_firings
        self.firings: list[Firing] = []

    def run_phase(self, phase: RuleSet, node: Any) -> Any:
        """Rewrite *node* to the phase's normal form; records firings.
        Firing more than ``max_firings`` times is a :class:`PlanningError`."""
        rebuild, firings = phase.rebuild, self.firings
        bound = len(firings) + self._max_firings
        normal: dict[int, Any] = {}  # id -> node: holding it keeps its id unique

        def walk(node: Any) -> Any:
            while id(node) not in normal:
                children = node.children()
                if children:
                    walked = tuple(map(walk, children))
                    if not all(map(is_, walked, children)):
                        node = rebuild(node, walked)
                for rule in phase.rules_for(type(node)):
                    replacement = rule.apply(node)
                    if replacement is not None and replacement != node:
                        firings.append(Firing(phase.name, rule.name))
                        if len(firings) > bound:
                            raise PlanningError(
                                f"optimizer phase {phase.name!r} still rewriting "
                                f"after {self._max_firings} firings (last rule "
                                f"fired: {rule.name})"
                            )
                        node = replacement
                        break
                else:
                    normal[id(node)] = node
            return node

        return walk(node)

    def run(self, phases: list[RuleSet], node: Any) -> Any:
        for phase in phases:
            node = self.run_phase(phase, node)
        return node
