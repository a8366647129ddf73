"""A small declarative rewrite-rule engine — the OPTGEN/OPTL analogue.

The paper expresses its optimizer in OPTL, "a language for specifying query
optimizers ... [that] extends C++ with a number of term manipulation
constructs and with a rule language for specifying query transformations",
compiled by OPTGEN.  In Python the natural equivalent is first-class rule
objects: a :class:`Rule` is a named partial function on nodes, a
:class:`RuleSet` groups rules into an optimizer phase, and
:class:`RewriteEngine` drives them to a fixpoint bottom-up, recording every
firing.

The engine is generic over the node type: it only needs a *transform*
function ``transform(node, fn) -> node`` that rebuilds a tree bottom-up
applying ``fn`` at every node.  The calculus normalization phase runs it
with :func:`repro.calculus.terms.transform`; the algebraic phase with
:func:`repro.algebra.operators.transform_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

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
    """A named optimizer phase: an ordered collection of rules.

    ``transform`` is the tree-walker the phase runs under; it defaults to
    the algebra's plan transformer and can be any function with the
    signature ``transform(node, fn) -> node``.

    Register rules through :meth:`rule`: the set keeps, per node class, the
    rules whose ``roots`` admit it, and registration is what resets that
    index.
    """

    name: str
    rules: list[Rule] = field(default_factory=list)
    transform: Callable[[Any, Callable[[Any], Any]], Any] | None = None
    _by_class: dict[type, tuple[Rule, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def rule(
        self,
        name: str,
        description: str = "",
        roots: tuple[type, ...] | None = None,
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
                rule
                for rule in self.rules
                if rule.roots is None or issubclass(cls, rule.roots)
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


def _default_transform(node: Any, fn: Callable[[Any], Any]) -> Any:
    from repro.algebra.operators import transform_plan

    return transform_plan(node, fn)


class RewriteEngine:
    """Applies rule sets to a tree, bottom-up, to a fixpoint per phase."""

    def __init__(self, max_passes: int = 500):
        self._max_passes = max_passes
        self.firings: list[Firing] = []

    def run_phase(self, phase: RuleSet, node: Any) -> Any:
        """Run one phase to a fixpoint; records firings.  Still rewriting
        after ``max_passes`` passes is a :class:`PlanningError`."""
        transform = phase.transform or _default_transform
        for _ in range(self._max_passes):
            changed = False

            def attempt(current: Any) -> Any:
                nonlocal changed
                for rule in phase.rules_for(type(current)):
                    replacement = rule(current)
                    if replacement is not None and replacement != current:
                        self.firings.append(Firing(phase.name, rule.name))
                        changed = True
                        return replacement
                return current

            node = transform(node, attempt)
            if not changed:
                return node
        raise PlanningError(
            f"optimizer phase {phase.name!r} did not reach a fixpoint in "
            f"{self._max_passes} passes (last rule fired: {self.firings[-1].rule})"
        )

    def run(self, phases: list[RuleSet], node: Any) -> Any:
        for phase in phases:
            node = self.run_phase(phase, node)
        return node
