"""Tests for the generic rewrite engine across both node domains
(calculus terms via `terms._rebuild`, algebra plans via `operators.rebuild`),
and for the declarative normalization rule set — the spec that the
pipeline's one-walk ``prepare`` is tested against, and never imports."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.calculus.terms import (
    Apply,
    BinOp,
    Const,
    Extent,
    Lambda,
    _rebuild,
    comprehension,
    const,
    var,
)
from repro.core import normalization
from repro.core.rewrite import Firing, RewriteEngine, Rule, RuleSet
from repro.testing.normalization_spec import NORMALIZATION_RULES, normalize


class TestGenericEngine:
    def test_calculus_phase(self):
        phase = RuleSet("demo", rebuild=_rebuild)

        @phase.rule("fold-add")
        def fold(term):
            if (
                isinstance(term, BinOp)
                and term.op == "+"
                and isinstance(term.left, Const)
                and isinstance(term.right, Const)
            ):
                return Const(term.left.value + term.right.value)
            return None

        engine = RewriteEngine()
        term = BinOp("+", BinOp("+", const(1), const(2)), const(3))
        assert engine.run_phase(phase, term) == Const(6)
        assert [f.rule for f in engine.firings] == ["fold-add", "fold-add"]

    def test_run_multiple_phases(self):
        first = RuleSet("first", rebuild=_rebuild)
        second = RuleSet("second", rebuild=_rebuild)

        @first.rule("one-to-two")
        def one_to_two(term):
            if term == Const(1):
                return Const(2)
            return None

        @second.rule("two-to-three")
        def two_to_three(term):
            if term == Const(2):
                return Const(3)
            return None

        engine = RewriteEngine()
        result = engine.run([first, second], BinOp("+", const(1), const(0)))
        assert result == BinOp("+", Const(3), Const(0))
        assert [str(f) for f in engine.firings] == [
            "first/one-to-two",
            "second/two-to-three",
        ]

    def test_firing_str(self):
        assert str(Firing("p", "r")) == "p/r"

    def test_rule_callable(self):
        rule = Rule("id", lambda n: None)
        assert rule(Const(1)) is None


class TestNormalizationRuleSet:
    def test_inventory_matches_the_paper(self):
        names = {rule.name for rule in NORMALIZATION_RULES.rules}
        # the nine N-rules (N1..N9 with D3/D4 as filter-const) plus the
        # engineering extras
        assert {
            "N1-beta",
            "N2-projection",
            "N3-conditional-domain",
            "N4-zero-domain",
            "N5-singleton-domain",
            "N6-merge-domain",
            "N7-flatten-domain",
            "N8-exists-filter",
            "N9-head-flatten",
            "filter-const",
        } <= names

    def test_firings_are_observable(self):
        engine = RewriteEngine()
        inner = comprehension("set", var("x"), ("x", Extent("X")))
        term = comprehension("set", var("v"), ("v", inner))
        engine.run_phase(NORMALIZATION_RULES, term)
        fired = {f.rule for f in engine.firings}
        assert "N7-flatten-domain" in fired
        assert "N5-singleton-domain" in fired

    def test_normalize_equals_engine_run(self):
        term = Apply(Lambda("x", BinOp("+", var("x"), const(1))), const(41))
        engine = RewriteEngine()
        assert normalize(term) == engine.run_phase(NORMALIZATION_RULES, term)
        assert normalize(term) == Const(42)

    def test_the_pipeline_never_imports_the_rule_set(self):
        code = (
            "import sys\n"
            "from repro.core.pipeline import QueryPipeline\n"
            "from repro.data.datagen import company_database\n"
            "QueryPipeline(company_database()).run_oql("
            "'select distinct e.name from e in Employees where exists c in "
            "e.children: c.age > 3')\n"
            "print('repro.testing.normalization_spec' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.strip() == "False"
        source = inspect.getsource(normalization)
        assert "RewriteEngine" not in source and "RuleSet" not in source

    def test_every_rule_has_description_or_name(self):
        for rule in NORMALIZATION_RULES.rules:
            assert rule.name
