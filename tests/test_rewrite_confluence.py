"""The rule phases are confluent: redex order cannot change a normal form.

The pipeline normalizes in one structural recursion
(:func:`repro.core.normalization.prepare`), and
:class:`~repro.core.rewrite.RewriteEngine` rewrites the algebraic phase in
one bottom-up walk, in one fixed order: children first, then the first rule
in phase order, again at the same node until none fires.  Both orders are
licensed by confluence — a system of local rules like N1–N9 is strongly
normalizing (Ricciotti–Cheney, arXiv:2011.13451), so every order reaches
the one normal form.  This module checks the licence of *our* rules rather
than assuming it: a reference engine below rewrites one redex at a time,
chosen at random among every (position, rule) pair that fires, and must
reach the recursion's normal form — up to α-renaming for calculus terms
(the N1–N9 rule set of :mod:`repro.testing.normalization_spec`, then its
canonical order), and the engine's exactly for plans.  Inputs are the 53
corpus queries and 200 qgen samples (seed 7) for normalization, and the
corpus's unnested plans for ``ALGEBRAIC_RULES``.  ``prepare`` equals the
rule set's engine run on every input, and a phase re-run on its own output
fires nothing.

The ``rewrite-confluence-ci`` profile registered here raises the example
budget.  Hypothesis fixes a test's settings when ``@given`` decorates it, so
this module loads the profile itself when asked to::

    HYPOTHESIS_PROFILE=rewrite-confluence-ci pytest \\
        tests/test_rewrite_confluence.py --hypothesis-seed 30
"""

from __future__ import annotations

import os
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS
from repro.cli import DATABASES
from repro.core.normalization import prepare
from repro.core.optimizer import ALGEBRAIC_RULES
from repro.core.pipeline import QueryPipeline
from repro.core.rewrite import RewriteEngine, RuleSet
from repro.core.simplification import simplify
from repro.core.unnesting import _alpha_canonical
from repro.oql.parser import parse
from repro.oql.translator import peel_order_by, translate
from repro.testing.fuzz import FuzzConfig, generate_sample
from repro.testing.normalization_spec import (
    NORMALIZATION_RULES,
    canonicalize,
    normalize_predicates,
)

settings.register_profile("rewrite-confluence-ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "rewrite-confluence-ci":
    settings.load_profile("rewrite-confluence-ci")

#: qgen samples of seed 7 among the normalization inputs.
QGEN_SAMPLES = 200
#: Firings after which the reference gives up (no input comes near it).
REFERENCE_BOUND = 1_000


# ---------------------------------------------------------------------------
# Inputs, built once per session
# ---------------------------------------------------------------------------


@cache
def _terms() -> tuple:
    """Every normalization input: the term as the pipeline hands it over."""
    sources = [(q.oql, DATABASES[q.family]()) for q in CORPUS]
    config = FuzzConfig(seed=7)
    for iteration in range(QGEN_SAMPLES):
        source, _, db = generate_sample(config, iteration)
        sources.append((source, db))
    terms = []
    for source, db in sources:
        stripped, _ = peel_order_by(parse(source))
        terms.append(normalize_predicates(translate(stripped, db.schema)))
    return tuple(terms)


@cache
def _plans() -> tuple:
    """The algebraic phase's input for every corpus query: its unnested,
    simplified plan."""
    return tuple(
        simplify(QueryPipeline(DATABASES[q.family]()).compile_oql(q.oql).logical)
        for q in CORPUS
    )


# ---------------------------------------------------------------------------
# The reference: one random redex at a time
# ---------------------------------------------------------------------------


def _positions(node, path=()):
    yield path, node
    for index, child in enumerate(node.children()):
        yield from _positions(child, path + (index,))


def _replace_at(node, path, replacement, rebuild):
    if not path:
        return replacement
    children = list(node.children())
    children[path[0]] = _replace_at(children[path[0]], path[1:], replacement, rebuild)
    return rebuild(node, tuple(children))


def one_redex_at_a_time(phase: RuleSet, node, rng: random.Random):
    """Rewrite *node* to a normal form of *phase*: at each step find every
    position and every rule that fires there, and apply one of them chosen
    at random — any redex, by any rule, in any order."""
    for _ in range(REFERENCE_BOUND):
        redexes = []
        for path, sub in _positions(node):
            for rule in phase.rules_for(type(sub)):
                replacement = rule.apply(sub)
                if replacement is not None and replacement != sub:
                    redexes.append((path, replacement))
        if not redexes:
            return node
        path, replacement = rng.choice(redexes)
        node = _replace_at(node, path, replacement, phase.rebuild)
    raise AssertionError(f"{phase.name}: no normal form in {REFERENCE_BOUND} firings")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_normalization_reaches_one_normal_form(data, rng):
    term = data.draw(st.sampled_from(_terms()), label="term")
    reference = canonicalize(one_redex_at_a_time(NORMALIZATION_RULES, term, rng))
    assert _alpha_canonical(reference) == _alpha_canonical(prepare(term))


def test_prepare_is_the_rule_sets_normal_form():
    for term in _terms():
        spec = canonicalize(RewriteEngine().run_phase(NORMALIZATION_RULES, term))
        assert _alpha_canonical(prepare(term)) == _alpha_canonical(spec), term


@settings(deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_algebraic_rules_reach_one_normal_form(data, rng):
    plan = data.draw(st.sampled_from(_plans()), label="plan")
    reference = one_redex_at_a_time(ALGEBRAIC_RULES, plan, rng)
    assert reference == RewriteEngine().run_phase(ALGEBRAIC_RULES, plan)


@pytest.mark.parametrize(
    "phase, inputs", [(NORMALIZATION_RULES, _terms), (ALGEBRAIC_RULES, _plans)],
    ids=["normalization", "algebraic"],
)
def test_a_phase_rerun_on_its_output_fires_nothing(phase, inputs):
    for node in inputs():
        normal = RewriteEngine().run_phase(phase, node)
        engine = RewriteEngine()
        assert engine.run_phase(phase, normal) is normal
        assert engine.firings == []
