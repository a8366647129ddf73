"""Rewrite work is linear in the query.

The algebraic phase is one walk (:mod:`repro.core.rewrite`): a node is
tried when the walk reaches it and again only after a rule fired there, and
a subtree the walk has already returned is not entered again.  So the rule
attempts of a phase — counted by wrapping :meth:`RuleSet.rules_for`, not
timed — stay within a constant per node of its input plus a constant per
firing.  (Normalization no longer runs through
:class:`~repro.core.rewrite.RewriteEngine`; it is counted below.)  Inputs:
every corpus query, 200 qgen samples of seed 7, and three wide queries: a
``struct`` of 200 fields, an equi-join chain of 24 generators and 24
sibling ``count(select …)`` aggregates.  The last is the one the walk's
memo keeps linear: its 24 boxes unnest into a chain of 24 nests and
outer-joins that a selection is pushed down through, one firing a level,
and a walk that re-entered each replacement's already-normal chain would
read ≈ 21 attempts a node (it also fails one qgen sample).

Normalization and unnesting are linear too, counted as the Python calls
they make (a profile hook's "call" events) per node of their input.
``prepare`` is one recursion that renames each generator as it enters it
and splices a normal comprehension's qualifiers without walking them again:
≈ 5.5–6.6 calls a node on from-subqueries nested 3, 6, 9 and 14 deep and on
``exists`` chains as deep, where the N1–N9 rule set run by the engine, its
capture-avoiding renames and a renaming pass read 65–143 and 74–173.
``unnest`` splices the k boxes of k sibling aggregates and rebuilds the
head once: ≈ 27 calls a node at k = 12, 24 and 50, where one replacement
walk per box read 93, 167 and 326.
"""

from __future__ import annotations

import sys

import pytest

from corpus import CORPUS
from repro.cli import DATABASES
from repro.core.pipeline import QueryPipeline
from repro.core.normalization import prepare
from repro.core.rewrite import RewriteEngine, RuleSet
from repro.core.unnesting import unnest
from repro.oql.parser import MAX_NESTING
from repro.oql.translator import parse_and_translate
from repro.testing.fuzz import FuzzConfig, generate_sample

#: Rule attempts per node of a phase's input, and per firing.  Over the
#: corpus and qgen a phase reads ≤ ≈ 9.3 attempts a node, all in small
#: comprehension-heavy terms that fire about once every two nodes; the
#: wide queries read ≤ 2.  Without the memo the 24 aggregates read 1 525
#: attempts for 74 nodes and 24 firings, against a bound of 828 here.
ATTEMPTS_PER_NODE = 6
ATTEMPTS_PER_FIRING = 16

#: Python calls per input node of ``unnest`` and of ``prepare``.
UNNEST_CALLS_PER_NODE = 40
PREPARE_CALLS_PER_NODE = 8


def _nodes(node) -> int:
    return 1 + sum(_nodes(child) for child in node.children())


@pytest.fixture()
def phase_runs(monkeypatch):
    """``(phase, input nodes, rule attempts, firings)`` of every phase run."""
    runs: list[tuple[str, int, int, int]] = []
    attempts = [0]
    rules_for, run_phase = RuleSet.rules_for, RewriteEngine.run_phase

    def counting_rules_for(self, cls):
        rules = rules_for(self, cls)
        attempts[0] += len(rules)
        return rules

    def recording_run_phase(self, phase, node):
        before, fired = attempts[0], len(self.firings)
        result = run_phase(self, phase, node)
        runs.append(
            (phase.name, _nodes(node), attempts[0] - before, len(self.firings) - fired)
        )
        return result

    monkeypatch.setattr(RuleSet, "rules_for", counting_rules_for)
    monkeypatch.setattr(RewriteEngine, "run_phase", recording_run_phase)
    return runs


def _assert_linear(runs, what: str) -> None:
    assert runs, what
    for phase, nodes, attempts, firings in runs:
        bound = ATTEMPTS_PER_NODE * nodes + ATTEMPTS_PER_FIRING * firings
        assert attempts <= bound, (what, phase, nodes, attempts, firings)
    del runs[:]


def _struct(fields: int) -> str:
    heads = ", ".join(f"f{i}: e.age + {i}" for i in range(fields))
    return f"select distinct struct( {heads} ) from e in Employees"


def _chain(generators: int) -> str:
    gens = ", ".join(f"e{i} in Employees" for i in range(generators))
    preds = " and ".join(f"e{i}.dno = e{i + 1}.dno" for i in range(generators - 1))
    return f"select distinct e0.name from {gens} where {preds}"


def _sibling_aggregates(count: int) -> str:
    heads = ", ".join(
        f"a{i}: count( select u from u in Employees "
        f"where u.dno = e.dno and u.age > {i} )"
        for i in range(count)
    )
    return f"select distinct struct( {heads} ) from e in Employees"


class TestRewriteLinearity:
    def test_corpus(self, phase_runs):
        for query in CORPUS:
            QueryPipeline(DATABASES[query.family]()).compile_oql(query.oql)
            _assert_linear(phase_runs, query.name)

    def test_qgen_samples(self, phase_runs):
        config = FuzzConfig(seed=7)
        for iteration in range(200):
            source, _, db = generate_sample(config, iteration)
            QueryPipeline(db).compile_oql(source)
            _assert_linear(phase_runs, source)

    @pytest.mark.parametrize(
        "source",
        [_struct(200), _chain(24), _sibling_aggregates(24)],
        ids=["struct-200-fields", "chain-24-generators", "24-sibling-aggregates"],
    )
    def test_wide_query(self, phase_runs, source):
        QueryPipeline(DATABASES["company"]()).compile_oql(source)
        _assert_linear(phase_runs, source)


def _nested_aggregates(depth: int) -> str:
    """A chain of *depth* comprehensions, each correlated with the next one out."""
    inner = f"e{depth}.age"
    for i in range(depth, 0, -1):
        inner = (
            f"sum( select e{i}.age + {inner} from e{i} in Employees "
            f"where e{i}.dno = e{i - 1}.dno )"
        )
    return f"select distinct {inner} from e0 in Employees"


def _calls(fn, term) -> int:
    """The Python function calls ``fn(term)`` makes."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        fn(term)
    finally:
        sys.setprofile(None)
    return calls[0]


class TestUnnestingLinearity:
    @pytest.mark.parametrize("count", [12, 24, 50])
    def test_sibling_aggregates(self, count):
        schema = DATABASES["company"]().schema
        term = prepare(parse_and_translate(_sibling_aggregates(count), schema))
        calls = _calls(unnest, term)
        assert calls <= UNNEST_CALLS_PER_NODE * _nodes(term), (count, calls, _nodes(term))


def _nested_from(depth: int) -> str:
    """*depth* from-subqueries, each selecting from the next one in."""
    inner = "Employees"
    for i in range(depth, 0, -1):
        inner = f"(select e{i} from e{i} in {inner} where e{i}.age > {i})"
    return f"select distinct x.name from x in {inner}"


def _exists_chain(depth: int) -> str:
    """*depth* ``exists``, each ranging over the children of the one out."""
    pred = f"c{depth}.age > {depth}"
    for i in range(depth, 0, -1):
        source = "e.children" if i == 1 else f"c{i - 1}.children"
        pred = f"exists c{i} in {source}: ({pred})"
    return f"select distinct e.name from e in Employees where {pred}"


class TestNormalizationLinearity:
    """One recursion: calls per node stay flat as the nesting deepens (the
    parser caps it at ``MAX_NESTING`` levels, ≈ 14 from-subqueries)."""

    @pytest.mark.parametrize("depth", [3, 6, 9, 14])
    @pytest.mark.parametrize("shape", [_nested_from, _exists_chain], ids=["from", "exists"])
    def test_nested_queries(self, shape, depth):
        assert 2 * depth <= MAX_NESTING
        schema = DATABASES["company"]().schema
        term = parse_and_translate(shape(depth), schema)
        calls = _calls(prepare, term)
        assert calls <= PREPARE_CALLS_PER_NODE * _nodes(term), (depth, calls, _nodes(term))
