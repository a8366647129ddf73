"""Figure 2 — the staged unnesting of QUERY E.

The paper's Figure 2 shows the translation in motion: the outer
comprehension becomes box A, the universal quantifier box B, the
existential box C, and the boxes are spliced bottom-up.  This module
regenerates that walkthrough from the translator's trace (every Figure 7
rule firing, with the plan after each step) and benchmarks the unnesting
translation itself — the paper claims it "takes time linear to the size of
the query", which the compile-time-vs-nesting-depth series checks.
"""

from __future__ import annotations

from repro.algebra.pretty import pretty_plan
from repro.core.normalization import prepare
from repro.core.unnesting import UnnestingTrace, unnest
from repro.data.datagen import university_database
from repro.oql.translator import parse_and_translate

from conftest import timed

QUERY_E = (
    "select distinct s from s in Student "
    'where for all c in ( select c from c in Courses where c.title = "DB" ): '
    "exists t in Transcript: (t.id = s.id and t.cno = c.cno)"
)


def _nested_quantifier_query(depth: int) -> str:
    """A query with *depth* alternating quantifier levels (for the
    linear-time check)."""
    core = "t.id = s.id"
    for level in range(depth):
        quantifier = "exists" if level % 2 == 0 else "for all"
        core = (
            f"{quantifier} q{level} in Transcript: "
            f"(q{level}.cno >= 0 and ({core}))"
        )
    return f"select distinct s from s in Student, t in Transcript where {core}"


def test_figure2_walkthrough(report_writer, benchmark):
    db = university_database(num_students=30, num_courses=10, seed=1998)
    term = prepare(parse_and_translate(QUERY_E, db.schema))

    trace = UnnestingTrace()
    plan = unnest(term, trace)

    lines = ["Unnesting QUERY E, rule by rule (paper Figure 2):", ""]
    for index, entry in enumerate(trace.entries, start=1):
        lines.append(f"step {index}: ({entry.rule}) {entry.detail}")
        if entry.plan is not None:
            lines.append("  plan so far:")
            lines.append("    " + pretty_plan(entry.plan).replace("\n", "\n    "))
        lines.append("")
    lines.append("final plan:")
    lines.append(pretty_plan(plan))

    rules = trace.rules_fired()
    # Box A: scan + final reduce.  Box B: outer-join + nest (C6, C5).
    # Box C: outer-join + nest.  Two splices compose the boxes: the
    # universal box from the outer predicate (C8) and the existential box
    # from the universal comprehension's head (C9).
    assert rules.count("C6") == 2
    assert rules.count("C5") == 2
    assert rules.count("C8") + rules.count("C9") == 2
    assert rules[-1] == "C2"
    lines.append("")
    lines.append(f"rules fired: {', '.join(rules)}")
    report_writer("fig2_walkthrough", "\n".join(lines))

    benchmark(lambda: unnest(term, UnnestingTrace()))


def test_unnesting_compile_time(report_writer, benchmark):
    """Compile-time vs. quantifier nesting depth.

    The paper claims the algorithm "takes time linear to the size of the
    query" counting rule firings; our term-rewriting implementation copies
    subtrees on each rewrite, so wall time grows roughly quadratically in
    query size with a very small constant.  The series is recorded for
    EXPERIMENTS.md; the assertion pins practical efficiency (a 16-deep
    quantifier tower — far beyond real queries — compiles in well under a
    second) and that the number of rule firings itself is linear.
    """
    db = university_database(num_students=10, num_courses=5, seed=1998)
    rows = ["depth  terms  rules_fired  compile_ms"]
    firing_counts = []
    for depth in (1, 2, 4, 8, 16):
        source = _nested_quantifier_query(depth)
        term = prepare(parse_and_translate(source, db.schema))
        size = sum(1 for _ in _iter_terms(term))
        trace = UnnestingTrace()
        unnest(term, trace)
        firing_counts.append((depth, len(trace.rules_fired())))
        _, ms = timed(lambda t=term: unnest(t), repeat=5)
        rows.append(
            f"{depth:5d} {size:6d} {len(trace.rules_fired()):12d} {ms:11.3f}"
        )
        if depth == 16:
            assert ms < 500.0, "deep nesting compile time blew up"
    report_writer("fig2_compile_time", "\n".join(rows))

    # rule firings grow linearly with nesting depth: ~3 per quantifier level
    per_depth = [(count / depth) for depth, count in firing_counts]
    assert max(per_depth) <= 2 * min(per_depth) + 3

    deep = prepare(parse_and_translate(_nested_quantifier_query(8), db.schema))
    benchmark(lambda: unnest(deep))


def _iter_terms(term):
    from repro.calculus.terms import subterms

    return subterms(term)
