"""Smoke tests: every example script must run end to end, and the REPL must
process a scripted session."""

from __future__ import annotations

import io
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(script.parent.parent / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "university.py",
        "company_analytics.py",
        "calculus_playground.py",
        "dba_tools.py",
    } <= names


class TestRepl:
    def _run(self, lines):
        out = io.StringIO()
        inputs = iter(lines)

        import builtins

        from repro.cli import repl

        original = builtins.input

        def fake_input(prompt=""):
            try:
                return next(inputs)
            except StopIteration:
                raise EOFError

        builtins.input = fake_input
        try:
            repl("company", out=out)
        finally:
            builtins.input = original
        return out.getvalue()

    def test_scripted_session(self):
        text = self._run(
            [
                "\\plan",
                "select distinct e.name",
                "from e in Employees where e.age > 30;",
                "\\db ab",
                "for all a in A: exists b in B: a = b;",
                "\\quit",
            ]
        )
        assert "\\plan on" in text
        assert "reduce[" in text
        assert "switched to 'ab'" in text
        assert "rows)" in text

    def test_bad_query_is_survivable(self):
        text = self._run(["selectt nonsense;", "count( select e from e in Employees );"])
        assert "error:" in text
        assert "(" in text  # the second query still ran

    def test_unknown_meta_command(self):
        text = self._run(["\\frobnicate", "\\db nowhere"])
        assert "unknown meta-command" in text
        assert "unknown database" in text

    def test_batch_size(self):
        text = self._run(
            [
                "count( select e from e in Employees );",
                "\\set batch_size=16",
                "count( select e from e in Employees );",
                "\\set batch_size",
                "\\set batch_size=nope",
                "\\set",
                "\\quit",
            ]
        )
        assert text.count("batch_size=16 ") == 2
        # a malformed \\set changes nothing and says what is wrong
        assert "error: expected NAME=VALUE, got 'batch_size'" in text
        assert "error: batch_size must be an integer >= 1, got 'nope'" in text
        # both chunk sizes ran the query (two result lines)
        assert text.count("  60") == 2
