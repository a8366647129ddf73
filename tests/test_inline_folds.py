"""Each primitive monoid's inline fold step is ``Monoid.loop``.

A kernel runs a fold as a row function of statements whose merge is
written inline (``repro.engine.compile._MERGES``); ``Monoid.loop`` is the
fold every other engine path runs, itself checked against the reference
``merge``/``lift`` fold in ``test_monoids.py``.  Here a one-generator
kernel folds a random stream — ints, floats (``-0.0``, infinities and NaN
among them), bools and NULL — and must answer what ``loop(zero, stream)``
finalized answers, by exact type and ``repr``; a NaN only has to meet a
NaN.  The kernel's error path is replaced by one that fails, so the
answer is the generated code's own.

The ``value-laws-ci`` profile (also registered by ``test_value_laws.py``
and ``test_monoids.py``) raises the example budget; this module loads it
when asked to::

    HYPOTHESIS_PROFILE=value-laws-ci pytest tests/test_inline_folds.py \\
        --hypothesis-seed 27
"""

from __future__ import annotations

import math
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kernel_runs import execution
from repro.calculus.monoids import MONOIDS
from repro.calculus.terms import BinOp, Comprehension, Const, Generator, Var
from repro.data.database import Database
from repro.data.values import NULL, ListValue
from repro.engine import compile as compile_module
from repro.engine.compile import ExprCompiler

settings.register_profile("value-laws-ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "value-laws-ci":
    settings.load_profile("value-laws-ci")

PRIMITIVE = ["sum", "prod", "max", "min", "all", "some", "avg"]

#: Streams mixing ints, floats (``-0.0`` and NaN included), bools and NULL.
STREAMS = st.lists(
    st.one_of(
        st.integers(-3, 3),
        st.sampled_from([0.0, -0.0, 0.5, -1.5, 1e16, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.just(NULL),
    ),
    max_size=12,
)


def _failing_error_path(term, predicate):
    def kern(ex, cols, n):
        return [], 0, AssertionError("the error path ran")

    return kern


def _kernel(name: str, head):
    """``name{ head | v <- xs }`` with no error path to fall back on."""
    term = Comprehension(name, head, (Generator("v", Var("xs")),))
    with mock.patch.object(compile_module, "_interpreted", _failing_error_path):
        return ExprCompiler().compile_kernel(term)


KERNELS = {name: _kernel(name, Var("v")) for name in PRIMITIVE}


def _fold(kernel, values: list):
    got, t, err = kernel.fn(execution(Database()), {"xs": [ListValue(values)]}, 1)
    assert err is None and t == 1
    return got[0]


def _same(a, b) -> bool:
    if isinstance(a, float) and a != a:
        return isinstance(b, float) and b != b
    return type(a) is type(b) and repr(a) == repr(b)


@given(STREAMS)
@example([math.nan, -0.0, NULL, True])
@example([-0.0, -0.0])
def test_each_inline_fold_step_is_the_monoid_loop(values):
    for name in PRIMITIVE:
        m = MONOIDS[name]
        want = m.finalize(m.loop(m.zero, iter(values)))
        got = _fold(KERNELS[name], values)
        assert _same(got, want), (name, got, want)


#: ``10 / v > 1``: true at 1, false at 20, a division by zero at 0.
_TEN_OVER_V = BinOp(">", BinOp("/", Const(10), Var("v")), Const(1))


@pytest.mark.parametrize(
    "name, values, deciding",
    [("all", [1, NULL, 20, 0], False), ("some", [20, NULL, 1, 0], True)],
)
def test_a_quantifier_returns_at_the_deciding_element(name, values, deciding):
    # The head after the deciding element would divide by zero.
    assert _fold(_kernel(name, _TEN_OVER_V), values) is deciding
