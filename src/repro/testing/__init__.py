"""Differential fuzzing for the unnesting pipeline.

The paper's central claim (Theorem 2) is semantic equivalence: the unnested
algebraic plan must return exactly what the naive nested calculus evaluation
returns, for *every* query — including the set/bag and NULL/outer-join
corner cases where shredding-style translations historically go wrong.  The
hand-written corpus in ``tests/corpus.py`` covers the paper's examples; this
package machine-generates adversarial coverage:

* :mod:`repro.testing.schemagen` — seeded random schemas and instances
  (nested extents, indexes, NULLs, empty collections);
* :mod:`repro.testing.qgen` — a grammar-driven random OQL generator,
  including ``:name`` prepared-statement placeholders;
* :mod:`repro.testing.oracle` — the differential oracle: every generated
  query runs through every execution path (direct calculus, normalized
  calculus, logical algebra, each physical-planner combination, the
  prepared-statement/plan-cache path) and the results are compared under
  the correct monoid equality;
* :mod:`repro.testing.invariants` — per-sample pipeline checks: type
  preservation across stages, N-rule normal form after normalization (the
  pipeline's one-walk ``prepare`` against the declarative N1–N9 rule set of
  :mod:`repro.testing.normalization_spec`), and operator-tree
  well-formedness after unnesting;
* :mod:`repro.testing.shrink` — a delta-debugging shrinker that minimizes
  any disagreeing query/database pair;
* :mod:`repro.testing.repro_io` — JSON repro artifacts (replayed forever by
  ``tests/test_fuzz_regressions.py``);
* :mod:`repro.testing.fuzz` — the driver behind ``repro fuzz``.
"""

from repro.testing.fuzz import FuzzConfig, FuzzReport, run_fuzz
from repro.testing.oracle import check_sample, run_all_paths
from repro.testing.qgen import GeneratedQuery, QueryGenerator
from repro.testing.schemagen import random_database

__all__ = [
    "FuzzConfig",
    "FuzzReport",
    "GeneratedQuery",
    "QueryGenerator",
    "check_sample",
    "random_database",
    "run_all_paths",
    "run_fuzz",
]
