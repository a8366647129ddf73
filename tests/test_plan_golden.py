"""Golden plan-shape regression tests.

For every corpus query we pin the *optimized* plan's operator skeleton.
A change here is not necessarily a bug — optimizer improvements legitimately
change shapes — but it must be a conscious decision: regenerate with

    python tests/test_plan_golden.py --regen

and review the diff of ``tests/golden_plans.json`` (the logical plans) and
``tests/golden_physical_plans.json`` (the physical operators the planner
chose for them: on memory with hash joins on and off, and on sqlite).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from corpus import CORPUS
from repro.algebra.pretty import plan_signature
from repro.core.optimizer import Optimizer, OptimizerOptions

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_plans.json"
PHYSICAL_GOLDEN_PATH = GOLDEN_PATH.with_name("golden_physical_plans.json")

#: The configurations whose physical plans are pinned.
PHYSICAL_CONFIGS = {
    "memory": OptimizerOptions(),
    "memory-nohash": OptimizerOptions(hash_joins=False),
    "sqlite": OptimizerOptions(backend="sqlite"),
}


def _database(family: str):
    # Sizes are irrelevant to plan shapes; use small fixed instances.
    from repro.data.datagen import (
        ab_database,
        auction_database,
        company_database,
        travel_database,
        university_database,
    )

    makers = {
        "company": lambda: company_database(10, 3, seed=1),
        "university": lambda: university_database(8, 5, seed=1),
        "travel": lambda: travel_database(3, 2, seed=1),
        "ab": lambda: ab_database(5, 7, seed=1),
        "auction": lambda: auction_database(8, 6, seed=1),
    }
    return makers[family]()


def compute_signatures() -> dict[str, str]:
    signatures = {}
    databases: dict[str, object] = {}
    for query in CORPUS:
        db = databases.setdefault(query.family, _database(query.family))
        compiled = Optimizer(db).compile_oql(query.oql)
        signatures[query.name] = plan_signature(compiled.optimized)
    return signatures


def physical_signature(op) -> str:
    """A physical plan's skeleton in ``plan_signature``'s spirit: the head
    of each operator's ``describe()`` — the text before its first
    parenthesis, which names the algorithm and no fresh variable — nested
    by ``children()``."""
    head = op.describe().split("(", 1)[0]
    children = op.children()
    if not children:
        return head
    return f"{head}({', '.join(physical_signature(c) for c in children)})"


def compute_physical_signatures() -> dict[str, dict[str, str]]:
    signatures: dict[str, dict[str, str]] = {}
    databases: dict[str, object] = {}
    for query in CORPUS:
        db = databases.setdefault(query.family, _database(query.family))
        signatures[query.name] = {
            config: physical_signature(
                Optimizer(db, options).compile_oql(query.oql).physical(db)
            )
            for config, options in PHYSICAL_CONFIGS.items()
        }
    return signatures


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def test_golden_file_exists():
    assert GOLDEN_PATH.exists(), (
        "golden plan file missing; regenerate with "
        "`python tests/test_plan_golden.py --regen`"
    )


@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_plan_shape_is_stable(query):
    golden = load_golden()
    db = _database(query.family)
    compiled = Optimizer(db).compile_oql(query.oql)
    assert query.name in golden, (
        f"no golden entry for {query.name}; regenerate the golden file"
    )
    assert plan_signature(compiled.optimized) == golden[query.name]


def test_no_stale_golden_entries():
    names = {query.name for query in CORPUS}
    for path in (GOLDEN_PATH, PHYSICAL_GOLDEN_PATH):
        stale = set(load_golden(path)) - names
        assert not stale, f"{path.name}: entries for removed queries: {sorted(stale)}"


@pytest.mark.parametrize("config", PHYSICAL_CONFIGS)
@pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
def test_physical_plan_shape_is_stable(query, config):
    golden = load_golden(PHYSICAL_GOLDEN_PATH)
    db = _database(query.family)
    compiled = Optimizer(db, PHYSICAL_CONFIGS[config]).compile_oql(query.oql)
    assert physical_signature(compiled.physical(db)) == golden[query.name][config]


if __name__ == "__main__":
    if "--regen" in sys.argv:
        for path, compute in (
            (GOLDEN_PATH, compute_signatures),
            (PHYSICAL_GOLDEN_PATH, compute_physical_signatures),
        ):
            path.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    else:
        print(__doc__)
