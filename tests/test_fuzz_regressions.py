"""Replay of fuzzer-found repro artifacts.

Every JSON file under ``tests/fuzz_repros/`` is a self-contained sample —
query, parameters, schema, data, indexes — that the differential fuzzer
once flagged.  Each one is replayed through every execution path on every
test run:

* ``expect: agreement`` artifacts pin *fixed* bugs: all paths must agree,
  forever;
* ``expect: disagreement`` artifacts pin *known divergences* (documented
  model limitations): the suite fails loudly if the behaviour silently
  changes, so the documentation can never rot;
* ``compare: repr`` artifacts pin a wrong answer the oracle's canonical
  image cannot see (it maps ``3`` and ``3.0`` to one value): every path
  that answers must ``repr`` its result as the calculus reference does.

``typed_plan_samples.json`` holds the qgen samples whose plans the one
Figure 6 typing changed: a grouped variable over a typed set with no
occurrence column, or a shared-nest spine's keys filed bare.  Each keeps
that plan, and all paths agree on it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import QueryPipeline
from repro.testing.oracle import check_sample, run_all_paths
from repro.testing.repro_io import decode_sample, load_repro

REPRO_DIR = Path(__file__).parent / "fuzz_repros"
REPRO_FILES = sorted(REPRO_DIR.glob("*.json"))
EXACT_FILES = [
    p for p in REPRO_FILES if json.loads(p.read_text()).get("compare") == "repr"
]
TYPED_SAMPLES = json.loads((Path(__file__).parent / "typed_plan_samples.json").read_text())


def test_repro_directory_is_populated():
    assert REPRO_FILES, f"no repro artifacts under {REPRO_DIR}"


@pytest.mark.parametrize(
    "path", REPRO_FILES, ids=[p.stem for p in REPRO_FILES]
)
def test_replay_repro(path: Path):
    data = json.loads(path.read_text())
    expect = data.get("expect", "agreement")
    assert expect in ("agreement", "disagreement"), f"bad expect in {path.name}"

    source, params, db = load_repro(path)
    verdict = check_sample(source, params, db)
    if expect == "agreement":
        assert verdict.agreed, (
            f"{path.name} regressed — paths disagree again:\n{verdict.describe()}"
        )
    else:
        assert not verdict.agreed, (
            f"{path.name} is pinned as a known divergence but all paths now "
            f"agree — the limitation was fixed; update the artifact (and its "
            f"documentation) to expect agreement:\n{verdict.describe()}"
        )


@pytest.mark.parametrize("path", EXACT_FILES, ids=[p.stem for p in EXACT_FILES])
def test_replay_repro_exactly(path: Path):
    source, params, db = load_repro(path)
    reference, *others = run_all_paths(source, params, db)
    assert reference.ok, reference.error
    for outcome in others:
        if not outcome.skipped:
            assert outcome.ok, f"{outcome.path}: {outcome.error}"
            assert repr(outcome.value) == repr(reference.value), outcome.path


@pytest.mark.parametrize(
    "path", REPRO_FILES, ids=[p.stem for p in REPRO_FILES]
)
def test_repro_files_are_well_formed(path: Path):
    data = json.loads(path.read_text())
    assert data["version"] == 2
    assert data["description"], f"{path.name} needs a description"
    assert isinstance(data["source"], str) and data["source"]
    # The loader must round-trip every artifact without error.
    source, params, db = load_repro(path)
    assert source == data["source"]
    assert set(db.extent_names()) == set(data["database"]["extents"])


@pytest.mark.parametrize(
    "sample", TYPED_SAMPLES, ids=[s["description"].split(":")[0] for s in TYPED_SAMPLES]
)
def test_plans_the_typing_changed_agree(sample):
    source, params, db = decode_sample(sample)
    compiled = QueryPipeline(db).compile_oql(source)
    operators = [compiled.physical(db)]
    for op in operators:
        operators += op.children()
    bare = sum(
        sum(side) for op in operators if getattr(op, "left_keys", ()) for side in op._bare
    )
    assert len(compiled.typing(db).occurring) == sample["occurring"]
    assert bare == sample["bare_key_sides"]
    verdict = check_sample(source, params, db)
    assert verdict.agreed, verdict.describe()
