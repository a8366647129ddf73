"""Out-of-core smoke: corpus sweep against a file-backed shredded store.

Shreds every benchmark family to an on-disk SQLite file with a
deliberately tiny page cache (``PRAGMA cache_size``), asserts the shredded
dataset is larger than that cache budget — so query execution genuinely
pages, it cannot hold the working set resident — and then runs the full
53-query corpus against the file-backed store, comparing every result
with the in-memory reference pipeline.

Assertions (all loud; the job never skips silently):

* every shredded file (db + WAL) outgrows the configured cache budget;
* every corpus query executes — a ``BackendUnsupportedError`` on a corpus
  query is a coverage regression and fails the run;
* every result matches the in-memory reference engine;
* a *reopened* store (fresh ``Database`` instance, same ``db_path``)
  reuses the on-disk shred via its fingerprint instead of re-shredding,
  derives the catalog the first store derived, still returns
  reference-equal results — and every object in them *is* the reopened
  database's own (``$oid`` resolves into the database; nothing is
  rehydrated).

Usage::

    PYTHONPATH=src python benchmarks/out_of_core_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "tests"))
sys.path.insert(0, str(_REPO / "src"))

from corpus import CORPUS  # noqa: E402

from repro.backends.shred import shredded_store  # noqa: E402
from repro.core.optimizer import OptimizerOptions  # noqa: E402
from repro.core.pipeline import QueryPipeline  # noqa: E402
from repro.data.datagen import (  # noqa: E402
    ab_database,
    auction_database,
    company_database,
    travel_database,
    university_database,
)
from repro.data.values import CollectionValue, Record  # noqa: E402
from repro.errors import BackendUnsupportedError  # noqa: E402
from repro.testing.oracle import results_equal  # noqa: E402

#: Page-cache budget per connection, KiB.  Small enough that every
#: benchmark family's shredded image outgrows it with a wide margin.
_CACHE_KIB = 32

_DATABASES: dict[str, Callable[[], Any]] = {
    "company": lambda: company_database(700, 20, seed=1998),
    "university": lambda: university_database(300, 40, seed=1998),
    "travel": lambda: travel_database(60, 16, seed=1998),
    "ab": lambda: ab_database(300, 300, seed=1998),
    "auction": lambda: auction_database(500, 150, seed=1998),
}


def _on_disk_bytes(path: Path) -> int:
    """Total bytes of the database image (main file + WAL, if present)."""
    total = path.stat().st_size if path.exists() else 0
    wal = path.with_name(path.name + "-wal")
    if wal.exists():
        total += wal.stat().st_size
    return total


def _records(value: Any):
    """Every OID-carrying record in or under *value*."""
    if isinstance(value, Record):
        if value.oid is not None:
            yield value
        for attr in value:
            yield from _records(value[attr])
    elif isinstance(value, CollectionValue):
        for element in value.elements():
            yield from _records(element)


def run_smoke(tmp: Path) -> int:
    failures = 0
    databases = {name: maker() for name, maker in _DATABASES.items()}
    paths = {name: tmp / f"{name}.db" for name in databases}
    catalogs = {}

    # Shred each family to disk under the tiny cache budget and check the
    # image actually outgrows it.
    for name, db in databases.items():
        store = shredded_store(db, db_path=str(paths[name]), cache_kib=_CACHE_KIB)
        assert not store.reused, f"{name}: fresh path unexpectedly reused"
        catalogs[name] = store.tables
        size = _on_disk_bytes(paths[name])
        budget = _CACHE_KIB * 1024
        print(
            f"{name:10s} shredded to {paths[name].name}: "
            f"{size / 1024:.0f} KiB on disk vs {_CACHE_KIB} KiB cache"
        )
        if size <= budget:
            print(
                f"FAIL: {name} image ({size} B) fits the cache budget "
                f"({budget} B) — not an out-of-core run",
                file=sys.stderr,
            )
            failures += 1

    # Full corpus sweep: file-backed store vs in-memory reference.
    ran = 0
    for query in CORPUS:
        db = databases[query.family]
        reference = QueryPipeline(db)
        file_backed = QueryPipeline(
            db,
            OptimizerOptions(backend="sqlite", db_path=str(paths[query.family])),
        )
        expected = reference.run_oql(query.oql)
        try:
            actual = file_backed.run_oql(query.oql)
        except BackendUnsupportedError as exc:
            print(
                f"FAIL: {query.name}: file-backed store refused a corpus "
                f"query — coverage regressed: {exc}",
                file=sys.stderr,
            )
            failures += 1
            continue
        ran += 1
        if not results_equal(expected, actual):
            print(
                f"FAIL: {query.name}: file-backed result differs from the "
                "in-memory reference",
                file=sys.stderr,
            )
            failures += 1
    print(f"corpus sweep: {ran}/{len(CORPUS)} queries ran out-of-core")
    if ran != len(CORPUS):
        failures += 1

    # Reopen: a fresh Database instance with the same values and OIDs must
    # reuse the on-disk shred (fingerprint match), describe it as the first
    # store did, and still agree — with its own objects.
    reopened = {name: maker() for name, maker in _DATABASES.items()}
    own = {
        name: {
            record.oid: record
            for extent in db.extent_names()
            for record in _records(db.extent(extent))
        }
        for name, db in reopened.items()
    }
    for name, db in reopened.items():
        store = shredded_store(
            db, db_path=str(paths[name]), cache_kib=_CACHE_KIB
        )
        if not store.reused:
            print(
                f"FAIL: {name}: reopened store re-shredded instead of "
                "reusing the manifest-matched on-disk image",
                file=sys.stderr,
            )
            failures += 1
        if store.tables != catalogs[name]:
            print(
                f"FAIL: {name}: reopened store's catalog differs from the "
                "one the first shred derived",
                file=sys.stderr,
            )
            failures += 1
    objects = 0
    for query in CORPUS:
        db = reopened[query.family]
        pipe = QueryPipeline(
            db,
            OptimizerOptions(backend="sqlite", db_path=str(paths[query.family])),
        )
        expected = QueryPipeline(db).run_oql(query.oql)
        actual = pipe.run_oql(query.oql)
        if not results_equal(expected, actual):
            print(
                f"FAIL: {query.name}: reopened store disagrees with the "
                "reference",
                file=sys.stderr,
            )
            failures += 1
        for record in _records(actual):
            objects += 1
            if record is not own[query.family].get(record.oid):
                print(
                    f"FAIL: {query.name}: object {record.oid} of the result "
                    "is not the reopened database's own",
                    file=sys.stderr,
                )
                failures += 1
                break
    print(f"reopened sweep: {objects} result objects checked for identity")
    if not objects:
        failures += 1
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-ooc-") as tmp:
        failures = run_smoke(Path(tmp))
    if failures:
        print(f"{failures} failure(s)", file=sys.stderr)
        return 1
    print("out-of-core smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
