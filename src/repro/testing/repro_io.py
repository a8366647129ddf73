"""JSON repro artifacts for fuzzer findings.

Every disagreement the fuzzer shrinks is saved as a self-contained JSON
file — OQL source, parameter bindings and the database — that
:func:`load_repro` turns back into a runnable sample.
``tests/test_fuzz_regressions.py`` replays every artifact under
``tests/fuzz_repros/`` forever, so a fixed bug stays fixed.

The database is the image of :mod:`repro.data.storage`
(:func:`~repro.data.storage.database_to_dict`: schema, extents and
indexes, values in the :mod:`repro.data.codec` encoding), so an artifact
is checked on load as a saved database is, and a malformed one is a
:class:`~repro.data.storage.StorageError` that says what is wrong.  Repro
files are meant to be read, edited, and committed.  Stored objects keep
their engine-assigned identity via a ``$oid`` sibling of ``$record``;
objects without one are stamped with fresh OIDs on load (the replayed
sample still distinguishes value-equal duplicates, just under new OIDs).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.data.codec import decode_value, encode_value
from repro.data.database import Database
from repro.data.storage import StorageError, database_from_dict, database_to_dict

#: Version 1 spelled the schema, extents and indexes out at the top level
#: in an encoding of its own; version 2 holds a database image.
FORMAT_VERSION = 2


def encode_sample(
    source: str,
    params: dict[str, Any],
    db: Database,
    description: str = "",
    seed: int | None = None,
    expect: str = "agreement",
) -> dict[str, Any]:
    """The JSON-ready dict for one (query, params, database) sample.

    *expect* is what the regression replay asserts: ``"agreement"`` for a
    fixed bug (all paths must agree forever after), ``"disagreement"`` for
    a pinned known divergence (a documented model limitation that the suite
    notices if it silently changes).
    """
    return {
        "version": FORMAT_VERSION,
        "description": description,
        "seed": seed,
        "expect": expect,
        "source": source,
        "params": {name: encode_value(v) for name, v in params.items()},
        "database": database_to_dict(db),
    }


def decode_sample(data: dict[str, Any]) -> tuple[str, dict[str, Any], Database]:
    """Rebuild the runnable (source, params, database) triple."""
    if data.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported repro version {data.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    db = database_from_dict(data.get("database"))
    params = {name: decode_value(v) for name, v in data.get("params", {}).items()}
    return data["source"], params, db


def save_repro(
    path: str | Path,
    source: str,
    params: dict[str, Any],
    db: Database,
    description: str = "",
    seed: int | None = None,
    expect: str = "agreement",
) -> Path:
    """Write one sample to *path* as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = encode_sample(source, params, db, description, seed, expect)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: str | Path) -> tuple[str, dict[str, Any], Database]:
    """Read a repro file back into a runnable sample."""
    return decode_sample(json.loads(Path(path).read_text()))
