"""JSON repro artifacts for fuzzer findings.

Every disagreement the fuzzer shrinks is saved as a self-contained JSON
file — OQL source, parameter bindings, schema, extent contents, and index
definitions — that :func:`load_repro` turns back into a runnable sample.
``tests/test_fuzz_regressions.py`` replays every artifact under
``tests/fuzz_repros/`` forever, so a fixed bug stays fixed.

The encoding is deliberately explicit (tagged dicts, not pickles — the
value codec is :mod:`repro.data.codec`): repro files are meant to be read,
edited, and committed.  Stored objects keep
their engine-assigned identity via a ``$oid`` sibling of ``$record``;
objects without one are re-stamped with fresh OIDs on load (the replayed
sample still distinguishes value-equal duplicates, just under new OIDs).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.data.codec import decode_value, encode_value
from repro.data.database import Database
from repro.data.schema import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    BoolType,
    CollectionType,
    FloatType,
    IntType,
    RecordType,
    Schema,
    StringType,
    Type,
)
from repro.testing.shrink import _extent_kind

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

_SCALARS: dict[str, Type] = {
    "int": INT,
    "float": FLOAT,
    "string": STRING,
    "bool": BOOL,
}


def _encode_type(t: Type) -> Any:
    if isinstance(t, IntType):
        return "int"
    if isinstance(t, FloatType):
        return "float"
    if isinstance(t, StringType):
        return "string"
    if isinstance(t, BoolType):
        return "bool"
    if isinstance(t, RecordType):
        return {"record": [[attr, _encode_type(ft)] for attr, ft in t.fields]}
    if isinstance(t, CollectionType):
        return {"coll": t.monoid_name, "element": _encode_type(t.element)}
    raise ValueError(f"cannot encode type {t!r} in a repro file")


def _decode_type(data: Any) -> Type:
    if isinstance(data, str):
        return _SCALARS[data]
    if "record" in data:
        return RecordType(
            tuple((attr, _decode_type(ft)) for attr, ft in data["record"])
        )
    return CollectionType(data["coll"], _decode_type(data["element"]))


# ---------------------------------------------------------------------------
# Whole samples
# ---------------------------------------------------------------------------


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
        "schema": {
            "classes": {
                name: _encode_type(record_type)
                for name, record_type in db.schema.classes.items()
            },
            "extents": dict(db.schema.extents),
        },
        "extents": {
            name: {
                "kind": _extent_kind(db, name),
                "objects": [encode_value(obj) for obj in db.extent(name).elements()],
            }
            for name in db.extent_names()
        },
        "indexes": [
            [name, attr]
            for name in db.extent_names()
            for attr in db.indexed_attributes(name)
        ],
    }


def decode_sample(data: dict[str, Any]) -> tuple[str, dict[str, Any], Database]:
    """Rebuild the runnable (source, params, database) triple."""
    schema = Schema()
    for class_name, encoded in data["schema"]["classes"].items():
        record_type = _decode_type(encoded)
        assert isinstance(record_type, RecordType)
        schema.define_class(class_name, **dict(record_type.fields))
    for extent_name, class_name in data["schema"]["extents"].items():
        schema.define_extent(extent_name, class_name)
    db = Database(schema)
    for extent_name, payload in data["extents"].items():
        db.add_extent(
            extent_name,
            [decode_value(obj) for obj in payload["objects"]],
            kind=payload["kind"],
        )
    for extent_name, attr in data.get("indexes", []):
        db.create_index(extent_name, attr)
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
