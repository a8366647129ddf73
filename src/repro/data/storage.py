"""File-backed persistence for databases (the SHORE stand-in).

The paper's prototype evaluated plans in memory and planned to "connect it
to the SHORE object management system" for persistence.  This module is the
corresponding substrate for this reproduction: a self-describing JSON
format that round-trips a complete :class:`~repro.data.database.Database` —
schema, extents (with nested records/sets/bags/lists and NULLs), and the
set of built indexes (rebuilt on load).

Format sketch::

    {"format": "repro-db", "version": 2,
     "schema": {"classes": {...}, "extents": {...}},
     "extents": {"Employees": {"kind": "set", "items": [...]}, ...},
     "indexes": [["Employees", "dno"], ...]}

Values are in the one tagged-JSON encoding of :mod:`repro.data.codec`,
scalars plain: ``{"$record": {...}}``, ``{"$set": [...]}``, ``{"$bag":
[...]}``, ``{"$list": [...]}``, ``{"$null": true}``.  A stored object's
identity rides along as ``{"$record": {...}, "$oid": n}`` and a bag lists
every element, so value-equal objects with different OIDs stay distinct and
identity round-trips losslessly.  (Version 1 wrote a bag as ``[[item,
count]]`` pairs; such a file is refused by its version number.)

An image comes from outside the program: whatever is wrong with one is a
:class:`StorageError` that says what.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.data import codec
from repro.data.database import Database
from repro.data.schema import (
    ANY,
    BOOL,
    FLOAT,
    INT,
    STRING,
    AnyType,
    BoolType,
    CollectionType,
    FloatType,
    IntType,
    RecordType,
    Schema,
    StringType,
    Type,
)
from repro.data.values import BagValue, ListValue, SetValue
from repro.errors import UnknownExtentError

FORMAT_NAME = "repro-db"
FORMAT_VERSION = 2


class StorageError(Exception):
    """The file is not a valid repro database image."""


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """:func:`repro.data.codec.encode_value`; what it cannot encode is a
    :class:`StorageError`."""
    try:
        return codec.encode_value(value)
    except ValueError as exc:
        raise StorageError(str(exc)) from exc


def decode_value(data: Any) -> Any:
    """:func:`repro.data.codec.decode_value`; data of the wrong shape is a
    :class:`StorageError`."""
    try:
        return codec.decode_value(data)
    except ValueError as exc:
        raise StorageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Type / schema encoding
# ---------------------------------------------------------------------------

_PRIMITIVES: dict[str, Type] = {
    "bool": BOOL,
    "int": INT,
    "float": FLOAT,
    "string": STRING,
    "any": ANY,
}


def encode_type(type_: Type) -> Any:
    """Encode a data-model type as JSON-compatible data."""
    if isinstance(type_, (BoolType, IntType, FloatType, StringType, AnyType)):
        return str(type_)
    if isinstance(type_, CollectionType):
        return {"collection": type_.monoid_name, "element": encode_type(type_.element)}
    if isinstance(type_, RecordType):
        return {"record": {name: encode_type(t) for name, t in type_.fields}}
    raise StorageError(f"cannot encode type {type_}")


def decode_type(data: Any) -> Type:
    """Decode JSON produced by :func:`encode_type`."""
    if isinstance(data, str):
        try:
            return _PRIMITIVES[data]
        except KeyError:
            raise StorageError(f"unknown primitive type {data!r}") from None
    if isinstance(data, dict) and data.get("collection") in _KINDS.values():
        return CollectionType(data["collection"], decode_type(data.get("element")))
    if isinstance(data, dict) and isinstance(data.get("record"), dict):
        fields = tuple((name, decode_type(t)) for name, t in data["record"].items())
        return RecordType(fields)
    raise StorageError(f"cannot decode type from {data!r}")


def encode_schema(schema: Schema) -> dict[str, Any]:
    """Encode a schema catalog (classes + extents)."""
    return {
        "classes": {
            name: encode_type(record_type)
            for name, record_type in schema.classes.items()
        },
        "extents": dict(schema.extents),
    }


def _section(data: Any, key: str, kind: type, where: str) -> Any:
    """``data[key]`` (absent: empty), checked to be a JSON *kind*."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "an array"
        raise StorageError(
            f"{where}{key!r} must be {shape}, got {type(value).__name__}"
        )
    return value


def decode_schema(data: dict[str, Any]) -> Schema:
    """Decode JSON produced by :func:`encode_schema`."""
    schema = Schema()
    for name, encoded in _section(data, "classes", dict, "schema ").items():
        decoded = decode_type(encoded)
        if not isinstance(decoded, RecordType):
            raise StorageError(f"class {name!r} is not a record type")
        schema.classes[name] = decoded
    for extent, class_name in _section(data, "extents", dict, "schema ").items():
        schema.extents[extent] = class_name
    return schema


# ---------------------------------------------------------------------------
# Whole-database round trip
# ---------------------------------------------------------------------------

_KINDS = {SetValue: "set", BagValue: "bag", ListValue: "list"}


def database_to_dict(db: Database) -> dict[str, Any]:
    """The JSON-compatible image of a whole database."""
    extents: dict[str, Any] = {}
    for name in db.extent_names():
        collection = db.extent(name)
        extents[name] = {
            "kind": _KINDS[type(collection)],
            "items": [encode_value(v) for v in collection.elements()],
        }
    indexes = [
        [extent, attr]
        for extent in db.extent_names()
        for attr in db.indexed_attributes(extent)
    ]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "schema": encode_schema(db.schema),
        "extents": extents,
        "indexes": indexes,
    }


def database_from_dict(data: dict[str, Any]) -> Database:
    """Rebuild a database from :func:`database_to_dict` output."""
    if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
        raise StorageError("not a repro database image (bad format marker)")
    if data.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported format version {data.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    db = Database(decode_schema(_section(data, "schema", dict, "")))
    for name, extent in _section(data, "extents", dict, "").items():
        if not isinstance(extent, dict) or extent.get("kind") not in _KINDS.values():
            raise StorageError(
                f"extent {name!r} needs a 'kind' of {sorted(_KINDS.values())}"
            )
        if not isinstance(extent.get("items"), list):
            raise StorageError(f"extent {name!r} needs an array of 'items'")
        db.add_extent(name, map(decode_value, extent["items"]), kind=extent["kind"])
    for index in _section(data, "indexes", list, ""):
        try:
            extent, attr = index
            db.create_index(extent, attr)
        except (TypeError, ValueError, UnknownExtentError) as exc:
            raise StorageError(
                f"index {index!r} is no [extent, attribute] pair to rebuild: {exc}"
            ) from exc
    return db


def save_database(db: Database, path: str | Path) -> None:
    """Write *db* to *path* as a self-describing JSON image."""
    Path(path).write_text(json.dumps(database_to_dict(db), indent=1))


def load_database(path: str | Path) -> Database:
    """Load a database image written by :func:`save_database`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt database image: {exc}") from exc
    return database_from_dict(data)
