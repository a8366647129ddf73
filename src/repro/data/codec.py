"""The tagged-JSON codec for engine values.

One explicit encoding, shared by the wire protocol (results, parameter
values) and the fuzzer's repro files: scalars are themselves, NULL is
``{"$null": true}``, a record is ``{"$record": {...}}`` with its identity
as a ``"$oid": n`` sibling, and sets/bags/lists are
``{"$set"|"$bag"|"$list": [...]}``.  Decoding checks the shape — the data
may come from outside the program — and raises :class:`ValueError`.
"""

from __future__ import annotations

from typing import Any

from repro.data.values import (
    NULL,
    BagValue,
    ListValue,
    Record,
    SetValue,
    is_null,
)

__all__ = ["decode_value", "encode_value"]

_COLLECTIONS = {"$set": SetValue, "$bag": BagValue, "$list": ListValue}


def encode_value(value: Any) -> Any:
    """An engine value as tagged JSON."""
    if is_null(value):
        return {"$null": True}
    if isinstance(value, Record):
        encoded: dict[str, Any] = {
            "$record": {attr: encode_value(v) for attr, v in value.items()}
        }
        if value.oid is not None:
            encoded["$oid"] = value.oid
        return encoded
    if isinstance(value, SetValue):
        return {"$set": [encode_value(v) for v in value]}
    if isinstance(value, BagValue):
        return {"$bag": [encode_value(v) for v in value]}
    if isinstance(value, ListValue):
        return {"$list": [encode_value(v) for v in value]}
    if isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(f"cannot encode value {value!r} as tagged JSON")


def decode_value(data: Any) -> Any:
    """The inverse of :func:`encode_value`; :class:`ValueError` when *data*
    is not a scalar or a tagged object of the right shape."""
    if isinstance(data, (bool, int, float, str)):
        return data
    if not isinstance(data, dict):
        raise ValueError(
            f"expected a scalar or a tagged object, got {type(data).__name__}"
        )
    if "$null" in data:
        return NULL
    if "$record" in data:
        fields = data["$record"]
        if not isinstance(fields, dict):
            raise ValueError(
                f"$record must be an object, got {type(fields).__name__}"
            )
        record = Record({attr: decode_value(v) for attr, v in fields.items()})
        if "$oid" in data:
            oid = data["$oid"]
            if type(oid) is not int:
                raise ValueError(f"$oid must be an integer, got {oid!r}")
            record = record.with_oid(oid)
        return record
    for tag, cls in _COLLECTIONS.items():
        if tag in data:
            elements = data[tag]
            if not isinstance(elements, list):
                raise ValueError(
                    f"{tag} must be an array, got {type(elements).__name__}"
                )
            return cls(decode_value(v) for v in elements)
    raise ValueError(f"unknown value tag in {sorted(data)}")

