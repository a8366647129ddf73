"""The tagged-JSON codec for engine values.

One explicit encoding, shared by the wire protocol (results, parameter
values), database images and the fuzzer's repro files: scalars are
themselves but a non-finite float, ``{"$float": "inf"|"-inf"|"nan"}`` (JSON
has no such number), NULL is ``{"$null": true}``, a record is
``{"$record": {...}}`` with its identity as a ``"$oid": n`` sibling, and
sets/bags/lists are ``{"$set"|"$bag"|"$list": [...]}``.  Decoding checks the
shape — the data may come from outside the program — and raises
:class:`ValueError`; an older file's bare ``Infinity``/``NaN`` still decodes.
"""

from __future__ import annotations

from math import isfinite
from typing import Any

from repro.data.values import (
    NULL,
    BagValue,
    ListValue,
    NullValue,
    Record,
    SetValue,
)

__all__ = ["decode_value", "encode_value"]

_COLLECTIONS = {"$set": SetValue, "$bag": BagValue, "$list": ListValue}
_NON_FINITE = ("inf", "-inf", "nan")

#: What :func:`encode_value` dispatches on; a subclass encodes as its first.
_CLASSES = (str, int, bool, float, Record, SetValue, BagValue, ListValue, NullValue)


def encode_value(value: Any) -> Any:
    """An engine value as tagged JSON."""
    return _encode(value, value.__class__)


def _encode(value: Any, cls: type) -> Any:
    if cls is str or cls is int or cls is bool:
        return value
    if cls is Record:
        fields = value._fields.items()
        encoded = {"$record": {a: _encode(v, v.__class__) for a, v in fields}}
        if value._oid is not None:
            encoded["$oid"] = value._oid
        return encoded
    if cls is float:
        return value if isfinite(value) else {"$float": repr(value)}
    if cls is SetValue:
        return {"$set": [_encode(v, v.__class__) for v in value._order]}
    if cls is BagValue:
        elements: list[Any] = []
        for element, count in value._counted():
            elements += [_encode(element, element.__class__)] * count
        return {"$bag": elements}
    if cls is ListValue:
        return {"$list": [_encode(v, v.__class__) for v in value._items]}
    if cls is NullValue:
        return {"$null": True}
    base = next((base for base in _CLASSES if isinstance(value, base)), None)
    if base is None:
        raise ValueError(f"cannot encode value {value!r} as tagged JSON")
    return _encode(value, base)


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
    if "$float" in data:
        if (name := data["$float"]) not in _NON_FINITE:
            raise ValueError(f"$float must be one of {_NON_FINITE}, got {name!r}")
        return float(name)
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
