"""Seeded random schema and instance generation for the fuzzer.

Follows the :mod:`repro.data.datagen` conventions — every generator takes a
seed (or an ``random.Random``) and is fully deterministic — but instead of
the paper's fixed example schemas it invents a fresh one each time: a few
record classes with scalar attributes, nested collection attributes (sets or
bags of inner records), a collection of scalars (``vals``: a bag of ints, a
list of strings or a set of floats, often repeating a value), an
object-valued attribute (``ref``: a stored object of an earlier class's
extent, or an equal-state twin of one that no extent holds), class extents,
NULLs sprinkled into nullable attributes, intentionally empty collections,
and hash indexes on a few scalar attributes.

Numeric design notes (they matter for the differential oracle):

* integer attributes draw from a *small* range so equality predicates and
  joins actually match;
* float attributes are multiples of 0.25 — dyadic rationals whose sums are
  exact in binary floating point, so aggregate results are identical no
  matter which order an execution path adds them in;
* all numbers are non-negative, matching the paper's (max, 0) monoid.

The generator deliberately emits *value-equal duplicate objects* (with
probability :attr:`SchemaGenConfig.duplicate_probability`, both as extra
extent members and as repeated nested-collection elements), half of them
the *same* stored object twice, and repeats a value in a collection of
scalars with the same probability.  The paper's data model is
object-oriented — two objects with identical state are still distinct — and
the engine now honours that via engine-assigned OIDs
(:meth:`repro.data.database.Database.adopt`), while a bag or list holding
one value or one object twice holds two occurrences of it; so the fuzzer
probes exactly the spots where value, object and occurrence diverge.  Earlier
versions instead stamped a synthetic unique ``oid`` *attribute* onto every
object to keep value-based records distinguishable; that workaround is
retained behind :attr:`SchemaGenConfig.synthetic_oids` purely so old seeds
and repro artifacts can be replayed byte-for-byte.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.data.database import Database
from repro.data.schema import (
    FLOAT,
    INT,
    STRING,
    CollectionType,
    FloatType,
    IntType,
    RecordType,
    Schema,
)
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue

#: The string pool shared with the query generator, so string equality
#: predicates have a real chance of matching data.
STRING_POOL = (
    "red", "green", "blue", "amber", "teal", "coral", "ivory", "slate",
)

#: Inclusive upper bound for generated integer attribute values (and the
#: literal pool the query generator draws from).
INT_RANGE = 8

#: The collections of scalars a class may hold (as its ``vals`` attribute):
#: a bag and a list, which repeat values, and a set, which collapses them.
SCALAR_COLLECTIONS = (
    CollectionType("bag", INT),
    CollectionType("list", STRING),
    CollectionType("set", FLOAT),
)
_COLLECTIONS = {"bag": BagValue, "list": ListValue, "set": SetValue}


@dataclass
class SchemaGenConfig:
    """Size knobs for random schemas/instances (defaults keep the naive
    nested-loop oracle path fast: extents stay small)."""

    min_classes: int = 2
    max_classes: int = 3
    min_scalar_attrs: int = 2
    max_scalar_attrs: int = 4
    max_nested_attrs: int = 1
    min_extent_size: int = 0  # empty extents are a feature, not a bug
    max_extent_size: int = 9
    max_nested_size: int = 3
    null_probability: float = 0.15
    nullable_probability: float = 0.4
    bag_extent_probability: float = 0.2
    index_probability: float = 0.6
    #: Chance that a freshly generated object is immediately duplicated
    #: (value-equal, identity-distinct) — in the extent for top-level
    #: objects, in the collection for nested elements.  Duplicates in set
    #: extents collapse by value; in bag extents they survive as distinct
    #: objects, which is the case the identity layer exists for.
    duplicate_probability: float = 0.2
    #: Back-compat: stamp every object with a unique ``oid`` *attribute*
    #: (the pre-identity-layer workaround).  Only useful for replaying old
    #: seeds; implies no value-equal duplicates can occur.
    synthetic_oids: bool = False


@dataclass
class GeneratedSchema:
    """A random schema plus the bookkeeping the query generator needs."""

    schema: Schema
    #: extent name -> class name (insertion order = generation order).
    extents: dict[str, str] = field(default_factory=dict)
    #: (class name, attr name) pairs that may hold NULL.
    nullable: set[tuple[str, str]] = field(default_factory=set)
    #: extent name -> collection kind ("set" | "bag").
    extent_kinds: dict[str, str] = field(default_factory=dict)
    #: class name -> the extent its ``ref`` attribute points into.
    refs: dict[str, str] = field(default_factory=dict)


def random_schema(
    rng: random.Random, config: SchemaGenConfig | None = None
) -> GeneratedSchema:
    """Generate a random schema: classes, nested attributes, extents."""
    config = config or SchemaGenConfig()
    generated = GeneratedSchema(Schema())
    num_classes = rng.randint(config.min_classes, config.max_classes)
    for index in range(num_classes):
        class_name = f"C{index}"
        attrs: dict[str, object] = {"oid": INT} if config.synthetic_oids else {}
        num_scalars = rng.randint(config.min_scalar_attrs, config.max_scalar_attrs)
        for a in range(num_scalars):
            kind = rng.choice(("int", "int", "float", "string"))
            if kind == "int":
                attrs[f"k{a}"] = INT
            elif kind == "float":
                attrs[f"f{a}"] = FLOAT
            else:
                attrs[f"s{a}"] = STRING
        for n in range(rng.randint(0, config.max_nested_attrs)):
            inner_fields = (("m0", INT), ("m1", STRING))
            if config.synthetic_oids:
                inner_fields = (("oid", INT),) + inner_fields
            inner = RecordType(inner_fields)
            monoid = "bag" if rng.random() < config.bag_extent_probability else "set"
            attrs[f"kids{n}"] = CollectionType(monoid, inner)
        if not config.synthetic_oids and rng.random() < 0.5:
            attrs["vals"] = rng.choice(SCALAR_COLLECTIONS)
        if index and not config.synthetic_oids and rng.random() < 0.5:
            target = rng.randrange(index)
            attrs["ref"] = generated.schema.class_type(f"C{target}")
            generated.refs[class_name] = f"X{target}"
        generated.schema.define_class(class_name, **attrs)  # type: ignore[arg-type]
        for attr, attr_type in attrs.items():
            if attr != "oid" and not isinstance(attr_type, CollectionType):
                if rng.random() < config.nullable_probability:
                    generated.nullable.add((class_name, attr))
        extent_name = f"X{index}"
        generated.schema.define_extent(extent_name, class_name)
        generated.extents[extent_name] = class_name
        generated.extent_kinds[extent_name] = (
            "bag" if rng.random() < config.bag_extent_probability else "set"
        )
    return generated


def random_value(rng: random.Random, attr_type: object) -> object:
    """A random value of a scalar type (never NULL)."""
    if isinstance(attr_type, IntType):
        return rng.randint(0, INT_RANGE)
    if isinstance(attr_type, FloatType):
        return rng.randint(0, 4 * INT_RANGE) * 0.25
    return rng.choice(STRING_POOL)


def _random_record(
    rng: random.Random,
    generated: GeneratedSchema,
    class_name: str,
    config: SchemaGenConfig,
    oids: Iterator[int],
    db: Database,
) -> Record:
    record_type = generated.schema.class_type(class_name)
    fields: dict[str, object] = {}
    for attr, attr_type in record_type.fields:
        if attr == "oid":
            fields[attr] = next(oids)
        elif attr_type in SCALAR_COLLECTIONS:
            values = [
                random_value(rng, attr_type.element)
                for _ in range(rng.randint(0, config.max_nested_size))
            ]
            if values and rng.random() < config.duplicate_probability:
                values.append(rng.choice(values))
            fields[attr] = _COLLECTIONS[attr_type.monoid_name](values)
        elif isinstance(attr_type, CollectionType):
            size = rng.randint(0, config.max_nested_size)
            inner: list[Record] = []
            for _ in range(size):
                member_fields: dict[str, object] = {}
                if config.synthetic_oids:
                    member_fields["oid"] = next(oids)
                member_fields["m0"] = rng.randint(0, INT_RANGE)
                member_fields["m1"] = rng.choice(STRING_POOL)
                inner.append(Record(member_fields))
                if (
                    not config.synthetic_oids
                    and rng.random() < config.duplicate_probability
                ):
                    # A value-equal twin, which Database.adopt stamps with
                    # an OID of its own — or, half the time, the one stored
                    # object twice, stamped now so adoption keeps its OID.
                    twin = Record(member_fields)
                    if rng.random() < 0.5:
                        twin = inner[-1] = twin.with_oid(db.allocate_oid())
                    inner.append(twin)
            fields[attr] = _COLLECTIONS[attr_type.monoid_name](inner)
        elif (
            (class_name, attr) in generated.nullable
            and rng.random() < config.null_probability
        ):
            fields[attr] = NULL
        elif attr == "ref":
            fields[attr] = _random_ref(rng, db.extent(generated.refs[class_name]), config)
        else:
            fields[attr] = random_value(rng, attr_type)
    return Record(fields)


def _random_ref(rng: random.Random, extent, config: SchemaGenConfig) -> object:
    """One stored object of *extent*, or — as often as objects are
    duplicated — an equal-state twin of one, which a join on the reference
    must not match with it; NULL when the extent is empty."""
    targets = list(extent.elements())
    if not targets:
        return NULL
    target = rng.choice(targets)
    if rng.random() < config.duplicate_probability:
        return Record(dict(target.items()))  # adopted with an OID of its own
    return target


def random_database(
    seed: int | random.Random,
    config: SchemaGenConfig | None = None,
) -> tuple[Database, GeneratedSchema]:
    """A random schema *and* a populated instance with indexes.

    >>> db, generated = random_database(7)
    >>> db.extent_names() == tuple(sorted(generated.extents))
    True
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    config = config or SchemaGenConfig()
    generated = random_schema(rng, config)
    db = Database(generated.schema)
    oids = itertools.count()
    for extent_name, class_name in generated.extents.items():
        size = rng.randint(config.min_extent_size, config.max_extent_size)
        objects = []
        for _ in range(size):
            obj = _random_record(rng, generated, class_name, config, oids, db)
            objects.append(obj)
            if (
                not config.synthetic_oids
                and rng.random() < config.duplicate_probability
            ):
                # Store the same record value twice; adoption assigns each
                # occurrence its own OID (set extents still collapse the
                # pair by value, bag extents keep two distinct objects) —
                # or, half the time, the one stored object twice: adopted
                # now, it keeps its OIDs when the extent adopts it again.
                if rng.random() < 0.5:
                    obj = objects[-1] = db.adopt(obj)
                objects.append(obj)
        db.add_extent(extent_name, objects, kind=generated.extent_kinds[extent_name])
    # Hash indexes on a few scalar attributes, so the index-scan path of the
    # planner participates in the differential comparison.
    for extent_name, class_name in generated.extents.items():
        if len(db.extent(extent_name)) == 0:
            continue
        record_type = generated.schema.class_type(class_name)
        for attr, attr_type in record_type.fields:
            if isinstance(attr_type, CollectionType):
                continue
            if rng.random() < config.index_probability:
                db.create_index(extent_name, attr)
    return db, generated
