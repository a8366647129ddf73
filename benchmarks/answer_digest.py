"""Same answers, byte for byte: one sha256 per backend over the corpus.

Every query of the frozen e2e corpus (``benchmarks/e2e/queries.json``) runs
on the benchmark's own data (``DATA_SEED``) at a scale, once per backend,
and each result feeds the backend's digest: the query's name, the result's
``repr`` and its tagged-JSON encoding.  Two more digests per scale cover
the corpus's ordered variants (:func:`ordered_variants`) and the
:data:`PROBES`.  A change to the value layer, the codec or an operator
must leave every digest as it was, and the memory and sqlite digests equal
each other.  Each backend answers twice against the same databases: a cold
pass, then a warm one that reuses the closed build sides the first kept
(``Database.builds``); the two digests must agree.

Run from the repository root::

    python benchmarks/answer_digest.py S L          # print
    python benchmarks/answer_digest.py --check S    # compare
    python benchmarks/answer_digest.py --write S L  # record

``--check`` exits 1 when a digest differs from ``answer_digests.json``;
``--write`` records the digests of the scales named, keeping the others.
Any run exits 1 when a warm pass answers differently from its cold one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE / "e2e"), str(HERE.parent / "src")]

from workloads import (  # noqa: E402
    DATA_SEED,
    Query,
    build_engine,
    execute,
    generate,
    load_queries,
)

from repro.data.codec import encode_value  # noqa: E402
from repro.data.values import CollectionValue, Record  # noqa: E402

RECORD = HERE / "answer_digests.json"
BACKENDS = ("memory", "sqlite")

_SIGNED_ZERO = (
    "select distinct struct(a: (select -1 * 0.0 from x in Departments "
    "where x.dno = e.dno{}), b: (select 0.0 from y in Departments "
    "where y.dno = e.dno)) from e in Employees"
)

#: Queries outside the corpus, each pinning a wrong answer that was mended:
#: ``0.0`` read as ``-0.0`` by box sharing and the kernel memo, §5's
#: grouping key served for a head of another constant type, and an
#: aggregate over a ``select distinct`` that dropped the distinct.
PROBES = [
    Query(name, "company", oql, "probe")
    for name, oql in (
        ("signed_zero", _SIGNED_ZERO.format("")),
        ("signed_zero_filtered", _SIGNED_ZERO.format(" and x.dno > 2")),
        (
            "section5_key_type",
            "select distinct struct(D: e.dno + 1.0, S: sum(select u.salary from u "
            "in Employees where e.dno + 1 = u.dno + 1)) from e in Employees",
        ),
        ("count_distinct", "count(select distinct e.dno from e in Employees)"),
        ("sum_distinct", "sum(select distinct e.salary from e in Employees)"),
        ("avg_distinct", "avg(select distinct e.dno from e in Employees)"),
    )
]

#: Corpus queries ending in a set operation, which ``order by`` cannot follow.
UNORDERABLE = ("setop_union", "setop_intersect")


def _digest(engine, queries) -> str:
    """One pass of every query through *engine*, as one sha256."""
    sha = hashlib.sha256()
    for q in queries:
        result = execute(engine, q)
        for part in (q.name, repr(result), json.dumps(encode_value(result))):
            sha.update(part.encode("utf-8"))
    return sha.hexdigest()


def _order_key(element) -> str | None:
    """``value`` for a scalar element, ``value.<its first scalar field>``
    for a struct or an object, None for a record with no scalar field."""
    if not isinstance(element, Record):
        return "value"
    for name, field in element.items():
        if isinstance(field, (bool, int, float, str)):
            return f"value.{name}"
    return None


def ordered_variants(queries: list[Query], answers: dict) -> list[Query]:
    """Every corpus query that answers a non-empty collection, with ``
    order by <key>`` appended (EXPERIMENTS "ORDER BY is a fold")."""
    variants = []
    for q in queries:
        answer = answers[q.name]
        if q.name in UNORDERABLE or not isinstance(answer, CollectionValue):
            continue
        key = next((_order_key(element) for element in answer), None)
        if key is not None:
            oql = f"{q.oql} order by {key}"
            variants.append(Query(f"{q.name}_ordered", q.family, oql, q.nesting))
    return variants


def query_sets(scale: str) -> dict[str, list[Query]]:
    """The queries of each digest at *scale*: the corpus, its ordered
    variants (keyed by the memory backend's answers) and the probes."""
    queries = load_queries()
    engine = build_engine(generate(scale, DATA_SEED), queries)
    try:
        answers = {q.name: execute(engine, q) for q in queries}
    finally:
        engine.close()
    return {
        scale: queries,
        f"{scale} ordered": ordered_variants(queries, answers),
        f"{scale} probes": PROBES,
    }


def digests(scale: str) -> tuple[dict[str, dict[str, str]], list[str]]:
    """The digest of every backend's answers to each query set at *scale*,
    from a cold pass, and the sets and backends whose warm pass digested
    differently."""
    sets = query_sets(scale)
    every = [q for queries in sets.values() for q in queries]
    out: dict[str, dict[str, str]] = {name: {} for name in sets}
    unstable = []
    for backend in BACKENDS:
        engine = build_engine(generate(scale, DATA_SEED), every, backend=backend)
        try:
            for name, queries in sets.items():
                out[name][backend] = _digest(engine, queries)
            for name, queries in sets.items():
                if _digest(engine, queries) != out[name][backend]:
                    unstable.append(f"{name} {backend}")
        finally:
            engine.close()
    return out, unstable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("scales", nargs="+", choices=("S", "L"))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the record")
    mode.add_argument("--write", action="store_true", help="update the record")
    args = parser.parse_args(argv)
    recorded = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    failed = False
    for scale in args.scales:
        sets, unstable = digests(scale)
        for which in unstable:
            failed = True
            print(f"{which} warm pass DIFFERS from the cold pass")
        for name, got in sets.items():
            for backend, digest in got.items():
                want = recorded.get(name, {}).get(backend)
                status = "" if not args.check else ("  ok" if digest == want else "  DIFFERS")
                failed = failed or (args.check and digest != want)
                print(f"{name:9s} {backend:6s} {digest}{status}")
            recorded[name] = got
    if args.write:
        RECORD.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
