"""Same answers, byte for byte: one sha256 per backend over the corpus.

Every query of the frozen e2e corpus (``benchmarks/e2e/queries.json``) runs
on the benchmark's own data (``DATA_SEED``) at a scale, once per backend,
and each result feeds the backend's digest: the query's name, the result's
``repr`` and its tagged-JSON encoding.  A change to the value layer, the
codec or an operator must leave every digest as it was, and the memory and
sqlite digests equal each other.  Each backend answers twice against the
same databases: a cold pass, then a warm one that reuses the closed build
sides the first kept (``Database.builds``); the two digests must agree.

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

from workloads import DATA_SEED, build_engine, execute, generate, load_queries  # noqa: E402

from repro.data.codec import encode_value  # noqa: E402

RECORD = HERE / "answer_digests.json"
BACKENDS = ("memory", "sqlite")


def _digest(engine, queries) -> str:
    """One pass of every query through *engine*, as one sha256."""
    sha = hashlib.sha256()
    for q in queries:
        result = execute(engine, q)
        for part in (q.name, repr(result), json.dumps(encode_value(result))):
            sha.update(part.encode("utf-8"))
    return sha.hexdigest()


def digests(scale: str) -> tuple[dict[str, str], list[str]]:
    """The digest of every backend's answers at *scale*, from a cold pass,
    and the backends whose warm pass digested differently."""
    queries = load_queries()
    out = {}
    unstable = []
    for backend in BACKENDS:
        engine = build_engine(generate(scale, DATA_SEED), queries, backend=backend)
        try:
            out[backend] = _digest(engine, queries)
            if _digest(engine, queries) != out[backend]:
                unstable.append(backend)
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
        got, unstable = digests(scale)
        for backend in unstable:
            failed = True
            print(f"{scale} {backend:6s} warm pass DIFFERS from the cold pass")
        for backend, digest in got.items():
            want = recorded.get(scale, {}).get(backend)
            status = "" if not args.check else ("  ok" if digest == want else "  DIFFERS")
            failed = failed or (args.check and digest != want)
            print(f"{scale} {backend:6s} {digest}{status}")
        recorded[scale] = got
    if args.write:
        RECORD.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
