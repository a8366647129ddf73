"""Same answers, byte for byte: one sha256 per backend over the corpus.

Every query of the frozen e2e corpus (``benchmarks/e2e/queries.json``) runs
on the benchmark's own data (``DATA_SEED``) at a scale, once per backend,
and each result feeds the backend's digest: the query's name, the result's
``repr`` and its tagged-JSON encoding.  A change to the value layer, the
codec or an operator must leave every digest as it was, and the memory and
sqlite digests equal each other.

Run from the repository root::

    PYTHONPATH=src python benchmarks/answer_digest.py S L          # print
    PYTHONPATH=src python benchmarks/answer_digest.py --check S    # compare
    PYTHONPATH=src python benchmarks/answer_digest.py --write S L  # record

``--check`` exits 1 when a digest differs from ``answer_digests.json``;
``--write`` records the digests of the scales named, keeping the others.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

from workloads import DATA_SEED, build_engine, execute, generate, load_queries  # noqa: E402

from repro.data.codec import encode_value  # noqa: E402

RECORD = HERE / "answer_digests.json"
BACKENDS = ("memory", "sqlite")


def digests(scale: str) -> dict[str, str]:
    """The digest of every backend's answers at *scale*."""
    queries = load_queries()
    out = {}
    for backend in BACKENDS:
        engine = build_engine(generate(scale, DATA_SEED), queries, backend=backend)
        try:
            sha = hashlib.sha256()
            for q in queries:
                result = execute(engine, q)
                for part in (q.name, repr(result), json.dumps(encode_value(result))):
                    sha.update(part.encode("utf-8"))
            out[backend] = sha.hexdigest()
        finally:
            engine.close()
    return out


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
        got = digests(scale)
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
