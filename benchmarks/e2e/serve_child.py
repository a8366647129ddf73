"""The query server of the ``serve_closed`` workload, in its own process.

A separate process keeps the load generator's JSON decoding off the
server's GIL, and makes the server's CPU time and peak RSS readable on
their own.  The parent (``serving.ServerChild``) talks to it over the
standard streams:

* on start-up the child prints one JSON line, ``{"port": N}``;
* a line ``rusage`` on stdin is answered with one JSON line holding the
  child's own CPU seconds and peak RSS so far, and the speed-probe ticks
  since the last answer (``[seconds ago, kernel ms]`` each);
* end-of-file on stdin (the parent closing the pipe, or dying) shuts the
  server down gracefully — so no server outlives its benchmark.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from measure import SpeedProbe  # noqa: E402  (beside this file)

#: The probe ticks inside the server process, where the work is: the
#: kernel every 20 ms holds the server's GIL for about 2% of the time —
#: the same small tax on every commit measured.
PROBE_PERIOD_S = 0.02


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--employees", type=int, required=True)
    parser.add_argument("--departments", type=int, required=True)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    from repro.data.datagen import company_database
    from repro.server import ServerConfig, ServerThread

    database = company_database(args.employees, args.departments, seed=args.seed)
    config = ServerConfig(database=database, workers=args.workers)
    probe = SpeedProbe()
    stop = threading.Event()

    def probe_loop() -> None:
        while not stop.wait(PROBE_PERIOD_S):
            probe.tick()

    prober = threading.Thread(target=probe_loop, name="speed-probe", daemon=True)
    reported = 0
    with ServerThread(config) as (_, port):
        prober.start()
        try:
            print(json.dumps({"port": port}), flush=True)
            for line in sys.stdin:
                if line.strip() != "rusage":
                    break
                usage = resource.getrusage(resource.RUSAGE_SELF)
                now, count = time.perf_counter(), len(probe.took)
                ticks = [[now - probe.at[i], probe.took[i]] for i in range(reported, count)]
                reported = count
                print(
                    json.dumps(
                        {
                            "cpu_s": usage.ru_utime + usage.ru_stime - probe.spent,
                            "maxrss_mb": usage.ru_maxrss / 1024.0,
                            "ticks": ticks,
                        }
                    ),
                    flush=True,
                )
        finally:
            stop.set()
            prober.join()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
