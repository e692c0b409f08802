"""Run ``repro-serve`` with cProfile in every request-handling thread.

Used by the traced pass of the serve phase only::

    python3 -m perfbench.serve_traced --profile-out PATH -- STORE [serve args]

``threading.setprofile`` installs a one-shot hook in each thread the
server starts; the hook gives the thread its own ``cProfile.Profile``.
When the server stops (SIGINT), the profiles of all threads are merged
and written to ``PATH`` in pstats format.
"""

from __future__ import annotations

import argparse
import cProfile
import marshal
import pstats
import sys
import threading
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.serve_traced")
    parser.add_argument("--profile-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    profilers: List[cProfile.Profile] = []
    lock = threading.Lock()

    def profile_this_thread(frame, event, arg) -> None:
        profiler = cProfile.Profile()
        with lock:
            profilers.append(profiler)
        profiler.enable()

    from repro.cli import serve

    threading.setprofile(profile_this_thread)
    try:
        code = serve.main(serve_args)
    finally:
        threading.setprofile(None)
    with lock:
        finished = list(profilers)
    if finished:
        merged = pstats.Stats(finished[0])
        for profiler in finished[1:]:
            merged.add(profiler)
        merged.dump_stats(args.profile_out)
    else:
        with open(args.profile_out, "wb") as handle:
            marshal.dump({}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
