"""Thin launcher for one benchmarked ``twinsieve`` CLI process.

    python3 bench/launch.py MARK_FILE TRACE_FILE|- CLI_ARGS...

Imports ``twinsieve.cli`` from the checkout's ``src``, writes the
CLOCK_MONOTONIC time at which ``main`` is about to run (and the in-process
import time) to MARK_FILE, then runs ``main``.  With a TRACE_FILE the
traced functions are wrapped first and the spans are written there when
``main`` returns.
"""

import sys
import time
from pathlib import Path

t_import = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import twinsieve.cli  # noqa: E402

import_ms = (time.perf_counter() - t_import) * 1e3


def main() -> int:
    mark, trace, *argv = sys.argv[1:]
    recorder = None
    if trace != "-":
        from spans import Recorder  # bench/ is sys.path[0]

        recorder = Recorder()
        recorder.install()
    with open(mark, "w") as fh:
        fh.write(f"{time.monotonic()!r} {import_ms!r}\n")
    try:
        return twinsieve.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.dump(trace)


if __name__ == "__main__":
    sys.exit(main())
