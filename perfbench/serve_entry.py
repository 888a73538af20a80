"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_entry.py TRACE_DIR serve --port 0 ...``.  The
wrappers go in before the CLI's main runs, so the daemon's classifier
calls are traced; each dispatched request's span carries its request
id.  Spans are written when the daemon exits (``shutdown`` verb).

With ``TRACE_DIR`` ``-`` nothing is wrapped and the daemon instead runs
under cProfile; its top self-time functions are written to
``PROFILE_OUT`` (the next argument) as JSON at exit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def traced(trace_dir: str, argv: list[str]) -> int:
    import tracing

    tracer = tracing.install(trace_dir)
    from repro.cli import main as repro_main
    from repro.serve.service import FilterService

    dispatch = tracer.wrap("serve", "dispatch", FilterService._dispatch)

    def traced_dispatch(self, request):
        tracer.rid = request.get("id") if isinstance(request, dict) else None
        try:
            return dispatch(self, request)
        finally:
            tracer.rid = None

    FilterService._dispatch = traced_dispatch
    try:
        return repro_main(argv)
    finally:
        tracer.flush()


def profiled(out: str, argv: list[str]) -> int:
    import cProfile
    import pstats

    from repro.cli import main as repro_main

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return repro_main(argv)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler).stats
        rows = sorted(
            ((value[2], f"{Path(key[0]).name}:{key[1]}:{key[2]}") for key, value in stats.items()),
            reverse=True,
        )
        Path(out).write_text(
            json.dumps([[name, round(seconds, 4)] for seconds, name in rows[:12]]),
            encoding="utf-8",
        )


if __name__ == "__main__":
    if sys.argv[1] == "-":
        sys.exit(profiled(sys.argv[2], sys.argv[3:]))
    sys.exit(traced(sys.argv[1], sys.argv[2:]))
