"""Run one martinwalk CLI invocation, as ``martinwalk <args>`` would.

    python3 perfbench/launch.py [--trace SPANS_PATH RUN_ID] <martinwalk args>

Imports ``martinwalk.cli`` from ``src/`` of the current directory and calls
its ``main``, the console-script entry point.  The only addition on an
untraced run is one timestamp taken when ``parse_config`` returns.  After
``main`` has written the report, one line goes to stderr:

    perfbench-marks parsed=<t> done=<t>

with ``time.monotonic()`` readings, which share a clock with the parent
process on Linux.  With ``--trace`` the layer wrappers of ``tracer.py`` are
installed first and the spans are written after the ``done`` reading.
"""

import os
import sys
import time

MARK = "perfbench-marks"


def main() -> int:
    args = sys.argv[1:]
    tracing = args[:1] == ["--trace"]
    if tracing:
        spans_path, run_id, args = args[1], int(args[2]), args[3:]

    import martinwalk.cli as cli

    expected = os.path.join(os.getcwd(), "src", "martinwalk")
    if os.path.dirname(os.path.realpath(cli.__file__)) != os.path.realpath(expected):
        print(f"perfbench: martinwalk imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 4

    marks = {}
    parse_config = cli.parse_config

    def marked_parse_config(*a, **kw):
        config = parse_config(*a, **kw)
        marks["parsed"] = time.monotonic()
        return config

    cli.parse_config = marked_parse_config
    tracer = None
    if tracing:
        from tracer import Tracer

        tracer = Tracer.install(run_id, spans_path)
    status = cli.main(args)
    done = time.monotonic()
    if tracer is not None:
        tracer.dump(spans_path)
    print(f"{MARK} parsed={marks.get('parsed', float('nan'))!r} done={done!r}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
