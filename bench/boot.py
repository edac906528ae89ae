"""Run one jointbell command in a fresh interpreter with tracing on.

Usage: python3 boot.py SPANS_OUT SPAWN_NS COMMAND [ARGS...]

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started
this interpreter.  The script times the import of ``jointbell.cli`` as the
``setup`` span (from SPAWN_NS), installs the wrappers of ``tracing``, runs
the command as the ``jointbell`` console script would, writes its spans to
SPANS_OUT as JSON and exits with the command's exit code.  ``src`` must be
on PYTHONPATH.
"""

import sys
import time

spawned = int(sys.argv[2])
import jointbell.cli  # noqa: E402

ready = time.monotonic_ns()

import json  # noqa: E402

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.spans.append(["setup", spawned, ready, None, None])
tracer.install()
code = 0
try:
    with tracer.span(f"cli.{sys.argv[3]}"):
        jointbell.cli.main.main(sys.argv[3:], prog_name="jointbell")
except SystemExit as exc:
    code = exc.code
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
