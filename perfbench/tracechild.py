"""Traced stand-in for ``python -m realdeligne.cli``.

Runs ``realdeligne.cli.main`` on the given arguments with the tracer
installed, writes the tracer's snapshot as JSON to the file named by
``PERFBENCH_TRACE_OUT``, and exits as the CLI would, tracebacks included.
"""

import json
import os
import sys

import tracer

import realdeligne.cli

if __name__ == "__main__":
    tr = tracer.Tracer().install()
    try:
        code = realdeligne.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tr.snapshot(), fh)
    sys.exit(code)
