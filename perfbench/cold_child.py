"""Traced form of a cold ``python -m retailrisk.cli ARGS``.

    python perfbench/cold_child.py report --ratios full

Imports the CLI in a fresh interpreter, installs the spans, runs the command
with the process's own stdout, and writes its spans as one tagged JSON line
to stderr before exiting with the command's status.
"""

import json
import sys

import retailrisk.cli

from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    status = retailrisk.cli.run_command(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write("PERFBENCH_SPANS " + json.dumps({"spans": tracer.take(),
                                                      "absent": tracer.absent}) + "\n")
    sys.exit(status)
