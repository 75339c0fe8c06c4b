"""The fresh-interpreter reference task for times that are mostly start-up.

A cold ``report`` and a worker's set-up are dominated by starting Python and
importing numpy and scipy.stats. This task does that third-party part alone,
without the program, so its time follows the host's speed but not the
program's own import cost. Timed before and after a sample, it turns that
sample into a speed-independent ratio.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

COMMAND = (sys.executable, "-c", "import numpy, scipy.stats")


def import_reference_s(cwd: Path) -> float:
    """Seconds taken by one fresh interpreter running ``COMMAND``."""
    start = time.perf_counter()
    subprocess.run(COMMAND, cwd=cwd, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start
