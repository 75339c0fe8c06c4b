import sys
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

# A fixed, reproducible budget: the same examples on every run, none stored
# on disk, and no per-example time limit on a slow host. What Hypothesis
# still caches (constants read from the test code, Unicode tables) goes to
# the system's temporary directory, not the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "retailrisk-hypothesis")
settings.register_profile(
    "retailrisk", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.load_profile("retailrisk")
