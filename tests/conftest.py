import os
import sys
from pathlib import Path

# One BLAS thread for the suite and the subprocesses it starts (they inherit
# the environment), so that timings and the last digits of BLAS sums do not
# depend on the host's CPU count or on what else runs on it.  Set before the
# first import of numpy, which reads these once; a value set by the caller
# wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import HealthCheck, settings  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")
