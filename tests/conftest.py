"""Test-session setup: BLAS runs on one thread.

With a multi-threaded BLAS, the dense tests slow down many times over when
another process competes for the cores, and maximum-likelihood decisions
depend on the BLAS thread count (README, Known defects).  The benchmark also
runs on one thread.  The variables only take effect if they are set before
numpy is first imported, so a session that has already imported numpy stops.
An explicit setting in the environment is kept.
"""

from __future__ import annotations

import os
import sys

import pytest

if "numpy" in sys.modules:
    raise pytest.UsageError("numpy was imported before tests/conftest.py could pin BLAS to"
                            " one thread; run pytest in a fresh process")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
