import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def processes(monkeypatch):
    """Force the process count of `run_study`, whatever the BLAS variables say."""
    from robustmc import experiments

    def force(n):
        monkeypatch.setattr(experiments, "_process_count", lambda n_tasks: min(n, n_tasks))
    return force
