"""Keeps the smoke test off the figure harness's tracked result files.

``benchmarks/conftest.py`` truncates ``benchmarks/results/latest.txt`` at
session start for the ``bench_*.py`` figure benches.  The end-to-end
smoke test writes nothing there, so for tests in this directory the
fixture is replaced by one that leaves the file alone.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    yield
