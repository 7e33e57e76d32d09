"""Corrected bytes pinned by sha256 (``tests/data/identity.json``).

A change that moves a pinned result has to edit the file in the open.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import correct_trace
from repro.openmp.team import OmpTeamConfig, run_parallel_for_benchmark
from repro.tracing.trace import Trace

IDENTITY = json.loads((Path(__file__).parent / "data" / "identity.json").read_text())


def stamps_sha256(trace: Trace) -> str:
    digest = hashlib.sha256()
    for rank in trace.ranks:
        digest.update(np.ascontiguousarray(trace.logs[rank].timestamps, "<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("threads", [2, 4, 8])
@pytest.mark.parametrize("imbalance", [0.05, 0.3])
def test_pomp_clc(threads, imbalance):
    trace = run_parallel_for_benchmark(
        OmpTeamConfig(threads=threads, regions=30, imbalance=imbalance), seed=1
    )
    for lmin in (0.0, 1e-6):
        result = correct_trace(trace, interpolation="none", clc=True, lmin=lmin, scan=False)
        key = f"threads={threads} imbalance={imbalance} lmin={lmin:g}"
        assert stamps_sha256(result.trace) == IDENTITY["pomp_clc"]["digests"][key], key
