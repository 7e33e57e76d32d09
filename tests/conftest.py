"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.rng import RngFabric

# ---------------------------------------------------------------------------
# Hypothesis profiles, selected with HYPOTHESIS_PROFILE=ci|dev|thorough
# (default: dev).  Property tests declare their example budget relative
# to the ``dev`` baseline via :func:`examples`; the active profile
# scales every budget uniformly, so CI runs lean and soak runs deep
# without touching individual tests.

_BASELINE = 50

settings.register_profile("ci", max_examples=25, deadline=None, derandomize=True)
# No example database: ``dev`` draws fresh examples every run, and a
# ``.hypothesis/`` directory left by an earlier tree (or an earlier
# failure) cannot replay itself into an unrelated failure here.
settings.register_profile("dev", max_examples=_BASELINE, deadline=None, database=None)
settings.register_profile("thorough", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def examples(n: int = _BASELINE) -> settings:
    """``@settings`` with ``n`` dev-baseline examples, profile-scaled.

    Deadline and other knobs come from the active profile; only the
    example count is overridden (never below 5 so shrinking still has
    material to work with).
    """
    scale = settings().max_examples / _BASELINE
    return settings(max_examples=max(5, round(n * scale)))


@pytest.fixture
def fabric() -> RngFabric:
    """A deterministic randomness fabric with a fixed seed."""
    return RngFabric(seed=12345)


@pytest.fixture
def rng(fabric: RngFabric) -> np.random.Generator:
    """A deterministic generator for tests that need raw randomness."""
    return fabric.generator("test")
