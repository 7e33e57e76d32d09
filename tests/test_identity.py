"""Corrected bytes pinned by sha256 (``tests/data/identity.json``).

A change that moves a pinned result has to edit the file in the open;
``tests/identity_pins.py`` holds the cases and rewrites the file.
"""

from __future__ import annotations

import json

import pytest
from identity_pins import PATH, digest, pomp_cases, stamps_cases

IDENTITY = json.loads(PATH.read_text())


@pytest.fixture(scope="module")
def pomp():
    return pomp_cases()


@pytest.fixture(scope="module")
def stamps():
    return stamps_cases()


@pytest.mark.parametrize("threads", [2, 4, 8])
@pytest.mark.parametrize("imbalance", [0.05, 0.3])
def test_pomp_clc(pomp, threads, imbalance):
    for lmin in (0.0, 1e-6):
        key = f"threads={threads} imbalance={imbalance} lmin={lmin:g}"
        assert digest(*pomp[key]) == IDENTITY["pomp_clc"]["digests"][key], key


@pytest.mark.parametrize("key", sorted(IDENTITY["stamps"]["digests"]))
def test_stamps(stamps, key):
    """POP under align/linear, a periodic-sync run under piecewise, and a
    jump-sparse synthetic trace under linear, with and without the CLC."""
    assert digest(*stamps[key]) == IDENTITY["stamps"]["digests"][key], key


def test_every_case_is_pinned(pomp, stamps):
    assert sorted(pomp) == sorted(IDENTITY["pomp_clc"]["digests"])
    assert sorted(stamps) == sorted(IDENTITY["stamps"]["digests"])
