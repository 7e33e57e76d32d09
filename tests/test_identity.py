"""Corrected bytes pinned by sha256 (``tests/data/identity.json``).

A change that moves a pinned result has to edit the file in the open;
``tests/identity_pins.py`` holds the cases and rewrites the file.
"""

from __future__ import annotations

import json

import pytest
from identity_pins import PATH, digest, jsonl_sha256, pomp_cases, service_cases, stamps_cases

from repro import correct_trace

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


@pytest.mark.parametrize("key", sorted(IDENTITY["service"]["digests"]))
def test_service_bytes(stamps, key):
    """The corrected .jsonl a server served for POP is what correcting the
    same run locally (``repro sync``'s path) writes."""
    source, keywords = stamps[key]
    assert service_cases()[key][1] == keywords, key
    got = jsonl_sha256(correct_trace(source, **keywords).trace)
    assert got == IDENTITY["service"]["digests"][key], key


def test_every_case_is_pinned(pomp, stamps):
    assert sorted(pomp) == sorted(IDENTITY["pomp_clc"]["digests"])
    assert sorted(stamps) == sorted(IDENTITY["stamps"]["digests"])
    assert sorted(service_cases()) == sorted(IDENTITY["service"]["digests"])
