"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from hoffman import euclidean


@pytest.fixture
def scan_segments(monkeypatch):
    """A list that gets (points, values) of every scan segment _profile evaluates."""
    segments = []
    profile = euclidean._profile

    def spy(mu, r, kept=None):
        values = profile(mu, r, kept)
        segments.append((r, values))
        return values

    monkeypatch.setattr(euclidean, "_profile", spy)
    return segments
