"""Shared fixtures."""

import pytest


@pytest.fixture
def reference_engine(monkeypatch):
    """Networks built in this test step on the reference path.

    ``REPRO_ARRAYNET_NATIVE=0`` is the gate a compiler-less host is
    behind: ``ArrayNetwork`` then runs the timing-wheel ``Network`` code
    it inherits, which is what the native kernel is held bit-identical
    to.  The gate is read each time a network is built, so a test can
    ``monkeypatch.delenv`` it again to get the host's default path.
    """
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    return monkeypatch
