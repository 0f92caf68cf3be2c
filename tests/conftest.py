"""Fixtures shared across the test modules."""

import pytest

import curesched.hop
from curesched.exact import SolveReport


@pytest.fixture
def oracle_declines(monkeypatch):
    """An oracle that settles nothing in its slice: every adapter ladder
    rung from the root bound then goes to a solver child, so a test can
    reach the adapter on an instance the slice would otherwise settle."""
    def no_proof(inst, thb, parts_mode, floor, time_limit_seconds):
        return SolveReport("exact", "limit", None, None, time_limit_seconds)

    monkeypatch.setattr(curesched.hop, "solve_exact", no_proof)
