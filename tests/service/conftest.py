"""Shared fixtures for the service-layer tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sweep.costmodel import DEFAULT_COST_MODEL

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"


@pytest.fixture(autouse=True)
def _restore_shared_cost_models():
    """Keep this package's sweeps from shifting the shared dispatch
    cost model, which calibrates from observed timings, so later test
    modules see its seeded coefficients."""
    snapshot = (DEFAULT_COST_MODEL.spinup_seconds,
                DEFAULT_COST_MODEL.chunk_seconds)
    yield
    (DEFAULT_COST_MODEL.spinup_seconds,
     DEFAULT_COST_MODEL.chunk_seconds) = snapshot


@pytest.fixture(scope="session")
def ce_deck() -> str:
    """A well-behaved deck: the common-emitter example stage."""
    return (DECKS / "ce_stage.cir").read_text()


@pytest.fixture(scope="session")
def nonconvergent_deck() -> str:
    """A deck whose DC solve always fails with full forensics."""
    return (DECKS / "nonconvergent.cir").read_text()
