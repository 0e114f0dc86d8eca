"""Shared fixtures for the service-layer tests."""

from __future__ import annotations

from pathlib import Path

import pytest

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"


@pytest.fixture(scope="session")
def ce_deck() -> str:
    """A well-behaved deck: the common-emitter example stage."""
    return (DECKS / "ce_stage.cir").read_text()


@pytest.fixture(scope="session")
def nonconvergent_deck() -> str:
    """A deck whose DC solve always fails with full forensics."""
    return (DECKS / "nonconvergent.cir").read_text()
