"""Batched frequency-domain solves vs the per-frequency reference path.

The batched AC/noise sweeps assemble G and C once and solve each block
of frequencies as one stacked ``(block, n, n)`` system.  These tests pin
the batched results against (a) the ``batched=False`` per-frequency
loop on the same engine, and (b) the outputs of the per-element
re-stamping engine, removed after commit 304fafa, which always took the
per-frequency loop; its outputs at that commit are frozen in
``legacy_reference.json`` — on every example deck that carries the
relevant analysis card.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.spice.ac import (
    MAX_BLOCK_BYTES,
    ac_lane_blocks,
    frequency_grid,
    solve_ac,
)
from repro.spice.engine import DenseLUSolver, SparseLUSolver
from repro.spice.noise import solve_noise
from repro.spice.parser import parse_deck

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"
LEGACY = json.loads(
    (Path(__file__).with_name("legacy_reference.json")).read_text()
)


def _deck(name):
    return parse_deck((DECKS / name).read_text())


def _card(deck, kind):
    for card in deck.analyses:
        if card.kind == kind:
            return card
    raise AssertionError(f"deck has no .{kind.upper()} card")


def _grid(card):
    return frequency_grid(card.args["start"], card.args["stop"],
                          card.args["points"], card.args["sweep"])


def _freq_block(size, limit=None):
    """Frequencies per block for one lane of ``size``-unknown dense
    systems (16 bytes per complex entry), out of a long sweep."""
    lane_block, freq_block = ac_lane_blocks(1, 10_000, 16 * size * size,
                                            limit)
    assert lane_block == 1
    return freq_block


class TestBlockSizing:
    def test_small_systems_cap_at_512(self):
        assert _freq_block(2) == 512
        assert _freq_block(10) == 512

    def test_budget_shrinks_with_system_size(self):
        # Sizes taken from the budget: about 64 systems of n unknowns
        # fit it, so both blocks sit below the 512 cap.
        n = math.isqrt(MAX_BLOCK_BYTES // (16 * 64))
        big = _freq_block(n)
        assert 1 <= big < 512
        assert _freq_block(2 * n) < big

    def test_never_below_one(self):
        assert _freq_block(10 ** 6) == 1

    def test_explicit_limit(self):
        # 16 bytes/entry * n^2 = 6400 bytes/system at n=20.
        assert _freq_block(20, limit=64_000) == 10


def _solve_stack(solver, systems, rhs, as_pattern):
    """The backend's batched entry point: dense stacks, or the stack's
    nonzeros over one pattern for the sparse LU."""
    if isinstance(solver, SparseLUSolver):
        return solver.solve_pattern_batched(*as_pattern(systems), rhs)
    return solver.solve_batched(systems, rhs)


class TestBatchedSolver:
    def _stack(self, count, n, seed):
        rng = np.random.default_rng(seed)
        systems = (rng.standard_normal((count, n, n))
                   + 1j * rng.standard_normal((count, n, n))
                   + 4.0 * np.eye(n))
        return systems, rng

    @pytest.mark.parametrize("solver_cls", [DenseLUSolver, SparseLUSolver])
    def test_single_rhs_matches_per_system_solves(self, solver_cls,
                                                  as_pattern):
        systems, rng = self._stack(5, 6, seed=0)
        rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        batched = _solve_stack(solver_cls(), systems, rhs, as_pattern)
        assert batched.shape == (5, 6)
        for k in range(5):
            np.testing.assert_allclose(
                batched[k], np.linalg.solve(systems[k], rhs),
                rtol=1e-10, atol=1e-12,
            )

    def test_batched_solves_are_counted(self):
        systems, rng = self._stack(3, 4, seed=2)
        rhs = rng.standard_normal(4).astype(complex)
        solver = DenseLUSolver()
        solver.solve_batched(systems, rhs)
        assert solver.stats.factorizations == 3
        assert solver.stats.solves == 3


class TestBatchedACRegression:
    @pytest.mark.parametrize("deck_name", ["ce_stage.cir",
                                           "noise_bench.cir"])
    def test_batched_equals_unbatched(self, deck_name):
        deck = _deck(deck_name)
        card = _card(deck, "ac" if deck_name == "ce_stage.cir"
                     else "noise")
        freqs = _grid(card)
        batched = solve_ac(deck.circuit, freqs, batched=True)
        loop = solve_ac(deck.circuit, freqs, batched=False)
        np.testing.assert_array_equal(batched.frequencies,
                                      loop.frequencies)
        np.testing.assert_allclose(batched.solutions, loop.solutions,
                                   rtol=1e-12, atol=1e-15)

    def test_batched_equals_legacy_engine(self):
        deck = _deck("ce_stage.cir")
        freqs = _grid(_card(deck, "ac"))
        batched = solve_ac(deck.circuit, freqs)
        real, imag = LEGACY["ac_ce_stage_solutions"]
        np.testing.assert_allclose(batched.solutions,
                                   np.asarray(real) + 1j * np.asarray(imag),
                                   rtol=1e-9, atol=1e-12)

    def test_block_boundaries_are_seamless(self):
        # Force tiny blocks by monkeypatching would hide the real path;
        # instead sweep more frequencies than one block at a realistic
        # size and check against the loop.
        deck = _deck("ce_stage.cir")
        freqs = frequency_grid(1e3, 1e9, 200, "dec")
        batched = solve_ac(deck.circuit, freqs, batched=True)
        loop = solve_ac(deck.circuit, freqs, batched=False)
        np.testing.assert_allclose(batched.solutions, loop.solutions,
                                   rtol=1e-12, atol=1e-15)

    def test_single_frequency_uses_plain_solve(self):
        deck = _deck("ce_stage.cir")
        result = solve_ac(deck.circuit, [1e6], batched=True)
        assert result.solutions.shape[0] == 1


class TestBatchedNoiseRegression:
    def test_batched_equals_unbatched_on_noise_bench(self):
        deck = _deck("noise_bench.cir")
        card = _card(deck, "noise")
        freqs = _grid(card)
        kwargs = dict(input_source=card.args["source"])
        batched = solve_noise(deck.circuit, card.args["output"], freqs,
                              batched=True, **kwargs)
        loop = solve_noise(deck.circuit, card.args["output"], freqs,
                           batched=False, **kwargs)
        np.testing.assert_allclose(batched.output_density,
                                   loop.output_density,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(batched.gain_squared,
                                   loop.gain_squared,
                                   rtol=1e-12, atol=0.0)
        assert set(batched.contributions) == set(loop.contributions)
        for name, values in batched.contributions.items():
            np.testing.assert_allclose(values, loop.contributions[name],
                                       rtol=1e-9, atol=1e-30)

    def test_batched_equals_legacy_engine(self):
        deck = _deck("noise_bench.cir")
        card = _card(deck, "noise")
        freqs = _grid(card)
        batched = solve_noise(deck.circuit, card.args["output"], freqs,
                              input_source=card.args["source"])
        legacy = LEGACY["noise_bench_batched"]
        np.testing.assert_allclose(batched.output_density,
                                   legacy["output_density"], rtol=1e-8)
        np.testing.assert_allclose(batched.gain_squared,
                                   legacy["gain_squared"], rtol=1e-8)

    def test_batched_without_input_source(self):
        deck = _deck("noise_bench.cir")
        card = _card(deck, "noise")
        freqs = _grid(card)
        batched = solve_noise(deck.circuit, card.args["output"], freqs,
                              batched=True)
        loop = solve_noise(deck.circuit, card.args["output"], freqs,
                           batched=False)
        assert batched.gain_squared is None
        np.testing.assert_allclose(batched.output_density,
                                   loop.output_density, rtol=1e-12)
