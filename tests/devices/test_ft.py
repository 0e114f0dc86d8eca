"""Tests for the fT analysis (the physics behind the paper's Fig. 9)."""

import math

import numpy as np
import pytest

from repro.devices import (
    GummelPoonParameters,
    bias_at_ic,
    ft_at_ic,
    ft_curve,
    ft_from_h21,
    peak_ft,
    thermal_voltage,
)
from repro.errors import AnalysisError
from repro.sweep import ResultCache

VT = thermal_voltage()


class TestFTSinglePoint:
    def test_tf_only_limit(self):
        """Without depletion caps, fT -> 1/(2*pi*TF) at high current."""
        p = GummelPoonParameters(IS=1e-16, BF=100, TF=10e-12)
        point = ft_at_ic(p, 1e-2)
        assert point.ft == pytest.approx(1 / (2 * math.pi * 10e-12), rel=1e-3)

    def test_depletion_limited_at_low_current(self):
        p = GummelPoonParameters(IS=1e-16, BF=100, TF=10e-12,
                                 CJE=50e-15, CJC=30e-15)
        ic = 1e-5
        point = ft_at_ic(p, ic)
        # tau_total = TF + vt*(CJE'+CJC')/Ic dominates at small Ic
        assert point.ft < 1 / (2 * math.pi * 10e-12) / 5
        gm = ic / VT
        assert point.gm == pytest.approx(gm, rel=0.02)

    def test_ft_components_positive(self, hf_model):
        point = ft_at_ic(hf_model, 1e-3)
        assert point.gm > 0
        assert point.cpi > 0
        assert point.cmu > 0
        assert point.ft > 0


class TestFTCurve:
    def test_curve_rises_then_falls(self, hf_model):
        ics = np.geomspace(1e-5, 3e-2, 40)
        curve = ft_curve(hf_model, ics)
        fts = [p.ft for p in curve]
        peak_idx = int(np.argmax(fts))
        assert 0 < peak_idx < len(fts) - 1, "peak must be interior"
        # rising before, falling after
        assert fts[0] < fts[peak_idx]
        assert fts[-1] < fts[peak_idx]

    def test_peak_finder_matches_curve(self, hf_model):
        pk = peak_ft(hf_model, 1e-5, 3e-2, points=61)
        ics = np.geomspace(1e-5, 3e-2, 61)
        fts = [p.ft for p in ft_curve(hf_model, ics)]
        assert pk.ft == pytest.approx(max(fts), rel=1e-9)

    def test_area_scaling_moves_peak_current(self, hf_model):
        """The paper's point: larger emitters peak at larger Ic."""
        small = peak_ft(hf_model, 1e-5, 5e-2, points=81)
        big_model = hf_model.scaled_by_area(4.0)
        big = peak_ft(big_model, 1e-5, 5e-2, points=81)
        assert big.ic > 2.0 * small.ic
        # while the peak fT itself is nearly unchanged
        assert big.ft == pytest.approx(small.ft, rel=0.1)


#: A zero current mid-chain and a negative one inside the second chain
#: (``chunk_size=4``): neither can be biased.
BAD_CURRENTS = [1e-4, 2e-4, 0.0, 4e-4, 8e-4, -1e-3, 1.6e-3]

#: ``(fT, Vbe)`` of the solvable currents of ``BAD_CURRENTS`` on
#: ``hf_model``, frozen as hex: index 3 continues from index 1 past the
#: failed index 2, and index 6 from the cold chain head 4 past index 5.
BAD_CURRENTS_FROZEN = {
    0: ("0x1.238a6b7b5727fp+32", "0x1.7c113fba95059p-1"),
    1: ("0x1.c24feacacd48bp+32", "0x1.8583216e1976dp-1"),
    3: ("0x1.357d6bc3f8673p+33", "0x1.8f244677e5de5p-1"),
    4: ("0x1.7768dfbf62f5fp+33", "0x1.991ec3fb39b60p-1"),
    6: ("0x1.8a685c6f786f2p+33", "0x1.a3b9208190b3ap-1"),
}


class TestFTChains:
    """``ft_curve`` solves ``chunk_size`` consecutive currents as one
    warm chain, and each chain is one sweep point."""

    @staticmethod
    def _continued(model, ic, previous):
        n_vt = model.NF * thermal_voltage(model.TNOM)
        vbe0 = previous.vbe + n_vt * math.log(ic / previous.ic)
        return ft_at_ic(model, ic, vbe0=vbe0)

    def test_chains_restart_at_chunk_boundaries(self, hf_model):
        ics = [float(ic) for ic in np.geomspace(1e-5, 1e-2, 8)]
        curve = ft_curve(hf_model, ics, chunk_size=3)
        for i, (ic, point) in enumerate(zip(ics, curve)):
            if i % 3 == 0:
                assert point == ft_at_ic(hf_model, ic), i
            else:
                assert point == self._continued(hf_model, ic, curve[i - 1]), i
        # The continuation is real: some warm solve differs from cold.
        assert any(curve[i] != ft_at_ic(hf_model, ics[i])
                   for i in range(len(ics)) if i % 3)

    def test_cache_serves_whole_chains(self, hf_model):
        ics = np.geomspace(1e-5, 1e-2, 10)
        cache = ResultCache()
        first = ft_curve(hf_model, ics, chunk_size=4, cache=cache)
        hits, misses = cache.hits, cache.misses
        second = ft_curve(hf_model, ics, chunk_size=4, cache=cache)
        assert second == first
        assert cache.hits - hits == 3  # chains of 4, 4 and 2 currents
        assert cache.misses == misses
        # Another chunking forms other chains: nothing to reuse.
        hits = cache.hits
        ft_curve(hf_model, ics, chunk_size=3, cache=cache)
        assert cache.hits == hits

    @pytest.mark.parametrize("policy", ("skip", "retry"))
    def test_unbiasable_currents_yield_none(self, hf_model, policy):
        curve = ft_curve(hf_model, BAD_CURRENTS, chunk_size=4,
                         on_error=policy)
        assert [i for i, p in enumerate(curve) if p is None] == [2, 5]
        for i, (ft, vbe) in BAD_CURRENTS_FROZEN.items():
            assert (curve[i].ft.hex(), curve[i].vbe.hex()) == (ft, vbe)
        assert curve[3] == self._continued(hf_model, 4e-4, curve[1])
        assert curve[6] == self._continued(hf_model, 1.6e-3, curve[4])

    def test_unbiasable_current_raises_by_default(self, hf_model):
        with pytest.raises(ValueError, match="must be positive, got 0.0"):
            ft_curve(hf_model, BAD_CURRENTS, chunk_size=4)

    def test_bad_chunk_size_rejected(self, hf_model):
        for chunk_size in (0, "4", 2.5, True):
            with pytest.raises(AnalysisError, match="chunk_size"):
                ft_curve(hf_model, [1e-3], chunk_size=chunk_size)


class TestH21CrossCheck:
    @pytest.mark.parametrize("ic", [3e-4, 1e-3, 3e-3])
    def test_h21_extrapolation_agrees_with_hybrid_pi(self, hf_model, ic):
        direct = ft_at_ic(hf_model, ic).ft
        extrapolated = ft_from_h21(hf_model, ic)
        assert extrapolated == pytest.approx(direct, rel=0.05)

    def test_bias_point_hits_current(self, hf_model):
        op = bias_at_ic(hf_model, 2e-3)
        assert op.ic == pytest.approx(2e-3, rel=1e-6)
