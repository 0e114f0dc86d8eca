"""Shared fixtures: models, references, generators used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import GummelPoonParameters
from repro.geometry import (
    MaskDesignRules,
    ModelParameterGenerator,
    ProcessData,
    default_reference,
)


@pytest.fixture(scope="session")
def hf_model() -> GummelPoonParameters:
    """A representative high-frequency npn with every effect enabled."""
    return GummelPoonParameters(
        name="QHF",
        IS=4e-17, BF=100.0, NF=1.0, VAF=40.0, IKF=8e-3,
        ISE=5e-15, NE=2.0, BR=2.0, NR=1.0, VAR=4.0, IKR=1e-2,
        ISC=1e-14, NC=2.0,
        RB=120.0, RE=3.0, RC=60.0,
        CJE=45e-15, VJE=0.9, MJE=0.35,
        CJC=30e-15, VJC=0.7, MJC=0.33, XCJC=0.8,
        CJS=70e-15, VJS=0.6, MJS=0.4,
        TF=9e-12, XTF=2.0, VTF=2.0, ITF=8e-3, TR=1e-9,
    )


@pytest.fixture(scope="session")
def simple_npn() -> GummelPoonParameters:
    """A minimal npn (no parasitics) for closed-form comparisons."""
    return GummelPoonParameters(name="QSIMPLE", IS=1e-16, BF=100.0)


@pytest.fixture(scope="session")
def process() -> ProcessData:
    return ProcessData()


@pytest.fixture(scope="session")
def rules() -> MaskDesignRules:
    return MaskDesignRules()


@pytest.fixture(scope="session")
def reference(process, rules):
    return default_reference(process, rules)


@pytest.fixture(scope="session")
def generator(process, rules, reference) -> ModelParameterGenerator:
    return ModelParameterGenerator(process, rules, reference)


@pytest.fixture(scope="session")
def uncalibrated_generator(process, rules) -> ModelParameterGenerator:
    return ModelParameterGenerator(process, rules)


@pytest.fixture(scope="session")
def as_pattern():
    """Factory ``systems -> (pattern, values)``: the nonzeros of a dense
    ``(n, n)`` matrix, or of a ``(batch, n, n)`` stack over their union,
    as a :class:`~repro.spice.sparse.SparsityPattern` plus ``(nnz,)`` or
    ``(batch, nnz)`` values — the only input the sparse LU backend takes
    (``pattern.matrix(values)`` for a single system)."""
    from repro.spice.sparse import SparsityPattern

    def build(systems):
        systems = np.asarray(systems)
        leading = tuple(range(systems.ndim - 2))
        rows, cols = np.nonzero(np.any(systems != 0, axis=leading))
        pattern = SparsityPattern(systems.shape[-1], rows, cols)
        values = np.zeros(systems.shape[:-2] + (pattern.nnz,),
                          dtype=systems.dtype)
        values[..., pattern.positions(rows, cols)] = systems[..., rows, cols]
        return pattern, values

    return build


@pytest.fixture()
def compile_log(monkeypatch):
    """Every engine compiled while the test runs, in order, as
    ``(assembly, permc_spec)`` pairs (``permc_spec`` is None on dense
    engines and on sparse ones left at the default A+Aᵀ order)."""
    from repro.spice.engine import CompiledCircuit

    log = []
    original = CompiledCircuit.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        log.append((self.assembly, getattr(self.solver, "permc_spec", None)))

    monkeypatch.setattr(CompiledCircuit, "__init__", init)
    return log
