"""Sparse-native assembly: pattern mechanics, backend choice, golden
parity.

The dense engine is the reference: every analysis run through the sparse
assembly backend must agree with the dense backend within Newton/solver
tolerances, with zero dense ``(n, n)`` work in the sparse hot loop
(asserted through the EngineStats counters).  The backend itself is a
pure function of the circuit, never of what ran before it.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.geometry import ModelParameterGenerator, default_reference
from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
from repro.spice import parse_deck, run_deck, solvercost
from repro.spice.ac import ACResult, solve_ac
from repro.spice.analysis import OperatingPointResult, TransferFunction
from repro.spice.engine import (
    DenseLUSolver,
    SparseLUSolver,
    compile_circuit,
    get_engine,
    make_solver,
)
from repro.spice.noise import NoiseResult
from repro.spice.sparse import PatternMatrix, SparsityPattern
from repro.spice.transient import TransientResult, solve_transient

DECK_DIR = Path(__file__).resolve().parents[2] / "examples" / "decks"


# ---------------------------------------------------------------------------
# SparsityPattern / PatternMatrix mechanics
# ---------------------------------------------------------------------------


class TestSparsityPattern:
    def _pattern(self):
        # 3x3 with slots (0,0) (1,1) (2,2) (0,1) (2,1), one duplicate and
        # one dummy lane (row == size).
        rows = [0, 1, 2, 0, 2, 0, 3]
        cols = [0, 1, 2, 1, 1, 1, 1]
        return SparsityPattern(3, rows, cols)

    def test_dedup_and_csc_structure(self):
        pattern = self._pattern()
        assert pattern.nnz == 5
        dense = pattern.matrix().toarray()
        assert dense.shape == (3, 3)
        assert np.count_nonzero(dense) == 0  # fresh zeros

    def test_positions_roundtrip(self):
        pattern = self._pattern()
        m = pattern.matrix()
        m.data[pattern.positions([0, 2], [1, 2])] = [7.0, 3.0]
        dense = m.toarray()
        assert dense[0, 1] == 7.0 and dense[2, 2] == 3.0
        assert dense.sum() == 10.0

    def test_dummy_slot_goes_to_scratch(self):
        pattern = self._pattern()
        pos = pattern.positions(np.array([3]), np.array([1]))
        assert pos[0] == pattern.nnz  # trailing scratch slot
        m = pattern.matrix()
        m.data[pos] = 99.0  # swallowed, never visible in the matrix
        assert np.count_nonzero(m.toarray()) == 0

    def test_missing_slot_raises(self):
        pattern = self._pattern()
        with pytest.raises(AnalysisError, match="outside"):
            pattern.positions(np.array([2]), np.array([0]))

    def test_accumulating_scatter_matches_dense(self):
        rng = np.random.default_rng(7)
        size = 6
        rows = rng.integers(0, size, 40)
        cols = rng.integers(0, size, 40)
        vals = rng.normal(size=40)
        pattern = SparsityPattern(size, rows, cols)
        data = np.zeros(pattern.nnz + 1)
        np.add.at(data, pattern.positions(rows, cols), vals)
        dense = np.zeros((size, size))
        np.add.at(dense, (rows, cols), vals)
        np.testing.assert_allclose(
            pattern.matrix(data).toarray(), dense, rtol=0, atol=0
        )


class TestPatternMatrix:
    def _gm(self):
        pattern = SparsityPattern(2, [0, 1, 0], [0, 1, 1])
        g = pattern.matrix(np.array([1.0, 2.0, 3.0, 0.0]))
        c = pattern.matrix(np.array([0.5, 0.25, 0.0, 0.0]))
        return pattern, g, c

    def test_scalar_mul_and_iadd(self):
        _, g, c = self._gm()
        fused = g.copy()
        fused += 2.0 * c
        np.testing.assert_allclose(
            fused.toarray(), g.toarray() + 2.0 * c.toarray()
        )

    def test_complex_add_upcasts(self):
        _, g, c = self._gm()
        system = g + 1j * 2.0 * c
        assert system.dtype == complex
        np.testing.assert_allclose(
            system.toarray(), g.toarray() + 2.0j * c.toarray()
        )

    def test_cross_pattern_combination_rejected(self):
        _, g, _ = self._gm()
        other = SparsityPattern(2, [0, 1], [0, 1]).matrix()
        with pytest.raises(AnalysisError, match="different"):
            g.__iadd__(other)

    def test_matvec_and_transpose(self):
        pattern, g, _ = self._gm()
        x = np.array([2.0, -1.0])
        np.testing.assert_allclose(g.dot(x), g.toarray() @ x)
        # Transposed systems stay sparse: the solver back-substitutes
        # with the transpose of the factor of ``g``.
        adjoint = SparseLUSolver().solve_pattern_batched(
            pattern, g.values[None], x, transpose=True)[0]
        np.testing.assert_allclose(adjoint, np.linalg.solve(g.toarray().T, x))

    def test_length_mismatch_rejected(self):
        pattern = SparsityPattern(2, [0, 1], [0, 1])
        with pytest.raises(AnalysisError, match="does not match"):
            PatternMatrix(pattern, np.zeros(5))


# ---------------------------------------------------------------------------
# the backend choice
# ---------------------------------------------------------------------------


class TestSolverCostModel:
    def test_small_systems_stay_dense(self):
        assert solvercost.choose(50, nnz=200) == "dense"
        assert solvercost.choose(solvercost.MIN_SIZE - 1, nnz=10) == "dense"

    def test_large_sparse_systems_go_sparse(self):
        assert solvercost.choose(2000, nnz=8000) == "sparse"

    def test_dense_pattern_stays_dense(self):
        # A dense-ish pattern (nnz ~ n^2) never wins with sparse LU.
        n = 600
        assert solvercost.choose(n, nnz=n * n) == "dense"

    def test_crossover_reports_a_size(self):
        assert solvercost.crossover() >= solvercost.MIN_SIZE


def _ring(stages):
    generator = ModelParameterGenerator(reference=default_reference())
    return build_ring_oscillator(
        generator.generate("N1.2-12D"),
        follower_model=generator.generate("N1.2-6D"),
        spec=RingOscillatorSpec(stages=stages),
    )


class TestBackendChoice:
    def test_choice_ignores_solver_history(self):
        # 13 stages (223 unknowns, nnz 1005) lies where a choice
        # calibrated from factorization timings could flip: it went
        # sparse after the dense and sparse transients below.
        first = compile_circuit(_ring(13))
        assert first.assembly == solvercost.choose(first.size,
                                                   first.pattern.nnz)
        for stages in (25, 51):
            for mode in ("dense", "sparse"):
                solve_transient(_ring(stages), stop_time=0.05e-9,
                                engine=mode)
        assert compile_circuit(_ring(13)).assembly == first.assembly

    def test_solver_follows_pinned_assembly(self):
        # 869 unknowns: a pinned dense engine factorizes with dense LU.
        engine = get_engine(_ring(51), "dense")
        assert isinstance(engine.solver, DenseLUSolver)
        assert isinstance(get_engine(_ring(5), "sparse").solver,
                          SparseLUSolver)


class TestMakeSolver:
    def test_explicit_prefer_wins(self):
        # The compile's solvercost.choose is the one dense/sparse
        # decision; make_solver builds what it chose and nothing else.
        assert isinstance(make_solver("sparse"), SparseLUSolver)
        assert isinstance(make_solver("dense"), DenseLUSolver)
        for prefer in ("auto", "superlu"):
            with pytest.raises(AnalysisError, match="unknown solver"):
                make_solver(prefer)


class TestPermcSpecAndFill:
    """Column-ordering selection and fill-in observation (satellite of
    the blocked-AC work: ordering shifts both the factorization cost
    and the dense/sparse crossover)."""

    LADDER = "ladder\n" + "V1 n0 0 DC 1\n" + "\n".join(
        f"R{k} n{k - 1} n{k} 1k" for k in range(1, 25)
    ) + "\nRL n24 0 1k\n.OPTIONS SOLVER=sparse\n.OP\n.END\n"

    def test_solver_validates_and_normalizes_spec(self):
        assert SparseLUSolver().permc_spec is None
        assert SparseLUSolver(permc_spec="natural").permc_spec == "NATURAL"
        with pytest.raises(AnalysisError, match="permc_spec"):
            SparseLUSolver(permc_spec="BOGUS")

    def test_make_solver_threads_the_spec(self):
        solver = make_solver("sparse", permc_spec="colamd")
        assert solver.permc_spec == "COLAMD"

    def test_options_card_reaches_the_engine(self):
        deck = parse_deck(self.LADDER.replace(
            "SOLVER=sparse", "SOLVER=sparse PERMC=NATURAL"))
        circuit = deck.circuit
        assert circuit._permc_spec == "NATURAL"
        circuit.assign_indices()
        engine = get_engine(circuit, mode="sparse")
        assert engine.solver.permc_spec == "NATURAL"

    def test_bad_permc_option_is_a_parse_error(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError, match="PERMC must be"):
            parse_deck("t\n.OPTIONS PERMC=WRONG\nV1 a 0 DC 1\n"
                       "R1 a 0 1k\n.END\n")

    def test_orderings_agree_and_fill_is_gauged(self):
        results = {}
        for spec in (None, "NATURAL", "MMD_AT_PLUS_A"):
            text = self.LADDER if spec is None else self.LADDER.replace(
                "SOLVER=sparse", f"SOLVER=sparse PERMC={spec}")
            deck = parse_deck(text)
            circuit = deck.circuit
            circuit.assign_indices()
            engine = get_engine(circuit, mode="sparse")
            from repro.spice.dcop import solve_dc

            results[spec] = solve_dc(circuit, engine=engine)
            assert engine.stats.fill_ratio >= 1.0
        np.testing.assert_allclose(results["NATURAL"], results[None],
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(results["MMD_AT_PLUS_A"], results[None],
                                   rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# factorization-cache regression: anonymous solves must not clobber a
# token-cached factorization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("solver_cls", [DenseLUSolver, SparseLUSolver])
def test_anonymous_solve_keeps_token_cache(solver_cls, as_pattern):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 8 * np.eye(8)
    other = rng.normal(size=(8, 8)) + 8 * np.eye(8)
    b = rng.normal(size=8)
    singular = a.copy()
    singular[3] = 0.0
    if solver_cls is SparseLUSolver:
        a, other, singular = (
            pattern.matrix(values) for pattern, values in
            (as_pattern(a), as_pattern(other), as_pattern(singular)))

    solver = solver_cls()
    x_cached = solver.solve(a, b, token=("jac", 1))
    assert solver.has_factorization(("jac", 1))

    solver.solve(other, b)  # token=None: one-off, must not invalidate
    assert solver.has_factorization(("jac", 1))
    np.testing.assert_allclose(solver.solve_cached(b), x_cached)

    # Neither may a one-off system that turns out singular.
    with pytest.raises(np.linalg.LinAlgError):
        solver.solve(singular, b)
    assert solver.has_factorization(("jac", 1))
    np.testing.assert_allclose(solver.solve_cached(b), x_cached)


def test_anonymous_batched_solve_keeps_token_cache(as_pattern):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8)) + 8 * np.eye(8)
    systems = rng.normal(size=(3, 8, 8)) + 8 * np.eye(8)
    b = rng.normal(size=8)

    dense = DenseLUSolver()
    dense.solve(a, b, token="dc")
    dense.solve_batched(systems, b)
    assert dense.has_factorization("dc")

    sparse = SparseLUSolver()
    pattern, values = as_pattern(a)
    sparse.solve(pattern.matrix(values), b, token="dc")
    sparse.solve_pattern_batched(*as_pattern(systems), b)
    assert sparse.has_factorization("dc")

    # A stack with one singular lane: that lane is NaN, the others are
    # solved, and the token-cached factorization survives.
    stack = systems.copy()
    stack[1, 3] = 0.0
    rhs = np.broadcast_to(b, (3, 8))
    pattern, values = as_pattern(stack)
    for solver, lanes in ((dense, stack),
                          (sparse, [pattern.matrix(v) for v in values])):
        out = solver.solve_batched_exact(lanes, rhs)
        assert np.isnan(out[1]).all()
        for k in (0, 2):
            np.testing.assert_allclose(out[k], np.linalg.solve(stack[k], b))
        assert solver.has_factorization("dc")


# ---------------------------------------------------------------------------
# golden equivalence: dense is the reference, sparse must agree
# ---------------------------------------------------------------------------


def _run_backend(deck_text: str, backend: str, tran_stop=None):
    deck = parse_deck(deck_text)
    if tran_stop is not None:
        for card in deck.analyses:
            if card.kind == "tran":
                card.args["stop"] = tran_stop
    return run_deck(deck, engine=backend)


def _assert_runs_agree(dense_run, sparse_run):
    for ref, got in zip(dense_run.results, sparse_run.results):
        assert type(ref) is type(got)
        if isinstance(ref, OperatingPointResult):
            for node, value in ref.node_voltages().items():
                assert got.node_voltages()[node] == pytest.approx(
                    value, rel=1e-9, abs=1e-9
                )
        elif isinstance(ref, ACResult):
            np.testing.assert_allclose(
                got.solutions, ref.solutions, rtol=1e-8, atol=1e-12
            )
        elif isinstance(ref, TransferFunction):
            assert got.gain == pytest.approx(ref.gain, rel=1e-9)
            assert got.input_resistance == pytest.approx(
                ref.input_resistance, rel=1e-9
            )
        elif isinstance(ref, NoiseResult):
            np.testing.assert_allclose(
                got.output_density, ref.output_density, rtol=1e-6
            )
        elif isinstance(ref, TransientResult):
            # Adaptive stepping may take marginally different paths once
            # float noise differs; compare the common prefix of accepted
            # times and the final voltages loosely.
            n = min(len(ref.times), len(got.times))
            assert n > 10
            np.testing.assert_allclose(
                got.times[: n // 2], ref.times[: n // 2], rtol=1e-4
            )
            np.testing.assert_allclose(
                got.states[: n // 2], ref.states[: n // 2],
                rtol=1e-3, atol=1e-4,
            )


DECK_CASES = [
    ("ce_stage.cir", None),
    ("noise_bench.cir", None),
    ("ring_oscillator.cir", 0.5e-9),  # trimmed .TRAN for test runtime
]


@pytest.mark.parametrize("name,tran_stop", DECK_CASES,
                         ids=[c[0] for c in DECK_CASES])
def test_dense_sparse_golden_equivalence(name, tran_stop):
    text = (DECK_DIR / name).read_text()
    dense_run = _run_backend(text, "dense", tran_stop)
    sparse_run = _run_backend(text, "sparse", tran_stop)
    _assert_runs_agree(dense_run, sparse_run)


def test_sparse_results_do_not_depend_on_earlier_analyses():
    # The order is structural and every factorization takes the same
    # numeric path, so an engine that already factorized other systems
    # (noise adjoints at other frequencies, another bias) gives the same
    # bits as a fresh one.
    from repro.spice.dcop import solve_dc
    from repro.spice.noise import solve_noise

    text = (DECK_DIR / "ce_stage.cir").read_text()
    freqs = np.geomspace(1e6, 1e11, 16)

    def run(warm):
        circuit = parse_deck(text).circuit
        engine = compile_circuit(circuit, mode="sparse")
        if warm:
            solve_noise(circuit, "c", [1e3, 3e8], engine=engine)
            solve_dc(circuit, gmin=1e-9, engine=engine)
            assert engine.pattern.orders
        x = solve_dc(circuit, engine=engine)
        return x, solve_ac(circuit, freqs, dc_solution=x,
                           engine=engine).solutions

    (x_fresh, ac_fresh), (x_warm, ac_warm) = run(False), run(True)
    assert np.array_equal(x_fresh, x_warm)
    assert np.array_equal(ac_fresh, ac_warm)


def test_options_solver_card_equivalent_to_engine_flag():
    text = (DECK_DIR / "ce_stage.cir").read_text()
    via_flag = _run_backend(text, "sparse")
    via_card = run_deck(text.replace(
        ".OP", ".OPTIONS SOLVER=sparse\n.OP"
    ))
    _assert_runs_agree(via_flag, via_card)


# ---------------------------------------------------------------------------
# counters: the sparse hot loop performs zero dense assemblies
# ---------------------------------------------------------------------------


class TestSparseEngineCounters:
    def _circuit(self):
        return parse_deck((DECK_DIR / "ce_stage.cir").read_text()).circuit

    def test_sparse_engine_reports_backend_and_nnz(self):
        engine = get_engine(self._circuit(), "sparse")
        assert engine.assembly == "sparse"
        assert engine.pattern is not None
        assert engine.stats.pattern_nnz == engine.pattern.nnz > 0
        assert "sparse" in engine.stats.summary()

    def test_no_dense_assemblies_in_sparse_mode(self):
        circuit = self._circuit()
        engine = get_engine(circuit, "sparse")
        snapshot = engine.stats.copy()
        solve_ac(circuit, np.geomspace(1e6, 1e9, 31), engine=engine)
        delta = engine.stats.since(snapshot)
        assert delta.dense_assemblies == 0
        assert delta.sparse_assemblies > 0
        # Every factorization after the first reuses the pattern's order.
        assert delta.pattern_reuses == delta.factorizations - 1 > 0

    def test_dense_engine_reports_dense(self):
        circuit = self._circuit()
        engine = get_engine(circuit, "dense")
        snapshot = engine.stats.copy()
        solve_ac(circuit, np.geomspace(1e6, 1e9, 11), engine=engine)
        delta = engine.stats.since(snapshot)
        assert delta.sparse_assemblies == 0
        assert delta.dense_assemblies > 0

    def test_modes_are_cached_separately(self):
        circuit = self._circuit()
        sparse = get_engine(circuit, "sparse")
        dense = get_engine(circuit, "dense")
        assert sparse is not dense
        assert get_engine(circuit, "sparse") is sparse
        assert get_engine(circuit, "dense") is dense

    def test_unknown_mode_rejected(self):
        with pytest.raises(AnalysisError, match="assembly mode"):
            compile_circuit(self._circuit(), mode="banana")
