"""Generated MNA systems through the ordered sparse LU.

A ``hypothesis`` strategy draws small connected conductance graphs with
voltage-source branch rows (zero diagonals), optional transconductances
(unsymmetric stamps) and optional capacitances (complex ``G + jωC``),
builds a :class:`SparsityPattern` from the stamp slots alone and holds
:class:`SparseLUSolver` to ``numpy.linalg.solve``.

Those systems are smaller than one SuperLU panel, so the Fig. 11 ring's
own Jacobians at 25 and 101 stages (427 and 1719 unknowns) are held to
the same reference as well.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import linalg as spla

from repro.geometry import ModelParameterGenerator, default_reference
from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
from repro.spice import compile_circuit, solve_dc
from repro.spice.dcop import DIAG_GSHUNT
from repro.spice.engine import SparseLUSolver
from repro.spice.sparse import SparsityPattern

EXAMPLES = settings(max_examples=25, deadline=None)


@dataclass
class MNASystem:
    pattern: SparsityPattern
    g: np.ndarray  # (nnz + 1,) conductance and source-incidence values
    c: np.ndarray  # (nnz + 1,) capacitance values (zeros without caps)
    omega: float

    @property
    def size(self) -> int:
        return self.pattern.size

    def dense(self, data: np.ndarray) -> np.ndarray:
        return self.pattern.matrix(data).toarray()

    @property
    def complex_data(self) -> np.ndarray:
        return self.g + 1j * self.omega * self.c


def _two_terminal(a, b, value, stamps):
    """Stamp ``value`` between unknowns ``a`` and ``b`` (-1: ground)."""
    for row, col, sign in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0),
                           (b, a, -1.0)):
        if row >= 0 and col >= 0:
            stamps.append((row, col, sign * value))


@st.composite
def mna_systems(draw):
    """A connected conductance graph over ``nodes`` unknowns, grounded at
    least once, plus voltage sources from distinct nodes to ground (no
    source loops), optional VCCS transconductances and optional
    capacitances; well-conditioned draws only."""
    nodes = draw(st.integers(2, 7))
    value = st.floats(0.1, 10.0)
    edges = [(draw(st.integers(0, k - 1)), k) for k in range(1, nodes)]
    edges += draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(-1, nodes - 1)),
        max_size=nodes))
    edges.append((draw(st.integers(0, nodes - 1)), -1))
    g_stamps, c_stamps = [], []
    for a, b in edges:
        if a != b:
            _two_terminal(a, b, draw(value), g_stamps)
            if draw(st.booleans()):
                _two_terminal(a, b, draw(value), c_stamps)
    terminal = st.integers(-1, nodes - 1)
    for _ in range(draw(st.integers(0, 2))):
        out_p, out_n, ctl_p, ctl_n = (draw(terminal) for _ in range(4))
        gm = draw(value)
        for row, col, sign in ((out_p, ctl_p, 1.0), (out_p, ctl_n, -1.0),
                               (out_n, ctl_p, -1.0), (out_n, ctl_n, 1.0)):
            if row >= 0 and col >= 0:
                g_stamps.append((row, col, sign * gm))
    sourced = draw(st.lists(st.integers(0, nodes - 1), unique=True,
                            max_size=min(nodes, 3)))
    for branch, node in enumerate(sourced, start=nodes):
        g_stamps += [(node, branch, 1.0), (branch, node, 1.0)]
    size = nodes + len(sourced)
    slots = g_stamps + c_stamps
    pattern = SparsityPattern(size, [r for r, _, _ in slots],
                              [c for _, c, _ in slots])
    data = []
    for stamps in (g_stamps, c_stamps):
        values = np.zeros(pattern.nnz + 1)
        if stamps:
            rows, cols, vals = map(np.asarray, zip(*stamps))
            np.add.at(values, pattern.positions(rows, cols), vals)
        data.append(values)
    system = MNASystem(pattern, *data, omega=draw(st.floats(0.1, 10.0)))
    for values in (system.g, system.complex_data):
        assume(np.linalg.cond(system.dense(values)) < 1e5)
    return system


def _rhs(size, columns=None, seed=0):
    shape = (size,) if columns is None else (size, columns)
    return np.random.default_rng(seed).normal(size=shape)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-9,
                               atol=1e-9 * np.abs(want).max())


@EXAMPLES
@given(mna_systems())
def test_forward_multi_rhs_and_complex_solves(system):
    solver = SparseLUSolver()
    b = _rhs(system.size)
    many = _rhs(system.size, 3, seed=1)
    for data in (system.g, system.complex_data):
        matrix, dense = system.pattern.matrix(data), system.dense(data)
        _close(solver.solve(matrix, b), np.linalg.solve(dense, b))
        _close(solver.solve(matrix, many), np.linalg.solve(dense, many))


@EXAMPLES
@given(mna_systems())
def test_transposed_solves(system):
    data = np.stack([system.g, system.complex_data])
    b = _rhs(system.size) + 1j * _rhs(system.size, seed=2)
    adjoints = SparseLUSolver().solve_pattern_batched(
        system.pattern, data, b, transpose=True)
    for k in range(2):
        _close(adjoints[k], np.linalg.solve(system.dense(data[k]).T, b))


@EXAMPLES
@given(mna_systems())
def test_value_sets_on_one_pattern_share_one_order(system):
    # Both value sets are solved through the order computed for the
    # first; the second factorization counts as its reuse.
    solver = SparseLUSolver()
    stats = solver.stats
    b = _rhs(system.size)
    for data in (system.g, system.complex_data):
        _close(solver.solve(system.pattern.matrix(data), b),
               np.linalg.solve(system.dense(data), b))
    assert list(system.pattern.orders) == ["MMD_AT_PLUS_A"]
    assert (stats.factorizations, stats.pattern_reuses) == (2, 1)
    # The order depends on the structure alone: it is the one SuperLU
    # computes from the matrix itself.
    lu = spla.splu(system.pattern.csc(system.g),
                   permc_spec="MMD_AT_PLUS_A",
                   options=dict(SymmetricMode=True))
    np.testing.assert_array_equal(
        system.pattern.ordered().inverse, lu.perm_c)


@EXAMPLES
@given(mna_systems())
def test_singular_system_raises_and_singular_lane_is_nan(system):
    # Zeroing every value in column 0 makes the system exactly singular
    # without changing its pattern.
    singular = system.g.copy()
    singular[:system.pattern.indptr[1]] = 0.0
    assert np.linalg.matrix_rank(system.dense(singular)) < system.size
    solver = SparseLUSolver()
    b = _rhs(system.size)
    with pytest.raises(np.linalg.LinAlgError):
        solver.solve(system.pattern.matrix(singular), b)
    lanes = [system.pattern.matrix(d) for d in (system.g, singular)]
    out = solver.solve_batched_exact(lanes, np.stack([b, b]))
    _close(out[0], np.linalg.solve(system.dense(system.g), b))
    assert np.isnan(out[1]).all()


@pytest.fixture(scope="module", params=(25, 101), ids=lambda s: f"{s}stage")
def ring_jacobians(request):
    """The ring's pattern and the Jacobians its analyses factor at the
    operating point, gshunt diagonal included: DC ``G``, the trapezoidal
    transient's fused ``G + alpha*C`` (3 ps step) and AC ``G + jωC``
    (1 GHz)."""
    generator = ModelParameterGenerator(reference=default_reference())
    circuit = build_ring_oscillator(
        generator.generate("N1.2-12D"),
        follower_model=generator.generate("N1.2-6D"),
        spec=RingOscillatorSpec(stages=request.param))
    engine = compile_circuit(circuit, mode="sparse")
    x = solve_dc(circuit, engine=engine)
    ctx = engine.evaluate(x, limits={})
    g, c = ctx.g_mat.data.copy(), ctx.c_mat.data.copy()
    fused = engine.evaluate(x, limits={}, jac_alpha=2.0 / 3e-12).g_mat.data
    jacobians = {"dc": g, "fused": fused.copy(),
                 "ac": g + 2j * np.pi * 1e9 * c}
    for data in jacobians.values():
        data[engine.node_diagonal] += DIAG_GSHUNT
    return engine.pattern, jacobians


@pytest.mark.parametrize("kind", ("dc", "fused", "ac"))
def test_ring_jacobians_solve_like_numpy(ring_jacobians, kind):
    pattern, jacobians = ring_jacobians
    data = jacobians[kind]
    dense = pattern.matrix(data).toarray()
    b = _rhs(pattern.size)
    if np.iscomplexobj(data):
        b = b + 1j * _rhs(pattern.size, seed=1)
    solver = SparseLUSolver()
    forward = solver.solve(pattern.matrix(data), b)
    [transposed] = solver.solve_pattern_batched(pattern, data[None], b,
                                                transpose=True)
    for a, x in ((dense, forward), (dense.T, transposed)):
        _close(x, np.linalg.solve(a, b))
        # Backward stable: the residual is rounding of the matrix's size.
        residual = np.abs(a @ x - b).max()
        assert residual <= 1e-12 * np.linalg.norm(a, np.inf) * np.abs(x).max()
