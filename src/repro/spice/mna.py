"""Modified-nodal-analysis equation assembly.

The simulator solves the charge-oriented MNA system

    F(x, t) = I(x, t) + dQ(x)/dt = 0

by Newton's method.  :class:`LoadContext` is the accumulator handed to each
element's ``load``: elements add resistive/source currents to ``I`` and its
Jacobian ``G = dI/dx``, and charges/fluxes to ``Q`` and its Jacobian
``C = dQ/dx``.  The analyses in :mod:`repro.spice.dcop`,
:mod:`repro.spice.ac` and :mod:`repro.spice.transient` combine these into
the per-iteration linear systems.

The element walk (:func:`load_circuit`, the per-element stamp reference)
stamps dense numpy arrays through ``add_g`` / ``add_c``.  A compiled
engine (:mod:`repro.spice.engine`) fills its own buffers, dense or
:class:`repro.spice.sparse.PatternMatrix` values, through its device
group's compiled scatter tables instead; :mod:`repro.spice.solvercost`
decides which backend a given circuit gets.
"""

from __future__ import annotations

import numpy as np

from .netlist import Circuit


class LoadContext:
    """Accumulator for one evaluation of the circuit equations.

    Attributes
    ----------
    x:
        Candidate solution vector (node voltages, then branch currents).
    time:
        Simulation time in seconds (``None`` during DC analyses: sources
        then contribute their DC value).
    gmin:
        Minimum junction conductance, stamped by nonlinear devices across
        their junctions for convergence robustness.
    i_vec, g_mat:
        Resistive current residual and its Jacobian.
    q_vec, c_mat:
        Charge/flux vector and its Jacobian.
    """

    def __init__(
        self,
        size: int,
        x: np.ndarray,
        time: float | None,
        gmin: float,
        source_scale: float = 1.0,
        buffers: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.size = size
        self.x = x
        self.time = time
        self.gmin = gmin
        #: Homotopy factor applied by independent sources (source stepping).
        self.source_scale = source_scale
        if buffers is None:
            self.i_vec = np.zeros(size)
            self.g_mat = np.zeros((size, size))
            self.q_vec = np.zeros(size)
            self.c_mat = np.zeros((size, size))
        else:
            # Preallocated accumulators owned by a compiled engine; they
            # arrive pre-filled with the cached linear contributions and
            # are overwritten on the engine's next evaluation.
            self.i_vec, self.g_mat, self.q_vec, self.c_mat = buffers
        #: Junction-limiting memory carried across Newton iterations:
        #: each diode's limited voltage and each BJT's (vbe, vbc) under
        #: its name, or a compiled engine's ``(2, n)`` device-group array
        #: under the group itself (:class:`~repro.spice.engine.BJTGroup`).
        self.limits: dict = {}
        #: Set by a device whose pnjlim limited a junction voltage in
        #: this evaluation: Newton then accepts no step from it.
        self.limited = False

    # -- reading the candidate solution ---------------------------------------

    def voltage(self, index: int) -> float:
        """Voltage of equation ``index`` (ground, index -1, is 0 V)."""
        if index < 0:
            return 0.0
        return self.x[index]

    # -- accumulating contributions -------------------------------------------

    def add_i(self, row: int, value: float) -> None:
        """Add a current (or branch residual) to ``I[row]``."""
        if row >= 0:
            self.i_vec[row] += value

    def add_g(self, row: int, col: int, value: float) -> None:
        """Add ``dI[row]/dx[col]``."""
        if row >= 0 and col >= 0:
            self.g_mat[row, col] += value

    def add_q(self, row: int, value: float) -> None:
        """Add a charge (node row) or flux (branch row) to ``Q[row]``."""
        if row >= 0:
            self.q_vec[row] += value

    def add_c(self, row: int, col: int, value: float) -> None:
        """Add ``dQ[row]/dx[col]``."""
        if row >= 0 and col >= 0:
            self.c_mat[row, col] += value

    # -- common stamp patterns -------------------------------------------------

    def stamp_conductance(self, p: int, n: int, g: float) -> None:
        """Stamp a linear conductance ``g`` between rows/cols ``p`` and ``n``.

        Adds both the Jacobian entries and the current ``g*(vp-vn)`` so the
        residual is consistent for any candidate ``x``.
        """
        vp = self.voltage(p)
        vn = self.voltage(n)
        current = g * (vp - vn)
        self.add_i(p, current)
        self.add_i(n, -current)
        self.add_g(p, p, g)
        self.add_g(p, n, -g)
        self.add_g(n, p, -g)
        self.add_g(n, n, g)

    def stamp_capacitance(self, p: int, n: int, c: float) -> None:
        """Stamp a linear capacitance ``c`` between nodes ``p`` and ``n``."""
        vp = self.voltage(p)
        vn = self.voltage(n)
        charge = c * (vp - vn)
        self.add_q(p, charge)
        self.add_q(n, -charge)
        self.add_c(p, p, c)
        self.add_c(p, n, -c)
        self.add_c(n, p, -c)
        self.add_c(n, n, c)

    def stamp_current_source(self, p: int, n: int, current: float) -> None:
        """Stamp an independent current ``current`` flowing from p to n.

        Source currents *leave* the F-residual, i.e. a source pushing
        current into node ``n`` appears with sign conventions such that
        F = 0 at the solution.
        """
        self.add_i(p, current)
        self.add_i(n, -current)


def load_circuit(
    circuit: Circuit,
    x: np.ndarray,
    time: float | None = None,
    gmin: float = 1e-12,
    limits: dict | None = None,
    source_scale: float = 1.0,
) -> LoadContext:
    """Evaluate every element at candidate solution ``x``.

    Returns the filled :class:`LoadContext`.
    """
    size = circuit.assign_indices()
    ctx = LoadContext(size, x, time, gmin, source_scale)
    if limits is not None:
        ctx.limits = limits
    for element in circuit:
        element.load(ctx)
    return ctx
