"""Compiled-circuit evaluation core: the simulator's one engine.

The per-element stamp walk (:func:`repro.spice.mna.load_circuit`)
re-stamps every element on every call into freshly allocated matrices;
it stays as the stamp reference the engine is tested against.  For the
circuits this package targets — dozens of BJTs surrounded by a largely
linear bias/load network — most of that work is identical from one
iteration to the next.

:class:`CompiledCircuit` partitions the elements once, at compile time:

* **linear elements** (R, C, L, controlled sources, and the Jacobian part
  of independent sources) are stamped a single time into cached constant
  matrices ``G0``/``C0``; per evaluation their residual contribution is
  the matrix-vector product ``G0 @ x`` (and ``C0 @ x`` for charges),
* **independent sources** reduce to a handful of precomputed
  ``(row, coeff)`` entries: DC levels are folded into one source vector
  per lane (``LaneStamps.src``; another level is another lane, built by
  :meth:`CompiledCircuit.at_levels`, and a level changed in place needs
  ``Circuit.invalidate()``), other waveforms are read every evaluation,
* **nonlinear elements** — Gummel-Poon BJTs, by far the dominant cost
  in this package's benchmarks, and junction diodes — are evaluated per
  iteration as one vectorized device group (:class:`BJTGroup`): one
  numpy pass per device kind, scattered into the matrices with
  ``np.add.at`` through index arrays built at compile time.  Each
  element's scalar :meth:`~repro.spice.netlist.Element.load_dynamic`
  stays as the stamp reference the group is tested against.

An engine is its topology; its values are one lane of
:class:`LaneStamps`, :attr:`CompiledCircuit.stamps`.  Any circuit of the
same topology (a temperature, passive-value or source-level variant) is
another lane (:meth:`CompiledCircuit.lane_stamps`), which
``evaluate(stamps=)`` and ``evaluate_stacked(lanes=)`` assemble as an
engine compiled from it.

Compilation makes one backend decision, dense or sparse, as a pure
function of the system's shape (:func:`repro.spice.solvercost.choose`)
unless ``mode=`` pins it.  The assembly and the :class:`LinearSolver`
both follow it: dense assembly fills ``(n, n)`` buffers for the dense LU
backend, sparse assembly fills flat value arrays over the compiled
:class:`~repro.spice.sparse.SparsityPattern` for the ``scipy.sparse`` LU
backend.  Every solve factorizes the matrix it is given; a solve that
passes a ``token`` also keeps that factorization under the token, and
only chord Newton (:func:`repro.spice.dcop.newton_solve`) and ``.TF``'s
second solve back-substitute against it.  Analyses call the engine's one
LU object, :attr:`CompiledCircuit.solver`, directly.

Engine work is counted once, in the engine's own :class:`EngineStats`;
each analysis measures its block with :meth:`CompiledCircuit.measured`
and stores that block's delta on its result.
"""

from __future__ import annotations

import math
import time as _time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import lapack as _lapack
from scipy.sparse import linalg as _spla

from ..devices.gummel_poon import EXP_LIMIT
from ..errors import AnalysisError
from .elements.bjt import BJT
from .elements.diode import Diode
from .elements.sources import is_dc_source
from .mna import LoadContext
from .netlist import Circuit
from .solvercost import choose as choose_backend
from .sparse import DEFAULT_ORDERING, PatternMatrix, SparsityPattern


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


@dataclass
class EngineStats:
    """Counters for the work an engine performed.

    Each engine keeps one record of all its work; every analysis stores
    the delta of its own block on its result object (see
    :meth:`CompiledCircuit.measured`), which ``repro run --profile``
    prints.
    """

    #: Individual element evaluations (nonlinear devices + source values);
    #: cached linear stamps are free and intentionally not counted.
    element_evals: int = 0
    #: Full system assemblies (one per Newton/chord iteration).
    assemblies: int = 0
    #: LU factorizations performed by the linear solver.
    factorizations: int = 0
    #: Linear-system solves (back-substitutions).
    solves: int = 0
    #: Circuit compilations (matrix partitioning passes).
    compilations: int = 0
    #: Wall-clock seconds: the compile plus every measured analysis block.
    wall_seconds: float = 0.0
    #: Name of the linear-solver backend in use.
    solver: str = ""
    #: Device evaluations replaced by a charge replay: a charges-only
    #: assembly that linearized the last evaluation's charges to the
    #: new solution instead of re-evaluating the BJT group.
    bypassed_evals: int = 0
    #: Back-substitutions against a kept factorization
    #: (:meth:`LinearSolver.solve_cached`): the chord (modified Newton)
    #: iteration's frozen Jacobians, and ``.TF``'s second solve.
    jacobian_reuses: int = 0
    #: Chord-Newton refactorizations forced by degraded convergence.
    refactorizations: int = 0
    #: Assemblies that filled a flat nnz-length sparse data array.
    sparse_assemblies: int = 0
    #: Assemblies that filled a dense ``(n, n)`` matrix buffer.
    dense_assemblies: int = 0
    #: Sparse factorizations that reused the fill-reducing order their
    #: compiled pattern already held (no ordering and no dense scan: a
    #: gather into the permuted CSC and a factorization in that
    #: column order).
    pattern_reuses: int = 0
    #: Structural non-zeros of the compiled sparsity pattern (gauge).
    pattern_nnz: int = 0
    #: Non-zeros of the most recent sparse LU factorization, L + U
    #: combined (gauge; ``pattern_nnz`` vs this is the fill-in ratio).
    factor_nnz: int = 0
    #: Fill-in ratio of the most recent sparse LU factorization:
    #: ``factor nnz / matrix nnz`` (gauge).  Directly reflects the
    #: pattern's order (``permc_spec``).
    fill_ratio: float = 0.0
    #: Matrix assembly backend chosen at compile time ("dense"/"sparse").
    assembly: str = ""

    _COUNTERS = (
        "element_evals",
        "assemblies",
        "factorizations",
        "solves",
        "compilations",
        "bypassed_evals",
        "jacobian_reuses",
        "refactorizations",
        "sparse_assemblies",
        "dense_assemblies",
        "pattern_reuses",
    )

    def copy(self) -> "EngineStats":
        return EngineStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def since(self, snapshot: "EngineStats") -> "EngineStats":
        """Counter deltas relative to an earlier :meth:`copy`."""
        delta = self.copy()
        for name in self._COUNTERS:
            setattr(delta, name, getattr(self, name) - getattr(snapshot, name))
        delta.wall_seconds = self.wall_seconds - snapshot.wall_seconds
        return delta

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        text = (
            f"{self.assemblies} assemblies, {self.element_evals} element "
            f"evals, {self.factorizations} factorizations, {self.solves} "
            f"solves [{self.solver or 'n/a'}] in {self.wall_seconds * 1e3:.2f} ms"
        )
        if self.bypassed_evals:
            text += f"; {self.bypassed_evals} bypassed device evals"
        if self.jacobian_reuses or self.refactorizations:
            text += (
                f"; {self.jacobian_reuses} jacobian reuses, "
                f"{self.refactorizations} chord refactorizations"
            )
        if self.assembly:
            text += f"; assembly: {self.assembly}"
        if self.sparse_assemblies or self.pattern_nnz:
            fill = self.fill_ratio or (
                self.factor_nnz / self.pattern_nnz
                if self.pattern_nnz and self.factor_nnz else 0.0
            )
            text += (
                f"; sparse: {self.pattern_nnz} nnz pattern, "
                f"{self.sparse_assemblies} sparse assemblies, "
                f"{self.pattern_reuses} pattern reuses"
            )
            if fill:
                text += f", fill-in {fill:.1f}x"
        return text


# ---------------------------------------------------------------------------
# linear solvers
# ---------------------------------------------------------------------------


class LinearSolver:
    """Base of the dense and sparse LU backends.

    ``solve(a, b, token=...)`` factorizes ``a`` and solves ``a @ x = b``,
    always.  A non-``None`` ``token`` only names the factorization the
    backend then keeps, for :meth:`has_factorization` and
    :meth:`solve_cached` (chord / Newton-Richardson iteration); a
    ``token=None`` solve leaves the kept one alone.  Singular systems
    raise :class:`numpy.linalg.LinAlgError` so callers keep their
    existing convergence-failure handling.

    Work is counted into :attr:`stats`; a compiled engine replaces it
    with its own record.
    """

    def __init__(self):
        self.stats = EngineStats()
        self._token = None
        self._factor = None

    def invalidate(self) -> None:
        """Drop the cached factorization."""
        self._token = None
        self._factor = None

    def has_factorization(self, token) -> bool:
        """True when a factorization stored under ``token`` is alive."""
        return (
            token is not None
            and self._factor is not None
            and token == self._token
        )

    def solve(self, a, b: np.ndarray, token=None) -> np.ndarray:
        """Factorize ``a`` and solve ``a @ x = b``; keep the
        factorization under ``token`` when one is given."""
        raise NotImplementedError

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        """Back-substitute against the kept factorization.

        Only valid while :meth:`has_factorization` is True for the
        token that kept it; chord-Newton uses this to skip
        refactorizing a deliberately frozen Jacobian.
        """
        raise NotImplementedError

    def solve_batched_exact(self, systems, rhs: np.ndarray) -> np.ndarray:
        """Per-system :meth:`solve` over a stack of systems.

        The blocked DC path's contract: every lane must be **bit-identical**
        to the scalar Newton path on the same backend.  A broadcast
        batched LAPACK call cannot promise that — numpy's batched
        ``gesv`` and the ``getrf``/``getrs`` pair :class:`DenseLUSolver`
        runs per point differ in the last ulp — so this routine simply
        loops the backend's own scalar ``solve`` (the dense backend runs
        that ``getrf``/``getrs`` pair itself, without the per-call
        overhead).  ``systems`` holds whatever that ``solve`` takes: a
        ``(batch, n, n)`` stack for the dense backend,
        :class:`~repro.spice.sparse.PatternMatrix` systems for the sparse
        one.  A singular lane comes back filled with NaN
        instead of raising, so one pathological operating point cannot
        abort the block; callers already treat a non-finite Newton step
        as that lane's convergence failure.
        """
        rhs = np.asarray(rhs)
        out = np.empty_like(rhs,
                            dtype=np.result_type(systems[0].dtype, rhs))
        for k in range(len(systems)):
            try:
                out[k] = self.solve(systems[k], rhs[k])
            except np.linalg.LinAlgError:
                out[k] = np.nan
        return out


class DenseLUSolver(LinearSolver):
    """Dense LU via LAPACK ``getrf``/``getrs``."""

    name = "dense-lu"

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        if self._factor is None:
            raise AnalysisError("no cached LU factorization to reuse")
        self.stats.solves += 1
        self.stats.jacobian_reuses += 1
        lu, piv, getrs = self._factor
        x, _info = getrs(lu, piv, b)
        return x

    def solve(self, a: np.ndarray, b: np.ndarray, token=None) -> np.ndarray:
        # Raw LAPACK getrf/getrs: identical math to lu_factor/lu_solve
        # minus scipy's per-call python wrapper overhead, which is
        # measurable at this call rate.  ``piv`` stays in LAPACK's
        # 1-based convention and is only ever handed back to getrs.
        if np.iscomplexobj(a):
            getrf, getrs = _lapack.zgetrf, _lapack.zgetrs
        else:
            getrf, getrs = _lapack.dgetrf, _lapack.dgetrs
        lu, piv, info = getrf(a)
        # A failed or anonymous (token=None) factorization leaves the
        # kept one alone: it still belongs to the matrix its token names,
        # and dropping it would defeat chord reuse for the caller that
        # owns the token.
        if info > 0 or not np.isfinite(lu).all():
            raise np.linalg.LinAlgError("singular matrix in LU factorization")
        self.stats.factorizations += 1
        self.stats.solves += 1
        if token is not None:
            self._token, self._factor = token, (lu, piv, getrs)
        x, _info = getrs(lu, piv, b)
        return x

    def solve_batched_exact(self, systems: np.ndarray,
                            rhs: np.ndarray) -> np.ndarray:
        """:meth:`solve`'s ``getrf``/``getrs`` pair per lane of a
        ``(batch, n, n)`` stack and a ``(batch, n)`` right-hand-side
        stack, without its per-call overhead.

        One copy lays every lane out in Fortran order, so each ``getrf``
        factors its lane in place instead of copying it, and one copy of
        the right-hand sides is solved in place by ``getrs``; the
        complex check and the finiteness test run once per stack, and
        the counters are bumped once, for the lanes that solved.  The
        same LAPACK calls on the same inputs, so every lane is
        bit-identical to :meth:`solve`; a singular or non-finite lane
        comes back NaN.
        """
        rhs = np.asarray(rhs)
        if np.iscomplexobj(systems):
            getrf, getrs = _lapack.zgetrf, _lapack.zgetrs
        else:
            getrf, getrs = _lapack.dgetrf, _lapack.dgetrs
        # (batch, n, n) with every lane column-major: the transposed
        # stack's C-order copy, viewed back.
        factors = np.swapaxes(systems, 1, 2).copy()
        factors = np.swapaxes(factors, 1, 2)
        # Contiguous lanes, which getrs can overwrite (a broadcast rhs
        # would otherwise copy to Fortran order).
        out = np.array(rhs, dtype=np.result_type(systems.dtype, rhs),
                       order="C")
        failed = np.zeros(len(factors), dtype=bool)
        for k in range(len(factors)):
            lu, piv, info = getrf(factors[k], overwrite_a=1)
            if info > 0:
                failed[k] = True
                continue
            getrs(lu, piv, out[k], overwrite_b=1)
        failed |= ~np.isfinite(factors).all(axis=(1, 2))
        out[failed] = np.nan
        solved = len(factors) - int(failed.sum())
        self.stats.factorizations += solved
        self.stats.solves += solved
        return out

    def solve_batched(self, systems: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
        """Solve a stack of systems ``systems[k] @ x[k] = rhs``.

        ``systems`` has shape ``(batch, n, n)``; ``rhs`` is one shared
        vector ``(n,)``.  One broadcast LAPACK call covers the whole
        batch — one C-level dispatch instead of a Python loop — which is
        what makes blocked AC/noise sweeps fast.  Counters tally one
        factorization and one solve per system so batched and
        per-frequency paths report comparable work.
        """
        systems = np.asarray(systems)
        count = systems.shape[0]
        self.stats.factorizations += count
        self.stats.solves += count
        rhs = np.broadcast_to(rhs, (count, len(rhs)))
        return np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]


#: SPICE's relative pivot threshold (``PIVREL``): the sparse LU keeps a
#: diagonal pivot while its magnitude is at least this fraction of the
#: largest entry in its column, and only then pivots off the diagonal.
PIVREL = 1e-3
#: SuperLU's panel width, in columns, for every numeric factorization.
#: The library's default (20) suits matrices with wide supernodes; the
#: supernodes of circuit Jacobians span one or two columns, so a wide
#: panel only adds work.  On the ring-oscillator transient Jacobians
#: (427-1719 unknowns) widths 1 and 2 tie and factor in about 0.6x the
#: default's time; back-substitution cost does not change.
PANEL_SIZE = 1
#: SuperLU options of every sparse factorization: symmetric mode, so the
#: pivot search prefers the diagonal of the symmetrically ordered matrix.
_SYMMETRIC_MODE = {"SymmetricMode": True}


class _OrderedLU:
    """SuperLU factor of a pattern's symmetrically permuted matrix;
    solves permute ``b`` in and ``x`` back out."""

    __slots__ = ("lu", "order", "inverse")

    def __init__(self, lu, order):
        self.lu = lu
        self.order = order.order
        self.inverse = order.inverse

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        return self.lu.solve(b[self.order], trans=trans)[self.inverse]


class SparseLUSolver(LinearSolver):
    """Sparse LU via SuperLU (``scipy.sparse.linalg.splu``), ordered once
    per pattern.

    Takes :class:`~repro.spice.sparse.PatternMatrix` systems from the
    sparse assembly path.  Each :class:`~repro.spice.sparse.SparsityPattern`
    is ordered once, from its structure alone
    (:meth:`~repro.spice.sparse.SparsityPattern.ordered`); every
    factorization gathers its values into that permuted CSC and runs
    SuperLU in that order — ``NATURAL`` column order, symmetric mode,
    diagonal pivoting at threshold :data:`PIVREL`, panels of
    :data:`PANEL_SIZE` columns.  Only the order is reused: SuperLU
    interleaves its symbolic work (elimination tree, supernodes, L/U
    structure) with the numeric elimination, so each call redoes it.
    Every factorization, the first included, takes that one path, so a
    result never depends on which systems were factorized before it.

    ``permc_spec`` selects the ordering: ``None`` is minimum degree on
    A+Aᵀ; ``"COLAMD"``, ``"NATURAL"`` (no reordering) and the ``MMD_*``
    variants are SuperLU's other orderings, applied symmetrically.  The
    resulting fill-in ratio (factor nnz over matrix nnz) is recorded
    on :class:`EngineStats`.
    """

    name = "sparse-lu"

    #: Orderings SuperLU computes; ``.OPTIONS PERMC=`` takes the same.
    PERMC_SPECS = ("COLAMD", "NATURAL", "MMD_ATA", "MMD_AT_PLUS_A")

    def __init__(self, permc_spec: str | None = None):
        super().__init__()
        if permc_spec is not None:
            permc_spec = str(permc_spec).upper()
            if permc_spec not in self.PERMC_SPECS:
                raise AnalysisError(
                    f"unknown permc_spec {permc_spec!r}; expected one of "
                    f"{self.PERMC_SPECS}"
                )
        self.permc_spec = permc_spec
        self._ordering = permc_spec or DEFAULT_ORDERING

    def _factorize(self, pattern: SparsityPattern,
                   data: np.ndarray) -> _OrderedLU:
        """LU of one value vector over ``pattern`` in the pattern's
        order; counts the factorization (and the order reuse) and
        gauges the fill-in.  Singularity surfaces as ``LinAlgError``
        like the dense backend."""
        if self._ordering in pattern.orders:
            self.stats.pattern_reuses += 1
        order = pattern.ordered(self._ordering)
        try:
            lu = _spla.splu(
                order.csc(data), permc_spec="NATURAL",
                options=_SYMMETRIC_MODE, diag_pivot_thresh=PIVREL,
                panel_size=PANEL_SIZE,
            )
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc
        self.stats.factorizations += 1
        self.stats.factor_nnz = int(lu.nnz)
        self.stats.fill_ratio = lu.nnz / max(pattern.nnz, 1)
        return _OrderedLU(lu, order)

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        if self._factor is None:
            raise AnalysisError("no cached LU factorization to reuse")
        self.stats.solves += 1
        self.stats.jacobian_reuses += 1
        return self._factor.solve(b)

    def solve(self, a: PatternMatrix, b: np.ndarray,
              token=None) -> np.ndarray:
        factor = self._factorize(a.pattern, a.data)
        self.stats.solves += 1
        if token is not None:
            self._token, self._factor = token, factor
        # token=None leaves the kept factorization alone, as a singular
        # system does (see DenseLUSolver.solve).
        return factor.solve(b)

    def solve_pattern_batched(self, pattern: SparsityPattern,
                              data: np.ndarray, rhs: np.ndarray,
                              transpose: bool = False) -> np.ndarray:
        """Solve a stack of systems sharing one sparsity pattern.

        ``data`` has shape ``(batch, nnz)`` (one value vector per
        system over the compiled pattern — e.g. ``G + j*omega_k*C`` per
        frequency); ``rhs`` is one shared vector ``(n,)``.
        ``transpose=True`` solves ``A.T x = b`` (noise adjoint systems)
        with the same factor of ``A``.  Every lane reuses the pattern's
        order — no dense staging array is ever built.
        """
        data = np.asarray(data)
        rhs = np.asarray(rhs)
        batch = data.shape[0]
        out = np.empty((batch, pattern.size),
                       dtype=np.result_type(data.dtype, rhs.dtype))
        trans = "T" if transpose else "N"
        for k in range(batch):
            factor = self._factorize(pattern, data[k])
            self.stats.solves += 1
            out[k] = factor.solve(rhs, trans=trans)
        return out


def make_solver(prefer: str, permc_spec: str | None = None) -> LinearSolver:
    """The LU backend a compile chose: ``prefer`` is ``"dense"`` or
    ``"sparse"`` (see :func:`repro.spice.solvercost.choose`).
    ``permc_spec`` configures the sparse backend's fill-reducing order
    (e.g. ``"COLAMD"`` or ``"NATURAL"``; see :class:`SparseLUSolver`)
    and is ignored by the dense one.
    """
    if prefer == "sparse":
        return SparseLUSolver(permc_spec=permc_spec)
    if prefer == "dense":
        return DenseLUSolver()
    raise AnalysisError(f"unknown solver backend {prefer!r}")


# ---------------------------------------------------------------------------
# vectorized Gummel-Poon group
# ---------------------------------------------------------------------------

# The kernel's cost is numpy's per-call dispatch, not arithmetic: on the
# group sizes this package compiles every elementwise call costs about
# the same.  A 0-d array operand dispatches about twice as fast as a
# Python float, and operands of one shape faster than broadcast ones.
_ZERO, _HALF, _ONE, _FOUR = (np.array(c) for c in (0.0, 0.5, 1.0, 4.0))
_EXP_LIMIT = np.array(EXP_LIMIT)
_RBB_FLOOR = np.array(1e-3)


def _limited_exp_vec(arg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.devices.gummel_poon.limited_exp`.

    Where ``arg`` stays at or below ``EXP_LIMIT`` the value and the
    derivative are both ``exp(arg)``, so when no element exceeds it one
    ``np.exp`` returns the general path's bits.
    """
    over = arg > _EXP_LIMIT
    if not np.count_nonzero(over):
        value = np.exp(arg)
        return value, value
    anchor = math.exp(EXP_LIMIT)
    base = np.exp(np.minimum(arg, _EXP_LIMIT))
    value = np.where(over, anchor * (1.0 + (arg - EXP_LIMIT)), base)
    deriv = np.where(over, anchor, base)
    return value, deriv


def _pnjlim_vec(v_new, v_old, vt, two_vt, v_crit):
    """Vectorized SPICE pnjlim junction-voltage limiting.

    Returns the limited voltages and the mask of limited junctions.  A
    NaN ``v_old`` (no history) leaves ``v_new`` unlimited, exactly as
    ``v_old == v_new`` does.  When no junction is limited it returns
    ``v_new`` itself and ``None``: the general path keeps ``v_new``
    wherever the mask is false, so these are its bits.  Only a junction
    above its critical voltage can be limited, which most evaluations
    settle with one comparison.
    """
    above = v_new > v_crit
    if not np.count_nonzero(above):
        return v_new, None
    step = v_new - v_old
    limit = above & (np.abs(step) > two_vt)
    if not np.count_nonzero(limit):
        return v_new, None
    arg = 1.0 + step / vt
    arg_pos = arg > 0.0
    branch_pos = np.where(
        arg_pos, v_old + vt * np.log(np.where(arg_pos, arg, 1.0)), v_crit
    )
    ratio = v_new / vt
    ratio_pos = ratio > 0.0
    branch_neg = vt * np.log(np.where(ratio_pos, ratio, 1.0))
    limited = np.where(v_old > 0.0, branch_pos, branch_neg)
    return np.where(limit, limited, v_new), limit


def _depletion_constants(cj, vj, m, fc) -> np.ndarray:
    """The 10 per-junction constants of :func:`_depletion`, stacked."""
    one_m = 1.0 - m
    f1 = vj / one_m * (1.0 - (1.0 - fc) ** one_m)
    f2 = (1.0 - fc) ** (1.0 + m)
    f3 = 1.0 - fc * (1.0 + m)
    threshold = fc * vj
    # Above the threshold SPICE extends C linearly: C = c1 + c2 v and
    # Q = q0 + v (c1 + c2 v / 2), continuous with the power law below.
    c1 = cj / f2 * f3
    c2 = cj / f2 * m / vj
    q0 = cj * f1 - threshold * (c1 + 0.5 * c2 * threshold)
    return np.stack([
        threshold, 1.0 - fc, one_m, 1.0 / vj, cj * vj / one_m, cj,
        q0, c1, 0.5 * c2, c2,
    ])


def _depletion(v: np.ndarray, constants: np.ndarray, out: np.ndarray,
               below: np.ndarray | None = None) -> None:
    """Vectorized SPICE depletion charge and capacitance of ``(4, ...,
    n)`` junction voltages, written to ``out[0]`` and ``out[1]``;
    ``cj == 0`` junctions are 0.  ``below`` is scratch of ``out``'s
    shape (default: fresh)."""
    (threshold, floor, one_m, inv_vj, coef_b, cj, q0, c1, c2_half,
     c2) = constants
    np.add(q0, v * (c1 + c2_half * v), out=out[0])
    np.add(c1, c2 * v, out=out[1])
    # Below the threshold 1 - v/vj exceeds 1 - fc; flooring it there
    # keeps the power finite on the junctions the mask then discards.
    arg = np.maximum(_ONE - v * inv_vj, floor)
    pow_one_m = arg ** one_m
    if below is None:
        below = np.empty_like(out)
    np.multiply(coef_b, _ONE - pow_one_m, out=below[0])
    np.divide(cj * pow_one_m, arg, out=below[1])  # cj arg^-m
    np.copyto(out, below, where=v < threshold)


# Row layout of BJTGroup's parameter block: one column per device, and
# every term that depends on the model parameters alone.  A pair holds
# the B-E then the B-C value of a quantity.
_P_NVT = slice(0, 6)  # exponent divisors: NF, NR, NE, NC x vt; inf; 1.44 VTF
_P_TWO_NVT = slice(6, 8)  # pnjlim's step threshold 2 NF vt, 2 NR vt
_P_VCRIT = slice(8, 10)  # B-E, B-C critical voltages
_P_ISAT = slice(10, 14)  # IS, IS, ISE, ISC
_P_VA = slice(14, 16)  # VAR, VAF
_P_IK = slice(16, 18)  # IKF, IKR
_P_BETA = slice(18, 20)  # BF, BR
_P_GSIGN = slice(20, 22)  # +1, -1
# The 1e-4 and -0.2499 clamps of the base charge, two rows each: the
# clamp broadcasts a per-device value onto a pair of equal rows.
_P_EARLY_FLOOR = slice(22, 24)
_P_Q2_FLOOR = slice(24, 26)
# ITF; 1 where ITF == 0, else 0; ITF where ITF > 0, else 1; TF; XTF;
# TF XTF; 2 TF XTF; TR; RBM; RB - RBM; 1 where RB > 0, else 0:
_P_SINGLE = slice(26, 37)
_P_DEP = slice(37, 77)  # 10 depletion constants x (B-E, B-C', B-C, S-C)
_P_SIGN = slice(77, 123)  # the stamp sign table below


def _kernel_rows(p: np.ndarray) -> tuple:
    """:meth:`BJTGroup._stamp`'s views of a ``(rows, n)`` parameter
    block, of its lane-broadcast ``(rows, 1, n)`` form, or of a per-lane
    ``(rows, L, n)`` block."""
    nvt = p[_P_NVT]
    return (nvt, nvt[:2], nvt[:4], nvt[5], p[_P_TWO_NVT], p[_P_VCRIT],
            p[_P_ISAT], p[_P_VA], p[_P_IK], p[_P_BETA], p[_P_GSIGN],
            p[_P_EARLY_FLOOR], p[_P_Q2_FLOOR], *p[_P_SINGLE],
            p[_P_DEP].reshape(10, 4, *p.shape[1:]), p[_P_SIGN])


def _base_views(base: np.ndarray) -> tuple:
    """:meth:`BJTGroup._stamp`'s views of a ``(23, ..., n)`` base buffer
    (rows as laid out above ``_STAMP_BASE``), and scratch for the
    depletion batch."""
    depletion = base[14:22].reshape(2, 4, *base.shape[1:])
    return (base, base[0], base[1], base[2], base[3], base[4], base[6],
            base[9], base[10], base[13], base[14], base[15], base[18],
            base[19], base[22], base[2:4], base[5:7], base[7:9],
            base[9:11], base[11:13], base[5:9:2], base[6:9:2], depletion,
            np.empty_like(depletion))


def _bjt_columns(devices: list, size: int) -> tuple:
    """The per-device columns of a BJT group, in ``devices`` order: the
    ``(5, n)`` terminal indices (external base, substrate, then the
    internal collector, base and emitter; ground mapped to ``size``),
    the polarity signs and the ``(rows, n)`` parameter block."""
    n = len(devices)
    nodes = np.array(
        [(d.node_index[1], d.node_index[3], *d._internal_indices())
         for d in devices], dtype=np.intp,
    ).reshape(n, 5).T
    nodes[nodes < 0] = size
    (sign, vt, vcrit_be, vcrit_bc, rbm, IS, ISE, ISC, NF, NR, NE, NC,
     BF, BR, VAF, VAR, IKF, IKR, TF, XTF, VTF, ITF, TR, RB, CJE, VJE,
     MJE, CJC, VJC, MJC, XCJC, CJS, VJS, MJS, FC) = np.array(
        [(p.sign, d._vt, d._vcrit_be, d._vcrit_bc, p.rbm_effective,
          p.IS, p.ISE, p.ISC, p.NF, p.NR, p.NE, p.NC, p.BF, p.BR,
          p.VAF, p.VAR, p.IKF, p.IKR, p.TF, p.XTF, p.VTF, p.ITF, p.TR,
          p.RB, p.CJE, p.VJE, p.MJE, p.CJC, p.VJC, p.MJC, p.XCJC,
          p.CJS, p.VJS, p.MJS, p.FC)
         for d in devices for p in (d.params,)], dtype=float,
    ).reshape(n, 35).T
    polar = np.where(_STAMP_POLAR[:, None], sign, 1.0)
    itf_pos = ITF > 0.0
    nvt_be, nvt_bc = NF * vt, NR * vt
    params = np.concatenate([
        # An infinite VTF divides vbc to 0, so exp = 1 and its
        # derivative 0 -- the scalar isfinite branch's result.
        [nvt_be, nvt_bc, NE * vt, NC * vt, np.full(n, np.inf),
         1.44 * VTF, 2.0 * nvt_be, 2.0 * nvt_bc, vcrit_be, vcrit_bc,
         IS, IS, ISE, ISC, VAR, VAF, IKF, IKR, BF, BR, np.ones(n),
         -np.ones(n)],
        np.full((2, n), 1e-4), np.full((2, n), -0.2499),
        # An ITF == 0 device gets w = (ibe + 1) / (ibe + 1) = 1 and
        # dw = 0, a TF == 0 or XTF == 0 one tf_eff = TF and dtf = 0:
        # the scalar branches' results without a mask.
        [ITF, np.where(itf_pos, 0.0, 1.0), np.where(itf_pos, ITF, 1.0),
         TF, XTF, TF * XTF, TF * XTF * 2.0, TR, rbm, RB - rbm,
         np.where(RB > 0.0, 1.0, 0.0)],
        # Zero-CJ junctions (XCJC == 1, CJS == 0) contribute 0.
        _depletion_constants(
            np.stack([CJE, CJC * XCJC, CJC * (1.0 - XCJC), CJS]),
            np.stack([VJE, VJC, VJC, VJS]),
            np.stack([MJE, MJC, MJC, MJS]),
            np.stack([FC, FC, FC, FC]),
        ).reshape(40, n),
        _STAMP_SIGN[:, None] * polar,
    ])
    return nodes, sign, params


# The kernel's 23 base quantities, in the rows of its ``base`` buffer:
#   0 irb             1 grb             2 ic              3 ib
#   4 ic + ib         5 dic_e           6 dic_c           7 dib_e
#   8 dib_c           9 sum_e          10 sum_c          11 dic_e + dic_c
#  12 dib_e + dib_c  13 sum_e + sum_c  14 qbe            15 qbc
#  16 qbx            17 qjs            18 cpi            19 cmu
#  20 cbx            21 cjs            22 cx
# where sum_x = dic_x + dib_x.  Pairs sit in adjacent rows, and the
# depletion batch writes rows 14:22 as one (2, 4) block.
#
# The 46 stamp rows -- 5 I, 13 G, 8 Q, 20 C, in scatter-index order --
# each gather one base quantity and multiply it by a constant +-1, times
# the device polarity on the junction current and charge rows
# (``_STAMP_POLAR``).
_I, _G, _Q, _C = slice(0, 5), slice(5, 18), slice(18, 26), slice(26, 46)
_STAMP_BASE = np.array(
    [0, 0, 2, 3, 4]  # I: irb, -irb, ic, ib, -(ic + ib)
    + [1, 1, 1, 1, 11, 5, 6, 12, 7, 8, 13, 9, 10]  # G: rb, dIc, dIb, dIe
    + [14, 14, 15, 15, 16, 16, 17, 17]  # Q: qbe, qbc, qbx, qjs pairs
    + [18] * 4 + [22] * 4 + [19] * 4 + [20] * 4 + [21] * 4  # C quads
)
_STAMP_SIGN = np.array(
    [1, -1, 1, 1, -1]
    + [1, -1, -1, 1, 1, -1, -1, 1, -1, -1, -1, 1, 1]
    + [1, -1] * 4
    + [1, -1, -1, 1] * 5,
    dtype=float,
)
_STAMP_POLAR = np.array([0, 0, 1, 1, 1] + [0] * 13 + [1] * 8 + [0] * 20,
                        dtype=bool)

# A diode column rides in the BJT layout: anode as the external base,
# cathode as the internal base and collector, the rest on ground.  Its
# 46 stamp rows (its current at rows 0-1, then the rb, qbx and cbx
# slots) gather its (i, g, q, c, -i, -g, -q, -c, 0) values.
_D_STAMP = np.array(
    [0, 4] + [8] * 3 + [1, 5, 5, 1] + [8] * 13 + [2, 6] + [8] * 14
    + [3, 7, 7, 3] + [8] * 4
)
#: The rows of a diode column of the parameter block: IS area, N vt,
#: 2 N vt, the critical voltage, TT and the 10 depletion constants.
_D_PARAMS = slice(0, 15)


def _diode_columns(devices: list, size: int) -> tuple:
    """:func:`_bjt_columns` of diodes: their terminals in the BJT layout
    (``_D_STAMP``; the anode behind RS is the internal one) and their
    parameter block, rows ``_D_PARAMS``."""
    n = len(devices)
    nodes = np.array(
        [(d.branch_index[0] if d.rs > 0 else d.node_index[0], -1,
          d.node_index[1], d.node_index[1], -1) for d in devices],
        dtype=np.intp).reshape(n, 5).T
    nodes[nodes < 0] = size
    isat, nvt, vcrit, tt, cj, vj, m, fc = np.array(
        [(d.i_sat, d.model.N * d._vt, d._vcrit, d.model.TT, d.cj0,
          d.model.VJ, d.model.M, d.model.FC) for d in devices],
        dtype=float).reshape(n, 8).T
    return nodes, np.concatenate([
        [isat, nvt, 2.0 * nvt, vcrit, tt], _depletion_constants(cj, vj, m, fc),
        np.zeros((_P_SIGN.stop - _D_PARAMS.stop, n))])


class BJTGroup:
    """The device group: all plain :class:`~repro.spice.elements.bjt.BJT`,
    then all plain :class:`~repro.spice.elements.diode.Diode` instances
    of a circuit, evaluated as one vectorized numpy pass.

    Compile time stacks every per-device constant — the Gummel-Poon
    parameters and the terms derived from them alone, the depletion
    constants and the stamp sign table; a diode's ``_D_PARAMS`` — into
    one ``(rows, 1, n)`` block (``block``, see
    :meth:`CompiledCircuit._bjt_block`), and builds the scatter-index
    arrays.  One kernel per kind (:meth:`_stamp`, :meth:`_stamp_diodes`)
    then reproduces the scalar ``load_dynamic`` for any number of lane
    axes: :meth:`load` runs them over one solution, :meth:`load_stacked`
    over a stack of them.  Ground (-1) terminal indices are mapped to a
    dummy slot ``size`` — the engine's vectors carry one extra entry,
    and its matrices one trailing slot (:func:`dense_buffer`), that no
    reader sees.

    The pnjlim history is one ``(2, n)`` array of a BJT's limited (vbe,
    vbc) and a diode's limited junction voltage (in both rows), columns
    in :attr:`names` order, stored in the analysis' ``limits`` dict
    under the group itself.  Each evaluation stores a new array and
    never writes the stored one, so ``dict(limits)`` is a snapshot; NaN
    columns are devices with no history yet.
    """

    def __init__(self, devices, size, i_full, q_full, xg, block):
        devices = list(devices)
        self.names = [d.name for d in devices]
        n = len(devices)
        self.n = n
        self._i_full = i_full
        self._q_full = q_full
        # Jacobian scatter targets are attached afterwards by
        # bind_dense/bind_sparse — the sparsity pattern needs this
        # group's index arrays before the data buffers can exist.
        self._g_flat = None
        self._c_flat = None
        self._g_idx = None
        self._c_idx = None
        self._xg = xg
        self.size = size

        # Terminals, the polarities a lane's block must share, and the
        # parameter block: the engine's lane 0.
        nodes, sign, self.params = block
        #: BJT columns; the diodes' follow.
        self.nb = nb = len(sign)
        self._sign = sign
        self._rows = self._views(self.params[:, 0])
        # Control voltages are x[plus] - x[minus]; a pnp's junction rows
        # swap the terminals, which negates exactly.  The base-spreading
        # drop is unsigned.  See _controls for the rows.
        b_ext, s_ext, ci, bi, ei = nodes[:, :nb]
        plus = np.stack([bi] * 6 + [b_ext, s_ext, b_ext])
        minus = np.stack([ei, ci] * 3 + [ci, ci, bi])
        pnp = np.stack([sign < 0.0] * 8 + [np.zeros(nb, dtype=bool)])
        self._plus = np.where(pnp, minus, plus)
        self._minus = np.where(pnp, plus, minus)
        self._junctions = nodes[0, nb:], nodes[3, nb:]  # diode a, k
        b_ext, s_ext, ci, bi, ei = nodes

        # -- scatter index arrays (C-order ravel of the (slots, n) rows) --
        cat = np.concatenate
        self._i_rows = cat([b_ext, bi, ci, bi, ei])
        self._q_rows = cat([bi, ei, bi, ci, b_ext, ci, s_ext, ci])

        g_pairs = [
            (b_ext, b_ext), (b_ext, bi), (bi, b_ext), (bi, bi),  # rb
            (ci, bi), (ci, ei), (ci, ci),  # dIc rows
            (bi, bi), (bi, ei), (bi, ci),  # dIb rows
            (ei, bi), (ei, ei), (ei, ci),  # dIe rows
        ]
        c_pairs = [
            (bi, bi), (bi, ei), (ei, bi), (ei, ei),  # cpi (dqbe_dvbe)
            (bi, bi), (bi, ci), (ei, bi), (ei, ci),  # dqbe_dvbc cross term
            (bi, bi), (bi, ci), (ci, bi), (ci, ci),  # cmu (dqbc_dvbc)
            (b_ext, b_ext), (b_ext, ci), (ci, b_ext), (ci, ci),  # cbx
            (s_ext, s_ext), (s_ext, ci), (ci, s_ext), (ci, ci),  # cjs
        ]
        # Row/column node indices of the Jacobian entries, kept unflattened
        # for the charge replay's C @ dx and for seeding the compiled
        # sparsity pattern.
        self._g_rows_arr = cat([r for r, _ in g_pairs])
        self._g_cols_arr = cat([c for _, c in g_pairs])
        self._c_rows_arr = cat([r for r, _ in c_pairs])
        self._c_cols_arr = cat([c for _, c in c_pairs])

        #: The BJT kernel's base quantities (the views the kernel takes
        #: of their buffer, :func:`_base_views`) and every device's stamp
        #: values (rows as in ``_STAMP_BASE``) of the last evaluation,
        #: rewritten in place by the next: per-call buffers this size
        #: would cross the allocator's mmap threshold on large groups.
        self._base = _base_views(np.zeros((23, nb)))
        self._vals = np.zeros((46, n))
        #: Flat views of the I, G, Q and C rows of ``_vals``.
        self._flat = tuple(self._vals[rows].reshape(-1)
                           for rows in (_I, _G, _Q, _C))
        #: A scalar evaluation's scratch, overwritten by the next: the
        #: node voltages' view without the ground slot, the C stamps
        #: times alpha, and the replay's voltage steps, gathered.
        self._xg_nodes = xg[:size]
        self._c_scaled = np.empty_like(self._flat[3])
        self._dx_eval = np.empty(size + 1)
        self._dx_cols = np.empty_like(self._flat[3])
        #: gmin as the 0-d array the kernel takes, rebuilt when it moves.
        self._gmin_value = math.nan
        self._gmin = np.array(math.nan)
        #: The history of a group never evaluated; read, never written.
        self._no_history = np.full((2, n), np.nan)

        # -- the last evaluation: the point a charge replay linearizes at --
        #: Node voltages (ground slot included) ``_vals`` was evaluated at.
        self._x_eval = np.zeros(size + 1)
        #: The limits dict, gmin and stamps it ran under; the dict and
        #: stamps are compared by identity and held, so new ones miss.
        self._eval_limits: dict | None = None
        self._eval_gmin: float | None = None
        self._eval_stamps: LaneStamps | None = None

    # -- scatter-target binding -------------------------------------------------

    def bind_dense(self, g_flat: np.ndarray, c_flat: np.ndarray) -> None:
        """Scatter Jacobian stamps into dense buffers laid out as
        :func:`dense_buffer` lays them out: a C-order ``(size, size)``
        matrix, then one slot that absorbs every ground stamp."""
        self._g_flat = g_flat
        self._c_flat = c_flat
        self._g_idx = self._dense_index(self._g_rows_arr, self._g_cols_arr)
        self._c_idx = self._dense_index(self._c_rows_arr, self._c_cols_arr)

    def _dense_index(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        size = self.size
        return np.where((rows == size) | (cols == size), size * size,
                        rows * size + cols)

    def bind_sparse(self, pattern: SparsityPattern, g_data: np.ndarray,
                    c_data: np.ndarray) -> None:
        """Scatter Jacobian stamps directly into pattern data arrays.

        ``g_data``/``c_data`` are ``nnz + 1``-length value arrays over
        the same pattern (the trailing slot absorbs ground lanes), so
        one position lookup per slot family serves both targets — and
        the fused ``G + alpha*C`` path can scatter C values through
        ``_c_idx`` into ``g_data`` exactly as it does densely.
        """
        self._g_flat = g_data
        self._c_flat = c_data
        self._g_idx = pattern.positions(self._g_rows_arr, self._g_cols_arr)
        self._c_idx = pattern.positions(self._c_rows_arr, self._c_cols_arr)

    # -- evaluation -----------------------------------------------------------

    def _views(self, p: np.ndarray) -> tuple:
        """The BJT (:func:`_kernel_rows`) and the diode kernel's views of
        a ``(rows, ..., n)`` parameter block (``None``: no diodes)."""
        nb = self.nb
        if nb == self.n:
            return _kernel_rows(p), None
        return _kernel_rows(p[..., :nb]), p[_D_PARAMS, ..., nb:]

    def _evaluate(self, xg, history, gmin, rows, base, vals):
        """Both kernels at node voltages ``xg``, as :meth:`_stamp` (which
        a BJT-only group runs alone) over every device."""
        nb, (bjt_rows, diode_rows) = self.nb, rows
        if diode_rows is None:
            return self._stamp(self._controls(xg), history, gmin, base,
                               vals, bjt_rows)
        anode, cathode = self._junctions
        v_lim, limited = self._stamp_diodes(
            xg[..., anode] - xg[..., cathode], history[0, ..., nb:], gmin,
            vals[..., nb:], diode_rows)
        v_lim = np.broadcast_to(v_lim, (2, *v_lim.shape))
        if nb:
            bjt_lim, bjt_limited = self._stamp(
                self._controls(xg), history[..., :nb], gmin, base,
                vals[..., :nb], bjt_rows)
            v_lim = np.concatenate([bjt_lim, v_lim], axis=-1)
            if bjt_limited is not None:
                limited = bjt_limited if limited is None else (
                    limited | bjt_limited)
        return v_lim, limited

    def _controls(self, xg: np.ndarray) -> np.ndarray:
        """The BJTs' ``(9, ..., n)`` control voltages at node voltages ``xg``
        (``(size + 1,)``, or ``(L, size + 1)`` for a stack): (vbe, vbc)
        three times -- for pnjlim, the exponents and the depletion batch
        -- then vbx, vsc and the base-spreading drop vrb."""
        if xg.ndim == 1:
            return xg[self._plus] - xg[self._minus]
        v = xg[:, self._plus] - xg[:, self._minus]
        return np.ascontiguousarray(v.transpose(1, 0, 2))

    def _stamp(self, v, history, gmin, base, vals, rows):
        """The BJT kernel: a vectorized ``BJT.load_dynamic``.

        Arrays hold the quantity first, then any lane axes, then the
        devices.  ``v`` holds the ``(9, ..., n)`` control voltages
        (:meth:`_controls`), ``history`` the ``(2, ..., n)`` limiting
        history, ``gmin`` a 0-d array, ``rows`` the kernel's views of a
        parameter block (:func:`_kernel_rows`).  Writes the ``(23, ...,
        n)`` base quantities (layout above ``_STAMP_BASE``) through
        ``base``, the views :func:`_base_views` makes of their buffer,
        and the ``(46, ..., n)`` stamp values to ``vals``, and returns the
        limited ``(2, ..., n)`` junction voltages and the mask of lanes
        (shape ``(...)``) on which pnjlim limited a junction, or
        ``None`` when it limited none.  Purely elementwise, so every
        lane and device computes exactly what a one-device scalar call
        would; the two shortcuts on the data (no junction limited, no
        exponent above ``EXP_LIMIT``) return the general path's bits.
        """
        (nvt, nvt2, nvt4, nvt_tf, two_nvt, vcrit, isat, va, ik, beta, gsign,
         early_floor, q2_floor, itf, itf_num, itf_den, tf, xtf, tf_xtf,
         tf_xtf2, tr, rbm, rb_diff, rb_on, dep, sign) = rows
        (base, irb, grb, ic, ib, ie, dic_c, sum_e, sum_c, sum_ec, qbe, qbc,
         cpi, cmu, cx, cur, dic, dib, sums, dsum, d_e, d_c, depletion,
         below) = base
        v_raw = v[:2]
        v_lim, limit = _pnjlim_vec(v_raw, history, nvt2, two_nvt, vcrit)
        if limit is not None:
            v = v.copy()
            v[0:2] = v[2:4] = v[4:6] = v_lim

        # One exp: the B-E, B-C, B-E leakage and B-C leakage diodes, a
        # zero (vbe / inf) and the transit-time term vbc / (1.44 VTF).
        value, deriv = _limited_exp_vec(v[:6] / nvt)
        i4 = isat * (value[:4] - _ONE)
        g4 = isat * deriv[:4] / nvt4
        i1 = i4[:2] + gmin * v_lim
        g1 = g4[:2] + gmin
        ibe1, ibc1 = i1
        gbe1, gbc1 = g1

        # Base charge.  q1, sqarg and qb are one value per device, held
        # as two equal rows so that they meet the B-E/B-C pairs without
        # broadcasting; the clamps broadcast them onto the pair.
        t = v_lim / va  # (vbe / VAR, vbc / VAF)
        q1 = _ONE / np.maximum(_ONE - t[1] - t[0], early_floor)
        q2 = i1 / ik  # (ibe1 / IKF, ibc1 / IKR)
        sqarg = np.sqrt(_ONE + _FOUR * np.maximum(q2[0] + q2[1], q2_floor))
        half = (_ONE + sqarg) * _HALF
        qb = q1 * half
        dqb = q1 * q1 / va * half + q1 * (g1 / ik) / sqarg
        it = (ibe1 - ibc1) / qb

        # Terminal currents and their derivatives.
        np.divide(g1 * gsign - it * dqb, qb, out=dic)
        g_beta = g1 / beta  # (gbe1 / BF, gbc1 / BR)
        np.add(g_beta, g4[2:], out=dib)
        dic_c -= g_beta[1]
        dic_c -= g4[3]
        i_beta = i1 / beta
        np.subtract(it[0], i_beta[1], out=ic)
        ic -= i4[3]
        np.add(i_beta[0], i4[2], out=ib)
        ib += i_beta[1]
        ib += i4[3]
        np.add(dic, dib, out=sums)
        np.add(d_e, d_c, out=dsum)
        np.add(sum_e, sum_c, out=sum_ec)

        # Bias-dependent forward transit time.
        ibe_pos = np.maximum(ibe1, _ZERO)
        denom = ibe_pos + itf_den
        w = (ibe_pos + itf_num) / denom
        exp_vbc = deriv[5]
        tf_eff = tf * (_ONE + xtf * w * w * exp_vbc)
        dtf_dvbe = tf_xtf2 * w * (gbe1 * itf / (denom * denom)) * exp_vbc
        dtf_dvbc = tf_xtf * w * w * (exp_vbc / nvt_tf)

        # Charges: depletion (rows 14:22), then diffusion on top.
        qb = qb[0]
        dqb_dvbe, dqb_dvbc = dqb
        qde = tf_eff * ibe1 / qb
        np.divide(dtf_dvbc * ibe1 - qde * dqb_dvbc, qb, out=cx)
        _depletion(v[4:8], dep, depletion, below)
        qbe += qde
        qbc += tr * ibc1
        cpi += (dtf_dvbe * ibe1 + tf_eff * gbe1 - qde * dqb_dvbe) / qb
        cmu += tr * gbc1

        rbb = rbm + rb_diff / qb
        np.divide(rb_on, np.maximum(rbb, _RBB_FLOOR), out=grb)
        np.multiply(grb, v[8], out=irb)

        limited = None
        if limit is not None:
            # Residual-consistent companion form around the limited
            # voltages, on each lane whose own evaluation limited a
            # junction (a lane on its own takes the shortcut otherwise).
            dbe, dbc = v_raw - v_lim
            limited = np.any(limit, axis=(0, -1))
            lanes = limited[..., None]
            np.copyto(cur, cur + d_e * dbe + d_c * dbc, where=lanes)
            np.copyto(qbe, qbe + cpi * dbe + cx * dbc, where=lanes)
            np.copyto(qbc, qbc + cmu * dbc, where=lanes)
        np.add(ic, ib, out=ie)

        base.take(_STAMP_BASE, axis=0, out=vals, mode="clip")
        vals *= sign
        return v_lim, limited

    def _stamp_diodes(self, v, history, gmin, vals, rows):
        """The diode kernel: a vectorized ``Diode.load_dynamic`` of the
        ``(..., n)`` junction voltages ``v``, as :meth:`_stamp` (stamp
        rows as in ``_D_STAMP``)."""
        isat, nvt, two_nvt, vcrit, tt = rows[:5]
        v_lim, limit = _pnjlim_vec(v, history, nvt, two_nvt, vcrit)
        value, deriv = _limited_exp_vec(v_lim / nvt)
        base = np.zeros((9, *v.shape))
        i, g, q, c = base[:4]
        np.add(isat * (value - _ONE), gmin * v_lim, out=i)
        np.add(isat * deriv / nvt, gmin, out=g)
        # At v's shape: numpy's power takes a sqrt for a broadcast
        # exponent of 0.5 (M = 0.5), which rounds unlike the scalar path.
        _depletion(v_lim, np.broadcast_to(rows[5:], (10, *v.shape)).copy(),
                   base[2:4])
        q += tt * i
        c += tt * g
        limited = None
        if limit is not None:
            # The companion form on each lane that limited, as in _stamp.
            limited = np.any(limit, axis=-1)
            np.copyto(base[0:4:2], base[0:4:2] + base[1:4:2] * (v - v_lim),
                      where=limited[..., None])
        np.negative(base[:4], out=base[4:8])
        np.take(base, _D_STAMP, axis=0, out=vals, mode="clip")
        return v_lim, limited

    def _scatter(self, jac_alpha: float | None, jacobian: bool) -> None:
        """Scatter the last evaluation's stamps into the bound buffers.

        With ``jac_alpha`` set (fused-Jacobian assembly) the capacitive
        stamps scatter into the conductance buffer scaled by alpha
        instead of into the (unmaintained) C buffer; without
        ``jacobian`` only the I and Q stamps scatter.
        """
        i_vals, g_vals, q_vals, c_vals = self._flat
        np.add.at(self._i_full, self._i_rows, i_vals)
        if jacobian:
            np.add.at(self._g_flat, self._g_idx, g_vals)
            if jac_alpha is not None:
                np.add.at(self._g_flat, self._c_idx,
                          np.multiply(c_vals, jac_alpha, out=self._c_scaled))
            else:
                np.add.at(self._c_flat, self._c_idx, c_vals)
        np.add.at(self._q_full, self._q_rows, q_vals)

    def _scatter_charges(self, xg: np.ndarray) -> None:
        """Add the last evaluation's charges, linearized to ``xg``:
        ``q += Q + C @ (x - x_eval)``."""
        _, _, q_vals, c_vals = self._flat
        np.add.at(self._q_full, self._q_rows, q_vals)
        np.subtract(xg, self._x_eval, out=self._dx_eval)
        dq = self._dx_eval.take(self._c_cols_arr, out=self._dx_cols)
        np.add.at(self._q_full, self._c_rows_arr,
                  np.multiply(c_vals, dq, out=dq))

    def load(self, ctx: LoadContext, charges_only: bool = False,
             stamps: LaneStamps | None = None,
             jac_alpha: float | None = None,
             residual_only: bool = False) -> int:
        """Stamp every device of the group; mirrors its ``load_dynamic``.

        ``stamps``, when given, is a one-lane :class:`LaneStamps` whose
        parameter block the devices evaluate with (default: the group's
        own).  ``charges_only=True`` right after an evaluation under the
        same limits dict, gmin and stamps is a charge replay: the group
        adds that evaluation's charges, linearized to ``ctx.x`` with its
        capacitances, evaluates nothing and returns ``n``, the number of
        device evaluations replayed.  Every other call evaluates every
        device, scatters its stamps -- only the I and Q stamps when
        ``residual_only``, the C stamps into G scaled by ``jac_alpha``
        when that is set (see :meth:`CompiledCircuit.evaluate`) --, sets
        ``ctx.limited`` if pnjlim limited a junction, and returns 0.
        """
        xg = self._xg  # its ground slot stays 0
        np.copyto(self._xg_nodes, ctx.x)
        limits = ctx.limits
        gmin = ctx.gmin
        if (charges_only and self._eval_limits is limits
                and self._eval_gmin == gmin
                and self._eval_stamps is stamps):
            self._scatter_charges(xg)
            return self.n
        if gmin != self._gmin_value:
            self._gmin_value = gmin
            self._gmin = np.array(gmin)
        v_lim, limited = self._evaluate(
            xg, limits.get(self, self._no_history), self._gmin,
            self._rows if stamps is None
            else self._views(stamps.params[:, 0]),
            self._base, self._vals,
        )
        if limited is not None:
            ctx.limited = True
        # A compact copy: the kernel's own may be a view that would keep
        # the whole (9, n) controls array alive for as long as the
        # history is kept.
        limits[self] = v_lim.copy()
        np.copyto(self._x_eval, xg)
        self._eval_limits = limits
        self._eval_gmin = gmin
        self._eval_stamps = stamps
        self._scatter(jac_alpha, not residual_only)
        return 0

    def load_stacked(
        self,
        x_stack: np.ndarray,
        gmin: float,
        history: np.ndarray | None,
        i_full: np.ndarray,
        q_full: np.ndarray,
        g_flat: np.ndarray,
        c_flat: np.ndarray | None = None,
        params: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stamp every device for a ``(L, n)`` stack of solutions at once;
        returns the ``(L,)`` mask of lanes on which pnjlim limited a
        junction.

        The same kernels as an evaluating :meth:`load` with a lane axis,
        so each lane's stamps are bit-identical to a scalar :meth:`load`
        at that lane's ``x``.  ``history`` is the ``(L, 2, n)`` pnjlim
        history (NaN: none yet), overwritten in place with this
        evaluation's limited voltages, or ``None``.  ``params`` is a
        ``(rows, L, n)`` parameter block, one per lane (see
        :meth:`CompiledCircuit.lane_stamps`), or a shared ``(rows, 1,
        n)`` one (default: the group's own); lane ``k`` stamps what a
        group compiled from lane ``k``'s devices would.  Scatter
        targets are per-lane flats (``i_full``/``q_full`` are ``(L, size+1)``,
        ``g_flat``/``c_flat`` are ``(L, flat)``); the ``np.add.at``
        broadcast iterates lane-major, preserving each lane's scalar
        accumulation order over duplicate slots.  The last scalar
        evaluation (stamps and anchor) is never touched, so an
        interleaved scalar charge replay stays coherent.
        """
        L, n = x_stack.shape[0], self.n
        xg = np.zeros((L, self.size + 1))
        xg[:, : self.size] = x_stack
        vals = np.empty((46, L, n))
        v_lim, limited = self._evaluate(
            xg,
            (self._no_history[:, None, :] if history is None
             else history.transpose(1, 0, 2)),
            np.array(gmin),
            self._views(self.params if params is None else params),
            _base_views(np.empty((23, L, self.nb))), vals,
        )
        if history is not None:
            history[...] = v_lim.transpose(1, 0, 2)
        vals = vals.transpose(1, 0, 2)
        lane = np.arange(L)[:, None]
        np.add.at(i_full, (lane, self._i_rows), vals[:, _I].reshape(L, -1))
        np.add.at(g_flat, (lane, self._g_idx), vals[:, _G].reshape(L, -1))
        if c_flat is not None:
            np.add.at(c_flat, (lane, self._c_idx), vals[:, _C].reshape(L, -1))
        np.add.at(q_full, (lane, self._q_rows), vals[:, _Q].reshape(L, -1))
        return np.zeros(L, dtype=bool) if limited is None else limited


class _CooContext(LoadContext):
    """Probe context recording linear Jacobian stamps as COO triples.

    The compile-time ``load_static`` probe runs through this instead of
    a dense :class:`LoadContext`: residual vectors accumulate normally,
    but G/C stamps are kept as ``(row, col, value)`` triples.  The same
    triples then seed the sparsity pattern *and* densify into ``G0``/
    ``C0`` for the dense path — ``np.add.at`` applies duplicates in
    recorded order, so the densified matrices are bit-identical to the
    sequential ``+=`` probe they replace.
    """

    def __init__(self, size: int):
        # Residual and charge vectors only: G/C stamps never reach a
        # matrix, so the probe costs O(stamps), not O(size^2).
        super().__init__(size, np.zeros(size), None, 0.0, source_scale=0.0,
                         buffers=(np.zeros(size), None, np.zeros(size), None))
        self.g_rows: list[int] = []
        self.g_cols: list[int] = []
        self.g_vals: list[float] = []
        self.c_rows: list[int] = []
        self.c_cols: list[int] = []
        self.c_vals: list[float] = []

    def add_g(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.g_rows.append(row)
            self.g_cols.append(col)
            self.g_vals.append(value)

    def add_c(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.c_rows.append(row)
            self.c_cols.append(col)
            self.c_vals.append(value)

    @staticmethod
    def densify(size, rows, cols, vals) -> np.ndarray:
        out = np.zeros((size, size))
        if rows:
            np.add.at(
                out,
                (np.asarray(rows, dtype=np.intp),
                 np.asarray(cols, dtype=np.intp)),
                np.asarray(vals),
            )
        return out

    @staticmethod
    def scatter(pattern: SparsityPattern, rows, cols, vals) -> np.ndarray:
        """Accumulate the triples into an ``nnz + 1`` data array."""
        out = np.zeros(pattern.nnz + 1)
        if rows:
            pos = pattern.positions(
                np.asarray(rows, dtype=np.intp),
                np.asarray(cols, dtype=np.intp),
            )
            np.add.at(out, pos, np.asarray(vals))
        return out



# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


#: Device parameter blocks an engine keeps for :meth:`CompiledCircuit.
#: lane_stamps`, oldest dropped first: one per distinct device list (a
#: default qualification has three temperatures).
_BJT_BLOCKS_KEPT = 16


def _group_devices(circuit: Circuit) -> tuple:
    """``circuit``'s plain BJTs, then its plain diodes: group columns."""
    return (tuple(e for e in circuit if type(e) is BJT)
            + tuple(e for e in circuit if type(e) is Diode))


def _waveform_key(element):
    """What a lane's source shares with the engine's: DC (its level is a
    lane value), or the type and fields of the waveform the engine reads
    from its own source objects.  ``None`` for any other element."""
    if is_dc_source(element):
        return "DC"
    waveform = getattr(element, "waveform", None)
    return None if waveform is None else (type(waveform), vars(waveform))


def _topology(circuit: Circuit, probe: _CooContext) -> tuple:
    """Each element's kind, name, bound unknowns and source waveform
    (:func:`_waveform_key`), in circuit order, and the probe's stamp
    slots in recorded order: what a lane's circuit must share with the
    engine it rides on."""
    elements = tuple((type(e), e.name, tuple(e.node_index),
                      tuple(e.branch_index), _waveform_key(e))
                     for e in circuit)
    return (elements, tuple(probe.g_rows), tuple(probe.g_cols),
            tuple(probe.c_rows), tuple(probe.c_cols))


class LaneStamps:
    """The values a compiled engine evaluates with, one lane per circuit.

    Lane ``k`` carries its own linear stamps -- ``g0``/``c0`` in the
    engine's assembly form (``(L, size, size)`` dense matrices or
    ``(L, nnz + 1)`` pattern values; on a sparse engine ``csr`` adds
    each lane's ``(G0, C0)`` CSR pair for the matvecs) --, its ``(rows,
    L, n)`` device parameter block (``None`` without BJTs and diodes)
    and its ``(L, size)`` DC source vector ``src``.  Lanes that differ
    in source levels alone share one lane of everything but ``src``,
    broadcast.
    :attr:`CompiledCircuit.stamps` is the engine's own one lane,
    :meth:`CompiledCircuit.lane_stamps` builds one lane per circuit the
    same way, :meth:`CompiledCircuit.at_levels` sets its source levels,
    :meth:`concat` joins lanes and :meth:`take` selects them; lane ``k``
    holds exactly what compiling its own circuit would build.
    """

    __slots__ = ("g0", "c0", "csr", "src", "params")

    def __init__(self, g0, c0, csr, src, params):
        self.g0 = g0
        self.c0 = c0
        self.csr = csr
        self.src = src
        self.params = params

    def __len__(self) -> int:
        return len(self.src)

    @property
    def nbytes(self) -> int:
        """Bytes of the per-lane arrays (a lane's CSR pair shares the
        size of its pattern values)."""
        return sum(a.nbytes for a in (self.g0, self.c0, self.src,
                                      self.params) if a is not None)

    def take(self, index) -> "LaneStamps":
        """The lanes at ``index`` (an integer array), in that order."""
        src = self.src[index]
        if len(self.g0) == 1:
            # One lane of values, shared by every lane.
            return LaneStamps(self.g0, self.c0, self.csr, src, self.params)
        return LaneStamps(
            self.g0[index], self.c0[index],
            None if self.csr is None else [self.csr[k] for k in index],
            src,
            None if self.params is None else self.params[:, index],
        )

    @staticmethod
    def concat(stamps: list) -> "LaneStamps":
        """The lanes of every element of ``stamps`` (each a lane of its
        own values), in order."""
        first = stamps[0]
        return LaneStamps(
            np.concatenate([s.g0 for s in stamps]),
            np.concatenate([s.c0 for s in stamps]),
            None if first.csr is None
            else [pair for s in stamps for pair in s.csr],
            np.concatenate([s.src for s in stamps]),
            None if first.params is None
            else np.concatenate([s.params for s in stamps], axis=1),
        )


class StackedContext:
    """Lane-stacked assembly returned by
    :meth:`CompiledCircuit.evaluate_stacked`.

    ``i``/``q`` are ``(L, size)`` stacks; ``g``/``c`` are ``(L, size,
    size)`` dense stacks or ``(L, nnz)`` pattern-value stacks depending
    on the engine's assembly backend (``c`` is ``None`` unless requested).
    Row ``k`` holds exactly what a scalar ``evaluate`` at lane ``k``'s
    solution and limiting history would have produced: both paths run
    the same device kernel (:meth:`BJTGroup._stamp`).  ``limited`` is
    the ``(L,)`` mask of lanes whose evaluation limited a junction, the
    stacked form of ``LoadContext.limited``.
    """

    __slots__ = ("i", "g", "q", "c", "limited")

    def __init__(self, i, g, q, c, limited):
        self.i = i
        self.g = g
        self.q = q
        self.c = c
        self.limited = limited


def dense_buffer(size: int, *lanes: int) -> tuple:
    """A dense assembly buffer and its matrix view: ``size * size + 1``
    zeros (per lane, given ``lanes``), the C-order ``(size, size)``
    matrix first and one trailing slot that absorbs every ground stamp
    (:meth:`BJTGroup.bind_dense`), which no reader sees."""
    flat = np.zeros((*lanes, size * size + 1))
    return flat, flat[..., : size * size].reshape(*lanes, size, size)


class StepBuffers:
    """The vectors a scalar Newton iteration and a transient step write
    in place, one set per engine (:attr:`CompiledCircuit.buffers`).

    :func:`~repro.spice.dcop.newton_solve` owns ``rhs`` (the negated
    residual it solves for), ``term`` (the integration term, then the
    gshunt current), ``scale`` and ``error`` (its step-size test) for
    the length of one iteration;
    :func:`~repro.spice.transient.solve_transient` owns ``predicted``
    (the predictor, Newton's initial guess) for one step and ``delta``
    (the predictor's scratch, then the corrector-predictor difference),
    and runs its LTE test in ``scale`` and ``error`` once Newton has
    returned.  Each is overwritten at its next use.
    """

    __slots__ = ("rhs", "term", "scale", "error", "predicted", "delta")

    def __init__(self, size: int):
        for name, row in zip(self.__slots__,
                             np.empty((len(self.__slots__), size))):
            setattr(self, name, row)


class CompiledCircuit:
    """Compile-once, evaluate-many circuit engine.

    Construction partitions the elements, stamps the linear part into
    cached ``G0``/``C0`` matrices (the one lane :attr:`stamps`),
    precomputes source RHS rows and builds the vectorized BJT group.
    :meth:`evaluate` then assembles the full system into preallocated
    buffers and returns a
    :class:`~repro.spice.mna.LoadContext` over them — the same object
    the per-element stamp reference (:func:`~repro.spice.mna.load_circuit`)
    returns.

    ``mode`` pins the backend (``"dense"``/``"sparse"``); ``None`` or
    ``"auto"`` lets :func:`repro.spice.solvercost.choose` decide from
    the unknown count and the compiled pattern's non-zeros.  Assembly
    and linear solver both follow the decision.

    The returned context's arrays are *views into engine-owned buffers*:
    they are overwritten by the next :meth:`evaluate` call.  Analyses
    copy what they need to keep.
    """

    def __init__(self, circuit: Circuit, mode: str | None = None):
        t0 = _time.perf_counter()
        self.circuit = circuit
        size = circuit.assign_indices()
        self.size = size
        self.num_nodes = len(circuit.node_map)
        self.generation = circuit._generation
        self.stats = EngineStats()
        if mode not in (None, "auto", "dense", "sparse"):
            raise AnalysisError(
                f"unknown assembly mode {mode!r}; expected 'auto', "
                "'dense' or 'sparse'"
            )

        sources = [e for e in circuit if e.has_time_varying_rhs()]
        devices = _group_devices(circuit)
        if len(devices) != sum(e.is_nonlinear() for e in circuit):
            raise AnalysisError("the engine evaluates no nonlinear element "
                                "but plain BJTs and diodes")
        #: (element, [(row, coeff), ...]) pairs of the sources whose
        #: value is re-read from the engine's own waveform per evaluation.
        #: Sources with a constant (DC) waveform are folded into each
        #: lane's source vector instead (``LaneStamps.src``), so the
        #: per-evaluation python loop only visits true waveform sources.
        self._source_rows = [(e, list(e.rhs_rows())) for e in sources
                             if not is_dc_source(e)]
        #: Each DC source's name and ``(row, coeff)`` entries, in
        #: circuit order: where a lane's levels fold in (at_levels).
        self._dc_sources = tuple((e.name, tuple(e.rhs_rows()))
                                 for e in sources if is_dc_source(e))
        self._eval_cost = len(sources) + len(devices)

        # Constant linear stamps, captured by probing load_static with
        # x = 0 and source_scale = 0: every linear element then stamps
        # exactly its Jacobian and a zero residual.  The probe records
        # COO triples so the same pass seeds the symbolic sparsity
        # pattern and (in dense mode) densifies into G0/C0.
        probe = _CooContext(size)
        for element in circuit:
            element.load_static(probe)
        # What a lane's circuit must share with this one (lane_stamps).
        self._topology = _topology(circuit, probe)

        # Evaluation vectors carry a dummy entry ``size`` that absorbs
        # ground stamps from the vectorized group (matrices: their
        # trailing slot).
        n1 = size + 1
        self._i_full = np.zeros(n1)
        self._q_full = np.zeros(n1)
        self._xg = np.zeros(n1)

        self._bjt_blocks: dict[tuple, tuple] = {}
        self._bjt_group = (
            BJTGroup(devices, size, self._i_full, self._q_full, self._xg,
                     self._bjt_block(devices))
            if devices
            else None
        )

        # -- symbolic pattern: every stamp slot any evaluation can touch --
        slot_rows = [np.asarray(probe.g_rows + probe.c_rows, dtype=np.intp),
                     np.arange(size, dtype=np.intp)]  # gshunt diagonal
        slot_cols = [np.asarray(probe.g_cols + probe.c_cols, dtype=np.intp),
                     np.arange(size, dtype=np.intp)]
        if self._bjt_group is not None:
            group = self._bjt_group
            slot_rows += [group._g_rows_arr, group._c_rows_arr]
            slot_cols += [group._g_cols_arr, group._c_cols_arr]
        self.pattern = SparsityPattern(
            size, np.concatenate(slot_rows), np.concatenate(slot_cols)
        )

        # -- the one dense/sparse decision ---------------------------------
        if mode in (None, "auto"):
            backend = choose_backend(size, self.pattern.nnz)
        else:
            backend = mode
        self.assembly = backend
        #: The engine's own values: one lane, built as lane_stamps builds
        #: any circuit's.
        self.stamps = self._lane(circuit, probe)
        nodes = np.arange(self.num_nodes)
        if backend == "sparse":
            pattern = self.pattern
            self._g_data = np.zeros(pattern.nnz + 1)
            self._c_data = np.zeros(pattern.nnz + 1)
            self._g = PatternMatrix(pattern, self._g_data)
            self._c = PatternMatrix(pattern, self._c_data)
            if self._bjt_group is not None:
                self._bjt_group.bind_sparse(
                    pattern, self._g_data, self._c_data
                )
            #: The flat array an evaluation's Jacobian ``g_mat`` lives
            #: in, and the positions of its node diagonal there, where the
            #: Newton loops add the gshunt conductance: the pattern's
            #: values here, a stacked lane's too; the
            #: :func:`dense_buffer` on a dense engine.
            self.jacobian_data = self._g_data
            self.node_diagonal = pattern.positions(nodes, nodes)
            self.stats.pattern_nnz = pattern.nnz
            #: Where :meth:`evaluate` assembles G and C.
            self._g_target, self._c_target = self._g_data, self._c_data
        else:
            g_flat, self._g = dense_buffer(size)
            c_flat, self._c = dense_buffer(size)
            if self._bjt_group is not None:
                self._bjt_group.bind_dense(g_flat, c_flat)
            self.jacobian_data = g_flat
            self.node_diagonal = nodes * (size + 1)
            self._g_target, self._c_target = self._g, self._c
        #: The residual and charge vectors an evaluation returns.
        self._i = self._i_full[:size]
        self._q = self._q_full[:size]
        #: The engine's own lane, bound for :meth:`evaluate`.
        self._own = self._lane_views(self.stamps)
        #: Scratch of the scalar Newton iteration and transient step.
        self.buffers = StepBuffers(size)
        self._tolerance_vectors: dict = {}

        #: The engine's one LU object; every analysis solves through it.
        self.solver = make_solver(
            backend, permc_spec=getattr(circuit, "_permc_spec", None)
        )
        self.solver.stats = self.stats
        self.stats.solver = self.solver.name
        self.stats.assembly = backend
        self.stats.compilations += 1
        self.stats.wall_seconds += _time.perf_counter() - t0

    def _linear_stamps(self, probe: _CooContext) -> tuple:
        """``(g0, c0, g_dot, c_dot)``: a probe's G/C stamps in this
        engine's assembly form -- dense ``(size, size)`` matrices, or
        ``nnz + 1`` pattern values whose CSR copies serve the residual
        and charge matvecs ``G0 @ x`` and ``C0 @ x`` -- accumulated in
        the probe's recorded order."""
        g = (probe.g_rows, probe.g_cols, probe.g_vals)
        c = (probe.c_rows, probe.c_cols, probe.c_vals)
        if self.assembly == "sparse":
            g0 = _CooContext.scatter(self.pattern, *g)
            c0 = _CooContext.scatter(self.pattern, *c)
            return (g0, c0, self.pattern.csc(g0).tocsr(),
                    self.pattern.csc(c0).tocsr())
        g0 = _CooContext.densify(self.size, *g)
        c0 = _CooContext.densify(self.size, *c)
        return g0, c0, g0, c0

    def lane_stamps(self, circuit: Circuit) -> LaneStamps:
        """``circuit`` as one lane of :class:`LaneStamps`, for
        :meth:`evaluate` and :meth:`evaluate_stacked`.

        The lane is built as the compile builds the engine's own
        (:meth:`_lane`), so it evaluates bit for bit as an engine
        compiled from ``circuit`` would.  ``circuit`` may differ from
        the engine's in element values, device model parameters and DC
        source levels only: the same elements (kind and name) on the
        same unknowns in the same order, the engine's BJT polarities,
        each source DC in both circuits or carrying an equal waveform.
        Anything else raises :class:`~repro.errors.AnalysisError`.
        """
        size = circuit.assign_indices()
        probe = _CooContext(size)
        for element in circuit:
            element.load_static(probe)
        if size != self.size or _topology(circuit, probe) != self._topology:
            raise AnalysisError(
                f"circuit {circuit.title!r} does not share the engine's "
                "topology: a lane needs the same elements on the same "
                "unknowns in the same order, and each source DC in both "
                "circuits or carrying an equal waveform"
            )
        return self._lane(circuit, probe)

    def at_levels(self, stamps: LaneStamps, circuit: Circuit,
                  levels: list) -> LaneStamps:
        """``len(levels)`` lanes of ``stamps``' values (one lane shared
        by every lane, or one per lane), lane ``k`` at ``circuit``'s DC
        source levels with those named in ``levels[k]`` (a dict, source
        name to level) set: each evaluates bit for bit as an engine
        compiled from its circuit written at those levels would.  The
        one rule for which sources a sweep may set: a name that is not
        an independent source with a DC waveform raises
        :class:`~repro.errors.AnalysisError`."""
        index = {name.upper(): j
                 for j, (name, _) in enumerate(self._dc_sources)}
        table = np.tile([circuit.element(name).source_value(None)
                         for name, _ in self._dc_sources], (len(levels), 1))
        for k, point in enumerate(levels):
            for name, level in point.items():
                if name.upper() not in index:
                    raise AnalysisError(
                        f"{name!r} is not an independent source with a DC "
                        "waveform; a sweep sets DC source levels only")
                table[k, index[name.upper()]] = level
        src = np.zeros((len(levels), self.size))
        for j, (_, rows) in enumerate(self._dc_sources):
            for row, coeff in rows:
                src[:, row] += coeff * table[:, j]
        return LaneStamps(stamps.g0, stamps.c0, stamps.csr, src,
                          stamps.params)

    def _lane(self, circuit: Circuit, probe: _CooContext) -> LaneStamps:
        """``circuit``'s values (its ``probe``d linear stamps, device
        block, DC source levels) as one lane in this engine."""
        params = None
        group = self._bjt_group
        if group is not None:
            _, sign, params = self._bjt_block(_group_devices(circuit))
            if not np.array_equal(sign, group._sign):
                raise AnalysisError(
                    f"circuit {circuit.title!r} changes a BJT's polarity; "
                    "a lane needs the engine's npn/pnp devices"
                )
        g0, c0, g_dot, c_dot = self._linear_stamps(probe)
        values = LaneStamps(
            g0[None], c0[None],
            [(g_dot, c_dot)] if self.assembly == "sparse" else None,
            None, params,
        )
        return self.at_levels(values, circuit, [{}])

    def _bjt_block(self, devices: tuple) -> tuple:
        """:func:`_bjt_columns` and :func:`_diode_columns` of a device
        group's ``devices`` (:func:`_group_devices`), the parameter block
        read-only and lane-broadcast ``(rows, 1, n)``, run once per
        device list: the compile's group and every lane (:meth:`_lane`)
        take their block from here.  Variants
        that share their device objects (a temperature's passive-scale
        variants) share one block.  The cache is keyed by the devices
        themselves and keeps them alive, so a block is never served to
        other objects that reuse a dropped device's id."""
        block = self._bjt_blocks.get(devices)
        if block is None:
            nb = sum(type(d) is BJT for d in devices)
            nodes, sign, params = _bjt_columns(list(devices[:nb]), self.size)
            d_nodes, d_params = _diode_columns(list(devices[nb:]), self.size)
            params = np.concatenate([params, d_params], axis=1)[:, None, :]
            params.flags.writeable = False
            if len(self._bjt_blocks) >= _BJT_BLOCKS_KEPT:
                del self._bjt_blocks[next(iter(self._bjt_blocks))]
            block = self._bjt_blocks[devices] = (
                np.concatenate([nodes, d_nodes], axis=1), sign, params)
        return block

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        x: np.ndarray,
        time: float | None = None,
        gmin: float = 1e-12,
        limits: dict | None = None,
        source_scale: float = 1.0,
        jac_alpha: float | None = None,
        charges_only: bool = False,
        residual_only: bool = False,
        stamps: LaneStamps | None = None,
    ) -> LoadContext:
        """Assemble I, G, Q, C at candidate ``x``; returns a LoadContext
        whose arrays are views into the engine's reusable buffers.

        ``stamps``, one lane from :meth:`lane_stamps`, evaluates that
        lane's circuit bit for bit as an engine compiled from it would
        (default: the engine's own, :attr:`stamps`).

        ``jac_alpha`` (transient hot path) fuses the integration formula
        into assembly: ``g_mat`` is built directly as ``G + alpha*C``
        (one dense pass instead of two copies plus a dense
        multiply-add in Newton) and ``c_mat`` is left
        untouched.  ``charges_only=True`` assembles just ``q_vec`` — the
        contract for the converged-point context handed back to the
        integrator, whose accept path reads nothing else; ``i_vec``,
        ``g_mat`` and ``c_mat`` are stale buffers in that mode.  Right
        after an evaluation under the same ``limits`` dict, ``gmin``
        and ``stamps`` the device group then replays its charges,
        linearized to ``x`` (see :meth:`BJTGroup.load`), instead of
        re-evaluating; those device evaluations are counted in
        ``stats.bypassed_evals``.
        ``residual_only=True`` assembles ``i_vec``/``q_vec`` in full and
        leaves ``g_mat`` and ``c_mat`` stale: no base copy, and the
        device group scatters no Jacobian stamp — the contract for chord-Newton
        iterations that will reuse a cached factorization.
        """
        own = stamps is None or stamps is self.stamps
        if own:
            g0, c0, g_dot, c_dot, src = self._own
        elif len(stamps) != 1:
            raise AnalysisError(
                f"evaluate takes one lane of stamps, got {len(stamps)}")
        else:
            g0, c0, g_dot, c_dot, src = self._lane_views(stamps)
        i, g, q, c = self._i, self._g, self._q, self._c
        g_target, c_target = self._g_target, self._c_target
        # Sparse: flat nnz-length assembly, where no (n, n) buffer
        # exists, let alone gets written; the constant stamps are CSR
        # matvecs (O(nnz)) and base-value copies into the pattern data.
        sparse = self.assembly == "sparse"
        if sparse:
            q[:] = c_dot.dot(x)
        else:
            np.matmul(c_dot, x, out=q)  # as evaluate_stacked's (not np.dot)
        if not (charges_only or residual_only):
            if jac_alpha is not None:
                np.multiply(c0, jac_alpha, out=g_target)
                g_target += g0
            else:
                np.copyto(g_target, g0)
                np.copyto(c_target, c0)
        if not charges_only:
            if sparse:
                i[:] = g_dot.dot(x)
            else:
                np.matmul(g_dot, x, out=i)
            self._add_sources(i, src, time, source_scale)

        ctx = LoadContext(
            self.size, x, time, gmin, source_scale, buffers=(i, g, q, c)
        )
        if limits is not None:
            ctx.limits = limits

        bypassed = 0
        if self._bjt_group is not None:
            bypassed = self._bjt_group.load(
                ctx, charges_only, None if own else stamps, jac_alpha,
                residual_only)

        stats = self.stats
        stats.assemblies += 1
        if sparse:
            stats.sparse_assemblies += 1
        else:
            stats.dense_assemblies += 1
        stats.element_evals += self._eval_cost - bypassed
        if bypassed:
            stats.bypassed_evals += bypassed
        return ctx

    def _lane_views(self, stamps: LaneStamps) -> tuple:
        """``(g0, c0, g_dot, c_dot, src)`` of a one-lane ``stamps``: its
        linear stamps in assembly form, the matrices of its residual and
        charge matvecs (on a dense engine ``g0`` and ``c0`` again) and
        its DC source vector."""
        g0, c0 = stamps.g0[0], stamps.c0[0]
        g_dot, c_dot = stamps.csr[0] if stamps.csr is not None else (g0, c0)
        return g0, c0, g_dot, c_dot, stamps.src[0]

    def tolerance_vector(self, node_tol: float,
                         branch_tol: float) -> np.ndarray:
        """The per-unknown absolute tolerance: ``node_tol`` on the node
        voltages, ``branch_tol`` on the branch currents.  Built once per
        pair and read-only."""
        key = (node_tol, branch_tol)
        vector = self._tolerance_vectors.get(key)
        if vector is None:
            vector = np.full(self.size, branch_tol)
            vector[:self.num_nodes] = node_tol
            vector.flags.writeable = False
            self._tolerance_vectors[key] = vector
        return vector

    def _add_sources(self, i, src, time, source_scale) -> None:
        """Add the sources to the residual ``i`` (one lane's, or a
        stack's): the lanes' DC source vectors ``src``, then every other
        waveform's value at ``time``, scaled by ``source_scale`` (none
        at 0)."""
        if source_scale == 0.0:
            return
        i += src if source_scale == 1.0 else src * source_scale
        for element, rows in self._source_rows:
            value = element.source_value(time) * source_scale
            if value != 0.0:
                for row, coeff in rows:
                    i[..., row] += coeff * value

    def new_history(self, lanes: int) -> np.ndarray:
        """A ``(lanes, 2, n)`` device limiting history for
        :meth:`evaluate_stacked` in which no lane has been evaluated yet
        (all NaN) — the stacked form of one fresh ``limits`` dict per
        lane."""
        n = 0 if self._bjt_group is None else self._bjt_group.n
        return np.full((lanes, 2, n), np.nan)

    def evaluate_stacked(
        self,
        x_stack: np.ndarray,
        gmin: float = 1e-12,
        history: np.ndarray | None = None,
        source_scale: float = 1.0,
        with_c: bool = False,
        lanes: LaneStamps | None = None,
    ) -> "StackedContext":
        """Assemble I, G (and optionally C, Q) for a ``(L, n)`` solution
        stack in one vectorized pass.

        The lane-stacked twin of :meth:`evaluate` at its DC defaults
        (``time=None``): every lane's arrays are
        bit-identical to a scalar :meth:`evaluate` at that lane's ``x``
        with that lane's limiting history.  ``history`` is a
        ``(L, 2, n)`` array from :meth:`new_history`, read and then
        overwritten in place with this evaluation's limited junction
        voltages; ``None`` evaluates every lane without history and
        keeps none.  ``lanes`` is one lane of :class:`LaneStamps` per
        row of ``x_stack`` (see :meth:`lane_stamps`): lane ``k`` then
        assembles with its own linear stamps, device parameters and
        source vector, bit-identical to an engine compiled from lane ``k``'s
        circuit.  One lane of values shared by source-level lanes
        (:meth:`at_levels`) broadcasts, and by default every row shares
        the engine's own one lane, :attr:`stamps`.  On a dense engine the
        base-stamp matvecs ``G0 @ x`` and ``C0 @ x`` are one stacked
        ``np.matmul`` each, a matrix-vector product per lane like the
        scalar one; a sparse engine runs its CSR matvecs per lane.
        Everything device-side runs stacked through
        :meth:`BJTGroup.load_stacked`, the kernels the scalar path runs.
        Buffers are freshly allocated per call — unlike
        :meth:`evaluate`, the returned views survive subsequent calls.
        """
        size = self.size
        n1 = size + 1
        L = x_stack.shape[0]
        sparse = self.assembly == "sparse"
        if lanes is None:
            lanes = self.stamps
        elif len(lanes) != L:
            raise AnalysisError(
                f"{len(lanes)} lane stamps for {L} stacked solutions")
        i_full = np.zeros((L, n1))
        q_full = np.zeros((L, n1))
        c_buf = c_view = None
        if sparse:
            csr = lanes.csr if len(lanes.csr) == L else lanes.csr * L
            for k, (g_dot, c_dot) in enumerate(csr):
                i_full[k, :size] = g_dot.dot(x_stack[k])
                q_full[k, :size] = c_dot.dot(x_stack[k])
            g_buf = np.empty((L, self.pattern.nnz + 1))
            g_buf[:] = lanes.g0
            if with_c:
                c_buf = np.empty((L, self.pattern.nnz + 1))
                c_buf[:] = lanes.c0
        else:
            # A (size, 1) column per lane makes matmul run one gemv per
            # lane, bit-identical to np.dot; x_stack @ g0.T would be one
            # gemm, which rounds differently.
            columns = x_stack[..., None]
            i_full[:, :size] = np.matmul(lanes.g0, columns)[..., 0]
            q_full[:, :size] = np.matmul(lanes.c0, columns)[..., 0]
            g_buf, g_view = dense_buffer(size, L)
            g_view[:] = lanes.g0
            if with_c:
                c_buf, c_view = dense_buffer(size, L)
                c_view[:] = lanes.c0

        self._add_sources(i_full[:, :size], lanes.src, None, source_scale)
        limited = np.zeros(L, dtype=bool)
        if self._bjt_group is not None:
            limited = self._bjt_group.load_stacked(
                x_stack, gmin, history, i_full, q_full, g_buf, c_buf,
                lanes.params,
            )

        self.stats.assemblies += L
        if sparse:
            self.stats.sparse_assemblies += L
            g_view = g_buf[:, : self.pattern.nnz]
            c_view = c_buf[:, : self.pattern.nnz] if with_c else None
        else:
            self.stats.dense_assemblies += L
        self.stats.element_evals += self._eval_cost * L
        return StackedContext(
            i_full[:, :size], g_view, q_full[:, :size], c_view, limited
        )

    @contextmanager
    def measured(self) -> Iterator[EngineStats]:
        """Measure one analysis block.

        Charges the block's wall time to this engine and, on exit, fills
        the yielded record with the block's delta of every counter; its
        gauges (solver, pattern, fill-in) read as they stand at exit.
        """
        snapshot = self.stats.copy()
        block = EngineStats()
        t0 = _time.perf_counter()
        try:
            yield block
        finally:
            self.stats.wall_seconds += _time.perf_counter() - t0
            vars(block).update(vars(self.stats.since(snapshot)))


# ---------------------------------------------------------------------------
# engine resolution / caching
# ---------------------------------------------------------------------------


def compile_circuit(circuit: Circuit,
                    mode: str | None = None) -> CompiledCircuit:
    """Compile ``circuit`` into a fresh :class:`CompiledCircuit`."""
    return CompiledCircuit(circuit, mode=mode)


def get_engine(circuit: Circuit, mode: str | None = None) -> CompiledCircuit:
    """The circuit's cached compiled engine, rebuilt when stale.

    Staleness is tracked by ``Circuit._generation`` (bumped on element
    add/remove and by :meth:`Circuit.invalidate`).  ``mode`` pins the
    assembly backend (``"dense"``/``"sparse"``; default ``"auto"``);
    engines are cached per mode so e.g. a dense-vs-sparse equivalence
    test doesn't thrash one cache slot.
    """
    circuit.assign_indices()
    key = mode or "auto"
    engines = getattr(circuit, "_compiled_engines", None)
    if engines is None:
        engines = circuit._compiled_engines = {}
    cached = engines.get(key)
    if cached is not None and cached.generation == circuit._generation:
        return cached
    engine = CompiledCircuit(circuit, mode=mode)
    engines[key] = engine
    return engine


def resolve_engine(circuit: Circuit, engine=None):
    """Resolve an analysis ``engine=`` argument.

    ``None`` uses the circuit's cached compiled engine; ``"dense"``,
    ``"sparse"`` and ``"auto"`` pin its backend; an engine object is
    validated against the circuit's current generation.
    """
    if engine is None:
        return get_engine(circuit)
    if engine in ("dense", "sparse", "auto"):
        return get_engine(circuit, mode=engine)
    if isinstance(engine, str):
        raise AnalysisError(
            f"unknown engine {engine!r}; expected 'dense', 'sparse' or "
            "'auto'"
        )
    if engine.circuit is not circuit:
        raise AnalysisError("engine was compiled for a different circuit")
    if engine.generation != circuit._generation:
        raise AnalysisError(
            "engine is stale: the circuit changed after compilation "
            "(recompile with compile_circuit, or pass engine=None)"
        )
    return engine
