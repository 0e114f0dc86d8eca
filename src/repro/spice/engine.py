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
  ``(row, coeff)`` entries whose values are refreshed from the waveform
  every evaluation (so in-place waveform mutation, as done by DC sweeps,
  keeps working),
* **nonlinear elements** are evaluated per iteration into preallocated
  buffers.  Gummel-Poon BJTs — by far the dominant cost in this package's
  benchmarks — are evaluated as a single vectorized group
  (:class:`BJTGroup`): one numpy pass over all devices, scattered into
  the matrices with ``np.add.at`` through index arrays built at compile
  time.  Any other nonlinear element (diodes) falls back to its scalar
  :meth:`~repro.spice.netlist.Element.load_dynamic`.

Compilation makes one backend decision, dense or sparse, as a pure
function of the system's shape (:func:`repro.spice.solvercost.choose`)
unless ``mode=`` pins it.  The assembly and the :class:`LinearSolver`
both follow it: dense assembly fills ``(n, n)`` buffers for the dense LU
backend, sparse assembly fills flat value arrays over the compiled
:class:`~repro.spice.sparse.SparsityPattern` for the ``scipy.sparse`` LU
backend.  Both backends keep their last factorization and reuse it when
the caller passes the same ``token`` — which the analyses do for chord
iterations and for linear circuits (transient steps at a fixed step
size, DC sweeps of linear networks).

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
from .elements.sources import DC as DCWaveform
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
    #: Nonlinear device evaluations skipped because their terminal
    #: voltages moved less than the bypass tolerance (cached stamps
    #: were replayed instead).
    bypassed_evals: int = 0
    #: Linear solves served from a previously factorized Jacobian by the
    #: chord (modified Newton) iteration.
    jacobian_reuses: int = 0
    #: Chord-Newton refactorizations forced by degraded convergence.
    refactorizations: int = 0
    #: Assemblies that filled a flat nnz-length sparse data array.
    sparse_assemblies: int = 0
    #: Assemblies that filled a dense ``(n, n)`` matrix buffer.
    dense_assemblies: int = 0
    #: Sparse factorizations that reused the fill-reducing order their
    #: compiled pattern already held (no ordering, no symbolic
    #: re-analysis, no dense scan: a gather into the permuted CSC and
    #: a numeric-only factorization).
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
                f"; chord: {self.jacobian_reuses} jacobian reuses, "
                f"{self.refactorizations} refactorizations"
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

    ``solve(a, b, token=...)`` solves ``a @ x = b``.  A non-``None``
    ``token`` promises that ``a`` is identical to the previous call that
    passed the same token, allowing the backend to reuse the
    factorization it keeps under that token (chord / Newton-Richardson
    iteration).  Singular systems raise
    :class:`numpy.linalg.LinAlgError` so callers keep their existing
    convergence-failure handling.

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
        """Solve ``a @ x = b``, reusing the factorization kept under
        ``token`` when there is one."""
        raise NotImplementedError

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        """Back-substitute against the live factorization.

        Only valid immediately after :meth:`has_factorization` returned
        True; chord-Newton uses this to skip refactorizing an unchanged
        (or deliberately frozen) Jacobian.
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
    """Dense LU via LAPACK ``getrf``/``getrs`` with factorization reuse."""

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
        if (
            token is not None
            and self._factor is not None
            and token == self._token
        ):
            self.stats.solves += 1
            lu, piv, getrs = self._factor
            x, _info = getrs(lu, piv, b)
            return x
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
        # cache alone: the cached factor still belongs to the matrix its
        # token names (a solve carrying that token reuses it instead of
        # factorizing), and dropping it would defeat chord reuse for the
        # caller that owns the token.
        if info > 0 or not np.all(np.isfinite(lu)):
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
        ``(batch, n, n)`` stack, without its per-call overhead: the
        complex check runs once per stack and the counters are bumped
        once, for the lanes that solved.  The same LAPACK calls on the
        same inputs, so every lane is bit-identical to :meth:`solve`; a
        singular lane comes back NaN."""
        rhs = np.asarray(rhs)
        if np.iscomplexobj(systems):
            getrf, getrs = _lapack.zgetrf, _lapack.zgetrs
        else:
            getrf, getrs = _lapack.dgetrf, _lapack.dgetrs
        out = np.empty_like(rhs, dtype=np.result_type(systems.dtype, rhs))
        solved = 0
        for k in range(len(systems)):
            lu, piv, info = getrf(systems[k])
            if info > 0 or not np.isfinite(lu).all():
                out[k] = np.nan
                continue
            out[k], _info = getrs(lu, piv, rhs[k])
            solved += 1
        self.stats.factorizations += solved
        self.stats.solves += solved
        return out

    def solve_batched(self, systems: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
        """Solve a stack of systems ``systems[k] @ x[k] = rhs[k]``.

        ``systems`` has shape ``(batch, n, n)``; ``rhs`` is either one
        shared vector ``(n,)``, a per-system vector stack ``(batch, n)``
        or a multi-RHS stack ``(batch, n, k)``.  One broadcast LAPACK
        call covers the whole batch — one C-level dispatch instead of a
        Python loop — which is what makes blocked AC/noise sweeps fast.
        Counters tally one factorization and one solve per system so
        batched and per-frequency paths report comparable work.
        """
        systems = np.asarray(systems)
        count = systems.shape[0]
        self.stats.factorizations += count
        self.stats.solves += count
        rhs = np.asarray(rhs)
        if rhs.ndim == 1:
            rhs = np.broadcast_to(rhs, (count, rhs.shape[0]))
        if rhs.ndim == 2:
            return np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
        return np.linalg.solve(systems, rhs)


#: SPICE's relative pivot threshold (``PIVREL``): the sparse LU keeps a
#: diagonal pivot while its magnitude is at least this fraction of the
#: largest entry in its column, and only then pivots off the diagonal.
PIVREL = 1e-3
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
    SuperLU's numeric factorization only — ``NATURAL`` column order,
    symmetric mode, diagonal pivoting at threshold :data:`PIVREL`.
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
        """Numeric-only LU of one value vector over ``pattern``; counts
        the factorization (and the order reuse) and gauges the fill-in.
        Singularity surfaces as ``LinAlgError`` like the dense backend."""
        if self._ordering in pattern.orders:
            self.stats.pattern_reuses += 1
        order = pattern.ordered(self._ordering)
        try:
            lu = _spla.splu(
                order.csc(data), permc_spec="NATURAL",
                options=_SYMMETRIC_MODE, diag_pivot_thresh=PIVREL,
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
        if (
            token is not None
            and self._factor is not None
            and token == self._token
        ):
            self.stats.solves += 1
            return self._factor.solve(b)
        factor = self._factorize(a.pattern, a.data)
        self.stats.solves += 1
        if token is not None:
            self._token, self._factor = token, factor
        # token=None leaves any token-cached factorization alone, as a
        # singular system does (see DenseLUSolver.solve).
        return factor.solve(b)

    def solve_pattern_batched(self, pattern: SparsityPattern,
                              data: np.ndarray, rhs: np.ndarray,
                              transpose: bool = False) -> np.ndarray:
        """Solve a stack of systems sharing one sparsity pattern.

        ``data`` has shape ``(batch, nnz)`` (one value vector per
        system over the compiled pattern — e.g. ``G + j*omega_k*C`` per
        frequency); ``rhs`` is ``(n,)`` shared, ``(batch, n)`` or
        ``(batch, n, k)``.  ``transpose=True`` solves ``A.T x = b``
        (noise adjoint systems) with the same factor of ``A``.  Every
        lane reuses the pattern's order — no dense staging array is
        ever built.
        """
        data = np.asarray(data)
        rhs = np.asarray(rhs)
        batch = data.shape[0]
        shared = rhs.ndim == 1
        out = np.empty(
            (batch, pattern.size) + rhs.shape[2:],
            dtype=np.result_type(data.dtype, rhs.dtype),
        )
        trans = "T" if transpose else "N"
        for k in range(batch):
            factor = self._factorize(pattern, data[k])
            self.stats.solves += 1
            out[k] = factor.solve(rhs if shared else rhs[k], trans=trans)
        return out


def make_solver(size: int, prefer: str, nnz: int | None = None,
                permc_spec: str | None = None) -> LinearSolver:
    """The LU backend for a system of ``size`` unknowns.

    ``prefer`` is ``"dense"``, ``"sparse"`` or ``"auto"``, which asks
    :func:`repro.spice.solvercost.choose` and so needs the pattern's
    ``nnz``.  ``permc_spec`` configures the sparse backend's
    fill-reducing order (e.g. ``"COLAMD"`` or ``"NATURAL"``; see
    :class:`SparseLUSolver`) and is ignored by the dense one.
    """
    if prefer == "auto":
        prefer = choose_backend(size, nnz)
    if prefer == "sparse":
        return SparseLUSolver(permc_spec=permc_spec)
    if prefer == "dense":
        return DenseLUSolver()
    raise AnalysisError(f"unknown solver backend {prefer!r}")


# ---------------------------------------------------------------------------
# vectorized Gummel-Poon group
# ---------------------------------------------------------------------------


def _limited_exp_vec(arg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.devices.gummel_poon.limited_exp`."""
    anchor = math.exp(EXP_LIMIT)
    over = arg > EXP_LIMIT
    base = np.exp(np.minimum(arg, EXP_LIMIT))
    value = np.where(over, anchor * (1.0 + (arg - EXP_LIMIT)), base)
    deriv = np.where(over, anchor, base)
    return value, deriv


def _diode_current_vec(
    i_sat: np.ndarray, v: np.ndarray, n_vt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ideal-diode current; ``i_sat == 0`` lanes yield (0, 0)."""
    exp_value, exp_deriv = _limited_exp_vec(v / n_vt)
    return i_sat * (exp_value - 1.0), i_sat * exp_deriv / n_vt


def _pnjlim_vec(
    v_new: np.ndarray, v_old: np.ndarray, vt: np.ndarray, v_crit: np.ndarray
) -> np.ndarray:
    """Vectorized SPICE pnjlim junction-voltage limiting.

    A NaN ``v_old`` (no history) leaves ``v_new`` unlimited, exactly as
    ``v_old == v_new`` does.
    """
    limit = (v_new > v_crit) & (np.abs(v_new - v_old) > 2.0 * vt)
    arg = 1.0 + (v_new - v_old) / vt
    arg_pos = arg > 0.0
    branch_pos = np.where(
        arg_pos, v_old + vt * np.log(np.where(arg_pos, arg, 1.0)), v_crit
    )
    ratio = v_new / vt
    ratio_pos = ratio > 0.0
    branch_neg = vt * np.log(np.where(ratio_pos, ratio, 1.0))
    limited = np.where(v_old > 0.0, branch_pos, branch_neg)
    return np.where(limit, limited, v_new)


def _depletion_constants(cj, vj, m, fc) -> np.ndarray:
    """The 11 per-junction constants of :func:`_depletion`, stacked."""
    one_m = 1.0 - m
    f1 = vj / one_m * (1.0 - (1.0 - fc) ** one_m)
    f2 = (1.0 - fc) ** (1.0 + m)
    threshold = fc * vj
    return np.stack([
        threshold, one_m, cj, 1.0 / vj, cj * vj / one_m, cj * f1, cj / f2,
        1.0 - fc * (1.0 + m), m / (2.0 * vj), m / vj, threshold * threshold,
    ])


def _depletion(v: np.ndarray, constants: np.ndarray):
    """Vectorized SPICE depletion Q(v), C(v); ``cj == 0`` lanes are 0."""
    (threshold, one_m, cj, inv_vj, coef_b, cj_f1, cj_over_f2, f3,
     m_over_2vj, m_over_vj, thr2) = constants
    below = v < threshold
    arg = np.where(below, 1.0 - v * inv_vj, 1.0)
    pow_one_m = arg ** one_m
    charge_b = coef_b * (1.0 - pow_one_m)
    cap_b = cj * pow_one_m / arg  # arg^(1-m)/arg == arg^-m
    dv = v - threshold
    charge_a = cj_f1 + cj_over_f2 * (
        f3 * dv + m_over_2vj * (v * v - thr2)
    )
    cap_a = cj_over_f2 * (f3 + m_over_vj * v)
    return np.where(below, charge_b, charge_a), np.where(below, cap_b, cap_a)


# Row layout of BJTGroup's parameter block (one column per device).  The
# junction diodes run as one (B-E, B-C, B-E leakage, B-C leakage) batch,
# whose first two thermal voltages also drive pnjlim.
_P_ISAT = slice(0, 4)  # IS, IS, ISE, ISC
_P_NVT = slice(4, 8)  # NF, NR, NE, NC times vt
_P_VT = slice(4, 6)  # the two that limit vbe, vbc
_P_VCRIT = slice(8, 10)  # B-E, B-C critical voltages
# VAF, VAR, IKF, IKR, BF, BR, ITF, 1/(1.44 VTF), TF, XTF, TR, RBM, RB:
_P_GP = slice(10, 23)
_P_DEP = slice(23, 67)  # 11 depletion constants x (B-E, B-C', B-C, S-C)
_P_SIGN = slice(67, 113)  # the stamp sign table below

# The 46 stamp rows -- 5 I, 13 G, 8 Q, 20 C, in scatter-index order --
# each gather one base quantity of the kernel and multiply it by a
# constant +-1, times the device polarity on the junction current and
# charge rows (``_STAMP_POLAR``).
_I, _G, _Q, _C = slice(0, 5), slice(5, 18), slice(18, 26), slice(26, 46)
_STAMP_BASE = np.array(
    [0, 0, 1, 2, 3]  # I: irb, -irb, ic, ib, -(ic + ib)
    + [4, 4, 4, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]  # G: rb, dIc, dIb, dIe
    + [14, 14, 15, 15, 16, 16, 17, 17]  # Q: qbe, qbc, qbx, qjs pairs
    + [18] * 4 + [19] * 4 + [20] * 4 + [21] * 4 + [22] * 4  # C quads
)
_STAMP_SIGN = np.array(
    [1, -1, 1, 1, -1]
    + [1, -1, -1, 1, 1, -1, -1, 1, -1, -1, 1, 1, 1]
    + [1, -1] * 4
    + [1, -1, -1, 1] * 5,
    dtype=float,
)
_STAMP_POLAR = np.array([0, 0, 1, 1, 1] + [0] * 13 + [1] * 8 + [0] * 20,
                        dtype=bool)


class BJTGroup:
    """All plain :class:`~repro.spice.elements.bjt.BJT` instances of a
    circuit, evaluated as one vectorized numpy pass.

    Compile time stacks every per-device constant — the Gummel-Poon
    parameters, the depletion constants and the stamp sign table — into
    one ``(rows, n)`` block, and builds the scatter-index arrays.  One
    kernel (:meth:`_stamp`) then reproduces the scalar
    ``BJT.load_dynamic`` for any device subset and any number of leading
    lane axes: :meth:`load` runs it over one solution (with device
    bypass), :meth:`load_stacked` over a stack of them.  Ground (-1)
    terminal indices are mapped to a dummy slot ``size`` — the engine's
    buffers carry one extra row/column that is never read.

    The pnjlim history is one ``(2, n)`` array of limited (vbe, vbc),
    columns in :attr:`names` order, stored in the analysis' ``limits``
    dict under the group itself.  Each evaluation stores a new array
    and never writes the stored one, so ``dict(limits)`` is a snapshot;
    NaN columns are devices with no history yet.
    """

    def __init__(self, devices, size, i_full, q_full, xg):
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

        nodes = np.array(
            [(d.node_index[1], d.node_index[3], *d._internal_indices())
             for d in devices], dtype=np.intp,
        ).reshape(n, 5).T
        nodes[nodes < 0] = size
        b_ext, s_ext, ci, bi, ei = nodes
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
        #: 1/(1.44*VTF); infinite VTF collapses to 0 so exp(0)=1, d=0 — the
        #: same result as the scalar isfinite branch.
        with np.errstate(divide="ignore"):
            inv_vtf144 = np.where(np.isfinite(VTF), 1.0 / (1.44 * VTF), 0.0)
        polar = np.where(_STAMP_POLAR[:, None], sign, 1.0)
        self._params = np.concatenate([
            [IS, IS, ISE, ISC, NF * vt, NR * vt, NE * vt, NC * vt,
             vcrit_be, vcrit_bc, VAF, VAR, IKF, IKR, BF, BR, ITF,
             inv_vtf144, TF, XTF, TR, rbm, RB],
            # Zero-CJ junctions (XCJC == 1, CJS == 0) contribute 0.
            _depletion_constants(
                np.stack([CJE, CJC * XCJC, CJC * (1.0 - XCJC), CJS]),
                np.stack([VJE, VJC, VJC, VJS]),
                np.stack([MJE, MJC, MJC, MJS]),
                np.stack([FC, FC, FC, FC]),
            ).reshape(44, n),
            _STAMP_SIGN[:, None] * polar,
        ])
        # Control voltages (vbe, vbc, vbx, vsc, vrb) are
        # sign * (x[plus] - x[minus]); the base-spreading drop is unsigned.
        self._plus = np.stack([bi, bi, b_ext, s_ext, b_ext])
        self._minus = np.stack([ei, ci, ci, ci, bi])
        self._polarity = np.stack([sign, sign, sign, sign, np.ones(n)])

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
        # for the bypass extrapolation terms G_cached @ dx / C_cached @ dx
        # and for seeding the compiled sparsity pattern.
        self._g_rows_arr = cat([r for r, _ in g_pairs])
        self._g_cols_arr = cat([c for _, c in g_pairs])
        self._c_rows_arr = cat([r for r, _ in c_pairs])
        self._c_cols_arr = cat([c for _, c in c_pairs])
        #: Node voltages each Jacobian entry's column had at the owning
        #: device's last evaluation — the linearization point bypassed
        #: devices extrapolate from.  Freshly-evaluated lanes have their
        #: anchors synced to the current solution, so their extrapolation
        #: term is exactly zero.
        self._g_anchor = np.zeros(13 * n)
        self._c_anchor = np.zeros(20 * n)
        self._g_lane = np.arange(13)[:, None] * n
        self._c_lane = np.arange(20)[:, None] * n

        #: The last evaluated stamp values, rows as in ``_STAMP_BASE``.
        self._vals = np.zeros((46, n))
        #: The history of a group never evaluated; read, never written.
        self._no_history = np.full((2, n), np.nan)

        # -- device-bypass cache ------------------------------------------------
        # Last-evaluated control voltages per device; a device whose
        # controls all moved less than the bypass tolerance replays its
        # cached stamp column of ``_vals`` untouched.
        self._bypass_v = np.full((5, n), np.inf)
        self._bypass_gmin: float | None = None
        #: The limits dict the cache was built against — compared by
        #: identity, so a fresh per-call dict never falsely bypasses.
        self._bypass_limits: dict | None = None

    # -- scatter-target binding -------------------------------------------------

    def bind_dense(self, g_full: np.ndarray, c_full: np.ndarray) -> None:
        """Scatter Jacobian stamps into raveled dense ``(n1, n1)`` buffers."""
        n1 = self.size + 1
        self._g_flat = g_full.reshape(-1)
        self._c_flat = c_full.reshape(-1)
        self._g_idx = self._g_rows_arr * n1 + self._g_cols_arr
        self._c_idx = self._c_rows_arr * n1 + self._c_cols_arr

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

    def _controls(self, xg: np.ndarray) -> np.ndarray:
        """``(..., 5, n)`` control voltages at node voltages ``xg``."""
        return (xg[..., self._plus] - xg[..., self._minus]) * self._polarity

    def _stamp(self, v, history, gmin, idx=None):
        """The one device kernel: a vectorized ``BJT.load_dynamic``.

        ``v`` holds ``(..., 5, m)`` control voltages (vbe, vbc, vbx,
        vsc, vrb) of the devices ``idx`` (all when ``None``), ``history``
        their ``(..., 2, m)`` limiting history.  Returns the limited
        ``(..., 2, m)`` junction voltages and the ``(..., 46, m)`` stamp
        values.  Purely elementwise, so every lane and device computes
        exactly what a one-device scalar call would.
        """
        p = self._params if idx is None else self._params[:, idx]
        v_raw = v[..., :2, :]
        v_lim = _pnjlim_vec(v_raw, history, p[_P_VT], p[_P_VCRIT])
        vbe, vbc = v_lim[..., 0, :], v_lim[..., 1, :]
        (VAF, VAR, IKF, IKR, BF, BR, ITF, inv_vtf144, TF, XTF, TR, rbm,
         RB) = p[_P_GP]

        # Depletion batch: B-E and internal B-C at the limited voltages,
        # external B-C and substrate at the raw ones.
        qdep, cdep = _depletion(
            np.concatenate([v_lim, v[..., 2:4, :]], axis=-2),
            p[_P_DEP].reshape(11, 4, -1),
        )
        i4, g4 = _diode_current_vec(
            p[_P_ISAT], np.concatenate([v_lim, v_lim], axis=-2), p[_P_NVT]
        )
        i1 = i4[..., :2, :] + gmin * v_lim
        g1 = g4[..., :2, :] + gmin
        ibe1, ibc1 = i1[..., 0, :], i1[..., 1, :]
        gbe1, gbc1 = g1[..., 0, :], g1[..., 1, :]
        ibe2, ibc2 = i4[..., 2, :], i4[..., 3, :]
        gbe2, gbc2 = g4[..., 2, :], g4[..., 3, :]

        inv_early = 1.0 - vbc / VAF - vbe / VAR
        np.maximum(inv_early, 1e-4, out=inv_early)
        q1 = 1.0 / inv_early
        q2 = ibe1 / IKF + ibc1 / IKR
        sqarg = np.sqrt(1.0 + 4.0 * np.maximum(q2, -0.2499))
        qb = q1 * (1.0 + sqarg) / 2.0

        dq1_dvbe = q1 * q1 / VAR
        dq1_dvbc = q1 * q1 / VAF
        dq2_dvbe = gbe1 / IKF
        dq2_dvbc = gbc1 / IKR
        dqb_dvbe = dq1_dvbe * (1.0 + sqarg) / 2.0 + q1 * dq2_dvbe / sqarg
        dqb_dvbc = dq1_dvbc * (1.0 + sqarg) / 2.0 + q1 * dq2_dvbc / sqarg

        it = (ibe1 - ibc1) / qb
        dic_e = (gbe1 - it * dqb_dvbe) / qb
        dit_dvbc = (-gbc1 - it * dqb_dvbc) / qb

        ic = it - ibc1 / BR - ibc2
        ib = ibe1 / BF + ibe2 + ibc1 / BR + ibc2
        dic_c = dit_dvbc - gbc1 / BR - gbc2
        dib_e = gbe1 / BF + gbe2
        dib_c = gbc1 / BR + gbc2

        # Bias-dependent forward transit time: TF == 0 or XTF == 0 lanes
        # reduce to tf_eff = TF, dtf = 0 without needing an explicit mask.
        itf_pos = ITF > 0.0
        ibe_pos = np.maximum(ibe1, 0.0)
        denom = ibe_pos + ITF
        denom_safe = np.where(denom > 0.0, denom, 1.0)
        w = np.where(itf_pos, ibe_pos / denom_safe, 1.0)
        dw_dvbe = np.where(
            itf_pos & (ibe1 > 0.0),
            gbe1 * ITF / (denom_safe * denom_safe),
            0.0,
        )
        exp_vbc = np.exp(np.minimum(vbc * inv_vtf144, EXP_LIMIT))
        dexp_dvbc = exp_vbc * inv_vtf144
        tf_eff = TF * (1.0 + XTF * w * w * exp_vbc)
        dtf_dvbe = TF * XTF * 2.0 * w * dw_dvbe * exp_vbc
        dtf_dvbc = TF * XTF * w * w * dexp_dvbc

        qde = tf_eff * ibe1 / qb
        dqde_dvbe = (dtf_dvbe * ibe1 + tf_eff * gbe1 - qde * dqb_dvbe) / qb
        cx = (dtf_dvbc * ibe1 - qde * dqb_dvbc) / qb
        cpi = dqde_dvbe + cdep[..., 0, :]
        cmu = TR * gbc1 + cdep[..., 1, :]

        # Residual-consistent companion form around the limited voltages.
        d = v_raw - v_lim
        dbe, dbc = d[..., 0, :], d[..., 1, :]
        rbb = rbm + (RB - rbm) / qb
        grb = np.where(RB > 0.0, 1.0 / np.maximum(rbb, 1e-3), 0.0)
        ic = ic + dic_e * dbe + dic_c * dbc
        ib = ib + dib_e * dbe + dib_c * dbc
        qbe = qde + qdep[..., 0, :] + cpi * dbe + cx * dbc
        qbc = TR * ibc1 + qdep[..., 1, :] + cmu * dbc
        sum_e, sum_c = dic_e + dib_e, dic_c + dib_c
        base = np.stack([
            grb * v[..., 4, :], ic, ib, ic + ib,
            grb, dic_e + dic_c, dic_e, dic_c, dib_e + dib_c, dib_e, dib_c,
            -sum_e - sum_c, sum_e, sum_c,
            qbe, qbc, qdep[..., 2, :], qdep[..., 3, :],
            cpi, cx, cmu, cdep[..., 2, :], cdep[..., 3, :],
        ], axis=-2)
        return v_lim, base[..., _STAMP_BASE, :] * p[_P_SIGN]

    def _replay(
        self,
        xg: np.ndarray | None = None,
        jac_alpha: float | None = None,
        q_only: bool = False,
    ) -> None:
        """Scatter the cached stamp values without re-evaluating.

        When ``xg`` is given (bypass mode) the current and charge stamps
        are extrapolated to the present solution with the cached
        Jacobians: ``i += G_cached @ (x - x_anchor)`` and
        ``q += C_cached @ (x - x_anchor)``.  Bypassed devices then act as
        their exact linearization at the anchor point, which keeps the
        Newton residual continuous in ``x`` (a frozen replay makes the
        branch-current unknowns absorb the ``gm * dv`` discrepancy and
        can lock Newton into an evaluate/replay limit cycle).  Lanes
        evaluated this call have their anchors synced to ``xg`` so their
        correction is exactly zero.

        With ``jac_alpha`` set (fused-Jacobian assembly) the capacitive
        stamps scatter into the conductance buffer scaled by alpha
        instead of into the (unmaintained) C buffer.  ``q_only=True``
        (charges-only assembly) scatters just the charge stamps and
        their extrapolation.
        """
        vals = self._vals
        g_vals = vals[_G].reshape(-1)
        c_vals = vals[_C].reshape(-1)
        if not q_only:
            np.add.at(self._i_full, self._i_rows, vals[_I].reshape(-1))
            np.add.at(self._g_flat, self._g_idx, g_vals)
            if jac_alpha is not None:
                np.add.at(self._g_flat, self._c_idx, c_vals * jac_alpha)
            else:
                np.add.at(self._c_flat, self._c_idx, c_vals)
        np.add.at(self._q_full, self._q_rows, vals[_Q].reshape(-1))
        if xg is not None:
            if not q_only:
                np.add.at(
                    self._i_full, self._g_rows_arr,
                    g_vals * (xg[self._g_cols_arr] - self._g_anchor),
                )
            np.add.at(
                self._q_full, self._c_rows_arr,
                c_vals * (xg[self._c_cols_arr] - self._c_anchor),
            )

    def load(
        self,
        ctx: LoadContext,
        bypass_tol: float = 0.0,
        q_only: bool = False,
    ) -> int:
        """Stamp every device of the group; mirrors ``BJT.load_dynamic``.

        With ``bypass_tol > 0`` each device compares its control voltages
        (vbe, vbc, vbx, vsc and the base-spreading drop) against the last
        point it was actually evaluated at; devices that all moved less
        than the tolerance replay their cached stamp columns untouched.
        Returns the number of bypassed devices.
        """
        size = self.size
        xg = self._xg
        xg[:size] = ctx.x
        xg[size] = 0.0
        v = self._controls(xg)
        n = self.n
        limits = ctx.limits

        idx = None
        if bypass_tol > 0.0:
            # A fresh limits dict (new analysis, retry with different
            # limiting history) or a different gmin invalidates the
            # cached stamps; identity comparison is safe because the
            # cache holds a strong reference to the dict it saw.
            if (self._bypass_limits is limits
                    and self._bypass_gmin == ctx.gmin):
                moved = (np.abs(v - self._bypass_v) > bypass_tol).any(axis=0)
                if not moved.any():
                    # Keep the cached anchor voltages: bypassed devices
                    # always compare against their last *evaluated*
                    # point so sub-tolerance drift cannot accumulate.
                    self._replay(xg, ctx.jac_alpha, q_only=q_only)
                    return n
                # Few moved devices take one gather of the parameter
                # block; mostly-moved calls just evaluate everything.
                if np.count_nonzero(moved) <= max(1, n // 4):
                    idx = np.flatnonzero(moved)
            if idx is None:
                self._bypass_v[...] = v
            else:
                self._bypass_v[:, idx] = v[:, idx]
            self._bypass_gmin = ctx.gmin
            self._bypass_limits = limits
        elif self._bypass_limits is not None:
            # A tolerance-zero evaluation rewrites the shared value
            # buffer without tracking anchors — drop the cache so a
            # later bypassed call cannot replay mismatched stamps.
            self._bypass_limits = None
            self._bypass_gmin = None
            self._bypass_v.fill(np.inf)

        history = limits.get(self, self._no_history)
        if idx is None:
            limits[self], self._vals = self._stamp(v, history, ctx.gmin)
        else:
            v_lim, self._vals[:, idx] = self._stamp(
                v[:, idx], history[:, idx], ctx.gmin, idx
            )
            history = history.copy()
            history[:, idx] = v_lim
            limits[self] = history

        if bypass_tol > 0.0:
            if idx is None:
                self._g_anchor[...] = xg[self._g_cols_arr]
                self._c_anchor[...] = xg[self._c_cols_arr]
            else:
                pos_g = (self._g_lane + idx).reshape(-1)
                pos_c = (self._c_lane + idx).reshape(-1)
                self._g_anchor[pos_g] = xg[self._g_cols_arr[pos_g]]
                self._c_anchor[pos_c] = xg[self._c_cols_arr[pos_c]]
            self._replay(xg, ctx.jac_alpha)
        else:
            self._replay(None, ctx.jac_alpha)
        return 0 if idx is None else n - len(idx)

    def load_stacked(
        self,
        x_stack: np.ndarray,
        gmin: float,
        history: np.ndarray | None,
        i_full: np.ndarray,
        q_full: np.ndarray,
        g_flat: np.ndarray,
        c_flat: np.ndarray | None = None,
    ) -> None:
        """Stamp every device for a ``(L, n)`` stack of solutions at once.

        The same kernel as :meth:`load` at ``bypass_tol == 0`` with a
        leading lane axis, so each lane's stamps are bit-identical to a
        scalar :meth:`load` at that lane's ``x``.  ``history`` is the
        ``(L, 2, n)`` pnjlim history (NaN: none yet), overwritten in
        place with this evaluation's limited voltages, or ``None``.
        Scatter targets are per-lane flats (``i_full``/``q_full`` are
        ``(L, size+1)``, ``g_flat``/``c_flat`` are ``(L, flat)``); the
        ``np.add.at`` broadcast iterates lane-major, preserving each
        lane's scalar accumulation order over duplicate slots.  The
        cached stamp values and the device-bypass cache are never
        touched, so interleaved scalar bypassing stays coherent.
        """
        L = x_stack.shape[0]
        xg = np.zeros((L, self.size + 1))
        xg[:, : self.size] = x_stack
        v_lim, vals = self._stamp(
            self._controls(xg),
            self._no_history if history is None else history, gmin,
        )
        if history is not None:
            history[...] = v_lim
        lane = np.arange(L)[:, None]
        np.add.at(i_full, (lane, self._i_rows), vals[:, _I].reshape(L, -1))
        np.add.at(g_flat, (lane, self._g_idx), vals[:, _G].reshape(L, -1))
        if c_flat is not None:
            np.add.at(c_flat, (lane, self._c_idx), vals[:, _C].reshape(L, -1))
        np.add.at(q_full, (lane, self._q_rows), vals[:, _Q].reshape(L, -1))


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
        super().__init__(size, np.zeros(size), None, 0.0, source_scale=0.0)
        self.g_mat = None
        self.c_mat = None
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


class StackedContext:
    """Lane-stacked assembly returned by
    :meth:`CompiledCircuit.evaluate_stacked`.

    ``i``/``q`` are ``(L, size)`` stacks; ``g``/``c`` are ``(L, size,
    size)`` dense stacks or ``(L, nnz)`` pattern-value stacks depending
    on the engine's assembly backend (``c`` is ``None`` unless requested).
    Row ``k`` holds exactly what a scalar ``evaluate`` at lane ``k``'s
    solution and limiting history would have produced: both paths run
    the same device kernel (:meth:`BJTGroup._stamp`).
    """

    __slots__ = ("i", "g", "q", "c")

    def __init__(self, i, g, q, c=None):
        self.i = i
        self.g = g
        self.q = q
        self.c = c


class CompiledCircuit:
    """Compile-once, evaluate-many circuit engine.

    Construction partitions the elements, stamps the linear part into
    cached ``G0``/``C0`` matrices, precomputes source RHS rows and builds
    the vectorized BJT group.  :meth:`evaluate` then assembles the full
    system into preallocated buffers and returns a
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

        sources = []
        nonlinear = []
        for element in circuit:
            if element.has_time_varying_rhs():
                sources.append(element)
            if element.is_nonlinear():
                nonlinear.append(element)
        #: (element, [(row, coeff), ...]) pairs; rows are fixed by the
        #: topology, values are re-read from the waveform per evaluation.
        #: Sources with a constant (DC) waveform are folded into a single
        #: precomputed vector instead — their value never changes, so the
        #: per-evaluation python loop only visits true waveform sources.
        self._source_rows = []
        self._src_dc = np.zeros(size)
        self._has_src_dc = False
        for element in sources:
            rows = list(element.rhs_rows())
            if type(getattr(element, "waveform", None)) is DCWaveform:
                value = element.source_value(None)
                for row, coeff in rows:
                    self._src_dc[row] += coeff * value
                    self._has_src_dc = True
            else:
                self._source_rows.append((element, rows))
        bjts = [e for e in nonlinear if type(e) is BJT]
        self._scalar_dynamic = [e for e in nonlinear if type(e) is not BJT]
        self._eval_cost = len(sources) + len(nonlinear)
        self.has_constant_jacobian = not nonlinear

        # Constant linear stamps, captured by probing load_static with
        # x = 0 and source_scale = 0: every linear element then stamps
        # exactly its Jacobian and a zero residual.  The probe records
        # COO triples so the same pass seeds the symbolic sparsity
        # pattern and (in dense mode) densifies into G0/C0.
        probe = _CooContext(size)
        for element in circuit:
            element.load_static(probe)
        self._i0 = probe.i_vec
        self._q0 = probe.q_vec

        # Evaluation buffers carry a dummy slot (row/col ``size``) that
        # absorbs ground stamps from the vectorized group.
        n1 = size + 1
        self._i_full = np.zeros(n1)
        self._q_full = np.zeros(n1)
        self._xg = np.zeros(n1)

        self._bjt_group = (
            BJTGroup(bjts, size, self._i_full, self._q_full, self._xg)
            if bjts
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
        for element in self._scalar_dynamic:
            # Scalar nonlinear stamps depend on the operating point
            # (e.g. conditional cross terms), so the pattern takes the
            # full cross product of the element's unknowns — a superset
            # of anything load_dynamic can ever stamp.
            own = np.asarray(
                [k for k in (*element.node_index, *element.branch_index)
                 if k >= 0],
                dtype=np.intp,
            )
            slot_rows.append(np.repeat(own, own.size))
            slot_cols.append(np.tile(own, own.size))
        self.pattern = SparsityPattern(
            size, np.concatenate(slot_rows), np.concatenate(slot_cols)
        )

        # -- the one dense/sparse decision ---------------------------------
        if mode in (None, "auto"):
            backend = choose_backend(size, self.pattern.nnz)
        else:
            backend = mode
        self.assembly = backend

        if backend == "sparse":
            pattern = self.pattern
            self._base_g = _CooContext.scatter(
                pattern, probe.g_rows, probe.g_cols, probe.g_vals
            )
            self._base_c = _CooContext.scatter(
                pattern, probe.c_rows, probe.c_cols, probe.c_vals
            )
            # CSR copies of the constant stamps for the residual/charge
            # matvecs G0 @ x and C0 @ x.
            self._g0_csr = pattern.csc(self._base_g).tocsr()
            self._c0_csr = pattern.csc(self._base_c).tocsr()
            self._g_data = np.zeros(pattern.nnz + 1)
            self._c_data = np.zeros(pattern.nnz + 1)
            self._g_pm = PatternMatrix(pattern, self._g_data)
            self._c_pm = PatternMatrix(pattern, self._c_data)
            self._g0 = self._c0 = None
            self._g_full = self._c_full = None
            if self._bjt_group is not None:
                self._bjt_group.bind_sparse(
                    pattern, self._g_data, self._c_data
                )
            self.stats.pattern_nnz = pattern.nnz
        else:
            self._g0 = _CooContext.densify(
                size, probe.g_rows, probe.g_cols, probe.g_vals
            )
            self._c0 = _CooContext.densify(
                size, probe.c_rows, probe.c_cols, probe.c_vals
            )
            self._g_full = np.zeros((n1, n1))
            self._c_full = np.zeros((n1, n1))
            if self._bjt_group is not None:
                self._bjt_group.bind_dense(self._g_full, self._c_full)

        self.solver = make_solver(
            size, backend, permc_spec=getattr(circuit, "_permc_spec", None)
        )
        self.solver.stats = self.stats
        self.stats.solver = self.solver.name
        self.stats.assembly = backend
        self.stats.compilations += 1
        self.stats.wall_seconds += _time.perf_counter() - t0

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        x: np.ndarray,
        time: float | None = None,
        gmin: float = 1e-12,
        limits: dict | None = None,
        source_scale: float = 1.0,
        bypass_tol: float = 0.0,
        jac_alpha: float | None = None,
        charges_only: bool = False,
        residual_only: bool = False,
    ) -> LoadContext:
        """Assemble I, G, Q, C at candidate ``x``; returns a LoadContext
        whose arrays are views into the engine's reusable buffers.

        ``bypass_tol > 0`` enables device bypass in the BJT group:
        transistors whose terminal voltages all moved less than the
        tolerance since their last actual evaluation replay cached
        stamps instead of re-evaluating (counted in
        ``stats.bypassed_evals``).  At 0 the assembly is bit-identical to
        the non-bypassing path.  Scalar devices (diodes) are evaluated
        on every call.

        ``jac_alpha`` (transient hot path) fuses the integration formula
        into assembly: ``g_mat`` is built directly as ``G + alpha*C``
        (one dense pass instead of two copies plus a dense
        multiply-add in the integrator callback) and ``c_mat`` is left
        untouched.  ``charges_only=True`` assembles just ``q_vec`` — the
        contract for the converged-point context handed back to the
        integrator, whose accept path reads nothing else; ``i_vec``,
        ``g_mat`` and ``c_mat`` are stale buffers in that mode.
        ``residual_only=True`` skips the dense Jacobian build (``g_mat``
        and ``c_mat`` are stale) while assembling ``i_vec``/``q_vec`` in
        full — the contract for chord-Newton iterations that will reuse
        a cached factorization.
        """
        size = self.size
        i = self._i_full[:size]
        q = self._q_full[:size]
        sparse = self.assembly == "sparse"
        if sparse:
            # Flat nnz-length assembly: no (n, n) buffer exists, let
            # alone gets written.  The constant stamps are CSR matvecs
            # (O(nnz)) and base-value copies into the pattern data.
            g = self._g_pm
            c = self._c_pm
            q[:] = self._c0_csr.dot(x)
            q += self._q0
        else:
            g = self._g_full[:size, :size]
            c = self._c_full[:size, :size]
            np.dot(self._c0, x, out=q)
            q += self._q0
        if not charges_only:
            if residual_only:
                # Caller will reuse a cached factorization: leave the
                # stale g/c buffers alone.  Device stamps still land in
                # them, which is harmless — nothing reads the Jacobian
                # on a chord-reuse iteration.
                pass
            elif sparse:
                if jac_alpha is not None:
                    np.multiply(self._base_c, jac_alpha, out=self._g_data)
                    self._g_data += self._base_g
                else:
                    np.copyto(self._g_data, self._base_g)
                    np.copyto(self._c_data, self._base_c)
            elif jac_alpha is not None:
                np.multiply(self._c0, jac_alpha, out=g)
                g += self._g0
            else:
                np.copyto(g, self._g0)
                np.copyto(c, self._c0)
            if sparse:
                i[:] = self._g0_csr.dot(x)
                i += self._i0
            else:
                np.dot(self._g0, x, out=i)
                i += self._i0

            if source_scale != 0.0:
                if self._has_src_dc:
                    if source_scale == 1.0:
                        i += self._src_dc
                    else:
                        i += self._src_dc * source_scale
                for element, rows in self._source_rows:
                    value = element.source_value(time) * source_scale
                    if value != 0.0:
                        for row, coeff in rows:
                            i[row] += coeff * value

        ctx = LoadContext(
            size, x, time, gmin, source_scale, buffers=(i, g, q, c)
        )
        if not charges_only:
            ctx.jac_alpha = jac_alpha
        if limits is not None:
            ctx.limits = limits

        bypassed = 0
        if self._bjt_group is not None:
            bypassed = self._bjt_group.load(
                ctx, bypass_tol, q_only=charges_only
            )
        for element in self._scalar_dynamic:
            element.load_dynamic(ctx)

        self.stats.assemblies += 1
        if sparse:
            self.stats.sparse_assemblies += 1
        else:
            self.stats.dense_assemblies += 1
        self.stats.element_evals += self._eval_cost - bypassed
        if bypassed:
            self.stats.bypassed_evals += bypassed
        return ctx

    @property
    def supports_stacked_evaluate(self) -> bool:
        """Whether :meth:`evaluate_stacked` covers this circuit.

        True when every nonlinear device belongs to the vectorized BJT
        group.  A circuit with a scalar device (a diode) has no stacked
        assembly: its blocked solves take the scalar path lane by lane.
        """
        return not self._scalar_dynamic

    def new_history(self, lanes: int) -> np.ndarray:
        """A ``(lanes, 2, n)`` BJT limiting history for
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
    ) -> "StackedContext":
        """Assemble I, G (and optionally C, Q) for a ``(L, n)`` solution
        stack in one vectorized pass.

        The lane-stacked twin of :meth:`evaluate` at its DC defaults
        (``time=None``, ``bypass_tol=0``): every lane's arrays are
        bit-identical to a scalar :meth:`evaluate` at that lane's ``x``
        with that lane's limiting history.  ``history`` is a
        ``(L, 2, n)`` array from :meth:`new_history`, read and then
        overwritten in place with this evaluation's limited junction
        voltages; ``None`` evaluates every lane without history and
        keeps none.  The base-stamp matvecs stay per-lane (matching the
        scalar BLAS/CSR call exactly); everything device-side runs
        stacked through :meth:`BJTGroup.load_stacked`, the kernel the
        scalar path runs.  Buffers are freshly allocated per call —
        unlike :meth:`evaluate`, the returned views survive subsequent
        calls.  Raises :class:`~repro.errors.AnalysisError` on a circuit
        with scalar devices (see :attr:`supports_stacked_evaluate`).
        """
        if self._scalar_dynamic:
            raise AnalysisError(
                "stacked evaluation covers BJT-group devices only; "
                f"{self._scalar_dynamic[0].name!r} is a scalar device"
            )
        size = self.size
        n1 = size + 1
        L = x_stack.shape[0]
        sparse = self.assembly == "sparse"
        i_full = np.zeros((L, n1))
        q_full = np.zeros((L, n1))
        c_buf = None
        if sparse:
            g_buf = np.empty((L, self.pattern.nnz + 1))
            g_buf[:] = self._base_g
            if with_c:
                c_buf = np.empty((L, self.pattern.nnz + 1))
                c_buf[:] = self._base_c
            for k in range(L):
                i_full[k, :size] = self._g0_csr.dot(x_stack[k])
                q_full[k, :size] = self._c0_csr.dot(x_stack[k])
        else:
            g_buf = np.zeros((L, n1, n1))
            g_buf[:, :size, :size] = self._g0
            if with_c:
                c_buf = np.zeros((L, n1, n1))
                c_buf[:, :size, :size] = self._c0
            for k in range(L):
                i_full[k, :size] = np.dot(self._g0, x_stack[k])
                q_full[k, :size] = np.dot(self._c0, x_stack[k])
        i_full[:, :size] += self._i0
        q_full[:, :size] += self._q0

        if source_scale != 0.0:
            if self._has_src_dc:
                if source_scale == 1.0:
                    i_full[:, :size] += self._src_dc
                else:
                    i_full[:, :size] += self._src_dc * source_scale
            for element, rows in self._source_rows:
                value = element.source_value(None) * source_scale
                if value != 0.0:
                    for row, coeff in rows:
                        i_full[:, row] += coeff * value

        if self._bjt_group is not None:
            if sparse:
                g_flat, c_flat = g_buf, c_buf
            else:
                g_flat = g_buf.reshape(L, -1)
                c_flat = c_buf.reshape(L, -1) if with_c else None
            self._bjt_group.load_stacked(
                x_stack, gmin, history, i_full, q_full, g_flat, c_flat
            )

        self.stats.assemblies += L
        if sparse:
            self.stats.sparse_assemblies += L
            g_view = g_buf[:, : self.pattern.nnz]
            c_view = c_buf[:, : self.pattern.nnz] if with_c else None
        else:
            self.stats.dense_assemblies += L
            g_view = g_buf[:, :size, :size]
            c_view = c_buf[:, :size, :size] if with_c else None
        self.stats.element_evals += self._eval_cost * L
        return StackedContext(
            i_full[:, :size], g_view, q_full[:, :size], c_view
        )

    def solve(self, a: np.ndarray, b: np.ndarray, token=None,
              chord: bool = False) -> np.ndarray:
        """Solve ``a @ x = b`` through the pluggable backend.

        ``token``-based factorization reuse is only honoured for circuits
        with a constant Jacobian — for nonlinear circuits every Newton
        matrix differs and reuse would silently turn Newton into a chord
        method with a stale Jacobian.  ``chord=True`` opts in to exactly
        that: the caller (``newton_solve``) deliberately freezes the
        Jacobian under ``token`` and watches residual contraction itself.
        """
        if token is not None and not chord and not self.has_constant_jacobian:
            token = None
        return self.solver.solve(a, b, token=token)

    def has_factorization(self, token) -> bool:
        return self.solver.has_factorization(token)

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        return self.solver.solve_cached(b)

    def solve_batched(self, systems: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
        """Solve a ``(batch, n, n)`` stack on a dense-assembly engine.

        Used by the blocked AC/noise frequency sweeps: every system in
        the stack is distinct (``G + j*omega_k*C``), so there is no
        factorization reuse — the win is one vectorized LAPACK dispatch
        instead of a per-frequency Python loop.  Sparse-assembly
        engines take :meth:`solve_pattern_batched` instead.
        """
        return self.solver.solve_batched(systems, rhs)

    def solve_batched_exact(self, systems: np.ndarray,
                            rhs: np.ndarray) -> np.ndarray:
        """Per-lane solves bit-identical to this engine's scalar
        :meth:`solve` — the blocked DC Newton path (see
        :func:`repro.spice.dcop.newton_solve_batched`).  ``systems`` is
        the ``(batch, n, n)`` or ``(batch, nnz)`` Jacobian stack of this
        engine's assembly.  Singular lanes return NaN instead of
        raising."""
        if self.assembly == "sparse":
            systems = [self.pattern.matrix(values) for values in systems]
        return self.solver.solve_batched_exact(systems, rhs)

    def solve_pattern_batched(self, data: np.ndarray, rhs: np.ndarray,
                              transpose: bool = False) -> np.ndarray:
        """Solve a ``(batch, nnz)`` stack over the compiled pattern.

        The sparse-assembly analogue of :meth:`solve_batched`: blocked
        AC/noise build per-frequency value vectors over the fixed
        pattern instead of dense ``(batch, n, n)`` stacks.  Only
        meaningful on a sparse-assembly engine.
        """
        if self.assembly != "sparse":
            raise AnalysisError(
                "solve_pattern_batched requires a sparse-assembly engine"
            )
        return self.solver.solve_pattern_batched(
            self.pattern, data, rhs, transpose=transpose
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

    def invalidate_factorization(self) -> None:
        self.solver.invalidate()


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
