"""Dense vs sparse LU: the compile-time backend choice.

:func:`choose` is a pure function of the system's shape — its unknown
count and the structural non-zeros of its compiled sparsity pattern.
Nothing is re-calibrated from runtime timings: the choice decides both
the assembly backend and the LU backend, and the two give different
(if equally valid) rounding, so a choice that followed the timing
history of the process would make the same request simulate
differently depending on what ran before it.  The constants below were
measured once on the reference container (ring-oscillator Jacobians,
which have the banded-plus-coupling structure typical of MNA systems):

========  =====  =====  ==========  ===========
stages      n     nnz   splu (ms)   getrf (ms)
========  =====  =====  ==========  ===========
25          427   1729        1.39         5.23
101        1719   6973       11.03       181.10
========  =====  =====  ==========  ===========

Dense factorization scales as ``n^3`` plus an ``n^2`` assembly/copy
term per Newton iteration; sparse factorization on circuit-like
patterns scales roughly as ``nnz * log2(n)`` (fill-in stays modest on
the rings above, versus ~100x for *random* patterns of the same
density — which is why the constants must come from real circuit
matrices).

That ``splu`` column timed factorizations that each ordered their own
matrix (SuperLU's per-call COLAMD, 9-21x fill-in).  The sparse LU now
orders each compiled pattern once and reuses that order
(:class:`~repro.spice.engine.SparseLUSolver`, ~2x fill-in); each call
still derives the elimination tree and the L/U structure, which
SuperLU interleaves with the numeric work, and it updates panels of
one column (:data:`~repro.spice.engine.PANEL_SIZE`; SuperLU's default
is 20).  Re-measured on the two rings' fused transient Jacobians
``G + alpha*C`` at the operating point, every column interleaved on a
2-vCPU container (medians of 15 rounds of 20 calls; 3 calls per round
for ``getrf`` at 101 stages):

========  ==============  ===============  ==============  ==========
stages    per-call order  once, panel 20   once, panel 1   getrf (ms)
========  ==============  ===============  ==============  ==========
25               0.29 ms          0.13 ms        0.085 ms        1.33
101              1.91 ms          0.49 ms         0.29 ms       30.59
========  ==============  ===============  ==============  ==========

The constants are deliberately left as fitted, so no backend choice
moved with the cheaper LU: refitting :data:`SPARSE_FACTOR_NS` to it
would send circuits of about 192-330 unknowns to sparse.
"""

from __future__ import annotations

import math

__all__ = ["choose", "crossover"]

#: Dense LU factorization, seconds per n^3 (LAPACK dgetrf).
DENSE_FACTOR_NS3 = 0.05e-9
#: Dense per-iteration assembly + matvec traffic, seconds per n^2.
DENSE_ASSEMBLE_NS2 = 2.0e-9
#: Sparse LU factorization, seconds per nnz*log2(n) (SuperLU on
#: circuit-structured patterns, fitted when every factorization still
#: ordered its own matrix; kept so no backend choice moves).
SPARSE_FACTOR_NS = 130.0e-9
#: Sparse per-iteration scatter + matvec, seconds per nnz.
SPARSE_ASSEMBLE_NS = 30.0e-9
#: Below this many unknowns, always dense (factorization is
#: microseconds and BLAS constants dominate).
MIN_SIZE = 192
#: Sparse must be predicted this many times faster to be chosen, so
#: circuits near the crossover stay on the dense path.
MIN_SPEEDUP = 1.2


def choose(size: int, nnz: int) -> str:
    """``"dense"`` or ``"sparse"`` for ``size`` unknowns with ``nnz``
    structural non-zeros: the backend with the lower predicted cost of
    one factorize + assemble."""
    if size < MIN_SIZE:
        return "dense"
    dense = DENSE_FACTOR_NS3 * size ** 3 + DENSE_ASSEMBLE_NS2 * size ** 2
    sparse = (SPARSE_FACTOR_NS * (nnz * math.log2(size))
              + SPARSE_ASSEMBLE_NS * nnz)
    return "sparse" if dense > MIN_SPEEDUP * sparse else "dense"


def crossover(density_per_row: float = 4.0,
              sizes=(64, 96, 128, 192, 256, 384, 512, 768, 1024)) -> int:
    """Smallest probed size where sparse wins at the given density.

    Purely informational (docs); returns the last probed size + 1 if
    dense wins everywhere.
    """
    for size in sizes:
        if choose(size, int(density_per_row * size)) == "sparse":
            return size
    return sizes[-1] + 1
