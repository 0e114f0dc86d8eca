"""Transition-frequency (fT) analysis of a Gummel-Poon device.

fT is the frequency where the common-emitter short-circuit current gain
|h21| extrapolates to unity.  Two routes are provided:

* :func:`ft_at_ic` — the hybrid-pi formula ``gm / (2*pi*(Cpi + Cmu))``
  evaluated at the bias point, the standard definition and what the
  paper's Fig. 9 plots;
* :func:`ft_from_h21` — |h21(f)| computed from the full small-signal
  two-port (including rbb and the Cmu feedforward zero) with a
  single-pole extrapolation ``fT = f * |h21(f)|``, used as an independent
  cross-check in the tests.

Both operate at a requested collector current, mirroring the Ic sweep of
Fig. 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .gummel_poon import (
    BJTOperatingPoint,
    evaluate,
    solve_vbe_for_ic,
    thermal_voltage,
)
from .parameters import GummelPoonParameters


@dataclass(frozen=True)
class FTPoint:
    """One point of an fT-versus-Ic characteristic."""

    ic: float
    vbe: float
    ft: float
    gm: float
    cpi: float
    cmu: float


def bias_at_ic(
    params: GummelPoonParameters,
    ic: float,
    vce: float = 3.0,
    vbe0: float | None = None,
) -> BJTOperatingPoint:
    """Operating point of the device biased at collector current ``ic``.

    ``vbe0`` warm-starts the bias solve (see
    :func:`~repro.devices.gummel_poon.solve_vbe_for_ic`).
    """
    vbe = solve_vbe_for_ic(params, ic, vce, vbe0=vbe0)
    return evaluate(params, vbe, vbe - vce)


def ft_at_ic(
    params: GummelPoonParameters,
    ic: float,
    vce: float = 3.0,
    vbe0: float | None = None,
) -> FTPoint:
    """fT at one collector current, via the hybrid-pi formula."""
    op = bias_at_ic(params, ic, vce, vbe0=vbe0)
    return FTPoint(
        ic=ic, vbe=op.vbe, ft=op.transition_frequency(),
        gm=op.gm, cpi=op.cpi, cmu=op.cmu,
    )


def _ft_chain(
    params: dict,
    *,
    device: GummelPoonParameters,
    vce: float,
    on_error: str,
) -> list[FTPoint | None]:
    """fT over one warm chain of currents, ``params["ics"]``, in order.

    The first current is solved cold.  Each later bias solve starts from
    the last solved Vbe shifted by the ideal-diode increment
    ``NF*vt*ln(ic/ic_prev)`` — on the usual monotone Ic grid that lands
    within a fraction of kT/q of the solution, so Newton converges in a
    step or two.  Under ``on_error="raise"`` a failed bias solve
    propagates; otherwise that current yields ``None`` and the chain
    carries the last solved point past it.  Module-level so it pickles
    for the process executor.
    """
    n_vt = device.NF * thermal_voltage(device.TNOM)
    chain = []
    last = None
    for ic in params["ics"]:
        vbe0 = None
        if last is not None and ic > 0.0:
            vbe0 = last.vbe + n_vt * math.log(ic / last.ic)
        try:
            point = ft_at_ic(device, ic, vce, vbe0=vbe0)
        except ValueError:  # the bias solve's only failure
            if on_error == "raise":
                raise
            point = None
        else:
            last = point
        chain.append(point)
    return chain


def ft_curve(
    params: GummelPoonParameters,
    ic_values,
    vce: float = 3.0,
    executor=None,
    jobs: int | None = None,
    cache=None,
    chunk_size: int = 32,
    on_error: str = "raise",
) -> list[FTPoint | None]:
    """fT over a sweep of collector currents (the paper's Fig. 9 sweep).

    The currents form warm chains of ``chunk_size`` consecutive values:
    within a chain each bias solve is seeded from the previous point's
    Vbe (see :func:`_ft_chain`), and every chain starts cold.  Each
    chain is one point of :func:`repro.sweep.run_sweep`, so chains are
    dispatched and cached whole, and serial and parallel sweeps are
    bit-identical.

    ``on_error="skip"``/``"retry"`` degrades gracefully: a bias point
    that cannot be solved leaves ``None`` in the returned list instead
    of killing the whole curve.
    """
    import functools

    from ..sweep import run_sweep

    if (isinstance(chunk_size, bool) or not isinstance(chunk_size, int)
            or chunk_size < 1):
        raise AnalysisError(
            f"chunk_size must be a positive integer, got {chunk_size!r}"
        )
    ics = [float(ic) for ic in ic_values]
    result = run_sweep(
        functools.partial(_ft_chain, device=params, vce=vce,
                          on_error=on_error),
        [{"ics": ics[i:i + chunk_size]}
         for i in range(0, len(ics), chunk_size)],
        executor=executor,
        jobs=jobs,
        cache=cache,
        on_error=on_error,
    )
    return [point for chain in result.values for point in chain]


def peak_ft(
    params: GummelPoonParameters,
    ic_min: float = 1e-5,
    ic_max: float = 0.1,
    points: int = 121,
    vce: float = 3.0,
) -> FTPoint:
    """Locate the fT peak over a log-spaced Ic sweep.

    The collector current at the peak is the shape-dependent quantity the
    paper uses to match transistor geometry to operating current.
    """
    ics = np.geomspace(ic_min, ic_max, points)
    curve = ft_curve(params, ics, vce=vce)
    return max(curve, key=lambda point: point.ft)


def h21_magnitude(
    params: GummelPoonParameters, ic: float, frequency: float, vce: float = 3.0
) -> float:
    """|h21| at one frequency from the full small-signal two-port.

    Solves the two-node (internal base, internal collector... collector is
    AC-shorted, so only the internal base node remains) hybrid-pi network
    including rbb:

        ib -> rbb -> b' ; b' loaded by gpi + jw(cpi) and gmu + jw cmu to
        the shorted collector; ic = gm*vb'e - (gmu + jw cmu)*vb'c ...

    With the collector AC-shorted to the emitter, vb'c = vb'e = vb'.
    """
    op = bias_at_ic(params, ic, vce)
    w = 2.0 * math.pi * frequency
    y_in = (op.gpi + op.gmu) + 1j * w * (op.cpi + op.cmu)
    # Drive a unit AC current into the external base; rbb only adds series
    # resistance and does not change the *current* h21 at the internal node.
    v_b = 1.0 / y_in
    i_c = (op.gm - op.gmu - 1j * w * op.cmu) * v_b
    return abs(i_c)


def ft_from_h21(
    params: GummelPoonParameters,
    ic: float,
    vce: float = 3.0,
    measure_fraction: float = 0.1,
) -> float:
    """fT by single-pole extrapolation of |h21| (measurement emulation).

    Measures |h21| at ``measure_fraction`` of the hybrid-pi fT estimate —
    well into the -20 dB/dec region but below fT, as a network analyzer
    measurement would — and extrapolates ``fT = f * |h21(f)|``.
    """
    estimate = ft_at_ic(params, ic, vce).ft
    if estimate <= 0.0:
        return 0.0
    f_measure = max(estimate * measure_fraction, 1.0)
    return f_measure * h21_magnitude(params, ic, f_measure, vce)
