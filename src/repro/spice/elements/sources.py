"""Independent voltage and current sources with SPICE waveforms.

Waveform objects provide the time-domain value (``value(t)``; at
``t=None`` the DC value operating-point analyses use); a source adds an
optional AC small-signal magnitude/phase used by AC analysis.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from typing import Sequence

from ...errors import NetlistError
from ..netlist import Element


class Waveform:
    """Base class for source waveforms."""

    def value(self, time: float | None) -> float:
        raise NotImplementedError


class DC(Waveform):
    """A constant source value."""

    def __init__(self, level: float = 0.0):
        self.level = float(level)

    def value(self, time: float | None) -> float:
        return self.level

    def __repr__(self) -> str:
        return f"DC({self.level})"


class Sine(Waveform):
    """SPICE ``SIN(VO VA FREQ TD THETA)`` waveform.

    v(t) = VO                                       for t < TD
    v(t) = VO + VA*exp(-(t-TD)*THETA)*sin(2*pi*FREQ*(t-TD))   otherwise
    """

    def __init__(
        self,
        offset: float = 0.0,
        amplitude: float = 1.0,
        frequency: float = 1.0,
        delay: float = 0.0,
        damping: float = 0.0,
        phase_deg: float = 0.0,
    ):
        if frequency <= 0:
            raise NetlistError(f"SIN waveform frequency must be positive")
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.delay = float(delay)
        self.damping = float(damping)
        self.phase_deg = float(phase_deg)

    def value(self, time: float | None) -> float:
        if time is None:
            return self.offset
        if time < self.delay:
            return self.offset + self.amplitude * math.sin(
                math.radians(self.phase_deg)
            )
        t = time - self.delay
        envelope = math.exp(-t * self.damping) if self.damping else 1.0
        phase = 2.0 * math.pi * self.frequency * t + math.radians(self.phase_deg)
        return self.offset + self.amplitude * envelope * math.sin(phase)


class Pulse(Waveform):
    """SPICE ``PULSE(V1 V2 TD TR TF PW PER)`` waveform."""

    def __init__(
        self,
        v1: float,
        v2: float,
        delay: float = 0.0,
        rise: float = 1e-12,
        fall: float = 1e-12,
        width: float = 1e-9,
        period: float | None = None,
    ):
        self.v1 = float(v1)
        self.v2 = float(v2)
        self.delay = float(delay)
        self.rise = max(float(rise), 1e-15)
        self.fall = max(float(fall), 1e-15)
        self.width = float(width)
        if period is None:
            period = self.delay + self.rise + self.width + self.fall
        self.period = float(period)
        min_period = self.rise + self.width + self.fall
        if self.period < min_period:
            raise NetlistError(
                f"PULSE period {self.period} shorter than rise+width+fall {min_period}"
            )

    def value(self, time: float | None) -> float:
        if time is None or time <= self.delay:
            return self.v1
        t = (time - self.delay) % self.period
        if t < self.rise:
            return self.v1 + (self.v2 - self.v1) * t / self.rise
        t -= self.rise
        if t < self.width:
            return self.v2
        t -= self.width
        if t < self.fall:
            return self.v2 + (self.v1 - self.v2) * t / self.fall
        return self.v1

    def breakpoints(self, stop_time: float) -> list[float]:
        """Waveform corner times in [0, stop_time], for step control."""
        points: list[float] = []
        start = self.delay
        while start < stop_time:
            for corner in (
                start,
                start + self.rise,
                start + self.rise + self.width,
                start + self.rise + self.width + self.fall,
            ):
                if 0.0 < corner < stop_time:
                    points.append(corner)
            start += self.period
            if self.period <= 0:
                break
        return points


class PWL(Waveform):
    """Piecewise-linear waveform from (time, value) pairs."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        if len(points) < 1:
            raise NetlistError("PWL waveform needs at least one point")
        self.points = sorted((float(t), float(v)) for t, v in points)
        self._times = [t for t, _ in self.points]

    def value(self, time: float | None) -> float:
        if time is None:
            return self.points[0][1]
        if time <= self.points[0][0]:
            return self.points[0][1]
        if time >= self.points[-1][0]:
            return self.points[-1][1]
        hi = bisect_right(self._times, time)
        t0, v0 = self.points[hi - 1]
        t1, v1 = self.points[hi]
        if t1 == t0:
            return v1
        return v0 + (v1 - v0) * (time - t0) / (t1 - t0)

    def breakpoints(self, stop_time: float) -> list[float]:
        return [t for t, _ in self.points if 0.0 < t < stop_time]


def _as_waveform(value) -> Waveform:
    if isinstance(value, Waveform):
        return value
    return DC(float(value))


def is_dc_source(element) -> bool:
    """Whether ``element`` is an independent source with a constant (DC)
    waveform: a source whose level a compiled lane carries
    (:class:`~repro.spice.engine.LaneStamps`), and so one a sweep or a
    ``.DC`` card may set."""
    return (isinstance(element, _IndependentSource)
            and type(element.waveform) is DC)


class _IndependentSource(Element):
    """Shared behaviour of V and I sources: waveform plus AC stimulus."""

    def __init__(
        self,
        name: str,
        nodes,
        dc=0.0,
        ac_mag: float = 0.0,
        ac_phase_deg: float = 0.0,
    ):
        super().__init__(name, nodes)
        if len(self.nodes) != 2:
            raise NetlistError(f"source {name} needs 2 nodes")
        self.waveform = _as_waveform(dc)
        self.ac_mag = float(ac_mag)
        self.ac_phase_deg = float(ac_phase_deg)

    def ac_stimulus(self) -> complex:
        """Complex AC amplitude (0 when the source is quiet in AC)."""
        if self.ac_mag == 0.0:
            return 0.0 + 0.0j
        return self.ac_mag * cmath.exp(1j * math.radians(self.ac_phase_deg))

    def source_value(self, time: float | None) -> float:
        return self.waveform.value(time)

    def breakpoints(self, stop_time: float) -> list[float]:
        if hasattr(self.waveform, "breakpoints"):
            return self.waveform.breakpoints(stop_time)
        return []

    # -- compiled-engine hooks -------------------------------------------------

    def has_time_varying_rhs(self) -> bool:
        return True

    def rhs_rows(self) -> list[tuple[int, float]]:
        """Residual rows receiving ``coeff * value(t) * source_scale``.

        Together with the constant Jacobian (stamped at compile time) this
        reproduces :meth:`load` exactly: the compiled engine adds
        ``coeff * source_value(time) * scale`` at each listed row per
        evaluation instead of re-stamping the element.
        """
        raise NotImplementedError


class VoltageSource(_IndependentSource):
    """Independent voltage source; carries a branch current unknown.

    Positive branch current flows into the + terminal (node p), through
    the source, and out of the - terminal — the SPICE convention, so a
    battery delivering power reports a negative current.
    """

    num_branches = 1

    def load(self, ctx) -> None:
        p, n = self.node_index
        (br,) = self.branch_index
        i = ctx.x[br]
        ctx.add_i(p, i)
        ctx.add_g(p, br, 1.0)
        ctx.add_i(n, -i)
        ctx.add_g(n, br, -1.0)
        value = self.source_value(ctx.time) * ctx.source_scale
        ctx.add_i(br, ctx.voltage(p) - ctx.voltage(n) - value)
        ctx.add_g(br, p, 1.0)
        ctx.add_g(br, n, -1.0)

    def rhs_rows(self) -> list[tuple[int, float]]:
        return [(self.branch_index[0], -1.0)]


class CurrentSource(_IndependentSource):
    """Independent current source.

    Positive current flows from node p through the source to node n
    (SPICE convention), i.e. it is *drawn out of* node p.
    """

    def load(self, ctx) -> None:
        p, n = self.node_index
        value = self.source_value(ctx.time) * ctx.source_scale
        ctx.stamp_current_source(p, n, value)

    def rhs_rows(self) -> list[tuple[int, float]]:
        p, n = self.node_index
        return [(row, coeff) for row, coeff in ((p, 1.0), (n, -1.0))
                if row >= 0]
