"""Junction diode element."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ...devices.gummel_poon import (
    critical_voltage,
    depletion_charge,
    diode_current,
    pnjlim,
    thermal_voltage,
)
from ...errors import ModelError, NetlistError
from ..netlist import Element


@dataclass(frozen=True)
class DiodeModel:
    """SPICE diode model parameters (subset: DC, depletion, diffusion)."""

    name: str = "D"
    IS: float = 1e-14  #: saturation current
    N: float = 1.0  #: emission coefficient
    RS: float = 0.0  #: series resistance
    CJO: float = 0.0  #: zero-bias junction capacitance
    VJ: float = 1.0  #: built-in potential
    M: float = 0.5  #: grading coefficient
    FC: float = 0.5  #: forward-bias depletion coefficient
    TT: float = 0.0  #: transit time
    TNOM: float = 300.15

    def __post_init__(self):
        if self.IS <= 0 or self.N <= 0:
            raise ModelError(f"{self.name}: IS and N must be positive")
        if self.RS < 0 or self.CJO < 0 or self.TT < 0:
            raise ModelError(f"{self.name}: RS, CJO, TT must be non-negative")
        if not 0 < self.FC < 1:
            raise ModelError(f"{self.name}: FC must be in (0, 1)")

    @classmethod
    def from_card_params(cls, name: str, params: dict[str, float]) -> "DiodeModel":
        known = {f.name.upper(): f.name for f in fields(cls)}
        kwargs = {}
        for key, value in params.items():
            attr = known.get(key.upper())
            if attr is None or attr == "name":
                raise ModelError(f"unknown diode model parameter {key!r}")
            kwargs[attr] = value
        return cls(name=name, **kwargs)


class Diode(Element):
    """A junction diode ``D <anode> <cathode> <model> [area]``.

    Nonzero RS adds one internal node.  Junction voltage limiting
    (pnjlim) keeps Newton iterations stable.
    """

    def __init__(self, name: str, nodes, model: DiodeModel, area: float = 1.0):
        super().__init__(name, nodes)
        if len(self.nodes) != 2:
            raise NetlistError(f"diode {name} needs 2 nodes")
        if area <= 0:
            raise NetlistError(f"diode {name}: area must be positive")
        self.model = model
        self.area = float(area)
        self.i_sat = model.IS * area
        self.cj0 = model.CJO * area
        self.rs = model.RS / area
        self.num_branches = 1 if self.rs > 0 else 0
        self._vt = thermal_voltage(model.TNOM)
        self._vcrit = critical_voltage(self.i_sat, model.N * self._vt)

    def is_nonlinear(self) -> bool:
        return True

    def load(self, ctx) -> None:
        self.load_static(ctx)
        self.load_dynamic(ctx)

    def load_static(self, ctx) -> None:
        """Constant series resistance RS (when present)."""
        if self.rs > 0:
            anode, _cathode = self.node_index
            (internal,) = self.branch_index
            ctx.stamp_conductance(anode, internal, 1.0 / self.rs)

    def load_dynamic(self, ctx) -> None:
        anode, cathode = self.node_index
        junction_p = self.branch_index[0] if self.rs > 0 else anode
        m = self.model
        n_vt = m.N * self._vt

        v_raw = ctx.voltage(junction_p) - ctx.voltage(cathode)
        v_old = ctx.limits.get(self.name, v_raw)
        v_lim = pnjlim(v_raw, v_old, n_vt, self._vcrit)
        ctx.limits[self.name] = v_lim
        if v_lim != v_raw:  # pnjlim moves the voltage only to limit it
            ctx.limited = True

        current, conductance = diode_current(self.i_sat, v_lim, n_vt)
        current += ctx.gmin * v_lim
        conductance += ctx.gmin
        # Companion (residual-consistent) form.
        i_stamp = current + conductance * (v_raw - v_lim)
        ctx.add_i(junction_p, i_stamp)
        ctx.add_i(cathode, -i_stamp)
        ctx.add_g(junction_p, junction_p, conductance)
        ctx.add_g(junction_p, cathode, -conductance)
        ctx.add_g(cathode, junction_p, -conductance)
        ctx.add_g(cathode, cathode, conductance)

        q_dep, c_dep = depletion_charge(v_lim, self.cj0, m.VJ, m.M, m.FC)
        charge = q_dep + m.TT * current
        cap = c_dep + m.TT * conductance
        q_stamp = charge + cap * (v_raw - v_lim)
        ctx.add_q(junction_p, q_stamp)
        ctx.add_q(cathode, -q_stamp)
        ctx.add_c(junction_p, junction_p, cap)
        ctx.add_c(junction_p, cathode, -cap)
        ctx.add_c(cathode, junction_p, -cap)
        ctx.add_c(cathode, cathode, cap)
