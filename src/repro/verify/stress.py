"""Declarative device stress rules checked against solved operating points.

A :class:`StressRule` states one rating: *devices of this kind must keep
this quantity at or below this limit* — BJT power dissipation, collector
current, collector-emitter voltage, resistor power, source current.
:func:`check_stress` evaluates a rules table against a circuit and its
solved DC operating point, returning named :class:`StressViolation`
records (which device, which quantity, measured vs. limit) rather than
a bare pass/fail, so a qualification report can say *Q3 dissipates
62 mW at temp=85C/VCC=max* instead of "stress failed".

Rules tables load from plain data (:func:`load_stress_rules` accepts a
dict, a JSON string, or a path to a JSON file), mirroring the
``stress_rules.yaml`` idiom of the HW_TDD exemplar without adding a
YAML dependency.  :data:`DEFAULT_STRESS_RULES` carries conservative
small-signal bipolar ratings scaled to this repo's seeded cells.

Quantities per device kind (all magnitudes):

==========  ===============  =============================================
kind        quantity         meaning
==========  ===============  =============================================
bjt         power_w          ``|ic*vce| + |ib*vbe|`` at the solved point
bjt         ic_a             collector current magnitude
bjt         vce_v            collector-emitter voltage magnitude
resistor    power_w          ``v^2 / R`` across the element
source      current_a        branch current (V sources) or DC level (I)
==========  ===============  =============================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

from ..spice.elements.bjt import BJT
from ..spice.elements.resistor import Resistor
from ..spice.elements.sources import CurrentSource, VoltageSource
from .corners import VerificationError

__all__ = [
    "DEVICE_QUANTITIES",
    "DEFAULT_STRESS_RULES",
    "StressRule",
    "StressViolation",
    "device_quantities",
    "check_stress",
    "load_stress_rules",
]

#: Checkable quantities per device kind.
DEVICE_QUANTITIES = {
    "bjt": ("power_w", "ic_a", "vce_v"),
    "resistor": ("power_w",),
    "source": ("current_a",),
}

#: Severities a rule may carry; only ``"error"`` fails qualification.
SEVERITIES = ("error", "warn")


@dataclass(frozen=True)
class StressRule:
    """One device rating: ``quantity <= limit * derate`` for matching
    devices.  ``match`` is a case-sensitive glob on the element name
    (``"Q*"``, ``"RLOAD"``); ``derate`` tightens the limit the way a
    derating guideline would (0.5 = use half the rated maximum)."""

    name: str
    device: str  #: one of :data:`DEVICE_QUANTITIES`
    quantity: str
    limit: float
    severity: str = "error"
    match: str = "*"
    derate: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise VerificationError("stress rule needs a name")
        if self.device not in DEVICE_QUANTITIES:
            raise VerificationError(
                f"rule {self.name!r}: unknown device kind "
                f"{self.device!r}; expected one of "
                f"{tuple(DEVICE_QUANTITIES)}"
            )
        if self.quantity not in DEVICE_QUANTITIES[self.device]:
            raise VerificationError(
                f"rule {self.name!r}: device {self.device!r} has no "
                f"quantity {self.quantity!r}; expected one of "
                f"{DEVICE_QUANTITIES[self.device]}"
            )
        if not (self.limit > 0.0):
            raise VerificationError(
                f"rule {self.name!r}: limit must be positive, "
                f"got {self.limit!r}"
            )
        if self.severity not in SEVERITIES:
            raise VerificationError(
                f"rule {self.name!r}: severity must be one of "
                f"{SEVERITIES}, got {self.severity!r}"
            )
        if not (0.0 < self.derate <= 1.0):
            raise VerificationError(
                f"rule {self.name!r}: derate must be in (0, 1], "
                f"got {self.derate!r}"
            )

    @property
    def effective_limit(self) -> float:
        return self.limit * self.derate

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "device": self.device,
            "quantity": self.quantity,
            "limit": self.limit,
            "severity": self.severity,
            "match": self.match,
            "derate": self.derate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StressRule":
        try:
            return cls(
                name=data["name"],
                device=data["device"],
                quantity=data["quantity"],
                limit=float(data["limit"]),
                severity=data.get("severity", "error"),
                match=data.get("match", "*"),
                derate=float(data.get("derate", 1.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise VerificationError(
                f"bad stress-rule record: {data!r} ({exc})"
            ) from exc


@dataclass(frozen=True)
class StressViolation:
    """One device caught over a rating at one solved operating point."""

    rule: str
    device: str  #: element name, e.g. ``"Q3"``
    quantity: str
    value: float
    limit: float  #: the effective (derated) limit
    severity: str = "error"

    def describe(self) -> str:
        return (f"[{self.severity}] {self.device}: {self.quantity} = "
                f"{self.value:.4g} exceeds {self.limit:.4g} "
                f"(rule {self.rule})")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "device": self.device,
            "quantity": self.quantity,
            "value": self.value,
            "limit": self.limit,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StressViolation":
        try:
            return cls(
                rule=data["rule"],
                device=data["device"],
                quantity=data["quantity"],
                value=float(data["value"]),
                limit=float(data["limit"]),
                severity=data.get("severity", "error"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise VerificationError(
                f"bad stress-violation record: {data!r} ({exc})"
            ) from exc


#: Conservative ratings for the repo's small-signal bipolar cells:
#: generous enough that every seeded cell passes at nominal, tight
#: enough that a mis-biased corner (or a deliberately tightened rules
#: table) trips them.
DEFAULT_STRESS_RULES = (
    StressRule("bjt-power", "bjt", "power_w", limit=50e-3),
    StressRule("bjt-ic", "bjt", "ic_a", limit=20e-3),
    StressRule("bjt-vce", "bjt", "vce_v", limit=12.0),
    StressRule("resistor-power", "resistor", "power_w", limit=0.25),
    StressRule("source-current", "source", "current_a", limit=0.1),
)


def _voltage(x, index: int) -> float:
    return 0.0 if index < 0 else float(x[index])


def device_quantities(circuit, x, levels=None) -> dict:
    """Stress-checkable quantities per device at a solved DC point.

    Returns ``{element name: {quantity: value}}`` in netlist order,
    covering every element kind named in :data:`DEVICE_QUANTITIES`.
    All values are magnitudes (ratings bound magnitude, not polarity).
    ``levels`` maps upper-case source names to the DC levels the point
    was solved at, where they differ from ``circuit``'s.
    """
    table: dict[str, dict[str, float]] = {}
    for element in circuit:
        if isinstance(element, BJT):
            op = element.operating_point(x)
            vce = op.vbe - op.vbc
            table[element.name] = {
                "power_w": abs(op.ic * vce) + abs(op.ib * op.vbe),
                "ic_a": abs(op.ic),
                "vce_v": abs(vce),
            }
        elif isinstance(element, Resistor):
            p, n = element.node_index
            drop = _voltage(x, p) - _voltage(x, n)
            table[element.name] = {
                "power_w": drop * drop / float(element.resistance),
            }
        elif isinstance(element, VoltageSource):
            (branch,) = element.branch_index
            table[element.name] = {"current_a": abs(float(x[branch]))}
        elif isinstance(element, CurrentSource):
            level = (levels or {}).get(element.name.upper(),
                                       element.source_value(None))
            table[element.name] = {"current_a": abs(float(level))}
    return table


def _device_kind(quantities: dict) -> str:
    if "ic_a" in quantities:
        return "bjt"
    if "power_w" in quantities:
        return "resistor"
    return "source"


def check_stress(circuit, x, rules=DEFAULT_STRESS_RULES,
                 quantities: dict | None = None) -> list:
    """Evaluate a rules table at one solved operating point.

    Returns the :class:`StressViolation` list in deterministic order
    (netlist element order, then rules order).  ``quantities`` may pass
    a precomputed :func:`device_quantities` table to avoid re-deriving
    it when the caller also reports the raw numbers.
    """
    if quantities is None:
        quantities = device_quantities(circuit, x)
    violations = []
    for device, measured in quantities.items():
        kind = _device_kind(measured)
        for rule in rules:
            if rule.device != kind:
                continue
            if not fnmatchcase(device, rule.match):
                continue
            value = measured[rule.quantity]
            if value > rule.effective_limit:
                violations.append(StressViolation(
                    rule=rule.name,
                    device=device,
                    quantity=rule.quantity,
                    value=value,
                    limit=rule.effective_limit,
                    severity=rule.severity,
                ))
    return violations


def load_stress_rules(source) -> tuple:
    """Load a rules table from flexible plain data.

    Accepts a list of rule dicts, a ``{"rules": [...]}`` mapping, a JSON
    string of either shape, or a :class:`~pathlib.Path` (or a string
    pointing at an existing ``.json`` file).  Returns a tuple of
    :class:`StressRule`.
    """
    if isinstance(source, Path):
        source = source.read_text()
    elif isinstance(source, str) and source.strip().endswith(".json") \
            and Path(source).exists():
        source = Path(source).read_text()
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise VerificationError(
                f"stress rules text is not valid JSON: {exc}"
            ) from exc
    if isinstance(source, dict):
        source = source.get("rules", source)
    if not isinstance(source, (list, tuple)):
        raise VerificationError(
            f"cannot load stress rules from {type(source).__name__}; "
            "expected a list of rule records (or {'rules': [...]})"
        )
    rules = tuple(
        rule if isinstance(rule, StressRule) else StressRule.from_dict(rule)
        for rule in source
    )
    if not rules:
        raise VerificationError("stress rules table is empty")
    return rules
