"""Corner expansion: tolerances and temperature ranges -> named corners.

The qualification flow (Section 3's cell re-use, made honest) judges a
cell at every combination of its environment's extremes, not just at
nominal.  A :class:`CornerAxis` names one varying quantity — a supply
or bias source level, the die temperature, or a global passive-value
scale factor — with a small set of named levels (classically
``min``/``nom``/``max``).  A :class:`CornerSet` is the full-factorial
product of its axes: every corner carries a deterministic index, a
human-readable name (``temp=85C/VCC=max/R=lo``) and the plain
``{axis: value}`` dict the sweep layer consumes as point parameters.

Ordering is deterministic by construction: axes expand in the order
given (last axis fastest, like an odometer), so corner ``k`` of a given
axis spec is the same corner on every machine, every executor, every
run — the property the sweep layer's bit-identity contract builds on.

Axis kinds:

``"source"``
    The level sets an independent V/I source's DC level, carried in the
    corner's lane of the deck's one engine — no recompile per corner.
``"temperature"``
    The level is a die temperature in Celsius; the harness rebuilds the
    deck's semiconductor devices via
    :func:`repro.spice.temperature.circuit_at_temperature`.
``"scale"``
    The level multiplies every passive of one kind (``R``/``C``/``L``)
    — the classic process-tolerance corner on monolithic resistors.

``temperature`` and ``scale`` levels select a deck variant, ``source``
levels ride in each corner's lane (see :mod:`repro.verify.harness`).
Constructors put deck-level axes first, which keeps corners of one
variant adjacent in the expansion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import ReproError

__all__ = [
    "AXIS_KINDS",
    "SCALE_TARGETS",
    "VerificationError",
    "CornerAxis",
    "Corner",
    "CornerSet",
    "temperature_axis",
    "source_axis",
    "scale_axis",
    "corners_from_tolerances",
]

#: Valid :attr:`CornerAxis.kind` values.
AXIS_KINDS = ("source", "temperature", "scale")

#: Valid :attr:`CornerAxis.target` values for ``scale`` axes.
SCALE_TARGETS = ("R", "C", "L")

#: Absolute zero in Celsius — the hard floor for temperature levels.
_ABSOLUTE_ZERO_C = -273.15


class VerificationError(ReproError):
    """A corner/stress qualification request or result is malformed."""


@dataclass(frozen=True)
class CornerAxis:
    """One varying quantity with named levels.

    ``name`` doubles as the sweep parameter key, so it must be unique
    within a :class:`CornerSet`.  ``target`` names what the level
    applies to: the source element for ``kind="source"`` (defaults to
    ``name``), the passive kind (``R``/``C``/``L``) for
    ``kind="scale"``, unused for ``kind="temperature"``.
    ``nominal_label`` marks the level the nominal corner uses; it
    defaults to the middle level.
    """

    name: str
    kind: str
    levels: tuple  #: ((label, value), ...) in expansion order
    target: str = ""
    nominal_label: str = ""

    def __post_init__(self):
        if not self.name:
            raise VerificationError("corner axis needs a name")
        if self.kind not in AXIS_KINDS:
            raise VerificationError(
                f"axis {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {AXIS_KINDS}"
            )
        levels = tuple((str(label), float(value))
                       for label, value in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise VerificationError(
                f"axis {self.name!r} needs at least one level"
            )
        labels = [label for label, _ in levels]
        if len(set(labels)) != len(labels):
            raise VerificationError(
                f"axis {self.name!r}: level labels must be unique, "
                f"got {labels}"
            )
        values = [value for _, value in levels]
        if len(set(values)) != len(values):
            raise VerificationError(
                f"axis {self.name!r}: level values must be distinct, "
                f"got {values} — a duplicated value makes two corners "
                "indistinguishable"
            )
        for label, value in levels:
            if value != value or value in (float("inf"), float("-inf")):
                raise VerificationError(
                    f"axis {self.name!r} level {label!r}: value must be "
                    f"finite, got {value!r}"
                )
            if self.kind == "temperature" and value <= _ABSOLUTE_ZERO_C:
                raise VerificationError(
                    f"axis {self.name!r} level {label!r}: temperature "
                    f"{value:g}C is at or below absolute zero"
                )
            if self.kind == "scale" and value <= 0.0:
                raise VerificationError(
                    f"axis {self.name!r} level {label!r}: scale factor "
                    f"must be positive, got {value:g}"
                )
        if self.kind == "scale":
            target = (self.target or "R").upper()
            if target not in SCALE_TARGETS:
                raise VerificationError(
                    f"axis {self.name!r}: scale target must be one of "
                    f"{SCALE_TARGETS}, got {self.target!r}"
                )
            object.__setattr__(self, "target", target)
        elif self.kind == "source":
            object.__setattr__(self, "target", self.target or self.name)
        if not self.nominal_label:
            object.__setattr__(self, "nominal_label",
                               levels[len(levels) // 2][0])
        elif self.nominal_label not in labels:
            raise VerificationError(
                f"axis {self.name!r}: nominal label "
                f"{self.nominal_label!r} is not a level ({labels})"
            )

    @property
    def deck_level(self) -> bool:
        """True when the axis changes the compiled matrix (new deck per
        level) rather than the source levels a corner's lane carries."""
        return self.kind in ("temperature", "scale")

    def value_of(self, label: str) -> float:
        for candidate, value in self.levels:
            if candidate == label:
                return value
        raise VerificationError(
            f"axis {self.name!r} has no level {label!r}"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "levels": [[label, value] for label, value in self.levels],
            "target": self.target,
            "nominal_label": self.nominal_label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CornerAxis":
        try:
            return cls(
                name=data["name"],
                kind=data["kind"],
                levels=tuple((lv[0], lv[1]) for lv in data["levels"]),
                target=data.get("target", ""),
                nominal_label=data.get("nominal_label", ""),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise VerificationError(
                f"bad corner-axis record: {data!r} ({exc})"
            ) from exc


@dataclass(frozen=True)
class Corner:
    """One point of the full-factorial expansion."""

    index: int
    name: str  #: e.g. ``"temp=85C/VCC=max/R=lo"``
    labels: tuple  #: level label per axis, in axis order
    values: dict = field(compare=False)  #: ``{axis name: value}``

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "labels": list(self.labels),
            "values": dict(self.values),
        }


class CornerSet:
    """The deterministic full-factorial product of corner axes.

    Iteration yields :class:`Corner` objects in expansion order (first
    axis slowest).  The set is immutable after construction and
    picklable, so it can ride inside the harness's evaluator to worker
    processes.
    """

    def __init__(self, axes):
        self.axes = tuple(axes)
        if not self.axes:
            raise VerificationError("corner set needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise VerificationError(
                f"corner axes must have unique names, got {names}"
            )
        corners = []
        level_lists = [axis.levels for axis in self.axes]
        for index, combo in enumerate(itertools.product(*level_lists)):
            labels = tuple(label for label, _ in combo)
            values = {axis.name: value
                      for axis, (_, value) in zip(self.axes, combo)}
            name = "/".join(
                f"{axis.name}={label}"
                for axis, label in zip(self.axes, labels)
            )
            corners.append(Corner(index=index, name=name,
                                  labels=labels, values=values))
        self.corners = tuple(corners)

    def __len__(self) -> int:
        return len(self.corners)

    def __iter__(self):
        return iter(self.corners)

    def __getitem__(self, index: int) -> Corner:
        return self.corners[index]

    def __repr__(self) -> str:
        axes = ", ".join(f"{a.name}[{len(a.levels)}]" for a in self.axes)
        return f"<CornerSet {len(self.corners)} corners: {axes}>"

    def axis(self, name: str) -> CornerAxis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise VerificationError(f"corner set has no axis {name!r}")

    def nominal(self) -> Corner:
        """The corner at every axis's nominal label."""
        wanted = tuple(axis.nominal_label for axis in self.axes)
        for corner in self.corners:
            if corner.labels == wanted:
                return corner
        raise VerificationError("corner set has no nominal corner")

    def corner_named(self, name: str) -> Corner:
        for corner in self.corners:
            if corner.name == name:
                return corner
        raise VerificationError(f"no corner named {name!r}")

    def deck_axes(self) -> tuple:
        """Axes that force a derived deck per level (see module doc)."""
        return tuple(axis for axis in self.axes if axis.deck_level)

    def source_axes(self) -> tuple:
        return tuple(axis for axis in self.axes if axis.kind == "source")

    def to_dict(self) -> dict:
        return {"axes": [axis.to_dict() for axis in self.axes]}

    @classmethod
    def from_dict(cls, data: dict) -> "CornerSet":
        try:
            axes = [CornerAxis.from_dict(a) for a in data["axes"]]
        except (KeyError, TypeError) as exc:
            raise VerificationError(
                f"bad corner-set record: {data!r} ({exc})"
            ) from exc
        return cls(axes)


def temperature_axis(celsius_levels=(-20.0, 27.0, 85.0),
                     name: str = "temp") -> CornerAxis:
    """A die-temperature axis; levels in Celsius, labelled ``<T>C``."""
    levels = tuple((f"{float(t):g}C", float(t)) for t in celsius_levels)
    return CornerAxis(name=name, kind="temperature", levels=levels)


def source_axis(element: str, nominal: float, rel_tol: float,
                name: str | None = None) -> CornerAxis:
    """A min/nom/max axis on an independent source's DC level.

    ``rel_tol`` is the relative tolerance: a 5 V supply at 10 % expands
    to 4.5 / 5.0 / 5.5 V.
    """
    if rel_tol <= 0.0 or rel_tol >= 1.0:
        raise VerificationError(
            f"source axis {element!r}: rel_tol must be in (0, 1), "
            f"got {rel_tol!r}"
        )
    nominal = float(nominal)
    levels = (
        ("min", nominal * (1.0 - rel_tol)),
        ("nom", nominal),
        ("max", nominal * (1.0 + rel_tol)),
    )
    return CornerAxis(name=name or element, kind="source", levels=levels,
                      target=element, nominal_label="nom")


def scale_axis(target: str = "R", rel_tol: float = 0.1,
               name: str | None = None) -> CornerAxis:
    """A lo/nom/hi axis scaling every passive of one kind (``R``/``C``/
    ``L``) — monolithic process tolerance, e.g. +/-10 % on resistors."""
    if rel_tol <= 0.0 or rel_tol >= 1.0:
        raise VerificationError(
            f"scale axis {target!r}: rel_tol must be in (0, 1), "
            f"got {rel_tol!r}"
        )
    levels = (
        ("lo", 1.0 - rel_tol),
        ("nom", 1.0),
        ("hi", 1.0 + rel_tol),
    )
    return CornerAxis(name=name or target, kind="scale", levels=levels,
                      target=target, nominal_label="nom")


def corners_from_tolerances(
    sources: dict | None = None,
    temperatures_c=(-20.0, 27.0, 85.0),
    passive_tols: dict | None = None,
) -> CornerSet:
    """Expand tolerance declarations into a full-factorial corner set.

    ``sources`` maps source element names to ``(nominal, rel_tol)``;
    ``passive_tols`` maps passive kinds (``"R"``...) to a relative
    tolerance.  Deck-level axes (temperature, scales) come first so
    corners sharing a derived deck stay adjacent in the expansion.

    >>> corners = corners_from_tolerances({"V1": (5.0, 0.1)},
    ...                                   passive_tols={"R": 0.1})
    >>> len(corners)  # 3 temps x 3 R scales x 3 supply levels
    27
    """
    axes: list[CornerAxis] = []
    if temperatures_c:
        axes.append(temperature_axis(temperatures_c))
    for target, tol in (passive_tols or {}).items():
        axes.append(scale_axis(target, tol))
    for element, (nominal, tol) in (sources or {}).items():
        axes.append(source_axis(element, nominal, tol))
    return CornerSet(axes)
