"""The qualification harness: every corner through the blocked deck evaluator.

:class:`CornerEvaluator` turns a deck plus a :class:`~repro.verify.corners.
CornerSet` into a sweep evaluation function the existing fault-tolerant
engine (:func:`repro.sweep.run_sweep`) can fan out: each sweep point is
one corner's ``{axis: value}`` dict, each value is one corner's outcome
(measurements, device stress quantities, violations).  It is a
configuration of the one blocked deck evaluator behind
:class:`~repro.sweep.BlockedDCSweep` and :class:`~repro.sweep.
BlockedACSweep` (:mod:`repro.sweep.batched`), so corners ride the same
pickling, content-hashed cache tag (``__cache_tag__``), executor matrix,
result cache, ``on_error`` policies and bit-identity contract as every
other sweep in the repo.

Corner mechanics: axes that change the matrix (temperature, passive
scale) select a deck *variant* — a circuit derived from the parsed
deck, once per distinct combination of their levels and kept for every
corner sharing it.  On both paths every corner is a lane of the deck's
one compiled engine, carrying its variant's values and its own source
levels, so it solves as the deck written at that corner would.  Each
corner gets one bias solve, and
that one operating point feeds the DC measurements, the small-signal AC
sweep and the stress checks.  A 27-corner set over 3 temperatures x 3
resistor scales x 3 supply levels therefore parses the deck once,
compiles 1 engine, re-models the deck once per temperature (each
temperature's resistor-scale variants share its devices, and so one
device parameter block) and solves its 27 biases in one stacked Newton
run.  :func:`qualify_cell` parses the schematic once for its default
corners, its default measurements and its evaluator.

:func:`qualify_deck` / :func:`qualify_cell` wrap the whole flow and
return a :class:`~repro.verify.report.QualificationReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..sweep import run_sweep
from ..sweep.batched import _BlockedDeckSweep
from .corners import CornerSet, VerificationError, corners_from_tolerances
from .report import CornerOutcome, QualificationReport
from .stress import DEFAULT_STRESS_RULES, check_stress, device_quantities

__all__ = [
    "MEASUREMENT_KINDS",
    "Measurement",
    "dc_voltage",
    "dc_differential",
    "ac_gain",
    "ac_peak_gain",
    "ac_bandwidth",
    "CornerEvaluator",
    "qualify_deck",
    "qualify_cell",
    "default_corners",
    "default_measurements",
]

#: Measurement kinds and the analysis each one needs.
MEASUREMENT_KINDS = {
    "dc_voltage": "dc",
    "dc_differential": "dc",
    "ac_gain_db": "ac",
    "ac_peak_gain_db": "ac",
    "ac_bandwidth_hz": "ac",
}


@dataclass(frozen=True)
class Measurement:
    """One named quantity extracted from a corner's solved analyses.

    ``node`` (and ``ref`` for differential kinds) name circuit nodes;
    ``frequency`` pins AC gain to the grid point nearest that frequency
    (default: the lowest grid frequency).
    """

    name: str
    kind: str
    node: str
    ref: str = ""
    frequency: float | None = None

    def __post_init__(self):
        if not self.name:
            raise VerificationError("measurement needs a name")
        if self.kind not in MEASUREMENT_KINDS:
            raise VerificationError(
                f"measurement {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {tuple(MEASUREMENT_KINDS)}"
            )
        if not self.node:
            raise VerificationError(
                f"measurement {self.name!r} needs a node"
            )
        if self.kind == "dc_differential" and not self.ref:
            raise VerificationError(
                f"measurement {self.name!r}: dc_differential needs a "
                "ref node"
            )

    @property
    def analysis(self) -> str:
        return MEASUREMENT_KINDS[self.kind]

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "node": self.node,
                "ref": self.ref, "frequency": self.frequency}

    @classmethod
    def from_dict(cls, data: dict) -> "Measurement":
        try:
            return cls(
                name=data["name"], kind=data["kind"], node=data["node"],
                ref=data.get("ref", ""),
                frequency=data.get("frequency"),
            )
        except (KeyError, TypeError) as exc:
            raise VerificationError(
                f"bad measurement record: {data!r} ({exc})"
            ) from exc


def dc_voltage(name: str, node: str) -> Measurement:
    """DC node voltage at the corner's operating point."""
    return Measurement(name=name, kind="dc_voltage", node=node)


def dc_differential(name: str, node: str, ref: str) -> Measurement:
    """DC voltage difference ``V(node) - V(ref)``."""
    return Measurement(name=name, kind="dc_differential", node=node,
                       ref=ref)


def ac_gain(name: str, node: str,
            frequency: float | None = None) -> Measurement:
    """Small-signal gain magnitude in dB at one grid frequency
    (default: the lowest)."""
    return Measurement(name=name, kind="ac_gain_db", node=node,
                       frequency=frequency)


def ac_peak_gain(name: str, node: str) -> Measurement:
    """Maximum gain magnitude in dB across the frequency grid."""
    return Measurement(name=name, kind="ac_peak_gain_db", node=node)


def ac_bandwidth(name: str, node: str) -> Measurement:
    """-3 dB bandwidth in Hz relative to the lowest-frequency gain
    (the highest grid frequency still within 3 dB)."""
    return Measurement(name=name, kind="ac_bandwidth_hz", node=node)


def _dc_value(measurement: Measurement, circuit, x) -> float:
    index = circuit.node_index(measurement.node)
    value = 0.0 if index < 0 else float(x[index])
    if measurement.kind == "dc_differential":
        ref = circuit.node_index(measurement.ref)
        value -= 0.0 if ref < 0 else float(x[ref])
    return value


def _ac_value(measurement: Measurement, circuit, frequencies,
              solutions) -> float:
    index = circuit.node_index(measurement.node)
    if index < 0:
        magnitude = np.zeros(len(frequencies))
    else:
        magnitude = np.abs(solutions[:, index])
    gain_db = 20.0 * np.log10(np.maximum(magnitude, 1e-300))
    if measurement.kind == "ac_peak_gain_db":
        return float(np.max(gain_db))
    if measurement.kind == "ac_bandwidth_hz":
        within = gain_db >= gain_db[0] - 3.0
        # The highest grid frequency still inside the 3 dB window
        # before the first drop-out (monotone roll-off assumption).
        edge = int(np.argmin(within)) - 1 if not bool(np.all(within)) \
            else len(frequencies) - 1
        return float(frequencies[max(edge, 0)])
    if measurement.frequency is None:
        return float(gain_db[0])
    grid = np.asarray(frequencies, dtype=float)
    return float(gain_db[int(np.argmin(np.abs(grid
                                              - measurement.frequency)))])


class CornerEvaluator(_BlockedDeckSweep):
    """Batch-capable, picklable corner evaluation function (see module
    docstring).  ``fn(corner.values) -> outcome dict`` with the blocked
    fast path under ``evaluate_batch``: a configuration of the blocked
    deck evaluator whose points carry corner levels and whose reduction
    is the corner outcome."""

    _error = VerificationError
    _tag_prefix = "repro.verify."

    def __init__(self, deck: str, corners: CornerSet, measurements,
                 rules=DEFAULT_STRESS_RULES, frequencies=None,
                 engine: str | None = None):
        super().__init__(deck, engine=engine)
        if not isinstance(corners, CornerSet):
            raise VerificationError(
                f"CornerEvaluator needs a CornerSet, got "
                f"{type(corners).__name__}"
            )
        self._measurements = tuple(measurements)
        if not self._measurements:
            raise VerificationError(
                "qualification needs at least one measurement"
            )
        self._corners = corners
        self._rules = tuple(rules)
        self._frequencies_arg = self._grid(frequencies)
        self._args = (deck, corners, self._measurements, self._rules,
                      self._frequencies_arg, engine)
        self._deck_axes = corners.deck_axes()
        self._source_axes = corners.source_axes()
        self._with_ac = any(m.analysis == "ac" for m in self._measurements)

    def _tag_items(self) -> tuple:
        return (self._corners.to_dict(),) + self._args[2:]

    def _split(self, params: dict) -> tuple[tuple, dict]:
        """Corner levels -> deck edits (temperature, passive scales)
        and source levels keyed by the source they set."""
        edits = []
        for axis in self._deck_axes:
            try:
                level = float(params[axis.name])
            except KeyError:
                raise VerificationError(
                    f"corner point is missing deck-level axis "
                    f"{axis.name!r}; points must carry every axis of the "
                    "corner set"
                ) from None
            edits.append((axis.kind if axis.kind == "temperature"
                          else axis.target, level))
        sources = {}
        for axis in self._source_axes:
            try:
                sources[axis.target] = float(params[axis.name])
            except KeyError:
                raise VerificationError(
                    f"corner point is missing source axis "
                    f"{axis.name!r}"
                ) from None
        return tuple(edits), sources

    def _kept_keys(self) -> list:
        return sorted({(self._split(corner.values)[0], ())
                       for corner in self._corners})

    def _reduce(self, circuit, x, solutions, levels) -> dict:
        measurements = {}
        for measurement in self._measurements:
            if measurement.analysis == "dc":
                measurements[measurement.name] = _dc_value(
                    measurement, circuit, x)
            else:
                measurements[measurement.name] = _ac_value(
                    measurement, circuit, self._frequencies, solutions)
        quantities = device_quantities(circuit, x, levels)
        violations = check_stress(circuit, x, self._rules,
                                  quantities=quantities)
        return {
            "measurements": measurements,
            "quantities": quantities,
            "violations": tuple(violations),
        }

    def __call__(self, params: dict, attempt: int = 0) -> dict:
        """Scalar path: one corner through the full bias solve (and AC
        sweep) under its variant's lane stamps, reduced to the corner
        outcome."""
        return self._evaluate(params, attempt)

    def evaluate_batch(self, chunk_params: list) -> list:
        """Blocked path: every corner a lane of the deck's one engine,
        one stacked bias solve per lane block feeding the DC
        measurements, the AC sweep and the stress checks.  Returns ``[(outcome, error),
        ...]`` aligned with the chunk — per-lane errors identical to
        what the scalar path raises."""
        return self._evaluate_batch(chunk_params)


def _failure_record(failed) -> dict:
    return {
        "error": failed.error,
        "error_type": failed.error_type,
        "attempts": failed.attempts,
        "report": (failed.report.summary()
                   if failed.report is not None else None),
    }


def qualify_deck(
    deck: str,
    corners: CornerSet,
    measurements,
    *,
    name: str = "deck",
    rules=DEFAULT_STRESS_RULES,
    frequencies=None,
    executor=None,
    jobs=None,
    chunk_size=None,
    cache=None,
    on_error: str = "retry",
    retries: int = 2,
    batch="auto",
    engine: str | None = None,
    evaluator: CornerEvaluator | None = None,
    stats_sink: dict | None = None,
) -> QualificationReport:
    """Qualify one deck: every corner through the sweep engine.

    ``evaluator`` lets a caller (the service) supply a pre-compiled
    :class:`CornerEvaluator` so repeated qualifications reuse its
    compiled engine and lane stamps; otherwise one is built from the
    arguments.  A supplied evaluator must have been built from the same
    ``deck``, ``corners``, ``measurements``, ``rules``, ``frequencies``
    and ``engine`` (its cache tag must match), else
    :class:`~repro.verify.corners.VerificationError`: it would evaluate
    other corners than the ones reported.  ``stats_sink["sweep"]``
    receives the run's :class:`~repro.sweep.SweepStats` when a dict is
    passed.
    """
    built = CornerEvaluator(
        deck, corners, measurements, rules=rules,
        frequencies=frequencies, engine=engine,
    )
    if evaluator is None:
        evaluator = built
    elif evaluator.__cache_tag__ != built.__cache_tag__:
        raise VerificationError(
            "qualify_deck: the evaluator was built from another deck, "
            "corner set, measurement set, rules, frequency grid or "
            "engine than this call names; pass the arguments it was "
            "built from, or no evaluator"
        )
    started = time.perf_counter()
    result = run_sweep(
        evaluator,
        [dict(corner.values) for corner in corners],
        executor=executor,
        jobs=jobs,
        chunk_size=chunk_size,
        cache=cache,
        on_error=on_error,
        retries=retries,
        batch=batch,
    )
    wall = time.perf_counter() - started
    if stats_sink is not None:
        stats_sink["sweep"] = result.stats
    failures = {failure.index: failure for failure in result.failures}
    outcomes = []
    for corner, value in zip(corners, result.values):
        if value is None:
            outcomes.append(CornerOutcome(
                corner=corner.name,
                values=dict(corner.values),
                measurements=None,
                failure=_failure_record(failures[corner.index]),
            ))
        else:
            outcomes.append(CornerOutcome(
                corner=corner.name,
                values=dict(corner.values),
                measurements=dict(value["measurements"]),
                quantities=value["quantities"],
                violations=tuple(value["violations"]),
            ))
    stats = {
        "executor": result.stats.executor,
        "workers": result.stats.workers,
        "points": result.stats.points,
        "evaluated": result.stats.evaluated,
        "cache_hits": result.stats.cache_hits,
        "failures": result.stats.failures,
        "retries": result.stats.retries,
        "wall_seconds": wall,
        "corners_per_second": (len(result.values) / wall
                               if wall > 0 else 0.0),
        "nominal_corner": corners.nominal().name,
    }
    return QualificationReport(
        name=name,
        axes=[axis.to_dict() for axis in corners.axes],
        outcomes=outcomes,
        rules=[rule.to_dict() for rule in evaluator._rules],
        stats=stats,
    )


def _parsed(deck):
    """``deck`` parsed, unless it is a parsed deck already."""
    if isinstance(deck, str):
        from ..spice.parser import parse_deck

        return parse_deck(deck)
    return deck


def default_corners(deck,
                    temperatures_c=(-20.0, 27.0, 85.0),
                    supply_tol: float = 0.1,
                    passive_tol: float = 0.1) -> CornerSet:
    """A sensible corner set derived from the deck itself: temperature,
    resistor-scale, and a min/nom/max axis on the supply (the
    independent DC voltage source with the largest magnitude).
    ``deck`` is deck text or its :class:`~repro.spice.parser.Deck`."""
    from ..spice.elements.sources import DC, VoltageSource

    circuit = _parsed(deck).circuit
    supply = None
    for element in circuit:
        if isinstance(element, VoltageSource) \
                and type(element.waveform) is DC:
            level = float(element.source_value(None))
            if supply is None or abs(level) > abs(supply[1]):
                supply = (element.name, level)
    sources = {}
    if supply is not None and supply[1] != 0.0:
        sources[supply[0]] = (supply[1], supply_tol)
    return corners_from_tolerances(
        sources,
        temperatures_c=temperatures_c,
        passive_tols={"R": passive_tol} if passive_tol else None,
    )


def default_measurements(deck) -> tuple:
    """Default measurement set derived from the deck: DC voltage of the
    conventional output nodes (``out``/``outp``/``outn``, else every
    node), plus low-frequency gain and -3 dB bandwidth of the first
    output when the deck carries an AC stimulus and an ``.AC`` card.
    ``deck`` is deck text or its :class:`~repro.spice.parser.Deck`."""
    from ..spice.ac import ac_stimulus_rhs

    parsed = _parsed(deck)
    circuit = parsed.circuit
    circuit.assign_indices()
    names = [n for n in circuit.nodes() if n != "0"]
    outputs = [n for n in ("out", "outp", "outn") if n in names]
    if not outputs:
        outputs = sorted(names)
    measurements = [dc_voltage(f"v_{node}", node) for node in outputs]
    has_stimulus = bool(np.any(
        ac_stimulus_rhs(circuit, circuit.num_unknowns)
    ))
    has_grid = any(a.kind == "ac" for a in parsed.analyses)
    if has_stimulus and has_grid:
        measurements.append(ac_gain(f"gain_db_{outputs[0]}", outputs[0]))
        measurements.append(
            ac_bandwidth(f"bw_hz_{outputs[0]}", outputs[0]))
    return tuple(measurements)


def qualify_cell(
    cell,
    corners: CornerSet | None = None,
    measurements=None,
    **kwargs,
) -> QualificationReport:
    """Qualify a cell's transistor-level schematic across corners.

    Defaults are derived from the schematic (:func:`default_corners`,
    :func:`default_measurements`); keyword arguments pass through to
    :func:`qualify_deck`.  The schematic is parsed once: the defaults
    and the evaluator (unless one is passed) share that parse.  Store
    the result with :meth:`repro.celldb.Cell.record_qualification` to
    make the re-use lookup rank this cell by worst-corner headroom.
    """
    from ..spice.parser import parse_deck

    deck = getattr(cell, "schematic", "") or ""
    if not deck.strip():
        raise VerificationError(
            f"cell {getattr(cell, 'name', cell)!r} has no "
            "transistor-level schematic to qualify"
        )
    parsed = parse_deck(deck)
    if corners is None:
        corners = default_corners(parsed)
    if measurements is None:
        measurements = default_measurements(parsed)
    kwargs.setdefault("name", getattr(cell, "name", "cell"))
    if kwargs.get("evaluator") is None:
        kwargs["evaluator"] = CornerEvaluator(
            deck, corners, measurements,
            **{key: kwargs[key] for key in ("rules", "frequencies", "engine")
               if key in kwargs},
        )._share(parsed)
    return qualify_deck(deck, corners, measurements, **kwargs)
