"""Blocked deck evaluation: one parsed deck, many operating points per call.

:class:`BlockedDCSweep`, :class:`BlockedACSweep` and
:class:`repro.verify.CornerEvaluator` are configurations of one deck
evaluator, :class:`_BlockedDeckSweep`.  Each is a sweep evaluation
function (``fn(params)``) with a second, faster personality:
``evaluate_batch(chunk)`` solves a whole chunk of points through
stacked linear algebra instead of one scalar analysis per point.
:func:`repro.sweep.run_sweep` detects the ``supports_batch`` attribute
and routes chunks through the batch path automatically (under every
executor), falling back to scalar calls for seeded points and
per-lane retries.

The evaluator is built from **deck text**, not a live circuit: pickled
to a persistent pool worker it ships as a couple of kilobytes of
netlist, and the parse happens once per worker (the executor caches the
deserialized function by content hash) — after that only point chunks
cross the pipe.  A caller that has parsed the text already can hand
that parse over (``_share``), as :func:`repro.verify.qualify_cell`
does, so its process parses the deck once.

Every point splits into a deck *variant* and its source levels:

* Parameters naming independent DC sources (``{"VB": 0.8}``) set the
  levels the point's lane carries in its source vector
  (:meth:`~repro.spice.engine.CompiledCircuit.at_levels`); the points
  of one variant share all its other values.
* Parameters naming linear R/L/C elements (``{"RC": 1.5e3}``), and a
  corner's temperature and passive-scale levels, change the matrix:
  they select a variant, a :class:`~repro.spice.netlist.Circuit`
  derived from the parsed deck through its prefix (the variant one
  edit shorter), so each temperature re-models the deck once and its
  passive-scale variants share its devices.  The deck as written and
  the variants of corner levels are kept; a variant named by a sweep
  point's passive values is dropped after the call that built it.

The deck compiles once, with its ``.OPTIONS SOLVER=`` and ``PERMC=``,
and that one engine serves every point on both paths: a point is a
lane of it, carrying its variant's linear stamps and device parameter
block (:meth:`~repro.spice.engine.CompiledCircuit.lane_stamps`) and its
own source levels, so it solves as an engine compiled from the deck
written at the point would.  The
**blocked** path solves a chunk of points as one
:func:`~repro.spice.dcop.solve_dc_batched` lane block (several, past
the stacked-block byte budget) and one stacked AC solve, whatever its
variants.  The **scalar** path -- :meth:`_BlockedDeckSweep._evaluate`,
retries, seeded points and the escalation of a lane the stacked Newton
leaves unconverged -- runs the full :func:`~repro.spice.dcop.solve_dc`
ladder under the point's lane.

Each point gets one bias solve, and that one solution feeds the DC
measure, the small-signal AC solve and the corner outcome.  Both paths
apply the identical arithmetic at the identical point of the solve,
which is what makes blocked results bit-identical to scalar ones.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading

import numpy as np

from ..devices.temperature import celsius
from ..errors import AnalysisError, ReproError, SweepError
from ..spice.ac import (
    ac_lane_blocks,
    ac_stimulus_rhs,
    frequency_grid,
    solve_ac_lanes,
)
from ..spice.dcop import Tolerances, solve_dc, solve_dc_batched
from ..spice.elements import Capacitor, Inductor, Resistor
from ..spice.elements.sources import is_dc_source
from ..spice.engine import LaneStamps, compile_circuit
from ..spice.netlist import Circuit
from ..spice.temperature import circuit_at_temperature

__all__ = [
    "BlockedDCSweep",
    "BlockedACSweep",
    "node_voltage",
    "solution_vector",
    "ac_node_voltage",
    "ac_gain_db",
    "ac_solution_matrix",
]

_NO_STIMULUS = "AC analysis: no source has an AC stimulus"

#: Variant key ``(corner edits, passive values)`` of the deck as written.
_BASE = ((), ())


def _measure_node(node: str, circuit, x: np.ndarray) -> float:
    index = circuit.node_index(node)
    return 0.0 if index < 0 else float(x[index])


def node_voltage(node: str):
    """A picklable measure extracting one node voltage from the solve."""
    return functools.partial(_measure_node, node)


def solution_vector(circuit, x: np.ndarray) -> np.ndarray:
    """The default DC measure: the full solution vector (copied)."""
    return np.array(x)


def _measure_ac_node(node: str, circuit, solutions: np.ndarray) -> np.ndarray:
    index = circuit.node_index(node)
    if index < 0:
        return np.zeros(solutions.shape[0], dtype=complex)
    return np.array(solutions[:, index])


def ac_node_voltage(node: str):
    """A picklable AC measure: complex node voltage per frequency."""
    return functools.partial(_measure_ac_node, node)


def _measure_ac_gain_db(node: str, circuit, solutions: np.ndarray) -> np.ndarray:
    magnitude = np.abs(_measure_ac_node(node, circuit, solutions))
    return 20.0 * np.log10(np.maximum(magnitude, 1e-300))


def ac_gain_db(node: str):
    """A picklable AC measure: node gain magnitude in dB per frequency."""
    return functools.partial(_measure_ac_gain_db, node)


def ac_solution_matrix(circuit, solutions: np.ndarray) -> np.ndarray:
    """The default AC measure: the full ``(freqs, unknowns)`` complex
    solution matrix (copied)."""
    return np.array(solutions)


# -- deck variants -------------------------------------------------------------


def _passive_value(element) -> tuple[str, float] | None:
    """``(kind, value)`` of a linear R/L/C element, else None."""
    if isinstance(element, Resistor):
        return "R", element.resistance
    if isinstance(element, Capacitor):
        return "C", element.capacitance
    if isinstance(element, Inductor):
        return "L", element.inductance
    return None


def _with_value(element, kind: str, value: float):
    """A copy of a linear R/L/C element carrying ``value``."""
    if kind == "R":
        return Resistor(element.name, element.nodes, value)
    cls = Capacitor if kind == "C" else Inductor
    return cls(element.name, element.nodes, value, ic=element.ic)


def _edit_passives(circuit: Circuit, scales: dict, values: dict) -> Circuit:
    """A copy of ``circuit`` whose R/L/C values are replaced by name
    (``values``) or scaled by kind (``scales``); every other element is
    shared with the original."""
    edited = Circuit(circuit.title)
    for element in circuit:
        kind, value = _passive_value(element) or (None, None)
        name = element.name.upper()
        if name in values:
            element = _with_value(element, kind, values[name])
        elif kind in scales:
            element = _with_value(element, kind, value * scales[kind])
        edited.add(element)
    return edited


def _edited(circuit: Circuit, edit: tuple) -> Circuit:
    """``circuit`` with one corner edit applied: ``("temperature",
    celsius)`` re-models its devices, ``(kind, scale)`` scales its
    passives of that kind."""
    target, level = edit
    if target == "temperature":
        return circuit_at_temperature(circuit, celsius(level))
    return _edit_passives(circuit, {target: level}, {})


def _lane_block(engine, lanes: int, stamps: LaneStamps | None) -> int:
    """Lanes per stacked block: as many as the stacked-block byte budget
    (:data:`repro.spice.ac.MAX_BLOCK_BYTES`) holds, at least one.  A
    lane costs its real Jacobian (``8 n^2`` bytes on a dense engine,
    ``8 nnz`` on a sparse one), plus one lane of ``stamps`` when the
    lanes carry their own values."""
    per_lane = 8 * (engine.pattern.nnz if engine.assembly == "sparse"
                    else engine.size * engine.size)
    if stamps is not None:
        per_lane += stamps.nbytes
    lane_block, _ = ac_lane_blocks(lanes, 1, per_lane)
    return lane_block


class _Variant:
    """One deck variant: its derived circuit and its lane stamps on the
    deck's engine, built on first use."""

    __slots__ = ("circuit", "stamps")

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.stamps = None


class _BlockedDeckSweep:
    """The one deck evaluator (see the module docstring).

    A subclass is a configuration plus a reduction: its constructor
    sets ``_args`` (pickled, and hashed into the cache tag), it may
    turn on the small-signal solve (``_with_ac``) and split corner
    points into deck edits (:meth:`_split`), and ``_reduce(circuit, x,
    solutions, levels)`` turns one solved point, with the source levels
    its lane set, into its value.
    """

    #: run_sweep's opt-in marker for the ``evaluate_batch`` fast path.
    supports_batch = True
    #: Raised for malformed constructor arguments and grids.
    _error = SweepError
    #: The cache tag is ``<prefix><class name>#<content hash>``.
    _tag_prefix = "repro.sweep.batched."
    #: Whether every solved point also runs the small-signal AC solve.
    _with_ac = False

    def __init__(self, deck: str, measure=None,
                 tolerances: Tolerances | None = None,
                 gmin: float | None = None,
                 engine: str | None = None):
        if not isinstance(deck, str) or not deck.strip():
            raise self._error(
                f"{type(self).__name__} takes non-empty deck text (str), "
                f"got {type(deck).__name__}; pass the netlist source so "
                "the evaluator stays picklable"
            )
        self._args = (deck, measure, tolerances, gmin, engine)
        self._deck_text = deck
        self._measure = measure
        self._tolerances_arg = tolerances
        self._gmin_arg = gmin
        self._engine_arg = engine
        self._deck = None
        self._given = None
        self._params: dict[str, tuple] = {}
        self._variants: dict[tuple, _Variant] = {}
        self._engine = None
        # The compiled circuits' evaluation buffers are shared state:
        # the service shares one cached evaluator across its job threads
        # (repro.service.server), which would race on them.  Solves are
        # serialized per evaluator instance; process workers each hold
        # their own instance.
        self._lock = threading.Lock()

    # -- pickling and identity ------------------------------------------------

    def __reduce__(self):
        # Ship the constructor arguments; the receiver parses lazily.
        return type(self), self._args

    def _tag_items(self) -> tuple:
        """The constructor arguments hashed after the deck text."""
        return self._args[1:]

    @property
    def __cache_tag__(self) -> str:
        """Content-hash cache tag: two evaluators over different decks
        (or measures/tolerances/engines/grids/corners) must never share
        cache entries."""
        hasher = hashlib.sha256(self._deck_text.encode())
        for item in self._tag_items():
            hasher.update(repr(item).encode())
        return (f"{self._tag_prefix}{type(self).__name__}"
                f"#{hasher.hexdigest()[:16]}")

    def _grid(self, frequencies) -> tuple | None:
        """A validated ``frequencies=`` argument (Hz), or None."""
        if frequencies is None:
            return None
        freqs = np.asarray(list(frequencies), dtype=float)
        if freqs.size == 0 or not np.all(np.isfinite(freqs)) \
                or np.any(freqs <= 0.0):
            raise self._error(
                f"{type(self).__name__} frequencies must be a non-empty "
                "grid of positive values (Hz)"
            )
        return tuple(float(f) for f in freqs)

    # -- the parsed deck and its variants -------------------------------------

    def _share(self, deck) -> "_BlockedDeckSweep":
        """Resolve from ``deck``, a parse of this evaluator's deck text
        that the caller holds already, instead of parsing it again
        (pickling still ships the text).  Returns the evaluator."""
        self._given = deck
        return self

    def _resolve(self) -> None:
        """Parse the deck once (or take the shared parse): tolerances,
        options and AC grid."""
        if self._deck is not None:
            return
        from ..spice.parser import parse_deck
        from ..spice.runner import _deck_tolerances

        deck = self._given
        if deck is None:
            deck = parse_deck(self._deck_text)
        self._given = None
        tolerances, gmin = _deck_tolerances(deck)
        self._tolerances = (self._tolerances_arg
                            if self._tolerances_arg is not None
                            else tolerances or Tolerances())
        self._gmin = self._gmin_arg if self._gmin_arg is not None else gmin
        self._mode = (self._engine_arg if self._engine_arg is not None
                      else deck.options.get("solver"))
        circuit = deck.circuit
        circuit.assign_indices()
        if self._with_ac:
            if self._frequencies_arg is not None:
                self._frequencies = np.asarray(self._frequencies_arg)
            else:
                card = next((a for a in deck.analyses if a.kind == "ac"),
                            None)
                if card is None:
                    raise self._error(
                        f"{type(self).__name__} needs a frequency grid: "
                        "pass frequencies=... (Hz) or give the deck an "
                        ".AC card"
                    )
                self._frequencies = frequency_grid(
                    card.args["start"], card.args["stop"],
                    card.args["points"], card.args["sweep"],
                )
            self._omegas = 2.0 * np.pi * self._frequencies
            # Sources are shared by every variant, so one stimulus
            # vector serves them all.
            self._rhs = ac_stimulus_rhs(circuit, circuit.num_unknowns)
        self._deck = deck

    def _variant(self, key: tuple) -> _Variant:
        """Variant ``key``, derived on first use from its prefix: the
        variant without its passive values, or without its last corner
        edit.  Variants without per-element passive values are kept (the
        prefixes included), so each temperature is applied once and the
        passive-scale variants of one temperature share its devices; the
        others live as long as the call that asked for them."""
        variant = self._variants.get(key)
        if variant is None:
            edits, values = key
            if values:
                circuit = _edit_passives(self._variant((edits, ())).circuit,
                                         {}, dict(values))
            elif edits:
                circuit = _edited(self._variant((edits[:-1], ())).circuit,
                                  edits[-1])
            else:
                circuit = self._deck.circuit
            circuit.assign_indices()
            variant = _Variant(circuit)
            if not key[1]:
                self._variants[key] = variant
        return variant

    def _compiled(self):
        """The deck's one engine, compiled on first use."""
        if self._engine is None:
            self._engine = compile_circuit(self._deck.circuit, self._mode)
        return self._engine

    def _stamped(self, variant: _Variant) -> LaneStamps:
        """The variant as one lane of the deck's engine (the deck as
        written: the engine's own), built on first use."""
        if variant.stamps is None:
            engine = self._compiled()
            variant.stamps = (
                engine.stamps if variant.circuit is self._deck.circuit
                else engine.lane_stamps(variant.circuit))
        return variant.stamps

    def _kept_keys(self) -> list:
        """The variants :meth:`prime` prepares up front."""
        return [_BASE]

    def prime(self) -> int:
        """Prepare every kept variant up front (the service's
        compile-once contract): compile the deck's engine and build each
        kept variant's lane stamps on it.  Returns how many variants it
        prepared."""
        with self._lock:
            self._resolve()
            keys = self._kept_keys()
            for key in keys:
                self._stamped(self._variant(key))
            return len(keys)

    def compilations(self) -> int:
        """Engines compiled so far: 1 once the deck's engine exists --
        the service's recompile guard watches this stay flat."""
        return 0 if self._engine is None else 1

    # -- points -----------------------------------------------------------------

    def _param(self, name: str) -> tuple:
        """Classify one parameter name (cached): ``("source", NAME,
        level)`` for an independent DC source, ``(kind, NAME, value)``
        for a linear R/L/C element."""
        info = self._params.get(name)
        if info is not None:
            return info
        circuit = self._deck.circuit
        if name not in circuit:
            raise SweepError(
                f"deck has no element named {name!r} to sweep; parameters "
                "must name independent V/I sources or linear R/L/C elements"
            )
        element = circuit.element(name)
        passive = _passive_value(element)
        if is_dc_source(element):
            info = ("source", element.name.upper(),
                    float(element.source_value(None)))
        elif passive is not None:
            info = (passive[0], element.name.upper(), float(passive[1]))
        else:
            raise SweepError(
                f"element {name!r} is not an independent DC source or a "
                f"linear R/L/C; {type(self).__name__} can only set DC "
                "source levels and passive values"
            )
        self._params[name] = info
        return info

    def _split(self, params: dict) -> tuple[tuple, dict]:
        """A point's corner edits and its element parameters."""
        return (), params

    def _lane(self, params: dict) -> tuple[tuple, dict]:
        """One point's variant key and source levels (source name to
        level).  Raises the point's :class:`~repro.errors.ReproError`
        here, so the scalar and blocked paths reject a point
        identically."""
        edits, params = self._split(params)
        levels = {}
        values = []
        for name, level in params.items():
            kind, target, base = self._param(name)
            level = float(level)
            if kind == "source":
                levels[target] = level
            elif not math.isfinite(level) or level < 0.0 \
                    or (level == 0.0 and kind != "C"):
                raise SweepError(
                    f"cannot set {name!r} to {level!r}; passive values "
                    "must be finite and positive (capacitance may be zero)"
                )
            elif level != base:
                values.append((target, level))
        return (edits, tuple(sorted(values))), levels

    def _ac_solutions(self, x: np.ndarray, lanes: LaneStamps) -> np.ndarray:
        """``(lanes, freqs, n)`` small-signal solutions linearized at
        each row of ``x``, under its lane of ``lanes``."""
        engine = self._compiled()
        # One lane-stacked linearization; each lane's G/C is
        # bit-identical to a scalar small_signal at that point.
        sctx = engine.evaluate_stacked(x, gmin=self._gmin, with_c=True,
                                       lanes=lanes)
        return solve_ac_lanes(engine, np.array(sctx.g), np.array(sctx.c),
                              self._omegas, self._rhs)

    def _solve_point(self, variant: _Variant, levels: dict,
                     attempt: int) -> tuple:
        """The scalar path's ``(x, solutions)`` of one point: its bias
        through the full :func:`~repro.spice.dcop.solve_dc` homotopy
        ladder under its lane (``attempt`` picks the retry rung), then
        its AC sweep as a single lane."""
        stamps = self._stamped(variant)
        if levels:
            stamps = self._compiled().at_levels(stamps, variant.circuit,
                                                [levels])
        x = solve_dc(
            self._deck.circuit, tolerances=self._tolerances,
            gmin=self._gmin, engine=self._compiled(), attempt=attempt,
            stamps=stamps,
        )
        solutions = None
        if self._with_ac:
            if not np.any(self._rhs):
                raise AnalysisError(_NO_STIMULUS)
            solutions = self._ac_solutions(x[None], stamps)[0]
        return x, solutions

    def _reduced(self, circuit, x, solutions, levels) -> tuple:
        """``(value, None)``, or ``(None, error)`` when the reduction
        raises (a bad measurement node, ...): the error the scalar path
        raises for that point."""
        try:
            return self._reduce(circuit, x, solutions, levels), None
        except Exception as error:  # noqa: BLE001
            return None, error

    def _evaluate(self, params: dict, attempt: int):
        """Scalar path: one point under its lane (see
        :meth:`_solve_point`), reduced to its value."""
        with self._lock:
            self._resolve()
            key, levels = self._lane(params)
            variant = self._variant(key)
            return self._reduce(variant.circuit,
                                *self._solve_point(variant, levels, attempt),
                                levels)

    def _evaluate_batch(self, chunk_params: list) -> list:
        """Blocked path: every point a lane of the deck's one engine,
        solved in lane blocks whose stacked Jacobians and lane stamps fit
        the byte budget (:func:`_lane_block`).  Returns ``[(value,
        error), ...]`` aligned with the chunk; a failed lane carries the
        identical error the scalar path raises for that point, and never
        disturbs its neighbours."""
        with self._lock:
            self._resolve()
            results: list = [None] * len(chunk_params)
            points, variants = [], {}
            for k, params in enumerate(chunk_params):
                try:
                    key, levels = self._lane(params)
                except ReproError as error:
                    results[k] = (None, error)
                    continue
                variant = variants.get(key)
                if variant is None:
                    variant = variants[key] = self._variant(key)
                points.append((k, variant, levels))
            block = _lane_block(
                self._compiled(), len(points),
                None if len(variants) < 2
                else self._stamped(next(iter(variants.values()))))
            for start in range(0, len(points), block):
                self._solve_block(points[start:start + block], results)
            return results

    def _solve_block(self, points: list, results: list) -> None:
        """One lane block: a stacked Newton bias solve, then one run of
        ``(lanes x freq_block)`` stacked complex solves; fills
        ``results`` at the points' chunk positions.  Points of one
        variant share its lane of values and carry their own source
        levels; points of several variants each carry their variant's.
        A lane the stacked Newton leaves unconverged takes the scalar
        ladder under it."""
        positions, variants, levels = zip(*points)
        values = (self._stamped(variants[0])
                  if all(variant is variants[0] for variant in variants)
                  else LaneStamps.concat([self._stamped(v) for v in variants]))
        # Variants share the deck's sources, so its levels are theirs.
        engine = self._compiled()
        lanes = engine.at_levels(values, self._deck.circuit, levels)
        x, errors = solve_dc_batched(
            self._deck.circuit, lanes, tolerances=self._tolerances,
            gmin=self._gmin, engine=engine,
        )
        solved = []
        for i, error in enumerate(errors):
            if error is None:
                solved.append(i)
            else:
                results[positions[i]] = (None, error)
        solutions = [None] * len(solved)
        if self._with_ac and solved:
            if not np.any(self._rhs):
                for i in solved:
                    results[positions[i]] = (None,
                                             AnalysisError(_NO_STIMULUS))
                return
            solutions = self._ac_solutions(x[solved], lanes.take(solved))
        for i, lane_solutions in zip(solved, solutions):
            results[positions[i]] = self._reduced(
                variants[i].circuit, x[i], lane_solutions, levels[i])


class BlockedDCSweep(_BlockedDeckSweep):
    """Batch-capable DC operating-point evaluator over one deck.

    ``deck`` is SPICE deck text; analysis cards are ignored — only the
    circuit and ``.OPTIONS`` (RELTOL/VNTOL/ABSTOL/ITL1/GMIN, SOLVER,
    PERMC) matter.  ``measure(circuit, x) -> value`` reduces each solved
    operating point (default: the full solution vector); it must be
    picklable for the process executor, e.g. :func:`node_voltage`.

    Point parameters name independent V/I sources (the DC level to
    solve at) or linear R/L/C elements (the value to solve with);
    unnamed elements keep their deck values.  The instance is picklable
    and cheap on the wire — workers parse the deck lazily, once, and
    reuse its compiled engine for every later chunk.

    ``evaluate_batch(chunk)`` solves a whole chunk of operating points
    through :func:`repro.spice.dcop.solve_dc_batched` — a stacked
    Newton iteration with per-lane convergence masking — instead of one
    :func:`solve_dc` per point.
    """

    def __call__(self, params: dict, attempt: int = 0):
        """Scalar path: one operating point through the full
        :func:`~repro.spice.dcop.solve_dc` homotopy ladder."""
        return self._evaluate(params, attempt)

    def evaluate_batch(self, chunk_params: list) -> list:
        """Blocked path: every point of the chunk a lane of one stacked
        Newton run per lane block.  Returns ``[(value, error), ...]``
        aligned with the chunk — ``error`` is ``None`` on success, else
        the lane's error (value ``None``)."""
        return self._evaluate_batch(chunk_params)

    def _reduce(self, circuit, x, solutions, levels):
        return (self._measure or solution_vector)(circuit, x)


class BlockedACSweep(_BlockedDeckSweep):
    """Batch-capable AC small-signal evaluator over one deck.

    Every point is an AC sweep over one frequency grid: bias the deck to
    the point, linearize, then solve ``(G + j*omega*C) dx = b`` per
    frequency.  ``measure(circuit, solutions) -> value`` reduces the
    point's ``(freqs, unknowns)`` complex solution matrix (default: the
    full matrix); it must be picklable, e.g. :func:`ac_node_voltage` or
    :func:`ac_gain_db`.

    Point parameters are those of :class:`BlockedDCSweep`: source levels
    ride in the point's lane, and an R/L/C value selects a variant of
    the deck, so the bias and the small-signal matrices both see them —
    exactly as simulating the edited deck would.

    ``frequencies`` is the grid in Hz; ``None`` adopts the deck's
    ``.AC`` card.  ``evaluate_batch(chunk)`` bias-solves the chunk's
    lanes through :func:`~repro.spice.dcop.solve_dc_batched`,
    linearizes them in one lane-stacked evaluation, and solves them as
    ``(lanes x freq_block)`` stacked complex systems through the
    engine's batched entry points — a handful of batched solves instead
    of ``lanes * freqs`` scalar ones, bit-identical to the scalar path.
    """

    _with_ac = True

    def __init__(self, deck: str, measure=None, frequencies=None,
                 tolerances: Tolerances | None = None,
                 gmin: float | None = None,
                 engine: str | None = None):
        super().__init__(deck, measure=measure, tolerances=tolerances,
                         gmin=gmin, engine=engine)
        self._frequencies_arg = self._grid(frequencies)
        self._args = (deck, measure, self._frequencies_arg, tolerances,
                      gmin, engine)

    @property
    def frequencies(self) -> np.ndarray:
        """The resolved frequency grid (parses the deck if needed)."""
        with self._lock:
            self._resolve()
            return np.array(self._frequencies)

    def __call__(self, params: dict, attempt: int = 0):
        """Scalar path: one full :func:`~repro.spice.dcop.solve_dc`
        homotopy bias solve, then the point's AC sweep as a single
        lane through the blocked frequency solver."""
        return self._evaluate(params, attempt)

    def evaluate_batch(self, chunk_params: list) -> list:
        """Blocked path: one stacked Newton bias solve per lane block,
        then one run of ``(lanes x freq_block)`` stacked complex solves.
        Returns ``[(value, error), ...]`` aligned with the chunk."""
        return self._evaluate_batch(chunk_params)

    def _reduce(self, circuit, x, solutions, levels):
        return (self._measure or ac_solution_matrix)(circuit, solutions)
