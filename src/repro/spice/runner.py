"""Deck runner: execute the analyses a SPICE deck requests.

Bridges the parser and the analysis engines so that a classic deck with
``.OP`` / ``.DC`` / ``.AC`` / ``.TRAN`` cards runs end to end — the way
the paper's Fig. 10 flow hands a generated deck to SPICE.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import AnalysisError
from .ac import ACResult, frequency_grid
from .analysis import (
    DCSweepResult,
    OperatingPointResult,
    Simulator,
    TransferFunction,
    transfer_function,
)
from .fourier import FourierResult, fourier_analysis
from .lint import lint_circuit
from .noise import NoiseResult, solve_noise
from .parser import Deck, parse_deck
from .transient import TransientResult


@dataclass
class DeckRun:
    """All results produced by one deck execution, in card order."""

    deck: Deck
    results: list = field(default_factory=list)

    @property
    def circuit(self):
        return self.deck.circuit

    def first(self, kind):
        """The first result of a given type (e.g. ACResult)."""
        for result in self.results:
            if isinstance(result, kind):
                return result
        raise AnalysisError(f"deck produced no {kind.__name__}")

    def profile(self) -> str:
        """Per-analysis engine work report (assemblies, solves, wall time).

        Results that carry no :class:`~repro.spice.engine.EngineStats`
        (e.g. Fourier post-processing) are listed without counters.
        """
        kind_names = {
            "OperatingPointResult": ".OP",
            "DCSweepResult": ".DC",
            "ACResult": ".AC",
            "TransientResult": ".TRAN",
            "TransferFunction": ".TF",
            "NoiseResult": ".NOISE",
            "FourierResult": ".FOUR",
        }
        lines = ["engine profile:"]
        total_wall = 0.0
        for result in self.results:
            label = kind_names.get(type(result).__name__,
                                   type(result).__name__)
            stats = getattr(result, "stats", None)
            if stats is None:
                lines.append(f"  {label:7s} (no engine work)")
                continue
            total_wall += stats.wall_seconds
            lines.append(f"  {label:7s} {stats.summary()}")
        lines.append(f"  total engine wall time: {total_wall * 1e3:.2f} ms")
        return "\n".join(lines)

    def summary(self) -> str:
        """A human-readable digest of every result."""
        lines = [f"deck {self.deck.title!r}: "
                 f"{len(self.deck.circuit)} elements, "
                 f"{len(self.results)} analyses"]
        for result in self.results:
            if isinstance(result, OperatingPointResult):
                lines.append("  .OP node voltages:")
                for node, value in sorted(result.node_voltages().items()):
                    lines.append(f"    V({node}) = {value:.6g}")
            elif isinstance(result, DCSweepResult):
                lines.append(
                    f"  .DC sweep: {len(result.sweep_values)} points "
                    f"({result.sweep_values[0]:g} .. "
                    f"{result.sweep_values[-1]:g})"
                )
            elif isinstance(result, ACResult):
                lines.append(
                    f"  .AC sweep: {len(result.frequencies)} points "
                    f"({result.frequencies[0]:g} .. "
                    f"{result.frequencies[-1]:g} Hz)"
                )
            elif isinstance(result, TransientResult):
                lines.append(
                    f"  .TRAN: {len(result.times)} points to "
                    f"{result.times[-1]:g} s "
                    f"({result.rejected_steps} rejected)"
                )
            elif isinstance(result, TransferFunction):
                lines.append(
                    f"  .TF: gain {result.gain:.6g}, "
                    f"Rin {result.input_resistance:.6g}, "
                    f"Rout {result.output_resistance:.6g}"
                )
            elif isinstance(result, NoiseResult):
                mid = len(result.frequencies) // 2
                lines.append(
                    f"  .NOISE at V({result.output_node}): "
                    f"{result.output_rms_density(result.frequencies[mid]):.3e}"
                    f" V/rtHz at {result.frequencies[mid]:g} Hz"
                )
            elif isinstance(result, FourierResult):
                lines.append(
                    f"  .FOUR at {result.fundamental:g} Hz: "
                    f"THD {result.thd() * 100:.3f} %"
                )
        return "\n".join(lines)


def _deck_tolerances(deck: Deck):
    """Build ``(Tolerances | None, gmin)`` from a deck's .OPTIONS card."""
    from .dcop import Tolerances

    options = getattr(deck, "options", None) or {}
    gmin = float(options.get("gmin", 1e-12))
    names = ("reltol", "vntol", "abstol", "itl1")
    if not any(name in options for name in names):
        return None, gmin
    defaults = Tolerances()
    return Tolerances(
        reltol=float(options.get("reltol", defaults.reltol)),
        vntol=float(options.get("vntol", defaults.vntol)),
        abstol=float(options.get("abstol", defaults.abstol)),
        max_iterations=int(options.get("itl1", defaults.max_iterations)),
    ), gmin


def run_deck(deck: Deck | str, engine=None, lint: bool = True) -> DeckRun:
    """Execute every analysis card of a deck (text or parsed).

    ``engine`` selects the evaluation engine for every analysis (see
    :func:`repro.spice.engine.resolve_engine`): ``None`` uses the
    circuit's cached compiled engine (honoring the deck's
    ``.OPTIONS SOLVER=auto|dense|sparse`` card, if any);
    ``"dense"``/``"sparse"``/``"auto"`` pin its backend — assembly and
    LU alike — with ``"auto"`` the shape-based choice of
    :func:`repro.spice.solvercost.choose`.
    Recognized ``.OPTIONS`` settings (RELTOL/VNTOL/ABSTOL/ITL1/GMIN)
    configure the Newton tolerances of every analysis.

    Unless ``lint=False``, the circuit first passes the connectivity
    lint (:func:`repro.spice.lint.lint_circuit`): structurally broken
    decks — floating nodes, capacitor-only DC-floating nodes,
    ungrounded islands — raise a structured
    :class:`~repro.errors.ConnectivityError` before any Newton
    iteration runs.
    """
    if isinstance(deck, str):
        deck = parse_deck(deck)
    if not deck.analyses:
        raise AnalysisError(
            "deck requests no analyses (.OP/.DC/.AC/.TRAN)"
        )
    if lint:
        lint_circuit(deck.circuit)
    if engine is None:
        engine = (getattr(deck, "options", None) or {}).get("solver")
    tolerances, gmin = _deck_tolerances(deck)
    simulator = Simulator(deck.circuit, tolerances=tolerances, gmin=gmin,
                          engine=engine)
    run = DeckRun(deck)
    for card in deck.analyses:
        if card.kind == "op":
            run.results.append(simulator.operating_point())
        elif card.kind == "dc":
            start, stop, step = (card.args["start"], card.args["stop"],
                                 card.args["step"])
            if step <= 0:
                raise AnalysisError(".DC step must be positive")
            count = int(round((stop - start) / step)) + 1
            values = start + step * np.arange(count)
            run.results.append(
                simulator.dc_sweep(card.args["source"], values)
            )
        elif card.kind == "ac":
            run.results.append(simulator.ac(
                card.args["start"], card.args["stop"],
                card.args["points"], card.args["sweep"],
            ))
        elif card.kind == "tran":
            run.results.append(simulator.transient(
                stop_time=card.args["stop"],
                max_step=card.args["step"],
            ))
        elif card.kind == "tf":
            run.results.append(transfer_function(
                deck.circuit, card.args["source"], card.args["output"],
                gmin=gmin, engine=simulator._engine(),
                tolerances=tolerances,
            ))
        elif card.kind == "noise":
            run.results.append(solve_noise(
                deck.circuit, card.args["output"],
                frequency_grid(card.args["start"], card.args["stop"],
                               card.args["points"], card.args["sweep"]),
                input_source=card.args["source"], gmin=gmin,
                engine=simulator._engine(), tolerances=tolerances,
            ))
        elif card.kind == "four":
            transients = [r for r in run.results
                          if isinstance(r, TransientResult)]
            if not transients:
                raise AnalysisError(".FOUR needs a preceding .TRAN")
            run.results.append(fourier_analysis(
                transients[-1], card.args["output"],
                card.args["fundamental"],
            ))
        else:  # pragma: no cover - parser only emits the kinds above
            raise AnalysisError(f"unknown analysis kind {card.kind!r}")
    return run


@dataclass(frozen=True)
class DeckSummary:
    """Lightweight, picklable digest of one deck execution.

    :func:`run_decks` returns these instead of full :class:`DeckRun`
    objects so results can cross the process-pool boundary without
    dragging circuits (and their cached engines) through pickle.

    Under a fault-tolerant policy (``on_error="skip"``/``"retry"``),
    a deck whose execution failed yields a summary with ``error`` set
    (and the solver's forensics folded into ``summary``).
    """

    path: str
    title: str
    summary: str
    profile: str
    #: repr of the exception that killed the deck, or None on success.
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_deck_point(params: dict, engine=None, attempt: int = 0) -> DeckSummary:
    """Sweep-engine evaluation function: one deck file, end to end.

    ``attempt`` is the sweep layer's retry hint; deck re-runs are
    stateless so it only matters for accounting.
    """
    path = params["deck"]
    run = run_deck(parse_deck(Path(path).read_text()), engine=engine)
    return DeckSummary(
        path=path,
        title=run.deck.title,
        summary=run.summary(),
        profile=run.profile(),
    )


def _failed_deck_summary(failure) -> DeckSummary:
    """A :class:`DeckSummary` describing one captured deck failure."""
    path = failure.params.get("deck", "?")
    lines = [f"deck {path}: FAILED ({failure.error_type})",
             f"  {failure.error}"]
    if failure.report is not None:
        lines.append(f"  convergence report: {failure.report.summary()}")
    if failure.attempts > 1:
        lines.append(f"  after {failure.attempts} attempts")
    return DeckSummary(
        path=path,
        title="(failed)",
        summary="\n".join(lines),
        profile="",
        error=failure.error,
    )


def run_decks(
    paths,
    engine=None,
    executor=None,
    jobs=None,
    on_error: str = "raise",
    stats_sink: dict | None = None,
    cache=None,
) -> list[DeckSummary]:
    """Execute several deck files, optionally in parallel.

    Dispatches one deck per chunk through :func:`repro.sweep.run_sweep`,
    so ``jobs=N`` runs up to ``N`` decks in worker processes — the
    ``repro run --jobs N`` CLI path — and ``jobs="auto"`` defers the
    backend choice to the dispatch cost model.  Results come back in
    input order.

    ``on_error`` (``"raise"``/``"skip"``/``"retry"``, see
    :func:`repro.sweep.run_sweep`) keeps one diverging deck from killing
    the batch: failed decks come back as :class:`DeckSummary` entries
    with ``error`` set instead of aborting the run.

    ``stats_sink``, when given a dict, receives the sweep's
    :class:`~repro.sweep.SweepStats` under ``"sweep"`` — the CLI's
    ``--profile`` uses it to report dispatch overhead.  ``cache`` takes
    a :class:`~repro.sweep.ResultCache` so repeated paths (within or
    across calls) reuse their summaries; its ``hit_rate()`` is the
    observable the CLI's ``--profile`` reports.
    """
    from ..sweep import run_sweep

    result = run_sweep(
        functools.partial(_run_deck_point, engine=engine),
        [{"deck": str(path)} for path in paths],
        executor=executor,
        jobs=jobs,
        chunk_size=1,
        cache=cache,
        cache_tag=f"repro.run_decks#{engine or 'default'}",
        on_error=on_error,
    )
    if stats_sink is not None:
        stats_sink["sweep"] = result.stats
    summaries = list(result.values)
    for failure in result.failures:
        summaries[failure.index] = _failed_deck_summary(failure)
    return summaries
