"""Command-line front ends.

``python -m repro.cli run <deck.cir> [<deck2.cir>...] [--jobs N]``
    Parse and execute SPICE decks, printing each analysis summary;
    ``--jobs N`` runs the decks on N worker processes.  ``--on-error
    skip|retry`` keeps a non-convergent deck from aborting the batch:
    the failure (with its convergence forensics) is reported on stderr
    and the remaining decks still run, exiting 0.

``python -m repro.cli generate <shape> [<shape>...]``
    Print geometry-generated ``.MODEL`` cards for the named transistor
    shapes (the paper's Fig. 10 program as a command).

``python -m repro.cli shapes``
    Print the layout report for the paper's Fig. 8 shape taxonomy.

``python -m repro.cli optimize [--irr-target DB] [--jobs N] ...``
    Run the spec-driven top-down loop: Fig. 5 system sweep, block-spec
    derivation, cell-database re-use lookup, differential-evolution
    sizing of what cannot be re-used, and Gummel-Poon model
    regeneration for the sized geometry.

``python -m repro.cli verify <deck.cir | CELL> [--jobs N] [--json PATH]``
    Qualify a deck (or a seeded cell by name) across temperature /
    supply / passive-tolerance corners with device stress checks
    (``docs/verification.md``); prints the datasheet table and exits 1
    when qualification fails.

``python -m repro.cli serve [--port P] [--workers N] [--profile]``
    Run the simulation job server (``docs/service.md``): circuits are
    compiled once under content-hashed ids, analyses run as async jobs
    with priorities and bounded backpressure.  ``--profile`` prints the
    service stats digest on shutdown (Ctrl-C).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ReproError


def _jobs_argument(value: str):
    """``--jobs`` parser: a positive worker count, or ``auto`` to let
    the dispatch cost model pick the backend and chunking."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a worker count or 'auto', got {value!r}"
        ) from None


def _cmd_run(args) -> int:
    from .spice.parser import parse_deck
    from .spice.runner import run_deck, run_decks

    if len(args.decks) == 1 and not args.jobs and args.on_error == "raise":
        text = Path(args.decks[0]).read_text()
        run = run_deck(parse_deck(text), engine=args.engine)
        print(run.summary())
        if args.profile:
            print()
            print(run.profile())
        return 0

    # Several decks (or an explicit --jobs / fault-tolerance policy):
    # dispatch through the sweep engine; decks run in worker processes
    # when --jobs > 1 (--jobs auto defers to the dispatch cost model),
    # and with --on-error skip|retry a diverging deck is reported
    # instead of killing the batch.
    from .sweep import ResultCache

    stats_sink: dict = {}
    cache = ResultCache()
    summaries = run_decks(args.decks, engine=args.engine, jobs=args.jobs,
                          on_error=args.on_error, stats_sink=stats_sink,
                          cache=cache)
    failed = [s for s in summaries if not s.ok]
    for summary in summaries:
        print(summary.summary)
        if args.profile and summary.ok:
            print()
            print(summary.profile)
        print()
    if args.profile and "sweep" in stats_sink:
        print(f"dispatch: {stats_sink['sweep'].summary()}")
        print(f"cache: hits={cache.hits} misses={cache.misses} "
              f"hit_rate={cache.hit_rate():.1%}")
        print()
    if failed:
        print(f"{len(failed)} of {len(summaries)} deck(s) failed "
              f"(on_error={args.on_error}):", file=sys.stderr)
        for summary in failed:
            print(f"  {summary.path}: {summary.error}", file=sys.stderr)
    return 0


def _cmd_generate(args) -> int:
    from .geometry import ModelParameterGenerator, default_reference

    generator = ModelParameterGenerator(reference=default_reference())
    for shape in args.shapes:
        print(generator.model_card(shape))
    return 0


def _cmd_select(args) -> int:
    from .geometry import (
        ModelParameterGenerator,
        default_reference,
        shape_for_current,
    )
    from .units import parse_value

    generator = ModelParameterGenerator(reference=default_reference())
    ic = parse_value(args.current)
    selection = shape_for_current(ic, generator)
    print(selection.table())
    print(f"-> {selection.best.name}")
    return 0


def _cmd_shapes(args) -> int:
    from .geometry import FIG8_SHAPES, TransistorShape, layout_report

    print(f"{'key':4s} {'shape':12s} {'AE um2':>8s} {'PE um':>7s} "
          f"{'RB ohm':>8s} {'RE ohm':>7s} {'RC ohm':>7s} {'XCJC':>6s}")
    for key, name in FIG8_SHAPES.items():
        geo = layout_report(TransistorShape.from_name(name))
        print(f"({key})  {name:12s} {geo.emitter_area:8.2f} "
              f"{geo.emitter_perimeter:7.2f} {geo.rb_total:8.1f} "
              f"{geo.re_ohmic:7.2f} {geo.rc_ohmic:7.1f} {geo.xcjc:6.3f}")
    return 0


def _cmd_optimize(args) -> int:
    from .optimize import run_optimize_flow

    if args.jobs == "auto":
        executor = "auto"
    elif args.jobs:
        executor = "process"
    else:
        executor = None
    report = run_optimize_flow(
        irr_target_db=args.irr_target,
        gain_corner=args.gain_corner,
        conversion_gain_db=args.gain_target,
        executor=executor,
        jobs=args.jobs,
        seed=args.seed,
        population=args.population,
        generations=args.generations,
    )
    print(report.summary())
    return 0 if report.closed else 1


def _cmd_verify(args) -> int:
    from .sweep import ResultCache
    from .verify import (
        DEFAULT_STRESS_RULES,
        default_corners,
        default_measurements,
        load_stress_rules,
        qualify_deck,
    )

    path = Path(args.target)
    if path.exists():
        deck = path.read_text()
        name = path.stem
    else:
        from .celldb.seed import seed_database

        cells = {c.name: c for c in seed_database().cells()}
        cell = cells.get(args.target) or cells.get(args.target.upper())
        if cell is None:
            raise ReproError(
                f"{args.target!r} is neither a deck file nor a seeded "
                f"cell; cells: {', '.join(sorted(cells))}"
            )
        if not cell.schematic.strip():
            raise ReproError(
                f"cell {cell.name!r} has no transistor-level schematic "
                "to qualify"
            )
        deck = cell.schematic
        name = cell.name

    rules = (load_stress_rules(Path(args.rules)) if args.rules
             else DEFAULT_STRESS_RULES)
    corners = default_corners(
        deck,
        temperatures_c=tuple(args.temps),
        supply_tol=args.supply_tol,
        passive_tol=args.passive_tol,
    )
    if args.jobs == "auto":
        executor = "auto"
    elif args.jobs:
        executor = "process"
    else:
        executor = None
    stats_sink: dict = {}
    cache = ResultCache()
    report = qualify_deck(
        deck, corners, default_measurements(deck),
        name=name, rules=rules,
        executor=executor, jobs=args.jobs,
        cache=cache, on_error=args.on_error,
        stats_sink=stats_sink,
    )
    if args.json:
        text = report.to_json()
        if args.json == "-":
            print(text, end="")
        else:
            Path(args.json).write_text(text)
            print(f"report written to {args.json}")
    if args.json != "-":
        print(report.table())
    if args.profile and "sweep" in stats_sink:
        print(f"dispatch: {stats_sink['sweep'].summary()}")
        print(f"cache: hits={cache.hits} misses={cache.misses} "
              f"hit_rate={cache.hit_rate():.1%}")
    return 0 if report.passed() else 1


def _cmd_serve(args) -> int:
    from .service import SimulationService
    from .service.http import ServiceHTTPServer

    service = SimulationService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        sweep_jobs=args.jobs,
    )
    server = ServiceHTTPServer((args.host, args.port), service,
                               verbose=args.verbose)
    print(f"repro service listening on http://{args.host}:{server.port} "
          f"({args.workers} worker(s), queue limit {args.queue_limit})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        if args.profile:
            print()
            print(service.profile_summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analog HF IC design methodology toolkit (DAC 1996 "
                    "reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser(
        "run", help="execute one or more SPICE decks"
    )
    run_cmd.add_argument("decks", nargs="+", metavar="deck",
                         help="path(s) to deck files")
    run_cmd.add_argument(
        "--profile", action="store_true",
        help="print per-analysis engine statistics after the summary",
    )
    run_cmd.add_argument(
        "--engine",
        choices=("auto", "dense", "sparse"),
        default=None,
        help="engine backend, dense or sparse assembly and LU, or auto "
             "to choose from the circuit's size and sparsity (default: "
             "the deck's .OPTIONS SOLVER=, else auto)",
    )
    run_cmd.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help="run decks in parallel on N worker processes, or 'auto' to "
             "let the dispatch cost model choose",
    )
    run_cmd.add_argument(
        "--on-error", choices=("raise", "skip", "retry"), default="raise",
        dest="on_error",
        help="failure policy: abort on the first failing deck (raise, "
             "default), report and continue (skip), or retry "
             "non-convergent decks before reporting (retry)",
    )
    run_cmd.set_defaults(handler=_cmd_run)

    generate_cmd = commands.add_parser(
        "generate", help="emit geometry-generated .MODEL cards"
    )
    generate_cmd.add_argument("shapes", nargs="+",
                              help="shape names, e.g. N1.2-12D")
    generate_cmd.set_defaults(handler=_cmd_generate)

    shapes_cmd = commands.add_parser(
        "shapes", help="print the Fig. 8 shape taxonomy report"
    )
    shapes_cmd.set_defaults(handler=_cmd_shapes)

    select_cmd = commands.add_parser(
        "select", help="rank transistor shapes for an operating current"
    )
    select_cmd.add_argument("current",
                            help="collector current, e.g. 4m or 2.5e-3")
    select_cmd.set_defaults(handler=_cmd_select)

    optimize_cmd = commands.add_parser(
        "optimize",
        help="run the spec-driven top-down optimization loop",
    )
    optimize_cmd.add_argument(
        "--irr-target", type=float, default=30.0, dest="irr_target",
        metavar="DB", help="system image-rejection target (default 30 dB)",
    )
    optimize_cmd.add_argument(
        "--gain-corner", type=float, default=0.01, dest="gain_corner",
        metavar="FRAC",
        help="gain-balance corner for spec derivation (default 0.01)",
    )
    optimize_cmd.add_argument(
        "--gain-target", type=float, default=12.0, dest="gain_target",
        metavar="DB",
        help="mixer conversion-gain requirement (default 12 dB)",
    )
    optimize_cmd.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help="fan sweep and sizing evaluations over N worker processes, "
             "or 'auto' to let the dispatch cost model choose",
    )
    optimize_cmd.add_argument(
        "--seed", type=int, default=0,
        help="optimizer seed (same seed -> bit-identical result on any "
             "executor)",
    )
    optimize_cmd.add_argument(
        "--population", type=int, default=12, metavar="NP",
        help="differential-evolution population size (default 12)",
    )
    optimize_cmd.add_argument(
        "--generations", type=int, default=25, metavar="NG",
        help="differential-evolution generation budget (default 25)",
    )
    optimize_cmd.set_defaults(handler=_cmd_optimize)

    verify_cmd = commands.add_parser(
        "verify",
        help="qualify a deck or seeded cell across corners "
             "(docs/verification.md); exits 1 on FAIL",
    )
    verify_cmd.add_argument(
        "target",
        help="path to a SPICE deck, or the name of a seeded cell "
             "(e.g. UPMIX-1300)",
    )
    verify_cmd.add_argument(
        "--temps", type=float, nargs="+", default=(-20.0, 27.0, 85.0),
        metavar="C", help="temperature corners in Celsius "
                          "(default: -20 27 85)",
    )
    verify_cmd.add_argument(
        "--supply-tol", type=float, default=0.1, dest="supply_tol",
        metavar="FRAC",
        help="supply-voltage relative tolerance (default 0.1)",
    )
    verify_cmd.add_argument(
        "--passive-tol", type=float, default=0.1, dest="passive_tol",
        metavar="FRAC",
        help="resistor-scale relative tolerance (default 0.1; 0 drops "
             "the axis)",
    )
    verify_cmd.add_argument(
        "--rules", default=None, metavar="PATH",
        help="JSON stress-rules table (default: built-in ratings)",
    )
    verify_cmd.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help="fan corners over N worker processes, or 'auto' to let the "
             "dispatch cost model choose",
    )
    verify_cmd.add_argument(
        "--on-error", choices=("raise", "skip", "retry"),
        default="retry", dest="on_error",
        help="non-convergent corner policy (default retry; skip/retry "
             "record the corner as failed instead of aborting)",
    )
    verify_cmd.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the report record as JSON ('-' for stdout "
             "instead of the table)",
    )
    verify_cmd.add_argument(
        "--profile", action="store_true",
        help="print dispatch statistics and result-cache hit rate",
    )
    verify_cmd.set_defaults(handler=_cmd_verify)

    serve_cmd = commands.add_parser(
        "serve", help="run the simulation job server (docs/service.md)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8372,
                           help="TCP port (default 8372; 0 picks a free one)")
    serve_cmd.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="job worker threads (default 2)",
    )
    serve_cmd.add_argument(
        "--queue-limit", type=int, default=64, dest="queue_limit",
        metavar="N",
        help="queued-job backpressure limit (default 64); submits beyond "
             "it are rejected with a 503 payload",
    )
    serve_cmd.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help="default worker-process count for sweep/optimize jobs, or "
             "'auto' (default: in-process serial evaluation)",
    )
    serve_cmd.add_argument(
        "--profile", action="store_true",
        help="print the service stats digest on shutdown",
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true",
        help="log each HTTP request to stderr",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
