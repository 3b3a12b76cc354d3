"""Command-line interface for custom Willow runs.

Usage::

    python -m repro.cli --utilization 0.5 --ticks 100 --hot 4 --seed 7
    python -m repro.cli --supply-dip 0.4 --dip-at 40 --export-json run.json
    python -m repro.cli --vectorized --ticks 500     # array-based tick path
    python -m repro.cli bench                        # performance benchmarks
    python -m repro.cli bench --quick --out .        # CI smoke variant
    python -m repro.cli degraded --drop 0.2 --latency 1 --crashes 2
    python -m repro.cli resilience --crashes 3 --sensor-faults 4 --trips 1
    python -m repro.cli resilience --trips 2 --trace run.trace
    python -m repro.cli federation --sites 3 --policy greedy-greenest
    python -m repro.cli trace run.trace --server 3 --tick 40
    python -m repro.cli serve audit.jsonl --port 7717
    python -m repro.cli serve audit.jsonl --ticks 5 --tick-seconds 0.1 --load 5000
    python -m repro.cli replay audit.jsonl
    python -m repro.cli serve audit.jsonl --checkpoint-dir run.ckpt
    python -m repro.cli serve audit.jsonl --recover --ticks 20
    python -m repro.cli checkpoint run.ckpt --ticks 200 --seed 7
    python -m repro.cli resume run.ckpt
    python -m repro.cli bench service --quick
    python -m repro.cli --version

Builds the paper's 18-server data center (or a custom balanced tree),
runs the controller, and prints a summary; optional CSV/JSON export.
``bench`` runs the hot-path benchmark harness
(:mod:`repro.benchmarks.harness`) and writes ``BENCH_tick.json`` and
``BENCH_sweep.json``.  ``degraded`` runs the distributed control plane
(:mod:`repro.control_plane`) under lossy transport and fault injection
and reports the divergence from the ideal synchronous controller.
``resilience`` injects *physical* faults (server crashes, lying thermal
sensors, cooling derates, circuit trips) through the sensor-fault-
tolerant controller (:mod:`repro.plant_faults`) and reports QoS loss
and the thermal-safety verdict.  ``federation`` runs N sites on
anti-correlated solar supply with supply-aware cross-site load shifting
(:mod:`repro.federation`).

``serve`` runs Willow-as-a-service (:mod:`repro.service`): a live,
wall-clock-ticked controller fed by external JSON-lines events over TCP
with bounded-queue backpressure, every accepted event recorded in a
replayable audit log.  ``replay`` re-executes an audit log offline and
verifies bit-exact parity with the live run (see docs/service.md).

``checkpoint``/``resume`` run and resume crash-safe batch simulations,
and ``serve --recover`` restores a killed live run from its latest
valid checkpoint plus the audit tail -- both resume bit-exactly (see
docs/checkpointing.md).

The plain run, ``degraded``, ``resilience`` and ``federation`` take
``--trace FILE`` to record the structured tick trace
(:mod:`repro.trace`); ``trace`` replays a recorded file into a per-node
causal explanation -- the budget's path down the tree with the
constraint that bound at each level (see docs/observability.md).

Each subcommand is one :data:`COMMANDS` entry (name, arguments, run
function).  Bad values and flag combinations raise :class:`CliError`
while the run is parsed or built; :func:`main` prints it and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.power import parse_battery_spec


def package_version() -> str:
    """The installed version from package metadata, or the source
    fallback when running uninstalled (PYTHONPATH=src)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


class CliError(Exception):
    """An invocation rejected while its run is parsed or built: ``main``
    prints the message on one line to stderr and returns 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(f"{self.prog}: error: {message}")

    @property
    def version(self) -> str:
        # Read only on --version: no package-metadata lookup per start.
        return f"repro {package_version()}"


@contextmanager
def _building(prefix: str = ""):
    """A library constructor's ``ValueError`` while a run is built is a
    bad flag value: exit 2 with its message, not a traceback."""
    try:
        yield
    except ValueError as error:
        raise CliError(f"{prefix}{error}") from None


# ----------------------------------------------------------- argument types
def _checked(kind, ok, rule: str):
    """An argparse ``type``: convert with ``kind``, then require ``ok``."""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


def _at_least(low, kind=int):
    return _checked(kind, lambda value: value >= low, f">= {low}")


_FRACTION = _checked(float, lambda value: 0.0 < value <= 1.0, "in (0, 1]")
_PROBABILITY = _checked(float, lambda value: 0.0 <= value < 1.0, "in [0, 1)")
_POSITIVE = _checked(float, lambda value: value > 0.0, "> 0")
_COUNT = _at_least(1)
_PORT = _checked(int, lambda value: 0 <= value <= 65535, "in [0, 65535]")


def _int_list(text: str) -> Tuple[int, ...]:
    """``A,B,C``: comma-separated ints, each >= 1."""
    return tuple(_COUNT(part) for part in text.split(","))


def _output_file(path: str) -> str:
    """A single-file output flag: its directory must already exist.

    The run fails up front instead of with a traceback deep inside
    ``open`` -- and without silently creating whole directory trees the
    user probably mistyped.  Directory outputs (``--export-csv DIR``,
    ``checkpoint DIR``) are created instead.
    """
    parent = Path(path).expanduser().parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory {parent} does not exist "
            f"(create it first, or check the path)"
        )
    return path


def _spec(parse):
    """An argparse ``type`` checking a spec string with ``parse``; the
    run keeps the text."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        return text

    return check


def _forecast_model(text: str):
    from repro.federation import resolve_forecast_model

    return resolve_forecast_model(text)


# --------------------------------------------------------- subcommand table
Argument = Tuple[Tuple[str, ...], dict]


def _arg(*names: str, **kwargs) -> Argument:
    """One ``add_argument`` call, as table data."""
    return names, kwargs


def _flag(*names: str, **defaults) -> Callable[..., Argument]:
    """A flag several subcommands share: call it with what differs."""
    return lambda **overrides: _arg(*names, **{**defaults, **overrides})


def _switch(flag: str, help: str) -> Argument:
    """An on/off flag."""
    return _arg(flag, action="store_true", help=help)


def _injected(flag: str, what: str) -> Argument:
    """A count of seeded fault windows to inject."""
    return _arg(flag, type=_at_least(0), default=0, metavar="N",
                help=f"inject N seeded {what} windows")


_TICKS = _flag("--ticks", type=_COUNT, help="control ticks to run")
_SEED = _flag("--seed", type=int, default=0, help="RNG seed")
_UTILIZATION = _flag(
    "--utilization", type=_FRACTION, default=0.5,
    help="target mean utilization in (0, 1] (default 0.5)",
)
_TRACE = _flag(
    "--trace", type=_output_file, default=None, metavar="FILE",
    help="record a structured tick trace (JSONL; replay with "
         "'python -m repro.cli trace FILE')",
)
_BRANCHING = _flag(
    "--branching", type=_int_list, default=None, metavar="A,B,C",
    help="custom balanced tree, e.g. 3,3,3 (default: paper's 2,3,3)",
)
_SUPPLY_FACTOR = _flag(
    "--supply-factor", type=_at_least(0.0, float), default=1.0
)
_VMS_PER_SERVER = _flag(
    "--vms-per-server", type=_COUNT, default=4, metavar="N"
)
_BATTERY = _flag(
    "--battery", type=_spec(parse_battery_spec), default=None,
    metavar="CAPACITY[:RATE]",
)
_FORECAST = _flag(
    "--forecast", type=_spec(_forecast_model), default="oracle",
    metavar="SPEC",
)
_VECTORIZED = _flag("--vectorized", action="store_true")
_FSYNC = _flag("--fsync", action="store_true")
_OUTSIDE = _flag("--outside", type=float, default=35.0, metavar="DEGC")
_SITES = _flag("--sites", type=_COUNT, default=2, metavar="N")
_SITE_UTILIZATION = _UTILIZATION(
    default=0.35,
    help="per-site target mean utilization in (0, 1] (default 0.35)",
)


@dataclass(frozen=True)
class Command:
    """One subcommand; ``name`` is ``None`` for the plain run."""

    name: Optional[str]
    description: str
    arguments: Tuple[Argument, ...]
    run: Callable[[argparse.Namespace], int]

    def parser(self) -> argparse.ArgumentParser:
        prog = "python -m repro.cli" + (f" {self.name}" if self.name else "")
        parser = _Parser(prog=prog, description=self.description)
        for names, kwargs in self.arguments:
            parser.add_argument(*names, **kwargs)
        return parser


#: Every subcommand by name; ``None`` is the plain run.
COMMANDS: Dict[Optional[str], Command] = {}


def _command(name: Optional[str], description: str, *arguments: Argument):
    """Register the decorated run function as subcommand ``name``."""

    def register(run):
        COMMANDS[name] = Command(name, description, arguments, run)
        return run

    return register


def _open_tracer(path: Optional[str]):
    """A recording tracer for ``--trace FILE``, or None when unset."""
    if not path:
        return None
    from repro.trace import JsonlTraceWriter, Tracer

    return Tracer(JsonlTraceWriter(path))


def _close_tracer(tracer, path: Optional[str]) -> None:
    if path:
        tracer.close()
        print(f"wrote trace to {path}")


def _print_run_header(kind: str, n_servers: int, args, extra: str = ""):
    print(
        f"{kind} run: {n_servers} servers, U={args.utilization:.0%}, "
        f"{args.ticks} ticks, seed {args.seed}{extra}"
    )


def _print_fault_windows(faults) -> None:
    """One ``fault: WHAT ticks [start, end)`` line per ``(WHAT, window)``."""
    for what, window in faults:
        print(f"fault: {what} ticks [{window.start_tick}, {window.end_tick})")


def _print_thermal_safety(worst: float, t_limit: float, violations=None):
    counted = "" if violations is None else f", {violations} violations"
    ok = worst <= t_limit + 1e-6 and not violations
    print(
        f"thermal safety: worst temperature {worst:.2f} C vs "
        f"T_limit {t_limit:.0f} C{counted} ({'OK' if ok else 'VIOLATED'})"
    )


#: What ``checkpoint`` records in every checkpoint's meta so ``resume``
#: can rebuild the identical twin through :func:`_build_run`.
_RECIPE = ("seed", "vectorized", "utilization", "branching",
           "supply_factor", "vms_per_server")


def _build_run(
    *,
    seed: int,
    vectorized: bool,
    utilization: float,
    branching,
    supply_factor: float,
    vms_per_server: int = 4,
    config=None,
    supply=None,
    hot: int = 0,
    trace: Optional[str] = None,
):
    """A batch controller for the plain run, ``checkpoint`` and ``resume``.

    The same (tree, supply, placement, seed) recipe on both sides is
    what makes ``resume``'s restore onto a fresh twin bit-exact.
    ``supply`` maps the nominal supply to the trace (default constant);
    the ``trace`` file is opened last, once everything else is accepted.
    """
    from repro.core import WillowConfig, WillowController
    from repro.core.vectorized import VectorizedWillowController
    from repro.power import constant_supply
    from repro.sim import RandomStreams
    from repro.topology import build_balanced, build_paper_simulation
    from repro.workload import (
        SIMULATION_APPS,
        random_placement,
        scale_for_target_utilization,
    )

    with _building():
        tree = (
            build_balanced([int(b) for b in branching])
            if branching
            else build_paper_simulation()
        )
        servers = tree.servers()
        if hot > len(servers):
            raise CliError("--hot exceeds server count")
        config = config or WillowConfig()
        nominal = supply_factor * len(servers) * config.circuit_limit
        placement = random_placement(
            [s.node_id for s in servers],
            SIMULATION_APPS,
            RandomStreams(seed)["placement"],
            vms_per_server=vms_per_server,
        )
        scale_for_target_utilization(
            placement, config.server_model.slope, utilization
        )
        cls = VectorizedWillowController if vectorized else WillowController
        return cls(
            tree, config, (supply or constant_supply)(nominal), placement,
            ambient_overrides={
                s.name: 40.0 for s in servers[len(servers) - hot:]
            },
            seed=seed, tracer=_open_tracer(trace),
        )


# -------------------------------------------------------------- subcommands
@_command(
    None,
    "Run Willow on a simulated data center.",
    _arg("--version", action="version"),
    _UTILIZATION(),
    _TICKS(default=100),
    _SEED(),
    _arg(
        "--hot", type=_at_least(0), default=0, metavar="N",
        help="put the last N servers in a 40C hot zone",
    ),
    _BRANCHING(),
    _SUPPLY_FACTOR(
        help="nominal supply as a multiple of fleet circuit capacity"
    ),
    _arg(
        "--supply-dip", type=_PROBABILITY, default=0.0, metavar="FRAC",
        help="mid-run supply dip fraction (0 disables)",
    ),
    _arg(
        "--dip-at", type=_COUNT, default=None, metavar="TICK",
        help="tick the dip starts (default: half the run)",
    ),
    _arg(
        "--supply-csv", default=None, metavar="FILE",
        help="drive the root budget from a time,budget CSV "
             "(overrides --supply-factor/--supply-dip)",
    ),
    _switch("--no-consolidation", "disable consolidation/sleep"),
    _VECTORIZED(help="use the array-based controller (same results, faster)"),
    _arg(
        "--p-min", type=_at_least(0.0, float), default=None,
        help="migration margin (W)",
    ),
    _BATTERY(
        help="buffer the supply through a UPS battery: capacity in "
             "W*ticks, optional charge/discharge rate in W "
             "(default rate: capacity/8)",
    ),
    _arg(
        "--export-csv", default=None, metavar="DIR",
        help="write per-record CSVs to DIR",
    ),
    _arg(
        "--export-json", type=_output_file, default=None, metavar="FILE",
        help="write the full run as JSON",
    ),
    _TRACE(),
)
def _run(args) -> int:
    from repro.core import WillowConfig
    from repro.metrics import summarize_run
    from repro.metrics.export import export_csv, export_json
    from repro.power import (
        buffer_supply,
        constant_supply,
        step_supply,
        supply_from_csv,
    )

    config = WillowConfig(
        consolidation_enabled=not args.no_consolidation,
        **({} if args.p_min is None else {"p_min": args.p_min}),
    )

    def supply(nominal):
        if args.supply_csv:
            try:
                trace = supply_from_csv(args.supply_csv)
            except (OSError, ValueError) as error:
                raise CliError(f"--supply-csv: {error}") from None
        elif args.supply_dip > 0:
            dip_at = args.dip_at or max(1, args.ticks // 2)
            trace = step_supply(
                [(0.0, nominal), (float(dip_at), nominal * (1 - args.supply_dip))]
            )
        else:
            trace = constant_supply(nominal)
        if args.battery is None:
            return trace
        return buffer_supply(
            trace,
            parse_battery_spec(args.battery).build(),
            duration=args.ticks * config.delta_d,
            dt=config.delta_d,
        )

    controller = _build_run(
        seed=args.seed,
        vectorized=args.vectorized,
        utilization=args.utilization,
        branching=args.branching,
        supply_factor=args.supply_factor,
        config=config,
        supply=supply,
        hot=args.hot,
        trace=args.trace,
    )
    collector = controller.run(args.ticks)
    _close_tracer(controller.tracer, args.trace)

    _print_run_header(
        "Willow", len(controller.tree.servers()), args,
        f", hot zone on last {args.hot}" if args.hot else "",
    )
    print(summarize_run(collector).format())

    if args.export_csv:
        written = export_csv(collector, args.export_csv)
        print(f"wrote {len(written)} CSV files to {args.export_csv}")
    if args.export_json:
        path = export_json(collector, args.export_json)
        print(f"wrote {path}")
    return 0


@_command(
    "bench",
    "Run the hot-path benchmark harness.",
    _arg(
        "suite", nargs="?", choices=("all", "service", "gym"), default="all",
        help="'service' or 'gym' reruns only that suite and merges it "
             "into an existing BENCH_tick.json (default: all suites)",
    ),
    _arg(
        "--out", default=".", metavar="DIR",
        help="directory for BENCH_tick.json / BENCH_sweep.json (default .)",
    ),
    _switch(
        "--quick", "smoke-sized run (fewer ticks/iterations, same schema)"
    ),
    _arg(
        "--sizes", type=_int_list, default=None, metavar="N,M",
        help="comma-separated fleet sizes from {18, 64, 256}",
    ),
    _arg(
        "--profile", type=_output_file, default=None, metavar="FILE",
        help="profile the benchmark run with cProfile and dump pstats "
             "to FILE (inspect with 'python -m pstats FILE')",
    ),
)
def _bench(args) -> int:
    from repro.benchmarks import harness

    shapes = harness.FLEET_SHAPES
    unknown = [s for s in args.sizes or () if s not in shapes]
    if unknown:
        raise CliError(f"--sizes must be from {sorted(shapes)}, got {unknown}")
    # A single suite is rerun and merged into an existing BENCH_tick.json.
    run_suite, format_suite = {
        "service": (harness.run_service_benchmark,
                    harness.format_service_report),
        "gym": (harness.run_gym_benchmark, harness.format_gym_report),
    }.get(args.suite, (None, None))

    def run():
        if run_suite is not None:
            return {"tick": run_suite(args.out, quick=args.quick)}
        return harness.run_benchmarks(
            args.out, quick=args.quick, sizes=args.sizes
        )

    if args.profile:
        import cProfile
        import pstats

        with cProfile.Profile() as profiler:
            paths = run()
        stats = pstats.Stats(profiler)
        stats.dump_stats(args.profile)
        print(f"wrote profile to {args.profile}; top by cumulative time:")
        stats.sort_stats("cumulative").print_stats(15)
    else:
        paths = run()
    if run_suite is not None:
        import json

        payload = json.loads(paths["tick"].read_text())
        print(format_suite(payload[args.suite]))
        print(f"wrote {paths['tick']}")
    else:
        print(harness.format_report(paths))
        print(f"wrote {paths['tick']} and {paths['sweep']}")
    return 0


def bench_main(argv: List[str]) -> int:
    """``python -m repro.cli bench ARGV`` (``benchmarks/harness.py``)."""
    return main(["bench", *argv])


@_command(
    "degraded",
    "Run the distributed control plane under lossy transport and "
    "fault injection; report divergence from the ideal controller.",
    _TICKS(default=80),
    _SEED(),
    _UTILIZATION(),
    _arg(
        "--drop", type=_PROBABILITY, default=0.0, metavar="P",
        help="per-link message drop probability in [0, 1)",
    ),
    _arg(
        "--latency", type=_at_least(0), default=0, metavar="TICKS",
        help="per-link base delivery latency in ticks",
    ),
    _arg(
        "--jitter", type=_at_least(0), default=0, metavar="TICKS",
        help="uniform extra delay in {0..JITTER} ticks per transmission",
    ),
    _arg(
        "--dup", type=_PROBABILITY, default=0.0, metavar="P",
        help="per-link duplication probability in [0, 1)",
    ),
    _arg(
        "--reorder", type=_PROBABILITY, default=0.0, metavar="P",
        help="probability a message is held back an extra tick",
    ),
    _injected("--crashes", "PMU crash/restart"),
    _injected("--partitions", "link-partition"),
    _arg(
        "--ttl", type=_COUNT, default=None, metavar="TICKS",
        help="budget staleness TTL (default: 3 supply periods)",
    ),
    _switch(
        "--unreliable", "disable acks/retries (fire-and-forget transport)"
    ),
    _TRACE(),
)
def _degraded(args) -> int:
    from repro.control_plane import (
        ControlPlaneConfig,
        LinkProfile,
        StalenessPolicy,
        divergence_summary,
        random_fault_schedule,
        run_distributed,
    )
    from repro.core import WillowConfig
    from repro.core.controller import run_willow
    from repro.metrics import summarize_run
    from repro.topology import build_paper_simulation

    config = WillowConfig()
    tree = build_paper_simulation()
    control_plane = ControlPlaneConfig(
        default_link=LinkProfile(
            latency_ticks=args.latency,
            jitter_ticks=args.jitter,
            drop_prob=args.drop,
            dup_prob=args.dup,
            reorder_prob=args.reorder,
        ),
        staleness=StalenessPolicy(ttl_ticks=args.ttl),
        reliable=not args.unreliable,
    )
    faults = random_fault_schedule(
        tree,
        seed=args.seed,
        horizon_ticks=args.ticks,
        n_crashes=args.crashes,
        n_partitions=args.partitions,
    )

    run_kwargs = dict(
        config=config,
        target_utilization=args.utilization,
        n_ticks=args.ticks,
        seed=args.seed,
    )
    tracer = _open_tracer(args.trace)
    controller, collector = run_distributed(
        tree=tree, control_plane=control_plane, faults=faults,
        tracer=tracer, **run_kwargs
    )
    _close_tracer(tracer, args.trace)
    _, ideal = run_willow(**run_kwargs)

    _print_run_header("Distributed Willow", len(tree.servers()), args)
    print(
        f"transport: drop={args.drop}, latency={args.latency}t, "
        f"jitter={args.jitter}t, dup={args.dup}, reorder={args.reorder}, "
        f"{'unreliable' if args.unreliable else 'reliable (ack+retry)'}"
    )
    _print_fault_windows(
        [(f"PMU {c.node_id} down", c) for c in faults.crashes]
        + [(f"link {p.link} partitioned", p) for p in faults.partitions]
    )
    print(summarize_run(collector).format())

    stats = controller.transport_stats()
    print(
        f"transport stats: sent={stats.sent} retransmits={stats.retransmits} "
        f"delivered={stats.delivered} dup_delivered={stats.duplicates_delivered}"
    )
    print(
        f"                 dropped: loss={stats.dropped_loss} "
        f"partition={stats.dropped_partition} crash={stats.dropped_crash} "
        f"expired={stats.expired} stale_discards={controller.stale_discards()}"
    )
    summary = divergence_summary(ideal, collector)
    print(
        "divergence vs ideal controller: "
        f"budget {summary['budget_mean']:.2f} W mean / "
        f"{summary['budget_max']:.1f} W max, "
        f"temperature {summary['temperature_mean']:.3f} C mean / "
        f"{summary['temperature_max']:.2f} C max"
    )
    _print_thermal_safety(
        max(s.temperature for s in collector.server_samples),
        config.thermal.t_limit,
    )
    return 0


@_command(
    "resilience",
    "Run Willow under physical plant faults (crashes, sensor "
    "faults, cooling derates, circuit trips) with the sensor-"
    "fault-tolerant controller; report QoS loss and safety.",
    _TICKS(default=80),
    _SEED(),
    _UTILIZATION(),
    _injected("--crashes", "server crash/restart"),
    _injected("--sensor-faults", "thermal-sensor fault"),
    _injected("--cooling-events", "CRAC derate"),
    _injected("--trips", "branch-circuit trip"),
    _OUTSIDE(help="outside air temperature mixed in by degraded cooling"),
    _TRACE(),
)
def _resilience(args) -> int:
    from repro.core import WillowConfig
    from repro.core.events import MigrationCause
    from repro.metrics import summarize_run
    from repro.plant_faults import random_plant_schedule, run_resilient
    from repro.topology import build_paper_simulation

    config = WillowConfig()
    tree = build_paper_simulation()
    schedule = random_plant_schedule(
        tree,
        seed=args.seed,
        horizon_ticks=args.ticks,
        n_crashes=args.crashes,
        n_sensor_faults=args.sensor_faults,
        n_cooling_events=args.cooling_events,
        n_circuit_trips=args.trips,
    )

    tracer = _open_tracer(args.trace)
    controller, collector = run_resilient(
        tree=tree,
        config=config,
        plant_faults=schedule,
        outside_temp=args.outside,
        target_utilization=args.utilization,
        n_ticks=args.ticks,
        seed=args.seed,
        tracer=tracer,
    )
    _close_tracer(tracer, args.trace)

    _print_run_header("Resilient Willow", len(tree.servers()), args)
    print(
        f"plant faults: crashes={len(schedule.crashes)} "
        f"sensor={len(schedule.sensor_faults)} "
        f"cooling={len(schedule.cooling)} trips={len(schedule.trips)} "
        f"(outside {args.outside:.0f} C)"
    )
    _print_fault_windows(
        [(f"server {c.server_id} crashed", c) for c in schedule.crashes]
        + [(f"sensor {f.server_id} {f.kind}", f)
           for f in schedule.sensor_faults]
        + [("cooling " + ("facility" if e.zone_id is None
                          else f"zone {e.zone_id}")
            + f" derate {e.derate:.0%}", e) for e in schedule.cooling]
        + [(f"circuit {t.node_id} tripped", t) for t in schedule.trips]
    )
    print(summarize_run(collector).format())
    print(
        f"evacuations          : "
        f"{collector.migration_count(MigrationCause.EVACUATION)}"
    )
    _print_thermal_safety(
        max(s.temperature for s in collector.server_samples),
        config.thermal.t_limit,
        sum(s.thermal.violations for s in controller.servers.values()),
    )
    min_budget = min(s.budget for s in collector.server_samples)
    print(
        f"budget floor: {min_budget:.2f} W "
        f"({'OK' if min_budget >= 0 else 'VIOLATED'})"
    )
    return 0


@_command(
    "federation",
    "Run a geo-federation: N Willow sites on anti-correlated "
    "solar supply, tick-locked, with supply-aware cross-site "
    "load shifting (see docs/federation.md).",
    _SITES(help="number of sites (solar humps spread 1/N day apart)"),
    _TICKS(default=192),
    _SEED(default=1),
    _SITE_UTILIZATION,
    _arg(
        "--policy", default="proportional",
        help="shifting policy: neutral, proportional, greedy-greenest, "
             "price-aware, predictive (default proportional)",
    ),
    _arg(
        "--horizon", type=_at_least(0), default=0, metavar="K",
        help="lookahead supply periods for --policy predictive "
             "(0 degrades to proportional; default 0)",
    ),
    _switch(
        "--cooling",
        "charge the modeled cooling-plant overhead against every "
        "site budget and let the predictive planner actuate "
        "supply-air setpoints (incompatible with --vectorized)",
    ),
    _arg(
        "--outside-temp", type=float, default=30.0, metavar="DEG_C",
        help="outside air temperature for --cooling (default 30)",
    ),
    _arg(
        "--wan-cost", type=_at_least(0.0, float), default=None, metavar="W",
        help="WAN migration cost charged to both end servers "
             "(default: 4x the intra-site migration cost)",
    ),
    _arg(
        "--wan-ticks", type=_at_least(0), default=None, metavar="N",
        help="ticks the WAN cost persists (default: 2x intra-site)",
    ),
    _BATTERY(
        help="give every site a UPS battery (starts empty): capacity "
             "in W*ticks, optional rate in W (default: capacity/8)",
    ),
    _arg(
        "--solar-peak", type=_POSITIVE, default=None, metavar="W",
        help="per-site solar peak in W (default: the federation "
             "experiment's sizing)",
    ),
    _FORECAST(
        help="supply forecast model for forecast-aware policies: "
             "oracle, persistence, noisy-oracle:SIGMA[:SEED], "
             "ar1:RHO:SIGMA[:SEED] (default oracle)",
    ),
    _VECTORIZED(
        help="batch all sites into one shared fleet block "
             "(same results, faster; see docs/performance.md)",
    ),
    _TRACE(),
)
def _federation(args) -> int:
    from repro.experiments.fig_federation import SOLAR_PEAK, build_specs
    from repro.federation import POLICIES, CoolingControl, run_federation
    from repro.metrics.federation import summarize_federation

    if args.cooling and args.vectorized:
        raise CliError("--cooling is incompatible with --vectorized")
    if args.policy not in POLICIES:
        raise CliError(
            f"--policy must be one of {', '.join(sorted(POLICIES))}"
        )
    # Lookahead knobs silently do nothing without the planner, which
    # only a forecast-aware policy with --horizon > 0 builds; reject
    # them instead of pretending they took effect.
    aware = sorted(name for name, fn in POLICIES.items() if fn.forecast_aware)
    for flag, given in (
        ("horizon", args.horizon > 0),
        ("cooling", args.cooling),
        ("forecast", args.forecast != "oracle"),
    ):
        if given and args.policy not in aware:
            raise CliError(
                f"--{flag} needs a forecast-aware policy "
                f"({', '.join(aware)}); {args.policy!r} ignores it"
            )
    if args.forecast != "oracle" and not args.horizon:
        raise CliError(
            "--forecast needs --horizon > 0: only the lookahead "
            "planner reads the forecast"
        )
    battery = parse_battery_spec(args.battery) if args.battery else None
    specs = build_specs(
        args.sites,
        battery_capacity=battery.capacity if battery else 0.0,
        battery_rate=battery.max_rate if battery else None,
        target_utilization=args.utilization,
        solar_peak=SOLAR_PEAK if args.solar_peak is None else args.solar_peak,
        seed=args.seed,
    )
    tracer = _open_tracer(args.trace)
    coordinator = run_federation(
        specs,
        n_ticks=args.ticks,
        policy=args.policy,
        wan_cost_power=args.wan_cost,
        wan_cost_ticks=args.wan_ticks,
        horizon=args.horizon,
        cooling=(
            CoolingControl(outside_temp=args.outside_temp)
            if args.cooling else None
        ),
        forecast=args.forecast,
        tracer=tracer,
        vectorized=args.vectorized,
    )
    _close_tracer(tracer, args.trace)

    print(
        f"Federated Willow run: {args.sites} site(s), "
        f"policy {args.policy}, U={args.utilization:.0%}, "
        f"{args.ticks} ticks, seed {args.seed}"
        + (f", horizon {args.horizon}" if args.horizon else "")
        + (f", forecast {args.forecast}" if args.forecast != "oracle" else "")
        + (f", battery {args.battery} per site" if args.battery else "")
        + (", cooling actuation on" if args.cooling else "")
    )
    print(summarize_federation(coordinator).format())
    _print_thermal_safety(
        max(
            sample.temperature
            for site in coordinator.sites
            for sample in site.collector.server_samples
        ),
        max(site.config.thermal.t_limit for site in coordinator.sites),
    )
    return 0


@_command(
    "trace",
    "Replay a recorded tick trace: explain one server's budget "
    "at one tick (the allocation path down the tree with the "
    "binding constraint at each level), or summarise the run.",
    _arg(
        "file", metavar="FILE",
        help="trace file recorded with --trace (rotated segments found "
             "automatically)",
    ),
    _arg(
        "--server", type=int, default=None, metavar="ID",
        help="server (leaf) node id to explain (default: first leaf)",
    ),
    _arg(
        "--tick", type=int, default=None, metavar="N",
        help="control tick to explain (default: last recorded)",
    ),
    _arg(
        "--run", type=int, default=-1, metavar="I",
        help="which run in the file when it holds several (default: last)",
    ),
    _switch(
        "--histogram",
        "print the binding-constraint histogram over the whole run",
    ),
    _arg(
        "--level", type=int, default=None, metavar="L",
        help="restrict --histogram to one tree level",
    ),
    _switch("--events", "print plant / control-plane fault edges"),
)
def _trace(args) -> int:
    from repro.trace import TraceReader

    try:
        reader = TraceReader(args.file, run=args.run)
    except (OSError, ValueError, IndexError) as error:
        raise CliError(f"trace: {error}") from None

    def histogram(title, counts, share=False):
        total = sum(counts.values()) or 1
        print(title)
        for binding, count in sorted(counts.items(), key=lambda kv: -kv[1]):
            print(f"  {binding:15s} {count}"
                  + (f" ({count / total:.0%})" if share else ""))

    run = reader.run
    explain = args.server is not None or args.tick is not None
    if not (args.histogram or args.events or explain):
        ticks = len(run.frames)
        print(
            f"trace of {run.controller or 'unknown controller'}: "
            f"{len(reader.runs)} run(s), {ticks} tick frame(s) in "
            f"run {args.run}, {len(run.leaf_ids())} servers"
        )
        histogram("binding constraints:", reader.constraint_histogram(), True)
        events = reader.events()
        print(f"{len(events)} fault edge(s); use --events to list them")
        print(
            "explain a server with: --server ID --tick N "
            f"(servers: {run.leaf_ids()[:6]}..., last tick "
            f"{reader.last_tick() if ticks else 'n/a'})"
        )
    if args.histogram:
        where = f" at level {args.level}" if args.level is not None else ""
        histogram(f"binding constraints{where}:",
                  reader.constraint_histogram(level=args.level))
    if args.events:
        events = reader.events()
        print(f"{len(events)} fault edge(s):")
        for event in events:
            detail = f" ({event['detail']})" if event["detail"] else ""
            print(
                f"  tick {event['tick']:>5} t={event['t']:g}: "
                f"{event['kind']} @ node {event['node']}{detail}"
            )
    if explain:
        server = args.server
        if server is None:
            leaves = run.leaf_ids()
            if not leaves:
                raise CliError("trace: meta frame lists no leaves")
            server = leaves[0]
        tick = args.tick if args.tick is not None else reader.last_tick()
        try:
            print(reader.explain(server, tick))
        except (KeyError, ValueError) as error:
            raise CliError(f"trace: {error}") from None
    return 0


@_command(
    "serve",
    "Run Willow-as-a-service: a live controller ticked on the "
    "wall clock, fed by JSON-lines events over TCP through a "
    "bounded queue, with every accepted event recorded in a "
    "replayable audit log (see docs/service.md).",
    _arg(
        "audit", type=_output_file, metavar="AUDIT_FILE",
        help="audit log to write (JSONL; replay with "
             "'python -m repro.cli replay AUDIT_FILE')",
    ),
    _arg(
        "--host", default="127.0.0.1",
        help="listen address (default 127.0.0.1)",
    ),
    _arg(
        "--port", type=_PORT, default=0,
        help="listen port (default 0 = ephemeral, printed on start)",
    ),
    _switch(
        "--no-listen",
        "no TCP server; ingest only via the in-process API "
        "(embedding and tests)",
    ),
    _TICKS(
        default=None, metavar="N",
        help="stop after N ticks (default: run until SIGINT/SIGTERM)",
    ),
    _arg(
        "--tick-seconds", type=_POSITIVE, default=None, metavar="S",
        help="wall-clock seconds per control tick (default: the "
             "config's delta_d = 1 s)",
    ),
    _arg(
        "--queue-bound", type=_COUNT, default=8192, metavar="N",
        help="max events pending between ticks; beyond it the gateway "
             "rejects with 429 + retry_after (default 8192)",
    ),
    _arg(
        "--controller", default="scalar", choices=("scalar", "vectorized"),
        help="embedded controller: scalar accepts live fault events, "
             "vectorized is faster at large fleets (default scalar)",
    ),
    _UTILIZATION(help="initial fleet utilization in (0, 1] (default 0.5)"),
    _VMS_PER_SERVER(
        type=_at_least(0),
        help="initial VMs per server (0 = start empty; default 4)",
    ),
    _BRANCHING(),
    _SEED(),
    _SUPPLY_FACTOR(
        help="initial root budget as a multiple of fleet circuit "
             "capacity (supply_update events change it live)",
    ),
    _OUTSIDE(help="outside air temperature for cooling derates"),
    _FSYNC(
        help="fsync the audit log at every tick boundary (crash-"
             "durable, costs a disk round-trip per tick)",
    ),
    _arg(
        "--load", type=_COUNT, default=None, metavar="N",
        help="self-load: drive N events through the TCP gateway from "
             "an in-process load generator (smoke runs / benchmarks)",
    ),
    _arg(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write periodic hash-verified checkpoints of the live "
             "simulation into DIR (crash recovery: serve --recover)",
    ),
    _arg(
        "--checkpoint-every", type=_COUNT, default=None, metavar="N",
        help="checkpoint cadence in ticks (default: the config's "
             "eta2 consolidation cadence)",
    ),
    _switch(
        "--recover",
        "crash recovery: restore the latest valid checkpoint from "
        "--checkpoint-dir (default AUDIT_FILE.ckpt), replay the "
        "audit tail, and continue the run appending to the same "
        "audit log; spec flags are taken from the audit meta, and "
        "--ticks means additional ticks",
    ),
)
def _serve(args) -> int:
    if args.load is not None and args.no_listen:
        raise CliError("--load needs the TCP server (drop --no-listen)")
    if (args.checkpoint_every is not None and args.checkpoint_dir is None
            and not args.recover):
        raise CliError("--checkpoint-every needs --checkpoint-dir")

    import asyncio
    import signal

    from repro.checkpoint import CheckpointError, CheckpointStore
    from repro.metrics import summarize_run
    from repro.service import (
        AuditLog,
        AuditRecordError,
        IngestGateway,
        LiveRunner,
        LiveSimulation,
        ServiceSpec,
        generate_load,
        recover_simulation,
    )

    checkpoint_dir = args.checkpoint_dir
    if args.recover:
        # The crashed run's spec lives in its audit meta; CLI spec
        # flags (seed, controller, ...) are not consulted.
        checkpoint_dir = checkpoint_dir or f"{args.audit}.ckpt"
        try:
            recovery = recover_simulation(args.audit, checkpoint_dir)
        except (FileNotFoundError, AuditRecordError, CheckpointError) as error:
            raise CliError(f"serve --recover: {error}") from None
        print(recovery.format(), flush=True)
        sim = recovery.sim
        max_ticks = sim.tick + args.ticks if args.ticks is not None else None
    else:
        with _building("serve: "):
            spec = ServiceSpec(
                seed=args.seed,
                controller=args.controller,
                branching=args.branching,
                utilization=args.utilization,
                vms_per_server=args.vms_per_server,
                supply_factor=args.supply_factor,
                outside_temp=args.outside,
            )
        sim = LiveSimulation(spec)
        max_ticks = args.ticks
    if args.load is not None and not sim.n_vms:
        raise CliError("--load needs an initial fleet (--vms-per-server > 0)")
    gateway = IngestGateway(
        queue_bound=args.queue_bound, allow_faults=sim.allow_faults
    )
    audit = AuditLog(args.audit, fsync=args.fsync, append=args.recover)
    checkpoints = (
        CheckpointStore(checkpoint_dir, fsync=args.fsync)
        if checkpoint_dir is not None
        else None
    )
    runner = LiveRunner(
        sim,
        gateway,
        audit,
        tick_seconds=args.tick_seconds,
        max_ticks=max_ticks,
        checkpoints=checkpoints,
        checkpoint_every=args.checkpoint_every,
        write_meta=not args.recover,
    )

    async def run():
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, runner.request_stop)
            except (NotImplementedError, RuntimeError):
                signal.signal(signum, lambda *_: runner.request_stop())
        server = None
        load_task = None
        if not args.no_listen:
            server = await gateway.start_server(args.host, args.port)
            host, port = server.sockets[0].getsockname()[:2]
            print(f"serving on {host}:{port} (audit -> {args.audit})",
                  flush=True)
            if args.load is not None:
                load_task = asyncio.ensure_future(
                    generate_load(
                        host,
                        port,
                        sorted(sim.controller._vm_by_id),
                        total_events=args.load,
                        source="self-load",
                    )
                )
        report = await runner.run()
        if load_task is not None:
            load = await load_task
            print(
                f"self-load: offered {load.offered}, accepted "
                f"{load.accepted}, {load.rejected_full} backpressured "
                f"({load.accepted_per_sec:.0f} accepted events/s)"
            )
        if server is not None:
            server.close()
            await server.wait_closed()
        return report

    report = asyncio.run(run())
    print(report.format())
    print(summarize_run(sim.collector).format())
    return 0


@_command(
    "replay",
    "Re-execute a live run's audit log offline and verify "
    "bit-exact parity with the recorded decision digest.",
    _arg(
        "file", metavar="AUDIT_FILE",
        help="audit log written by 'serve' (rotated segments found "
             "automatically)",
    ),
    _switch("--summary", "also print the replayed run's metrics summary"),
)
def _replay(args) -> int:
    from repro.metrics import summarize_run
    from repro.service import AuditRecordError, replay

    try:
        result = replay(args.file)
    except (FileNotFoundError, AuditRecordError) as error:
        raise CliError(f"replay: {error}") from None
    print(result.format())
    if args.summary:
        print(summarize_run(result.collector).format())
    return 1 if result.parity is False else 0


@_command(
    "checkpoint",
    "Run a batch Willow simulation while writing periodic "
    "hash-verified checkpoints; resume it bit-exactly with "
    "'python -m repro.cli resume DIR' (see docs/checkpointing.md).",
    _arg(
        "dir", metavar="DIR",
        help="checkpoint directory (created if absent)",
    ),
    _TICKS(default=100),
    _arg(
        "--every", type=_COUNT, default=None, metavar="N",
        help="checkpoint cadence in ticks (default: the config's eta2 "
             "consolidation cadence)",
    ),
    _SEED(),
    _VECTORIZED(help="use the array-based controller"),
    _UTILIZATION(),
    _BRANCHING(),
    _SUPPLY_FACTOR(help="supply as a multiple of fleet circuit capacity"),
    _VMS_PER_SERVER(help="initial VMs per server (default 4)"),
    _arg(
        "--keep", type=_COUNT, default=None, metavar="N",
        help="retain only the newest N checkpoints (default: all)",
    ),
    _FSYNC(help="fsync every checkpoint (crash-durable)"),
)
def _checkpoint(args) -> int:
    from repro.checkpoint import CheckpointStore, Checkpointer
    from repro.metrics import summarize_run
    from repro.service.simulation import decision_digest

    recipe = {key: getattr(args, key) for key in _RECIPE}
    controller = _build_run(**recipe)
    store = CheckpointStore(args.dir, fsync=args.fsync, keep=args.keep)
    # The meta rides inside every checkpoint header so `resume` can
    # rebuild the identical twin without any side-channel.
    checkpointer = Checkpointer(
        store, every=args.every, meta={"ticks": args.ticks, **recipe}
    )
    checkpointer.attach(controller)
    collector = controller.run(args.ticks)
    print(
        f"checkpointed run: {args.ticks} tick(s), seed {args.seed}, "
        f"{len(checkpointer.saved)} checkpoint(s) at ticks "
        f"{checkpointer.saved} -> {args.dir}"
    )
    print(f"decision digest: {decision_digest(collector)}")
    print(summarize_run(collector).format())
    return 0


@_command(
    "resume",
    "Resume a checkpointed batch run from its latest valid "
    "checkpoint (corrupt files are skipped) and run it to "
    "completion; the decision digest matches an uninterrupted "
    "run bit-exactly.",
    _arg(
        "dir", metavar="DIR",
        help="checkpoint directory written by 'checkpoint'",
    ),
    _arg(
        "--at", type=int, default=None, metavar="TICK",
        help="resume from the checkpoint at this exact tick instead of "
             "the latest valid one",
    ),
    _TICKS(
        default=None, metavar="N",
        help="total ticks to run to (default: the run length recorded "
             "when the checkpoints were written)",
    ),
)
def _resume(args) -> int:
    from repro.checkpoint import (
        CheckpointCorruptError,
        CheckpointError,
        CheckpointStore,
    )
    from repro.metrics import summarize_run
    from repro.service.simulation import decision_digest

    if not Path(args.dir).is_dir():
        raise CliError(
            f"resume: {args.dir} is not a directory (run "
            f"'python -m repro.cli checkpoint {args.dir}' first?)"
        )
    store = CheckpointStore(args.dir)
    try:
        document = (
            store.latest_valid() if args.at is None else store.load(args.at)
        )
    except CheckpointCorruptError as error:
        raise CliError(f"resume: corrupt checkpoint: {error}") from None
    except (FileNotFoundError, PermissionError, CheckpointError) as error:
        raise CliError(f"resume: {error}") from None
    if document is None:
        raise CliError(f"resume: no valid checkpoint found in {args.dir}")
    for path, reason in document.get("skipped", ()):
        print(f"resume: skipped corrupt checkpoint {path}: {reason}")
    meta = document["meta"]
    if any(key not in meta for key in ("ticks", *_RECIPE)
           if key != "branching"):
        raise CliError(
            f"resume: checkpoint at tick {document['tick']} has no "
            f"rebuild recipe in its meta (written by 'checkpoint'? "
            f"service checkpoints are resumed with 'serve --recover')"
        )
    total_ticks = args.ticks if args.ticks is not None else meta["ticks"]
    if total_ticks < document["tick"]:
        raise CliError(
            f"resume: --ticks {total_ticks} is before the checkpoint "
            f"at tick {document['tick']}"
        )
    controller = _build_run(**{key: meta.get(key) for key in _RECIPE})
    try:
        controller.restore_state(document["state"])
    except CheckpointError as error:
        raise CliError(f"resume: {error}") from None
    remaining = total_ticks - document["tick"]
    print(
        f"resumed from checkpoint at tick {document['tick']} "
        f"({document['path']}); running {remaining} more tick(s)"
    )
    # A run checkpointed at its last tick is already complete.
    collector = (controller.run(remaining) if remaining
                 else controller.collector)
    print(f"decision digest: {decision_digest(collector)}")
    print(summarize_run(collector).format())
    return 0


@_command(
    "gym",
    "Train learned federation schedulers in the gym environment "
    "and score them against the shipped policies on one "
    "scenario (see docs/gym.md).",
    _SITES(help="federation size (default 2)"),
    _arg(
        "--windows", type=_COUNT, default=23, metavar="W",
        help="decision windows per episode (default 23 = one solar day)",
    ),
    _arg(
        "--horizon", type=_at_least(0), default=4, metavar="K",
        help="forecast steps in the observation (default 4)",
    ),
    _SEED(help="scenario seed (default 0)"),
    _arg(
        "--agent-seed", type=int, default=0,
        help="agent RNG seed (default 0)",
    ),
    _arg(
        "--iterations", type=_COUNT, default=2, metavar="I",
        help="CEM iterations (default 2)",
    ),
    _arg(
        "--population", type=_at_least(2), default=6, metavar="P",
        help="CEM population per iteration (default 6)",
    ),
    _arg(
        "--episodes", type=_at_least(0), default=4, metavar="E",
        help="bandit training episodes (default 4)",
    ),
    _SITE_UTILIZATION,
    _BATTERY(
        type=_at_least(0.0, float), default=0.0, metavar="CAPACITY",
        help="per-site UPS capacity in W*ticks (default 0 = none)",
    ),
    _FORECAST(help="forecast model behind the observations (default oracle)"),
    _switch("--no-bandit", "skip the policy-switching bandit rows"),
)
def _gym(args) -> int:
    from repro.gym import GymConfig, compare

    config = GymConfig(
        n_sites=args.sites,
        windows=args.windows,
        horizon=args.horizon,
        target_utilization=args.utilization,
        battery_capacity=args.battery,
        forecast=args.forecast,
    )
    rows = compare(
        config,
        scenario_seed=args.seed,
        agent_seed=args.agent_seed,
        iterations=args.iterations,
        population=args.population,
        bandit_episodes=args.episodes,
        with_bandit=not args.no_bandit,
    )
    print(
        f"Gym schedulers: {args.sites} site(s), {args.windows} windows, "
        f"K={args.horizon}, scenario seed {args.seed}"
        + (f", forecast {args.forecast}" if args.forecast != "oracle" else "")
    )
    print(
        f"{'scheduler':>16}  {'dropped':>10}  {'WAN energy':>10}  "
        f"{'moves':>5}  {'violations':>10}  notes"
    )
    for name, row in rows.items():
        notes = (
            f"arm={row['arm']}" if "arm" in row
            else f"theta=({row['theta'][0]:.2f}, {row['theta'][1]:.2f})"
            if "theta" in row else ""
        )
        print(
            f"{name:>16}  {row['dropped']:>10.0f}  "
            f"{row['wan_energy']:>10.0f}  {row['moves']:>5}  "
            f"{row['violations']:>10.0f}  {notes}"
        )
    violations = sum(row["violations"] for row in rows.values())
    print(
        f"thermal safety: {'OK' if violations == 0 else 'VIOLATED'} "
        f"({violations:.0f} violation ticks across all schedulers)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv[0] if argv and argv[0] in COMMANDS else None
    command = COMMANDS[name]
    try:
        args = command.parser().parse_args(argv[1:] if name else argv)
        return command.run(args)
    except CliError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
