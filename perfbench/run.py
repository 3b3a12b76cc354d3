"""Willow benchmark: tick latency, throughput and per-layer time.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload site_drain --seed 1 --seconds 40 --trace 0

Workloads: ``site_drain``, ``fed_solar``, ``live_ingest`` (see
perfbench/README.md for why each exists and what it should stress).

Each run is one process.  It pins the OpenMP/OpenBLAS/MKL pools to one
thread, turns the experiment disk cache off, runs one short warm-up
episode, then repeats full episodes (build + a fixed number of ticks)
until ``--seconds`` are spent.  Episodes cycle through the workload's
seeded instances, and every repeat of an instance must make
bit-identical decisions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
plain episode and one traced episode, prints the per-layer metrics and
writes the spans to ``.perfbench_out/spans-<workload>.jsonl``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin native thread pools before NumPy is imported, and keep the
# experiment disk cache from serving anything.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["WILLOW_NO_CACHE"] = "1"
os.environ.pop("WILLOW_CACHE_DIR", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Sequence, Tuple  # noqa: E402

import numpy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

#: Ticks beyond the tail percentile, at the workload's fixed tick count.
TAIL_BEYOND = 10
#: Extra builds (timed, then discarded) before each episode, so the
#: set-up samples spread over the whole run as the ticks do.
EXTRA_SETUPS = 3
#: Warm-up episode length (ticks), run before anything is timed.
WARMUP_TICKS = 16

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_tail", "ms"),
    ("server_ticks_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_energy_mj", "MJ"),
    ("sim_dropped_kj", "kJ"),
    ("sim_migrations", "count"),
)

TICK_CLASSES = ("plain", "supply", "consolidate", "refill", "checkpoint")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for cls in TICK_CLASSES:
        units[f"tick.{cls}.ms_p50"] = "ms"
        units[f"tick.{cls}.n"] = "count"
    units["tick.busy_ms"] = "ms"
    units["tick.self_ms"] = "ms"
    units["tick.tail_percentile"] = "pct"
    for layer in spans.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_ms"] = "ms"
    units.update(
        {
            "core.consolidation.ms_max": "ms",
            "core.consolidation.moves": "count",
            "core.consolidation.slept": "count",
            "core.consolidation.useful_ratio": "ratio",
            "core.migration.moves": "count",
            "core.migration.unmatched": "count",
            "core.migration.useful_ratio": "ratio",
            "binpack.ffdlr.items": "count",
            "binpack.ffdlr.placed_ratio": "ratio",
            "federation.transfers": "count",
            "federation.cross_moves": "count",
            "federation.cross_watt_ratio": "ratio",
            "checkpoint.save.bytes_first": "bytes",
            "checkpoint.save.bytes_last": "bytes",
            "service.submit.rejected": "count",
            "service.apply.ignored": "count",
            "service.audit.bytes": "bytes",
            "service.replay_s": "s",
            "trace.overhead_pct": "pct",
        }
    )
    return units


# ------------------------------------------------------------- statistics
def tail_percentile(n_ticks: int) -> float:
    """Highest percentile (0.1 steps) with ``TAIL_BEYOND`` ticks above it."""
    return math.floor(1000.0 * (1.0 - TAIL_BEYOND / n_ticks)) / 10.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict[str, str]:
    record = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": str(os.cpu_count()),
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        record[var] = os.environ[var]
    return record


# ----------------------------------------------------------------- phases
def warm_up(workload, seed: int) -> None:
    """One short episode so allocator growth and lazy imports are paid."""
    n_ticks = workload.n_ticks
    workload.n_ticks = min(WARMUP_TICKS, n_ticks)
    try:
        workload.episode(seed)
    finally:
        workload.n_ticks = n_ticks


def extra_setups(workload, seed: int) -> List[float]:
    """Time ``EXTRA_SETUPS`` builds that are dropped without running."""
    out = []
    for _ in range(EXTRA_SETUPS):
        start = time.perf_counter()
        state = workload.build(16 * seed)
        out.append(time.perf_counter() - start)
        workload.discard(state)
    return out


def timed_episodes(workload, seed: int, seconds: float) -> Tuple[list, list, list]:
    """Episodes until ``seconds`` are spent.

    Returns ``(episodes, setup_seconds, failures)``.  Instances run in turn (0, 1, ..., K-1, 0, 1, ...), each at least
    once and instance 0 at least twice, so the decision check always
    has a repeat to compare.  ``live_ingest`` replays the first
    episode's audit log inside the loop, so its cost counts.
    """
    deadline = time.perf_counter() + seconds
    episodes: list = []
    setups: List[float] = []
    failures: List[str] = []
    cost = 0.0
    while (
        len(episodes) <= workload.instances
        or time.perf_counter() + cost <= deadline
    ):
        start = time.perf_counter()
        setups += extra_setups(workload, seed)
        gc.collect()
        episode = workload.episode(seed, len(episodes) % workload.instances)
        setups.append(episode.setup_s)
        if episode.audit_path is not None and not episodes:
            failures += workloads.check_replay(episode.audit_path)
        episodes.append(episode)
        cost = time.perf_counter() - start
    return episodes, setups, failures


def run_checks(episodes) -> List[str]:
    """Per-episode checks, the decision check, and the cache check."""
    failures = [f for ep in episodes for f in ep.failures]
    failures += workloads.check_same_decisions(episodes)
    from repro.experiments import cache

    if cache.cache_enabled():
        failures.append("the experiment disk cache is enabled")
    return failures


def timed_seconds(episodes) -> float:
    return sum(ep.stamps[-1] - ep.stamps[0] for ep in episodes)


def end_to_end_metrics(workload, episodes, setups: Sequence[float]) -> dict:
    """Each instance's statistics over its episodes, averaged over instances.

    Simulated totals are summed over the instances instead.
    """
    per_instance = []
    for instance in range(workload.instances):
        mine = [ep for ep in episodes if ep.instance == instance]
        ticks = [ms for ep in mine for ms in ep.tick_ms]
        seconds = timed_seconds(mine)
        row = {
            "tick_ms_p50": statistics.median(ticks),
            "tick_ms_tail": float(
                numpy.percentile(ticks, tail_percentile(workload.n_ticks))
            ),
            "server_ticks_per_s": workload.n_servers * len(ticks) / seconds,
            "events_per_s": sum(ep.attempted for ep in mine) / seconds,
        }
        row.update(mine[0].totals)
        per_instance.append(row)
    values = {
        name: statistics.fmean(row[name] for row in per_instance)
        for name in per_instance[0]
    }
    for name in episodes[0].totals:  # simulated totals add up
        values[name] *= len(per_instance)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb()
    return values


def tick_class_metrics(workload, episode) -> dict:
    by_class: Dict[str, List[float]] = {cls: [] for cls in TICK_CLASSES}
    for k, ms in enumerate(episode.tick_ms):
        by_class[workload.tick_class(k)].append(ms)
    out = {}
    for cls, values in by_class.items():
        out[f"tick.{cls}.ms_p50"] = statistics.median(values) if values else 0.0
        out[f"tick.{cls}.n"] = len(values)
    return out


def layer_metrics(reduced: dict) -> dict:
    layers = reduced["layers"]
    out = {
        "tick.busy_ms": reduced["tick_busy_ms"],
        "tick.self_ms": reduced["tick_self_ms"],
    }
    for layer in spans.LAYERS:
        row = layers.get(layer, {})
        out[f"{layer}.calls"] = row.get("calls", 0)
        out[f"{layer}.busy_ms"] = row.get("busy_ms", 0.0)

    def extra(layer: str) -> Dict[str, float]:
        row = layers.get(layer)
        names = spans.EXTRA_FIELDS[layer]
        if row is None or row["extra"] is None:
            return dict.fromkeys(names, 0)
        return dict(zip(names, row["extra"]))

    cons = extra("core.consolidation")
    passes = layers.get("core.consolidation", {}).get("calls", 0)
    out["core.consolidation.ms_max"] = layers.get(
        "core.consolidation", {}
    ).get("ms_max", 0.0)
    out["core.consolidation.moves"] = cons["moves"]
    out["core.consolidation.slept"] = cons["slept"]
    out["core.consolidation.useful_ratio"] = (
        layers["core.consolidation"].get("useful_passes", 0) / passes
        if passes
        else 0.0
    )
    mig = extra("core.migration")
    out["core.migration.moves"] = mig["moves"]
    out["core.migration.unmatched"] = mig["unmatched"]
    tried = mig["moves"] + mig["unmatched"]
    out["core.migration.useful_ratio"] = mig["moves"] / tried if tried else 0.0
    ffd = extra("binpack.ffdlr")
    out["binpack.ffdlr.items"] = ffd["items"]
    out["binpack.ffdlr.placed_ratio"] = (
        ffd["placed"] / ffd["items"] if ffd["items"] else 0.0
    )
    save = layers.get("checkpoint.save", {})
    out["checkpoint.save.bytes_first"] = save.get("bytes_first", 0)
    out["checkpoint.save.bytes_last"] = save.get("bytes_last", 0)
    out["service.submit.rejected"] = extra("service.submit")["rejected"]
    out["service.apply.ignored"] = extra("service.apply")["ignored"]
    return out


# ------------------------------------------------------------------- runs
def timed_run(workload, seed: int, seconds: float) -> tuple:
    warm_up(workload, seed)
    episodes, setups, failures = timed_episodes(workload, seed, seconds)
    failures += run_checks(episodes)
    values = end_to_end_metrics(workload, episodes, setups)
    notes = {
        "episodes": len(episodes),
        "instances": workload.instances,
        "ticks": sum(len(ep.tick_ms) for ep in episodes),
        "tail_percentile": tail_percentile(workload.n_ticks),
    }
    return values, _operations(episodes, failures), failures, notes


def traced_run(workload, seed: int, out_dir: Path) -> tuple:
    warm_up(workload, seed)
    gc.collect()
    plain = workload.episode(seed)
    failures, replay_s = [], 0.0
    if plain.audit_path is not None:
        start = time.perf_counter()
        failures += workloads.check_replay(plain.audit_path)
        replay_s = time.perf_counter() - start
    gc.collect()
    recorder = spans.Recorder(run_id=f"{workload.name}-{seed}-{os.getpid()}")
    recorder.install()
    try:
        traced = workload.episode(seed)
    finally:
        recorder.uninstall()
    failures += run_checks([plain, traced])
    reduced = spans.reduce_spans(recorder.spans, traced.stamps)
    accounted = reduced["tick_self_ms"] + sum(reduced["in_tick_ms"].values())
    if abs(accounted - reduced["tick_busy_ms"]) > 1e-6 * reduced["tick_busy_ms"]:
        failures.append("span self times do not account for the tick time")

    def rate(ep) -> float:
        return workload.n_servers * len(ep.tick_ms) / timed_seconds([ep])

    values = tick_class_metrics(workload, plain)
    values["tick.tail_percentile"] = tail_percentile(workload.n_ticks)
    values.update(layer_metrics(reduced))
    values.update(
        {
            "federation.transfers": 0,
            "federation.cross_moves": 0,
            "federation.cross_watt_ratio": 0.0,
            "service.audit.bytes": 0,
        }
    )
    values.update(traced.counts)
    values["service.replay_s"] = replay_s
    values["trace.overhead_pct"] = (rate(plain) / rate(traced) - 1.0) * 100.0
    recorder.write(
        out_dir / f"spans-{workload.name}.jsonl",
        {"workload": workload.name, "seed": seed, "env": environment()},
        traced.stamps,
    )
    notes = {"spans": len(recorder.spans), "ticks": len(traced.tick_ms)}
    return values, _operations([plain, traced], failures), failures, notes


def _operations(episodes, failures: List[str]) -> dict:
    attempted = sum(ep.attempted for ep in episodes)
    failed = attempted if failures else sum(ep.failed for ep in episodes)
    return {"attempted": attempted, "failed": failed}


# ------------------------------------------------------------------- main
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fleets and 30-tick episodes (the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import repro from {source}: {error}", file=sys.stderr)
        return 2
    if source.resolve() not in Path(repro.__file__).resolve().parents:
        print(
            f"perfbench: repro was imported from {repro.__file__}, "
            f"not from this checkout's {source}",
            file=sys.stderr,
        )
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    workload = workloads.WORKLOADS[args.workload](workdir, smoke=args.smoke)
    try:
        if args.trace:
            values, ops, failures, notes = traced_run(
                workload, args.seed, ROOT / ".perfbench_out"
            )
            units = per_layer_units()
        else:
            values, ops, failures, notes = timed_run(
                workload, args.seed, args.seconds
            )
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still has its directory here

    env = environment()
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    print("# " + " ".join(f"{k}={v}" for k, v in notes.items()))
    for name, unit in units.items():
        note = ""
        if name == "tick_ms_tail":
            note = f"  (p{notes['tail_percentile']:g} of {notes['ticks']} ticks)"
        print(f"{name:36s} {values[name]:>16.6g} {unit}{note}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
