#!/usr/bin/env python3
"""Benchmark of the Pravega reproduction's simulator.

Run from the root of a checkout::

    python3 perfbench/run.py                      # every workload, two seeds, both passes
    python3 perfbench/run.py --workload pravega_write --seed 1 --seconds 20 --trace 0

With ``--workload`` one workload runs in this process, single-threaded:

* ``--trace 0`` repeats the workload's fixed simulated work until
  ``--seconds`` of host time are used (at least three times) and reports
  the end-to-end metrics: medians of the host times, and the simulated
  results, which must be identical on every repeat;
* ``--trace 1`` runs the work once untraced and once traced (cProfile,
  a counting ``Simulator``, and the span tracer on the write workloads)
  and reports the per-layer metrics.  The simulated results of the two
  runs must be identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``detail``) carries provenance, every simulated result with its sample
counts, the per-repeat host times and the workload's full parameters.
A failed correctness check is named on standard error and the exit code
is 1.  Without ``--workload`` every workload runs in its own process, on
the default seed and one other, traced and untraced; the metrics print
as a table and any check failure exits non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = (
    "pravega_write",
    "pravega_tail_fanout",
    "pravega_catchup",
    "kafka_pulsar_write",
)
DEFAULT_SEED = 1
OTHER_SEED = 2
MIN_REPEATS = 3
IMPORT_RUNS = 5
REFERENCE_RUNS = 10
GAP_RUNS = 5

#: end-to-end metrics every workload reports (unit)
END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "host_us_per_event": "us",
    "peak_rss_mb": "MB",
    "sim_acked_eps": "e/s",
    "sim_write_p50_ms": "ms",
    "sim_write_p99_ms": "ms",
}
#: simulated end-to-end results of the read workloads, printed and kept
#: in the detail line where they apply (unit)
READ_RESULTS = {
    "sim_e2e_p50_ms": "ms",
    "sim_e2e_p99_ms": "ms",
    "sim_catchup_s": "s",
}
#: per-layer metrics of the traced run (unit)
PER_LAYER = {
    "sim.core.self_s": "s",
    "sim.core.kernel_events": "count",
    "sim.core.kernel_events_per_event": "ratio",
    "sim.core.host_ns_per_kernel_event": "ns",
    "sim.core.processes": "count",
    "sim.core.heap_peak": "count",
    "sim.devices.self_s": "s",
    "sim.disk.ops": "count",
    "sim.disk.bytes": "B",
    "sim.disk.file_switches": "count",
    "sim.disk.busy_frac": "ratio",
    "sim.network.messages": "count",
    "sim.network.bytes": "B",
    "pravega.client.self_s": "s",
    "pravega.client.appends": "count",
    "pravega.client.events_per_append": "ratio",
    "pravega.client.reads": "count",
    "pravega.client.events_per_read": "ratio",
    "pravega.client.reader_max_share": "ratio",
    "pravega.container.self_s": "s",
    "pravega.store.self_s": "s",
    "pravega.container.ops_per_frame": "ratio",
    "pravega.container.cache_hit_ratio": "ratio",
    "pravega.container.cache_evictions": "count",
    "pravega.container.lts_fetch_ops": "count",
    "pravega.container.lts_bytes": "B",
    "pravega.container.read_errors": "count",
    "pravega.container.append_throttled": "count",
    "pravega.container.chunks_written": "count",
    "pravega.container.bytes_flushed": "B",
    "bookkeeper.self_s": "s",
    "bookkeeper.entries": "count",
    "bookkeeper.entries_per_journal_batch": "ratio",
    "lts.self_s": "s",
    "lts.write_ops": "count",
    "lts.read_ops": "count",
    "lts.read_bytes": "B",
    "zookeeper.self_s": "s",
    "kafka.self_s": "s",
    "kafka.records_per_batch": "ratio",
    "pulsar.self_s": "s",
    "pulsar.records_per_entry": "ratio",
    "bench.self_s": "s",
    "common.self_s": "s",
    "common.histogram.records": "count",
    "common.histogram.record_s": "s",
    "obs.write_p50.network_ms": "ms",
    "obs.write_p50.fsync_ms": "ms",
    "obs.write_p50.quorum_ms": "ms",
    "obs.write_p50.queueing_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (none in an exported tree)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sim_mismatch(label: str, a: dict, b: dict) -> list:
    """Names every simulated field that differs between two runs."""
    out = []
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            out.append(f"determinism: {label}: {key} {a.get(key)!r} != {b.get(key)!r}")
    return out


@dataclass
class Measured:
    """The untraced pass: ``repeats[i]`` ran between reference batches
    ``batches[i]`` and ``batches[i + 1]``; host times at reference speed
    of each repeat's run and of each import of the program."""

    repeats: list
    batches: list
    scaled_runs: list
    imports: list
    #: resident memory of the reference loop's table, MB
    reference_mb: float
    failures: list


def _rss_mb() -> float:
    """Resident memory of this process now, MB (Linux)."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 2**20


def _import_time() -> float:
    """``hosttime.import_s`` in a fresh interpreter."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import hosttime; print(hosttime.import_s())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, SRC, HERE],
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measured(fn, seed: int, seconds: float) -> Measured:
    """Repeat the workload for ``seconds`` (at least ``MIN_REPEATS``
    times), then time the import, with reference batches in between."""
    import hosttime

    before = _rss_mb()
    reference = hosttime.Reference()
    reference_mb = _rss_mb() - before
    batches = [reference.batch(REFERENCE_RUNS)]
    repeats, scaled_runs = [], []
    start = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - start < seconds:
        # Start each repeat with the previous cluster collected, so a
        # repeat never pays for garbage an earlier one left behind.
        gc.collect()
        with hosttime.Stepped(reference) as inst:
            repeats.append(fn(seed, inst))
        batches.append(reference.batch(GAP_RUNS))
        stepped = inst.scaled_run(repeats[-1].run_spans)
        if stepped is None:
            stepped = hosttime.scaled([repeats[-1].run_wall_s], batches[-2:])[0]
        scaled_runs.append(stepped)
    imports = [_import_time() for _ in range(IMPORT_RUNS)]
    failures = list(repeats[0].failures)
    for i, rep in enumerate(repeats[1:], 2):
        failures += _sim_mismatch(f"repeat {i} vs repeat 1", repeats[0].sim, rep.sim)
        if rep.kernel_events != repeats[0].kernel_events:
            failures.append(
                f"determinism: repeat {i} vs repeat 1: kernel events "
                f"{rep.kernel_events} != {repeats[0].kernel_events}"
            )
    return Measured(repeats, batches, scaled_runs, imports, reference_mb, failures)


def end_to_end(m: Measured) -> dict:
    """Host times at reference speed (see ``hosttime``), medians over
    the set-ups and the repeats."""
    from hosttime import scaled

    run_s = statistics.median(m.scaled_runs)
    setup_s = (
        statistics.median(m.imports)
        + statistics.median(scaled([r.setup_s for r in m.repeats], m.batches))
    )
    first = m.repeats[0]
    return {
        "setup_s": setup_s,
        "run_wall_s": run_s,
        "host_us_per_event": run_s / first.events_done * 1e6,
        # the reference table stays resident from before the first repeat
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        - m.reference_mb,
        "sim_acked_eps": first.sim["sim_acked_eps"],
        "sim_write_p50_ms": first.sim["sim_write_p50_ms"],
        "sim_write_p99_ms": first.sim["sim_write_p99_ms"],
    }


def per_layer(untraced, traced, self_s: dict, calls: dict, record_s: float,
              processes: int) -> dict:
    lay = traced.layers
    get = lambda key: lay.get(key, 0.0)  # noqa: E731
    pravega_events = get("pravega.events_acked")
    hits, misses = get("pravega.container.read.cache_hits"), get("pravega.container.read.cache_misses")
    values = {
        "sim.core.self_s": self_s.get("sim.core", 0.0),
        "sim.core.kernel_events": float(untraced.kernel_events),
        "sim.core.kernel_events_per_event": _ratio(untraced.kernel_events, untraced.events_done),
        "sim.core.host_ns_per_kernel_event": _ratio(untraced.run_wall_s * 1e9, untraced.kernel_events),
        "sim.core.processes": float(processes),
        "sim.core.heap_peak": get("sim.core.heap_peak"),
        "sim.devices.self_s": self_s.get("sim.devices", 0.0),
        "sim.disk.ops": get("sim.disk.ops"),
        "sim.disk.bytes": get("sim.disk.bytes"),
        "sim.disk.file_switches": get("sim.disk.file_switches"),
        "sim.disk.busy_frac": _ratio(get("sim.disk.busy_s"), get("sim.disk.capacity_s")),
        "sim.network.messages": get("sim.network.messages"),
        "sim.network.bytes": get("sim.network.bytes"),
        "pravega.client.self_s": self_s.get("pravega.client", 0.0),
        "pravega.client.appends": calls["pravega.appends"],
        "pravega.client.events_per_append": _ratio(pravega_events, calls["pravega.appends"]),
        "pravega.client.reads": calls["pravega.reads"],
        "pravega.client.events_per_read": _ratio(get("pravega.events_delivered"), calls["pravega.reads"]),
        "pravega.client.reader_max_share": get("pravega.client.reader_max_share"),
        "pravega.container.self_s": self_s.get("pravega.container", 0.0),
        "pravega.store.self_s": self_s.get("pravega.store", 0.0),
        "pravega.container.ops_per_frame": _ratio(
            get("pravega.container.ops_applied"), get("pravega.container.frames")
        ),
        "pravega.container.cache_hit_ratio": _ratio(hits, hits + misses),
        "pravega.container.cache_evictions": get("pravega.container.cache.evictions"),
        "pravega.container.lts_fetch_ops": get("pravega.container.read.lts_fetch_ops"),
        "pravega.container.lts_bytes": get("pravega.container.read.lts_bytes"),
        "pravega.container.read_errors": get("pravega.client.read_errors"),
        "pravega.container.append_throttled": get("pravega.container.append.throttled")
        + get("pravega.container.append.cache_throttled"),
        "pravega.container.chunks_written": get("pravega.container.chunks_written"),
        "pravega.container.bytes_flushed": get("pravega.container.bytes_flushed"),
        "bookkeeper.self_s": self_s.get("bookkeeper", 0.0),
        "bookkeeper.entries": get("bookkeeper.entries"),
        "bookkeeper.entries_per_journal_batch": _ratio(
            get("bookkeeper.entries"), get("bookkeeper.journal_batches")
        ),
        "lts.self_s": self_s.get("lts", 0.0),
        "lts.write_ops": calls["lts.write_ops"],
        "lts.read_ops": calls["lts.read_ops"],
        "lts.read_bytes": get("lts.read_bytes"),
        "zookeeper.self_s": self_s.get("zookeeper", 0.0),
        "kafka.self_s": self_s.get("kafka", 0.0),
        "kafka.records_per_batch": _ratio(get("kafka.events_acked"), calls["kafka.batches"]),
        "pulsar.self_s": self_s.get("pulsar", 0.0),
        "pulsar.records_per_entry": _ratio(get("pulsar.events_acked"), calls["pulsar.entries"]),
        "bench.self_s": self_s.get("bench", 0.0),
        "common.self_s": self_s.get("common", 0.0),
        "common.histogram.records": calls["common.histogram.records"],
        "common.histogram.record_s": record_s,
        "trace.overhead_ratio": _ratio(traced.run_wall_s, untraced.run_wall_s),
    }
    for kind in ("network", "fsync", "quorum", "queueing"):
        values[f"obs.write_p50.{kind}_ms"] = get(f"obs.write_p50.{kind}_ms")
    return values


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import workloads

    fn = workloads.WORKLOADS[args.workload]
    detail = {"provenance": provenance(args), "params": workloads.PARAMS[args.workload]}
    if args.trace:
        import tracing

        untraced = fn(args.seed, workloads.Plain())
        inst = tracing.Traced(with_tracer=args.workload.endswith("_write"))
        traced, self_s, calls, record_s = tracing.profile(lambda: fn(args.seed, inst))
        failures = list(untraced.failures)
        failures += _sim_mismatch("traced vs untraced", untraced.sim, traced.sim)
        processes = sum(sim.processes for sim in inst.sims)
        metrics = per_layer(untraced, traced, self_s, calls, record_s, processes)
        units = PER_LAYER
        ref = untraced
        detail["self_s"] = self_s
        detail["layer_counters"] = traced.layers
        detail["kernel_events"] = {"untraced": untraced.kernel_events, "traced": traced.kernel_events}
        detail["run_wall_s"] = {"untraced": untraced.run_wall_s, "traced": traced.run_wall_s}
    else:
        m = measured(fn, args.seed, args.seconds)
        failures = m.failures
        metrics = end_to_end(m)
        units = END_TO_END
        ref = m.repeats[0]
        detail["repeats"] = len(m.repeats)
        detail["warmup"] = "none discarded; medians over repeats, see hosttime.py"
        detail["reference_batches_s"] = m.batches
        detail["reference_mb"] = m.reference_mb
        detail["import_s_scaled_runs"] = m.imports
        detail["setup_s_runs"] = [r.setup_s for r in m.repeats]
        detail["run_wall_s_runs"] = [r.run_wall_s for r in m.repeats]
        detail["run_wall_s_scaled_runs"] = m.scaled_runs
        detail["kernel_events"] = ref.kernel_events
    detail["sim"] = ref.sim
    detail["failed_event_ratio"] = _ratio(ref.failed, ref.attempted)
    detail["failures"] = failures
    detail["counted_failures"] = ref.notes
    print(json.dumps({"detail": detail}, sort_keys=True))
    for reason in failures:
        print(f"check failed: {args.workload} seed {args.seed}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": ref.attempted,
        "failed": ref.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 1 if failures else 0


# ----------------------------------------------------------------------
# every workload, each in its own process
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None, proc.stderr.strip()
    detail = json.loads(lines[-2])["detail"]
    return proc.returncode, detail, json.loads(lines[-1]), proc.stderr.strip()


def run_all(args) -> int:
    failures = []
    rows = []
    for workload in WORKLOAD_NAMES:
        for seed in (args.seed, OTHER_SEED if args.seed != OTHER_SEED else DEFAULT_SEED):
            sims = {}
            for trace in (0, 1):
                code, detail, result, err = _child(workload, seed, args.seconds, trace)
                tag = f"{workload} seed {seed} trace {trace}"
                if result is None:
                    failures.append(f"{tag}: no result (exit {code}): {err[-500:]}")
                    continue
                if code != 0 or not result["correct"]:
                    failures.append(f"{tag}: exit {code}: {err[-500:]}")
                sims[trace] = detail["sim"]
                for name, m in result["metrics"].items():
                    rows.append((workload, seed, trace, name, m["value"], m["unit"]))
                if trace == 0:
                    rows.append((workload, seed, 0, "failed_event_ratio",
                                 detail["failed_event_ratio"], "ratio"))
                    for name, unit in READ_RESULTS.items():
                        if name in detail["sim"]:
                            rows.append((workload, seed, 0, name, detail["sim"][name], unit))
            if len(sims) == 2:
                failures += [f"{workload} seed {seed}: processes: {m}"
                             for m in _sim_mismatch("trace 0 vs trace 1", sims[0], sims[1])]
    for workload, seed, trace, name, value, unit in rows:
        print(f"{workload:20s} seed={seed} trace={trace} {name:40s} {value:16.6g} {unit}")
    for reason in failures:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"workloads": len(WORKLOAD_NAMES), "failures": failures}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
