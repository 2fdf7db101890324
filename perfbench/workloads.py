"""The four benchmark workloads.

Each ``run_*`` function builds one cluster through the public adapters,
drives one fixed amount of simulated work and returns a :class:`Repeat`:
host times, the simulated results (deterministic for a seed), the
per-layer counters the layers already keep, and the reasons any
correctness check failed.

Load is open loop in simulated time: producers send on a 5 ms tick
schedule whatever the ack state, with Poisson counts seeded by the
benchmark seed, and latency is timed from the tick a group was due.

``inst`` is the instrumentation hook (:class:`Plain`, ``hosttime.Stepped``
for the measured repeats, ``tracing.Traced`` for the traced run): it makes
each ``Simulator`` and may attach a tracer to each adapter before the
cluster starts.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import (
    KafkaAdapter,
    PravegaAdapter,
    PulsarAdapter,
    WorkloadSpec,
    run_workload,
)
from repro.bench.adapters import BENCH_CACHE
from repro.common.errors import ReproError
from repro.common.metrics import LatencyHistogram
from repro.obs import COMPONENTS, summarize
from repro.pravega.client.reader import ReaderConfig
from repro.sim import Simulator
from repro.sim.core import Interrupt
from repro.workload.arrival import Poisson

TICK = 0.005

#: full parameters of every workload, recorded in each result; the
#: adapters' fixed settings and the arrival law (``system``, ``lts``,
#: ``journal_sync``, ``kafka_acks``, ``arrival``) are listed for the
#: record, the rest drive the run
PARAMS: Dict[str, dict] = {
    "pravega_write": {
        "system": "pravega", "lts": "efs", "journal_sync": True,
        "segments": 32, "writers": 4, "bench_hosts": 2, "event_size": 100,
        "rate_eps": 1_000_000.0, "arrival": "poisson", "tick_s": TICK,
        "warmup_s": 0.2, "window_s": 0.4, "readers": 0,
    },
    "kafka_pulsar_write": {
        "systems": ["kafka", "pulsar"], "kafka_acks": "page_cache",
        "partitions": 32, "writers": 4, "bench_hosts": 2, "event_size": 100,
        "rate_eps": 1_000_000.0, "arrival": "poisson", "tick_s": TICK,
        "warmup_s": 0.2, "window_s": 0.3, "readers": 0,
    },
    "pravega_tail_fanout": {
        "system": "pravega", "lts": "efs", "segments": 2, "writers": 1,
        "event_size": 400, "rate_eps": 2_000.0, "arrival": "poisson",
        "tick_s": TICK, "warmup_s": 0.2, "window_s": 1.0,
        "reader_groups": 64, "drain_timeout_s": 30.0,
    },
    "pravega_catchup": {
        "system": "pravega", "lts": "efs", "segments": 16, "writers": 1,
        "event_size": 10_000, "rate_eps": 10_000.0, "arrival": "poisson",
        "tick_s": TICK, "readers": 16,
        # backlog at release, as a multiple of the cache of the
        # containers that host the stream
        "backlog_cache_ratio": 1.5, "max_catchup_s": 60.0,
        "drain_timeout_s": 30.0,
    },
}


@dataclass
class Repeat:
    """One fixed unit of simulated work, measured."""

    setup_s: float
    run_wall_s: float
    #: stream events completed: acks plus deliveries
    events_done: int
    attempted: int
    failed: int
    #: simulated results: identical for one seed on every run
    sim: Dict[str, float]
    #: per-layer counters read from the layers after the run
    layers: Dict[str, float]
    kernel_events: int
    #: host time (``perf_counter``) at each load start and end of drain
    run_spans: List[Tuple[float, float]]
    #: check failures: each makes the run incorrect
    failures: List[str] = field(default_factory=list)
    #: events lost to a known defect: counted in ``failed`` only
    notes: List[str] = field(default_factory=list)


class Plain:
    """No instrumentation."""

    def new_sim(self) -> Simulator:
        return Simulator()

    def attach(self, adapter) -> Optional[object]:
        return None


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return seconds * 1e3


def _hist_metrics(prefix: str, hist: LatencyHistogram) -> Dict[str, float]:
    return {
        f"{prefix}_p50_ms": _ms(hist.p50),
        f"{prefix}_p99_ms": _ms(hist.p99),
        f"{prefix}_samples": float(hist.count),
    }


def _kernel_events(sim: Simulator) -> int:
    stats = sim.stats
    return stats.events_executed + stats.microtasks_executed


def _spread(count: int, partitions: int, rotate: int) -> List[Tuple[int, int]]:
    """Random-key model: ``count`` events split evenly over partitions,
    the remainder rotating so every partition sees traffic."""
    base, remainder = divmod(count, partitions)
    out = []
    for offset in range(partitions):
        share = base + (1 if offset < remainder else 0)
        if share:
            out.append(((rotate + offset) % partitions, share))
    return out


def layer_counters(sim: Simulator, adapter) -> Dict[str, float]:
    """Counters the layers already keep, summed over one cluster."""
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + float(value)

    out["sim.core.heap_peak"] = float(sim.stats.heap_peak)
    for res in sim.fluid_resources:
        kind = type(res).__name__
        if kind == "Disk":
            add("sim.disk.ops", res.ops)
            add("sim.disk.bytes", res.bytes_written)
            add("sim.disk.file_switches", res.switches)
            add("sim.disk.busy_s", res._server.total_busy_time)
            add("sim.disk.capacity_s", sim.now)
        elif kind == "Host":
            add("sim.network.messages", res.messages_sent)
            add("sim.network.bytes", res.bytes_sent)
    cluster = adapter.cluster
    for store in getattr(cluster, "stores", {}).values():
        for container in store.containers.values():
            counters = container.metrics.counters()
            for name in (
                "read.cache_hits", "read.cache_misses", "cache.evictions",
                "read.lts_fetch_ops", "read.lts_bytes", "append.throttled",
                "append.cache_throttled",
            ):
                add(f"pravega.container.{name}", counters.get(name, 0.0))
            add("pravega.container.frames", container.durable_log.frames_written)
            add("pravega.container.ops_applied", container.durable_log.operations_applied)
            add("pravega.container.chunks_written", container.storage_writer.chunks_written)
            add("pravega.container.bytes_flushed", container.storage_writer.bytes_flushed)
    lts = getattr(adapter, "lts", None) or getattr(cluster, "lts", None)
    if lts is not None:
        add("lts.read_bytes", lts.bytes_read)
    bk = getattr(cluster, "bk_cluster", None)
    if bk is not None:
        for bookie in bk.bookies.values():
            add("bookkeeper.entries", bookie.entries_journaled)
            add("bookkeeper.journal_batches", bookie.journal_batches)
    return out


# ----------------------------------------------------------------------
# write workloads: the stock runner, through the public adapters
# ----------------------------------------------------------------------
def offered_events(spec: WorkloadSpec, epoch: float) -> int:
    """Replay the runner's tick schedule: the events the open loop was
    due to send.  More than were sent means the backlog cap skipped
    ticks, which counts as failed."""
    load_end = epoch + spec.warmup + spec.duration
    total = 0
    for index in range(spec.producers):
        sampler = spec.arrival.sampler(
            spec.seed * 1_000_003 + index, 1.0 / spec.producers
        )
        now = epoch
        while now < load_end:
            now = now + spec.tick
            total += sampler.events(now - epoch - spec.tick, now - epoch)
    return total


ADAPTERS: Dict[str, Callable[[Simulator], object]] = {
    "pravega": lambda sim: PravegaAdapter(sim, lts_kind="efs", journal_sync=True),
    "kafka": lambda sim: KafkaAdapter(sim, flush_every_message=False),
    "pulsar": lambda sim: PulsarAdapter(sim),
}


def _write_once(system: str, params: dict, seed: int, inst) -> Repeat:
    t0 = time.perf_counter()
    sim = inst.new_sim()
    adapter = ADAPTERS[system](sim)
    tracer = inst.attach(adapter)
    rate = params["rate_eps"]
    spec = WorkloadSpec(
        event_size=params["event_size"],
        target_rate=rate,
        arrival=Poisson(rate),
        partitions=params.get("segments", params.get("partitions")),
        producers=params["writers"],
        bench_hosts=params["bench_hosts"],
        consumers=0,
        warmup=params["warmup_s"],
        duration=params["window_s"],
        tick=params["tick_s"],
        seed=seed,
    )
    marks: Dict[str, float] = {}
    setup = adapter.setup

    def timed_setup(partitions: int) -> None:
        setup(partitions)
        marks["ready"] = time.perf_counter()
        marks["epoch"] = sim.now

    adapter.setup = timed_setup
    result = run_workload(sim, adapter, spec, tracer=tracer)
    t_end = time.perf_counter()

    acked = int(result.extra["produced_total"])
    offered = offered_events(spec, marks["epoch"])
    failures: List[str] = []
    if result.errors:
        failures.append(f"{system}: {result.errors} client write errors")
    if result.extra.get("load_timed_out"):
        failures.append(f"{system}: load_timed_out")
    if acked != offered:
        failures.append(
            f"{system}: acked {acked} of {offered} events the schedule offered"
        )
    sim_metrics = {"sim_acked_eps": result.produce_rate, "sim_offered_events": float(offered)}
    sim_metrics.update(_hist_metrics("sim_write", result.write_latency))
    layers = layer_counters(sim, adapter)
    layers[f"{system}.events_acked"] = float(acked)
    if tracer is not None:
        window = (result.extra["trace.window_start"], result.extra["trace.window_end"])
        summary = summarize(tracer, window=window)
        for kind in COMPONENTS:
            layers[f"obs.write_p50.{kind}_ms"] = _ms(summary.get(f"p50.{kind}", 0.0))
    return Repeat(
        setup_s=marks["ready"] - t0,
        run_wall_s=t_end - marks["ready"],
        run_spans=[(marks["ready"], t_end)],
        events_done=acked,
        attempted=offered,
        failed=max(offered - acked, 0),
        sim=sim_metrics,
        layers=layers,
        kernel_events=_kernel_events(sim),
        failures=failures,
    )


def run_pravega_write(seed: int, inst) -> Repeat:
    return _write_once("pravega", PARAMS["pravega_write"], seed, inst)


def run_kafka_pulsar_write(seed: int, inst) -> Repeat:
    """The pravega_write spec through Kafka, then Pulsar, each in its own
    Simulator.  Simulated metrics are the worse of the two systems, each
    system's own values recorded beside them; host times add up."""
    params = PARAMS["kafka_pulsar_write"]
    kafka, pulsar = (_write_once(system, params, seed, inst) for system in ("kafka", "pulsar"))
    sim: Dict[str, float] = {}
    for key in kafka.sim:
        worse = min if key == "sim_acked_eps" else max
        if key.endswith("_samples") or key == "sim_offered_events":
            worse = lambda a, b: a + b  # noqa: E731 - totals, not extremes
        sim[key] = worse(kafka.sim[key], pulsar.sim[key])
        sim[f"kafka.{key}"] = kafka.sim[key]
        sim[f"pulsar.{key}"] = pulsar.sim[key]
    layers: Dict[str, float] = {}
    worse = max((kafka, pulsar), key=lambda rep: rep.sim["sim_write_p50_ms"])
    for rep in (kafka, pulsar):
        for key, value in rep.layers.items():
            if key.startswith("obs."):
                layers[key] = worse.layers[key]
            elif key == "sim.core.heap_peak":
                layers[key] = max(layers.get(key, 0.0), value)
            else:
                layers[key] = layers.get(key, 0.0) + value
    return Repeat(
        setup_s=kafka.setup_s + pulsar.setup_s,
        run_wall_s=kafka.run_wall_s + pulsar.run_wall_s,
        run_spans=kafka.run_spans + pulsar.run_spans,
        events_done=kafka.events_done + pulsar.events_done,
        attempted=kafka.attempted + pulsar.attempted,
        failed=kafka.failed + pulsar.failed,
        sim=sim,
        layers=layers,
        kernel_events=kafka.kernel_events + pulsar.kernel_events,
        failures=kafka.failures + pulsar.failures,
    )


# ----------------------------------------------------------------------
# custom Pravega drivers: open-loop writer + reader groups
# ----------------------------------------------------------------------
class _OpenLoopWriter:
    """One writer sending Poisson counts on the tick schedule, spread over
    the stream's segments by routing key, whatever the ack state."""

    def __init__(self, sim: Simulator, adapter: PravegaAdapter, params: dict,
                 seed: int, window: Tuple[float, float]) -> None:
        self.sim = sim
        self.params = params
        self.handle = adapter.new_producer("bench-0")
        self.sampler = Poisson(params["rate_eps"]).sampler(seed * 1_000_003, 1.0)
        self.segments = params["segments"]
        self.window = window
        self.write_latency = LatencyHistogram("write")
        self.sent = 0
        self.acked = 0
        self.acked_window = 0
        self.errors = 0
        self.stopped = False
        self.stopped_at = 0.0
        #: per segment: cumulative event count after each send group, and
        #: the tick that group was due (e2e latency lookup)
        self.cum: List[List[int]] = [[] for _ in range(self.segments)]
        self.due: List[List[float]] = [[] for _ in range(self.segments)]
        self.acked_by_segment = [0] * self.segments

    def run(self, until: float):
        sim = self.sim
        tick = self.params["tick_s"]
        size = self.params["event_size"]
        epoch = sim.now
        rotate = 0
        send = self.handle.send_group
        start, end = self.window
        while sim.now < until and not self.stopped:
            yield tick
            now = sim.now
            count = self.sampler.events(now - epoch - tick, now - epoch)
            if count <= 0:
                continue
            self.sent += count
            in_window = start <= now < end
            for segment, share in _spread(count, self.segments, rotate):
                cum = self.cum[segment]
                cum.append((cum[-1] if cum else 0) + share)
                self.due[segment].append(now)
                fut = send(segment, share, size)
                fut.add_callback(
                    lambda f, n=share, t=now, w=in_window, s=segment: self._ack(f, n, t, w, s)
                )
            rotate += 1
        self.stopped_at = sim.now
        yield self.handle.flush()

    def _ack(self, fut, n: int, due: float, in_window: bool, segment: int) -> None:
        if fut.exception is not None:
            self.errors += 1
            return
        self.acked += n
        self.acked_by_segment[segment] += n
        if in_window and self.sim.now <= self.window[1] + 0.25:
            self.acked_window += n
            self.write_latency.record(self.sim.now - due)


class _Delivery:
    """One reader group's view: per-segment next offset and delivered
    count, checked for order and gaps, with e2e latency per send group."""

    def __init__(self, writer: _OpenLoopWriter, e2e: LatencyHistogram,
                 record_from: float, record_until: float) -> None:
        self.writer = writer
        self.e2e = e2e
        self.record_from = record_from
        self.record_until = record_until
        segments = writer.segments
        self.next_offset = [None] * segments
        self.delivered = [0] * segments
        self.groups_done = [0] * segments
        self.bytes = [0] * segments
        self.total = 0
        #: first instant every acked event had been delivered
        self.caught_up_at: Optional[float] = None
        self.violations: List[str] = []

    def on_batch(self, now: float, batch) -> None:
        seg = batch.segment_number
        expected = self.next_offset[seg]
        if expected is None:
            expected = 0
        if batch.first_offset != expected:
            self.violations.append(
                f"segment {seg}: batch at {batch.first_offset}, expected {expected}"
            )
        self.next_offset[seg] = batch.first_offset + batch.byte_count
        self.bytes[seg] += batch.byte_count
        total = self.delivered[seg] = self.delivered[seg] + batch.event_count
        self.total += batch.event_count
        if self.caught_up_at is None and self.total >= self.writer.acked:
            self.caught_up_at = now
        cum = self.writer.cum[seg]
        due = self.writer.due[seg]
        done = self.groups_done[seg]
        upto = bisect_right(cum, total)
        e2e = self.e2e
        lo, hi = self.record_from, self.record_until
        for i in range(done, upto):
            if lo <= due[i] < hi:
                e2e.record(now - due[i])
        self.groups_done[seg] = upto


def _pravega_cluster(sim: Simulator, inst, segments: int) -> PravegaAdapter:
    adapter = PravegaAdapter(sim, lts_kind="efs")
    inst.attach(adapter)
    adapter.setup(segments)
    return adapter


def _reader_loop(sim, reader, delivery: _Delivery, dead: List[str]):
    while True:
        try:
            batch = yield reader.read_next()
        except Interrupt:
            return
        except ReproError as exc:
            dead.append(f"{reader.reader_id}: {exc}")
            return
        delivery.on_batch(sim.now, batch)


def run_pravega_tail_fanout(seed: int, inst) -> Repeat:
    params = PARAMS["pravega_tail_fanout"]
    t0 = time.perf_counter()
    sim = inst.new_sim()
    adapter = _pravega_cluster(sim, inst, params["segments"])
    cluster = adapter.cluster
    groups = params["reader_groups"]
    readers = []
    for g in range(groups):
        host = f"bench-{g % 2}"
        group = sim.run_until_complete(
            cluster.create_reader_group(host, f"fan-{g}", "bench", "stream"),
            timeout=300,
        )
        reader = cluster.create_reader(
            host, f"fan-{g}-r0", group,
            ReaderConfig(fixed_event_size=params["event_size"]),
        )
        sim.run_until_complete(reader.join(), timeout=300)
        readers.append(reader)
    t_ready = time.perf_counter()

    epoch = sim.now
    win_start = epoch + params["warmup_s"]
    win_end = win_start + params["window_s"]
    writer = _OpenLoopWriter(sim, adapter, params, seed, (win_start, win_end))
    e2e = LatencyHistogram("e2e")
    deliveries = [_Delivery(writer, e2e, win_start, win_end) for _ in range(groups)]
    dead: List[str] = []
    procs = [
        sim.process(_reader_loop(sim, r, d, dead)) for r, d in zip(readers, deliveries)
    ]
    sim.run_until_complete(sim.process(writer.run(win_end)), timeout=600)
    deadline = sim.now + params["drain_timeout_s"]
    while sim.now < deadline and any(d.total < writer.acked for d in deliveries):
        sim.run(until=sim.now + 0.25)
    for proc in procs:
        proc.interrupt()
    sim.run(until=sim.now + 0.1)
    t_end = time.perf_counter()

    failures: List[str] = []
    undelivered = 0
    delivered_total = 0
    for g, d in enumerate(deliveries):
        got = sum(d.delivered)
        delivered_total += got
        undelivered += max(writer.acked - got, 0)
        if d.delivered != writer.acked_by_segment:
            failures.append(
                f"group fan-{g}: delivered {d.delivered} of acked {writer.acked_by_segment}"
            )
        for violation in d.violations[:3]:
            failures.append(f"group fan-{g}: order: {violation}")
    unacked = writer.sent - writer.acked
    if unacked or writer.errors:
        failures.append(f"{unacked} events unacked, {writer.errors} write errors")
    failures.extend(f"reader died: {msg}" for msg in dead)
    sim_metrics = {"sim_acked_eps": writer.acked_window / params["window_s"]}
    sim_metrics.update(_hist_metrics("sim_write", writer.write_latency))
    sim_metrics.update(_hist_metrics("sim_e2e", e2e))
    sim_metrics["sim_delivered_events"] = float(delivered_total)
    layers = layer_counters(sim, adapter)
    layers["pravega.client.read_errors"] = float(len(dead))
    layers["pravega.client.reader_max_share"] = _max_share(readers, params["segments"])
    layers["pravega.events_acked"] = float(writer.acked)
    layers["pravega.events_delivered"] = float(delivered_total)
    return Repeat(
        setup_s=t_ready - t0,
        run_wall_s=t_end - t_ready,
        run_spans=[(t_ready, t_end)],
        events_done=writer.acked + delivered_total,
        attempted=writer.sent + writer.acked * groups,
        failed=unacked + undelivered,
        sim=sim_metrics,
        layers=layers,
        kernel_events=_kernel_events(sim),
        failures=failures,
    )


def _max_share(readers, segments: int) -> float:
    """Most segments one reader of a group holds, over its fair share."""
    held = max(len(r.assigned_segments) for r in readers)
    groups = {id(r.group) for r in readers}
    per_group = max(len(readers) // max(len(groups), 1), 1)
    fair = segments / per_group
    return held / fair


def _stream_containers(adapter: PravegaAdapter) -> int:
    """Distinct containers hosting the stream's segments."""
    ids = set()
    for store in adapter.cluster.stores.values():
        for cid, container in store.containers.items():
            if any(name.startswith("bench/stream/") for name in container.segments):
                ids.add(cid)
    return len(ids)


def run_pravega_catchup(seed: int, inst) -> Repeat:
    params = PARAMS["pravega_catchup"]
    t0 = time.perf_counter()
    sim = inst.new_sim()
    adapter = _pravega_cluster(sim, inst, params["segments"])
    cluster = adapter.cluster
    group = sim.run_until_complete(
        cluster.create_reader_group("bench-1", "catchup", "bench", "stream"),
        timeout=300,
    )
    readers = []
    for i in range(params["readers"]):
        reader = cluster.create_reader(
            "bench-1", f"catchup-r{i}", group,
            ReaderConfig(fixed_event_size=params["event_size"]),
        )
        sim.run_until_complete(reader.join(), timeout=300)
        readers.append(reader)
    t_ready = time.perf_counter()

    containers = _stream_containers(adapter)
    backlog_target = params["backlog_cache_ratio"] * BENCH_CACHE.capacity_bytes * containers
    event_size = params["event_size"]
    writer = _OpenLoopWriter(sim, adapter, params, seed, (sim.now, float("inf")))
    writer_proc = sim.process(writer.run(float("inf")))
    # Phase 1: readers held back while the backlog builds.
    while writer.acked * event_size < backlog_target:
        sim.run(until=sim.now + 0.25)
    release = sim.now
    backlog_events = writer.acked
    e2e = LatencyHistogram("e2e")
    delivery = _Delivery(writer, e2e, 0.0, float("inf"))
    dead: List[str] = []
    procs = [sim.process(_reader_loop(sim, r, delivery, dead)) for r in readers]
    # Phase 2: released readers catch up while writes continue.
    deadline = release + params["max_catchup_s"]
    holders = [r for r in readers if r.assigned_segments]
    while sim.now < deadline and delivery.caught_up_at is None:
        sim.run(until=sim.now + 0.25)
        if len(dead) >= len(holders):
            break  # no reader holding a segment is alive
    caught_up = delivery.caught_up_at
    catchup_s = (caught_up if caught_up is not None else deadline) - release
    # Stop writing and drain what is still in flight.
    writer.stopped = True
    sim.run_until_complete(writer_proc, timeout=600)
    drain_end = sim.now + params["drain_timeout_s"]
    while caught_up is not None and sim.now < drain_end and delivery.total < writer.acked:
        sim.run(until=sim.now + 0.25)
    for proc in procs:
        proc.interrupt()
    sim.run(until=sim.now + 0.1)
    t_end = time.perf_counter()

    delivered = sum(delivery.delivered)
    undelivered = max(writer.acked - delivered, 0)
    unacked = writer.sent - writer.acked
    failures: List[str] = []
    if unacked or writer.errors:
        failures.append(f"{unacked} events unacked, {writer.errors} write errors")
    # A reader killed by a read error loses its undelivered events; they
    # count as failed, and the prefix it did deliver is still checked.
    notes = [f"reader died: {msg}" for msg in dead]
    if not dead and delivery.delivered != writer.acked_by_segment:
        failures.append(
            f"delivered {delivery.delivered} of acked {writer.acked_by_segment}"
        )
    failures.extend(f"order: {v}" for v in delivery.violations[:3])
    sim_metrics = {
        "sim_acked_eps": writer.acked / (writer.stopped_at - writer.window[0]),
        "sim_catchup_s": catchup_s,
        "sim_backlog_bytes": float(backlog_events * event_size),
        "sim_delivered_events": float(delivered),
    }
    sim_metrics.update(_hist_metrics("sim_write", writer.write_latency))
    sim_metrics.update(_hist_metrics("sim_e2e", e2e))
    layers = layer_counters(sim, adapter)
    layers["pravega.client.read_errors"] = float(len(dead))
    layers["pravega.client.reader_max_share"] = _max_share(readers, params["segments"])
    layers["pravega.events_acked"] = float(writer.acked)
    layers["pravega.events_delivered"] = float(delivered)
    return Repeat(
        setup_s=t_ready - t0,
        run_wall_s=t_end - t_ready,
        run_spans=[(t_ready, t_end)],
        events_done=writer.acked + delivered,
        attempted=writer.sent + writer.acked,
        failed=unacked + undelivered,
        sim=sim_metrics,
        layers=layers,
        kernel_events=_kernel_events(sim),
        failures=failures,
        notes=notes,
    )


WORKLOADS: Dict[str, Callable[[int, object], Repeat]] = {
    "pravega_write": run_pravega_write,
    "pravega_tail_fanout": run_pravega_tail_fanout,
    "pravega_catchup": run_pravega_catchup,
    "kafka_pulsar_write": run_kafka_pulsar_write,
}
