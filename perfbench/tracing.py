"""The traced run: per-layer numbers taken from outside the program.

Everything here lives in the benchmark's own files and is attached only
for the traced run; the measured runs execute the program untouched.

* a stdlib ``cProfile`` around set-up and run; tottime grouped by module
  prefix gives each layer's host self time (``*.self_s``), and the call
  counts of public entry points that keep no counter of their own
  (``SegmentStore.rpc_append``/``rpc_read``, ``KafkaCluster.produce``,
  ``PulsarBroker.publish``, ``LongTermStorage.read_chunk``/``write_chunk``,
  ``LatencyHistogram.record``) give the per-call ratios;
* a ``Simulator`` subclass counting ``process`` calls;
* for the write workloads, ``repro.obs.Tracer`` through ``attach_tracer``,
  whose critical-path breakdown splits the simulated write p50.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, List, Optional

from repro.bench import attach_tracer
from repro.common.metrics import LatencyHistogram
from repro.kafka import KafkaCluster
from repro.lts.base import LongTermStorage
from repro.obs import Tracer
from repro.pravega.segment_store import SegmentStore
from repro.pulsar import PulsarBroker
from repro.sim import Simulator

#: module prefix -> layer, most specific first
BUCKETS = [
    ("repro.sim.core", "sim.core"),
    ("repro.sim.disk", "sim.devices"),
    ("repro.sim.network", "sim.devices"),
    ("repro.sim.resources", "sim.devices"),
    ("repro.sim", "sim.other"),
    ("repro.pravega.client", "pravega.client"),
    ("repro.pravega.container", "pravega.container"),
    ("repro.pravega", "pravega.store"),
    ("repro.bookkeeper", "bookkeeper"),
    ("repro.lts", "lts"),
    ("repro.zookeeper", "zookeeper"),
    ("repro.kafka", "kafka"),
    ("repro.pulsar", "pulsar"),
    ("repro.bench", "bench"),
    ("repro.common", "common"),
    ("repro.obs", "obs"),
    ("repro.workload", "workload"),
]

#: entry points that keep no counter of their own -> count name
CALLS = {
    SegmentStore.rpc_append: "pravega.appends",
    SegmentStore.rpc_read: "pravega.reads",
    KafkaCluster.produce: "kafka.batches",
    PulsarBroker.publish: "pulsar.entries",
    LongTermStorage.read_chunk: "lts.read_ops",
    LongTermStorage.write_chunk: "lts.write_ops",
    LatencyHistogram.record: "common.histogram.records",
}


def _code_key(fn) -> tuple:
    """The key cProfile files ``fn`` under."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def module_of(filename: str) -> Optional[str]:
    """``.../src/repro/sim/core.py`` -> ``repro.sim.core``."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts or not filename.endswith(".py"):
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    module = ".".join(parts[index:])[: -len(".py")]
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


def bucket(module: str) -> str:
    for prefix, name in BUCKETS:
        if module == prefix or module.startswith(prefix + "."):
            return name
    return "other"


class CountingSimulator(Simulator):
    """Counts ``process`` calls (a subclass: ``Simulator`` has slots)."""

    def __init__(self) -> None:
        super().__init__()
        self.processes = 0

    def process(self, gen, *args, **kwargs):
        self.processes += 1
        return super().process(gen, *args, **kwargs)


class Traced:
    """Instrumentation hook for the traced run (see ``workloads.Plain``)."""

    def __init__(self, with_tracer: bool) -> None:
        self.with_tracer = with_tracer
        self.sims: List[CountingSimulator] = []

    def new_sim(self) -> Simulator:
        sim = CountingSimulator()
        self.sims.append(sim)
        return sim

    def attach(self, adapter) -> Optional[Tracer]:
        if not self.with_tracer:
            return None
        tracer = Tracer(adapter.sim)
        attach_tracer(adapter, tracer)
        return tracer


def profile(fn):
    """Run ``fn()`` under cProfile; return (result, self_s by layer,
    call counts, host seconds inside ``LatencyHistogram.record``)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    counted = {_code_key(fn): name for fn, name in CALLS.items()}
    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {name: 0.0 for name in CALLS.values()}
    record_s = 0.0
    for key, row in pstats.Stats(profiler).stats.items():
        _cc, ncalls, tottime, cumtime, _callers = row
        module = module_of(key[0])
        if module is not None:
            layer = bucket(module)
        elif "perfbench" in key[0]:
            layer = "perfbench"
        else:
            layer = "other"
        self_s[layer] = self_s.get(layer, 0.0) + tottime
        name = counted.get(key)
        if name is not None:
            calls[name] += ncalls
            if name == "common.histogram.records":
                record_s += cumtime
    return result, self_s, calls, record_s
