"""Kernel perf smoke: catch gross wall-clock regressions in tier-1.

Runs ``benchmarks/bench_kernel.py --check`` — trimmed scenarios under
generous wall-clock budgets (an order of magnitude above current numbers,
so only a catastrophic kernel regression trips it).  Also runnable as
``make perf``.

Also guards the tracing subsystem's zero-cost-when-disabled contract:
a disabled ``repro.obs.Tracer`` wired through the full Pravega write
path must allocate no spans and stay within 5% of the untraced
baseline's wall time.
"""

import gc
import os
import subprocess
import sys
import time

import pytest

from repro.obs import Tracer
from repro.sim import Simulator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(REPO_ROOT, "benchmarks", "bench_kernel.py")


@pytest.mark.perf
def test_kernel_perf_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, BENCH, "--check"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"kernel perf smoke failed:\n{proc.stdout}\n{proc.stderr}"
    )


def _timed_mini_run(tracer):
    """One small Pravega run through the bench driver; returns wall seconds."""
    from repro.bench import PravegaAdapter, WorkloadSpec, run_workload

    sim = Simulator()
    if tracer is not None:
        tracer.sim = sim
    adapter = PravegaAdapter(sim, tracer=tracer)
    spec = WorkloadSpec(
        event_size=100,
        target_rate=5_000,
        partitions=2,
        producers=1,
        consumers=0,
        duration=1.0,
        warmup=0.2,
    )
    # Start from an empty heap of garbage.  The tracer keeps its last
    # simulator alive until the next traced run replaces it, so without
    # this the traced side alone paid to collect a dead cluster mid-run.
    gc.collect()
    start = time.perf_counter()
    run_workload(sim, adapter, spec, tracer=tracer)
    return time.perf_counter() - start


@pytest.mark.perf
def test_producer_paths_allocate_no_validating_payloads():
    """Kafka/Pulsar hot paths must use trusted Payload constructors.

    ``Payload.synthetic`` / ``of`` / ``slice`` / ``concat`` all build
    through ``Payload._trusted`` which bypasses ``__post_init__``
    validation; a validating copy sneaking back into the per-event path
    shows up here as a nonzero call count.
    """
    from repro.bench import KafkaAdapter, PulsarAdapter, WorkloadSpec, run_workload
    from repro.common.payload import Payload

    spec = WorkloadSpec(
        event_size=100,
        target_rate=3_000,
        partitions=2,
        producers=1,
        consumers=1,
        duration=0.5,
        warmup=0.1,
    )
    adapters = {
        "kafka": lambda sim: KafkaAdapter(sim, flush_every_message=False),
        "pulsar": lambda sim: PulsarAdapter(sim),
    }
    original = Payload.__post_init__
    for name, make_adapter in adapters.items():
        calls = []

        def counting(self, _calls=calls, _original=original):
            _calls.append(1)
            _original(self)

        Payload.__post_init__ = counting
        try:
            sim = Simulator()
            result = run_workload(sim, make_adapter(sim), spec)
        finally:
            Payload.__post_init__ = original
        assert result.produce_rate > 0
        assert not calls, (
            f"{name}: {len(calls)} validating Payload constructions on the "
            f"message path (expected 0; use Payload.synthetic/of/slice/concat)"
        )


@pytest.mark.perf
def test_tail_reads_skip_avl_and_allocate_no_spans():
    """Tail-read fast path: streaming consumers that keep up must be
    served from the O(1) tail entry (zero AVL probes) and, with tracing
    disabled, allocate zero spans."""
    from repro.bench import PravegaAdapter, WorkloadSpec, run_workload

    sim = Simulator()
    tracer = Tracer(sim, enabled=False)
    adapter = PravegaAdapter(sim, tracer=tracer)
    spec = WorkloadSpec(
        event_size=100,
        target_rate=5_000,
        partitions=2,
        producers=1,
        consumers=1,
        duration=1.0,
        warmup=0.2,
    )
    result = run_workload(sim, adapter, spec, tracer=tracer)
    assert result.consume_rate > 0
    tail_hits = 0
    avl_probes = 0
    for store in adapter.cluster.stores.values():
        for container in store.containers.values():
            tail_hits += container.cache_manager.tail_read_hits
            avl_probes += container.cache_manager.avl_probes
    assert tail_hits > 0, "no tail reads hit the fast path"
    assert avl_probes == 0, (
        f"{avl_probes} AVL probes during a pure tail-read workload "
        f"(every read should resolve against the tail entry)"
    )
    assert tracer.spans_created == 0, (
        f"disabled tracer allocated {tracer.spans_created} spans"
    )


@pytest.mark.perf
@pytest.mark.trace
def test_tracing_disabled_is_zero_cost():
    """Disabled tracer: zero span allocations and <= 5% wall overhead.

    Runs are interleaved, alternating which side goes first in each
    pair, and we compare min-of-N wall times so transient machine noise
    (scheduler, a speed phase that favours one slot) can't fail either
    side spuriously; each run
    starts after a full collection, so neither side pays for another's
    garbage.  The simulation itself is deterministic, so min-of-N
    converges fast.
    """
    repeats = 5
    baseline = []
    disabled = []
    tracer = Tracer(Simulator(), enabled=False)
    # Untimed warmup pass: pay one-time import/allocator costs up front.
    _timed_mini_run(None)
    _timed_mini_run(tracer)
    for i in range(repeats):
        if i % 2:
            disabled.append(_timed_mini_run(tracer))
            baseline.append(_timed_mini_run(None))
        else:
            baseline.append(_timed_mini_run(None))
            disabled.append(_timed_mini_run(tracer))
    assert tracer.spans_created == 0, (
        f"disabled tracer allocated {tracer.spans_created} spans"
    )
    assert not tracer.spans
    best_baseline = min(baseline)
    best_disabled = min(disabled)
    assert best_disabled <= best_baseline * 1.05, (
        f"disabled tracing overhead {best_disabled / best_baseline - 1:+.1%} "
        f"exceeds 5% budget (baseline {best_baseline * 1e3:.1f} ms, "
        f"disabled {best_disabled * 1e3:.1f} ms)"
    )


@pytest.mark.perf
def test_bounded_runs_stay_on_the_inlined_dispatcher(monkeypatch):
    """``run(until=...)`` windows must dispatch on ``Simulator._run_core``:
    a mini Pravega workload with readers drains through such windows
    while the stepwise primitives are booby-trapped."""
    from repro.bench import PravegaAdapter, WorkloadSpec, run_workload

    def slow_path(*args, **kwargs):
        raise AssertionError("bounded run fell back to the stepwise loop")

    bounded = []
    original_run = Simulator.run

    def counting_run(self, until=None, condition=None, max_events=None):
        if until is not None:
            bounded.append(until)
        original_run(self, until, condition, max_events)

    monkeypatch.setattr(Simulator, "step", slow_path)
    monkeypatch.setattr(Simulator, "_next_time", slow_path)
    monkeypatch.setattr(Simulator, "run", counting_run)
    sim = Simulator()
    spec = WorkloadSpec(
        event_size=100,
        target_rate=5_000,
        partitions=2,
        producers=1,
        consumers=1,
        duration=0.5,
        warmup=0.1,
    )
    result = run_workload(sim, PravegaAdapter(sim), spec)
    assert result.consume_rate > 0
    assert bounded, "the workload drained without a bounded run"
