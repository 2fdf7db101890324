"""The dispatch loop pauses CPython's cyclic collector (DESIGN.md §6).

``Simulator._run_core`` pauses the collector only when no other
simulation's garbage can be waiting for it: the last loop was this
simulator's own, or a full collection ran since.  These tests pin that
rule, the restore paths, and the premise that makes the pause cheap — a
steady-state window of each system leaves no cyclic garbage behind.
"""

import gc

import pytest

from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _collector_on():
    gc.enable()
    yield
    gc.enable()


def _probe(sim, seen, count=1):
    """Schedule ``count`` callbacks that record ``gc.isenabled()``."""
    for i in range(count):
        sim.schedule(1.0 + i, lambda: seen.append(gc.isenabled()))


def _run_a_loop(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()


def test_own_loop_runs_paused_and_restores():
    sim = Simulator()
    _run_a_loop(sim)
    seen = []
    _probe(sim, seen)
    sim.run()
    assert seen == [False]
    assert gc.isenabled()


def test_collector_restored_when_a_callback_raises():
    sim = Simulator()
    _run_a_loop(sim)

    def boom():
        assert not gc.isenabled()
        raise RuntimeError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert gc.isenabled()


def test_callers_disable_survives_a_loop():
    sim = Simulator()
    _run_a_loop(sim)
    seen = []
    _probe(sim, seen)
    gc.disable()
    sim.run()
    assert seen == [False]
    assert not gc.isenabled()


def test_second_simulator_waits_for_a_full_collection():
    first, second = Simulator(), Simulator()
    _run_a_loop(first)
    seen = []
    _probe(second, seen, count=2)
    second.schedule(1.5, gc.collect)
    _probe(second, seen, count=2)
    second.run()
    # unpaused until the full collection at t=1.5, paused after it
    assert seen == [True, True, False, False]
    assert gc.isenabled()
    seen.clear()
    _probe(second, seen)
    second.run()
    assert seen == [False], "the last loop was this simulator's own"


def test_full_collection_between_loops_allows_the_pause():
    first, second = Simulator(), Simulator()
    _run_a_loop(first)
    gc.collect()
    seen = []
    _probe(second, seen)
    second.run()
    assert seen == [False]


def test_nested_loop_leaves_the_collector_alone():
    outer, inner = Simulator(), Simulator()
    _run_a_loop(outer)
    seen = []

    def nested():
        seen.append(("before", gc.isenabled()))
        _probe(inner, seen)
        inner.run()
        seen.append(("after", gc.isenabled()))

    outer.schedule(1.0, nested)
    outer.run()
    assert seen == [("before", False), False, ("after", False)]
    assert gc.isenabled()


def test_full_collection_hook_is_removed_after_the_loop():
    """The full-collection hook of an unpaused loop is gone after it."""
    first, second = Simulator(), Simulator()
    _run_a_loop(first)
    _run_a_loop(second)
    assert gc.isenabled()
    gc.collect()
    assert gc.isenabled()
    assert all(cb.__module__ != "repro.sim.core" for cb in gc.callbacks)


def test_no_strong_reference_to_the_last_simulator():
    import weakref

    sim = Simulator()
    _run_a_loop(sim)
    ref = weakref.ref(sim)
    del sim
    assert ref() is None


@pytest.mark.parametrize("system", ["pravega", "kafka", "pulsar"])
def test_steady_window_leaves_no_cyclic_garbage(system):
    """A paused window frees its garbage by reference counting alone.

    Events of 10 kB fill the Pravega read index's 1 MB entries within a
    window, so the window inserts into its AVL tree; readers run too.
    """
    from repro.bench import KafkaAdapter, PravegaAdapter, PulsarAdapter, WorkloadSpec
    from repro.bench.runner import WorkloadEngine

    adapters = {"pravega": PravegaAdapter, "kafka": KafkaAdapter, "pulsar": PulsarAdapter}
    sim = Simulator()
    adapter = adapters[system](sim)
    spec = WorkloadSpec(
        event_size=10_000,
        target_rate=5_000,
        partitions=2,
        producers=1,
        consumers=1,
        duration=1.0,
        warmup=0.2,
    )
    adapter.setup(spec.partitions)
    WorkloadEngine(sim, adapter, spec).start()
    sim.run(until=sim.now + 0.3)
    gc.collect()
    sim.run(until=sim.now + 0.25)
    assert sim.stats.events_executed > 0
    assert gc.collect() == 0
