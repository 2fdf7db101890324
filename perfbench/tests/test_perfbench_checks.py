"""Self-tests of the benchmark's correctness checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each test breaks a copy of the run on purpose, through a wrapper the
benchmark owns, and asserts the check that must catch it does.  The
workloads run with a shortened window to keep the tests quick.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.bench.adapters import PravegaAdapter  # noqa: E402

SEED = 1


@pytest.fixture
def short_write(monkeypatch):
    """pravega_write with a 0.05 s warm-up and a 0.1 s window."""
    params = dict(workloads.PARAMS["pravega_write"], warmup_s=0.05, window_s=0.1)
    monkeypatch.setitem(workloads.PARAMS, "pravega_write", params)
    return params


def test_clean_run_passes(short_write):
    rep = workloads.run_pravega_write(SEED, workloads.Plain())
    assert rep.failures == []
    assert rep.failed == 0
    assert rep.attempted == rep.events_done > 0


def test_dropped_ack_fails_with_raised_failed_event_ratio(short_write, monkeypatch):
    """One ack swallowed between the client and the load generator."""
    new_producer = PravegaAdapter.new_producer
    dropped = []

    def wrapped_new_producer(self, host):
        producer = new_producer(self, host)
        send_group = producer.send_group

        def send_dropping_one(partition, count, size):
            fut = send_group(partition, count, size)
            if dropped:
                return fut
            dropped.append(count)
            # The program acks this group; its callback never reaches
            # the load generator.
            return fut.sim.future()

        producer.send_group = send_dropping_one
        return producer

    monkeypatch.setattr(PravegaAdapter, "new_producer", wrapped_new_producer)
    rep = workloads.run_pravega_write(SEED, workloads.Plain())
    assert dropped
    assert rep.failed == dropped[0]
    assert rep.failed / rep.attempted > 0
    assert any("acked" in reason for reason in rep.failures)


def test_perturbed_simulated_field_fails_determinism(short_write, monkeypatch):
    """A repeat whose simulated result differs in one field."""
    calls = []

    def perturbed(seed, inst):
        rep = workloads.run_pravega_write(seed, inst)
        calls.append(rep)
        if len(calls) == 2:
            sim = dict(rep.sim, sim_write_p99_ms=rep.sim["sim_write_p99_ms"] * (1 + 1e-12))
            rep = dataclasses.replace(rep, sim=sim)
        return rep

    monkeypatch.setattr(run, "MIN_REPEATS", 2)
    monkeypatch.setattr(run, "IMPORT_RUNS", 1)
    failures = run.measured(perturbed, SEED, seconds=0).failures
    assert len(calls) == 2
    assert failures == [
        f"determinism: repeat 2 vs repeat 1: sim_write_p99_ms "
        f"{calls[0].sim['sim_write_p99_ms']!r} != "
        f"{calls[0].sim['sim_write_p99_ms'] * (1 + 1e-12)!r}"
    ]


def test_traced_vs_untraced_mismatch_is_named():
    failures = run._sim_mismatch("traced vs untraced", {"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.5})
    assert failures == ["determinism: traced vs untraced: b 2.0 != 2.5"]


class _Batch:
    def __init__(self, segment, first_offset, byte_count, event_count):
        self.segment_number = segment
        self.first_offset = first_offset
        self.byte_count = byte_count
        self.event_count = event_count


def _writer_with_groups(groups):
    """A stand-in writer whose segment 0 saw the given send groups."""
    writer = workloads._OpenLoopWriter.__new__(workloads._OpenLoopWriter)
    writer.segments = 1
    writer.acked = sum(count for count, _ in groups)
    writer.cum = [[]]
    writer.due = [[]]
    for count, due in groups:
        writer.cum[0].append((writer.cum[0][-1] if writer.cum[0] else 0) + count)
        writer.due[0].append(due)
    return writer


def test_delivery_check_flags_gap_and_replay():
    from repro.common.metrics import LatencyHistogram

    writer = _writer_with_groups([(2, 0.0), (2, 1.0), (2, 2.0)])
    delivery = workloads._Delivery(writer, LatencyHistogram(), 0.0, 10.0)
    delivery.on_batch(3.0, _Batch(0, 0, 200, 2))
    delivery.on_batch(3.0, _Batch(0, 300, 200, 2))  # skips bytes 200..300
    delivery.on_batch(3.0, _Batch(0, 300, 200, 2))  # delivers 300.. again
    assert delivery.violations == [
        "segment 0: batch at 300, expected 200",
        "segment 0: batch at 300, expected 500",
    ]


def test_delivery_records_e2e_from_due_tick():
    from repro.common.metrics import LatencyHistogram

    writer = _writer_with_groups([(2, 0.0), (2, 1.0)])
    e2e = LatencyHistogram()
    delivery = workloads._Delivery(writer, e2e, 0.0, 10.0)
    delivery.on_batch(1.5, _Batch(0, 0, 300, 3))
    delivery.on_batch(2.0, _Batch(0, 300, 100, 1))
    assert e2e.count == 2
    assert (e2e.quantile(0.0), e2e.max) == (1.0, 1.5)
    assert delivery.caught_up_at == 2.0
