"""Unit tests for the fault-injection engine itself: plan validation and
serialization, trigger semantics, determinism, the per-link FIFO clamp,
recovery re-injection, and the RateMeter out-of-order clamp."""

import pytest

from repro.common.errors import InjectedCrashError
from repro.common.metrics import RateMeter
from repro.faults import FaultEngine, FaultPlan, FaultRule
from repro.faults.engine import _FIFO_MARGIN
from repro.sim import Network, NetworkSpec, Simulator


class TestPlanValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(action="meteor_strike", at=1.0)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError):
            FaultRule(action="crash", at=1.0, on_op=3)
        with pytest.raises(ValueError):
            FaultRule(action="crash")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultRule(action="net_delay", probability=1.5)
        FaultRule(action="net_delay", probability=1.0)  # inclusive bound

    def test_on_op_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultRule(action="crash", on_op=0)

    def test_json_round_trip(self):
        plan = (
            FaultPlan(seed=99)
            .crash_restart("node-1", at=0.5, downtime=0.2, lose_unsynced=True)
            .net_partition("a<->b", at=1.0, duration=0.3)
            .recovery_crash("container-*", on_op=2, note="mid-replay")
            .net_drop("*", probability=0.01, repeat=True)
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed
        assert clone.to_json() == plan.to_json()
        assert [r.action for r in clone.rules] == [r.action for r in plan.rules]

    def test_dump_and_load(self, tmp_path):
        plan = FaultPlan(seed=7).disk_stall("n-*", at=0.1, duration=0.05)
        path = tmp_path / "plan.json"
        plan.dump(path)
        loaded = FaultPlan.load(path)
        assert loaded.to_json() == plan.to_json()


class TestTriggerSemantics:
    def test_on_op_fires_exactly_once(self):
        sim = Simulator()
        plan = FaultPlan(seed=0).disk_stall("n0", on_op=2, duration=0.5)
        engine = FaultEngine(sim, plan)
        engine.start()
        extras = [engine.disk_op("n0", "f", 100, False) for _ in range(5)]
        assert extras == [0.0, 0.5, 0.0, 0.0, 0.0]

    def test_on_op_repeat_fires_every_nth(self):
        sim = Simulator()
        plan = FaultPlan(seed=0).disk_stall("n0", on_op=2, duration=0.5,
                                            repeat=True)
        engine = FaultEngine(sim, plan)
        engine.start()
        extras = [engine.disk_op("n0", "f", 100, False) for _ in range(6)]
        assert extras == [0.0, 0.5, 0.0, 0.5, 0.0, 0.5]

    def test_probability_trigger_is_seed_deterministic(self):
        def trace(seed):
            sim = Simulator()
            plan = FaultPlan(seed=seed).disk_stall(
                "n0", probability=0.5, duration=0.1, repeat=True
            )
            engine = FaultEngine(sim, plan)
            engine.start()
            return [engine.disk_op("n0", "f", 1, False) for _ in range(40)]

        assert trace(12) == trace(12)
        assert trace(12) != trace(13)  # different seed, different schedule

    def test_scheduled_crash_fires_relative_to_start(self):
        sim = Simulator()
        state = {"alive": True}
        plan = FaultPlan(seed=0).crash_restart("n0", at=0.1, downtime=0.2)
        engine = FaultEngine(sim, plan)
        engine.register_node(
            "n0",
            lambda lose: state.update(alive=False),
            lambda: state.update(alive=True),
        )
        sim.run(until=0.5)  # start() schedules relative to *now*
        engine.start()
        sim.run(until=0.55)
        assert state["alive"]
        sim.run(until=0.65)
        assert not state["alive"]
        sim.run(until=0.85)
        assert state["alive"]  # restarted after the downtime

    def test_quiesce_disarms_scheduled_rules(self):
        sim = Simulator()
        state = {"alive": True}
        plan = FaultPlan(seed=0).crash("n0", at=0.1)
        engine = FaultEngine(sim, plan)
        engine.register_node(
            "n0", lambda lose: state.update(alive=False), lambda: None
        )
        engine.start()
        engine.quiesce()
        sim.run(until=0.5)
        assert state["alive"]  # scheduled callback became a no-op
        assert engine.injected == []


class TestFifoClamp:
    def test_later_send_never_overtakes_a_delayed_one(self):
        sim = Simulator()
        plan = FaultPlan(seed=0).net_delay("*", probability=1.0, delay=0.01,
                                           repeat=True)
        engine = FaultEngine(sim, plan)
        engine.start()
        first = engine.net_message("a", "b", 0.0)
        second = engine.net_message("a", "b", 0.0)
        assert first == pytest.approx(0.01)
        # same link, same instant: the second message is pushed behind
        # the first delivery plus the clamp margin
        assert second >= first + _FIFO_MARGIN * 0.99
        # a different link is unaffected
        assert engine.net_message("a", "c", 0.0) == pytest.approx(0.01)

    def test_clamp_applies_even_after_quiesce(self):
        sim = Simulator()
        plan = FaultPlan(seed=0).net_delay("*", probability=1.0, delay=0.05,
                                           repeat=True)
        engine = FaultEngine(sim, plan)
        engine.start()
        delayed = engine.net_message("a", "b", 0.0)
        engine.quiesce()
        trailing = engine.net_message("a", "b", 0.0)
        # the in-flight delayed message still bounds this delivery
        assert trailing >= delayed

    def test_clamp_orders_arrivals_behind_nic_backlog(self):
        # a->c leaves 10 ms of backlog on a's NIC; the first a->b message
        # waits behind it and carries a one-shot 5 ms delay on top.  A
        # second a->b message sent at t=4 ms must still arrive after it.
        sim = Simulator()
        network = Network(sim, NetworkSpec(
            bandwidth=1e8, rtt=1e-3, per_message_overhead=1e-6,
            local_latency=1e-6,
        ))
        plan = FaultPlan(seed=0).net_delay("a->b", probability=1.0, delay=5e-3)
        engine = FaultEngine(sim, plan)
        engine.start()
        network.faults = engine
        arrivals = []
        network.transfer("a", "c", 1_000_000)
        network.transfer("a", "b", 0).add_callback(
            lambda _: arrivals.append(("first", sim.now)))
        sim.run(until=4e-3)
        network.transfer("a", "b", 0).add_callback(
            lambda _: arrivals.append(("second", sim.now)))
        sim.run()
        assert [name for name, _ in arrivals] == ["first", "second"]
        assert arrivals[1][1] >= arrivals[0][1] + _FIFO_MARGIN * 0.99


class TestRecoveryReinjection:
    def test_recovery_step_crashes_on_the_nth_op(self):
        sim = Simulator()
        plan = FaultPlan(seed=0).recovery_crash("container-*", on_op=2)
        engine = FaultEngine(sim, plan)
        engine.start()
        engine.recovery_step("container-1")  # first op: survives
        with pytest.raises(InjectedCrashError):
            engine.recovery_step("container-1")
        engine.recovery_step("container-1")  # fired once, not repeating
        assert [a for _, a, _ in engine.injected] == ["recovery_crash"]

    def test_quiesced_engine_never_crashes_recovery(self):
        sim = Simulator()
        plan = FaultPlan(seed=0).recovery_crash("container-*", on_op=1)
        engine = FaultEngine(sim, plan)
        engine.start()
        engine.quiesce()
        for _ in range(3):
            engine.recovery_step("container-1")
        assert engine.injected == []


class TestRateMeterClamp:
    def test_out_of_order_sample_behaves_like_same_instant(self):
        clamped = RateMeter(half_life=5.0)
        clamped.record(1.0, 10)
        clamped.record(2.0, 10)
        clamped.record(1.0, 10)  # out of order: now < _last_time

        reference = RateMeter(half_life=5.0)
        reference.record(1.0, 10)
        reference.record(2.0, 10)
        reference.record(2.0, 10)  # same sample at the meter's clock

        assert clamped.rate == pytest.approx(reference.rate)
        assert clamped._last_time == 2.0  # the clock never rewinds

    def test_rate_never_inflated_by_negative_elapsed(self):
        meter = RateMeter(half_life=5.0)
        meter.record(10.0, 100)
        meter.record(11.0, 100)
        before = meter.rate
        meter.record(5.0, 0.0)  # stale zero-amount sample from the past
        # a zero-amount same-instant sample can only pull the estimate
        # down (toward 0), never blow it up via a negative interval
        assert meter.rate <= before
        assert meter.decay_to(12.0) <= before
