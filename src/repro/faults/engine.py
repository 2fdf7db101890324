"""FaultEngine: executes a :class:`FaultPlan` against a running simulation.

The engine is the single choke point every injection hook calls into:

* ``disk_op(node, file_id, nbytes, sync)`` — from :class:`repro.sim.disk.Disk`;
  returns extra latency seconds, or raises ``DiskFaultError``.
* ``net_message(src, dst, base)`` — from :class:`repro.sim.network.Network`
  with the message's fault-free delay; returns extra latency seconds.
* ``node_op(node)`` — from broker/bookie request paths; may fire a
  crash rule (the crash itself runs via ``sim.call_soon`` so the
  in-flight operation completes its current step first).
* ``recovery_step(site)`` — from recovery/replay code paths; raises
  ``InjectedCrashError`` to crash recovery itself (satellite: recovery
  is *not* exempt from injection).
* ``lts_op(site)`` — from the tiering path (storage writer); returns
  extra latency or raises ``StorageError``.

Components that can crash register handlers via
:meth:`register_node`; several components may share one node name
(e.g. the colocated bookie and segment store on ``segmentstore-N``) —
a crash fires *all* registered handlers for the matching name.

Determinism: the only RNG consulted is ``random.Random(plan.seed)``
and it is only consulted from deterministic simulation callsites, so
the injected-fault log (:attr:`injected`) is a pure function of
(plan, workload).

Network faults model TCP: a "dropped" message is retransmitted and
arrives late rather than vanishing (permanent loss only ever results
from a crash).  Because real TCP also delivers in order per
connection, the engine clamps per-link delivery so a delayed message
is never overtaken by a later send on the same link — without this, a
deferred Pravega append batch could be reordered behind its successor
and mis-classified as a duplicate by the exactly-once handshake.
"""

from __future__ import annotations

import random
from fnmatch import fnmatch
from typing import Callable, Dict, List, Optional, Tuple

from ..common.errors import DiskFaultError, InjectedCrashError, StorageError
from ..common.metrics import MetricsRegistry
from .plan import FaultPlan, FaultRule

__all__ = ["FaultEngine"]

#: default retransmission delay for net_drop rules that do not set one
DEFAULT_RETRANSMIT = 0.25

#: spacing the per-link FIFO clamp keeps between a delayed message's
#: arrival and any later delivery on the same link
_FIFO_MARGIN = 1.5e-3


class _RuleState:
    """Mutable execution state for one rule."""

    __slots__ = ("rule", "ops_seen", "fired", "active_until")

    def __init__(self, rule: FaultRule) -> None:
        self.rule = rule
        self.ops_seen = 0
        self.fired = False
        self.active_until = -1.0  # window end for at-triggered stalls etc.

    def window_active(self, now: float) -> bool:
        return now < self.active_until


def _match_link(pattern: str, src: str, dst: str) -> bool:
    """Match a link pattern ("a->b" directed, "a<->b" symmetric) or a
    plain node pattern (matches either endpoint)."""
    if "<->" in pattern:
        left, right = pattern.split("<->", 1)
        return (fnmatch(src, left) and fnmatch(dst, right)) or (
            fnmatch(src, right) and fnmatch(dst, left)
        )
    if "->" in pattern:
        left, right = pattern.split("->", 1)
        return fnmatch(src, left) and fnmatch(dst, right)
    return fnmatch(src, pattern) or fnmatch(dst, pattern)


class FaultEngine:
    def __init__(
        self,
        sim,
        plan: FaultPlan,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: chronological log of injected faults: (time, action, target)
        self.injected: List[Tuple[float, str, str]] = []
        #: optional repro.obs.Tracer; fault windows are stamped onto the
        #: spans they overlap when set
        self.tracer = None
        self._armed = False
        # rule states bucketed by hook
        self._disk_rules: List[_RuleState] = []
        self._net_rules: List[_RuleState] = []
        self._node_rules: List[_RuleState] = []
        self._recovery_rules: List[_RuleState] = []
        self._lts_rules: List[_RuleState] = []
        self._zk_rules: List[_RuleState] = []
        for rule in plan.rules:
            st = _RuleState(rule)
            if rule.action in ("disk_stall", "disk_fail"):
                self._disk_rules.append(st)
            elif rule.action in ("net_delay", "net_drop", "net_partition"):
                self._net_rules.append(st)
            elif rule.action in ("crash", "crash_restart"):
                self._node_rules.append(st)
            elif rule.action == "recovery_crash":
                self._recovery_rules.append(st)
            elif rule.action == "lts_fail":
                self._lts_rules.append(st)
            elif rule.action == "zk_expire":
                self._zk_rules.append(st)
        # node name -> [(crash_fn, restart_fn)]
        self._nodes: Dict[str, List[Tuple[Callable, Callable]]] = {}
        self._zk_services: list = []
        # per-link delivery floor for the FIFO clamp
        self._link_floor: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_node(
        self,
        name: str,
        crash_fn: Callable[[bool], None],
        restart_fn: Callable[[], None],
    ) -> None:
        """Register crash/restart handlers for a node name.

        ``crash_fn`` receives ``lose_unsynced: bool``.  Multiple
        registrations per name are allowed (colocated components) and
        all fire together.
        """
        self._nodes.setdefault(name, []).append((crash_fn, restart_fn))

    def register_zk(self, service) -> None:
        """Register a zookeeper service for zk_expire rules."""
        self._zk_services.append(service)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the engine: schedule all at-triggered rules (times are
        relative to *now*)."""
        self._armed = True
        self._t0 = self.sim.now
        for st in (
            self._disk_rules
            + self._net_rules
            + self._node_rules
            + self._lts_rules
            + self._zk_rules
        ):
            rule = st.rule
            if rule.at is None:
                continue
            if rule.action in ("crash", "crash_restart"):
                self.sim.schedule(rule.at, self._make_crash_cb(st))
            elif rule.action == "zk_expire":
                self.sim.schedule(rule.at, self._make_zk_expire_cb(st))
            else:
                # window-style rules: mark active from at to at+duration
                self.sim.schedule(rule.at, self._make_window_cb(st))

    def quiesce(self) -> None:
        """Disarm: no further faults fire (already-scheduled callbacks
        become no-ops).  Used before the heal/readback phase."""
        self._armed = False

    def _record(self, action: str, target: str) -> None:
        self.injected.append((self.sim.now, action, target))
        self.metrics.counter("faults.injected").add(1)
        self.metrics.counter(f"faults.{action}").add(1)

    # ------------------------------------------------------------------
    # trigger evaluation for op-driven rules
    # ------------------------------------------------------------------
    def _op_trigger(self, st: _RuleState) -> bool:
        """Evaluate an on_op / probability trigger for one matching op."""
        rule = st.rule
        if rule.at is not None:
            return False
        if st.fired and not rule.repeat:
            return False
        if rule.on_op is not None:
            st.ops_seen += 1
            if st.ops_seen == rule.on_op or (
                rule.repeat and st.ops_seen % rule.on_op == 0
            ):
                st.fired = True
                return True
            return False
        # probability trigger
        if self.rng.random() < rule.probability:
            st.fired = True
            return True
        return False

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def disk_op(self, node: str, file_id: str, nbytes: int, sync: bool) -> float:
        """Called per disk I/O.  Returns extra latency seconds; raises
        DiskFaultError for an injected device failure."""
        if not self._armed:
            return 0.0
        extra = 0.0
        now = self.sim.now
        for st in self._disk_rules:
            rule = st.rule
            if not fnmatch(node, rule.target):
                continue
            if rule.at is not None:
                if not st.window_active(now):
                    continue
                if rule.action == "disk_fail":
                    self._record("disk_fail", node)
                    raise DiskFaultError(f"injected disk failure on {node}")
                # stall: the op waits out the remaining window
                extra += st.active_until - now
                self._record("disk_stall", node)
            elif self._op_trigger(st):
                if rule.action == "disk_fail":
                    self._record("disk_fail", node)
                    raise DiskFaultError(f"injected disk failure on {node}")
                extra += rule.duration
                self._record("disk_stall", node)
        return extra

    def net_message(self, src: str, dst: str, base: float) -> float:
        """Called per network message whose fault-free delivery delay is
        ``base``.  Returns extra latency seconds."""
        if not self._armed:
            return self._fifo_clamp(src, dst, base, 0.0)
        extra = 0.0
        now = self.sim.now
        for st in self._net_rules:
            rule = st.rule
            if not _match_link(rule.target, src, dst):
                continue
            if rule.at is not None:
                if not st.window_active(now):
                    continue
                # partition/stall window: defer until the window heals
                extra += (st.active_until - now) + (rule.delay or 0.0)
                self._record(rule.action, f"{src}->{dst}")
            elif self._op_trigger(st):
                if rule.action == "net_drop":
                    extra += rule.delay or DEFAULT_RETRANSMIT
                else:
                    extra += rule.delay
                self._record(rule.action, f"{src}->{dst}")
        return self._fifo_clamp(src, dst, base, extra)

    def _fifo_clamp(self, src: str, dst: str, base: float, extra: float) -> float:
        """Preserve per-link delivery order (TCP never reorders within a
        connection): a message sent after a delayed one on the same link
        must not arrive before it.  The clamp orders absolute arrival
        instants ``now + base + extra``; ordering ``now + extra`` alone
        would let a later message overtake one queued behind NIC
        backlog."""
        key = (src, dst)
        floor = self._link_floor.get(key)
        arrival = self.sim.now + base
        if extra > 0.0:
            planned = arrival + extra
            if floor is not None and planned < floor + _FIFO_MARGIN:
                planned = floor + _FIFO_MARGIN
                extra = planned - arrival
            self._link_floor[key] = planned
        elif floor is not None:
            if arrival < floor + _FIFO_MARGIN:
                extra = (floor + _FIFO_MARGIN) - arrival
                self._link_floor[key] = floor + _FIFO_MARGIN
            else:
                del self._link_floor[key]
        return extra

    def node_op(self, node: str) -> None:
        """Called per request at a crashable node; may fire a crash rule.

        The crash runs via ``call_soon`` so the current operation's
        stack unwinds through the component's normal crash handling.
        """
        if not self._armed:
            return
        for st in self._node_rules:
            rule = st.rule
            if rule.at is not None or not fnmatch(node, rule.target):
                continue
            if self._op_trigger(st):
                self.sim.call_soon(self._make_crash_cb(st, node))

    def recovery_step(self, site: str) -> None:
        """Called from recovery/replay paths; raises InjectedCrashError
        to crash the recovery itself."""
        if not self._armed:
            return
        for st in self._recovery_rules:
            rule = st.rule
            if not fnmatch(site, rule.target):
                continue
            if rule.at is not None:
                continue  # recovery crashes are op-triggered only
            if self._op_trigger(st):
                self._record("recovery_crash", site)
                raise InjectedCrashError(f"injected crash during recovery of {site}")

    def lts_op(self, site: str) -> float:
        """Called per long-term-storage write; returns extra latency or
        raises StorageError during an injected outage window."""
        if not self._armed:
            return 0.0
        now = self.sim.now
        for st in self._lts_rules:
            rule = st.rule
            if not fnmatch(site, rule.target):
                continue
            if rule.at is not None:
                if st.window_active(now):
                    self._record("lts_fail", site)
                    raise StorageError(f"injected LTS outage at {site}")
            elif self._op_trigger(st):
                self._record("lts_fail", site)
                raise StorageError(f"injected LTS failure at {site}")
        return 0.0

    # ------------------------------------------------------------------
    # scheduled-callback factories (at-triggered rules)
    # ------------------------------------------------------------------
    def _make_window_cb(self, st: _RuleState):
        def fire() -> None:
            if not self._armed:
                return
            st.active_until = self.sim.now + st.rule.duration
            self._record(st.rule.action + ".window", st.rule.target)
            if self.tracer is not None:
                self.tracer.record_fault_window(
                    self.sim.now, st.active_until, st.rule.action, st.rule.target
                )

        return fire

    def _make_crash_cb(self, st: _RuleState, node: Optional[str] = None):
        rule = st.rule

        def fire() -> None:
            if not self._armed:
                return
            crashed = []
            for name, handlers in self._nodes.items():
                if node is not None:
                    if name != node:
                        continue
                elif not fnmatch(name, rule.target):
                    continue
                for crash_fn, restart_fn in handlers:
                    crash_fn(rule.lose_unsynced)
                    crashed.append(restart_fn)
                self._record(rule.action, name)
            if rule.action == "crash_restart" and crashed:
                def restart() -> None:
                    for restart_fn in crashed:
                        restart_fn()
                self.sim.schedule(rule.downtime, restart)

        return fire

    def _make_zk_expire_cb(self, st: _RuleState):
        rule = st.rule

        def fire() -> None:
            if not self._armed:
                return
            expired = 0
            for service in self._zk_services:
                expired += service.expire_sessions_for_host(rule.target)
            if expired:
                self._record("zk_expire", rule.target)

        return fire
