"""Discrete-event concurrency engine for the FLStore simulator.

:mod:`repro.engine.kernel` provides the generic substrate (event heap,
:class:`SimTask` futures, generator processes).  The serving tier is one
class: :mod:`repro.engine.sharded` is the routing front door — it drives
every open-loop run, routes arrivals, and builds the report — over N
engine-backed shards on one shared event loop (a plain spec is a single
shard).  :mod:`repro.engine.flstore` is the per-shard engine: overlapping
requests, per-function concurrency limits with FIFO/priority queues,
admission control with shedding (drop / degrade-to-objstore), and
keep-alive pings as scheduled events.  :mod:`repro.engine.autoscale`
closes the control loop over the tier: one :class:`ControlSampler` per
control loop turns the front door's counters into per-tick
:class:`ControlSignals`, and policies spawn/retire warm capacity
(per-function slots, whole shards) online.  :mod:`repro.engine.faults`
schedules typed fault clauses (shard crashes, reclamation storms, gray
slowdowns, network spikes) as events on the same timeline, and
:mod:`repro.engine.remediate` closes the repair loop on the same signals: a
controller that detects anomalies against EWMA baselines, proposes ranked
actions, verifies the top one in a bounded shadow simulation, and actuates
only on an accepted forecast.  Open-loop arrival processes live in
:mod:`repro.traces.arrivals`; key-to-shard placement lives in
:mod:`repro.routing`.
"""

from repro.engine.autoscale import (
    AUTOSCALER_KINDS,
    AutoscaleConfig,
    AutoscaleSummary,
    Autoscaler,
    AutoscalerPolicy,
    ControlSampler,
    ControlSignals,
    NullAutoscaler,
    PredictiveAutoscaler,
    ReactiveThresholdAutoscaler,
    ScaleDecision,
    ScaleEvent,
    make_autoscaler_policy,
)
from repro.engine.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultRecord,
    RecoveryMetrics,
    compute_recovery_metrics,
)
from repro.engine.flstore import (
    DISPOSITIONS,
    EngineFLStore,
    EngineOutcome,
    LoadReport,
    build_load_report,
    rejection_result,
    serve_degraded,
)
from repro.engine.kernel import EventLoop, SimTask, Timeout
from repro.engine.remediate import (
    REMEDIATION_ACTIONS,
    Anomaly,
    Proposal,
    RemediationConfig,
    RemediationController,
    RemediationRecord,
    RemediationSummary,
)
from repro.engine.sharded import REPLICATION_POLICIES, ShardedEngineFLStore

__all__ = [
    "AUTOSCALER_KINDS",
    "FAULT_KINDS",
    "REMEDIATION_ACTIONS",
    "REPLICATION_POLICIES",
    "Anomaly",
    "AutoscaleConfig",
    "AutoscaleSummary",
    "Autoscaler",
    "AutoscalerPolicy",
    "ControlSampler",
    "ControlSignals",
    "DISPOSITIONS",
    "EngineFLStore",
    "EngineOutcome",
    "EventLoop",
    "FaultPlan",
    "FaultRecord",
    "LoadReport",
    "NullAutoscaler",
    "PredictiveAutoscaler",
    "Proposal",
    "ReactiveThresholdAutoscaler",
    "RecoveryMetrics",
    "RemediationConfig",
    "RemediationController",
    "RemediationRecord",
    "RemediationSummary",
    "ScaleDecision",
    "ScaleEvent",
    "ShardedEngineFLStore",
    "SimTask",
    "Timeout",
    "build_load_report",
    "compute_recovery_metrics",
    "rejection_result",
    "serve_degraded",
]
