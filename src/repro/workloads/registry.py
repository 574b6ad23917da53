"""Workload registry and the Table 1 taxonomy mapping.

The registry is the single place that maps workload names to implementations
and to the FLStore caching policy class each one requires (the taxonomy of
Table 1).  New workloads register themselves with :func:`register_workload`,
which is the extension point the paper describes for adding applications to
FLStore "by adding a new caching policy" or mapping onto an existing one.
"""

from __future__ import annotations

from repro.workloads.base import PolicyClass, Workload
from repro.workloads.clustering import ClusteringWorkload
from repro.workloads.cosine_similarity import CosineSimilarityWorkload
from repro.workloads.debugging import DebuggingWorkload
from repro.workloads.hyperparams import HyperparameterTuningWorkload
from repro.workloads.incentives import IncentivesWorkload
from repro.workloads.inference import InferenceWorkload
from repro.workloads.malicious_filtering import MaliciousFilteringWorkload
from repro.workloads.personalization import PersonalizationWorkload
from repro.workloads.reputation import ReputationWorkload
from repro.workloads.scheduling import ClusterSchedulingWorkload, PerformanceSchedulingWorkload

_REGISTRY: dict[str, Workload] = {}


def register_workload(workload: Workload, replace: bool = False) -> Workload:
    """Register ``workload`` under its ``name``.

    The workload must keep :class:`~repro.workloads.base.Workload`'s purity
    contract.  FLStore reuses one ``required_keys`` answer for every request
    with the same round, client, history and params until the round catalog
    changes, whatever the request id or tenant.  Serving systems reuse one
    ``compute`` result for every request with the same round, client,
    history, params and data; a workload whose result depends on anything
    else (such as the request id) must set ``memoizable = False``.

    Parameters
    ----------
    workload:
        The workload instance to register.
    replace:
        Allow overwriting an existing registration (used by tests and by
        users extending a stock workload).
    """
    if workload.name in _REGISTRY and not replace:
        raise ValueError(f"workload {workload.name!r} is already registered")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """Return the registered workload called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r}; registered workloads: {known}") from exc


def list_workloads() -> list[str]:
    """Names of every registered workload, sorted."""
    return sorted(_REGISTRY)


def policy_for_workload(name: str) -> PolicyClass:
    """The Table 1 policy class of workload ``name``."""
    return get_workload(name).policy_class


def workload_priority(name: str) -> float:
    """Queue priority of workload ``name`` under the ``priority`` discipline.

    Derived from the Table 1 taxonomy: P1 (latency-critical serving) maps
    to 1.0 and P4 (batch metadata analytics) to 4.0; lower values are
    served first, so inference jumps the queue ahead of batch work when
    they contend for the same execution slots.
    """
    return float(get_workload(name).policy_class.value[1:])


# --------------------------------------------------------------------------
# Stock workloads (the ten applications of the paper's evaluation plus
# hyperparameter tuning from Table 1's P4 row).
# --------------------------------------------------------------------------

for _workload in (
    InferenceWorkload(),
    PersonalizationWorkload(),
    ClusteringWorkload(),
    DebuggingWorkload(),
    MaliciousFilteringWorkload(),
    IncentivesWorkload(),
    ReputationWorkload(),
    ClusterSchedulingWorkload(),
    PerformanceSchedulingWorkload(),
    CosineSimilarityWorkload(),
    HyperparameterTuningWorkload(),
):
    register_workload(_workload)


#: The Table 1 taxonomy: workload name -> policy class identifier.
TAXONOMY: dict[str, str] = {name: _REGISTRY[name].policy_class.value for name in _REGISTRY}

#: Figure-label mapping used by the analysis harness.
WORKLOAD_DISPLAY_NAMES: dict[str, str] = {name: _REGISTRY[name].display_name for name in _REGISTRY}

#: The ten workloads shown in Figures 1, 7, 8, 10 and 11.
EVALUATION_WORKLOADS: tuple[str, ...] = (
    "personalization",
    "clustering",
    "debugging",
    "malicious_filtering",
    "incentives",
    "scheduling_cluster",
    "reputation",
    "scheduling_perf",
    "cosine_similarity",
    "inference",
)

#: The six workloads of the Cache-Agg comparison (Figure 9).
CACHE_AGG_WORKLOADS: tuple[str, ...] = (
    "cosine_similarity",
    "scheduling_cluster",
    "inference",
    "malicious_filtering",
    "scheduling_perf",
    "incentives",
)

__all__ = [
    "CACHE_AGG_WORKLOADS",
    "EVALUATION_WORKLOADS",
    "TAXONOMY",
    "WORKLOAD_DISPLAY_NAMES",
    "get_workload",
    "list_workloads",
    "policy_for_workload",
    "register_workload",
    "workload_priority",
]
