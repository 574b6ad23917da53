"""Workload abstraction: data requirements, computation, and compute-time model.

Every non-training application in the paper (Table 1) is expressed as a
:class:`Workload` that declares

* which taxonomy category it belongs to (:class:`PolicyClass`, P1-P4), which
  tells FLStore's Cache Engine which tailored caching policy to apply,
* which concrete metadata objects a request needs (``required_keys``), which
  the serving systems use to fetch data (baselines) or route requests to the
  right functions (FLStore), and
* the actual computation (``compute``) plus an analytic compute-time model
  (``compute_seconds``) calibrated to the per-workload execution times the
  paper measures on serverless functions (Figure 4: ~2.8 s average;
  Figure 12: e.g. 0.03 s cosine similarity, ~1 s filtering/scheduling,
  ~6 s clustering for EfficientNet-sized updates).
"""

from __future__ import annotations

import abc
import enum
import operator
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.common.errors import WorkloadError
from repro.common.units import KB
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.models import ModelSpec, ModelUpdate


class PolicyClass(enum.Enum):
    """Taxonomy categories of Table 1, named after their caching policies."""

    #: Individual client updates / the final aggregated model.
    P1_INDIVIDUAL = "P1"
    #: All client updates of a specific round.
    P2_ROUND = "P2"
    #: One client's updates across consecutive rounds.
    P3_ACROSS_ROUNDS = "P3"
    #: Configuration and performance metadata (hyperparameters, resources).
    P4_METADATA = "P4"


@dataclass(frozen=True)
class WorkloadRequest:
    """One non-training request submitted to a serving system."""

    request_id: str
    workload: str
    round_id: int
    client_id: int | None = None
    #: For across-round workloads: how many past rounds of history to examine.
    history_rounds: int = 2
    params: Mapping[str, Any] = field(default_factory=dict)
    #: The tenant this request belongs to (``None`` on single-tenant traces).
    tenant_id: str | None = None

    def __post_init__(self) -> None:
        if self.round_id < 0:
            raise WorkloadError(f"request {self.request_id}: round_id must be non-negative")
        if self.history_rounds < 1:
            raise WorkloadError(f"request {self.request_id}: history_rounds must be >= 1")


#: Reference model size the compute-time coefficients are calibrated against
#: (EfficientNetV2-Small, the paper's headline model).
_REFERENCE_SIZE_MB = 82.7


class Workload(abc.ABC):
    """Base class of every non-training workload.

    Purity contract: ``required_keys`` must be a function of the request's
    signature — its ``round_id``, ``client_id``, ``history_rounds`` and
    ``params`` — and of the catalog's membership, never of the request id
    or tenant, and must keep no state between calls.  FLStore plans each
    signature once per catalog version on that basis
    (:meth:`repro.core.flstore.FLStore.request_plan`), for every workload.
    Likewise ``compute`` must be a function of the same signature and of
    the ``data`` it is handed, and must neither mutate ``data`` nor keep
    state between calls.  Serving systems rely on that to reuse one result
    for every request with the same inputs (:func:`memoized_compute`).  A
    workload whose result depends on anything else — the request id, the
    tenant, a clock — sets :attr:`memoizable` to ``False`` and is computed
    afresh for every request; its ``required_keys`` stays pure.
    """

    #: Machine-friendly name used in requests, registries, and traces.
    name: str = "workload"
    #: Label used by the paper's figures (e.g. ``"Sched. (Cluster)"``).
    display_name: str = "Workload"
    #: Taxonomy category, which selects the FLStore caching policy (Table 1).
    policy_class: PolicyClass = PolicyClass.P2_ROUND
    #: Fixed per-request computation time on the reference serverless function.
    base_compute_seconds: float = 0.1
    #: Additional computation time per required object, for a reference-sized model.
    per_item_compute_seconds: float = 0.05
    #: Serialized size of the result written back after execution.
    result_size_bytes: int = 16 * KB
    #: Whether ``compute`` reads only the inputs :func:`memoized_compute`
    #: keys on, so a serving system may hand one result to every request
    #: with equal inputs (see the purity contract above).
    memoizable: bool = True

    # ------------------------------------------------------------ interface

    @abc.abstractmethod
    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """The metadata objects needed to serve ``request`` (pure; see the class docstring)."""

    @abc.abstractmethod
    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        """Execute the workload over ``data`` and return its result."""

    # ----------------------------------------------------- shared behaviour

    def compute_seconds(self, model_spec: ModelSpec, num_items: int) -> float:
        """Analytic computation time on the reference serverless function.

        Scales linearly with the number of required objects and with model
        size relative to EfficientNetV2-Small.
        """
        size_scale = model_spec.size_mb / _REFERENCE_SIZE_MB
        return self.base_compute_seconds + self.per_item_compute_seconds * num_items * size_scale

    def validate_data(self, request: WorkloadRequest, data: Mapping[DataKey, Any], keys: list[DataKey]) -> None:
        """Raise :class:`WorkloadError` if any required object is missing."""
        missing = [key for key in keys if key not in data]
        if missing:
            raise WorkloadError(
                f"request {request.request_id} ({self.name}): missing {len(missing)} required "
                f"objects, e.g. {missing[0]}"
            )

    # --------------------------------------------------------------- helpers

    @staticmethod
    def updates_from(data: Mapping[DataKey, Any], keys: list[DataKey]) -> list[ModelUpdate]:
        """Extract the :class:`ModelUpdate` objects referenced by ``keys`` in order."""
        return [data[key] for key in keys if key in data and isinstance(data[key], ModelUpdate)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name} ({self.policy_class.value})>"


def request_signature(workload: Workload, request: WorkloadRequest) -> tuple:
    """What a pure ``workload`` may read of ``request``, as a memo key.

    ``(workload, round_id, client_id, history_rounds, sorted params)``: the
    request id and the tenant are left out (the purity contract of
    :class:`Workload`).  Raises ``TypeError`` when the params cannot be
    ordered, and the tuple cannot be hashed when a param value cannot.
    """
    return (
        workload,
        request.round_id,
        request.client_id,
        request.history_rounds,
        tuple(sorted(request.params.items())),
    )


def memoized_compute(
    memo: dict, workload: Workload, request: WorkloadRequest, data: Mapping[DataKey, Any]
) -> dict[str, Any]:
    """``workload.compute(request, data)``, reusing ``memo``'s result for repeated inputs.

    ``memo`` belongs to one serving system and lives as long as it does.  It
    is keyed on the :func:`request_signature` and the ordered data keys,
    and an entry is reused only when every data value is the
    *same object* it was computed from — so a store whose key now maps to
    a different object recomputes.  Requests whose params cannot be hashed
    and workloads that are not :attr:`~Workload.memoizable` are computed
    directly.  A reused result is shared by every request it is returned
    to, and callers must treat it as read-only.
    """
    if not workload.memoizable:
        return workload.compute(request, data)
    try:
        key = (request_signature(workload, request), tuple(data))
        entry = memo.get(key)
    except TypeError:  # unhashable (or unorderable) params
        return workload.compute(request, data)
    values = tuple(data.values())
    if entry is not None and all(map(operator.is_, entry[0], values)):
        return entry[1]
    result = workload.compute(request, data)
    memo[key] = (values, result)
    return result
