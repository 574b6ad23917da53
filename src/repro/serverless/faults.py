"""Fault injection for serverless function reclamation.

The paper's fault-tolerance evaluation (Appendix A.2) injects function
reclamations following a Zipfian distribution, matching the measurement
studies of AWS Lambda cited from InfiniCache.  The experiment owns the
injector and calls :meth:`ZipfianFaultInjector.strike` on the store before
each request it serves (Figures 13 and 14), so which (if any) of the store's
cached functions are reclaimed is decided before the request executes.  The
discrete-event engine does not use it: its reclamations come from the
``reclamation-storm`` fault clause (:mod:`repro.engine.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.common.rng import derive_rng

if TYPE_CHECKING:  # the core imports the serverless package; annotations only
    from repro.core.flstore import FLStore


@dataclass
class FaultEvent:
    """One injected reclamation.

    ``time_seconds`` is the store's analytic clock when the reclamation was
    sampled, so fault traces can be lined up against request latencies, not
    just request ordinals.
    """

    request_index: int
    function_id: str
    time_seconds: float = 0.0


class ZipfianFaultInjector:
    """Injects function reclamations with Zipf-distributed inter-arrival gaps.

    Parameters
    ----------
    fault_rate:
        Expected fraction of requests that experience at least one
        reclamation (0 disables fault injection).
    zipf_exponent:
        Exponent ``a`` of the Zipf distribution used to pick how many
        functions are reclaimed in a faulty step (heavier tail for smaller
        ``a``); must be > 1.
    seed:
        Master seed; the injector derives an independent stream.
    """

    def __init__(
        self,
        fault_rate: float = 0.05,
        zipf_exponent: float = 2.5,
        seed: int = 7,
    ) -> None:
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if zipf_exponent <= 1.0:
            raise ValueError("zipf_exponent must be > 1")
        self.fault_rate = fault_rate
        self.zipf_exponent = zipf_exponent
        self._rng = derive_rng(seed, "fault-injector")
        self.events: list[FaultEvent] = []
        self._request_index = 0

    def sample_reclamations(
        self, candidate_function_ids: list[str], now: float = 0.0
    ) -> list[str]:
        """Return the function ids reclaimed before the next request.

        The number of reclaimed functions in a faulty step is Zipf-distributed
        (capped at the number of candidates); which functions are reclaimed is
        uniform over the candidates.  ``now`` is the simulation time stamped
        onto the recorded :class:`FaultEvent` rows.
        """
        self._request_index += 1
        if not candidate_function_ids or self.fault_rate == 0.0:
            return []
        if self._rng.random() >= self.fault_rate:
            return []
        count = int(self._rng.zipf(self.zipf_exponent))
        count = min(count, len(candidate_function_ids))
        chosen = self._rng.choice(candidate_function_ids, size=count, replace=False)
        reclaimed = [str(function_id) for function_id in np.atleast_1d(chosen)]
        for function_id in reclaimed:
            self.events.append(FaultEvent(self._request_index, function_id, now))
        return reclaimed

    def strike(self, store: FLStore) -> list[str]:
        """Reclaim ``store``'s functions before the next request it serves.

        Samples over the store's cached functions at its analytic clock,
        reclaims the chosen ones on its platform, and drops the keys whose
        every copy they held.  Returns the reclaimed function ids.
        """
        reclaimed = self.sample_reclamations(store.cluster.function_ids(), now=store.clock.now())
        for function_id in reclaimed:
            store.platform.reclaim_function(function_id)
        if reclaimed:
            store.engine.drop_lost_keys()
        return reclaimed

    @property
    def total_faults(self) -> int:
        """Number of reclamations injected so far."""
        return len(self.events)

    def reset(self) -> None:
        """Forget every injected event and restart the request counter."""
        self.events.clear()
        self._request_index = 0
