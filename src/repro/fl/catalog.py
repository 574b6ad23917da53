"""A lightweight index of which clients participated in which rounds.

Non-training workloads phrase their data needs as "all client updates of
round *i*" or "client *c*'s updates across rounds" (Table 1).  To translate a
request into concrete :class:`~repro.fl.keys.DataKey` objects, the serving
system needs to know which clients actually participated in each round; the
:class:`RoundCatalog` records exactly that, and nothing else — it never holds
the (large) updates themselves, so both FLStore and the baselines can keep it
locally at negligible memory cost (Section 5.5).

:attr:`RoundCatalog.version` counts membership changes, so a consumer that
derives something from the catalog (FLStore's per-signature request plans)
can tell when to derive it afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fl.rounds import RoundRecord


@dataclass
class RoundCatalog:
    """Tracks round membership and metadata availability for one FL job."""

    _participants: dict[int, list[int]] = field(default_factory=dict)
    _metadata_clients: dict[int, list[int]] = field(default_factory=dict)
    #: Bumped by every membership change; equal versions mean every query
    #: below answers the same.
    version: int = field(default=0, init=False, compare=False)

    def register_round(self, record: RoundRecord) -> None:
        """Record the membership of ``record``'s round."""
        self._participants[record.round_id] = list(record.participant_ids)
        self._metadata_clients[record.round_id] = sorted(record.metadata)
        self.version += 1

    def register_membership(
        self,
        round_id: int,
        participant_ids: list[int],
        metadata_client_ids: list[int] | None = None,
    ) -> None:
        """Record membership without a full :class:`RoundRecord` (used by traces)."""
        self._participants[round_id] = sorted(participant_ids)
        self._metadata_clients[round_id] = sorted(
            metadata_client_ids if metadata_client_ids is not None else participant_ids
        )
        self.version += 1

    # -------------------------------------------------------------- queries

    def has_round(self, round_id: int) -> bool:
        """Whether ``round_id`` has been registered."""
        return round_id in self._participants

    def participants(self, round_id: int) -> list[int]:
        """Clients that submitted updates in ``round_id`` (empty if unknown)."""
        return list(self._participants.get(round_id, []))

    def metadata_clients(self, round_id: int) -> list[int]:
        """Clients with metadata records in ``round_id`` (empty if unknown)."""
        return list(self._metadata_clients.get(round_id, []))

    def rounds(self) -> list[int]:
        """Every registered round, sorted ascending."""
        return sorted(self._participants)

    @property
    def latest_round(self) -> int:
        """The most recent registered round, or ``-1`` if none."""
        return max(self._participants) if self._participants else -1

    def recent_rounds(self, count: int, up_to: int | None = None) -> list[int]:
        """The most recent ``count`` registered rounds, optionally capped at ``up_to``."""
        rounds = [r for r in self.rounds() if up_to is None or r <= up_to]
        return rounds[-count:]

    def rounds_for_client(self, client_id: int, up_to: int | None = None) -> list[int]:
        """Rounds in which ``client_id`` participated, optionally capped at ``up_to``."""
        return [
            r
            for r, members in sorted(self._participants.items())
            if client_id in members and (up_to is None or r <= up_to)
        ]

    def __len__(self) -> int:
        return len(self._participants)
