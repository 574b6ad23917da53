"""Round records: the unit of FL metadata ingested by FLStore.

At the end of every training round, the aggregator receives one model update
per participating client plus per-client configuration/performance metadata,
and produces the aggregated global model.  FLStore's Cache Engine receives
exactly this bundle (Step 1 of Figure 6); a :class:`RoundRecord` packages it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.fl.keys import DataKey
from repro.fl.metadata import ClientRoundMetadata
from repro.fl.models import ModelUpdate


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Everything produced by one FL training round."""

    round_id: int
    #: ``client_id -> ModelUpdate`` for every participating client.
    updates: Mapping[int, ModelUpdate]
    #: The aggregated (global) model of this round.
    aggregate: ModelUpdate
    #: ``client_id -> ClientRoundMetadata`` for every client that reported
    #: metadata this round (participants plus availability reports).
    metadata: Mapping[int, ClientRoundMetadata] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for client_id, update in self.updates.items():
            if update.round_id != self.round_id:
                raise ValueError(
                    f"update of client {client_id} belongs to round {update.round_id}, "
                    f"not {self.round_id}"
                )
        if self.aggregate.round_id != self.round_id:
            raise ValueError("aggregate model belongs to a different round")

    @property
    def participant_ids(self) -> list[int]:
        """Sorted identifiers of the clients that submitted updates."""
        return sorted(self.updates)

    @property
    def num_participants(self) -> int:
        """Number of clients that submitted updates."""
        return len(self.updates)

    @property
    def update_bytes(self) -> int:
        """Total logical size of this round's client updates."""
        return sum(u.size_bytes for u in self.updates.values())

    @property
    def total_bytes(self) -> int:
        """Total logical size of updates, aggregate, and metadata."""
        metadata_bytes = sum(m.size_bytes for m in self.metadata.values())
        return self.update_bytes + self.aggregate.size_bytes + metadata_bytes

    # ------------------------------------------------------------- key views

    def update_keys(self) -> list[DataKey]:
        """Keys of every client update in this round."""
        return [DataKey.update(cid, self.round_id) for cid in self.participant_ids]

    def metadata_keys(self) -> list[DataKey]:
        """Keys of every metadata record in this round."""
        return [DataKey.metadata(cid, self.round_id) for cid in sorted(self.metadata)]

    def aggregate_key(self) -> DataKey:
        """Key of this round's aggregated model."""
        return DataKey.aggregate(self.round_id)

    def all_keys(self) -> list[DataKey]:
        """Every key produced by this round (updates, aggregate, metadata)."""
        return [*self.update_keys(), self.aggregate_key(), *self.metadata_keys()]

    def objects(self) -> Iterator[tuple[DataKey, object]]:
        """Iterate over ``(key, object)`` pairs for everything in this round."""
        for cid in self.participant_ids:
            yield DataKey.update(cid, self.round_id), self.updates[cid]
        yield self.aggregate_key(), self.aggregate
        for cid in sorted(self.metadata):
            yield DataKey.metadata(cid, self.round_id), self.metadata[cid]

    def get(self, key: DataKey) -> object:
        """Return the object identified by ``key``.

        Raises
        ------
        KeyError
            If the key does not belong to this round or the client did not
            participate.
        """
        if key.round_id != self.round_id:
            raise KeyError(f"{key} does not belong to round {self.round_id}")
        if key.is_aggregate:
            return self.aggregate
        if key.is_update:
            return self.updates[key.client_id]
        return self.metadata[key.client_id]
