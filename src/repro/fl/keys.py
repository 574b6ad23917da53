"""Canonical keys identifying FL metadata objects across every store.

The Cache Engine of the paper tracks data with ``(client, round) -> function``
mappings (Section 4.2).  We generalise the key slightly so that aggregated
models and per-client configuration metadata share the same key space as
client model updates; this lets the persistent store, the serverless cache,
and every caching policy speak about the same objects.

A key's identity is its equality.  Every way of making a key interns it:
the three factories, ``DataKey(kind, round_id, client_id)``, and
``pickle``/``copy``/``deepcopy`` (which rebuild through ``__reduce__``) all
hand back the one instance per ``(kind, round_id, client_id)``.  So
:class:`DataKey` defines no ``__eq__`` or ``__hash__`` of its own, and every
dict or set keyed by keys (the cluster's liveness index, function memories,
the persistent store, the Cache Engine, the policies, the result memo)
compares and hashes them in C, by ``object`` identity.

Those hashes are derived from addresses, which differ from process to
process, so no output may depend on the order in which a ``set`` of keys
iterates: anything that is walked keeps its keys in a ``dict`` (insertion
ordered), and sets of keys serve membership tests only.
"""

from __future__ import annotations

import enum
import functools
import operator


class DataKind(enum.Enum):
    """What kind of FL metadata a key refers to."""

    #: A single client's model update for one round.
    CLIENT_UPDATE = "client_update"
    #: The aggregated (global) model produced at the end of one round.
    AGGREGATE = "aggregate"
    #: Configuration / performance metadata for one client and round
    #: (hyperparameters, resources, accuracy, payouts).
    METADATA = "metadata"


@functools.total_ordering
class DataKey:
    """Identifies one FL metadata object; an interned, read-only value.

    There is exactly one instance per field triple, so two keys are equal
    exactly when they are the same object, and ``object``'s identity
    compare and address-derived hash stand in for a field-wise ``__eq__``
    and ``__hash__``.  Never let an output depend on iterating a ``set`` of
    keys; use a ``dict`` (insertion ordered) instead.  Keys order by
    ``(kind, round_id, client_id)``.

    Attributes
    ----------
    kind:
        The object category (update, aggregate, metadata).
    round_id:
        Training round the object belongs to.
    client_id:
        Producing client, or ``-1`` for round-level objects such as the
        aggregated model.
    """

    __slots__ = ("kind", "round_id", "client_id")

    kind: DataKind
    round_id: int
    client_id: int

    def __new__(cls, kind: DataKind, round_id: int, client_id: int = -1) -> "DataKey":
        table = _INTERN[kind]
        pair = (round_id, client_id)
        key = table.get(pair)
        if key is None:
            key = table[pair] = _new_key(kind, round_id, client_id)
        return key

    @classmethod
    def update(cls, client_id: int, round_id: int) -> "DataKey":
        """Key of ``client_id``'s model update in ``round_id``."""
        pair = (round_id, client_id)
        key = _UPDATE_INTERN.get(pair)
        if key is None:
            key = _UPDATE_INTERN[pair] = _new_key(_CLIENT_UPDATE, round_id, client_id)
        return key

    @classmethod
    def aggregate(cls, round_id: int) -> "DataKey":
        """Key of the aggregated model produced in ``round_id``."""
        pair = (round_id, -1)
        key = _AGGREGATE_INTERN.get(pair)
        if key is None:
            key = _AGGREGATE_INTERN[pair] = _new_key(_AGGREGATE, round_id, -1)
        return key

    @classmethod
    def metadata(cls, client_id: int, round_id: int) -> "DataKey":
        """Key of ``client_id``'s configuration/performance metadata in ``round_id``."""
        pair = (round_id, client_id)
        key = _METADATA_INTERN.get(pair)
        if key is None:
            key = _METADATA_INTERN[pair] = _new_key(_METADATA, round_id, client_id)
        return key

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an interned DataKey")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an interned DataKey")

    def __reduce__(self) -> tuple[type["DataKey"], tuple[DataKind, int, int]]:
        # Unpickling (and copy/deepcopy) rebuilds through ``__new__``, which
        # hands back this process's interned instance.
        return DataKey, _fields(self)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not DataKey:
            return NotImplemented
        return _fields(self) < _fields(other)

    @property
    def is_update(self) -> bool:
        """Whether this key refers to a client model update."""
        return self.kind is DataKind.CLIENT_UPDATE

    @property
    def is_aggregate(self) -> bool:
        """Whether this key refers to an aggregated model."""
        return self.kind is DataKind.AGGREGATE

    @property
    def is_metadata(self) -> bool:
        """Whether this key refers to configuration/performance metadata."""
        return self.kind is DataKind.METADATA

    def __repr__(self) -> str:
        return (
            f"DataKey(kind={self.kind!r}, round_id={self.round_id!r}, "
            f"client_id={self.client_id!r})"
        )

    def __str__(self) -> str:
        if self.is_aggregate:
            return f"aggregate/r{self.round_id}"
        return f"{self.kind.value}/c{self.client_id}/r{self.round_id}"


#: Enum member aliases (skip the Enum descriptor lookup on the hot path).
_CLIENT_UPDATE = DataKind.CLIENT_UPDATE
_AGGREGATE = DataKind.AGGREGATE
_METADATA = DataKind.METADATA

#: A key's fields as the tuple it orders (and pickles) by.
_fields = operator.attrgetter("kind", "round_id", "client_id")


def _new_key(kind: DataKind, round_id: int, client_id: int) -> DataKey:
    """Build the one instance for a field triple (callers intern it)."""
    key = object.__new__(DataKey)
    object.__setattr__(key, "kind", kind)
    object.__setattr__(key, "round_id", round_id)
    object.__setattr__(key, "client_id", client_id)
    return key


#: Interning tables, one per kind, keyed by ``(round_id, client_id)``.  The
#: factories read their kind's table directly; ``DataKey(...)`` picks it by
#: kind.  Keys are never dropped: a process makes a bounded set of them.
_UPDATE_INTERN: dict[tuple[int, int], DataKey] = {}
_AGGREGATE_INTERN: dict[tuple[int, int], DataKey] = {}
_METADATA_INTERN: dict[tuple[int, int], DataKey] = {}
_INTERN: dict[DataKind, dict[tuple[int, int], DataKey]] = {
    _CLIENT_UPDATE: _UPDATE_INTERN,
    _AGGREGATE: _AGGREGATE_INTERN,
    _METADATA: _METADATA_INTERN,
}
