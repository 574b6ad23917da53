"""Key-to-shard routing for the sharded serving tier.

The sharded front door (:class:`repro.engine.sharded.ShardedEngineFLStore`)
partitions the request stream across N independent FLStore shards.  Routing
is by *data affinity*: every request carries a routing key derived from the
FL metadata it touches (``(round_id, client_id)``), so requests that need
the same round's updates land on the shard whose cache already holds them.

Three placements are provided, all deterministic across processes and runs
(they use an explicit FNV-1a hash, never Python's randomized ``hash``):

* :class:`ModuloRouter` — ``hash(key) % num_shards``.  Perfectly balanced
  for uniform keys, but resizing the tier remaps almost every key.
* :class:`ConsistentHashRouter` — a classic hash ring with virtual nodes.
  Slightly less balanced, but growing the tier from N to N+1 shards remaps
  only ~1/(N+1) of the key space, which keeps shard caches warm across
  resizes.
* :class:`JoinShortestQueueRouter` — load-aware placement over the ring's
  *affinity candidates*: each key names the first ``fanout`` distinct shards
  clockwise from its ring point, and an arrival goes to whichever candidate
  currently has the fewest outstanding requests.  Hot keys therefore spread
  over a small, stable shard set (caches stay warm on every candidate)
  instead of melting one shard while its neighbours idle.

Placement is pluggable: anything implementing :class:`ShardRouter` can be
handed to the front door (e.g. a locality- or load-aware placement learned
from the trace).  A router that defines ``bind_load_probe`` is handed a
``slot -> load`` callable by the front door (rebound after every resize), so
load-aware placements see live queue state without owning a reference to the
tier.

Three FNV-1a results are computed once per process, in bounded LRU memos:
the ring geometry per ``(num_shards, vnodes)`` (so a resize looks its ring
up instead of rehashing every vnode), the routing key per
``(round_id, client_id)``, and the ring point per routing key (so an arrival
routes with one bisect).  Each memo is exact: FNV-1a is a pure function of
the string it hashes, and for the integer arguments these memos take that
string is fixed by each argument's type and value, which ``lru_cache`` keys
on (``typed=True`` keeps ``1`` and ``True``, equal but formatted
differently, apart).  The memos hold no simulated state, only immutable ints
and tuples, and a full memo evicts and recomputes: a miss costs time, never
a different answer.
"""

from __future__ import annotations

import abc
import bisect
import functools

#: FNV-1a 64-bit offset basis / prime.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def stable_hash_u64(data: str | bytes) -> int:
    """64-bit FNV-1a hash of ``data``; stable across processes and platforms.

    Python's builtin ``hash`` of strings is salted per process
    (``PYTHONHASHSEED``), which would make shard placement — and therefore
    every downstream latency number — irreproducible.  FNV-1a is tiny, has
    good avalanche behaviour for short keys, and is trivially portable.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


def request_routing_key(request) -> int:
    """The routing key of one :class:`~repro.workloads.base.WorkloadRequest`.

    Derived from the data coordinates the request touches — the target round
    and (when the workload follows one client across rounds) the client —
    not from the request id, so retries and repeated requests for the same
    data always land on the same shard.
    """
    return _routing_key(request.round_id, request.client_id)


@functools.lru_cache(maxsize=4096, typed=True)
def _routing_key(round_id: int, client_id: int | None) -> int:
    """FNV-1a of a ``(round_id, client_id)`` coordinate; ``None`` reads as ``-1``."""
    client = client_id if client_id is not None else -1
    return stable_hash_u64(f"r{round_id}:c{client}")


@functools.lru_cache(maxsize=4096, typed=True)
def _ring_point(key: int) -> int:
    """Where routing key ``key`` lands on every consistent-hash ring."""
    return stable_hash_u64(f"key-{key}")


@functools.lru_cache(maxsize=32)
def _ring(num_shards: int, vnodes: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted vnode points of a ``num_shards``-shard ring, and each point's shard."""
    points = sorted(
        (stable_hash_u64(f"shard-{shard}:vnode-{replica}"), shard)
        for shard in range(num_shards)
        for replica in range(vnodes)
    )
    return tuple(point for point, _ in points), tuple(shard for _, shard in points)


class ShardRouter(abc.ABC):
    """Maps routing keys to shard indices ``[0, num_shards)``."""

    #: Machine-friendly identifier (used by the CLI and report labels).
    kind: str = "router"

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = int(num_shards)

    @abc.abstractmethod
    def route(self, key: int) -> int:
        """The shard index responsible for routing key ``key``."""

    def resized(self, num_shards: int) -> "ShardRouter":
        """A router of the same kind and parameters over ``num_shards`` shards.

        Online resize (:meth:`repro.engine.sharded.ShardedEngineFLStore.add_shard`
        / ``remove_shard``) rebuilds placement through this hook, so custom
        parameters (e.g. a non-default ``vnodes``) survive the resize —
        rebuilding a ring with different parameters would remap far more
        than the advertised ~1/(N+1) of the key space.
        """
        return make_router(self.kind, num_shards)

    def route_request(self, request) -> int:
        """Shard index for a workload request (routes by its data affinity)."""
        return self.route(request_routing_key(request))

    def replica_slots(self, key: int, count: int) -> list[int]:
        """The ``count`` distinct slots holding replicas of ``key``, primary first.

        Used by hot-key replication: slot 0 of the result is always
        :meth:`route`'s answer (the primary owner), and the remainder are the
        key's successor slots.  The default walks slots consecutively, which
        is the natural successor set for modulo placement; ring routers
        override this with the clockwise vnode walk so replicas land exactly
        where a resize would move the key (caches stay warm across resizes).
        """
        wanted = min(int(count), self.num_shards)
        primary = self.route(key)
        return [(primary + step) % self.num_shards for step in range(wanted)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class ModuloRouter(ShardRouter):
    """Modulo placement: ``key % num_shards``."""

    kind = "modulo"

    def route(self, key: int) -> int:
        return key % self.num_shards


class ConsistentHashRouter(ShardRouter):
    """Consistent-hash ring placement with virtual nodes.

    Each shard owns ``vnodes`` points on a 64-bit ring; a key is routed to
    the shard owning the first point clockwise from the key's hash.  More
    virtual nodes smooth the per-shard load at the cost of a larger ring.
    """

    kind = "consistent-hash"

    def __init__(self, num_shards: int, vnodes: int = 64) -> None:
        super().__init__(num_shards)
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = int(vnodes)
        self._ring_points, self._ring_shards = _ring(self.num_shards, self.vnodes)

    def resized(self, num_shards: int) -> "ConsistentHashRouter":
        """A ring over ``num_shards`` shards with this router's ``vnodes``."""
        return ConsistentHashRouter(num_shards, vnodes=self.vnodes)

    def route(self, key: int) -> int:
        index = bisect.bisect_right(self._ring_points, _ring_point(key))
        if index == len(self._ring_points):  # wrap around the ring
            index = 0
        return self._ring_shards[index]

    def _ring_successors(self, key: int, wanted: int) -> list[int]:
        """First ``wanted`` distinct shards clockwise from the key's ring point."""
        index = bisect.bisect_right(self._ring_points, _ring_point(key))
        ring_size = len(self._ring_shards)
        found: list[int] = []
        for step in range(ring_size):
            shard = self._ring_shards[(index + step) % ring_size]
            if shard not in found:
                found.append(shard)
                if len(found) == wanted:
                    break
        return found

    def replica_slots(self, key: int, count: int) -> list[int]:
        """Replica slots on the ring: the key's successor shards, primary first.

        Placing replicas on the clockwise successors means a shard removal
        hands each key to a slot that already holds its replica — the same
        property that makes consistent hashing resize-friendly for primaries
        extends to the replica set.
        """
        return self._ring_successors(key, min(int(count), self.num_shards))


class JoinShortestQueueRouter(ConsistentHashRouter):
    """Join-shortest-queue placement over each key's ring affinity candidates.

    A key's *candidates* are the first ``fanout`` distinct shards clockwise
    from its ring point — a stable, key-determined set, so repeated requests
    for the same data keep warming the same few caches.  When the front door
    has bound a load probe (:meth:`bind_load_probe`), an arrival routes to
    the least-loaded candidate (ties prefer the affinity order, primary
    first); unbound, the router degrades to pure consistent hashing, since
    the primary candidate *is* the ring owner.

    ``fanout`` trades affinity against balance: 1 is pure hashing, the shard
    count is global JSQ (perfect balance, no affinity).  The default of 2 is
    the classic "power of two choices" — most of the balance win at a
    fraction of the cache dilution.
    """

    kind = "jsq"

    def __init__(self, num_shards: int, vnodes: int = 64, fanout: int = 2) -> None:
        super().__init__(num_shards, vnodes=vnodes)
        if fanout <= 0:
            raise ValueError(f"fanout must be positive, got {fanout}")
        self.fanout = int(fanout)
        self._load_probe = None

    def resized(self, num_shards: int) -> "JoinShortestQueueRouter":
        """A ring over ``num_shards`` shards with this router's parameters.

        The load probe is *not* carried over — the front door rebinds it
        against the post-resize shard set.
        """
        return JoinShortestQueueRouter(num_shards, vnodes=self.vnodes, fanout=self.fanout)

    def bind_load_probe(self, probe) -> None:
        """Attach the ``slot -> outstanding requests`` callable to route by."""
        self._load_probe = probe

    def candidates(self, key: int) -> list[int]:
        """The key's affinity candidates: first ``fanout`` distinct ring owners."""
        return self._ring_successors(key, min(self.fanout, self.num_shards))

    def route(self, key: int) -> int:
        candidates = self.candidates(key)
        probe = self._load_probe
        if probe is None or len(candidates) == 1:
            return candidates[0]
        best = candidates[0]
        best_load = probe(best)
        for shard in candidates[1:]:
            load = probe(shard)
            if load < best_load:
                best, best_load = shard, load
        return best


#: Router kinds understood by :func:`make_router` (and the CLI).
ROUTER_KINDS: tuple[str, ...] = ("consistent-hash", "modulo", "jsq")


def make_router(kind: str, num_shards: int, **kwargs) -> ShardRouter:
    """Build the router called ``kind`` over ``num_shards`` shards.

    Extra keyword arguments pass through to the router constructor
    (e.g. ``vnodes`` for ``consistent-hash``, ``fanout`` for ``jsq``).
    """
    if kind == "modulo":
        return ModuloRouter(num_shards, **kwargs)
    if kind == "consistent-hash":
        return ConsistentHashRouter(num_shards, **kwargs)
    if kind == "jsq":
        return JoinShortestQueueRouter(num_shards, **kwargs)
    raise ValueError(f"unknown router kind {kind!r}; expected one of {ROUTER_KINDS}")
