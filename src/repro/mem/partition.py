"""Cache partitioning: owner ids, set-index translation, way maps.

This module implements the mechanism at the heart of the paper:

    "Allocating sets of the L2 cache is implemented by changing the
    conventional index part of an address to a new index. [...] the
    cache has to be able to relate memory accesses to tasks and
    communication buffers." (§4.2)

Concretely:

- :class:`OwnerRegistry` assigns small integer ids to the memory-active
  entities (tasks, FIFOs, frame buffers, shared data/bss regions, the
  RTOS).  Id 0 (:data:`OWNER_SHARED`) means "no exclusive partition".
  The maps below take only ids in ``[0, MAX_OWNERS)``
  (:data:`repro.mem.intervals.MAX_OWNERS`).
- :class:`OwnerResolver` maps one access to its owner: the interval
  table of shared buffers is consulted first, then the task-id register
  of the issuing CPU -- exactly the paper's lookup order.
- :class:`SetPartition` / :class:`SetPartitionMap` translate the
  natural set index into the owner's exclusive group of sets:
  ``new_index = base + (natural_index mod n_sets)``.
- :class:`WayPartitionMap` provides the column-caching baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import PartitionError
from repro.mem.intervals import IntervalTable, check_owner

__all__ = [
    "OWNER_SHARED",
    "OwnerRegistry",
    "OwnerResolver",
    "PartitionMode",
    "SetPartition",
    "SetPartitionMap",
    "WayPartitionMap",
]

#: Owner id that stands for "the shared pool" -- accesses resolved to
#: this id are not translated and may use the whole cache.
OWNER_SHARED = 0


class PartitionMode(enum.Enum):
    """How the shared L2 treats partitioning."""

    SHARED = "shared"  # conventional indexing, no isolation
    SET_PARTITIONED = "set"  # the paper's proposal
    WAY_PARTITIONED = "way"  # column-caching baseline


class OwnerRegistry:
    """Bidirectional map between owner names and dense integer ids."""

    def __init__(self) -> None:
        self._name_to_id: Dict[str, int] = {"<shared>": OWNER_SHARED}
        self._id_to_name: Dict[int, str] = {OWNER_SHARED: "<shared>"}

    def register(self, name: str) -> int:
        """Register ``name`` (idempotent) and return its id."""
        existing = self._name_to_id.get(name)
        if existing is not None:
            return existing
        owner_id = len(self._name_to_id)
        self._name_to_id[name] = owner_id
        self._id_to_name[owner_id] = name
        return owner_id

    def id_of(self, name: str) -> int:
        """Id of a registered owner (raises on unknown names)."""
        try:
            return self._name_to_id[name]
        except KeyError:
            raise PartitionError(f"unknown owner {name!r}") from None

    def name_of(self, owner_id: int) -> str:
        """Name of a registered owner id."""
        try:
            return self._id_to_name[owner_id]
        except KeyError:
            raise PartitionError(f"unknown owner id {owner_id}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id

    def __len__(self) -> int:
        return len(self._name_to_id)


class OwnerResolver:
    """Resolve an access to its owner id.

    Shared-buffer intervals win over the task id: a task reading a FIFO
    touches the *FIFO's* partition, not its own -- this is what removes
    producer/consumer interference (paper §3).
    """

    def __init__(self, interval_table: Optional[IntervalTable] = None):
        self.intervals = interval_table if interval_table is not None else IntervalTable()

    def resolve(self, addr: int, task_owner: int) -> int:
        """Owner id for a byte address issued by ``task_owner``."""
        buffer_owner = self.intervals.lookup(addr)
        return buffer_owner if buffer_owner is not None else task_owner

    #: Placeholder for the removed vectorised resolution: the
    #: repository benchmark's traced run (``perfbench/scenarios.py``)
    #: still wraps this attribute by name.  Nothing calls it.
    resolve_many = None


@dataclass(frozen=True)
class SetPartition:
    """An exclusive, contiguous group of cache sets.

    ``translate`` folds the *line address* into the group.  For
    power-of-two group sizes this is a mask over the low index bits --
    literally the paper's "changing the conventional index part of an
    address to a new index" with fewer index bits.  Non-power-of-two
    sizes use a modulo of the line address; folding the line address
    (rather than the conventional index, which is itself already folded
    by the total set count) keeps consecutive lines perfectly balanced
    over the group regardless of where the region sits in memory.
    """

    owner: int
    base: int
    n_sets: int

    def __post_init__(self) -> None:
        if self.n_sets <= 0:
            raise PartitionError(f"partition needs >= 1 set, got {self.n_sets}")
        if self.base < 0:
            raise PartitionError(f"negative partition base {self.base}")

    @property
    def end(self) -> int:
        """One past the last set of the group."""
        return self.base + self.n_sets

    @property
    def is_power_of_two(self) -> bool:
        """Whether translation can be a simple mask."""
        return self.n_sets & (self.n_sets - 1) == 0

    def translate(self, line_addr: int) -> int:
        """Map a line address into this partition's set group."""
        if self.is_power_of_two:
            return self.base + (line_addr & (self.n_sets - 1))
        return self.base + (line_addr % self.n_sets)


class SetPartitionMap:
    """The per-owner set-translation table the OS programs into the L2."""

    def __init__(self, total_sets: int):
        if total_sets <= 0:
            raise PartitionError("total_sets must be positive")
        self.total_sets = total_sets
        #: Bumped on every mutation; lets callers (the compiled walker's
        #: dense translation table) memoize derived views cheaply.
        self._version = 0
        self._partitions: Dict[int, SetPartition] = {}
        #: Owners deliberately sharing another owner's partition (§4.2:
        #: "or sharing some cache partitions").
        self._aliases: Dict[int, int] = {}
        #: Where owners without an explicit partition go.  ``None``
        #: means conventional indexing over the whole cache; setting a
        #: pool (Kirk's "shared pool" for non-real-time tasks, cited as
        #: [4] by the paper) confines strays so they cannot trample the
        #: exclusive partitions.
        self._default_pool: Optional[SetPartition] = None

    @property
    def partitions(self) -> Dict[int, SetPartition]:
        """Owner id -> partition (a copy; mutate via assign/remove)."""
        return dict(self._partitions)

    @property
    def version(self) -> int:
        """Mutation counter (memoization key for derived tables)."""
        return self._version

    def assign(self, owner: int, base: int, n_sets: int) -> SetPartition:
        """Give ``owner`` the exclusive sets ``[base, base + n_sets)``."""
        check_owner(owner, PartitionError)
        if owner == OWNER_SHARED:
            raise PartitionError("cannot assign a partition to the shared pool")
        partition = SetPartition(owner=owner, base=base, n_sets=n_sets)
        if partition.end > self.total_sets:
            raise PartitionError(
                f"partition [{base}, {partition.end}) exceeds {self.total_sets} sets"
            )
        for other in self._partitions.values():
            if other.owner != owner and not (
                partition.end <= other.base or other.end <= partition.base
            ):
                raise PartitionError(
                    f"partition of owner {owner} overlaps owner {other.owner}"
                )
        self._partitions[owner] = partition
        self._version += 1
        return partition

    def alias(self, owner: int, target: int) -> None:
        """Let ``owner`` deliberately share ``target``'s partition.

        This is the paper's "sharing some cache partitions" option:
        e.g. two instances of the same decoder sharing one code
        partition.  The target must hold a real partition (no chains).
        """
        check_owner(owner, PartitionError)
        if owner == OWNER_SHARED:
            raise PartitionError("cannot alias the shared pool")
        if target not in self._partitions:
            raise PartitionError(
                f"alias target {target} has no partition of its own"
            )
        if owner in self._partitions:
            raise PartitionError(
                f"owner {owner} already has an exclusive partition"
            )
        self._aliases[owner] = target
        self._version += 1

    def remove(self, owner: int) -> None:
        """Drop the partition of ``owner`` (no-op if absent)."""
        self._partitions.pop(owner, None)
        self._aliases.pop(owner, None)
        stale = [o for o, t in self._aliases.items() if t == owner]
        for o in stale:
            del self._aliases[o]
        self._version += 1

    def clear(self) -> None:
        """Remove all partitions (back to a fully shared cache)."""
        self._partitions.clear()
        self._aliases.clear()
        self._version += 1

    def effective_partition(self, owner: int) -> Optional[SetPartition]:
        """The partition ``owner`` actually maps through, aliases resolved.

        ``None`` means the owner uses the default mapping (the default
        pool when configured, else conventional indexing).
        """
        partition = self._partitions.get(owner)
        if partition is None:
            target = self._aliases.get(owner)
            if target is not None:
                return self._partitions[target]
        return partition

    def set_default_pool(self, base: int, n_sets: int) -> SetPartition:
        """Confine unpartitioned owners to a shared pool of sets."""
        pool = SetPartition(owner=OWNER_SHARED, base=base, n_sets=n_sets)
        if pool.end > self.total_sets:
            raise PartitionError("default pool exceeds the cache")
        self._default_pool = pool
        self._version += 1
        return pool

    def clear_default_pool(self) -> None:
        """Back to conventional indexing for unpartitioned owners."""
        self._default_pool = None
        self._version += 1

    @property
    def default_pool(self) -> Optional[SetPartition]:
        """The shared pool for unpartitioned owners, if configured."""
        return self._default_pool

    def map_index(self, owner: int, line_addr: int) -> int:
        """Set index for ``line_addr`` after per-owner translation.

        Unpartitioned owners fall into the default pool when one is
        configured, else get conventional indexing over all sets
        (power-of-two total, which CacheGeometry enforces).
        """
        partition = self._partitions.get(owner)
        if partition is None:
            target = self._aliases.get(owner)
            if target is not None:
                return self._partitions[target].translate(line_addr)
            if self._default_pool is not None:
                return self._default_pool.translate(line_addr)
            return line_addr & (self.total_sets - 1)
        return partition.translate(line_addr)

    #: Placeholder for the removed vectorised translation: the
    #: repository benchmark's traced run (``perfbench/scenarios.py``)
    #: still wraps this attribute by name.  Nothing calls it.
    map_index_many = None

    def validate_disjoint(self) -> None:
        """Check pairwise disjointness (assign() enforces it; belt+braces)."""
        spans = sorted(
            (p.base, p.end, p.owner) for p in self._partitions.values()
        )
        for (b1, e1, o1), (b2, e2, o2) in zip(spans, spans[1:]):
            if e1 > b2:
                raise PartitionError(
                    f"partitions of owners {o1} and {o2} overlap"
                )


class WayPartitionMap:
    """Column caching: owners get exclusive *ways* instead of sets.

    The paper's criticism -- "this partitioning type severely restricts
    the granularity of cache allocation to the associativity of the
    cache" -- is directly visible here: with W ways at most W owners can
    be isolated, and each allocation is a multiple of ``sets x line``
    bytes.
    """

    def __init__(self, total_ways: int):
        if total_ways <= 0:
            raise PartitionError("total_ways must be positive")
        self.total_ways = total_ways
        #: Mutation counter (memoization key for derived tables).
        self._version = 0
        self._ways_of: Dict[int, Tuple[int, ...]] = {}

    def assign(self, owner: int, ways: Iterable[int]) -> Tuple[int, ...]:
        """Give ``owner`` exclusive allocation rights to ``ways``."""
        check_owner(owner, PartitionError)
        way_tuple = tuple(sorted(set(int(w) for w in ways)))
        if not way_tuple:
            raise PartitionError("an owner needs at least one way")
        if way_tuple[0] < 0 or way_tuple[-1] >= self.total_ways:
            raise PartitionError(
                f"ways {way_tuple} out of range 0..{self.total_ways - 1}"
            )
        for other, other_ways in self._ways_of.items():
            if other != owner and set(other_ways) & set(way_tuple):
                raise PartitionError(
                    f"ways of owner {owner} overlap owner {other}"
                )
        self._ways_of[owner] = way_tuple
        self._version += 1
        return way_tuple

    def ways_of(self, owner: int) -> Tuple[int, ...]:
        """Allocation ways for ``owner``; unpartitioned owners get all."""
        ways = self._ways_of.get(owner)
        if ways is None:
            return tuple(range(self.total_ways))
        return ways

    def __len__(self) -> int:
        return len(self._ways_of)
