"""Consistent-hash placement of sessions over cluster workers.

A :class:`HashRing` maps session ids onto worker addresses so that
membership changes move as few sessions as possible: each member
contributes ``replicas`` virtual points on a 64-bit circle, a key is
hashed onto the circle and owned by the first point at or after it.
Removing one member of N relocates only ~1/N of the keyspace -- the
drained worker's arcs fall to their ring successors, which is exactly
the migration path :class:`~repro.cluster.backend.ClusterBackend`
drives.

Placement is **capacity-weighted**: a member with weight ``w`` gets
``round(replicas * w)`` virtual points (floored at 1), so a 16-core
worker owns ~4x the keyspace of a 4-core one when weights are derived
from CPU counts.  Weights default to 1.0 -- the unweighted ring of
earlier builds is the special case where every weight is equal, and any
common scale factor cancels (weights 2/2/2 build the same ring as
1/1/1 because virtual-point hashes depend only on the resulting count).

Hashes are unkeyed blake2b: identical in every process, run and machine (``PYTHONHASHSEED`` never
enters), so a router restart or a second router over the same fleet
computes the same placement.  ``hash()`` would silently shuffle every
session each run.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Mapping, Sequence

from ..errors import ServiceError

__all__ = ["DEFAULT_REPLICAS", "HashRing", "ring_hash"]

#: Virtual points per unit weight: enough to keep the largest/smallest
#: arc ratio small for fleets of a few dozen workers, cheap to rebuild.
DEFAULT_REPLICAS = 64


def ring_hash(key: str) -> int:
    """A stable 64-bit position on the ring for ``key``."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class HashRing:
    """An immutable consistent-hash ring over string members.

    Membership changes (a worker joining, draining or dying) rebuild
    the ring -- O(members x replicas), trivially cheap against RPC
    costs -- rather than mutating it, so lookups need no locking.

    ``weights`` maps members to relative capacities; absent members
    weigh 1.0.  Weights are normalized so their *mean* is 1.0 before
    computing virtual-point counts: a homogeneous fleet always lands on
    exactly ``replicas`` points per member regardless of the absolute
    capacity numbers reported (4 CPUs everywhere == 16 CPUs everywhere).
    """

    def __init__(
        self,
        members: Iterable[str],
        replicas: int = DEFAULT_REPLICAS,
        weights: Mapping[str, float] | None = None,
    ):
        self.members: tuple[str, ...] = tuple(dict.fromkeys(members))
        if not self.members:
            raise ServiceError("a hash ring needs at least one member")
        if replicas < 1:
            raise ServiceError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        raw = {
            member: float((weights or {}).get(member, 1.0))
            for member in self.members
        }
        for member, weight in raw.items():
            if not weight > 0:
                raise ServiceError(
                    f"ring weight for {member!r} must be > 0, got {weight}"
                )
        mean = sum(raw.values()) / len(raw)
        self.weights: dict[str, float] = raw
        self._points_per_member: dict[str, int] = {
            member: max(1, round(self.replicas * weight / mean))
            for member, weight in raw.items()
        }
        points = []
        for member in self.members:
            for replica in range(self._points_per_member[member]):
                points.append((ring_hash(f"{member}#{replica}"), member))
        points.sort()
        self._points: Sequence[int] = [point for point, _ in points]
        self._owners: Sequence[str] = [member for _, member in points]

    def points_of(self, member: str) -> int:
        """How many virtual points ``member`` holds on this ring."""
        return self._points_per_member.get(member, 0)

    def owner(self, key: str) -> str:
        """The member owning ``key``: first ring point at/after its hash."""
        index = bisect.bisect_right(self._points, ring_hash(key))
        if index == len(self._points):
            index = 0  # wrap around the circle
        return self._owners[index]

    def successors(self, key: str) -> list[str]:
        """Every member in ring order starting at ``key``'s owner.

        The fallback order for placement when earlier members are
        unavailable; each member appears once.
        """
        start = bisect.bisect_right(self._points, ring_hash(key))
        seen: dict[str, None] = {}
        n = len(self._points)
        for offset in range(n):
            member = self._owners[(start + offset) % n]
            if member not in seen:
                seen[member] = None
                if len(seen) == len(self.members):
                    break
        return list(seen)

    def without(self, *members: str) -> "HashRing":
        """A new ring minus ``members`` (raises when none would remain)."""
        dropped = set(members)
        remaining = [m for m in self.members if m not in dropped]
        weights = {m: w for m, w in self.weights.items() if m not in dropped}
        return HashRing(remaining, self.replicas, weights)

    def __contains__(self, member: str) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)
