"""Deterministic shard map: rendezvous hashing of objects onto groups.

Each :class:`~repro.core.spec.ObjectSpec` belongs to exactly one shard,
and each shard is served by one replication group.  The assignment uses
highest-random-weight (rendezvous) hashing over the object's *name*: for
every shard we hash ``salt|shard|name`` and the shard with the highest
score wins.  The classic rendezvous property follows: growing the cluster
from *n* to *n+1* shards only moves objects *into* the new shard — no
object ever shuffles between two pre-existing shards, which is what makes
resharding incremental.

The same machinery ranks the candidate hosts for placing a shard's
replicas (:meth:`ShardMap.rank_hosts`): a pure, salt-keyed preference
order that placement walks until a host's admission budget accepts the
group.  Everything is SHA-256 based — no process-dependent ``hash()``,
no RNG — so shard layout is a pure function of (salt, names).
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from repro.errors import ClusterError


def _score(key: str) -> int:
    """A deterministic 64-bit weight for one (salt, shard, item) triple."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardMap:
    """Names → shard ids, and (shard, role) → host preference order."""

    def __init__(self, n_shards: int, salt: str = "rtpb-cluster") -> None:
        if n_shards < 1:
            raise ClusterError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self.salt = salt

    def shard_of(self, name: str) -> int:
        """The shard owning ``name`` (highest-random-weight)."""
        best_shard = 0
        best_score = -1
        for shard in range(self.n_shards):
            score = _score(f"{self.salt}|shard:{shard}|obj:{name}")
            if score > best_score:
                best_score = score
                best_shard = shard
        return best_shard

    def rank_hosts(self, shard: int, role: str,
                   addresses: Sequence[int]) -> List[int]:
        """Candidate host order for placing one of ``shard``'s replicas.

        ``role`` ("primary"/"backup"/"spare") salts the ranking so a
        shard's replicas prefer *different* hosts; placement walks the
        list and takes the first host whose admission budget accepts the
        group.  Ties (impossible in practice with SHA-256) break toward
        the lower address, keeping the order total and deterministic.
        """
        ranked = sorted(
            ((_score(f"{self.salt}|shard:{shard}|{role}|host:{address}"),
              -address) for address in addresses),
            reverse=True)
        return [-negated for _score_, negated in ranked]
