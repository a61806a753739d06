"""Window-consistent read replicas with staleness-SLO read routing.

The RTPB window is a bounded-staleness contract: the backup is stale by
at most δ^B per object, and that same bound makes *any* subscriber of the
update stream a legal read server — provided it refuses reads it cannot
prove fresh enough.  This package is that read path:

- :class:`ReadReplica` — subscribes to the primary's update stream,
  beacons its applied high-water timestamps, never participates in
  failover, and refuses any read whose provable staleness would exceed
  the object's δ^B.
- :class:`ReadRouter` — client-side routing over the name file's
  role-tagged replica entries with pluggable policies (``round_robin``,
  ``freshest``, ``least_loaded``, ``nearest``), falling back to the
  primary when no replica qualifies.
- :class:`ReaderClient` — a periodic read workload driving the router.

The tier belongs to its replication group on both topologies
(:class:`~repro.core.group.ReplicationGroup`'s ``replicas``, ``router``
and ``readers``); the core never imports upward, so these functions fill
it: :func:`check_read_tier` rejects bad knobs, :func:`seat_replicas`
seats a pair's replicas (the cluster manager places a shard's itself),
and :func:`attach_reader` adds a reader population to any group.

See ``docs/REPLICAS.md`` for the staleness contract and routing
semantics.
"""

from repro.replicas.reader import ReaderClient, attach_reader, check_read_tier
from repro.replicas.router import POLICIES, ReadRouter, ReplicaResolver
from repro.replicas.server import ReadReplica, seat_replicas

__all__ = [
    "POLICIES",
    "ReadReplica",
    "ReadRouter",
    "ReaderClient",
    "ReplicaResolver",
    "attach_reader",
    "check_read_tier",
    "seat_replicas",
]
