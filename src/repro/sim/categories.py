"""Declared trace categories: the vocabulary of :meth:`Tracer.record`.

Every category recorded anywhere in the library must be declared here —
a test greps the source tree and fails on any undeclared (or misspelled)
category string, so a typo in a ``trace.record("...")`` call is a test
failure instead of a silently empty ``trace.select``.  Import the constants
in code that both records and selects a category; string literals remain
fine at call sites as long as they match a declared name.
"""

from __future__ import annotations

# -- link layer ------------------------------------------------------------
LINK_SEND = "link_send"
LINK_DROP = "link_drop"
LINK_DELIVER = "link_deliver"
LINK_DUPLICATE = "link_duplicate"
LINK_CORRUPT = "link_corrupt"

# -- IP / UDP protocols ----------------------------------------------------
IP_DROP = "ip_drop"
UDP_DROP = "udp_drop"

# -- CPU scheduling --------------------------------------------------------
JOB_RELEASE = "job_release"
JOB_FINISH = "job_finish"
JOB_PREEMPT = "job_preempt"
JOB_REPLACED = "job_replaced"
DEADLINE_MISS = "deadline_miss"

# -- name service ----------------------------------------------------------
NAME_UPDATE = "name_update"
NAME_UNPUBLISH = "name_unpublish"

# -- client application ----------------------------------------------------
CLIENT_ACTIVATED = "client_activated"
CLIENT_RESPONSE = "client_response"
CLIENT_READ = "client_read"
CLIENT_READ_REJECTED = "client_read_rejected"
CLIENT_WRITE_REJECTED = "client_write_rejected"

# -- RTPB replication protocol ---------------------------------------------
PRIMARY_WRITE = "primary_write"
BACKUP_APPLY = "backup_apply"
BACKUP_APPLY_STALE = "backup_apply_stale"
REGISTRATION = "registration"
REGISTRATION_REPLICATED = "registration_replicated"
REGISTRATION_GAVE_UP = "registration_gave_up"
CONSTRAINT = "constraint"
RTPB_GARBLED = "rtpb_garbled"
RETX_REQUEST = "retx_request"
UPDATE_ACK = "update_ack"
UPDATE_SENT = "update_sent"

# -- commutative / timestamp-stable fast path (repro.core.fastpath) --------
FASTPATH_COMMIT = "fastpath_commit"
FASTPATH_DRAIN = "fastpath_drain"
CLIENT_RESPONSE_DEGRADED = "client_response_degraded"
REPLICATION_DEGRADED = "replication_degraded"

# -- failure detection / recovery ------------------------------------------
PING_MISS = "ping_miss"
PEER_DECLARED_DEAD = "peer_declared_dead"
SERVER_CRASH = "server_crash"
SERVER_RECOVER = "server_recover"
BACKUP_LOST = "backup_lost"
FAILOVER = "failover"
RECRUITED = "recruited"
RECRUIT_GAVE_UP = "recruit_gave_up"

# -- multi-backup extension ------------------------------------------------
AWAITING_NEW_PRIMARY = "awaiting_new_primary"
REATTACHED = "reattached"

# -- fault injection / invariant monitoring --------------------------------
FAULT_INJECTED = "fault_injected"
INVARIANT_VIOLATION = "invariant_violation"

# -- sharded cluster (repro.cluster) ---------------------------------------
CLUSTER_PLACE = "cluster_place"
CLUSTER_REJECT = "cluster_reject"
CLUSTER_HOST_DOWN = "cluster_host_down"

# -- elastic control plane (repro.elastic) ---------------------------------
MIGRATION_FREEZE = "migration_freeze"
MIGRATION_TRANSFER = "migration_transfer"
MIGRATION_BARRIER = "migration_barrier"
MIGRATION_COMMIT = "migration_commit"
MIGRATION_ABORT = "migration_abort"
AUTOSCALE = "autoscale"
WINDOW_DEGRADED = "window_degraded"
WINDOW_RESTORED = "window_restored"
CLUSTER_HOST_ADDED = "cluster_host_added"
CLUSTER_HOST_DRAIN = "cluster_host_drain"
CLUSTER_GROUP_RETIRED = "cluster_group_retired"

# -- read replicas (repro.replicas) ----------------------------------------
REPLICA_SUBSCRIBE = "replica_subscribe"
REPLICA_SYNC = "replica_sync"
REPLICA_APPLY = "replica_apply"
REPLICA_APPLY_STALE = "replica_apply_stale"
REPLICA_BEACON = "replica_beacon"

# -- staleness-SLO read path (repro.replicas) ------------------------------
READ_SERVED = "read_served"
READ_REFUSED_STALE = "read_refused_stale"
READ_REJECTED = "read_rejected"
READ_FALLBACK = "read_fallback"
READ_UNSERVED = "read_unserved"

#: Every category any library component may record.
ALL_CATEGORIES = frozenset(
    value for name, value in sorted(globals().items())
    if name.isupper() and isinstance(value, str)
)
