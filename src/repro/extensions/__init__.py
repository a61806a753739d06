"""Extensions beyond the paper's prototype.

The paper's conclusion lists "support for multiple backups" as future work;
:mod:`repro.extensions.multibackup` implements it: one primary replicating
to *k* backups with a static succession order, per-backup heartbeats and
registration tracking, and chained failover.  Deploy it through the one
facade: ``RTPBService(server_class=MultiBackupServer, n_backups=k)``.
"""

from repro.extensions.multibackup import (
    MultiBackupServer,
    MultiBackupServerError,
)

__all__ = [
    "MultiBackupServer",
    "MultiBackupServerError",
]
