"""Extensions beyond the paper's prototype.

The paper's conclusion lists "support for multiple backups" as future work;
:mod:`repro.extensions.multibackup` implements it: one primary replicating
to *k* backups with a static succession order, per-backup heartbeats and
registration tracking, and chained failover.
"""

from repro.extensions.multibackup import (
    MultiBackupServer,
    MultiBackupService,
)

__all__ = [
    "MultiBackupServer",
    "MultiBackupService",
]
