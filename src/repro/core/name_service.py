"""The name service ("name file").

In the paper's recovery path, "the new primary changes the address in the
name file to its own internet address" so clients can find the service again.
This is that name file: a tiny registry mapping service names to fabric
addresses, shared by reference among the hosts of a scenario (the moral
equivalent of an NFS-mounted file or a well-known name server).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NoRouteError
from repro.sim.engine import Simulator

#: Sentinel address recorded in :attr:`NameService.changes` for an unpublish.
UNPUBLISHED = -1

#: Separator between a service name and a role tag in composite entries
#: (``"shard03#replica1"``) — the form role entries take in :attr:`changes`
#: and in liveness-probe calls.
ROLE_SEPARATOR = "#"


class NameService:
    """Service name → current primary's fabric address."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._entries: Dict[str, int] = {}
        #: Role-tagged side entries: service name → role → address.  The
        #: primary entry in :attr:`_entries` stays authoritative for
        #: failover; roles carry the *read* topology (which replicas serve
        #: a shard) without ever competing for the primary slot.
        self._roles: Dict[str, Dict[str, int]] = {}
        #: Full change history: (time, name, address); ``UNPUBLISHED`` (-1)
        #: as the address marks a removal.  Role entries appear under their
        #: composite ``name#role`` form.
        self.changes: List[Tuple[float, str, int]] = []
        #: Installed by :meth:`set_liveness_probe`; None trusts every entry.
        self.liveness_probe: Optional[Callable[[str, int], bool]] = None

    def publish(self, name: str, address: int) -> None:
        """Set (or update) the address serving ``name``."""
        self._entries[name] = address
        self.changes.append((self.sim.now, name, address))
        if self.sim.trace.enabled("name_update"):
            self.sim.trace.record("name_update", name=name, address=address)

    def unpublish(self, name: str) -> None:
        """Remove the entry for ``name`` — and its role entries (idempotent).

        Decommissioning a replication group leaves no forwarding address:
        subsequent lookups raise :class:`NoRouteError` instead of handing
        clients a dead address.  The role entries under ``name`` go down
        with it: they described the dead incarnation's read topology, and
        leaving them in place would let an immediate ``publish_role`` of
        the same composite name (a migration republishing the group within
        one tick) coexist with stale siblings that the liveness probe is
        no longer consulted about.
        """
        if self._entries.pop(name, None) is None:
            return
        self.changes.append((self.sim.now, name, UNPUBLISHED))
        if self.sim.trace.enabled("name_unpublish"):
            self.sim.trace.record("name_unpublish", name=name)
        for role in sorted(self._roles.get(name, {})):
            self.unpublish_role(name, role)

    def set_liveness_probe(self,
                           probe: Optional[Callable[[str, int], bool]]) -> None:
        """Install a stale-entry guard consulted by :meth:`lookup`.

        ``probe(name, address)`` should return True while a live server for
        ``name`` is actually reachable at ``address``.  The name file itself
        has no failure detector — an entry published by a primary that later
        crashed (and was never failed over) still points at the dead address.
        A deployment facade that *does* know liveness (the cluster manager)
        installs a probe so routing raises :class:`NoRouteError` instead of
        returning a dead address.  Single-group services leave it unset and
        keep the paper's behaviour: the stale entry stands until the new
        primary overwrites it.
        """
        self.liveness_probe = probe

    def lookup(self, name: str) -> int:
        """Address currently serving ``name``; raises when unpublished.

        With a liveness probe installed, a stale entry (dead server, no
        failover recorded yet) also raises :class:`NoRouteError`.
        """
        address = self._entries.get(name)
        if address is None:
            raise NoRouteError(f"service {name!r} not published")
        probe = self.liveness_probe
        if probe is not None and not probe(name, address):
            raise NoRouteError(
                f"service {name!r} entry at address {address} is stale")
        return address

    def publish_role(self, name: str, role: str, address: int) -> None:
        """Register ``address`` as serving ``name`` in capacity ``role``.

        Multiple roles may coexist under one service name (several read
        replicas of one shard); each role holds exactly one address, and
        republishing a role overwrites it.  Role entries never shadow the
        primary entry — :meth:`lookup` ignores them entirely.
        """
        if ROLE_SEPARATOR in name or ROLE_SEPARATOR in role:
            raise ValueError(
                f"name/role may not contain {ROLE_SEPARATOR!r}: "
                f"{name!r} / {role!r}")
        self._roles.setdefault(name, {})[role] = address
        composite = f"{name}{ROLE_SEPARATOR}{role}"
        self.changes.append((self.sim.now, composite, address))
        if self.sim.trace.enabled("name_update"):
            self.sim.trace.record("name_update", name=composite,
                                  address=address)

    def unpublish_role(self, name: str, role: str) -> None:
        """Remove the ``role`` entry under ``name`` (idempotent)."""
        roles = self._roles.get(name)
        if roles is None or roles.pop(role, None) is None:
            return
        if not roles:
            del self._roles[name]
        composite = f"{name}{ROLE_SEPARATOR}{role}"
        self.changes.append((self.sim.now, composite, UNPUBLISHED))
        if self.sim.trace.enabled("name_unpublish"):
            self.sim.trace.record("name_unpublish", name=composite)

    def lookup_roles(self, name: str,
                     prefix: str = "") -> List[Tuple[str, int]]:
        """Live ``(role, address)`` entries under ``name``, sorted by role.

        With a liveness probe installed, each entry is checked under its
        composite ``name#role`` form and stale ones are silently dropped —
        an empty list (rather than an exception) is the "no replica
        qualifies" signal, because role consumers always have the primary
        entry to fall back on.  ``prefix`` filters by role name
        (``"replica"`` selects the read replicas).
        """
        liveness = self.liveness_probe
        return [(role, address)
                for role, composite, address in self.role_entries(name, prefix)
                if liveness is None or liveness(composite, address)]

    def role_entries(self, name: str,
                     prefix: str = "") -> List[Tuple[str, str, int]]:
        """``(role, composite name, address)`` under ``name`` as written,
        sorted by role: :meth:`lookup_roles` before the probe, for a caller
        that keeps them until :attr:`changes` grows."""
        return [(role, f"{name}{ROLE_SEPARATOR}{role}", address)
                for role, address in sorted(self._roles.get(name, {}).items())
                if role.startswith(prefix)]

    def peek_role(self, name: str, role: str) -> Optional[int]:
        """Raw role entry (no liveness guard, no raise)."""
        return self._roles.get(name, {}).get(role)

    def peek(self, name: str) -> Optional[int]:
        """Raw entry for ``name`` (no liveness guard, no raise).

        Observers that must see the name file exactly as written — the
        invariant monitor deciding whether a crashed primary was
        authoritative, a deposed multi-backup replica computing its rank —
        use ``peek``; client routing uses :meth:`lookup`.
        """
        return self._entries.get(name)

    def knows(self, name: str) -> bool:
        return name in self._entries
