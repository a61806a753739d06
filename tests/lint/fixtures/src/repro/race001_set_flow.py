"""Fixture: RACE001 — set iteration order flowing into a sink."""


class Broadcaster:
    def __init__(self, sim):
        self.sim = sim

    def broadcast(self, peers: set):
        # RACE001 (line 10): set iteration order reaches the event queue.
        for peer in peers:
            self.sim.schedule(0.1, peer)
        for peer in sorted(peers):  # ordered: fine
            self.sim.schedule(0.2, peer)

    def fanout(self, fabric):
        targets = {"a", "b", "c"}
        # RACE001 (line 18): comprehension over a set inside a send().
        fabric.send([t for t in targets], "ping")

    def tally(self, counts):
        seen = set(counts)
        return [name for name in seen]  # no sink: fine
