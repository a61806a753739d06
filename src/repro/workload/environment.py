"""Synthetic external world.

The paper's client "continuously senses the environment"; the metrics only
ever look at *timestamps*, so any deterministic signal works.  Each object
gets a sinusoid with object-specific frequency, amplitude and phase (derived
from the seed, so runs are reproducible), plus deterministic pseudo-noise —
a reasonable stand-in for slowly varying sensor channels such as position,
temperature or pressure.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Dict, Tuple


class EnvironmentModel:
    """Deterministic per-object signal generator."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: object id -> its (frequency, amplitude, phase), fixed per seed:
        #: one SHA-256 per object instead of one per client write.
        self._param_cache: Dict[int, Tuple[float, float, float]] = {}

    # ------------------------------------------------------------------

    def value(self, object_id: int, t: float) -> float:
        """The real-world value of ``object_id`` at instant ``t``."""
        params = self._param_cache.get(object_id)
        if params is None:
            params = self._param_cache[object_id] = self._params(object_id)
        frequency, amplitude, phase = params
        noise = self._noise(object_id, t)
        return amplitude * math.sin(2.0 * math.pi * frequency * t + phase) + noise

    def sample(self, object_id: int, t: float, size_bytes: int) -> bytes:
        """A ``size_bytes`` encoding of the value (what goes on the wire)."""
        encoded = struct.pack("!d", self.value(object_id, t))
        if size_bytes <= len(encoded):
            return encoded[:size_bytes]
        filler_unit = hashlib.sha256(encoded).digest()
        filler = (filler_unit * (size_bytes // len(filler_unit) + 1))
        return encoded + filler[:size_bytes - len(encoded)]

    # ------------------------------------------------------------------

    def _params(self, object_id: int) -> Tuple[float, float, float]:
        digest = hashlib.sha256(
            f"{self.seed}:env:{object_id}".encode()).digest()
        frequency = 0.1 + (digest[0] / 255.0) * 4.9       # 0.1 - 5 Hz
        amplitude = 1.0 + (digest[1] / 255.0) * 99.0      # 1 - 100 units
        phase = (digest[2] / 255.0) * 2.0 * math.pi
        return frequency, amplitude, phase

    def _noise(self, object_id: int, t: float) -> float:
        quantised = int(t * 1000.0)
        digest = hashlib.sha256(
            f"{self.seed}:noise:{object_id}:{quantised}".encode()).digest()
        return (digest[0] / 255.0 - 0.5) * 0.01
