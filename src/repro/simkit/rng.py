"""Named, independently seeded random streams.

Monte-Carlo networking simulations are notoriously easy to de-reproduce:
adding one extra random draw in a shared stream shifts every subsequent
draw.  The registry hands out one :class:`numpy.random.Generator` per
*name*, each derived from the experiment seed and the name via NumPy's
``SeedSequence.spawn`` mechanism, so streams are mutually independent and
stable under code evolution.

Because every seed is a pure function of ``(root seed, label)`` — never
of process identity, wall clock, or draw order in a shared stream —
work that forks its registry per trial can be executed on any worker
process of a pool and still produce bit-identical results.  This is
the property :mod:`repro.parallel` relies on: per-task seeds are
derived here, in the parent, from the task's *name*, and travel with
the task.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic child seed from a root seed and a label.

    Uses CRC-32 of the label mixed into the root seed; stable across
    Python processes (unlike ``hash``, which is salted).
    """
    label_code = zlib.crc32(name.encode("utf-8"))
    return (root_seed * 0x9E3779B1 + label_code) & 0xFFFFFFFF


def spawn_seed(root_seed: int, *labels: str) -> int:
    """Derive a collision-resistant child seed via ``SeedSequence`` spawning.

    Each label becomes one coordinate of the spawn key (its CRC-32, so
    the key is stable across processes and Python versions), and the
    child seed is the first 64-bit word of the spawned sequence's
    entropy stream.  Unlike the additive ``seed + index`` idiom this
    never aliases across experiments: ``spawn_seed(63, "table8",
    "Body")`` and ``spawn_seed(64, "table4", "Air 1")`` land in
    unrelated regions of seed space even though ``63 + 1 == 64 + 0``.

    >>> spawn_seed(1996, "table2", "office1") == spawn_seed(1996, "table2", "office1")
    True
    >>> spawn_seed(1996, "table2", "office1") != spawn_seed(1996, "table2", "office2")
    True
    """
    key = tuple(zlib.crc32(label.encode("utf-8")) for label in labels)
    sequence = np.random.SeedSequence(
        int(root_seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key
    )
    return int(sequence.generate_state(1, np.uint64)[0])


class RngRegistry:
    """A factory of named random generators rooted at a single seed.

    >>> reg = RngRegistry(seed=42)
    >>> a = reg.stream("channel")
    >>> b = reg.stream("mac")
    >>> a is reg.stream("channel")
    True
    >>> a is b
    False
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            child_seed = derive_seed(self.seed, name)
            generator = np.random.Generator(np.random.PCG64(child_seed))
            self._streams[name] = generator
        return generator

    def child_seed(self, name: str) -> int:
        """The root seed a :meth:`fork` for ``name`` would use.

        Exposed so callers that ship work to other processes (the
        parallel runner, the trial fan-out in scale-heavy experiments)
        can derive a task's seed in the parent and send the plain
        integer — the worker reconstructs an identical registry.
        """
        return derive_seed(self.seed, name)

    def fork(self, name: str) -> "RngRegistry":
        """Return a new registry whose root seed is derived from ``name``.

        Used to give each trial within an experiment its own seed space.
        """
        return RngRegistry(self.child_seed(name))

    def names(self) -> list[str]:
        """Names of the streams created so far (for diagnostics)."""
        return sorted(self._streams)
