"""Seeded random-number management for reproducible simulations.

Every simulation entry point accepts either an integer seed or a
ready-made :class:`numpy.random.Generator`.  Independent sub-streams
(events vs. recharge vs. activation coins, or per-sensor streams) are
derived with :func:`spawn` so results are reproducible regardless of how
many random numbers each consumer draws.

Stream derivation: the sub-streams of a run are, by definition,
``spawn(make_rng(seed), count)`` — child ``i`` is
``PCG64(SeedSequence(entropy, spawn_key=parent_key + (i,)))``.  The
simulation entry points derive them through :func:`spawn_substreams` and
:func:`bulk_substreams`, which hash the children's seed words in C
(``repro_seed_children`` in :mod:`repro.sim._native`, a transcription of
numpy's ``SeedSequence`` entropy hash for pool size 4).  The parent's
pool mixing is hashed once per parent and the child's spawn-key word
once per child, and each ``PCG64`` seeds itself from the precomputed
words (:class:`_PrecomputedSeedWords`); the words equal
``SeedSequence(...).generate_state(4, np.uint64)`` (property-tested), so
the streams are byte-identical.  Seeds the C hash does not take — a live
``Generator`` (stateful spawning), ``None`` (fresh OS entropy), a
non-default ``pool_size``, negative or non-integer entropy — and hosts
without the compiled library derive through numpy's own ``SeedSequence``.

Compatibility note: since the repro-lint PR, :func:`spawn` derives
children through :class:`numpy.random.SeedSequence` spawning instead of
drawing raw 63-bit integer seeds from the parent stream.  SeedSequence
spawn keys give a cryptographic-quality guarantee that sibling streams
(and their descendants) never collide, whereas raw integer seeding
carried a small birthday-collision/bias risk across large batch runs.
Spawned streams differ from the pre-change ones, so simulation results
for a fixed seed shifted within their statistical error bars; golden
tests pin distributional bounds, not the old bit patterns.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.exceptions import SimulationError
from repro.sim._native import get_native_scan

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]

#: The SeedSequence pool size the C hash is written for (numpy's default).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Normalise a seed-or-generator argument into a Generator.

    A :class:`~numpy.random.SeedSequence` is copied (same entropy and
    spawn key, child counter reset to zero) before use: spawning
    sub-streams mutates the sequence's child counter, and without the
    copy a simulation run would mutate the *caller's* seed object —
    making a second run with the same seed silently different.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
        )
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Children are derived via ``SeedSequence.spawn``, which extends the
    parent's entropy with a unique spawn key per child; independence
    holds between all siblings and across repeated :func:`spawn` calls
    on the same parent (each call advances the parent's spawn counter).
    """
    if count < 0:
        raise SimulationError(f"spawn count must be >= 0, got {count}")
    if hasattr(rng, "spawn"):  # numpy >= 1.25
        return list(rng.spawn(count))
    seed_seq = rng.bit_generator.seed_seq  # pragma: no cover - old numpy
    return [np.random.default_rng(s) for s in seed_seq.spawn(count)]


def bulk_spawn(
    parent: np.random.SeedSequence, count: int
) -> List[np.random.SeedSequence]:
    """``parent.spawn(count)`` without mutating ``parent``, in bulk.

    Children are constructed directly from the parent's entropy and
    spawn key — byte-for-byte the sequences ``SeedSequence.spawn``
    returns from a fresh parent (``n_children_spawned == 0``), skipping
    the per-child bookkeeping of the stock spawn loop.  Packing a
    4096-run batch derives its seeds here, so the construction cost is
    kept to the unavoidable per-child entropy mixing.
    """
    if count < 0:
        raise SimulationError(f"spawn count must be >= 0, got {count}")
    if parent.n_children_spawned != 0:
        # The cheap construction below would restart the child counter
        # and collide with already-spawned children; defer to numpy.
        return list(parent.spawn(count))
    entropy = parent.entropy
    spawn_key = parent.spawn_key
    pool_size = parent.pool_size
    seq = np.random.SeedSequence
    return [
        seq(entropy=entropy, spawn_key=spawn_key + (i,), pool_size=pool_size)
        for i in range(count)
    ]


def spawn_seeds(
    base_seed: Optional[int], count: int
) -> List[np.random.SeedSequence]:
    """Derive ``count`` non-colliding child seeds from one base seed.

    Unlike drawing raw integers from a generator (which carries a
    birthday-collision risk across large batches), ``SeedSequence.spawn``
    children are guaranteed distinct and mutually independent.  The
    returned :class:`numpy.random.SeedSequence` objects are valid
    ``SeedLike`` values for every simulation entry point.  Children are
    derived through the bulk path (:func:`bulk_spawn`), which is
    regression-tested to produce spawn keys identical to
    ``SeedSequence(base_seed).spawn(count)``.
    """
    if count < 0:
        raise SimulationError(f"seed count must be >= 0, got {count}")
    return bulk_spawn(np.random.SeedSequence(base_seed), count)


def spawn_substreams(
    seed: SeedLike, count: int
) -> List[np.random.Generator]:
    """The sub-streams ``spawn(make_rng(seed), count)`` yields, cheaply.

    For seed-like inputs (an integer, a list of integers, a
    :class:`~numpy.random.SeedSequence`) the children's seed words are a
    pure function of the parent's entropy and spawn key, so they are
    hashed in C and no parent generator is built; streams are
    bit-identical to the ``make_rng`` + :func:`spawn` protocol
    (property-tested).  Every other input runs that protocol itself: a
    :class:`~numpy.random.Generator` is spawned from (mutating the
    caller's generator exactly like :func:`spawn`), ``None`` draws fresh
    OS entropy, and a seed numpy rejects raises numpy's error.
    """
    if count < 0:
        raise SimulationError(f"spawn count must be >= 0, got {count}")
    words = _parent_words(seed)
    native = None if words is None else get_native_scan()
    if native is None:
        return spawn(make_rng(seed), count)
    return _generators(native.seed_children([words], count))


def bulk_substreams(
    seeds: Sequence[SeedLike], count: int
) -> List[List[np.random.Generator]]:
    """``[spawn_substreams(s, count) for s in seeds]``, hashed in one call.

    The batched simulation packer derives ``count`` sub-streams per run;
    here the seed words of every child of every hashable seed come from
    one C call, and the other seeds (see :func:`spawn_substreams`) spawn
    individually.  Streams are bit-identical to per-seed
    :func:`spawn_substreams` (regression-tested).
    """
    if count < 0:
        raise SimulationError(f"spawn count must be >= 0, got {count}")
    native = get_native_scan()
    out: List[List[np.random.Generator]] = [[] for _ in seeds]
    hashed: List[int] = []
    parents: List[List[int]] = []
    for idx, seed in enumerate(seeds):
        words = None if native is None else _parent_words(seed)
        if words is None:
            out[idx] = spawn(make_rng(seed), count)
        else:
            hashed.append(idx)
            parents.append(words)
    if native is not None and parents:
        gens = _generators(native.seed_children(parents, count))
        for j, idx in enumerate(hashed):
            out[idx] = gens[j * count:(j + 1) * count]
    return out


class _PrecomputedSeedWords(ISeedSequence):  # type: ignore[misc]
    """Minimal seed-sequence protocol object with precomputed words.

    Handing this to ``PCG64`` makes the bit generator seed itself (in C)
    from words already hashed — the resulting stream is byte-identical
    to seeding from the real ``SeedSequence``.  The object satisfies
    only the ``generate_state`` protocol; it cannot be spawned from.
    Subclassing the ABC (rather than registering) keeps
    ``BitGenerator.__init__``'s ``isinstance`` check on the cheap
    real-inheritance path.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(
        self, n_words: int, dtype: object = np.uint32
    ) -> np.ndarray:
        return self._words


def _generators(rows: np.ndarray) -> List[np.random.Generator]:
    """One generator per row of ``generate_state(4, np.uint64)`` words."""
    generator = np.random.Generator
    pcg64 = np.random.PCG64
    precomputed = _PrecomputedSeedWords
    return [generator(pcg64(precomputed(row))) for row in rows]


def _entropy_words(value: object, words: List[int]) -> bool:
    """Append ``value``'s uint32 words, coerced the way SeedSequence does.

    Integers become little-endian 32-bit words (``0`` is one word);
    lists and tuples concatenate their elements' words.  Returns False
    for anything else and for negative integers, which the C hash does
    not take (numpy rejects them; the caller's fallback re-raises that).
    """
    for item in value if isinstance(value, (list, tuple)) else (value,):
        if isinstance(item, (list, tuple)):
            if not _entropy_words(item, words):
                return False
            continue
        if not isinstance(item, (int, np.integer)) or item < 0:
            return False
        rest = int(item)
        words.append(rest & _MASK32)
        rest >>= 32
        while rest:
            words.append(rest & _MASK32)
            rest >>= 32
    return True


def _parent_words(seed: SeedLike) -> Optional[List[int]]:
    """A parent's assembled entropy words for the C hash, or None.

    Mirrors ``SeedSequence.get_assembled_entropy`` for a parent whose
    children carry a spawn key: the entropy words zero-padded to the
    pool size, then the spawn-key words.
    """
    if isinstance(seed, np.random.SeedSequence):
        if seed.pool_size != _POOL_SIZE:
            return None
        entropy, spawn_key = seed.entropy, seed.spawn_key
    elif seed is None or isinstance(seed, np.random.Generator):
        return None
    else:
        entropy, spawn_key = seed, ()
    words: List[int] = []
    if not _entropy_words(entropy, words):
        return None
    words.extend([0] * (_POOL_SIZE - len(words)))
    if not _entropy_words(spawn_key, words):
        return None
    return words
