"""Tests for seeded RNG management."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim import (
    bulk_substreams,
    make_rng,
    spawn,
    spawn_seeds,
    spawn_substreams,
)
from repro.sim._native import get_native_scan
from repro.sim.rng import _parent_words, _PrecomputedSeedWords, bulk_spawn


class TestMakeRng:
    def test_int_seed(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_none_gives_fresh_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_seed_sequence_reuse_is_reentrant(self):
        """Regression: spawning must not mutate the caller's SeedSequence.

        ``SeedSequence.spawn`` advances the sequence's child counter, so
        without the defensive copy in ``make_rng`` a second simulation
        run with the *same* seed object would derive different
        sub-streams and silently diverge.
        """
        seed = np.random.SeedSequence(42)
        first = spawn(make_rng(seed), 2)
        second = spawn(make_rng(seed), 2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.random(8), b.random(8))
        assert seed.n_children_spawned == 0


class TestSpawn:
    def test_children_are_independent_and_reproducible(self):
        kids_a = spawn(make_rng(3), 3)
        kids_b = spawn(make_rng(3), 3)
        for a, b in zip(kids_a, kids_b):
            np.testing.assert_array_equal(a.random(4), b.random(4))
        # Different children differ from each other.
        kids = spawn(make_rng(3), 2)
        assert not np.array_equal(kids[0].random(8), kids[1].random(8))

    def test_count(self):
        assert len(spawn(make_rng(0), 5)) == 5

    def test_zero_count(self):
        assert spawn(make_rng(0), 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            spawn(make_rng(0), -1)

    def test_children_use_seed_sequence_spawn_keys(self):
        """Regression: children must be SeedSequence-spawned, not reseeded.

        The old implementation drew raw 63-bit integers from the parent
        and fed them to ``default_rng``, so a child stream could collide
        with a root stream ``make_rng(k)`` (and, by the birthday bound,
        with a sibling).  SeedSequence spawning tags every child with a
        non-empty spawn key, which makes such collisions impossible.
        """
        (child,) = spawn(make_rng(0), 1)
        seed_seq = child.bit_generator.seed_seq
        assert tuple(seed_seq.spawn_key), "child has no spawn key"

    def test_repeated_spawn_advances_parent(self):
        """Two spawn() calls on one parent yield distinct children."""
        parent = make_rng(9)
        (first,) = spawn(parent, 1)
        (second,) = spawn(parent, 1)
        assert not np.array_equal(first.random(8), second.random(8))

    def test_spawn_matches_seed_sequence_reference(self):
        """Children equal the documented SeedSequence derivation."""
        child = spawn(make_rng(123), 2)[1]
        reference = np.random.default_rng(
            np.random.SeedSequence(123).spawn(2)[1]
        )
        np.testing.assert_array_equal(child.random(16), reference.random(16))


class TestBulkSpawn:
    def test_matches_stock_spawn(self):
        parent = np.random.SeedSequence(77)
        stock = np.random.SeedSequence(77).spawn(4)
        bulk = bulk_spawn(parent, 4)
        for a, b in zip(stock, bulk):
            assert a.entropy == b.entropy
            assert a.spawn_key == b.spawn_key
            np.testing.assert_array_equal(
                a.generate_state(4, np.uint64), b.generate_state(4, np.uint64)
            )

    def test_mutated_parent_defers_to_numpy(self):
        """A parent mid-spawn must not restart its child counter."""
        parent = np.random.SeedSequence(5)
        first = parent.spawn(2)
        more = bulk_spawn(parent, 2)
        keys = {s.spawn_key for s in first + more}
        assert len(keys) == 4

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            bulk_spawn(np.random.SeedSequence(0), -1)

    def test_spawn_seeds_uses_bulk_path(self):
        stock = np.random.SeedSequence(9).spawn(3)
        for a, b in zip(stock, spawn_seeds(9, 3)):
            assert a.spawn_key == b.spawn_key


class TestSpawnSubstreams:
    @pytest.mark.parametrize(
        "seed",
        [0, 7, 2**40 + 1, np.random.SeedSequence(3),
         np.random.SeedSequence(entropy=4, spawn_key=(2,))],
        ids=["zero", "small", "multiword", "seedseq", "spawned"],
    )
    def test_matches_make_rng_spawn(self, seed):
        lean = spawn_substreams(seed, 3)
        stock = spawn(make_rng(seed), 3)
        for a, b in zip(lean, stock):
            np.testing.assert_array_equal(a.random(16), b.random(16))

    def test_generator_input_advances_caller(self):
        gen = np.random.default_rng(1)
        ref = np.random.default_rng(1)
        a = spawn_substreams(gen, 1)[0]
        b = spawn(ref, 1)[0]
        np.testing.assert_array_equal(a.random(8), b.random(8))

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            spawn_substreams(0, -1)


class TestBulkSubstreams:
    SEEDS = [
        0,
        1,
        42,
        2**40 + 7,
        2**100 + 13,
        np.random.SeedSequence(5),
        np.random.SeedSequence(entropy=9, spawn_key=(3,)),
        np.random.SeedSequence(entropy=2**90, spawn_key=(1, 2**40)),
    ]

    @pytest.mark.parametrize("count", [0, 1, 3, 5])
    def test_bit_identical_to_per_seed(self, count):
        seeds = self.SEEDS + list(spawn_seeds(123, 3))
        bulk = bulk_substreams(seeds, count)
        for i, seed in enumerate(seeds):
            ref = spawn_substreams(seed, count)
            assert len(bulk[i]) == count
            for a, b in zip(bulk[i], ref):
                np.testing.assert_array_equal(a.random(32), b.random(32))

    def test_zero_entropy_child_padding(self):
        """Regression: entropy words are zero-padded before the spawn key.

        ``SeedSequence.get_assembled_entropy`` pads the entropy words to
        ``pool_size`` whenever a spawn key follows, so the child of seed
        ``0`` hashes ``[0, 0, 0, 0, <child>]`` — dropping the padding
        derives a *valid-looking but wrong* stream, which only this
        word-level comparison catches.
        """
        (bulk,) = bulk_substreams([0], 1)[0]
        ref = np.random.default_rng(
            np.random.SeedSequence(entropy=0, spawn_key=(0,))
        )
        np.testing.assert_array_equal(bulk.random(32), ref.random(32))

    def test_fallback_seeds(self):
        """Generators and None cannot be vectorized but still spawn."""
        gen = np.random.default_rng(1)
        ref = np.random.default_rng(1)
        out = bulk_substreams([gen, None], 2)
        want = spawn(ref, 2)
        assert len(out[0]) == 2 and len(out[1]) == 2
        for a, b in zip(out[0], want):
            np.testing.assert_array_equal(a.random(8), b.random(8))

    def test_nondefault_pool_size_falls_back(self):
        seed = np.random.SeedSequence(5, pool_size=8)
        (bulk,) = bulk_substreams([seed], 1)
        ref = spawn_substreams(seed, 1)
        np.testing.assert_array_equal(
            bulk[0].random(16), ref[0].random(16)
        )

    def test_mixed_word_counts_group_correctly(self):
        """Seeds of different word lengths batch in separate groups."""
        seeds = [1, 2**40 + 7, 2, 2**100 + 13]
        bulk = bulk_substreams(seeds, 2)
        for i, seed in enumerate(seeds):
            ref = spawn_substreams(seed, 2)
            for a, b in zip(bulk[i], ref):
                np.testing.assert_array_equal(a.random(8), b.random(8))

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            bulk_substreams([0], -1)

    def test_precomputed_words_stream(self):
        """PCG64 seeded from precomputed words equals the real sequence."""
        seq = np.random.SeedSequence(17)
        words = seq.generate_state(4, np.uint64)
        lean = np.random.Generator(
            np.random.PCG64(_PrecomputedSeedWords(words))
        )
        stock = np.random.Generator(np.random.PCG64(seq))
        np.testing.assert_array_equal(lean.random(32), stock.random(32))


def _c_words(seed, count):
    """The C hash's ``generate_state(4, np.uint64)`` rows for ``seed``."""
    native = get_native_scan()
    assert native is not None, "the C seed hash needs gcc/cc"
    words = _parent_words(seed)
    assert words is not None, f"{seed!r} should take the C hash"
    return native.seed_children([words], count)


def _stock_words(seed_seq, count):
    return [child.generate_state(4, np.uint64) for child in seed_seq.spawn(count)]


def _assert_same_streams(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.random(16), b.random(16))


_ENTROPY = st.integers(0, 2**130 - 1)


class TestCSeedHash:
    """``repro_seed_children`` equals numpy's SeedSequence word for word."""

    @settings(max_examples=300, deadline=None)
    @given(
        entropy=st.one_of(_ENTROPY, st.lists(_ENTROPY, max_size=4)),
        key=st.lists(st.integers(0, 2**70), max_size=3),
        count=st.integers(0, 5),
    )
    def test_words_equal_seed_sequence(self, entropy, key, count):
        got = _c_words(np.random.SeedSequence(entropy, spawn_key=key), count)
        want = _stock_words(np.random.SeedSequence(entropy, spawn_key=key), count)
        assert got.shape == (count, 4) and got.dtype == np.uint64
        for row, ref in zip(got, want):
            np.testing.assert_array_equal(row, ref)
        if not key:  # the raw entropy is the same parent
            np.testing.assert_array_equal(_c_words(entropy, count), got)

    @pytest.mark.parametrize(
        "entropy", [0, 2**32 - 1, 2**32, np.uint64(2**63)],
        ids=["zero", "one-word-max", "two-words", "uint64"],
    )
    def test_word_boundaries(self, entropy):
        got = _c_words(entropy, 3)
        for row, ref in zip(got, _stock_words(np.random.SeedSequence(entropy), 3)):
            np.testing.assert_array_equal(row, ref)
        _assert_same_streams(
            spawn_substreams(entropy, 3), spawn(make_rng(entropy), 3)
        )

    def test_already_spawned_parent(self):
        """Like make_rng's copy: a fresh parent's children, no mutation."""
        parent = np.random.SeedSequence(11)
        parent.spawn(2)
        _assert_same_streams(
            spawn_substreams(parent, 3), spawn(make_rng(parent), 3)
        )
        _assert_same_streams(
            bulk_substreams([parent], 3)[0], spawn(make_rng(parent), 3)
        )
        assert parent.n_children_spawned == 2

    def test_seeds_the_hash_does_not_take(self):
        """pool_size 8, None and Generators take numpy's own path."""
        wide = np.random.SeedSequence(5, pool_size=8)
        assert _parent_words(wide) is None
        _assert_same_streams(spawn_substreams(wide, 2), spawn(make_rng(wide), 2))
        _assert_same_streams(
            bulk_substreams([wide], 2)[0], spawn(make_rng(wide), 2)
        )
        assert _parent_words(np.random.default_rng(1)) is None
        _assert_same_streams(
            spawn_substreams(np.random.default_rng(1), 2),
            spawn(np.random.default_rng(1), 2),
        )
        assert _parent_words(None) is None
        fresh = spawn_substreams(None, 2) + bulk_substreams([None], 2)[0]
        assert all(
            isinstance(g.bit_generator.seed_seq, np.random.SeedSequence)
            for g in fresh
        )

    @pytest.mark.parametrize(
        "seed", [-1, [3, -1], 1.5, [1.5]],
        ids=["negative", "negative-element", "float", "float-element"],
    )
    def test_invalid_seeds_raise_as_before(self, seed):
        with pytest.raises((ValueError, TypeError)) as stock:
            spawn(make_rng(seed), 3)
        with pytest.raises(stock.type):
            spawn_substreams(seed, 3)
        with pytest.raises(stock.type):
            bulk_substreams([0, seed], 3)

    def test_entry_rejects_short_parents(self):
        native = get_native_scan()
        assert native is not None, "the C seed hash needs gcc/cc"
        with pytest.raises(SimulationError, match="4 words"):
            native.seed_children([[1, 2, 3]], 1)
        with pytest.raises(SimulationError, match="count"):
            native.seed_children([[1, 2, 3, 4]], -1)
