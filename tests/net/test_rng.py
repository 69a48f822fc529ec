"""Tests for repro.net.rng — determinism is the simulator's foundation."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.pathmodel import PingDrawStreams
from repro.net.rng import (
    SeedSequenceTree,
    derive_seed,
    generators,
    seed_words,
    stream,
    stream_blocks,
)

#: Seeds at the edges of the one- and two-word entropy numpy assembles.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_labels_matter(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_root_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_no_concatenation_ambiguity(self):
        # ("ab",) must differ from ("a", "b").
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    @given(st.integers(0, 2**31), st.text(max_size=20))
    @settings(max_examples=100)
    def test_result_is_64_bit(self, root, label):
        value = derive_seed(root, label)
        assert 0 <= value < 2**64


class TestStream:
    def test_same_labels_same_sequence(self):
        a = stream(7, "ping", 1).random(5)
        b = stream(7, "ping", 1).random(5)
        assert list(a) == list(b)

    def test_different_labels_diverge(self):
        a = stream(7, "ping", 1).random(5)
        b = stream(7, "ping", 2).random(5)
        assert list(a) != list(b)


class TestSeedSequenceTree:
    def test_stream_shortcut(self):
        tree = SeedSequenceTree(9)
        assert list(tree.stream("x").random(3)) == list(stream(9, "x").random(3))

    def test_uniform_in_range(self):
        tree = SeedSequenceTree(5)
        value = tree.uniform(2.0, 3.0, "probe", 1)
        assert 2.0 <= value <= 3.0

    def test_uniform_deterministic(self):
        tree = SeedSequenceTree(5)
        assert tree.uniform(0, 1, "a") == tree.uniform(0, 1, "a")

    def test_child_seed_matches_derive(self):
        tree = SeedSequenceTree(11)
        assert tree.child_seed("k", 3) == derive_seed(11, "k", 3)


class TestWindowSeeding:
    """The vectorized seeding reproduces numpy's SeedSequence bit for bit."""

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    @example(EDGE_SEEDS[0])
    @example(EDGE_SEEDS[1])
    @example(EDGE_SEEDS[2])
    @example(EDGE_SEEDS[3])
    @example(EDGE_SEEDS[4])
    def test_words_and_draws_match_seed_sequence(self, seed):
        words = seed_words(np.asarray([seed], dtype=np.uint64))
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert words.shape == (1, 4)
        assert words.dtype == np.uint64
        assert np.array_equal(words[0], expected)
        # Each draw family, as PingDrawStreams uses it, equals default_rng's.
        (built,) = generators(np.asarray([seed], dtype=np.uint64))
        reference = np.random.default_rng(seed)
        assert np.array_equal(built.random((3, 10)), reference.random((3, 10)))
        assert np.array_equal(
            built.standard_gamma(0.7, (3, 3)), reference.standard_gamma(0.7, (3, 3))
        )
        assert np.array_equal(
            built.standard_exponential((3, 9)), reference.standard_exponential((3, 9))
        )

    def test_many_seeds_at_once(self):
        seeds = np.concatenate(
            [
                np.asarray(EDGE_SEEDS, dtype=np.uint64),
                np.random.default_rng(3).integers(
                    0, 2**64 - 1, 2000, dtype=np.uint64, endpoint=True
                ),
            ]
        )
        expected = np.stack(
            [np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds]
        )
        assert np.array_equal(seed_words(seeds), expected)

    def test_empty(self):
        assert seed_words(np.asarray([], dtype=np.uint64)).shape == (0, 4)
        assert stream_blocks(7, [], 3) == []

    @pytest.mark.parametrize("labels", [("results", 100001, 5), ("ping", 3, "aws:x#v6")])
    def test_stream_blocks_seed_from_one_label_digest(self, labels):
        (block,) = stream_blocks(11, [labels], 3)
        digest = hashlib.blake2b(
            "/".join(map(str, (11, *labels))).encode(), digest_size=24
        ).digest()
        seeds = [int.from_bytes(digest[i : i + 8], "big") for i in (0, 8, 16)]
        for built, seed in zip(block, seeds):
            assert np.array_equal(
                built.random(8), np.random.default_rng(seed).random(8)
            )

    def test_window_equals_one_flow_at_a_time(self):
        """PingDrawStreams(root, *labels) is the one-flow case of window()."""
        paths = [("results", 100001, probe) for probe in (3, 1, 4, 1, 5)]
        window = PingDrawStreams.window(7, paths)
        assert len(window) == len(paths)
        for draws, path in zip(window, paths):
            alone = PingDrawStreams(7, *path)
            for family in ("_uniform", "_gamma", "_exponential"):
                assert np.array_equal(
                    getattr(draws, family).random(6), getattr(alone, family).random(6)
                )
