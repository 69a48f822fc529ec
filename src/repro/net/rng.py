"""Deterministic, label-derived random number streams.

Every stochastic component of the simulator draws from a stream derived
from ``(root seed, *labels)``.  Two properties follow:

* **Reproducibility** — the same seed regenerates the identical dataset,
  which the calibration tests and benchmark harnesses rely on;
* **Independence** — adding samples for one probe never shifts the stream
  of another, so experiments can be extended without perturbing results.

Batch synthesis builds three streams per flow, thousands per measurement
window, so :func:`stream_blocks` seeds a whole window's streams in one
pass: one blake2b hash per label path, numpy's ``SeedSequence`` state
words for every seed at once (:func:`seed_words`), and each ``PCG64``
built from its precomputed words.  Every stream it returns draws exactly
what ``np.random.default_rng(seed)`` draws.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

Label = Union[str, int]


def _label_digest(root: int, labels: Sequence[Label], size: int) -> bytes:
    """The ``size``-byte blake2b digest of ``(root, *labels)``."""
    hasher = hashlib.blake2b(digest_size=size)
    hasher.update(str(int(root)).encode("ascii"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return hasher.digest()


def derive_seed(root: int, *labels: Label) -> int:
    """Derive a 64-bit child seed from a root seed and a label path."""
    return int.from_bytes(_label_digest(root, labels, 8), "big")


def stream(root: int, *labels: Label) -> np.random.Generator:
    """A numpy Generator seeded from ``(root, *labels)``."""
    return np.random.default_rng(derive_seed(root, *labels))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, hashed with multipliers that evolve the same way whatever
# the data, so each step's constants are fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4


def _hash_steps(init: int, mult: int, steps: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per hash step, the constant it xors in and the one it multiplies
    by (the next in the sequence), each as a ``(steps, 1)`` column."""
    constants = [init]
    for _ in range(steps):
        constants.append((constants[-1] * mult) & 0xFFFFFFFF)
    column = np.asarray(constants, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


#: ``mix_entropy`` hashes the four entropy words, then, for each source
#: word, the source once per other word; ``generate_state`` hashes 8
#: words for four uint64.
_ENTROPY_STEPS = _hash_steps(_INIT_A, _MULT_A, _POOL * _POOL)
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL)
_OTHERS = [
    np.asarray([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)
]
_STATE_WORDS = np.tile(np.arange(_POOL), 2)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def seed_words(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    seed ``s`` of a uint64 array, as the rows of an ``(n, 4)`` array.

    The four words are what ``PCG64`` seeds its state and increment
    from.  numpy computes them per seed in Python-level loops; here each
    step runs once over all seeds in numpy ``uint32`` arithmetic, which
    wraps exactly as the reference does.  A 64-bit seed is at most two
    entropy words, and the reference pads a short entropy with zero
    words, so ``[low, high, 0, 0]`` reproduces it for every seed, ``0``
    and ``2**32 - 1`` included.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    xor, mult = _ENTROPY_STEPS
    pool = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, xor[:_POOL], mult[:_POOL])
    for src, others in enumerate(_OTHERS):
        step = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        hashed = _hashmix(pool[src], xor[step], mult[step])
        mixed = _MIX_MULT_L * pool[others] - _MIX_MULT_R * hashed
        pool[others] = mixed ^ (mixed >> _XSHIFT)
    xor, mult = _STATE_STEPS
    state = _hashmix(pool[_STATE_WORDS], xor, mult)
    # Word pairs read little-endian, as the reference's uint64 view does.
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose state words are already computed.

    ``PCG64`` asks its seed sequence for four uint64 words and nothing
    else, so handing it :func:`seed_words`' row skips building a
    ``SeedSequence`` per stream.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(seeds) -> List[np.random.Generator]:
    """One Generator per 64-bit seed, each drawing exactly what
    ``np.random.default_rng(seed)`` draws."""
    return [
        np.random.Generator(np.random.PCG64(_SeedWords(words)))
        for words in seed_words(seeds)
    ]


def stream_blocks(
    root: int, label_paths: Sequence[Sequence[Label]], count: int
) -> List[Tuple[np.random.Generator, ...]]:
    """``count`` Generators for each label path, all seeded in one pass.

    One blake2b hash of ``(root, *path)`` with an ``8 * count``-byte
    digest gives the path's ``count`` seeds, read as big-endian uint64s,
    and stream ``j`` draws exactly what ``np.random.default_rng`` of seed
    ``j`` draws.  A measurement window's flows are seeded with one call.
    """
    digests = b"".join(
        _label_digest(root, labels, 8 * count) for labels in label_paths
    )
    streams = generators(np.frombuffer(digests, dtype=">u8"))
    return [tuple(streams[i : i + count]) for i in range(0, len(streams), count)]


class SeedSequenceTree:
    """Convenience wrapper: a root seed that hands out child streams.

    Example::

        tree = SeedSequenceTree(42)
        probe_rng = tree.stream("probe", probe_id)
        sample_rng = tree.stream("sample", probe_id, timestamp)
    """

    def __init__(self, root: int):
        self.root = int(root)

    def child_seed(self, *labels: Label) -> int:
        return derive_seed(self.root, *labels)

    def stream(self, *labels: Label) -> np.random.Generator:
        return stream(self.root, *labels)

    def uniform(self, low: float, high: float, *labels: Label) -> float:
        """One deterministic uniform draw identified by its label path."""
        return float(self.stream(*labels).uniform(low, high))

    def __repr__(self) -> str:
        return f"SeedSequenceTree(root={self.root})"
