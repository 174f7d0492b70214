import random

import numpy as np
import pytest

from perfcode._bits import pack_words, packed_rank, span_dim


def _random_words(length: int, rng: random.Random) -> list[int]:
    """Random words, or the span of a few random words, so that the rank
    falls short of both the count and the length; a duplicate now and then."""
    if length and rng.random() < 0.5:
        words = [0]
        for _ in range(rng.randrange(1, 6)):
            row = rng.getrandbits(length)
            words += [w ^ row for w in words]
        rng.shuffle(words)
    else:
        words = [rng.getrandbits(length) for _ in range(rng.randrange(40))]
    if words and rng.random() < 0.3:
        words.append(rng.choice(words))
    return words


class TestPackWords:
    @pytest.mark.parametrize("length", [0, 1, 16, 63, 64, 65, 128, 130])
    def test_limbs_hold_the_bits(self, length):
        rng = random.Random(length)
        words = [rng.getrandbits(length) for _ in range(30)] + [(1 << length) - 1]
        packed = pack_words(words, length)
        assert packed.dtype == np.uint64
        assert packed.shape == (len(words), (length + 63) // 64)
        for w, row in zip(words, packed.tolist()):
            assert sum(limb << (64 * i) for i, limb in enumerate(row)) == w

    def test_empty_input(self):
        assert pack_words((), 70).shape == (0, 2)

    def test_word_too_long(self):
        with pytest.raises(OverflowError):
            pack_words([1 << 64], 64)


class TestPackedRank:
    """The packed elimination against the one-word-at-a-time `span_dim`."""

    @pytest.mark.parametrize("length", [0, 1, 16, 32, 63, 64, 65, 130])
    def test_random_word_sets(self, length):
        rng = random.Random(2000 + length)
        for _ in range(40):
            words = _random_words(length, rng)
            packed = pack_words(words, length)
            before = packed.copy()
            assert packed_rank(packed) == span_dim(words)
            assert np.array_equal(packed, before)  # the caller's array is kept

    def test_top_bit_of_every_limb(self):
        words = [1 << 63, 1 << 64, 1 << 127, 1 << 129, (1 << 63) | (1 << 129)]
        assert packed_rank(pack_words(words, 130)) == span_dim(words) == 4

    @pytest.mark.parametrize("length", [0, 5, 64, 130])
    def test_empty_and_all_zero(self, length):
        assert packed_rank(pack_words([], length)) == 0
        assert packed_rank(pack_words([0] * 7, length)) == 0

    def test_duplicates(self):
        words = [0b1011, 0b1011, 0b0110, 0b1101, 0b0110]
        assert packed_rank(pack_words(words, 4)) == span_dim(words) == 2

    def test_full_rank_and_dependent_sets(self):
        rng = random.Random(7)
        for length in (16, 65, 130):
            unit = [1 << i for i in range(length)]
            rng.shuffle(unit)
            assert packed_rank(pack_words(unit, length)) == length
            sums = [unit[i] ^ unit[i + 1] for i in range(length - 1)] + [unit[0] ^ unit[-1]]
            assert packed_rank(pack_words(sums, length)) == length - 1
