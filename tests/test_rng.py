"""Replicate substreams: range checks and re-keying one generator in place."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fda2s.rng import rekeyed, substream

SEEDS = [0, 1, 2**40 + 3, 2**64 - 1]


def draw(rng, kind, size):
    if kind == "permutation":
        return rng.permutation(size)
    if kind == "standard_normal":
        return rng.standard_normal(size)
    if kind == "random":
        return rng.random(size)
    return rng.integers(0, 2**31 + size, size=size)  # 32-bit draws, half words


DRAWS = st.lists(
    st.tuples(
        st.integers(0, 2**63),
        st.sampled_from(["permutation", "standard_normal", "random", "integers"]),
        st.integers(1, 40),
    ),
    min_size=1, max_size=8,
)


class TestRekeyed:
    @settings(max_examples=80)
    @given(st.sampled_from(SEEDS), st.integers(0, 2**63), DRAWS)
    def test_draws_equal_a_fresh_substream(self, seed, start, replicates):
        # each replicate's draws leave the buffer and the 32-bit half in
        # whatever state they happen to; the next re-key must clear it
        indices = [r for r, _, _ in replicates]
        for g, (r, kind, size) in zip(rekeyed(substream(seed, start), indices), replicates):
            got = draw(g, kind, size)
            want = draw(substream(seed, r), kind, size)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_half_used_word_and_partial_buffer_are_cleared(self, seed):
        rng = substream(seed, 0)
        rekeys = rekeyed(rng, [5, 6, 2**63])
        g = next(rekeys)
        g.integers(0, 10)  # one 32-bit half of a 64-bit word, three words left
        state = g.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        for r in (6, 2**63):
            g = next(rekeys)
            assert repr(g.bit_generator.state) == repr(substream(seed, r).bit_generator.state)
            assert g.integers(0, 10, size=5).tobytes() == (
                substream(seed, r).integers(0, 10, size=5).tobytes())
            g.standard_normal(3)

    def test_interleaved_iterators_keep_their_own_streams(self):
        # each re-key of one generator must leave the other's state alone
        a = rekeyed(substream(2, 0), [3, 7, 2**63])
        b = rekeyed(substream(2**40 + 3, 0), [3, 8, 1])
        for ra, rb in ((3, 3), (7, 8), (2**63, 1)):
            ga = next(a)
            first = ga.standard_normal(3)
            gb = next(b)
            got_b = gb.permutation(20)
            rest = ga.standard_normal(4)
            want_a = substream(2, ra).standard_normal(7)
            assert np.concatenate([first, rest]).tobytes() == want_a.tobytes()
            assert got_b.tobytes() == substream(2**40 + 3, rb).permutation(20).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_numpy_integer_indices_give_the_streams_of_their_ints(self, seed):
        indices = np.array([0, 7, 2**62, 3], dtype=np.int64)
        for g, r in zip(rekeyed(substream(seed, 1), indices), indices):
            assert type(r) is np.int64
            want = substream(seed, int(r)).permutation(30)
            assert g.permutation(30).tobytes() == want.tobytes()

    def test_yields_the_same_generator(self):
        rng = substream(3, 0)
        assert all(g is rng for g in rekeyed(rng, range(4)))

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_index_outside_64_bits_rejected(self, index):
        with pytest.raises(ValueError, match="at least 0" if index < 0 else "2\\*\\*64"):
            list(rekeyed(substream(3, 0), [1, index]))

    def test_index_that_is_not_an_integer_rejected(self):
        with pytest.raises(ValueError, match="^replicate index must be an integer, got 2.5$"):
            list(rekeyed(substream(3, 0), [1, 2.5]))


class TestSubstream:
    @pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64),
                                            (2**64 + 5, 3)])
    def test_key_outside_64_bits_rejected(self, seed, index):
        name, value = ("seed", seed) if not 0 <= seed < 2**64 else ("replicate index", index)
        bound = "be at least 0" if value < 0 else "lie in \\[0, 2\\*\\*64\\)"
        with pytest.raises(ValueError, match=f"^{name} must {bound}, got {value}$"):
            substream(seed, index)

    @pytest.mark.parametrize("seed,index", [(1.5, 0), (1.0, 0), (np.float64(3.0), 2),
                                            (3, 0.5), ("3", 0)])
    def test_key_that_is_not_an_integer_rejected(self, seed, index):
        # 1.5 would otherwise be truncated to seed 1 and draw seed 1's stream
        name, value = ("seed", seed) if type(seed) is not int else ("replicate index", index)
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} must be an integer, got {value!r}")):
            substream(seed, index)

    def test_numpy_integer_key_accepted(self):
        assert substream(np.int64(7), np.uint64(2)).random() == substream(7, 2).random()

    def test_largest_key_accepted(self):
        key = substream(2**64 - 1, 2**64 - 1).bit_generator.state["state"]["key"]
        assert key.tolist() == [2**64 - 1, 2**64 - 1]
