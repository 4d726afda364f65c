"""Free-word layer: reduction, canonical forms, the text codec, enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnlab.errors import InputError
from burnlab.words import (
    Alphabet,
    CyclicWord,
    Word,
    cyclic_reduce_letters,
    cyclic_split_reduced,
    cyclically_reduced_words,
    exponent_vector,
    free_ball_size,
    free_conjugate,
    inverse_letters,
    is_cyclically_reduced,
    is_reduced,
    letter_key,
    min_rotation,
    periodic_word,
    reduce_letters,
    reduced_words,
    reduced_words_up_to,
    rotations,
    shortlex_key,
    splice_reduce,
)

A1 = Alphabet(1)
A2 = Alphabet(2)

letters_m1 = st.sampled_from([1, -1, 2, -2, 3, -3])
raw_m1 = st.lists(letters_m1, max_size=12)
# random words plus periodic ones (a block repeated), whose rotations tie
any_m1 = st.one_of(
    st.lists(letters_m1, max_size=40),
    st.builds(lambda block, reps: block * reps,
              st.lists(letters_m1, min_size=1, max_size=6), st.integers(2, 6)),
)


def brute_min_rotation(t):
    """Reference: every rotation compared by its letter_key tuple."""
    t = tuple(t)
    return min(rotations(t), key=lambda r: tuple(letter_key(x) for x in r))


class TestReduction:
    @given(raw_m1)
    def test_reduce_idempotent(self, seq):
        r = reduce_letters(seq)
        assert is_reduced(r)
        assert reduce_letters(r) == r

    @given(raw_m1)
    def test_word_times_inverse_is_identity(self, seq):
        w = Word(seq)
        assert (w * ~w).is_identity()
        assert (~w * w).is_identity()

    @given(raw_m1, raw_m1)
    def test_splice_matches_concat_reduce(self, a, b):
        ra, rb = reduce_letters(a), reduce_letters(b)
        assert splice_reduce(ra, (), rb) == reduce_letters(tuple(a) + tuple(b)) \
            or splice_reduce(ra, (), rb) == reduce_letters(ra + rb)

    @given(raw_m1, raw_m1, raw_m1)
    def test_product_associative(self, a, b, c):
        wa, wb, wc = Word(a), Word(b), Word(c)
        assert (wa * wb) * wc == wa * (wb * wc)

    def test_identity_inverse_exhaustive_radius_4(self):
        one = Word(())
        for t in reduced_words_up_to(A1, 4):
            w = Word._raw(t)
            assert w * one == w == one * w
            assert w * ~w == one
            assert ~~w == w

    @given(raw_m1, st.integers(-5, 5))
    def test_power_matches_repeated_product(self, seq, n):
        w = Word(seq)
        acc = Word(())
        base = w if n >= 0 else ~w
        for _ in range(abs(n)):
            acc = acc * base
        assert w ** n == acc

    @given(raw_m1)
    def test_inverse_letters_involution(self, seq):
        r = reduce_letters(seq)
        assert inverse_letters(inverse_letters(r)) == r


class TestCyclic:
    @given(raw_m1)
    def test_cyclic_core_is_cyclically_reduced(self, seq):
        core, conj = cyclic_reduce_letters(reduce_letters(seq))
        assert is_cyclically_reduced(core)
        # w = conj * core * conj^-1 as free words
        assert splice_reduce(conj, core, inverse_letters(conj)) == reduce_letters(seq)

    @given(raw_m1)
    def test_min_rotation_is_a_rotation_and_minimal(self, seq):
        core, _ = cyclic_reduce_letters(reduce_letters(seq))
        rep = min_rotation(core)
        rots = list(rotations(core))
        assert rep in rots
        assert all(shortlex_key(rep) <= shortlex_key(r) for r in rots)

    @given(any_m1)
    @settings(max_examples=300)
    def test_min_rotation_matches_brute_force(self, seq):
        # raw sequences on purpose: min_rotation orders any tuple
        assert min_rotation(seq) == brute_min_rotation(seq)

    @given(st.lists(letters_m1, min_size=1, max_size=5), st.integers(1, 8))
    def test_min_rotation_of_a_power_is_a_power(self, block, reps):
        core, _ = cyclic_reduce_letters(reduce_letters(block))
        if core:
            assert min_rotation(core * reps) == min_rotation(core) * reps

    @given(raw_m1)
    def test_split_reduced_matches_cyclic_reduce(self, seq):
        t = reduce_letters(seq)
        core, conj = t, ()
        while len(core) >= 2 and core[0] == -core[-1]:
            core, conj = core[1:-1], conj + core[:1]
        assert cyclic_split_reduced(t) == (core, conj) == cyclic_reduce_letters(t)

    @given(raw_m1, raw_m1)
    def test_cyclic_word_ignores_conjugation(self, seq, zseq):
        w, z = Word(seq), Word(zseq)
        assert CyclicWord.from_word(w.conjugate_by(z)) == CyclicWord.from_word(w)

    def test_free_conjugate_iff_rotation_exhaustive_radius_3(self):
        words = [Word._raw(t) for t in reduced_words_up_to(A1, 3)]
        cores = {w: min_rotation(cyclic_reduce_letters(w.letters)[0]) for w in words}
        for u in words:
            for v in words:
                assert free_conjugate(u, v) == (cores[u] == cores[v])

    @given(raw_m1, raw_m1)
    def test_free_conjugate_matches_cyclic_words(self, a, b):
        u, v = Word(a), Word(b)
        assert free_conjugate(u, v) == (CyclicWord.from_word(u) == CyclicWord.from_word(v))

    def test_shifts_enumerate_rotations(self):
        cw = CyclicWord(Word.parse("a.b.s1").letters)
        shift_set = {w.letters for w in cw.shifts()}
        assert shift_set == set(rotations(cw.rep))


class TestCodec:
    @given(raw_m1)
    def test_format_parse_round_trip(self, seq):
        w = Word(seq)
        assert Word.parse(w.format()) == w

    def test_single_char_words_are_undotted(self):
        assert Word((1, 2, -1)).format() == "abA"
        assert Word((2, -2)).format() == ""

    def test_any_s_token_forces_dots(self):
        assert Word((3, 3, 3)).format() == "s1.s1.s1"
        assert Word((1, 3)).format() == "a.s1"
        assert Word((-3,)).format() == "S1"

    def test_parse_reduces(self):
        assert Word.parse("aA") == Word(())
        assert Word.parse("a.s1.S1.b") == Word.parse("ab")

    def test_bad_tokens_rejected(self):
        for text in ("q", "s0", "sx", "a b", "s1.", ".a"):
            with pytest.raises(InputError):
                Word.parse(text)

    def test_letter_order_is_a_A_b_B_s1_S1(self):
        assert sorted([3, -1, 2, 1, -3, -2], key=letter_key) == [1, -1, 2, -2, 3, -3]

    @given(raw_m1, raw_m1)
    def test_shortlex_orders_by_length_first(self, a, b):
        u, v = Word(a), Word(b)
        if len(u) < len(v):
            assert shortlex_key(u.letters) < shortlex_key(v.letters)


class TestAlphabet:
    def test_size_and_letters(self):
        assert A1.size == 3
        assert A2.size == 4
        assert A1.letters() == [1, -1, 2, -2, 3, -3]
        assert A2.ab_letters() == [1, -1, 2, -2]

    def test_contains(self):
        assert A1.contains(3) and A1.contains(-3)
        assert not A1.contains(4)
        assert A2.contains(4)

    def test_validate_rejects_foreign_letters(self):
        w = Word((4,))
        with pytest.raises(InputError):
            A1.validate_word(w)
        assert A2.validate_word(w) == w

    def test_alphabet_parse_respects_m(self):
        assert A2.parse("s2") == Word((4,))
        with pytest.raises(InputError):
            A1.parse("s2")

    def test_zero_s_generators_allowed(self):
        a0 = Alphabet(0)
        assert a0.size == 2
        assert a0.letters() == [1, -1, 2, -2]
        with pytest.raises(InputError):
            Alphabet(-1)


class TestEnumeration:
    def test_ball_counts_match_closed_form(self):
        for alphabet, radius in ((A1, 4), (A2, 3)):
            count = sum(1 for _ in reduced_words_up_to(alphabet, radius))
            assert count == free_ball_size(alphabet.size, radius)

    def test_closed_form_small_values(self):
        assert [free_ball_size(3, n) for n in range(5)] == [1, 7, 37, 187, 937]
        assert [free_ball_size(4, n) for n in range(4)] == [1, 9, 65, 457]
        assert [free_ball_size(2, n) for n in range(5)] == [1, 5, 17, 53, 161]
        assert free_ball_size(3, 6) == 23437

    def test_enumeration_is_shortlex_sorted_and_reduced(self):
        seen = list(reduced_words_up_to(A1, 3))
        assert all(is_reduced(t) for t in seen)
        assert seen == sorted(seen, key=shortlex_key)
        assert len(seen) == len(set(seen))

    def test_letter_restriction(self):
        ab_only = list(reduced_words_up_to(A1, 3, letters=[1, -1, 2, -2]))
        assert len(ab_only) == free_ball_size(2, 3)
        assert all(abs(l) <= 2 for t in ab_only for l in t)

    def test_cyclically_reduced_words_match_filter(self):
        for n in range(4):
            brute = sorted(t for t in reduced_words(A1, n) if is_cyclically_reduced(t))
            assert sorted(cyclically_reduced_words(A1, n)) == brute

    def test_periodic_word(self):
        assert periodic_word(Word.parse("ab"), 5) == Word.parse("ababa")
        assert periodic_word(Word.parse("s1"), 3) == Word.parse("s1.s1.s1")

    def test_exponent_vector_counts_signed_letters(self):
        t = Word.parse("a.b.A.s1.s1").letters
        assert exponent_vector(t, 3) == (0, 1, 2)
        assert exponent_vector((), 3) == (0, 0, 0)
