"""Law parsing and evaluation, step distributions, sampled and exhaustive
law-probability estimates, torsion classification, and the quotient walk."""

import copy
import math
import pickle
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnlab.cayley import enumerate_ball
from burnlab.errors import InputError, StateError
from burnlab.oracle import (
    OracleBudget,
    RankOracle,
    Relator,
    RelatorSystem,
    verify_equality_witness,
    verify_into_ab_witness,
)
from burnlab import probability
from burnlab.probability import (
    MAX_LAW_NESTING,
    _CHUNK_STEPS,
    GroupLaw,
    StepDistribution,
    _estimate,
    _tally,
    _walks,
    law_probability,
    law_probability_sweep,
    quotient_return_probability,
    quotient_system,
    random_walk_sample,
    sample_uniform_ball,
    torsion_dichotomy_test,
)
from burnlab.words import (
    Alphabet,
    Word,
    decode_letters,
    encode_letters,
    inverse_letters,
    power_letters,
    reduced_words_up_to,
    splice_reduce,
)

TINY = OracleBudget(max_ball_radius=0, max_relator_applications=1)
ALL_STEPS = StepDistribution.lazy_uniform(
    [Word((l,)) for l in (1, -1, 2, -2, 3, -3)])
# the largest value random.random() returns
TOP = 1 - 2 ** -53


# test-only references: the sampler and the tally as they were before draws
# used precomputed thresholds and tallies queried each distinct word once

def reference_draw(nu, rng):
    u = rng.random()
    acc = 0.0
    for w, p in nu.support:
        acc += float(p)
        if u < acc:
            return w
    return nu.support[-1][0]


def reference_walk(nu, steps, rng):
    out = ()
    for _ in range(steps):
        out = splice_reduce(out, reference_draw(nu, rng).letters, ())
    return Word._raw(out)


def reference_tally(oracle, words, budget):
    """One query per word, repeats included."""
    holds = fails = unknown = 0
    for w in words:
        v = oracle.equal(w, Word(()), budget)
        if v.is_yes:
            holds += 1
        elif v.is_no:
            fails += 1
        else:
            unknown += 1
    return holds, fails, unknown


def reference_law_probability(presentation, law, rank, mode, n, trials=0,
                              seed=None, budget=None, nu=None):
    """law_probability sampling as before, one query per trial on a fresh
    oracle."""
    oracle = RankOracle(presentation.relator_system(rank))
    if mode == "exhaustive":
        ball = enumerate_ball(presentation, rank, n, budget)
        words = [law.evaluate([Word._raw(t) for t in combo])
                 for combo in product(ball.elements, repeat=law.arity)]
    else:
        rng, cache, assignments = random.Random(seed), {}, []
        for _ in range(trials):
            if mode == "ball":
                vals = [sample_uniform_ball(presentation, rank, n, rng, budget,
                                            _cache=cache)
                        for _ in range(law.arity)]
            else:
                vals = [reference_walk(nu, n, rng) for _ in range(law.arity)]
            assignments.append(vals)
        words = [law.evaluate(vals) for vals in assignments]
    return _estimate(law.text, mode, n, *reference_tally(oracle, words, budget),
                     exact=mode == "exhaustive")


def reference_quotient_return(presentation, rank, steps, trials, seed, nu):
    oracle = RankOracle(quotient_system(presentation, rank))
    rng = random.Random(seed)
    words = [reference_walk(nu, steps, rng) for _ in range(trials)]
    return _estimate("x = 1 (quotient walk)", "walk", steps,
                     *reference_tally(oracle, words, None))


class EdgeRandom(random.Random):
    """A Random whose draws land exactly on one of `edges` with probability
    `share`; the state still advances by one underlying draw per call."""

    def __init__(self, seed, edges, share=0.5):
        self.edges, self.share = edges, share
        super().__init__(seed)

    def random(self):
        u = super().random()
        if u < self.share:
            return self.edges[int(u / self.share * len(self.edges))]
        return u


STEP_WORDS = list(reduced_words_up_to(Alphabet(1), 2))


@st.composite
def step_distributions(draw):
    """Supports of 1-6 distinct reduced words with probabilities parts/d;
    d = 7 or 49 often leaves the float sum of the parts below 1."""
    d = draw(st.sampled_from([3, 6, 7, 10, 49]))
    n = draw(st.integers(1, min(d, 6)))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=n - 1,
                               max_size=n - 1)))
    bounds = [0] + cuts + [d]
    words = draw(st.lists(st.sampled_from(STEP_WORDS), min_size=n, max_size=n,
                          unique=True))
    return StepDistribution([(Word._raw(w), Fraction(hi - lo, d))
                             for w, lo, hi in zip(words, bounds, bounds[1:])])


SEVENTHS = StepDistribution([(Word._raw(w), Fraction(1, 7))
                             for w in STEP_WORDS[:7]])
LAZY_S1 = StepDistribution.lazy_uniform([Word((3,)), Word((-3,))])


class TestGroupLaw:
    def test_parse_forms(self):
        assert GroupLaw.parse("x1^3").letters == (1, 1, 1)
        assert GroupLaw.parse("[x1,x2]").letters == (-1, -2, 1, 2)
        assert GroupLaw.parse("[x1, x2]").letters == (-1, -2, 1, 2)
        assert GroupLaw.parse("x1x2^2").letters == (1, 2, 2)
        assert GroupLaw.parse("x1 X2 x1").letters == (1, -2, 1)
        assert GroupLaw.parse("(x1 x2)^2").letters == (1, 2, 1, 2)
        assert GroupLaw.parse("x1^-2").letters == (-1, -1)

    def test_constructors(self):
        assert GroupLaw.power(3).letters == (1, 1, 1)
        assert GroupLaw.power(-2).letters == (-1, -1)
        assert GroupLaw.commutator().letters == GroupLaw.parse("[x1,x2]").letters
        assert GroupLaw.power(3).arity == 1
        assert GroupLaw.commutator().arity == 2

    def test_trivial_laws_rejected(self):
        for bad in ("x1 X1", "", "x1 x2 X2 X1"):
            with pytest.raises(InputError, match="trivial"):
                GroupLaw.parse(bad)
        with pytest.raises(InputError, match="trivial"):
            GroupLaw.power(0)

    def test_bad_syntax_rejected(self):
        with pytest.raises(InputError, match="x1..x2"):
            GroupLaw.parse("x3")
        with pytest.raises(InputError, match="index"):
            GroupLaw.parse("x")
        with pytest.raises(InputError):
            GroupLaw.parse("x1)")

    def test_large_exponents_parse_in_linear_time(self):
        # the repeated-product parser took seconds at these sizes
        assert GroupLaw.parse("x1^8000").letters == (1,) * 8000
        assert GroupLaw.parse("x1 " * 8000).letters == (1,) * 8000
        law = GroupLaw.parse("(x2 x1 X2)^-9000")
        assert law.letters == (2,) + (-1,) * 9000 + (-2,)
        assert GroupLaw.parse("(x1 x2)^2 (X2 X1)^2 x1").letters == (1,)
        assert (Word.parse("b.s1.s1.B") ** -4000).letters == \
            (2,) + (-3,) * 8000 + (-2,)

    def test_exponent_and_length_capped(self):
        for bad in ("x1^10001", "x1^-10001", "x1^" + "9" * 5000,
                    "(x1 x2)^5001", "(x1^10000)^10000"):
            with pytest.raises(InputError):
                GroupLaw.parse(bad)

    def test_text_preserved(self):
        assert GroupLaw.parse("x1^3").text == "x1^3"
        assert GroupLaw((1, 1)).text == "x1 x1"

    def test_evaluate(self):
        a, b, s1 = Word((1,)), Word((2,)), Word((3,))
        assert GroupLaw.commutator().evaluate([a, b]).letters == (-1, -2, 1, 2)
        assert GroupLaw.commutator().evaluate([a, a]).letters == ()
        assert GroupLaw.power(3).evaluate([s1]).letters == (3, 3, 3)
        with pytest.raises(InputError, match="needs 2"):
            GroupLaw.commutator().evaluate([a])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            GroupLaw.power(2).letters = ()

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_laws_compare_by_letters(self, clone):
        law = GroupLaw.parse("x1^3")
        assert law == GroupLaw.power(3) == GroupLaw((1, 1, 1)) == clone(law)
        assert hash(law) == hash(GroupLaw.power(3)) == hash(clone(law))
        assert len({law, GroupLaw.power(3), clone(law), GroupLaw.commutator()}) == 2
        assert law != GroupLaw.power(-3) and law != GroupLaw.power(5)
        assert law != Word((1, 1, 1))

    def test_nesting_capped(self):
        deep = "(" * MAX_LAW_NESTING + "x1" + ")" * MAX_LAW_NESTING
        assert GroupLaw.parse(deep).letters == (1,)
        for depth in (MAX_LAW_NESTING + 1, 1000, 5000):
            with pytest.raises(InputError, match="nests deeper than %d" % MAX_LAW_NESTING):
                GroupLaw.parse("(" * depth + "x1" + ")" * depth)
        with pytest.raises(InputError, match="nests deeper"):
            GroupLaw.parse("[x1," * 1000 + "x2" + "]" * 1000)

    def test_huge_variable_index_rejected(self):
        # int() refuses more than 4,300 digits with a ValueError
        with pytest.raises(InputError, match="x1..x2"):
            GroupLaw.parse("x" + "1" * 5000)

    @given(st.one_of(
        st.text(alphabet="xX0123456789^+-()[], *", max_size=80),
        st.lists(st.sampled_from(["x1", "X1", "x2", "X2", "x3", "(", ")", "[",
                                  "]", ",", "^2", "^-3", "^0", "^", " ", "*"]),
                 max_size=40).map("".join)))
    @example("(" * 5000 + "x1" + ")" * 5000)
    @example("[" * 5000 + "x1")
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_text_parses_or_is_refused(self, text):
        try:
            law = GroupLaw.parse(text)
        except InputError:
            return
        assert law.letters and all(1 <= abs(l) <= GroupLaw.MAX_VARS
                                   for l in law.letters)


class TestStepDistribution:
    def test_probabilities_validated(self):
        a, b = Word((1,)), Word((2,))
        with pytest.raises(InputError, match="sum"):
            StepDistribution([(a, Fraction(1, 2))])
        with pytest.raises(InputError, match="duplicate"):
            StepDistribution([(a, Fraction(1, 2)), (a, Fraction(1, 2))])
        with pytest.raises(InputError, match="> 0"):
            StepDistribution([(a, Fraction(0)), (b, Fraction(1))])
        with pytest.raises(InputError, match="^empty support$"):
            StepDistribution([])

    def test_lazy_uniform_includes_identity(self):
        nu = StepDistribution.lazy_uniform([Word((3,)), Word((-3,))])
        words = {w.letters for w, _ in nu.support}
        assert words == {(), (3,), (-3,)}
        assert all(p == Fraction(1, 3) for _, p in nu.support)
        assert not nu.maybe_degenerate

    def test_one_sided_support_flagged(self):
        nu = StepDistribution([(Word((1,)), Fraction(1))])
        assert nu.maybe_degenerate

    def test_draws_deterministic_and_in_support(self):
        nu = ALL_STEPS
        words = {w.letters for w, _ in nu.support}
        rng_a, rng_b = random.Random(9), random.Random(9)
        draws_a = [nu.draw(rng_a).letters for _ in range(30)]
        draws_b = [nu.draw(rng_b).letters for _ in range(30)]
        assert draws_a == draws_b
        assert set(draws_a) <= words

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ALL_STEPS.support = ()

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_distributions_compare_by_support(self, clone):
        steps = [Word((3,)), Word((-3,))]
        nu = StepDistribution.lazy_uniform(steps)
        third = Fraction(1, 3)
        same = StepDistribution([(Word((-3,)), third), ((), third), ((3,), third)])
        assert nu == StepDistribution.lazy_uniform(steps) == same == clone(nu)
        assert hash(nu) == hash(same) == hash(clone(nu))
        assert len({nu, same, clone(nu), ALL_STEPS}) == 2
        assert nu != StepDistribution.lazy_uniform([Word((3,))])
        assert nu != StepDistribution([(Word(()), Fraction(1, 2)), (Word((3,)), Fraction(1, 4)),
                                       (Word((-3,)), Fraction(1, 4))])
        assert nu != nu.support

    def test_float_sum_below_one_falls_back_to_last_word(self):
        assert SEVENTHS.thresholds[-1] < 1
        assert SEVENTHS.draw(EdgeRandom(0, [TOP], 1.0)) == SEVENTHS.support[-1][0]
        # a draw equal to a threshold takes the next word, as u < acc did
        rng = EdgeRandom(0, [SEVENTHS.thresholds[0]], 1.0)
        assert SEVENTHS.draw(rng) == SEVENTHS.support[1][0]

    @given(nu=step_distributions(), seed=st.integers(0, 2 ** 32),
           steps=st.integers(0, 12))
    @example(nu=SEVENTHS, seed=0, steps=12)
    @settings(max_examples=150, deadline=None)
    def test_draw_and_walk_match_reference(self, nu, seed, steps):
        edges = list(nu.thresholds) + [0.0, TOP]
        ours, ref = EdgeRandom(seed, edges), EdgeRandom(seed, edges)
        for _ in range(20):
            assert nu.draw(ours) is reference_draw(nu, ref)
        assert ours.getstate() == ref.getstate()
        assert random_walk_sample(nu, steps, ours) == reference_walk(nu, steps, ref)
        assert ours.getstate() == ref.getstate()


class TestSampling:
    def test_walk_of_zero_steps_is_identity(self):
        assert random_walk_sample(ALL_STEPS, 0, random.Random(1)).letters == ()
        with pytest.raises(InputError):
            random_walk_sample(ALL_STEPS, -1, random.Random(1))

    def test_point_mass_walk_is_a_power(self):
        nu = StepDistribution([(Word((3,)), Fraction(1))])
        w = random_walk_sample(nu, 5, random.Random(0))
        assert w.letters == (3,) * 5

    def test_ball_sampling_deterministic(self, free_m1, budget):
        draws_a = [sample_uniform_ball(free_m1, 0, 2, random.Random(4), budget)
                   for _ in range(20)]
        draws_b = [sample_uniform_ball(free_m1, 0, 2, random.Random(4), budget)
                   for _ in range(20)]
        assert [w.letters for w in draws_a] == [w.letters for w in draws_b]
        assert all(len(w.letters) <= 2 for w in draws_a)

    def test_inexact_ball_refused(self, p_k3_m1_r2):
        with pytest.raises(StateError, match="upper-bound"):
            sample_uniform_ball(p_k3_m1_r2, 2, 4, random.Random(1), TINY)


def chunked_walks(nu, steps, count, rng):
    return [Word._raw(decode_letters(code)) for code in _walks(nu, steps, count, rng)]


def uniform_bytes(n, dropped):
    """The two 32-bit outputs, little-endian, from which random() returns
    n * 2^-53; `dropped` fills the low bits that random() discards."""
    a = (n >> 26) << 5 | dropped & 31
    b = (n & (2 ** 26 - 1)) << 6 | dropped & 63
    return a.to_bytes(4, "little") + b.to_bytes(4, "little")


def assert_classifier_exact(nu):
    """Steps classified from raw bytes, with no generator, at both sides of
    every threshold and at 0 and the largest random(), equal the steps
    bisect_right takes on the same uniforms."""
    top = 2 ** 53
    ns = {0, top - 1}
    for t in nu.thresholds:
        n = math.ceil(t * top)
        ns.update(x for x in (n - 1, n) if 0 <= x < top)
    ns = sorted(ns)
    expected = [encode_letters(nu._draws[bisect_right(nu.thresholds, n / top)].letters)
                for n in ns]
    for dropped in (0, -1):
        data = [uniform_bytes(n, dropped) for n in ns]
        assert [nu._keys_from_bits(d).translate(nu._table) for d in data] == expected
        keys = nu._keys_from_bits(b"".join(data))
        assert len(keys) == len(ns) and keys.translate(nu._table) == "".join(expected)


def stack_reduce(codes, sep):
    """Each separated segment of an encoded string reduced one letter at a
    time."""
    out = []
    for c in codes:
        if out and c != sep and ord(out[-1]) ^ 1 == ord(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


@pytest.fixture(scope="module")
def large_alphabet():
    """The lazy uniform step on every letter at m = 200: 405 words, letter
    codes up to 403, every byte bucket cut and 404 cancelling pairs."""
    return StepDistribution.lazy_uniform([Word((l,)) for l in Alphabet(200).letters()])


class TestChunkedWalks:
    """`_walks` against `reference_walk`: the same words in the same order
    and the same generator state after, from either source of uniforms."""

    @given(nu=step_distributions(), seed=st.integers(0, 2 ** 32),
           steps=st.integers(0, 40), count=st.integers(1, 40),
           chunk=st.sampled_from([1, 7, 64, _CHUNK_STEPS]))
    @example(nu=LAZY_S1, seed=7, steps=30, count=_CHUNK_STEPS // 30 + 2,
             chunk=_CHUNK_STEPS)
    @example(nu=SEVENTHS, seed=1, steps=_CHUNK_STEPS + 3, count=2,
             chunk=_CHUNK_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_bulk_source_matches_reference(self, nu, seed, steps, count, chunk):
        ours, ref = random.Random(seed), random.Random(seed)
        with mock.patch.object(probability, "_CHUNK_STEPS", chunk):
            walks = chunked_walks(nu, steps, count, ours)
        assert walks == [reference_walk(nu, steps, ref) for _ in range(count)]
        assert ours.getstate() == ref.getstate()
        assert random_walk_sample(nu, steps, ours) == reference_walk(nu, steps, ref)
        assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("nu", [SEVENTHS, LAZY_S1, ALL_STEPS],
                             ids=["sevenths", "lazy-s1", "all-steps"])
    def test_classifier_exact_at_thresholds(self, nu):
        assert_classifier_exact(nu)

    def test_float_sum_below_one_classifies_to_last_word(self):
        assert SEVENTHS.thresholds[-1] < 1
        keys = SEVENTHS._keys_from_bits(uniform_bytes(2 ** 53 - 1, 0))
        assert keys.translate(SEVENTHS._table) == encode_letters(SEVENTHS.support[-1][0].letters)

    def test_large_alphabet_classifier_exact(self, large_alphabet):
        assert large_alphabet._buckets == 2 ** 16
        assert_classifier_exact(large_alphabet)

    @pytest.mark.parametrize("source", ["Random", "EdgeRandom"])
    def test_large_alphabet_walks_match_reference(self, large_alphabet, source):
        nu = large_alphabet
        assert len(nu.support) == 405 and max(map(ord, nu._table[-1])) > 255
        if source == "Random":
            ours, ref = random.Random(11), random.Random(11)
        else:
            edges = list(nu.thresholds) + [0.0, TOP]
            ours, ref = EdgeRandom(11, edges), EdgeRandom(11, edges)
        assert chunked_walks(nu, 25, 300, ours) == \
            [reference_walk(nu, 25, ref) for _ in range(300)]
        assert ours.getstate() == ref.getstate()

    @given(codes=st.lists(st.sampled_from([0, 1, 4, 5, 402, 403, None]), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_reduction_by_runs_matches_stack(self, large_alphabet, codes):
        nu = large_alphabet
        assert nu._generators is not None
        s = "".join(nu._sep if c is None else chr(c) for c in codes)
        assert nu._reduce(s) == stack_reduce(s, nu._sep)


class TestLawProbability:
    def test_exhaustive_cube_law_free(self, free_m1, budget):
        est = law_probability(free_m1, GroupLaw.power(3), 0, "exhaustive", 1,
                              budget=budget)
        assert (est.holds, est.trials) == (1, 7)
        assert est.p_lo == est.p_hi == Fraction(1, 7)
        assert est.exact and est.unknown == 0

    def test_exhaustive_cube_law_rank1(self, p_k3_m1_r1, budget):
        est = law_probability(p_k3_m1_r1, GroupLaw.power(3), 1, "exhaustive", 2,
                              budget=budget)
        assert est.p_lo == est.p_hi == Fraction(3, 35)
        assert est.exact and est.trials == 35

    def test_exhaustive_commutator_free(self, free_m1, budget):
        # commuting pairs in the radius-1 free ball: 13 with an identity
        # slot plus 4 per generator pair sharing an axis
        est = law_probability(free_m1, GroupLaw.commutator(), 0, "exhaustive",
                              1, budget=budget)
        assert est.p_lo == Fraction(25, 49)
        assert est.fails == 24

    def test_commutator_holds_in_abelianized_system(self, budget):
        system = RelatorSystem(Alphabet(0), [Relator("r.comm", (1, 2, -1, -2))])
        oracle = RankOracle(system)
        law = GroupLaw.commutator()
        words = [Word(()), Word((1,)), Word((2,)), Word((1, 2)), Word((-1, 2))]
        for u in words:
            for v in words:
                verdict = oracle.equal(law.evaluate([u, v]), Word(()), budget)
                assert verdict.is_yes

    def test_exhaustive_needs_exact_ball(self, p_k3_m1_r2):
        with pytest.raises(StateError, match="exact ball"):
            law_probability(p_k3_m1_r2, GroupLaw.power(3), 2, "exhaustive", 4,
                            budget=TINY)

    def test_sampled_mode_validation(self, p_k3_m1_r1, budget):
        law = GroupLaw.power(3)
        with pytest.raises(InputError, match="mode"):
            law_probability(p_k3_m1_r1, law, 1, "guess", 2, budget=budget)
        with pytest.raises(InputError, match="trials"):
            law_probability(p_k3_m1_r1, law, 1, "ball", 2, budget=budget)
        with pytest.raises(InputError, match="seed"):
            law_probability(p_k3_m1_r1, law, 1, "ball", 2, trials=5,
                            budget=budget)
        with pytest.raises(InputError, match="step distribution"):
            law_probability(p_k3_m1_r1, law, 1, "walk", 2, trials=5, seed=1,
                            budget=budget)

    def test_ball_mode_deterministic(self, p_k3_m1_r1, budget):
        kw = dict(trials=30, seed=7, budget=budget)
        a = law_probability(p_k3_m1_r1, GroupLaw.power(3), 1, "ball", 2, **kw)
        b = law_probability(p_k3_m1_r1, GroupLaw.power(3), 1, "ball", 2, **kw)
        assert a == b
        assert a.trials == 30 and a.holds + a.fails + a.unknown == 30
        assert a.p_lo <= a.p_hi
        assert 0.0 <= a.wilson_lo <= a.wilson_hi <= 1.0
        assert not a.exact

    def test_walk_mode_runs(self, p_k3_m1_r1, budget):
        est = law_probability(p_k3_m1_r1, GroupLaw.commutator(), 1, "walk", 4,
                              trials=40, seed=3, budget=budget, nu=ALL_STEPS)
        assert est.trials == 40 and est.mode == "walk"

    def test_sweep_diagnostics(self, p_k3_m1_r1, budget):
        rows, diag = law_probability_sweep(
            p_k3_m1_r1, GroupLaw.power(3), 1, "exhaustive", [0, 1, 2],
            budget=budget)
        assert [r.n for r in rows] == diag["n_values"] == [0, 1, 2]
        assert [r.p_lo for r in rows] == \
            [Fraction(1), Fraction(3, 7), Fraction(3, 35)]
        assert diag["running_inf_p_lo"] == [1.0, 3 / 7, 3 / 35]
        assert diag["running_sup_p_hi"] == [1.0, 1.0, 1.0]


@pytest.fixture(scope="module")
def big():
    return OracleBudget(max_relator_applications=2500)


class TestTorsionDichotomy:
    def test_frozen_statuses(self, p_k3_m1_r2, big):
        cases = {
            "s1": "power-torsion",
            "a": "conjugate-into-H",
            "b.s1.B": "power-torsion",
            "a.b.s1": "neither",
            "a.a.s1.a": "unknown",
        }
        for text, status in cases.items():
            v = torsion_dichotomy_test(p_k3_m1_r2, Word.parse(text), 2, big)
            assert v.status == status, text
            assert v.exponent == 3
            assert v.certified == (status != "unknown")

    def test_identity_certifies_both_ways(self, p_k3_m1_r2, big):
        v = torsion_dichotomy_test(p_k3_m1_r2, Word(()), 2, big)
        assert v.status == "both"
        assert v.torsion.is_yes and v.into_h.is_yes

    def test_witnesses_replay(self, p_k3_m1_r2, big):
        system = p_k3_m1_r2.relator_system(2)
        s1 = Word.parse("s1")
        v = torsion_dichotomy_test(p_k3_m1_r2, s1, 2, big)
        assert verify_equality_witness(
            system, (s1 ** v.exponent).letters, (), v.torsion.witness)
        a = Word.parse("a")
        v2 = torsion_dichotomy_test(p_k3_m1_r2, a, 2, big)
        assert verify_into_ab_witness(system, a.letters, v2.into_h.witness)

    def test_unknown_has_no_witness(self, p_k3_m1_r2, big):
        v = torsion_dichotomy_test(p_k3_m1_r2, Word.parse("a.a.s1.a"), 2, big)
        assert v.status == "unknown"
        assert v.torsion.witness is None and v.into_h.witness is None


def exact_quotient_return(steps):
    """Return probability of the lazy +-1 walk on Z/3 by Fraction matrix
    power; the uniform row makes every n >= 1 land exactly on 1/3."""
    third = Fraction(1, 3)
    state = [Fraction(1), Fraction(0), Fraction(0)]
    for _ in range(steps):
        state = [
            third * (state[i] + state[(i - 1) % 3] + state[(i + 1) % 3])
            for i in range(3)
        ]
    return state[0]


class TestQuotientWalk:
    def test_exact_chain_values(self):
        assert exact_quotient_return(0) == 1
        for n in range(1, 7):
            assert exact_quotient_return(n) == Fraction(1, 3)

    def test_sampled_estimate_matches_chain(self, p_k3_m1_r1):
        est = quotient_return_probability(p_k3_m1_r1, 1, steps=12,
                                          trials=4000, seed=11)
        assert est.unknown == 0
        assert est.p_lo == est.p_hi == Fraction(est.holds, 4000)
        assert abs(float(est.p_lo) - float(exact_quotient_return(12))) < 0.035

    def test_same_seed_same_counts(self, p_k3_m1_r1):
        a = quotient_return_probability(p_k3_m1_r1, 1, steps=8, trials=500, seed=2)
        b = quotient_return_probability(p_k3_m1_r1, 1, steps=8, trials=500, seed=2)
        assert a == b

    def test_point_mass_walk_certifies_sharply(self, p_k3_m1_r1):
        nu = StepDistribution([(Word((3,)), Fraction(1))])
        hit = quotient_return_probability(p_k3_m1_r1, 1, steps=3, trials=5,
                                          seed=1, nu=nu)
        miss = quotient_return_probability(p_k3_m1_r1, 1, steps=4, trials=5,
                                           seed=1, nu=nu)
        assert (hit.holds, hit.fails, hit.unknown) == (5, 0, 0)
        assert (miss.holds, miss.fails, miss.unknown) == (0, 5, 0)

    def test_validation(self, p_k3_m1_r1):
        with pytest.raises(InputError):
            quotient_return_probability(p_k3_m1_r1, 1, steps=3, trials=0, seed=1)
        with pytest.raises(InputError):
            quotient_return_probability(p_k3_m1_r1, 1, steps=-1, trials=1, seed=1)

    def test_needs_an_s_generator(self):
        from burnlab.presentation import GradedPresentation
        from conftest import small_k_params
        flat = GradedPresentation(Alphabet(0), small_k_params())
        with pytest.raises(InputError, match="s-generator"):
            quotient_return_probability(flat, 0, steps=2, trials=1, seed=1)


class TestTallyMatchesReference:
    """Querying each distinct word once gives the estimate that one query
    per trial gave; the budget-1000 rank-2 cases have unknowns."""

    @pytest.mark.parametrize("pres, law, rank, mode, n, trials, seed, apps", [
        ("p_k3_m1_r2", "x1^3", 2, "ball", 1, 80, 3, 1000),
        ("p_k3_m1_r1", "[x1,x2]", 1, "ball", 2, 60, 5, 50_000),
        ("p_k3_m1_r2", "x1^3", 2, "walk", 3, 60, 4, 1000),
        ("p_k3_m1_r1", "[x1,x2]", 1, "walk", 4, 40, 3, 50_000),
        ("p_k3_m1_r2", "[x1,x2]", 2, "exhaustive", 1, 0, None, 1000),
        ("p_k3_m1_r1", "x1^3", 1, "exhaustive", 2, 0, None, 50_000),
    ])
    def test_law_probability(self, request, pres, law, rank, mode, n, trials,
                             seed, apps):
        presentation = request.getfixturevalue(pres)
        kw = dict(trials=trials, seed=seed, nu=ALL_STEPS,
                  budget=OracleBudget(max_relator_applications=apps))
        law = GroupLaw.parse(law)
        assert law_probability(presentation, law, rank, mode, n, **kw) == \
            reference_law_probability(presentation, law, rank, mode, n, **kw)

    @pytest.mark.parametrize("rank, steps, trials, seed", [
        (1, 12, 400, 11), (1, 3, 50, 2), (2, 8, 300, 7), (2, 0, 5, 1)])
    def test_quotient_return(self, p_k3_m1_r2, rank, steps, trials, seed):
        nu = StepDistribution.lazy_uniform([Word((3,)), Word((-3,))])
        assert quotient_return_probability(p_k3_m1_r2, rank, steps, trials, seed) == \
            reference_quotient_return(p_k3_m1_r2, rank, steps, trials, seed, nu)


# leaves unknowns at rank 2, some of them only from the core's rotation
SMALL = OracleBudget(max_relator_applications=100)


@st.composite
def conjugate_multisets(draw):
    """1-12 words u c^t u^-1 over at most three cores c, repeats allowed, so
    that distinct words share cores."""
    cores = draw(st.lists(st.sampled_from(STEP_WORDS), min_size=1, max_size=3))
    words = []
    for _ in range(draw(st.integers(1, 12))):
        c, u = draw(st.sampled_from(cores)), draw(st.sampled_from(STEP_WORDS))
        words.append(Word._raw(splice_reduce(
            u, power_letters(c, draw(st.integers(1, 3))), inverse_letters(u))))
    return words


class CountingOracle:
    """Forwards `equal` to an oracle and records the first argument."""

    def __init__(self, oracle):
        self.oracle, self.calls = oracle, []

    def equal(self, u, v, budget=None):
        self.calls.append(Word(u).format())
        return self.oracle.equal(u, v, budget)


class TestTallyByCore:
    """_tally asks w = 1 of each cyclic core once and falls back to the raw
    word only when the core is unknown; against one query per raw word it
    never loses a decided answer."""

    @given(words=conjugate_multisets(), budget=st.sampled_from([None, SMALL]))
    @example(words=[Word.parse(t) for t in ("B.S1.A.b.a.s1", "a.s1.B.S1.A.b")],
             budget=SMALL)
    @example(words=[Word.parse(t) for t in ("S1.S1.A.s1.a.s1", "s1.s1.s1")],
             budget=OracleBudget(max_relator_applications=1000))
    @settings(max_examples=150, deadline=None)
    def test_decided_answers_kept_and_unknowns_shrink(self, p_k3_m1_r2, words,
                                                      budget):
        oracle = p_k3_m1_r2.oracle(2)
        holds, fails, unknown = _tally(oracle, words, budget)
        ref_holds, ref_fails, ref_unknown = reference_tally(oracle, words, budget)
        assert holds + fails + unknown == len(words)
        assert holds >= ref_holds and fails >= ref_fails and unknown <= ref_unknown
        for w in set(words):
            v = oracle.equal(w, Word(()), budget)
            if not v.is_unknown:
                assert _tally(oracle, [w], budget) == \
                    ((1, 0, 0) if v.is_yes else (0, 1, 0))

    def test_one_query_per_decided_core(self, p_k3_m1_r2):
        counting = CountingOracle(p_k3_m1_r2.oracle(2))
        words = [Word.parse(t) for t in (
            "b.s1.s1.s1.B", "s1.s1.s1", "A.s1.s1.s1.a", "b.s1.s1.s1.B",
            "s1.a.S1", "a")]
        assert _tally(counting, words, None) == (4, 2, 0)
        assert counting.calls == ["s1.s1.s1", "a"]

    def test_unknown_core_falls_back_to_each_other_member(self, p_k3_m1_r2):
        counting = CountingOracle(p_k3_m1_r2.oracle(2))
        core = Word.parse("a.s1.B.S1.A.b")
        words = [Word.parse(t) for t in (
            "B.S1.A.b.a.s1", "a.s1.B.S1.A.b", "S1.A.b.a.s1.B", "B.S1.A.b.a.s1",
            "a.s1.B.S1.A.b")]
        assert counting.oracle.equal(core, Word(()), SMALL).is_unknown
        # the two raw rotations are exhausted within the budget; the core is not
        assert _tally(counting, words, SMALL) == (0, 3, 2)
        assert counting.calls == ["a.s1.B.S1.A.b", "B.S1.A.b.a.s1", "S1.A.b.a.s1.B"]
