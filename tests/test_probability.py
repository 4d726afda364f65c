"""Law parsing and evaluation, step distributions, sampled and exhaustive
law-probability estimates, torsion classification, and the quotient walk."""

import random
from fractions import Fraction

import pytest

from burnlab.errors import InputError, StateError
from burnlab.oracle import (
    OracleBudget,
    RankOracle,
    Relator,
    RelatorSystem,
    verify_equality_witness,
    verify_into_ab_witness,
)
from burnlab.probability import (
    GroupLaw,
    StepDistribution,
    law_probability,
    law_probability_sweep,
    quotient_return_probability,
    random_walk_sample,
    sample_uniform_ball,
    torsion_dichotomy_test,
)
from burnlab.words import Alphabet, Word

TINY = OracleBudget(max_ball_radius=0, max_relator_applications=1)
ALL_STEPS = StepDistribution.lazy_uniform(
    [Word((l,)) for l in (1, -1, 2, -2, 3, -3)])


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


class TestStepDistribution:
    def test_probabilities_validated(self):
        a, b = Word((1,)), Word((2,))
        with pytest.raises(InputError, match="sum"):
            StepDistribution([(a, Fraction(1, 2))])
        with pytest.raises(InputError, match="duplicate"):
            StepDistribution([(a, Fraction(1, 2)), (a, Fraction(1, 2))])
        with pytest.raises(InputError, match="> 0"):
            StepDistribution([(a, Fraction(0)), (b, Fraction(1))])
        with pytest.raises(InputError):
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
            sample_uniform_ball(p_k3_m1_r2, 2, 2, random.Random(1), TINY)
        w = sample_uniform_ball(p_k3_m1_r2, 2, 2, random.Random(1), TINY,
                                require_exact=False)
        assert isinstance(w, Word)


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
            law_probability(p_k3_m1_r2, GroupLaw.power(3), 2, "exhaustive", 2,
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
            "a.b.s1": "unknown",
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
        v = torsion_dichotomy_test(p_k3_m1_r2, Word.parse("a.b.s1"), 2, big)
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
