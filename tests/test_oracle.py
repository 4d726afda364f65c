"""Budgeted word and conjugacy oracles: tri-state verdicts, replayable
witnesses, refutation certificates, and budget monotonicity."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnlab.errors import InputError
from burnlab.oracle import (
    IntegerLattice,
    OracleBudget,
    RankOracle,
    Relator,
    RelatorSystem,
    ReplayError,
    find_conjugator,
    replay_trace,
    verify_conjugacy_witness,
    verify_equality_witness,
    verify_into_ab_witness,
)
from burnlab.words import (
    Alphabet,
    Word,
    cyclic_reduce_letters,
    free_conjugate,
    is_ab_letter,
    min_rotation,
    reduced_words_up_to,
)

A1 = Alphabet(1)
ONE = Word(())

letters_m1 = st.sampled_from([1, -1, 2, -2, 3, -3])
raw_m1 = st.lists(letters_m1, max_size=8)


@pytest.fixture(scope="module")
def free_oracle(free_m1):
    return free_m1.oracle(0)


@pytest.fixture(scope="module")
def o1(p_k3_m1_r1):
    return p_k3_m1_r1.oracle(1)


class TestFreeRank:
    def test_equal_matches_tuple_equality_exhaustive(self, free_oracle, budget):
        words = [Word._raw(t) for t in reduced_words_up_to(A1, 2)]
        for u in words:
            for v in words:
                verdict = free_oracle.equal(u, v, budget)
                assert verdict.status == ("yes" if u == v else "no")

    def test_conjugate_matches_rotation_exhaustive(self, free_oracle, budget):
        words = [Word._raw(t) for t in reduced_words_up_to(A1, 2)]
        for u in words:
            for v in words:
                verdict = free_oracle.conjugate(u, v, budget)
                assert verdict.status == ("yes" if free_conjugate(u, v) else "no")

    @given(raw_m1)
    @settings(max_examples=60, deadline=None)
    def test_canonical_is_the_reduced_word(self, free_oracle, seq):
        w = Word(seq)
        canon, complete = free_oracle.canonical(w, OracleBudget())
        assert complete and canon == w.letters

    @given(raw_m1)
    @settings(max_examples=60, deadline=None)
    def test_norm_is_length(self, free_oracle, seq):
        w = Word(seq)
        nb = free_oracle.norm(w, OracleBudget())
        assert nb.exact and nb.lower == nb.upper == len(w)

    @given(raw_m1)
    @settings(max_examples=60, deadline=None)
    def test_into_ab_iff_core_is_ab(self, free_oracle, seq):
        w = Word(seq)
        core, _ = cyclic_reduce_letters(w.letters)
        verdict = free_oracle.conjugate_into_ab(w, OracleBudget())
        expected = "yes" if all(is_ab_letter(x) for x in core) else "no"
        assert verdict.status == expected

    def test_no_certificates_at_rank_0(self, free_oracle, budget):
        v = free_oracle.equal(Word.parse("a"), Word.parse("b"), budget)
        assert v.is_no and v.certificate["kind"] == "rank-0"


class TestRelatorVerdicts:
    def test_power_collapses(self, o1, budget):
        assert o1.equal(Word.parse("s1.s1"), Word.parse("S1"), budget).is_yes
        assert o1.equal(Word.parse("b.s1.s1.s1.B"), ONE, budget).is_yes

    def test_residue_certificate_refutes(self, o1, budget):
        v = o1.equal(Word.parse("s1"), ONE, budget)
        assert v.is_no
        assert v.certificate["kind"] == "abelian-residue"
        assert v.certificate["residue"] == [0, 0, 1]
        assert v.certificate["lattice"] == [[0, 0, 3]]

    def test_exhaustion_certificate_refutes(self, o1, budget):
        v = o1.equal(Word.parse("a.b"), Word.parse("b.a"), budget)
        assert v.is_no and v.certificate["kind"] == "exhaustion"

    def test_norm_shrinks_through_relator(self, o1, budget):
        nb = o1.norm(Word.parse("s1.s1"), budget)
        assert nb.exact and nb.upper == 1
        assert nb.witness is not None

    def test_canonical_merges_conjugates_cyclically(self, o1, budget):
        a = o1.cyclic_canonical(Word.parse("a.s1.A"), budget=budget)
        b = o1.cyclic_canonical(Word.parse("s1"), budget=budget)
        assert a == b and a[1] is True

    def test_conjugate_yes_on_rotation(self, o1, budget):
        v = o1.conjugate(Word.parse("a.s1"), Word.parse("s1.a"), budget)
        assert v.is_yes and "conjugator-bound" in v.witness

    def test_into_ab_with_conjugator(self, o1, budget):
        v = o1.conjugate_into_ab(Word.parse("b.a.B"), budget)
        assert v.is_yes and v.witness["target"] == "a"
        assert verify_into_ab_witness(o1.system, Word.parse("b.a.B").letters, v.witness)

    def test_into_ab_refuted_by_residue(self, o1, budget):
        v = o1.conjugate_into_ab(Word.parse("s1"), budget)
        assert v.is_no and v.certificate["kind"] == "abelian-residue"


class TestWitnessReplay:
    def test_equality_witnesses_replay(self, o1, budget):
        pairs = [("s1.s1", "S1"), ("b.s1.s1.s1.B", ""), ("a.s1.s1.s1.A.b", "b"),
                 ("s1.s1.s1.s1", "s1")]
        for left, right in pairs:
            u, v = Word.parse(left), Word.parse(right)
            verdict = o1.equal(u, v, budget)
            assert verdict.is_yes
            assert verify_equality_witness(o1.system, u.letters, v.letters,
                                           verdict.witness)

    def test_conjugacy_witnesses_replay(self, o1, budget):
        pairs = [("a.s1", "s1.a"), ("b.s1.s1.B", "S1"), ("a.b.A", "b")]
        for left, right in pairs:
            u, v = Word.parse(left), Word.parse(right)
            verdict = o1.conjugate(u, v, budget)
            assert verdict.is_yes
            assert verify_conjugacy_witness(o1.system, u.letters, v.letters,
                                            verdict.witness)

    def test_replay_is_literal_not_research(self, o1, budget):
        # equality witnesses trace u * v^-1 down to the empty word; the
        # replayer applies steps literally, so a duplicated step must fail
        verdict = o1.equal(Word.parse("s1.s1"), Word.parse("S1"), budget)
        start = Word.parse(verdict.witness["start"]).letters
        assert start == Word.parse("s1.s1.s1").letters
        steps = verdict.witness["steps"]
        assert replay_trace(o1.system, start, steps) == ()
        assert not verify_equality_witness(
            o1.system, Word.parse("s1.s1").letters, Word.parse("S1").letters,
            {"start": verdict.witness["start"], "steps": steps + [steps[-1]]})

    def test_wrong_start_rejected(self, o1, budget):
        verdict = o1.equal(Word.parse("s1.s1"), Word.parse("S1"), budget)
        w = dict(verdict.witness, start="s1.s1")
        assert not verify_equality_witness(
            o1.system, Word.parse("s1.s1").letters, Word.parse("S1").letters, w)

    def test_corrupted_traces_rejected(self, o1, budget):
        verdict = o1.equal(Word.parse("b.s1.s1.s1.B"), ONE, budget)
        u = Word.parse("b.s1.s1.s1.B").letters

        def corrupt(mutate):
            w = copy.deepcopy(verdict.witness)
            mutate(w["steps"])
            try:
                return verify_equality_witness(o1.system, u, (), w)
            except ReplayError:
                return False

        assert verify_equality_witness(o1.system, u, (), verdict.witness)
        assert not corrupt(lambda s: s.__setitem__(0, dict(s[0], position=99)))
        assert not corrupt(lambda s: s.__setitem__(0, dict(s[0], sign=-s[0]["sign"])))
        assert not corrupt(lambda s: s.pop())
        assert not corrupt(lambda s: s.__setitem__(
            0, dict(s[0], **{"relator-id": "x9.9"})))

    def test_shift_corruption_detected_on_aperiodic_relator(self, p_k3_m1_r2,
                                                            budget):
        # shifting s1.s1.s1 is a no-op (all rotations coincide), so the probe
        # needs a relator whose rotations differ, like (a.s1)^3
        o2 = p_k3_m1_r2.oracle(2)
        u = Word.parse("b.a.s1.a.s1.a.s1.B")
        verdict = o2.equal(u, ONE, budget)
        assert verdict.is_yes
        w = copy.deepcopy(verdict.witness)
        idx = next(i for i, s in enumerate(w["steps"])
                   if s["op"] == "relator-insert")
        step = w["steps"][idx]
        rlen = len(o2.system.relator_by_id(step["relator-id"]).word)
        w["steps"][idx] = dict(step, shift=(step["shift"] + 1) % rlen)
        assert verify_equality_witness(o2.system, u.letters, (), verdict.witness)
        assert not verify_equality_witness(o2.system, u.letters, (), w)

    def test_free_cancel_requires_actual_cancellation(self, o1):
        with pytest.raises(ReplayError):
            replay_trace(o1.system, Word.parse("a.b").letters,
                         [{"op": "free-cancel", "position": 0}])

    def test_equality_traces_never_shift(self, o1, budget):
        # cyclic shifts are a conjugacy-only move; the equality generator
        # must confine itself to inserts and cancellations
        pairs = [("s1.s1", "S1"), ("b.s1.s1.s1.B", ""), ("s1.s1.s1.s1", "s1")]
        for left, right in pairs:
            v = o1.equal(Word.parse(left), Word.parse(right), budget)
            assert all(s["op"] in ("relator-insert", "free-cancel")
                       for s in v.witness["steps"])
        # a start away from its canonical rotation forces a shift step
        conj = o1.conjugate(Word.parse("s1.a"), Word.parse("a.s1"), budget)
        assert any(s["op"] == "cyclic-shift" for s in conj.witness["steps"])


class TestBudgets:
    def test_budget_fields_validated(self):
        with pytest.raises(InputError):
            OracleBudget(max_relator_applications=0)
        with pytest.raises(InputError):
            OracleBudget(max_ball_radius=-1)

    def test_monotone_decidability_no_flips(self, o1):
        tiny = OracleBudget(max_ball_radius=0, max_relator_applications=1)
        big = OracleBudget()
        pairs = [("a.s1.a.s1", "a.s1.a.S1.S1"), ("s1.s1", "S1"), ("s1", ""),
                 ("a.b", "b.a"), ("b.s1.s1.s1.B", "")]
        saw_unknown = False
        for left, right in pairs:
            u, v = Word.parse(left), Word.parse(right)
            small_verdict = o1.equal(u, v, tiny)
            big_verdict = o1.equal(u, v, big)
            if small_verdict.is_unknown:
                saw_unknown = True
            else:
                assert small_verdict.status == big_verdict.status
        assert saw_unknown  # the tiny budget must actually bind somewhere

    def test_unknown_carries_no_claims(self, o1):
        tiny = OracleBudget(max_ball_radius=0, max_relator_applications=1)
        v = o1.equal(Word.parse("a.s1.a.s1"), Word.parse("a.s1.a.S1.S1"), tiny)
        assert v.is_unknown and v.witness is None and v.certificate is None
        assert not v.budget_used.complete

    def test_cyclic_closure_counts_over_cap_moves(self, p_k3_m1_r2):
        # values recorded before over-cap successors stopped being
        # canonicalised: 152 of the 326 applications are over the cap, and
        # they must still be charged to the budget
        oracle = RankOracle(p_k3_m1_r2.relator_system(2))
        start = Word.parse("a.s1.b.s1").letters
        comp = oracle._closure(start, 6, OracleBudget(), cyclic=True)
        assert comp.complete
        assert (comp.applications, comp.states) == (326, 11)
        assert sorted(Word._raw(t).format() for t in comp.parents) == [
            "A.B.s1.B.A.s1", "A.b.A.S1", "A.b.A.s1.s1", "A.s1.A.S1.b.S1",
            "a.B.S1.B", "a.B.s1.s1.B", "a.S1.B.s1.B.S1", "a.S1.S1.b.S1.S1",
            "a.S1.S1.b.s1", "a.s1.b.S1.S1", "a.s1.b.s1",
        ]
        over_cap = sum(len(succ) > 6 for member in comp.parents
                       for succ, _ in oracle._cyclic_successors(member, 6))
        assert over_cap == 152


class TestConjugators:
    def test_find_conjugator_closes_the_loop(self, o1, budget):
        pairs = [("a.s1", "s1.a"), ("b.s1.s1.B", "S1"), ("s1", "a.s1.A")]
        for left, right in pairs:
            u, v = Word.parse(left), Word.parse(right)
            z = find_conjugator(o1, u, v, budget=budget)
            assert z is not None
            assert o1.equal(z * u * ~z, v, budget).is_yes

    def test_find_conjugator_none_on_refuted_pair(self, o1, budget):
        assert find_conjugator(o1, Word.parse("a"), Word.parse("b"),
                                budget=budget) is None


class TestLattice:
    def test_reduce_idempotent_and_membership(self):
        lat = IntegerLattice([(0, 0, 3)], 3)
        assert lat.contains((0, 0, 3)) and lat.contains((0, 0, -6))
        assert not lat.contains((0, 0, 1))
        assert lat.reduce((1, 2, 5)) == (1, 2, 2)
        assert lat.reduce(lat.reduce((4, -7, 11))) == lat.reduce((4, -7, 11))

    def test_difference_lands_in_lattice(self):
        lat = IntegerLattice([(3, 0, 3), (0, 0, 3)], 3)
        for v in [(1, 1, 1), (5, 0, -2), (9, 9, 9)]:
            r = lat.reduce(v)
            assert lat.contains(tuple(a - b for a, b in zip(v, r)))

    def test_ab_margins(self, p_k3_m1_r1, p_k3_m1_r2, p_k5_m2_r2):
        assert p_k3_m1_r1.relator_system(1).ab_margin == 3
        assert p_k3_m1_r2.relator_system(2).ab_margin == 0
        assert p_k5_m2_r2.relator_system(2).ab_margin == 4

    def test_margin_makes_ab_norms_instant(self, p_k5_m2_r2):
        o2 = p_k5_m2_r2.oracle(2)
        nb = o2.norm(Word.parse("abAB"), OracleBudget())
        assert nb.exact and nb.upper == 4
