"""Budgeted word and conjugacy oracles: tri-state verdicts, replayable
witnesses, refutation certificates, and budget monotonicity."""

import copy
import heapq
import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from burnlab import cli
from burnlab.cayley import enumerate_ball
from burnlab.errors import BurnlabError, InputError
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
    cyclic_split_reduced,
    decode_letters,
    encode_letters,
    free_conjugate,
    inverse_encoded,
    inverse_letters,
    is_ab_letter,
    is_ab_word,
    min_rotation,
    reduced_words_up_to,
    shortlex_key,
    splice_reduce,
)

A1 = Alphabet(1)
ONE = Word(())

letters_m1 = st.sampled_from([1, -1, 2, -2, 3, -3])
raw_m1 = st.lists(letters_m1, max_size=8)


# Reference move enumerators: every move of a state in enumeration order,
# each built by splice_reduce.  The oracle's generators may skip moves, but
# every move they yield must be an in-cap one of these, and their in-cap words
# must first occur in the same order and by the same moves.  They scan the
# contexts themselves instead of the oracle's matching tables.

def reference_linear_moves(system, w):
    contexts, inv = system.contexts, system._inv_context_letters
    n = len(w)
    for p in range(n + 1):
        if p < n:
            for ci in (i for i, c in enumerate(contexts) if c.letters[0] == w[p]):
                T = contexts[ci].letters
                lmax = min(len(T), n - p)
                l = 0
                while l < lmax and T[l] == w[p + l]:
                    l += 1
                for ov in range(1, l + 1):
                    yield splice_reduce(w[:p], inv[ci][: len(T) - ov], w[p + ov:]), (p, ci, ov)
        for ci in range(len(contexts)):
            yield splice_reduce(w[:p], inv[ci], w[p:]), (p, ci, 0)


def reference_cyclic_moves(system, w, cap):
    """Overlap moves are all counted; an insertion only when its core is
    within the cap.  Over-cap results are left uncanonicalised."""
    contexts, inv = system.contexts, system._inv_context_letters
    n = len(w)
    for start in range(max(1, n)):
        v = w[start:] + w[:start]
        if n:
            for ci in (i for i, c in enumerate(contexts) if c.letters[0] == v[0]):
                T = contexts[ci].letters
                lmax = min(len(T), n)
                l = 0
                while l < lmax and T[l] == v[l]:
                    l += 1
                for ov in range(1, l + 1):
                    core, _ = cyclic_split_reduced(splice_reduce((), inv[ci][: len(T) - ov], v[ov:]))
                    yield (core if len(core) > cap else min_rotation(core)), (start, ci, ov)
        for ci in range(len(contexts)):
            core, _ = cyclic_split_reduced(splice_reduce((), inv[ci], v))
            if len(core) <= cap:
                yield min_rotation(core), (start, ci, 0)


def reference_closure(system, start, cap, max_applications, cyclic, stop=None):
    """The closure loop over the reference enumerators, building every move
    and charging one for each in-cap word not yet reached, and stopping after
    the first word added for which `stop` is true; returns
    (applications, states, complete, parents, min_word)."""
    parents = {start: None}
    applications, min_word = 0, start
    margin = system.ab_margin
    if (not cyclic and margin is not None and margin > 0 and cap - len(start) < margin
            and all(is_ab_letter(x) for x in start)):
        return applications, 1, True, parents, min_word
    heap = [(shortlex_key(start), start)]
    while heap:
        _, w = heapq.heappop(heap)
        moves = (reference_cyclic_moves(system, w, cap) if cyclic
                 else reference_linear_moves(system, w))
        for succ, move in moves:
            if len(succ) > cap or succ in parents:
                continue
            applications += 1
            if applications > max_applications:
                return applications, len(parents), False, parents, min_word
            parents[succ] = (w, move)
            if shortlex_key(succ) < shortlex_key(min_word):
                min_word = succ
            heapq.heappush(heap, (shortlex_key(succ), succ))
            if stop is not None and stop(succ):
                return applications, len(parents), False, parents, min_word
    return applications, len(parents), True, parents, min_word


def decoded_parents(oracle, comp):
    """A component's parents map as the reference closure writes it: each
    member, as letter tuples, to its (predecessor, move).  The search keeps
    the words encoded and only the predecessor; the move is derived again,
    as witness assembly derives it."""
    return {decode_letters(w): None if pred is None else (
                decode_letters(pred), oracle._recorded_move(comp, pred, w))
            for w, pred in comp.parents.items()}


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

    def test_raw_tuples_are_freely_reduced(self, free_oracle, budget):
        assert free_oracle.equal((1, -1), (), budget).is_yes
        assert free_oracle.canonical((2, 1, -1), budget) == ((2,), True)

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
        a = o1.cyclic_component(Word.parse("a.s1.A"), budget)
        b = o1.cyclic_component(Word.parse("s1"), budget)
        assert a.min_word == b.min_word and a.complete and b.complete

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


class TestRawLetterTuples:
    @given(u=raw_m1, v=raw_m1)
    @settings(max_examples=40, deadline=None)
    def test_raw_and_word_forms_agree(self, free_oracle, o1, u, v):
        budget = OracleBudget(max_relator_applications=2500)
        tu, tv, wu, wv = tuple(u), tuple(v), Word(u), Word(v)
        for oracle in (free_oracle, o1):
            assert oracle.equal(tu, tv, budget).to_json() == oracle.equal(wu, wv, budget).to_json()
            assert (oracle.conjugate(tu, tv, budget).to_json()
                    == oracle.conjugate(wu, wv, budget).to_json())
            assert (oracle.conjugate_into_ab(tu, budget).to_json()
                    == oracle.conjugate_into_ab(wu, budget).to_json())
            assert oracle.norm(tu, budget) == oracle.norm(wu, budget)
            assert oracle.canonical(tu, budget) == oracle.canonical(wu, budget)

    def test_raw_query_witnesses_verify(self, o1, budget):
        # the verifiers reduce raw tuples as the oracle does; they used to
        # compare the witness start with the unreduced u
        u, v = (3, 3, 1, -1), (-3,)
        verdict = o1.equal(u, v, budget)
        assert verdict.is_yes
        assert verify_equality_witness(o1.system, u, v, verdict.witness)
        assert verify_equality_witness(o1.system, (3, 3), v, verdict.witness)
        u, v = (2, 3, -2, 1, -1), (3,)
        verdict = o1.conjugate(u, v, budget)
        assert verdict.is_yes
        assert verify_conjugacy_witness(o1.system, u, v, verdict.witness)
        assert verify_conjugacy_witness(o1.system, u, (3, 2, -2), verdict.witness)
        u = (2, 3, -3, 1, -2)
        verdict = o1.conjugate_into_ab(u, budget)
        assert verdict.is_yes
        assert verify_into_ab_witness(o1.system, u, verdict.witness)

    @given(u=raw_m1, v=raw_m1)
    @settings(max_examples=40, deadline=None)
    def test_raw_query_witnesses_verify_property(self, o1, u, v):
        budget = OracleBudget(max_relator_applications=2500)
        u, v = tuple(u), tuple(v)
        verdict = o1.equal(u, v, budget)
        if verdict.is_yes:
            assert verify_equality_witness(o1.system, u, v, verdict.witness)
        verdict = o1.conjugate(u, v, budget)
        if verdict.is_yes:
            assert verify_conjugacy_witness(o1.system, u, v, verdict.witness)
        verdict = o1.conjugate_into_ab(u, budget)
        if verdict.is_yes:
            assert verify_into_ab_witness(o1.system, u, verdict.witness)

    def test_relators_must_be_cyclically_reduced(self):
        for word in ((1, -1), (1, 2, -1), (2, 1, -1, 3)):
            with pytest.raises(InputError):
                Relator("r", word)


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

    def test_tampered_predecessor_is_an_assembly_mismatch(self, p_k3_m1_r1, budget):
        # trace assembly derives each edge's move from the recorded
        # predecessor; one with no move to its word must be reported as a
        # mismatch, not escape as StopIteration
        oracle = RankOracle(p_k3_m1_r1.relator_system(1))
        u = Word.parse("b.s1.s1.s1.B").letters
        code = encode_letters(u)
        comp = oracle._closure(code, oracle._linear_cap(code, budget), budget, cyclic=False)
        start, *members = comp.parents
        reached = {succ for succ, _ in oracle._linear_successors(start, comp.cap)}
        far = next(w for w in members if w not in reached)
        comp.parents[far] = start
        with pytest.raises(BurnlabError, match="trace assembly mismatch"):
            oracle._trace(comp, far, u)

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
                 ("a.b", "b.a"), ("b.s1.s1.s1.B", ""), ("a.s1.A.s1.s1", "")]
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
        v = o1.equal(Word.parse("a.s1.A.s1.s1"), ONE, tiny)
        assert v.is_unknown and v.witness is None and v.certificate is None
        assert not v.budget_used.complete

    def test_cyclic_closure_charges_no_over_cap_moves(self, p_k3_m1_r2):
        # the reference enumerates 152 over-cap moves from these 11 members;
        # the budget charges only the 10 moves that reach a new member
        oracle = RankOracle(p_k3_m1_r2.relator_system(2))
        start = encode_letters(Word.parse("a.s1.b.s1").letters)
        comp = oracle._closure(start, 6, OracleBudget(), cyclic=True)
        members = decoded_parents(oracle, comp)
        assert comp.complete
        assert (comp.applications, comp.states) == (10, 11)
        assert sorted(Word._raw(t).format() for t in members) == [
            "A.B.s1.B.A.s1", "A.b.A.S1", "A.b.A.s1.s1", "A.s1.A.S1.b.S1",
            "a.B.S1.B", "a.B.s1.s1.B", "a.S1.B.s1.B.S1", "a.S1.S1.b.S1.S1",
            "a.S1.S1.b.s1", "a.s1.b.S1.S1", "a.s1.b.s1",
        ]
        over_cap = sum(len(succ) > 6 for member in members
                       for succ, _ in reference_cyclic_moves(oracle.system, member, 6))
        assert over_cap == 152


class TestMemo:
    """Complete components are memoized and reused; nothing else is, and no
    verdict depends on what the memo holds."""

    def test_complete_components_are_reused(self, p_k3_m1_r2, monkeypatch):
        oracle = RankOracle(p_k3_m1_r2.relator_system(2))
        start = encode_letters(Word.parse("a.s1.b.s1").letters)
        first = oracle._closure(start, 6, OracleBudget(), cyclic=True)
        assert first.complete and first.states > 1
        assert oracle._closure(start, 6, OracleBudget(), cyclic=True) is first
        # a linear component is memoized as its least word's chain tuple,
        # from which the second call rebuilds it without searching again
        start = encode_letters(Word.parse("a.s1.b").letters)
        first = oracle._closure(start, 5, OracleBudget(), cyclic=False)
        assert first.complete and first.states > 1
        entry = oracle._components[start, 5, False]
        assert type(entry) is tuple and (entry[0], entry[2]) == (first.applications,
                                                                  first._min_word)

        def no_search(*args):
            raise AssertionError("a memoized component was searched again")

        monkeypatch.setattr(oracle, "_linear_successors", no_search)
        again = oracle._closure(start, 5, OracleBudget(), cyclic=False)
        assert again is not first and oracle._components[start, 5, False] is entry
        assert ((again.states, again.applications, again.min_word, again.complete, again.cap)
                == (first.states, first.applications, first.min_word, first.complete, first.cap))
        assert all(first.parents[w] == pred for w, pred in again.parents.items())

    def test_early_stopped_components_are_not_reused(self, p_k3_m1_r1):
        oracle = RankOracle(p_k3_m1_r1.relator_system(1))
        start = Word.parse("a.s1.s1.s1.A.b").letters
        first, again = (oracle._closure(encode_letters(start), 10, OracleBudget(),
                                        cyclic=False, stop=encode_letters((2,)).__eq__)
                        for _ in range(2))
        assert not first.complete and (2,) in decoded_parents(oracle, first)
        assert again is not first
        assert ((decoded_parents(oracle, again), again.states, again.applications, again.min_word)
                == (decoded_parents(oracle, first), first.states, first.applications, first.min_word))

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("budget", [
        OracleBudget(max_ball_radius=2, max_relator_applications=60), OracleBudget()],
        ids=["tiny", "default"])  # the budgets of the verdict corpus
    def test_verdicts_do_not_depend_on_memo_warmth(self, p_k3_m1_r2, rank, budget):
        system = p_k3_m1_r2.relator_system(rank)
        words = list(reduced_words_up_to(A1, 3))
        short = [v for v in words if len(v) <= 1]

        def claims(oracle, u):
            verdicts = [oracle.equal(u, (), budget), oracle.conjugate_into_ab(u, budget)]
            verdicts += [oracle.conjugate(u, v, budget) for v in short]
            return [(v.status, v.witness, v.certificate) for v in verdicts]

        warm = RankOracle(system)
        for u in words:
            warm.canonical(u, budget)
            warm.cyclic_component(u, budget)
            warm.norm(u, budget)
        for u in words:
            cold = claims(RankOracle(system), u)
            assert claims(warm, u) == cold, u
            assert claims(warm, u) == cold, u

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("budget", [
        OracleBudget(max_ball_radius=2, max_relator_applications=60), OracleBudget()],
        ids=["tiny", "default"])
    @given(seq=st.lists(letters_m1, max_size=6))
    # yes witnesses with edges: b.s1^3.B = 1, b.a.B is conjugate to a, and
    # at rank 2 (a.s1)^3 = 1; norm witnesses: s1^4 = s1, (a.s1)^2 = S1.A
    @example(seq=[2, 3, 3, 3, -2])
    @example(seq=[2, 1, -2])
    @example(seq=[1, 3, 1, 3, 1, 3])
    @example(seq=[3, 3, 3, 3])
    @example(seq=[1, 3, 1, 3])
    @settings(max_examples=80, deadline=None)
    def test_memo_served_witnesses_match_cold_ones(self, p_k3_m1_r2, rank, budget, seq):
        # a warm oracle serves these queries from components it memoized,
        # which keep no moves; their witnesses must be the cold search's
        system = p_k3_m1_r2.relator_system(rank)
        u = Word(seq).letters

        def witnesses(oracle):
            verdicts = [oracle.equal(u, (), budget), oracle.conjugate_into_ab(u, budget)]
            claims = [(v.status, v.witness) for v in verdicts]
            return json.dumps(claims + [oracle.norm(u, budget).witness], sort_keys=True)

        warm = RankOracle(system)
        warm.canonical(u, budget)
        warm.cyclic_component(u, budget)
        warm.norm(u, budget)
        assert witnesses(warm) == witnesses(RankOracle(system))
        equal, into_ab = warm.equal(u, (), budget), warm.conjugate_into_ab(u, budget)
        if equal.is_yes:
            assert verify_equality_witness(system, u, (), equal.witness)
        if into_ab.is_yes:
            assert verify_into_ab_witness(system, u, into_ab.witness)
        norm = warm.norm(u, budget)
        if norm.witness is not None:
            assert Word.parse(norm.witness["start"]).letters == u
            end = replay_trace(system, u, norm.witness["steps"])
            assert len(end) == norm.upper and end == warm.canonical(u, budget)[0]

    def test_summary_served_witnesses_match_cold_ones(self, p_k3_m1_r1, budget):
        # at rank 1 (the relator s1^3) b.s1^3.B = 1: after `canonical` the
        # memo holds its component as the chain from the empty word, and
        # `equal` and `norm` are served from that chain alone
        system = p_k3_m1_r1.relator_system(1)
        u = Word.parse("b.s1.s1.s1.B")
        warm = RankOracle(system)
        assert warm.canonical(u, budget) == ((), True)
        # (applications, mirror_min, min_word, ..., start)
        (entry,) = warm._components.values()
        states = entry[0] + 1
        assert len(entry[2:]) < states

        def answers(oracle):
            verdict, norm = oracle.equal(u, (), budget), oracle.norm(u, budget)
            assert verdict.is_yes and norm.exact and norm.upper == 0
            assert verify_equality_witness(system, u.letters, (), verdict.witness)
            assert replay_trace(system, u.letters, verdict.witness["steps"]) == ()
            assert replay_trace(system, u.letters, norm.witness["steps"]) == ()
            return json.dumps([verdict.status, verdict.witness, verdict.certificate,
                               norm.lower, norm.upper, norm.witness], sort_keys=True)

        assert answers(warm) == answers(RankOracle(system))
        # the memo served the warm `equal`: a fresh one stops at the empty word
        used = warm.equal(u, (), budget).budget_used
        assert used.complete and used.states == states
        assert not RankOracle(system).equal(u, (), budget).budget_used.complete

    def test_linear_entries_are_least_word_chains(self, p_k3_m1_r2, budget):
        enumerate_ball(p_k3_m1_r2, 2, 3, budget)
        oracle = p_k3_m1_r2.oracle(2)
        entries = [(key, entry) for key, entry in oracle._components.items() if not key[2]]
        assert entries and any(len(entry) - 2 < entry[0] + 1 for _, entry in entries)
        for (start, cap, _), entry in entries:
            # (applications, mirror_min, min_word, pred, ..., start): the
            # chain runs from the least word back to the start
            applications, mirror_min, chain = entry[0], entry[1], entry[2:]
            assert chain[-1] == start
            fresh = RankOracle(oracle.system)._closure(
                start, cap, OracleBudget(max_relator_applications=max(1, applications)),
                cyclic=False)
            assert fresh.complete
            assert ((applications + 1, applications, chain[0])
                    == (fresh.states, fresh.applications, fresh._min_word))
            assert [fresh.parents[w] for w in chain] == [*chain[1:], None]
            # mirror_min is the least inverse of a member of the whole run
            assert decode_letters(mirror_min) == min(
                (inverse_letters(decode_letters(w)) for w in fresh.parents), key=shortlex_key)
            # and a memo hit rebuilds that chain with the whole run's counts
            comp = oracle._closure(start, cap, OracleBudget(), cyclic=False)
            assert ((comp.states, comp.applications, comp._min_word, comp.complete, comp.cap)
                    == (fresh.states, fresh.applications, fresh._min_word, True, cap))
            assert comp.parents == dict(zip(chain, [*chain[1:], None]))


@pytest.fixture(scope="module")
def mirror_systems(p_k3_m1_r2, p_k5_m2_r2):
    return {"k3-m1": p_k3_m1_r2.relator_system(2), "k5-m2": p_k5_m2_r2.relator_system(2)}


def reduced_words_of(system, max_size=6):
    gens = range(1, system.alphabet.size + 1)
    letters = st.sampled_from([x for g in gens for x in (g, -g)])
    return st.lists(letters, max_size=max_size).map(lambda seq: Word(seq).letters)


class TestMirror:
    """`canonical(u)` is served from the memo entry of u^-1 at the same cap
    (the mirror rule in `RankOracle`): with no search, nothing stored, and
    exactly the cold search's answer."""

    @pytest.mark.parametrize("which", ["k3-m1", "k5-m2"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_mirror_served_answer_is_the_cold_one(self, mirror_systems, which, data):
        system = mirror_systems[which]
        u = data.draw(reduced_words_of(system))
        warm = RankOracle(system)
        warm.canonical(inverse_letters(u))
        held = dict(warm._components)

        def no_search(*args):
            raise AssertionError("a mirror-served query searched")

        warm._linear_successors = no_search
        assert warm.canonical(u) == RankOracle(system).canonical(u)
        assert warm._components == held

    @pytest.mark.parametrize("which", ["k3-m1", "k5-m2"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_application_short_searches(self, mirror_systems, which, data):
        system = mirror_systems[which]
        u = data.draw(reduced_words_of(system))
        warm = RankOracle(system)
        warm.canonical(inverse_letters(u))
        cap = warm._linear_cap(encode_letters(u), OracleBudget())
        applications = warm._components[encode_letters(inverse_letters(u)), cap, False][0]
        assume(applications >= 2)
        short = OracleBudget(max_relator_applications=applications - 1)
        # the inverse entry is over this budget, so u's own search runs and
        # stops incomplete, as a cold one does
        answer = warm.canonical(u, short)
        assert answer == RankOracle(system).canonical(u, short)
        assert not answer[1]

    def test_a_served_answer_adds_no_entry(self, p_k3_m1_r2, budget):
        # at rank 2, (a.s1)^2 = S1.A and so (S1.A)^2 = a.s1: the oracle
        # holds only the entry of u^-1 and serves u from it
        system = p_k3_m1_r2.relator_system(2)
        u = Word.parse("a.s1.a.s1").letters
        warm = RankOracle(system)
        assert warm.canonical(inverse_letters(u), budget) == (Word.parse("a.s1").letters, True)
        (key,) = warm._components
        assert warm.canonical(u, budget) == (Word.parse("S1.A").letters, True)
        assert list(warm._components) == [key]
        assert key[0] == inverse_encoded(encode_letters(u))

    @pytest.mark.parametrize("which", ["k3-m1", "k5-m2"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_served_answers_run_no_closure(self, mirror_systems, which, data):
        # a memo hit on u and a mirror hit on u^-1 are read from u's entry
        system = mirror_systems[which]
        u = data.draw(reduced_words_of(system))
        warm = RankOracle(system)
        assume(warm.canonical(u)[1])

        def no_closure(*args, **kwargs):
            raise AssertionError("a served query ran _closure")

        warm._closure = no_closure
        for w in (u, inverse_letters(u)):
            cold = RankOracle(system).canonical(w)
            assert warm.canonical(w) == cold
            code = encode_letters(w)
            assert warm.canonical_encoded(code) == (encode_letters(cold[0]), cold[1])


class TestReachabilityWithinACap:
    """Reachability within a cap is not symmetric: a move that deletes a
    whole context whose neighbours then cancel has no inverse move in the
    cap.  So a member of a complete component can reach less than the start
    that holds it, and `RankOracle._components` stays keyed by start."""

    @pytest.mark.parametrize("start, member, cap, cyclic, member_component", [
        ("a.s1.s1.s1.A", "", 5, False, {"", "s1.s1.s1", "S1.S1.S1"}),
        ("a.s1.s1.s1.A.b", "b", 6, True, {"b", "b.s1.s1.s1", "b.S1.S1.S1"}),
    ], ids=["linear", "cyclic"])
    def test_a_member_reaches_a_subset(self, p_k3_m1_r1, start, member, cap, cyclic,
                                       member_component):
        oracle = RankOracle(p_k3_m1_r1.relator_system(1))  # the relator s1^3

        def members(word):
            comp = oracle._closure(encode_letters(Word.parse(word).letters), cap,
                                   OracleBudget(), cyclic)
            assert comp.complete
            return {Word._raw(t).format() for t in decoded_parents(oracle, comp)}

        # a memoized linear component keeps only its least word's chain, so
        # each component is read once, from its fresh run
        holder, reached = members(start), members(member)
        assert member in holder
        assert reached == member_component
        assert reached < holder and start not in reached


class TestSuccessorGenerators:
    """The generators build only in-cap, non-repeated moves; the closure must
    still match the reference that builds every move."""

    @pytest.fixture(scope="class")
    def systems(self, p_k3_m1_r1, p_k3_m1_r2):
        # the two ad-hoc relators have subwords that are not cyclically reduced
        # (a.b.A), so a core whose inserted piece trims away keeps shrinking;
        # in the cube such a subword is long enough to start over the cap.
        # The mixed system has relators of lengths 1, 3 and 8, so one room
        # holds some whole contexts and not others.  The last system has no
        # relators: every component is its start.
        return [p_k3_m1_r1.relator_system(1), p_k3_m1_r2.relator_system(2),
                RelatorSystem(A1, [Relator("r", (1, 2, -1, 3) * 2)]),
                RelatorSystem(A1, [Relator("r", (1, 2, -1, 3) * 3)]),
                RelatorSystem(A1, [Relator("x", (1,)), Relator("y", (3, 3, 3)),
                                   Relator("r", (1, 2, -1, 3) * 2)]),
                RelatorSystem(A1, [])]

    @given(seq=raw_m1, which=st.integers(0, 5), cyclic=st.booleans(),
           slack=st.integers(0, 5), stop=st.booleans(),
           max_applications=st.sampled_from([1, 7, 100, 2500, 50_000]))
    # a whole relator inside the word: deleting it leaves a.A to cancel
    @example(seq=[1, 3, 3, 3, -1], which=0, cyclic=False, slack=0, stop=False,
             max_applications=50_000)
    # an {a,b} word whose slack is below the rank-1 ab margin 3: the search
    # must find no move in the cap, as the reference's margin shortcut says
    @example(seq=[1, 2, -1, -2], which=0, cyclic=False, slack=2, stop=False,
             max_applications=50_000)
    # rank 2 has relators of lengths 3 and 6: at slack 2 no insertion fits,
    # at slack 3 those of s1^3 do, in both searches
    @example(seq=[1, 2], which=1, cyclic=False, slack=2, stop=False, max_applications=50_000)
    @example(seq=[1, 2], which=1, cyclic=False, slack=3, stop=False, max_applications=50_000)
    @example(seq=[1, 2], which=1, cyclic=True, slack=2, stop=False, max_applications=50_000)
    @example(seq=[1, 2], which=1, cyclic=True, slack=3, stop=False, max_applications=50_000)
    # (a.b.A.s1)^3 at rooms 4 and 0: the linear overlap index skips the
    # context a.b.A.s1.a.b.A.s1.a.b.A.s1 at a.s1 and keeps it at a.b.A.s1.a.b
    @example(seq=[1, 3], which=3, cyclic=False, slack=4, stop=False, max_applications=50_000)
    @example(seq=[1, 2, -1, 3, 1, 2], which=3, cyclic=False, slack=0, stop=False,
             max_applications=50_000)
    @settings(max_examples=150, deadline=None)
    def test_closure_matches_reference(self, systems, seq, which, cyclic, slack,
                                       stop, max_applications):
        system = systems[which]
        w = Word(seq).letters
        if cyclic:
            core, _ = cyclic_reduce_letters(w)
            w = min_rotation(core)
        cap = len(w) + slack
        # the stop rules of `_decide`: the empty word, or any {a, b} word;
        # the search runs on encoded words
        rule = None if not stop else is_ab_word if cyclic else ().__eq__
        oracle = RankOracle(system)
        comp = oracle._closure(
            encode_letters(w), cap, OracleBudget(max_relator_applications=max_applications),
            cyclic, rule and (lambda s: rule(decode_letters(s))))
        expected = reference_closure(system, w, cap, max_applications, cyclic, stop=rule)
        assert (comp.applications, comp.states, comp.complete, decoded_parents(oracle, comp),
                comp.min_word) == expected
        assert comp.states <= max_applications + 1
        if comp.complete:
            assert comp.applications == comp.states - 1

    @given(seq=raw_m1, which=st.integers(0, 5), cyclic=st.booleans(),
           slack=st.integers(0, 5))
    # the context b.A.s1.a.b.A.s1.a matches all of the word b; the rest of
    # it, inverted to A.S1.a.B.A.S1.a, still trims to a 5-letter core
    @example(seq=[2], which=2, cyclic=True, slack=4)
    # the context (a.b.A.s1)^3 matches a.b.A.s1 at the front of the word and,
    # with its last letter, the word's last letter s1; the 7-letter rest
    # a.B.A.S1.a.B.A is 2 over the cap, and only its own ends trim it to a
    # 5-letter core
    @example(seq=[1, 2, -1, 3, 3], which=3, cyclic=True, slack=0)
    # at rotation 1, v = a.b.b.a: the context a.b.A.s1.a.b.A.s1, whose 8
    # letters are 6 over the room 4 once one is matched, matches exactly a.b;
    # its rest inverted, S1.a.B.A.S1.a, then b.a, with no trim, is a new
    # 8-letter core at the cap, first reached by this move
    @example(seq=[1, 1, 2, 2], which=2, cyclic=True, slack=4)
    # one letter below and at the shortest rank-2 relator, s1^3: the room
    # first holds an insertion at slack 3
    @example(seq=[1, 2], which=1, cyclic=False, slack=2)
    @example(seq=[1, 2], which=1, cyclic=False, slack=3)
    @example(seq=[1, 2], which=1, cyclic=True, slack=2)
    @example(seq=[1, 2], which=1, cyclic=True, slack=3)
    # the linear overlap index at (a.b.A.s1)^3, |T| - 2 = 10 over every room
    # 0..4: the context a.b.A.s1.a.b.A.s1.a.b.A.s1 matches a.s1 on its first
    # letter only and is skipped; it matches a.b.A.s1.a.b, past its first two
    # letters, on 6 letters and is built at room 0, and a.b.A.s1 on 4
    # letters at room 4
    @example(seq=[1, 3], which=3, cyclic=False, slack=4)
    @example(seq=[1, 2, -1, 3, 1, 2], which=3, cyclic=False, slack=0)
    @example(seq=[1, 2, -1, 3], which=3, cyclic=False, slack=4)
    @settings(max_examples=150, deadline=None)
    def test_yields_are_reference_moves_in_cap(self, systems, seq, which, cyclic, slack):
        system = systems[which]
        oracle = RankOracle(system)
        w = Word(seq).letters
        if cyclic:
            core, _ = cyclic_reduce_letters(w)
            w = min_rotation(core)
        cap = len(w) + slack
        if cyclic:
            reference = list(reference_cyclic_moves(system, w, cap))
            successors = oracle._cyclic_successors
        else:
            reference = list(reference_linear_moves(system, w))
            successors = oracle._linear_successors
        yields = [(decode_letters(succ), move)
                  for succ, move in successors(encode_letters(w), cap)]
        in_cap = {(succ, move) for succ, move in reference if len(succ) <= cap}
        assert all(pair in in_cap for pair in yields)

        # the closure charges a word at its first move, so the generators must
        # reach the in-cap words in the reference's order, by the same moves
        def firsts(moves):
            first = {}
            for succ, move in moves:
                if len(succ) <= cap:
                    first.setdefault(succ, move)
            return list(first.items())
        assert firsts(yields) == firsts(reference)

    @given(seq=raw_m1, which=st.integers(0, 5), cyclic=st.booleans(),
           room=st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_no_insertion_below_the_shortest_relator(self, systems, seq, which, cyclic, room):
        # an insertion the repeat rules keep (past rotation 0 in the cyclic
        # search) cancels nothing and adds |T| letters, so below
        # room = min |T| the generators yield none
        system = systems[which]
        assume(room < system.min_relator_len)
        w = Word(seq).letters
        if cyclic:
            core, _ = cyclic_reduce_letters(w)
            w = min_rotation(core)
            yields = RankOracle(system)._cyclic_successors(encode_letters(w), len(w) + room)
        else:
            yields = RankOracle(system)._linear_successors(encode_letters(w), len(w) + room)
        assert not [move for _, move in yields if move[2] == 0 and (move[0] or not cyclic)]

    @given(seq=raw_m1, which=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_left_seam_move_repeats_rotated_move_one_place_left(self, systems, seq, which):
        # w[:p] T^-1 w[p:] == w[:p-1] (T[-1] T[:-1])^-1 w[p-1:] when
        # w[p-1] == T[-1]: the linear generator builds no such move
        system = systems[which]
        w = Word(seq).letters
        index = {c.letters: ci for ci, c in enumerate(system.contexts)}
        words = {move: succ for succ, move in reference_linear_moves(system, w)}
        for (p, ci, _), succ in words.items():
            T = system.contexts[ci].letters
            if p and w[p - 1] == T[-1]:
                assert succ == words[p - 1, index[T[-1:] + T[:-1]], 1]

    @given(seq=raw_m1, which=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_trimming_move_repeats_rotated_move_one_rotation_back(self, systems, seq, which):
        # T^-1 v and (T[-1] T[:-1])^-1 v[-1] v[:-1] are one cyclic word when
        # v[-1] == T[-1]: past rotation 0 the cyclic generator builds no such
        # move.  The cap holds every core, so each comes back canonical.
        system = systems[which]
        core, _ = cyclic_reduce_letters(Word(seq).letters)
        w = min_rotation(core)
        cap = len(w) + system.max_relator_len
        index = {c.letters: ci for ci, c in enumerate(system.contexts)}
        words = {move: succ for succ, move in reference_cyclic_moves(system, w, cap)}
        for (start, ci, _), succ in words.items():
            T = system.contexts[ci].letters
            if start and w[start - 1] == T[-1]:
                assert succ == words[start - 1, index[T[-1:] + T[:-1]], 1]

    def test_insertion_candidates_index_matches_scan(self, tmp_path, monkeypatch):
        # every key the commands of one bench `build` pass ask (both builds,
        # each with its `structure` audit): the records the last-letter index
        # yields are those the scan over every record finds, in index order
        asked = []
        indexed = RankOracle.insertion_candidates

        def record(oracle, room, before, right):
            asked.append((oracle, (room, before, right)))
            return indexed(oracle, room, before, right)

        monkeypatch.setattr(RankOracle, "insertion_candidates", record)
        for rank, k in ((3, 3), (4, 5)):
            out = str(tmp_path / ("rank%d-k%d" % (rank, k)))
            assert cli.main(["build", "--max-rank", str(rank), "--k", str(k),
                             "--workers", "2", "--out-dir", out]) == 0
            assert cli.main(["structure", "--presentation", out + "/presentation.json",
                             "--out-dir", out]) == 0
        assert len({key for _, key in asked}) > 100
        for oracle, (room, before, right) in asked:
            scan = tuple(r for r in oracle.system._records if r[1][0] != right
                         and r[1].endswith(before[max(0, len(before) - (r[3] - room + 1) // 2):]))
            assert indexed(oracle, room, before, right) == scan


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
