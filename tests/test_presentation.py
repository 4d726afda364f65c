"""Graded presentations: the admission procedure, frozen small builds, the
parameter gate, structure auditing, and the JSON codec."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burnlab import oracle as oracle_module
from burnlab import presentation as presentation_module
from burnlab.errors import InputError
from burnlab.oracle import (
    OracleBudget,
    RankOracle,
    verify_conjugacy_witness,
    verify_into_ab_witness,
)
from burnlab.presentation import (
    GradedPresentation,
    SmallCancellationParams,
    canonical_cyclic_candidates,
)
from burnlab.words import (
    Alphabet,
    Word,
    cyclic_rep,
    decode_letters,
    encode_letters,
    is_ab_letter,
    shortlex_key,
)

from conftest import small_k_params
from fuzz_docs import DELETE, doc_paths, json_values, mutated


def _root(t):
    """Shortest u with t == u^j."""
    n = len(t)
    return next((t[:d] for d in range(1, n) if n % d == 0 and t[:d] * (n // d) == t), t)


def reference_is_simple(pres, word, rank, budget):
    """(status, reason, target) of `is_simple`'s rules applied to the cyclic
    component of the word, searched with no stop rule on a fresh oracle: the
    first member, in the order the search adds them, that is written over
    {a, b} or is a period power names the reason (a stopped search is a
    prefix of that order).  `target` is, for an in-ab rejection that needed
    the search, the {a, b} word a cold `conjugate_into_ab` query names, for
    the detail; otherwise None."""
    oracle = RankOracle(pres.relator_system(rank))
    w = cyclic_rep(word.letters)
    if not w:
        return "not-simple", "shorter-or-power", None
    if _root(w) != w:
        return "not-simple", "free-power", None
    if all(is_ab_letter(x) for x in w):
        return "not-simple", "in-ab", None
    comp = oracle._closure(encode_letters(w), len(w) + budget.max_ball_radius, budget,
                           cyclic=True)
    powers = {cyclic_rep(p.letters * t) for j in range(1, rank + 1)
              for p in pres.periods(j) for t in range(1, pres.params.k)}
    members = [decode_letters(s) for s in comp.parents]
    for member in members:
        if member in powers:
            return "not-simple", "period-power", None
        if all(is_ab_letter(x) for x in member):
            in_ab = RankOracle(pres.relator_system(rank)).conjugate_into_ab(w, budget)
            return "not-simple", "in-ab", in_ab.witness["target"]
    for member in members:
        base = _root(member)
        if len(member) < len(w) or len(base) < len(w) and len(base) < len(member):
            return "not-simple", "shorter-or-power", None
    if not comp.complete:
        return "unknown", "budget", None
    return "simple", None, None


class TestParameterGate:
    def test_defaults_need_the_small_k_waiver(self):
        with pytest.raises(InputError, match="C-EPSILON-K"):
            SmallCancellationParams(k=3)
        params = SmallCancellationParams(k=3, allow_small_k=True)
        assert len(params.caveats) == 1 and "C-EPSILON-K" in params.caveats[0]

    def test_large_k_passes_clean(self):
        params = SmallCancellationParams(k=2001)
        assert params.caveats == ()
        assert params.epsilon * params.k > 2

    def test_even_k_rejected(self):
        with pytest.raises(InputError, match="C-K-ODD"):
            SmallCancellationParams(k=4, allow_small_k=True)

    def test_order_chain_rejected(self):
        with pytest.raises(InputError, match="C-ORDER"):
            SmallCancellationParams(k=3, alpha="1/200", beta="1/100",
                                    allow_small_k=True)

    def test_half_plus_alpha_band_rejected(self):
        with pytest.raises(InputError, match="C-ALPHA-BAR"):
            SmallCancellationParams(k=3, alpha="9/20", beta="1/3", gamma="1/4",
                                    epsilon="1/8", zeta="1/16",
                                    allow_small_k=True)

    def test_hard_violation_not_waivable(self):
        with pytest.raises(InputError, match="C-K-ODD"):
            SmallCancellationParams(k=2, allow_small_k=True)

    def test_messages_are_distinct_per_constraint(self):
        cases = {
            "C-K-ODD": dict(k=4, allow_small_k=True),
            "C-ORDER": dict(k=3, alpha="1/200", beta="1/100", allow_small_k=True),
            "C-ALPHA-BAR": dict(k=3, alpha="9/20", beta="1/3", gamma="1/4",
                                epsilon="1/8", zeta="1/16", allow_small_k=True),
            "C-EPSILON-K": dict(k=3),
        }
        messages = {}
        for code, kwargs in cases.items():
            with pytest.raises(InputError) as err:
                SmallCancellationParams(**kwargs)
            assert code in str(err.value)
            messages[code] = str(err.value)
        assert len(set(messages.values())) == len(messages)

    def test_fractions_parse_from_strings(self):
        params = small_k_params()
        from fractions import Fraction
        assert params.alpha == Fraction(1, 100)
        assert params.alpha_bar == Fraction(51, 100)
        assert params.gamma_bar == Fraction(299, 300)

    def test_dict_round_trip(self):
        params = small_k_params(k=5)
        again = SmallCancellationParams.from_dict(params.to_dict())
        assert again == params
        with pytest.raises(InputError, match="missing field"):
            SmallCancellationParams.from_dict({"k": 3})


class TestFrozenBuilds:
    def test_rank1_m1(self, p_k3_m1_r1):
        assert [p.format() for p in p_k3_m1_r1.periods(1)] == ["s1"]

    def test_rank1_m2(self, p_k5_m2_r2):
        assert [p.format() for p in p_k5_m2_r2.periods(1)] == ["s1", "s2"]

    def test_rank2_m1_k3(self, p_k3_m1_r2):
        assert [p.format() for p in p_k3_m1_r2.periods(2)] == \
            ["a.s1", "a.S1", "b.s1", "b.S1"]

    def test_rank2_m2_k5(self, p_k5_m2_r2):
        assert [p.format() for p in p_k5_m2_r2.periods(2)] == \
            ["a.s1", "a.S1", "a.s2", "a.S2", "b.s1", "b.S1", "b.s2", "b.S2",
             "s1.s2", "s1.S2"]

    def test_relators_are_kth_powers_with_ranked_ids(self, p_k3_m1_r2):
        rels = p_k3_m1_r2.relators(2)
        assert [r.id for r in rels] == ["x1.0", "x2.0", "x2.1", "x2.2", "x2.3"]
        assert rels[0].word == Word.parse("s1.s1.s1").letters
        assert rels[1].word == Word.parse("a.s1") .letters * 3
        assert all(r.rank == int(r.id[1]) for r in rels)

    def test_relator_list_is_cumulative(self, p_k3_m1_r2):
        assert len(p_k3_m1_r2.relators(1)) == 1
        assert len(p_k3_m1_r2.relators(2)) == 5

    def test_admission_reasons_recorded(self):
        pres = GradedPresentation(Alphabet(1), small_k_params())
        report = pres.build_next_rank(budget=OracleBudget())
        reasons = {r.word: (r.outcome, r.reason) for r in report.records}
        assert reasons["s1"] == ("admitted", None)
        assert reasons["a"][0] == "rejected" and reasons["a"][1] == "in-ab"
        assert reasons["S1"] == ("rejected", "conjugate-duplicate")
        assert not report.approximate

    def test_rank2_rejects_free_powers_syntactically(self, p_k3_m1_r2):
        pres = GradedPresentation(Alphabet(1), small_k_params())
        pres.build_next_rank(budget=OracleBudget())
        report = pres.build_next_rank(budget=OracleBudget())
        reasons = {r.word: r.reason for r in report.records
                   if r.outcome == "rejected"}
        assert reasons["aa"] == "free-power"
        assert reasons["s1.S1"] is None if "s1.S1" in reasons else True
        assert reasons["s1.s1"] == "free-power"

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_candidates_come_in_shortlex_order(self, m):
        for n in range(7):
            candidates = canonical_cyclic_candidates(Alphabet(m), n)
            assert candidates == sorted(candidates, key=shortlex_key), (m, n)


class TestSimplicity:
    def test_periods_lose_simplicity_in_their_own_rank(self, p_k3_m1_r1, budget):
        assert p_k3_m1_r1.is_simple(Word.parse("s1"), 1, budget).status == "not-simple"

    def test_free_powers_never_simple(self, p_k3_m1_r1, budget):
        assert p_k3_m1_r1.is_simple(Word.parse("aa"), 1, budget).status == "not-simple"

    def test_fresh_mixed_word_is_simple(self, p_k3_m1_r1, budget):
        assert p_k3_m1_r1.is_simple(Word.parse("a.s1"), 1, budget).status == "simple"


class TestEarlyStop:
    """`is_simple` stops its one cyclic search at the first word it reaches
    that is written over {a, b} or is a period power: its verdicts are those
    of the rules applied to the whole component with that word named first,
    a stopped search is not memoized, and a simple candidate's complete
    component is, for `build_next_rank` to reuse."""

    @pytest.fixture(scope="class", params=[(3, 4), (5, 3)], ids=["k3-rank4", "k5-rank3"])
    def ladder(self, request):
        # the presentation built to the rank below `top`, so it can ask every
        # candidate of ranks 1..top
        k, top = request.param
        pres, _ = GradedPresentation.build(Alphabet(1), small_k_params(k), top - 1,
                                           OracleBudget())
        return pres, top

    def test_verdicts_match_the_complete_component(self, ladder, budget):
        pres, top = ladder
        for n in range(1, top + 1):
            for t in canonical_cyclic_candidates(pres.alphabet, n):
                verdict = pres.is_simple(Word(t), n - 1, budget)
                status, reason, target = reference_is_simple(pres, Word(t), n - 1, budget)
                assert (verdict.status, verdict.reason) == (status, reason), t
                if target is not None:
                    assert verdict.detail == "conjugate to " + target, t

    def test_period_power_rejections_are_not_memoized(self, ladder, budget):
        pres, top = ladder
        rejected = 0
        for n in range(1, top + 1):
            oracle = pres.oracle(n - 1)
            for t in canonical_cyclic_candidates(pres.alphabet, n):
                if pres.is_simple(Word(t), n - 1, budget).reason == "period-power":
                    rejected += 1
                    key = (encode_letters(t), n + budget.max_ball_radius, True)
                    assert key not in oracle._components, t
        assert rejected == {3: 84, 5: 0}[pres.params.k]

    def test_build_reuses_the_simple_candidates_component(self, budget):
        pres, _ = GradedPresentation.build(Alphabet(1), small_k_params(), 3, budget)
        oracle = pres.oracle(3)
        calls = []
        search = oracle.cyclic_component

        def spy(u, budget=None, stop=None):
            comp = search(u, budget, stop)
            calls.append((u, stop is None, comp))
            return comp

        oracle.cyclic_component = spy
        report = pres.build_next_rank(budget)
        checked = {u: comp for u, plain, comp in calls if not plain}
        reused = [(u, comp) for u, plain, comp in calls if plain]
        simple = [r for r in report.records
                  if r.outcome == "admitted" or r.reason == "conjugate-duplicate"]
        assert len(reused) == len(simple) == 52
        for u, comp in reused:
            assert comp.complete and comp is checked[u]
            assert oracle._components[encode_letters(u), comp.cap, True] is comp


GOLDEN = Path(__file__).parent / "data" / "golden"


def golden_presentation(name):
    return GradedPresentation.from_json((GOLDEN / name / "presentation.json").read_text())


class TestFirstRejectingWord:
    """The first word `is_simple`'s search reaches that is over {a, b} or a
    period power names the reason, and only a complete component is kept."""

    def test_rank6_word_reaches_a_period_power_first(self, budget):
        # `build --max-rank 5` at k=3; at rank 5, a.a.a.s1.a.S1 is conjugate
        # both to the rank-5 period a.a.s1.A.S1 and into {a, b} (to aaaa), so
        # a^12 = 1 there; its search meets the period first
        pres = golden_presentation("build-rank5-k3")
        word, period = Word.parse("a.a.a.s1.a.S1"), Word.parse("a.a.s1.A.S1")
        assert period in pres.periods(5)
        verdict = pres.is_simple(word, 5, budget)
        assert (verdict.status, verdict.reason) == ("not-simple", "period-power")
        assert verdict.detail == "conjugate to x5 power 1 (a.a.s1.A.S1)"
        oracle = pres.oracle(5)
        conj = oracle.conjugate(word, period, budget)
        into_ab = oracle.conjugate_into_ab(word, budget)
        assert conj.is_yes and into_ab.is_yes and into_ab.witness["target"] == "aaaa"
        assert verify_conjugacy_witness(oracle.system, word.letters, period.letters,
                                        conj.witness)
        assert verify_into_ab_witness(oracle.system, word.letters, into_ab.witness)

    def test_period_power_rejections_leave_no_component(self, budget):
        # rank-5 candidates whose exponent residue modulo {a, b} is zero: a
        # separate search into {a, b} would exhaust and keep their components
        pres = golden_presentation("build-rank4-k3")
        oracle, system = pres.oracle(4), pres.relator_system(4)
        checked = 0
        for t in canonical_cyclic_candidates(pres.alphabet, 5):
            if any(system.lattice_mod_ab.reduce(system.expvec(t))):
                continue
            kept = len(oracle._components)
            if pres.is_simple(Word(t), 4, budget).reason == "period-power":
                assert len(oracle._components) == kept, Word(t).format()
                checked += 1
                if checked == 5:
                    break
        assert checked == 5


class TestCanonicallyDistinctYetEqual:
    """At k=3, m=1, rank 5, a^6 and A^6 both have complete canonical forms
    that differ, and no certificate separates them, yet a^6 = A^6: A^4 is
    conjugate to p^2 for the period p = a.a.s1.A.S1, p^3 is a relator, so
    A^12 = 1.  A ball holding both elements counts one element twice while
    every canonicalization in it is complete."""

    def test_a6_and_A6(self, budget):
        pres = golden_presentation("build-rank5-k3")
        system = pres.relator_system(5)
        a6, A6 = Word.parse("aaaaaa"), Word.parse("AAAAAA")
        cold = [RankOracle(system).canonical(w, budget) for w in (a6, A6)]
        assert cold == [(a6.letters, True), (A6.letters, True)]
        # the second query is served from the first one's entry
        warm = RankOracle(system)
        assert [warm.canonical(w, budget) for w in (a6, A6)] == cold
        assert len(warm._components) == 1

        verdict = RankOracle(system).equal(a6, A6, budget)
        assert verdict.is_no and verdict.certificate["kind"] == "exhaustion"

        period_squared = Word.parse("a.a.s1.A.S1.a.a.s1.A.S1")
        conj = RankOracle(system).conjugate(Word.parse("AAAA"), period_squared, budget)
        assert conj.is_yes
        assert verify_conjugacy_witness(system, Word.parse("AAAA").letters,
                                        period_squared.letters, conj.witness)


def reference_p3(pres, budget):
    """Status of every pair P3 asks about, keyed (rank, i1, i2, inverse?),
    and the P3 failures they give, from one `RankOracle.conjugate` query per
    pair on a fresh copy of the presentation."""
    fresh = GradedPresentation.from_dict(pres.to_dict())
    statuses, failures = {}, []
    for j in range(1, fresh.max_rank + 1):
        oracle = fresh.oracle(j - 1)
        ps = fresh.periods(j)
        for i1 in range(len(ps)):
            for i2 in range(i1 + 1, len(ps)):
                for inverse, other in enumerate((ps[i2], ~ps[i2])):
                    status = oracle.conjugate(ps[i1], other, budget).status
                    statuses[j, i1, i2, inverse] = status
                    if status == "yes":
                        failures.append(("P3", j, "periods %s and %s are conjugate in rank %d"
                                         % (ps[i1].format(), ps[i2].format(), j - 1)))
                        break
                    if status == "unknown" and not fresh.approximate(j):
                        failures.append(("P3", j, "conjugacy of %s and %s undecided but rank "
                                         "not flagged approximate"
                                         % (ps[i1].format(), ps[i2].format())))
    return statuses, failures


@pytest.fixture
def verdict_calls(monkeypatch):
    """(query name, first word) of every `RankOracle.equal`, `conjugate` and
    `conjugate_into_ab` call made while the test runs."""
    calls = []

    def spy(name):
        query = getattr(RankOracle, name)

        def counted(self, u, *args, **kwargs):
            calls.append((name, u))
            return query(self, u, *args, **kwargs)
        return counted

    for name in ("equal", "conjugate", "conjugate_into_ab"):
        monkeypatch.setattr(RankOracle, name, spy(name))
    return calls


class TestOneConjugacyTest:
    """P3 decides each pair of periods from the earlier period's cyclic
    component, as `build_next_rank` does, and asks `RankOracle.conjugate`
    nothing: an incomplete component answers from the exponent residue, and
    every status is the one that query gives."""

    @pytest.fixture(scope="class", params=[(1, 3, 3), (1, 5, 4), (2, 5, 2), (2, 3, 2)],
                    ids=["m1-k3-rank3", "m1-k5-rank4", "m2-k5-rank2", "m2-k3-rank2"])
    def built(self, request):
        m, k, rank = request.param
        pres, _ = GradedPresentation.build(Alphabet(m), small_k_params(k), rank,
                                           OracleBudget())
        return pres

    @pytest.mark.parametrize("audit_budget", [
        OracleBudget(), OracleBudget(max_relator_applications=3),
        OracleBudget(max_relator_applications=40),
        OracleBudget(max_ball_radius=1, max_relator_applications=10),
    ], ids=["default", "3-moves", "40-moves", "radius1-10-moves"])
    def test_statuses_match_pairwise_conjugate(self, built, audit_budget, verdict_calls):
        expected, expected_failures = reference_p3(built, audit_budget)
        pres = GradedPresentation.from_dict(built.to_dict())
        report = pres.verify_structure(audit_budget)
        assert [f for f in report.failures if f[0] == "P3"] == expected_failures
        fallbacks = len(verdict_calls) - len(expected)
        for (j, i1, i2, inverse), status in expected.items():
            p, q = pres.periods(j)[i1], pres.periods(j)[i2]
            q_rep = cyclic_rep((~q if inverse else q).letters)
            assert (pres._conjugacy_test(p.letters, j - 1, audit_budget)(encode_letters(q_rep))
                    == status)
        assert fallbacks == 0
        # 3 moves leave earlier periods' components incomplete, so the
        # residue rule answers there (but at m=2, k=5, where every rank-1
        # component needs at most 3)
        incomplete = [p for j in range(1, pres.max_rank + 1) for p in pres.periods(j)[:-1]
                      if not pres.oracle(j - 1).cyclic_component(p, audit_budget).complete]
        three = audit_budget.max_relator_applications == 3
        assert bool(incomplete) == (three and (pres.alphabet.m, pres.params.k) != (2, 5))

    def test_clean_audit_makes_no_conjugate_query(self, verdict_calls):
        pres, _ = GradedPresentation.build(Alphabet(1), small_k_params(5), 4)
        report = GradedPresentation.from_dict(pres.to_dict()).verify_structure()
        assert report.ok and verdict_calls == []


@pytest.mark.parametrize("budget", [OracleBudget(), OracleBudget(max_relator_applications=3)],
                         ids=["default", "3-moves"])
def test_build_and_audit_ask_no_verdict_query(budget, verdict_calls):
    """Admission and the structure audit read cyclic components only."""
    pres, reports = GradedPresentation.build(Alphabet(1), small_k_params(), 4, budget)
    report = pres.verify_structure(budget)
    assert verdict_calls == []
    assert report.ok
    # the tiny budget leaves candidates undecided, so that path ran too
    assert any(r.approximate for r in reports) == (budget.max_relator_applications == 3)


def test_build_reads_components_encoded(monkeypatch):
    """The admission rules take the oracle's encoded members as they are:
    a rank decodes no more words than its report has records, the ones
    a rejection's detail names."""
    pres, _ = GradedPresentation.build(Alphabet(1), small_k_params(), 2)
    pres.oracle(2)  # building the relator system decodes its contexts once
    decoded = []

    def counting(s):
        decoded.append(s)
        return decode_letters(s)

    for module in (oracle_module, presentation_module):
        monkeypatch.setattr(module, "decode_letters", counting)
    report = pres.build_next_rank()
    assert len(report.records) == 46
    assert len(decoded) <= len(report.records)


class TestStructureAudit:
    def test_clean_builds_verify(self, p_k3_m1_r2, p_k5_m2_r2, budget):
        assert p_k3_m1_r2.verify_structure(budget).ok
        assert p_k5_m2_r2.verify_structure(budget).ok

    def test_duplicate_period_flagged(self, budget):
        pres = GradedPresentation(
            Alphabet(1), small_k_params(),
            [([Word.parse("s1")], False),
             ([Word.parse("a.s1"), Word.parse("a.s1")], False)])
        report = pres.verify_structure(budget)
        assert not report.ok
        assert any(code == "P3" for code, _, _ in report.failures)

    def test_noncanonical_rotation_rejected_at_construction(self):
        with pytest.raises(InputError, match="canonical"):
            GradedPresentation(
                Alphabet(1), small_k_params(),
                [([Word.parse("s1")], False), ([Word.parse("s1.a")], False)])

    def test_audit_recatches_corrupted_periods(self, budget):
        # the constructor guards rotation shape, so corrupt the stored state
        # directly to prove the audit re-derives P1 instead of trusting it
        pres = GradedPresentation(
            Alphabet(1), small_k_params(),
            [([Word.parse("s1")], False), ([Word.parse("a.s1")], False)])
        pres._periods[1] = (Word.parse("s1.a"),)
        report = pres.verify_structure(budget)
        assert not report.ok
        assert any(code == "P1" for code, _, _ in report.failures)

    def test_nonsimple_period_flagged(self, budget):
        pres = GradedPresentation(
            Alphabet(1), small_k_params(),
            [([Word.parse("s1")], False), ([Word.parse("ab")], False)])
        report = pres.verify_structure(budget)
        assert not report.ok
        assert any(code == "P2" for code, _, _ in report.failures)


# a valid presentation document, and every place in it a mutation can reach
VALID_DOC = GradedPresentation(
    Alphabet(1), small_k_params(),
    [([Word.parse("s1")], False), ([Word.parse("a.s1"), Word.parse("b.s1")], True)]).to_dict()


class TestCodec:
    @given(path=st.sampled_from(list(doc_paths(VALID_DOC))),
           value=json_values | st.just(DELETE))
    @example(path=("ranks", 0, "periods", 0), value="S" + "9" * 5000)
    @example(path=("ranks", 0, "periods", 0), value="s\u00b2")  # a digit int() refuses
    @example(path=("params", "k"), value=4611686018427387905)
    @settings(max_examples=300, deadline=None)
    def test_mutated_document_loads_or_raises_input_error(self, path, value):
        try:
            GradedPresentation.from_json(json.dumps(mutated(VALID_DOC, path, value)))
        except InputError:
            pass

    @pytest.mark.parametrize("text", [
        '{"alphabet": {"m": %s}}' % ("9" * 5000), "[" * 100_000,
    ], ids=["5000-digit-integer", "deep-nesting"])
    def test_unparseable_json_raises_input_error(self, text):
        with pytest.raises(InputError, match="not valid JSON"):
            GradedPresentation.from_json(text)

    def test_json_round_trip(self, p_k3_m1_r2):
        again = GradedPresentation.from_json(p_k3_m1_r2.to_json())
        assert again.alphabet == p_k3_m1_r2.alphabet
        assert again.params == p_k3_m1_r2.params
        assert again.max_rank == p_k3_m1_r2.max_rank
        for j in range(1, 3):
            assert again.periods(j) == p_k3_m1_r2.periods(j)

    def test_round_trip_preserves_approximate_flag(self):
        pres = GradedPresentation(
            Alphabet(1), small_k_params(), [([Word.parse("s1")], True)])
        data = json.loads(pres.to_json())
        assert data["ranks"][0]["approximate"] is True
        again = GradedPresentation.from_json(pres.to_json())
        assert again.approximate(1)

    def test_bad_documents_rejected(self):
        with pytest.raises(InputError):
            GradedPresentation.from_json("{not json")
        with pytest.raises(InputError):
            GradedPresentation.from_json(json.dumps({"alphabet": {"m": 1}}))

    def test_rank_blocks_must_be_contiguous(self, p_k3_m1_r2):
        data = json.loads(p_k3_m1_r2.to_json())
        data["ranks"][1]["rank"] = 3
        with pytest.raises(InputError, match="contiguous"):
            GradedPresentation.from_json(json.dumps(data))

    def test_stored_params_pass_the_gate_on_load(self, p_k3_m1_r2):
        data = json.loads(p_k3_m1_r2.to_json())
        data["params"]["k"] = 4
        with pytest.raises(InputError, match="C-K-ODD"):
            GradedPresentation.from_json(json.dumps(data))


class TestBuildDriver:
    def test_build_zero_ranks_is_free(self, budget):
        pres, reports = GradedPresentation.build(
            Alphabet(1), small_k_params(), 0, budget)
        assert pres.max_rank == 0 and reports == []
        assert pres.relators(0) == []

    def test_negative_rank_rejected(self, budget):
        with pytest.raises(InputError):
            GradedPresentation.build(Alphabet(1), small_k_params(), -1, budget)

    def test_build_releases_each_ranks_oracle(self, budget):
        pres, reports = GradedPresentation.build(Alphabet(1), small_k_params(), 3, budget)
        assert not any(rank < 3 for rank in pres._oracles)
        # rank by rank, the oracles stay and the artifacts are the same
        kept = GradedPresentation(Alphabet(1), small_k_params())
        kept_reports = [kept.build_next_rank(budget) for _ in range(3)]
        assert sorted(kept._oracles) == [0, 1, 2]
        assert pres.to_json() == kept.to_json()
        assert reports == kept_reports
        # a released oracle is built again, cold, with the same answers
        assert pres.verify_structure(budget) == kept.verify_structure(budget)
        # one cache per rank: the relator system is the oracle's own
        assert pres.relator_system(3) is pres.oracle(3).system
