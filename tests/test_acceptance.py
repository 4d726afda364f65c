"""Acceptance gate: one test per headline requirement, each checked at its
stated tolerance against an oracle independent of the code path under test
(closed forms, exhaustive scans, hand-built chains, or frozen corpora)."""

import random
import time
from fractions import Fraction

import pytest

from burnlab import cli
from burnlab.cayley import (
    density_bound_chain,
    density_HG,
    enumerate_ball,
    hg_union_elements,
    rank0_hg_count,
    rank0_hg_elements,
    sigma_bound,
)
from burnlab.diagrams import check_condition_A, validate_diagram
from burnlab.errors import InputError
from burnlab.oracle import (
    OracleBudget,
    verify_equality_witness,
    verify_into_ab_witness,
)
from burnlab.presentation import SmallCancellationParams
from burnlab.probability import quotient_return_probability, torsion_dichotomy_test
from burnlab.words import (
    Alphabet,
    Word,
    cyclic_reduce_letters,
    min_rotation,
    reduced_words_up_to,
)

from diagram_corpus import EXPECTED, build_corpus, presentations


def test_free_oracle_matches_reduction_oracles(free_m1, budget):
    """Empty relator set: equality == letter-tuple identity, conjugacy ==
    cyclic rotation of cores, exhaustive over |w| <= 6 at m=1, no unknowns."""
    t0 = time.monotonic()
    oracle = free_m1.oracle(0)
    words = list(reduced_words_up_to(free_m1.alphabet, 6))
    assert len(words) == 23437

    # canonical forms decide all ~549M pairs at once: two words are oracle
    # equal iff their canonicals match, and the canonical of a reduced word
    # in the free stage must be the word itself
    for t in words:
        canon, complete = oracle.canonical(t, budget)
        assert complete and canon == t
        core, _ = cyclic_reduce_letters(t)
        comp = oracle.cyclic_component(t, budget)
        assert comp.complete and comp.min_word == min_rotation(core)

    # spot-check the pair API itself: all pairs to length 2, sampled to 6
    short = [t for t in words if len(t) <= 2]
    for u in short:
        for v in short:
            eq = oracle.equal(Word._raw(u), Word._raw(v), budget)
            assert not eq.is_unknown
            assert eq.is_yes == (u == v)
    rng = random.Random(20260815)
    cores = {t: min_rotation(cyclic_reduce_letters(t)[0]) for t in words}
    for _ in range(2000):
        u = words[rng.randrange(len(words))]
        v = words[rng.randrange(len(words))]
        eq = oracle.equal(Word._raw(u), Word._raw(v), budget)
        cj = oracle.conjugate(Word._raw(u), Word._raw(v), budget)
        assert not eq.is_unknown and not cj.is_unknown
        assert eq.is_yes == (u == v)
        assert cj.is_yes == (cores[u] == cores[v])
    assert time.monotonic() - t0 < 60


def test_ab_norms_exact_at_margin(p_k5_m2_r2, budget):
    """k=5, m=2 through rank 2: every reduced {a,b} word of length <= 6 has
    certified norm equal to its length (positive lengthening margin)."""
    t0 = time.monotonic()
    assert p_k5_m2_r2.relator_system(2).ab_margin == 4
    oracle = p_k5_m2_r2.oracle(2)
    count = 0
    for t in reduced_words_up_to(p_k5_m2_r2.alphabet, 6, letters=[1, -1, 2, -2]):
        norm = oracle.norm(Word._raw(t), budget)
        assert norm.exact and norm.lower == norm.upper == len(t), t
        count += 1
    assert count == 1457
    assert time.monotonic() - t0 < 120


def test_union_enumeration_matches_scan(free_m1, budget):
    """Rank 0, n <= 6: the conjugate-union enumeration V K V^-1 returns the
    same element set as the direct cyclic-core scan, element for element."""
    ball = enumerate_ball(free_m1, 0, 3, budget)
    for n in range(7):
        scan = rank0_hg_elements(free_m1.alphabet, n)
        union, flag = hg_union_elements(free_m1, ball, n, budget)
        assert flag == "exact"
        assert union == scan, n
        assert len(scan) == rank0_hg_count(free_m1.alphabet, n)
    assert len(scan) == 1937


def test_density_rows_decrease_with_bound(free_m2, budget):
    """m=2 exact density ratios strictly decrease over n=2..7 and each count
    stays below the pair-counting bound, all in integer arithmetic."""
    alphabet = Alphabet(2)
    rows = [density_HG(free_m2, 0, n, budget) for n in range(2, 8)]
    ratios = [r.ratio_hi for r in rows]
    assert ratios == [
        Fraction(17, 65), Fraction(69, 457), Fraction(225, 3201),
        Fraction(805, 22409), Fraction(2545, 156865), Fraction(8549, 1098057)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    for row, n in zip(rows, range(2, 8)):
        assert row.hg_hi <= sigma_bound(alphabet, n)
    assert [sigma_bound(alphabet, n) for n in range(2, 8)] == \
        [31, 124, 477, 1666, 5755, 18936]


def test_bound_chain_exact():
    """Every displayed inequality line holds for alpha in {8,10,15} up to
    n=30, and the decay comparison flips exactly below the alpha=7 boundary
    (7 itself holds: 3+sqrt(8) < 6 in exact arithmetic)."""
    for alpha in (8, 10, 15):
        for n in range(31):
            report = density_bound_chain(n, alpha, C=Fraction(1), N=1)
            assert report.all_lines_hold, (alpha, n)
            assert report.decays
    for alpha in range(2, 7):
        assert not density_bound_chain(5, alpha).decays
    assert density_bound_chain(5, 7).decays
    assert density_bound_chain(10, 15).geometric_ratio == Fraction(1, 1024)


def test_torsion_dichotomy_total_with_replay(p_k3_m1_r2):
    """Rank-2 ball(3), k=3 m=1: every element gets a structured verdict, all
    issued witnesses replay, and nothing double-certifies inconsistently."""
    budget = OracleBudget(max_relator_applications=2500)
    ball = enumerate_ball(p_k3_m1_r2, 2, 3, budget)
    assert ball.count == 159
    system = p_k3_m1_r2.relator_system(2)
    statuses = {"power-torsion": 0, "conjugate-into-H": 0, "both": 0,
                "neither": 0, "unknown": 0}
    bad_replays = 0
    for t in ball.elements:
        w = Word._raw(t)
        v = torsion_dichotomy_test(p_k3_m1_r2, w, 2, budget)
        statuses[v.status] += 1  # KeyError here would mean a non-verdict
        if v.torsion.is_yes:
            if not verify_equality_witness(
                    system, (w ** v.exponent).letters, (), v.torsion.witness):
                bad_replays += 1
        if v.into_h.is_yes:
            if not verify_into_ab_witness(system, t, v.into_h.witness):
                bad_replays += 1
        if v.status == "both":
            assert v.torsion.is_yes and v.into_h.is_yes
        if v.status == "unknown":
            assert v.torsion.is_unknown or v.into_h.is_unknown
    assert bad_replays == 0
    assert statuses == {"power-torsion": 50, "conjugate-into-H": 60,
                        "both": 1, "neither": 48, "unknown": 0}
    decided = sum(n for s, n in statuses.items() if s != "unknown")
    assert decided * 3 >= 2 * ball.count


def test_quotient_return_within_tolerance(p_k3_m1_r1):
    """Lazy uniform s-walk on the Z/3 quotient: sampled return probability at
    30 steps sits within 0.02 of the exact 3-state chain value."""
    third = Fraction(1, 3)
    state = [Fraction(1), Fraction(0), Fraction(0)]
    for _ in range(30):
        state = [third * (state[i] + state[(i - 1) % 3] + state[(i + 1) % 3])
                 for i in range(3)]
    exact = state[0]
    assert exact == Fraction(1, 3)  # rho = 0 for the uniform lazy step

    est = quotient_return_probability(p_k3_m1_r1, 1, steps=30, trials=100000,
                                      seed=2026)
    assert est.unknown == 0
    assert abs(float(est.p_lo) - float(exact)) <= 0.02
    assert est.wilson_lo <= float(exact) <= est.wilson_hi


def test_diagram_corpus_verdicts():
    """Curated corpus (single-cell pass, spiked A1 failure, non-geodesic A2
    failures, ...) reproduces every frozen verdict; Euler count holds on all
    valid diagrams."""
    pres = presentations()
    corpus = build_corpus()
    assert len(corpus) >= 10
    for name, exp in EXPECTED.items():
        key, diagram = corpus[name]
        report = validate_diagram(diagram, pres[key])
        assert report.ok == exp["ok"], name
        if not exp["ok"]:
            assert any(exp["error"] in e for e in report.errors)
            continue
        assert report.euler_sphere == 2, name
        a = check_condition_A(diagram, pres[key], validation=report)
        assert a.summary == exp["A"], name


def test_parameter_gate_messages():
    """Each constraint violation dies with its own named message; the small-k
    waiver downgrades only the epsilon*k bound to a recorded caveat."""
    cases = {
        "C-ORDER": dict(k=3, alpha="1/200", beta="1/100", allow_small_k=True),
        "C-ALPHA-BAR": dict(k=3, alpha="9/20", beta="1/3", gamma="1/4",
                            epsilon="1/8", zeta="1/16", allow_small_k=True),
        "C-EPSILON-K": dict(k=3),
    }
    messages = {}
    for code, kwargs in cases.items():
        with pytest.raises(InputError) as err:
            SmallCancellationParams(**kwargs)
        assert code in str(err.value), code
        messages[code] = str(err.value)
    assert len(set(messages.values())) == len(messages)
    waived = SmallCancellationParams(k=3, allow_small_k=True)
    assert any("C-EPSILON-K" in c for c in waived.caveats)
    assert SmallCancellationParams(k=2001).caveats == ()


def test_worker_count_invariance(tmp_path, monkeypatch):
    """build and density artifacts are byte-identical between 1-worker and
    8-worker runs."""
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    blobs = {}
    for workers in ("1", "8"):
        out = tmp_path / ("w%s" % workers)
        assert cli.main(["build", "--max-rank", "1", "--workers", workers,
                         "--out-dir", str(out)]) == 0
        assert cli.main(["density", "--rank", "1", "--n-max", "3",
                         "--method", "union", "--workers", workers,
                         "--presentation", str(out / "presentation.json"),
                         "--out-dir", str(out)]) == 0
        blobs[workers] = (
            (out / "presentation.json").read_bytes(),
            (out / "density-rank1.csv").read_bytes(),
        )
    assert blobs["1"] == blobs["8"]
