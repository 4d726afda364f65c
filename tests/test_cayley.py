"""Ball enumeration, growth tables, conjugate-density rows, exact quadratic
arithmetic, and the decay bound chain."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnlab.cayley import (
    FLAG_EXACT,
    FLAG_UPPER,
    BallResult,
    QuadExt,
    density_HG,
    density_bound_chain,
    density_rows,
    density_rows_to_csv,
    density_rows_to_json,
    enumerate_ball,
    growth,
    hg_union_elements,
    rank0_hg_count,
    rank0_hg_elements,
    sigma_bound,
)
from burnlab.errors import InputError
from burnlab.oracle import OracleBudget
from burnlab.presentation import GradedPresentation
from burnlab.words import (
    Alphabet,
    Word,
    free_ball_size,
    letter_key,
    shortlex_key,
    splice_reduce,
)

AB_LETTERS = [1, -1, 2, -2]


def zzz3_ball_counts(n_max):
    """Independent check for the rank-1 m=1 k=3 quotient, which is the free
    product Z * Z * Z/3.  Geodesic normal forms are alternating syllable
    sequences; the Z factors contribute 2 syllables per length, the Z/3
    factor 2 syllables of length 1 (s1 and its inverse) and nothing longer.
    dp[l][f] counts words of length l whose last syllable sits in factor f."""
    def syllables(factor, length):
        if factor == 2:
            return 2 if length == 1 else 0
        return 2 if length >= 1 else 0

    dp = [[0, 0, 0] for _ in range(n_max + 1)]
    balls = [1]
    for l in range(1, n_max + 1):
        for f in range(3):
            cnt = syllables(f, l)
            for s in range(1, l):
                w = syllables(f, s)
                if w:
                    cnt += w * sum(dp[l - s][g] for g in range(3) if g != f)
            dp[l][f] = cnt
        balls.append(balls[-1] + sum(dp[l]))
    return balls


class TestBallEnumeration:
    def test_free_counts_match_closed_form(self, free_m1, free_m2, budget):
        for pres, size in ((free_m1, 3), (free_m2, 4)):
            ball = enumerate_ball(pres, 0, 4, budget)
            assert ball.flag == FLAG_EXACT
            assert [ball.ball_count(r) for r in range(5)] == \
                [free_ball_size(size, r) for r in range(5)]

    def test_frozen_free_rows(self, free_m1, free_m2, budget):
        assert [free_ball_size(3, r) for r in range(5)] == [1, 7, 37, 187, 937]
        assert free_ball_size(3, 6) == 23437
        assert [free_ball_size(4, r) for r in range(6)] == [1, 9, 65, 457, 3201, 22409]
        assert [free_ball_size(2, r) for r in range(7)] == [1, 5, 17, 53, 161, 485, 1457]

    def test_rank1_quotient_counts(self, p_k3_m1_r1, budget):
        ball = enumerate_ball(p_k3_m1_r1, 1, 3, budget)
        assert ball.flag == FLAG_EXACT
        assert [ball.ball_count(r) for r in range(4)] == [1, 7, 35, 167]
        assert ball.sphere_counts == (1, 6, 28, 132)

    def test_rank1_counts_match_syllable_dp(self, p_k3_m1_r1, budget):
        ball = enumerate_ball(p_k3_m1_r1, 1, 4, budget)
        assert [ball.ball_count(r) for r in range(5)] == zzz3_ball_counts(4)

    def test_rank2_ball3_frozen(self, p_k3_m1_r2, budget):
        ball = enumerate_ball(p_k3_m1_r2, 2, 3, budget)
        assert ball.flag == FLAG_EXACT
        assert ball.count == 159

    def test_elements_sorted_and_distinct(self, p_k3_m1_r1, budget):
        ball = enumerate_ball(p_k3_m1_r1, 1, 3, budget)
        assert list(ball.elements) == sorted(set(ball.elements), key=shortlex_key)
        assert ball.elements[0] == ()

    def test_letter_restriction_gives_subgroup_ball(self, free_m1, budget):
        ball = enumerate_ball(free_m1, 0, 3, budget, letters=AB_LETTERS)
        assert ball.count == free_ball_size(2, 3)
        assert all(abs(x) <= 2 for el in ball.elements for x in el)

    def test_negative_radius_rejected(self, free_m1, budget):
        with pytest.raises(InputError):
            enumerate_ball(free_m1, 0, -1, budget)


def reference_enumerate_ball(presentation, rank, radius, budget=None, letters=None):
    """The ball search on letter tuples through `RankOracle.canonical`, as
    `enumerate_ball` ran before it moved onto encoded words, kept as the
    reference for that move."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    oracle = presentation.oracle(rank)
    gens = sorted(letters if letters is not None else presentation.alphabet.letters(),
                  key=letter_key)
    flag = FLAG_EXACT
    known: set[tuple[int, ...]] = {()}
    spheres: list[int] = [1]
    frontier: list[tuple[int, ...]] = [()]
    for d in range(1, radius + 1):
        new: list[tuple[int, ...]] = []
        for w in frontier:
            for x in gens:
                u = splice_reduce(w, (x,), ())
                canon, complete = oracle.canonical(u, budget)
                if not complete:
                    flag = FLAG_UPPER
                if canon in known:
                    continue
                if len(canon) < d:
                    # a shorter canonical form surfacing late means some merge
                    # was missed at an earlier level; keep counting, flag it
                    flag = FLAG_UPPER
                known.add(canon)
                new.append(canon)
        new.sort(key=shortlex_key)
        spheres.append(len(new))
        frontier = new
    return BallResult(rank, radius, tuple(sorted(known, key=shortlex_key)),
                      tuple(spheres), flag)


@pytest.fixture(scope="module")
def ball_presentations(p_k3_m1_r1, p_k3_m1_r2, p_k5_m2_r2):
    """name -> (the presentation as JSON, its top rank); each example loads
    fresh copies, so that every search starts from an empty memo."""
    return {"k3-m1-r1": (p_k3_m1_r1.to_json(), 1), "k3-m1-r2": (p_k3_m1_r2.to_json(), 2),
            "k5-m2-r2": (p_k5_m2_r2.to_json(), 2)}


tiny_budgets = st.builds(OracleBudget, max_ball_radius=st.integers(0, 4),
                         max_relator_applications=st.integers(1, 8))


class TestBallMatchesReference:
    """`enumerate_ball` on encoded words returns what the letter-tuple
    search returns, cold or warm, in elements, sphere counts and flag; so
    does the ball of each smaller radius it passed through."""

    @staticmethod
    def answers(*balls):
        return [(b.elements, b.sphere_counts, b.flag) for b in balls]

    @given(which=st.sampled_from(["k3-m1-r1", "k3-m1-r2", "k5-m2-r2"]),
           radius=st.integers(0, 4), ab=st.booleans(),
           budget=st.one_of(st.none(), tiny_budgets))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, ball_presentations, which, radius, ab, budget):
        text, rank = ball_presentations[which]
        ref_side, new_side = (GradedPresentation.from_json(text) for _ in range(2))
        letters = AB_LETTERS if ab else None
        args = (rank, radius, budget)
        expected = reference_enumerate_ball(ref_side, *args, letters=letters)
        got = enumerate_ball(new_side, *args, letters=letters)
        # each again on the memo the other one left
        warm = enumerate_ball(ref_side, *args, letters=letters)
        warm_ref = reference_enumerate_ball(new_side, *args, letters=letters)
        assert self.answers(got, warm, warm_ref) == self.answers(expected) * 3
        assert got.within(radius) is got
        for r in range(radius):
            cold = reference_enumerate_ball(GradedPresentation.from_json(text), rank, r,
                                            budget, letters=letters)
            assert got.within(r).radius == r
            assert self.answers(got.within(r), warm.within(r)) == self.answers(cold) * 2

    def test_within_refuses_other_radii(self, free_m1, budget):
        ball = enumerate_ball(free_m1, 0, 2, budget)
        for r in (-1, 3):
            with pytest.raises(InputError, match="outside 0..2"):
                ball.within(r)

    @pytest.mark.parametrize("which, radius, applications", [
        ("k3-m1-r1", 4, 1), ("k3-m1-r2", 3, 2), ("k5-m2-r2", 3, 1)])
    def test_tiny_budget_upper_bound_matches(self, ball_presentations, which, radius,
                                             applications):
        text, rank = ball_presentations[which]
        budget = OracleBudget(max_relator_applications=applications)
        got = enumerate_ball(GradedPresentation.from_json(text), rank, radius, budget)
        expected = reference_enumerate_ball(GradedPresentation.from_json(text), rank,
                                            radius, budget)
        assert got.flag == FLAG_UPPER
        assert self.answers(got) == self.answers(expected)


class TestGrowth:
    def test_g_series_free(self, free_m1, budget):
        table = growth(free_m1, 0, 4, budget)
        assert table.series == "gamma_G"
        assert table.counts() == [1, 7, 37, 187, 937]
        assert all(f == FLAG_EXACT for _, _, f in table.rows)

    def test_h_series_free(self, free_m1, budget):
        table = growth(free_m1, 0, 3, budget, subgroup="H")
        assert table.counts() == [1, 5, 17, 53]
        assert all(f == FLAG_EXACT for _, _, f in table.rows)

    def test_h_series_exact_under_positive_margin(self, p_k5_m2_r2, budget):
        assert p_k5_m2_r2.relator_system(2).ab_margin == 4
        table = growth(p_k5_m2_r2, 2, 3, budget, subgroup="H")
        assert table.counts() == [1, 5, 17, 53]
        assert all(f == FLAG_EXACT for _, _, f in table.rows)

    def test_h_series_flagged_at_zero_margin(self, p_k3_m1_r2, budget):
        assert p_k3_m1_r2.relator_system(2).ab_margin == 0
        table = growth(p_k3_m1_r2, 2, 2, budget, subgroup="H")
        assert all(f == FLAG_UPPER for _, _, f in table.rows)

    @given(which=st.sampled_from(["k3-m1-r1", "k3-m1-r2", "k5-m2-r2"]),
           radius=st.integers(0, 4), subgroup=st.sampled_from("GH"), budget=tiny_budgets)
    @settings(max_examples=25, deadline=None)
    def test_row_r_is_the_radius_r_table(self, ball_presentations, which, radius,
                                         subgroup, budget):
        text, rank = ball_presentations[which]

        def rows(r):
            return growth(GradedPresentation.from_json(text), rank, r, budget,
                          subgroup=subgroup).rows
        assert rows(radius) == tuple(rows(r)[-1] for r in range(radius + 1))

    def test_rows_take_their_own_flag(self, ball_presentations):
        # one relator application: every ball past radius 0 is upper-bound
        text, _ = ball_presentations["k3-m1-r1"]
        budget = OracleBudget(max_relator_applications=1)
        table = growth(GradedPresentation.from_json(text), 1, 4, budget)
        assert table.rows == ((0, 1, FLAG_EXACT), (1, 7, FLAG_UPPER), (2, 35, FLAG_UPPER),
                              (3, 175, FLAG_UPPER), (4, 875, FLAG_UPPER))

    def test_subgroup_name_validated(self, free_m1, budget):
        with pytest.raises(InputError):
            growth(free_m1, 0, 2, budget, subgroup="K")

    def test_csv_golden(self, free_m1, budget):
        table = growth(free_m1, 0, 2, budget)
        assert table.to_csv() == \
            "radius,count,flag\n0,1,exact\n1,7,exact\n2,37,exact\n"

    def test_json_round_trip(self, free_m1, budget):
        table = growth(free_m1, 0, 2, budget)
        data = json.loads(table.to_json())
        assert data["series"] == "gamma_G" and data["rank"] == 0
        assert data["rows"][2] == {"radius": 2, "count": 37, "flag": "exact"}


class TestDensityRank0:
    def test_formula_rows_m1(self):
        a1 = Alphabet(1)
        assert [rank0_hg_count(a1, n) for n in range(7)] == \
            [1, 5, 17, 61, 193, 629, 1937]

    def test_formula_rows_m2(self):
        a2 = Alphabet(2)
        assert [rank0_hg_count(a2, n) for n in (2, 3, 4)] == [17, 69, 225]

    def test_scan_matches_formula(self):
        for m in (1, 2):
            alphabet = Alphabet(m)
            for n in range(5):
                assert len(rank0_hg_elements(alphabet, n)) == \
                    rank0_hg_count(alphabet, n)

    def test_union_matches_scan_at_rank0(self, free_m1, budget):
        ball = enumerate_ball(free_m1, 0, 2, budget)
        for n in range(6):
            elements, flag = hg_union_elements(free_m1, ball, n, budget)
            assert flag == FLAG_EXACT
            assert elements == rank0_hg_elements(free_m1.alphabet, n)

    def test_union_membership_spot_checks(self, free_m1, budget):
        ball = enumerate_ball(free_m1, 0, 1, budget)
        elements, _ = hg_union_elements(free_m1, ball, 3, budget)
        assert Word.parse("s1.a.S1").letters in elements
        assert Word.parse("a.b").letters in elements
        assert Word.parse("s1").letters not in elements

    def test_sigma_bound_frozen(self):
        assert [sigma_bound(Alphabet(1), n) for n in range(5)] == \
            [1, 6, 29, 112, 405]
        assert [sigma_bound(Alphabet(2), n) for n in range(2, 8)] == \
            [31, 124, 477, 1666, 5755, 18936]

    def test_count_never_exceeds_bound(self):
        for m in (1, 2):
            alphabet = Alphabet(m)
            for n in range(8):
                assert rank0_hg_count(alphabet, n) <= sigma_bound(alphabet, n)

    def test_formula_and_union_paths_agree(self, free_m1, budget):
        direct = density_HG(free_m1, 0, 4, budget, method="formula")
        union = density_HG(free_m1, 0, 4, budget, method="union")
        assert (direct.hg_lo, direct.hg_hi) == (union.hg_lo, union.hg_hi) == (193, 193)
        assert direct.ratio_lo == union.ratio_lo == Fraction(193, 937)
        assert direct.hg_flag == union.hg_flag == FLAG_EXACT

    def test_m2_ratios_strictly_decrease(self, free_m2, budget):
        rows = [density_HG(free_m2, 0, n, budget) for n in range(2, 8)]
        ratios = [r.ratio_hi for r in rows]
        assert ratios == [
            Fraction(17, 65), Fraction(69, 457), Fraction(225, 3201),
            Fraction(805, 22409), Fraction(2545, 156865),
            Fraction(8549, 1098057)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_union_at_positive_rank(self, p_k3_m1_r1, budget):
        row = density_HG(p_k3_m1_r1, 1, 3, budget, method="auto")
        assert row.hg_lo <= row.hg_hi <= row.sigma_bound
        assert row.ratio_lo <= row.ratio_hi
        assert row.ball == 167

    def test_upper_bound_ball_bounds_ratio_from_above(self, p_k3_m1_r1, budget):
        # the radius-3 ball reads 175 elements where the exact ball has 167:
        # ratio_hi divides by its 51 distinct lattice residues instead, and
        # 61/51 clips to 1; at n = 2 the 35-element ball has 23 residues
        exact = density_HG(p_k3_m1_r1, 1, 3, budget, method="union")
        assert (exact.ball_flag, exact.ratio_lo, exact.ratio_hi) == \
            (FLAG_EXACT, Fraction(61, 167), Fraction(61, 167))
        tiny = OracleBudget(max_ball_radius=4, max_relator_applications=1)
        rows = density_rows(GradedPresentation.from_json(p_k3_m1_r1.to_json()), 1,
                            [2, 3], tiny)
        assert [(r.n, r.ball, r.ball_flag, r.hg_lo, r.hg_hi) for r in rows] == \
            [(2, 35, FLAG_UPPER, 13, 17), (3, 175, FLAG_UPPER, 25, 61)]
        assert [(r.ratio_lo, r.ratio_hi) for r in rows] == \
            [(Fraction(13, 35), Fraction(17, 23)), (Fraction(1, 7), Fraction(1))]
        assert rows[1].ratio_lo <= exact.ratio_lo <= exact.ratio_hi <= rows[1].ratio_hi

    def test_rows_match_one_row_calls(self, p_k3_m1_r1, budget):
        rows = density_rows(p_k3_m1_r1, 1, [3, 0, 2], budget, method="union")
        assert rows == [density_HG(p_k3_m1_r1, 1, n, budget, method="union")
                        for n in (3, 0, 2)]

    def test_method_validation(self, free_m1, p_k3_m1_r1, budget):
        with pytest.raises(InputError):
            density_HG(free_m1, 0, 2, budget, method="guess")
        with pytest.raises(InputError, match="rank 0"):
            density_HG(p_k3_m1_r1, 1, 2, budget, method="formula")

    def test_csv_golden(self, free_m1, budget):
        rows = [density_HG(free_m1, 0, n, budget) for n in range(5)]
        assert density_rows_to_csv(rows) == (
            "n,ball,hg_count,ratio_lo,ratio_hi,bound\n"
            "0,1,1,1,1,1\n"
            "1,7,5,5/7,5/7,6\n"
            "2,37,17,17/37,17/37,29\n"
            "3,187,61,61/187,61/187,112\n"
            "4,937,193,193/937,193/937,405\n")

    def test_json_fields(self, free_m1, budget):
        rows = [density_HG(free_m1, 0, 2, budget)]
        data = json.loads(density_rows_to_json(rows))
        assert data == [{
            "n": 2, "ball": 37, "ball_flag": "exact", "hg_count": 17,
            "hg_lo": 17, "hg_flag": "exact", "ratio_lo": "17/37",
            "ratio_hi": "17/37", "bound": 29}]


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)


class TestQuadExt:
    def test_perfect_square_folds(self):
        assert QuadExt(0, 1, 9) == QuadExt(3)
        assert QuadExt(0, 1, 9).d == 0
        assert QuadExt(1, 2, 4) == 5

    def test_sqrt2_bracketing(self):
        r2 = QuadExt(0, 1, 2)
        assert QuadExt(Fraction(7, 5)) < r2 < QuadExt(Fraction(3, 2))
        assert r2 * r2 == 2

    def test_mixed_radicands_rejected(self):
        with pytest.raises(InputError, match="radicand"):
            QuadExt(0, 1, 2) + QuadExt(0, 1, 3)

    def test_rational_operands_coerce(self):
        r5 = QuadExt(1, 1, 5)
        assert r5 - 1 == QuadExt(0, 1, 5)
        assert 2 * r5 == QuadExt(2, 2, 5)
        assert (1 - r5) == QuadExt(0, -1, 5)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            QuadExt(1).x = 2

    @pytest.mark.parametrize("value, equals", [
        (QuadExt(2), 2),
        (QuadExt(2), Fraction(2)),
        (QuadExt(Fraction(3, 4)), Fraction(3, 4)),
        (QuadExt(0, 1, 9), 3),  # sqrt(9) folds to the rational 3
        (QuadExt(1, 2, 4), Fraction(5)),
        (QuadExt(-2, 0, 5), -2),  # y = 0 under a radicand is rational too
    ])
    def test_rational_hashes_as_its_value(self, value, equals):
        assert value == equals and hash(value) == hash(equals)
        assert len({value, equals}) == 1 and {value: 1}[equals] == 1

    def test_irrational_hash_contract(self):
        r2 = QuadExt(1, 1, 2)
        assert hash(r2) == hash(QuadExt(1, 1, 2))
        assert len({r2, QuadExt(1, 1, 2), QuadExt(1), 1}) == 2

    def test_negative_radicand_rejected(self):
        with pytest.raises(InputError):
            QuadExt(0, 1, -1)

    def test_float_view(self):
        assert float(QuadExt(3, 1, 2)) == pytest.approx(3 + 2 ** 0.5)

    @given(small_fractions, small_fractions, small_fractions, small_fractions)
    def test_ring_laws(self, x1, y1, x2, y2):
        u = QuadExt(x1, y1, 5)
        v = QuadExt(x2, y2, 5)
        assert u + v == v + u
        assert u * v == v * u
        assert u * (v + 1) == u * v + u
        assert (u - v) + v == u

    @given(small_fractions, small_fractions, st.integers(min_value=0, max_value=5))
    def test_pow_is_iterated_product(self, x, y, n):
        u = QuadExt(x, y, 5)
        out = QuadExt(1, 0, 5)
        for _ in range(n):
            out = out * u
        assert u ** n == out

    @given(small_fractions, small_fractions)
    def test_sign_agrees_with_float(self, x, y):
        u = QuadExt(x, y, 5)
        approx = float(x) + float(y) * 5 ** 0.5
        if abs(approx) > 1e-9:
            assert u.sign() == (1 if approx > 0 else -1)


class TestBoundChain:
    def test_chain_holds_above_threshold(self):
        for alpha in (8, 10, 15):
            for n in range(13):
                report = density_bound_chain(n, alpha)
                assert report.all_lines_hold and report.decays

    def test_decay_line_fails_at_small_alpha(self):
        for alpha in range(2, 7):
            report = density_bound_chain(4, alpha)
            assert not report.decays
            name, ok, _, _ = report.lines[3]
            assert name.startswith("decay comparison") and not ok
            # the algebraic identity still holds even when decay fails
            assert report.lines[1][1]

    def test_alpha7_is_inside(self):
        assert density_bound_chain(4, 7).decays

    def test_geometric_ratio_exact_on_square_radicand(self):
        report = density_bound_chain(10, 15)
        assert report.geometric_ratio == Fraction(1, 1024)
        assert report.ratio_bound_float == pytest.approx(0.064453125)
        assert report.constants["C_prime"] == "66"
        assert density_bound_chain(10, 10).geometric_ratio is None

    def test_line_names_frozen(self):
        report = density_bound_chain(3, 15)
        assert [name for name, _, _, _ in report.lines] == [
            "floor-sum vs head-split", "binomial collapse", "constant fold",
            "decay comparison 3+sqrt(16) < 14"]

    def test_scaled_fit_still_holds(self):
        report = density_bound_chain(8, 10, C=Fraction(5, 2), N=3)
        assert report.all_lines_hold

    def test_input_validation(self):
        with pytest.raises(InputError):
            density_bound_chain(-1, 8)
        with pytest.raises(InputError):
            density_bound_chain(3, 1)
        with pytest.raises(InputError):
            density_bound_chain(3, 8.0)
        with pytest.raises(InputError):
            density_bound_chain(3, 8, C=0)
        with pytest.raises(InputError):
            density_bound_chain(3, 8, N=0)
