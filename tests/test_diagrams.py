"""Diagram validation, Condition A checks, contiguity, certificates built
from oracle traces, and the frozen corpus under tests/data/diagrams."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from burnlab.diagrams import (
    Diagram,
    check_condition_A,
    check_reduced,
    check_smooth_section,
    diagram_from_trace,
    find_contiguity,
    find_gamma_cells,
    search_vk_certificate,
    validate_diagram,
)
from burnlab.errors import InputError, StateError
from burnlab.oracle import OracleBudget
from burnlab.words import Word, inverse_letters, reduce_letters, splice_reduce

from diagram_corpus import EXPECTED, build_corpus, presentations

DATA_DIR = Path(__file__).parent / "data" / "diagrams"
TINY = OracleBudget(max_ball_radius=0, max_relator_applications=1)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def pres():
    return presentations()


class TestCorpusArtifacts:
    def test_stored_json_is_bit_exact(self, corpus):
        for name, (_, diagram) in corpus.items():
            stored = (DATA_DIR / ("%s.json" % name)).read_text()
            assert diagram.to_json() == stored, name

    def test_stored_json_round_trips(self, corpus):
        for name, (_, diagram) in corpus.items():
            loaded = Diagram.from_json((DATA_DIR / ("%s.json" % name)).read_text())
            assert loaded == diagram, name

    def test_every_entry_has_expectations(self, corpus):
        assert set(corpus) == set(EXPECTED)


class TestFrozenVerdicts:
    def test_validation_and_condition_a(self, corpus, pres):
        for name, exp in EXPECTED.items():
            key, diagram = corpus[name]
            presentation = pres[key]
            report = validate_diagram(diagram, presentation)
            assert report.ok == exp["ok"], name
            if not exp["ok"]:
                assert any(exp["error"] in e for e in report.errors), name
                continue
            assert report.r_delta == exp["r"], name
            if exp.get("warned"):
                assert report.warnings
            if "unfilled" in exp:
                assert report.unfilled_regions == exp["unfilled"]
            if "euler_reported" in exp:
                assert report.euler_reported == exp["euler_reported"]
            if "boundary" in exp:
                assert list(report.boundary_words) == exp["boundary"]
            a = check_condition_A(diagram, presentation, validation=report)
            assert a.summary == exp["A"], name

    def test_checkers_refuse_invalid_diagrams(self, corpus, pres):
        key, bad = corpus["c08-invalid-label"]
        with pytest.raises(StateError, match="failed validation"):
            check_condition_A(bad, pres[key])
        with pytest.raises(StateError, match="failed validation"):
            find_gamma_cells(bad, bad.contours, pres[key])
        with pytest.raises(StateError, match="failed validation"):
            check_reduced(bad, pres[key])

    def test_euler_count_on_valid_diagrams(self, corpus, pres):
        for name, (key, diagram) in corpus.items():
            if not EXPECTED[name]["ok"]:
                continue
            report = validate_diagram(diagram, pres[key])
            assert report.euler_sphere == 2, name
            v = len(diagram.vertices)
            e = len(diagram.edges) // 2
            f = len(diagram.faces)
            assert v - e + f == 2, name


class TestContiguity:
    def test_glued_degrees(self, corpus):
        for name, degree, q2 in (("c04-glued-third", Fraction(1, 3), 1),
                                 ("c05-glued-two-thirds", Fraction(2, 3), 2)):
            _, diagram = corpus[name]
            recs = find_contiguity(diagram, "cellA", "cellB")
            assert [(r.degree, r.q2_length) for r in recs] == [(degree, q2)], name

    def test_unknown_ids_rejected(self, corpus):
        _, diagram = corpus["c04-glued-third"]
        with pytest.raises(InputError, match="no cell"):
            find_contiguity(diagram, "nope", "cellB")
        with pytest.raises(InputError, match="no target"):
            find_contiguity(diagram, "cellA", "nope")

    def test_gamma_cells(self, corpus, pres):
        key, pentagon = corpus["c06-pentagon-k5"]
        rep = find_gamma_cells(pentagon, pentagon.contours, pres[key])
        assert rep.ok and [c for c, _ in rep.cells] == ["cell0"]
        assert rep.sums["cell0"] == 1

        key, mirror = corpus["c09-gamma-absent"]
        rep = find_gamma_cells(mirror, mirror.contours, pres[key])
        assert rep.ok and rep.cells == ()
        assert rep.sums == {"cellA": Fraction(2, 5), "cellB": Fraction(2, 5)}

    def test_gamma_precondition_needs_cells(self, corpus, pres):
        key, square = corpus["c03-empty-square"]
        rep = find_gamma_cells(square, square.contours, pres[key])
        assert not rep.ok and "r(diagram) = 0" in rep.precondition


class TestSmoothSections:
    def test_rank1_window_catches_relator_shortening(self, corpus, pres):
        key, square = corpus["c10-smooth-square"]
        fail = check_smooth_section(square, ["d1", "d2"], 1, pres[key])
        ok = check_smooth_section(square, ["d0"], 1, pres[key])
        assert fail.status == "fail" and ok.status == "pass"

    def test_rank0_window_is_blind_to_relators(self, corpus, pres):
        key, square = corpus["c10-smooth-square"]
        free_view = check_smooth_section(square, ["d1", "d2"], 0, pres[key])
        assert free_view.status == "pass"

    def test_bad_inputs(self, corpus, pres):
        key, square = corpus["c10-smooth-square"]
        with pytest.raises(InputError):
            check_smooth_section(square, ["d0"], -1, pres[key])
        with pytest.raises(InputError):
            check_smooth_section(square, ["ghost"], 1, pres[key])


class TestCertificates:
    def test_relator_cube_yields_one_cell(self, pres):
        p3 = pres["k3m1r1"]
        res = search_vk_certificate(p3, Word.parse("s1s1s1"), 1)
        assert res.status == "found" and res.cells == 1
        assert validate_diagram(res.diagram, p3).ok

    def test_identity_yields_zero_cells(self, pres):
        res = search_vk_certificate(pres["k3m1r1"], Word(()), 1)
        assert res.status == "found" and res.cells == 0
        assert validate_diagram(res.diagram, pres["k3m1r1"]).ok

    def test_refuted_and_budgeted_words(self, pres):
        p3 = pres["k3m1r1"]
        none = search_vk_certificate(p3, Word.parse("a"), 1)
        assert none.status == "certified-none" and none.diagram is None
        assert none.verdict.is_no
        stuck = search_vk_certificate(p3, Word.parse("a.s1.A.s1.s1"), 1, budget=TINY)
        assert stuck.status == "unknown" and stuck.diagram is None

    def test_exhaustion_no_is_only_none_within_cap(self, pres):
        # zero residue, so only the bounded search answers: not a proof
        res = search_vk_certificate(pres["k3m1r1"], Word.parse("s1.a.S1.A"), 1)
        assert res.verdict.is_no
        assert res.verdict.certificate["kind"] == "exhaustion"
        assert res.status == "none-within-cap" and res.diagram is None

    def test_cell_cap(self, pres):
        res = search_vk_certificate(pres["k3m1r1"], Word.parse("s1s1s1"), 1,
                                    max_cells=0)
        assert res.status == "cell-cap" and res.cells == 1 and res.diagram is None
        with pytest.raises(InputError):
            search_vk_certificate(pres["k3m1r1"], Word(()), 1, max_cells=-1)

    def test_fuzzed_relator_products_certify(self, pres):
        p3 = pres["k3m1r1"]
        rel = p3.relators(1)[0]
        from burnlab.words import reduced_words_up_to
        conjugators = list(reduced_words_up_to(p3.alphabet, 2))
        rng = random.Random(42)
        for _ in range(12):
            w = ()
            for _ in range(rng.randrange(1, 3)):
                z = conjugators[rng.randrange(len(conjugators))]
                material = rel.word if rng.random() < 0.5 else inverse_letters(rel.word)
                piece = splice_reduce(z, material, inverse_letters(z))
                w = splice_reduce(w, piece, ())
            word = Word(w)
            res = search_vk_certificate(p3, word, 1, max_cells=64)
            assert res.status == "found"
            assert validate_diagram(res.diagram, p3).ok
            contour = reduce_letters(res.diagram.label_word(res.diagram.contours[0]))
            assert contour == word.letters

    def test_trace_replay_builds_valid_diagram(self, pres, budget):
        p3 = pres["k3m1r1"]
        w = Word.parse("b.s1.s1.s1.B")
        verdict = p3.oracle(1).equal(w, Word(()), budget)
        assert verdict.is_yes
        diagram = diagram_from_trace(p3, w, verdict.witness)
        assert validate_diagram(diagram, p3).ok
        inserts = sum(1 for s in verdict.witness["steps"]
                      if s["op"] == "relator-insert")
        assert len(diagram.cells()) == inserts

    def test_trace_replay_rejects_foreign_steps(self, pres):
        p3 = pres["k3m1r1"]
        with pytest.raises(InputError, match="op"):
            diagram_from_trace(p3, Word.parse("s1.S1") , {"steps": [
                {"op": "cyclic-shift", "amount": 1}]})
        with pytest.raises(InputError, match="unknown relator"):
            diagram_from_trace(p3, Word.parse("s1s1s1"), {"steps": [
                {"op": "relator-insert", "position": 0, "relator-id": "x9.9",
                 "sign": 1, "shift": 0}]})
        # steps replay_trace refuses; each once built a valid 1-cell diagram
        cancels = [{"op": "free-cancel", "position": p} for p in (2, 1, 0)]
        for sign, shift, message in ((7, 0, "bad sign"), (1, 3, "bad shift"),
                                     (1, -3, "bad shift")):
            insert = {"op": "relator-insert", "position": 0, "relator-id": "x1.0",
                      "sign": sign, "shift": shift}
            with pytest.raises(InputError, match=message):
                diagram_from_trace(p3, Word.parse("s1s1s1"), {"steps": [insert] + cancels})

    @pytest.mark.parametrize("start, steps", [
        # ab != 1 by abelian residue; this once gave a 0-cell diagram reading aA
        ("ab", [{"op": "free-cancel", "position": 0}]),
        ("s1", []),  # ends off the empty word
        ("s1s1s1", [{"op": "relator-insert", "position": 9, "relator-id": "x1.0",
                     "sign": 1, "shift": 0}]),
    ], ids=["cancel-of-non-inverses", "no-steps", "insert-past-the-end"])
    def test_trace_replay_rejects_forged_witnesses(self, pres, start, steps):
        with pytest.raises(InputError, match="witness does not replay"):
            diagram_from_trace(pres["k3m1r1"], Word.parse(start), {"steps": steps})


class TestReducedness:
    def test_mirror_pair_is_not_reduced(self, corpus, pres):
        key, mirror = corpus["c05-glued-two-thirds"]
        rep = check_reduced(mirror, pres[key])
        assert rep.status == "not-reduced"
        assert (rep.cap, rep.cells) == (1, 2)
        assert rep.smaller.status == "found" and rep.smaller.cells == 0

    def test_single_cell_is_minimal(self, corpus, pres):
        key, cell = corpus["c01-cell-s1cubed"]
        rep = check_reduced(cell, pres[key])
        assert rep.status == "reduced-up-to-cap"
        assert (rep.cap, rep.cells) == (0, 1)

    def test_cellless_diagram_is_trivially_reduced(self, corpus, pres):
        key, square = corpus["c03-empty-square"]
        rep = check_reduced(square, pres[key])
        assert rep.status == "reduced-up-to-cap"
        assert rep.cells == 0 and rep.smaller is None

    def test_budget_out_search_is_unknown(self, pres):
        p3 = pres["k3m1r1"]
        w = Word.parse("s1.s1.s1.s1.s1.s1")
        two_cells = diagram_from_trace(p3, w, p3.oracle(1).equal(w, Word(())).witness)
        assert len(two_cells.cells()) == 2
        assert check_reduced(two_cells, p3).status == "reduced-up-to-cap"
        rep = check_reduced(two_cells, p3, budget=TINY)
        assert rep.status == "unknown" and (rep.cap, rep.cells) == (1, 2)
        assert rep.smaller.status == "unknown"

    def test_annular_refused(self, corpus, pres):
        key, ring = corpus["c07-annular-conj"]
        with pytest.raises(InputError, match="circular"):
            check_reduced(ring, pres[key])


class TestCodec:
    def test_malformed_json_rejected(self):
        with pytest.raises(InputError, match="malformed diagram JSON"):
            Diagram.from_json("{not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(InputError, match="malformed diagram"):
            Diagram.from_dict({"topology": "circular"})
        with pytest.raises(InputError):
            Diagram.from_dict([1, 2, 3])

    @pytest.mark.parametrize("path, value, message", [
        (("edges", 1, "label"), "q", "field edges[1].label: unknown letter token 'q'"),
        (("edges", 0, "to"), 7, "field edges[0].to must be a string, got 7"),
        (("faces", 0, "boundary"), "e1", "field faces[0].boundary must be a list of strings"),
        (("faces", 0, "rank"), 1.5, "field faces[0].rank must be an integer, got 1.5"),
        (("contours", 0), [1], "field contours[0] must be a list of strings, got [1]"),
    ])
    def test_nested_field_errors_name_their_path(self, corpus, path, value, message):
        data = corpus["c01-cell-s1cubed"][1].to_dict()
        *outer, key = path
        node = data
        for part in outer:
            node = node[part]
        node[key] = value
        with pytest.raises(InputError) as info:
            Diagram.from_dict(data)
        assert str(info.value).startswith("malformed diagram: " + message)

    def test_unknown_edge_in_face_caught_by_validation(self, corpus, pres):
        key, diagram = corpus["c01-cell-s1cubed"]
        data = diagram.to_dict()
        data["faces"][0]["boundary"] = ["ghost"] + data["faces"][0]["boundary"][1:]
        broken = Diagram.from_dict(data)
        report = validate_diagram(broken, pres[key])
        assert not report.ok
