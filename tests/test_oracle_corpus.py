"""Recorded oracle verdicts, replayed byte for byte.

Every `equal`, `conjugate` and `conjugate_into_ab` verdict (`Verdict.to_json`)
and every `norm`, `canonical` and cyclic canonical result (`cyclic_component`'s
`min_word` and `complete`, labelled `cyclic_canonical`) on the k=3, m=1
presentation at ranks 0-2, at a tiny and at the default budget, for the
radius-2 ball (paired with the radius-1 ball) plus hand-picked queries.
Each line is [rank, budget, op, args, result].  The queries run in a fixed
order on a fresh oracle per (rank, budget), so even the memo-dependent state
counts are reproducible.

Re-record (only when a change is meant to alter verdicts) with
    PYTHONPATH=src python tests/test_oracle_corpus.py
"""

import json
from collections import Counter
from pathlib import Path

from burnlab.oracle import OracleBudget, RankOracle
from burnlab.presentation import GradedPresentation, SmallCancellationParams
from burnlab.words import Alphabet, format_letters, parse_letters, reduced_words_up_to

CORPUS = Path(__file__).parent / "data" / "golden" / "oracle_verdicts.jsonl"

BUDGETS = (
    ("tiny", OracleBudget(max_ball_radius=2, max_relator_applications=60)),
    ("default", OracleBudget()),
)

# hand-picked pairs: at rank 2 the tiny budget leaves the equality of the
# second and the conjugacy of the third unknown, and the default decides both
EXTRA_PAIRS = (("a", "AA"), ("a.a.s1.a.s1", "S1"), ("a.a.a.a.a.s1", "A.s1"))
# conjugate-into-ab words with s-exponent 0 mod 3, so that the residue does
# not decide them: exhaustion at rank 1, unknown at the tiny budget (rank 1)
# and at the default budget (rank 2)
INTO_AB_EXTRA = ("a.s1.a.S1", "a.s1.a.s1.s1", "a.b.A.s1.a.S1")


def _budget_use(use):
    return {"states": use.states, "applications": use.applications,
            "cap": use.cap, "complete": use.complete}


def corpus_lines():
    alphabet = Alphabet(1)
    pres, _ = GradedPresentation.build(
        alphabet, SmallCancellationParams(k=3, allow_small_k=True), 2, OracleBudget())
    ball = list(reduced_words_up_to(alphabet, 2))
    pairs = [(u, v) for u in ball for v in ball if len(v) <= 1]
    pairs += [(parse_letters(u), parse_letters(v)) for u, v in EXTRA_PAIRS]
    extra = [parse_letters(t) for t in INTO_AB_EXTRA]
    for rank in range(3):
        for name, budget in BUDGETS:
            oracle = RankOracle(pres.relator_system(rank))

            def line(op, words, result):
                query = json.dumps([rank, name, op, [format_letters(w) for w in words]])
                return "%s, %s]" % (query[:-1], result)

            for u, v in pairs:
                yield line("equal", (u, v), oracle.equal(u, v, budget).to_json())
                yield line("conjugate", (u, v), oracle.conjugate(u, v, budget).to_json())
            for u in ball + extra:
                yield line("conjugate_into_ab", (u,), oracle.conjugate_into_ab(u, budget).to_json())
            for u in ball:
                nb = oracle.norm(u, budget)
                yield line("norm", (u,), json.dumps(
                    {"lower": nb.lower, "upper": nb.upper, "exact": nb.exact,
                     "witness": nb.witness, "budget_used": _budget_use(nb.budget_used)},
                    sort_keys=True))
                canon = oracle.canonical(u, budget)
                comp = oracle.cyclic_component(u, budget)
                for op, (word, complete) in (("canonical", canon),
                                             ("cyclic_canonical", (comp.min_word, comp.complete))):
                    yield line(op, (u,), json.dumps(
                        {"word": format_letters(word), "complete": complete}, sort_keys=True))


def test_replays_recorded_corpus():
    recorded = CORPUS.read_text().splitlines()
    replayed = list(corpus_lines())
    assert len(replayed) == len(recorded)
    for got, want in zip(replayed, recorded):
        assert got == want


def test_corpus_hits_every_verdict_cell():
    cells = Counter()
    for _, _, op, _, result in map(json.loads, CORPUS.read_text().splitlines()):
        if op in ("equal", "conjugate", "conjugate_into_ab"):
            kind = (result["certificate"] or {}).get("kind")
            cells[op, result["status"], kind] += 1
    for op in ("equal", "conjugate", "conjugate_into_ab"):
        for status, kind in (("yes", None), ("no", "rank-0"), ("no", "abelian-residue"),
                             ("no", "exhaustion"), ("unknown", None)):
            assert cells[op, status, kind], (op, status, kind)


if __name__ == "__main__":
    CORPUS.write_text("".join(l + "\n" for l in corpus_lines()))
