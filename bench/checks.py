"""Output checks for the benchmark's artifacts, and the answer counts behind
`unknown_share`.

Deterministic artifacts are compared with references recorded from the
commit that defined the benchmark (`reference/<sizes>/<workload>/`).  A
decided answer may never change; an answer recorded as unknown may become
decided, never the reverse.  Seeded artifacts are checked for their
invariants.  `lawprob` at the reference seed must not decide fewer trials
than its reference; at any other seed its decided shares may not fall below
the reference's by more than sampling noise.

`problems(path, reference, seed)` returns a list of human-readable problems,
empty when the artifact passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import REFERENCE_SEED

DECIDED_OUTCOMES = ("admitted", "rejected")
WALK_RETURN_EXACT = Fraction(1, 3)
WALK_TOLERANCE = 0.02
LAW_SIGMAS = 6


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _build_records(text: str) -> tuple[list[str], dict]:
    """(header lines, {(rank, word): outcome}) of a build report."""
    header, records, rank = [], {}, None
    for line in text.splitlines():
        if line.startswith("rank "):
            rank = int(line.split()[1].rstrip(":"))
        elif line.startswith("  ") and rank is not None:
            word, outcome = line.split()[:2]
            records[(rank, word)] = outcome
        elif rank is None:
            header.append(line)
    return header, records


def _check_build_report(new: str, ref: str) -> list[str]:
    new_head, new_recs = _build_records(new)
    ref_head, ref_recs = _build_records(ref)
    out = []
    if new_head != ref_head:
        out.append("report header differs from reference")
    if set(new_recs) != set(ref_recs):
        out.append("candidate set differs from reference")
    for key, outcome in ref_recs.items():
        if outcome in DECIDED_OUTCOMES and new_recs.get(key) != outcome:
            out.append("rank %d candidate %s: %s, reference %s"
                       % (key[0], key[1], new_recs.get(key), outcome))
    return out


def _check_presentation(new: str, ref: str) -> list[str]:
    new_doc, ref_doc = json.loads(new), json.loads(ref)
    if new_doc["alphabet"] != ref_doc["alphabet"] or new_doc["params"] != ref_doc["params"]:
        return ["alphabet or params differ from reference"]
    for pos, block in enumerate(ref_doc["ranks"]):
        if block["approximate"]:
            break  # later ranks rest on undecided admissions and may change
        if pos >= len(new_doc["ranks"]) or new_doc["ranks"][pos] != block:
            return ["rank %d periods differ from reference" % block["rank"]]
    return []


def _check_structure(new: str, ref: str) -> list[str]:
    new_doc, ref_doc = json.loads(new), json.loads(ref)
    out = []
    if not new_doc["ok"] or new_doc["failures"]:
        out.append("structure audit failed: %s" % new_doc["failures"])
    if not set(new_doc["approximate_ranks"]) <= set(ref_doc["approximate_ranks"]):
        out.append("approximate ranks %s grew beyond reference %s"
                   % (new_doc["approximate_ranks"], ref_doc["approximate_ranks"]))
    return out


def _check_growth(new: str, ref: str) -> list[str]:
    new_rows, ref_rows = _csv_rows(new), _csv_rows(ref)
    if [r["radius"] for r in new_rows] != [r["radius"] for r in ref_rows]:
        return ["growth radii differ from reference"]
    out = []
    for got, want in zip(new_rows, ref_rows):
        if want["flag"] == "exact":
            if got != want:
                out.append("growth radius %s: %s, reference %s" % (want["radius"], got, want))
        elif int(got["count"]) > int(want["count"]):
            out.append("growth radius %s: upper bound %s grew past reference %s"
                       % (want["radius"], got["count"], want["count"]))
    return out


def _density_decided(row: dict) -> bool:
    return row["ball_flag"] == "exact" and row["hg_flag"] == "exact"


def _check_density(new: str, ref: str) -> list[str]:
    new_rows, ref_rows = json.loads(new), json.loads(ref)
    if [r["n"] for r in new_rows] != [r["n"] for r in ref_rows]:
        return ["density radii differ from reference"]
    out = []
    for got, want in zip(new_rows, ref_rows):
        if Fraction(got["ratio_lo"]) > Fraction(got["ratio_hi"]):
            out.append("density n=%s: ratio_lo > ratio_hi" % got["n"])
        if _density_decided(want) and got != want:
            out.append("density n=%s: %s, reference %s" % (want["n"], got, want))
    return out


def _check_tally(row: dict, what: str) -> list[str]:
    out = []
    if row["holds"] + row["fails"] + row["unknown"] != row["trials"]:
        out.append("%s: holds + fails + unknown != trials" % what)
    p_lo, p_hi = Fraction(row["p_lo"]), Fraction(row["p_hi"])
    if not p_lo <= p_hi:
        out.append("%s: p_lo > p_hi" % what)
    if row["trials"] and (p_lo != Fraction(row["holds"], row["trials"])
                          or p_hi != Fraction(row["holds"] + row["unknown"], row["trials"])):
        out.append("%s: interval does not match the counts" % what)
    return out


def _check_lawprob(new: str, ref: str, seed: int) -> list[str]:
    doc = json.loads(new)
    out = []
    for row in doc["rows"]:
        out += _check_tally(row, "lawprob n=%d" % row["n"])
    for got, want in zip(doc["rows"], json.loads(ref)["rows"]):
        if seed == REFERENCE_SEED:
            if got["trials"] != want["trials"] or got["holds"] < want["holds"] \
                    or got["fails"] < want["fails"]:
                out.append("lawprob n=%d at seed %d decides fewer trials than reference "
                           "(holds %d/%d, fails %d/%d)"
                           % (got["n"], seed, got["holds"], want["holds"],
                              got["fails"], want["fails"]))
            continue
        # another seed samples the same ball, so each decided share may fall
        # below the reference's only by sampling noise
        for key in ("holds", "fails"):
            p_ref = want[key] / want["trials"]
            sd = math.sqrt(p_ref * (1 - p_ref) * (1 / got["trials"] + 1 / want["trials"]))
            if got[key] / got["trials"] < p_ref - LAW_SIGMAS * sd:
                out.append("lawprob n=%d: %s share %.4f is more than %d standard errors "
                           "below the reference %.4f"
                           % (got["n"], key, got[key] / got["trials"], LAW_SIGMAS, p_ref))
    return out


def _check_rwalk(new: str) -> list[str]:
    doc = json.loads(new)
    out = _check_tally(doc, "rwalk")
    # 0.02 at benchmark sizes; wider only where 5 standard errors exceed it
    tol = max(WALK_TOLERANCE, 5 * math.sqrt(2 / 9 / doc["trials"]))
    lo, hi = Fraction(doc["p_lo"]), Fraction(doc["p_hi"])
    if lo < WALK_RETURN_EXACT - Fraction(tol) or hi > WALK_RETURN_EXACT + Fraction(tol):
        out.append("rwalk estimate [%s, %s] is not within %.3f of 1/3"
                   % (float(lo), float(hi), tol))
    return out


def problems(path: Path, reference: Path, seed: int) -> list[str]:
    """Check one artifact against its reference file (which may not exist for
    seeded artifacts)."""
    if not path.is_file():
        return ["%s was not written" % path.name]
    new = path.read_text()
    name = path.name
    if name == "rwalk.json":
        return _check_rwalk(new)
    if not reference.is_file():
        return ["no reference %s" % reference]
    ref = reference.read_text()
    if name == "lawprob.json":
        return _check_lawprob(new, ref, seed)
    if name == "presentation.json":
        return _check_presentation(new, ref)
    if name == "build-report.txt":
        return _check_build_report(new, ref)
    if name == "structure.json":
        return _check_structure(new, ref)
    if name.startswith("growth-"):
        return _check_growth(new, ref)
    if name.startswith("density-"):
        return _check_density(new, ref)
    return ["no check for %s" % name]


def answers(path: Path) -> tuple[int, int]:
    """(unknown answers, answers) in one artifact; (0, 0) if it holds none."""
    if not path.is_file():
        return 0, 0
    text = path.read_text()
    name = path.name
    if name == "build-report.txt":
        outcomes = list(_build_records(text)[1].values())
        return outcomes.count("unknown"), len(outcomes)
    if name.startswith("growth-"):
        rows = _csv_rows(text)
        return sum(r["flag"] != "exact" for r in rows), len(rows)
    if name.startswith("density-"):
        rows = json.loads(text)
        return sum(not _density_decided(r) for r in rows), len(rows)
    if name == "lawprob.json":
        rows = json.loads(text)["rows"]
        return sum(r["unknown"] for r in rows), sum(r["trials"] for r in rows)
    if name == "rwalk.json":
        doc = json.loads(text)
        return doc["unknown"], doc["trials"]
    return 0, 0
