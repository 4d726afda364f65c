"""Labeled planar diagrams: validation, contiguity bands, boundary checkers,
and construction of explicit cell diagrams from oracle rewriting traces.

Conventions, fixed once here and relied on by every checker:

* A diagram is a combinatorial map: both directions of every edge are listed
  explicitly, faces are closed directed-edge cycles, and the face cycles
  together use each directed edge exactly once.  That partition is what makes
  sphere counting work: V - E + F(all faces) = 2 on every valid diagram.
  Reported characteristics follow the topology tag: circular diagrams report
  the sphere value 2, annular ones drop their two complementary regions and
  report V - E + (F - 2) = 0.
* Contours are rotations of the cycles of distinct outer-role faces; circular
  diagrams declare one contour, annular two.  Outer-role faces without a
  declared contour are unfilled interior regions, allowed but counted.
* A cell's label, read along its cycle, must be (up to cyclic rotation and
  inversion, after free cyclic reduction) a relator of the presentation; the
  matched rank is assigned to the cell.  Labels that are not literally
  cyclically reduced validate with a warning so that the reducedness checks
  can fail them honestly.
* Contiguity bands are located by direct gluing: maximal runs where an edge
  of one boundary appears inverted on the other.  Side arcs s1, s2 are then
  empty, which satisfies any side cap; positive-length side arcs are out of
  scope at desk scale.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import InputError, InvariantViolation, StateError
from .oracle import (OracleBudget, ReplayError, Verdict, insert_material, inverse_letters,
                     replay_trace)
from .presentation import read_field
from .records import Record
from .words import CyclicWord, Word, _letter_token, _token_letter, min_rotation, reduce_letters


class Edge(Record):
    id: str
    src: str
    dst: str
    label: int
    inverse_id: str


class Face(Record):
    id: str
    boundary: tuple[str, ...]
    role: str  # "cell" | "outer"
    rank: Optional[int] = None


class Diagram(Record):
    """Immutable labeled map.  Topology is "circular" or "annular".  The
    vertices, edges (by id) and faces (by id) are stored sorted."""

    topology: str
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    faces: tuple[Face, ...]
    contours: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.topology not in ("circular", "annular"):
            raise InputError("topology must be circular or annular")
        d = self.__dict__
        d["vertices"] = tuple(sorted(self.vertices))
        d["edges"] = tuple(sorted(self.edges, key=lambda e: e.id))
        d["faces"] = tuple(sorted(self.faces, key=lambda f: f.id))
        d["contours"] = tuple(tuple(c) for c in self.contours)
        d["_by_id"] = {e.id: e for e in d["edges"]}

    def edge(self, eid: str) -> Edge:
        e = self._by_id.get(eid)
        if e is None:
            raise InputError("unknown edge id %r" % eid)
        return e

    def cells(self) -> tuple[Face, ...]:
        return tuple(f for f in self.faces if f.role == "cell")

    def label_word(self, edge_ids: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.edge(eid).label for eid in edge_ids)

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "vertices": list(self.vertices),
            "edges": [
                {"id": e.id, "from": e.src, "to": e.dst,
                 "label": _letter_token(e.label), "inverse_id": e.inverse_id}
                for e in self.edges
            ],
            "faces": [
                {"id": f.id, "boundary": list(f.boundary), "role": f.role,
                 "rank": f.rank}
                for f in self.faces
            ],
            "contours": [list(c) for c in self.contours],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Diagram":
        """The diagram a parsed JSON document describes.  A malformed field
        raises InputError naming its path (``edges[2].label``)."""
        try:
            # the fields present are type-checked before a missing one is named
            top = {key: read_field(data, key, kind, default=None) for key, kind in (
                ("topology", "string"), ("vertices", "strings"), ("edges", "list"),
                ("faces", "list"), ("contours", "list"))}
            missing = [key for key, value in top.items() if value is None]
            if missing:
                raise InputError("missing field %s" % missing[0])
            edges = []
            for i, e in enumerate(top["edges"]):
                at = "edges[%d]." % i
                eid = read_field(e, at + "id", "string")
                src = read_field(e, at + "from", "string")
                dst = read_field(e, at + "to", "string")
                token = read_field(e, at + "label", "string")
                try:
                    label = _token_letter(token)
                except InputError as exc:
                    raise InputError("field %slabel: %s" % (at, exc)) from None
                inverse_id = read_field(e, at + "inverse_id", "string")
                edges.append(Edge(eid, src, dst, label, inverse_id))
            faces = []
            for i, f in enumerate(top["faces"]):
                at = "faces[%d]." % i
                fid = read_field(f, at + "id", "string")
                boundary = tuple(read_field(f, at + "boundary", "strings"))
                role = read_field(f, at + "role", "string")
                rank = None if f.get("rank") is None else read_field(f, at + "rank", "int")
                faces.append(Face(fid, boundary, role, rank))
            contours = [
                # a one-key object, so that read_field names the list item
                read_field({"contours[%d]" % i: c}, "contours[%d]" % i, "strings")
                for i, c in enumerate(top["contours"])
            ]
            return cls(topology=top["topology"], vertices=top["vertices"], edges=edges,
                       faces=faces, contours=contours)
        except InputError as exc:
            raise InputError("malformed diagram: %s" % exc) from None

    @classmethod
    def from_json(cls, text: str) -> "Diagram":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InputError("malformed diagram JSON: %s" % exc) from None
        return cls.from_dict(data)

    def __repr__(self):
        return "Diagram(%s, V=%d, E=%d, cells=%d)" % (
            self.topology, len(self.vertices), len(self.edges) // 2,
            len(self.cells()))


class ValidationReport(Record):
    ok: bool
    errors: tuple[str, ...]
    warnings: tuple[str, ...]
    cell_ranks: dict
    r_delta: int
    counts: dict
    euler_sphere: int
    euler_reported: int
    boundary_words: tuple[str, ...]
    unfilled_regions: int


def _rotations_equal(a: Sequence, b: Sequence) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    a2, b2 = tuple(a), tuple(b)
    return any(a2[i:] + a2[:i] == b2 for i in range(len(a2)))


def validate_diagram(diagram: Diagram, presentation) -> ValidationReport:
    errors: list[str] = []
    warnings: list[str] = []

    vset = set(diagram.vertices)
    if len(vset) != len(diagram.vertices):
        errors.append("duplicate vertex ids")
    ids = [e.id for e in diagram.edges]
    if len(set(ids)) != len(ids):
        errors.append("duplicate edge ids")
    by_id = {e.id: e for e in diagram.edges}
    for e in diagram.edges:
        if e.src not in vset or e.dst not in vset:
            errors.append("edge %s has unknown endpoint" % e.id)
        inv = by_id.get(e.inverse_id)
        if inv is None:
            errors.append("edge %s names missing inverse %s" % (e.id, e.inverse_id))
            continue
        if inv.id == e.id:
            errors.append("edge %s is its own inverse" % e.id)
        if inv.inverse_id != e.id:
            errors.append("inverse pairing of %s/%s is not an involution"
                          % (e.id, inv.id))
        if inv.src != e.dst or inv.dst != e.src:
            errors.append("edge %s inverse does not swap endpoints" % e.id)
        if inv.label != -e.label:
            errors.append("edge %s inverse label is not the inverse letter" % e.id)
        if not presentation.alphabet.contains(e.label):
            errors.append("edge %s label outside alphabet" % e.id)
    if errors:
        return ValidationReport(False, tuple(errors), tuple(warnings), {}, 0,
                                {}, 0, 0, (), 0)

    # face cycles: closed, and together a partition of the directed edges
    seen_dir: dict[str, str] = {}
    for f in diagram.faces:
        if f.role not in ("cell", "outer"):
            errors.append("face %s has unknown role %r" % (f.id, f.role))
        if not f.boundary:
            if diagram.edges or f.role == "cell":
                errors.append("face %s has empty boundary" % f.id)
            continue
        for i, eid in enumerate(f.boundary):
            if eid not in by_id:
                errors.append("face %s references unknown edge %s" % (f.id, eid))
                break
            nxt = f.boundary[(i + 1) % len(f.boundary)]
            if nxt in by_id and by_id[eid].dst != by_id[nxt].src:
                errors.append("face %s boundary breaks between %s and %s"
                              % (f.id, eid, nxt))
            if eid in seen_dir:
                errors.append("directed edge %s on two face boundaries (%s, %s)"
                              % (eid, seen_dir[eid], f.id))
            else:
                seen_dir[eid] = f.id
    for eid in by_id:
        if eid not in seen_dir and not errors:
            errors.append("directed edge %s on no face boundary" % eid)
            break

    # connectivity over vertices through edges
    if diagram.edges:
        adj: dict[str, set[str]] = {}
        for e in diagram.edges:
            adj.setdefault(e.src, set()).add(e.dst)
        stack = [diagram.edges[0].src]
        reach = {stack[0]}
        while stack:
            for u in adj.get(stack.pop(), ()):
                if u not in reach:
                    reach.add(u)
                    stack.append(u)
        if reach != vset:
            errors.append("diagram is not connected")
    elif len(diagram.vertices) != 1:
        errors.append("edge-free diagram must be a single vertex")

    # cell labels against the presentation's relators
    cell_ranks: dict[str, int] = {}
    relator_keys: dict[tuple, int] = {}
    for rel in presentation.relators(presentation.max_rank):
        relator_keys[min_rotation(rel.word)] = rel.rank
        relator_keys[min_rotation(inverse_letters(rel.word))] = rel.rank
    for f in diagram.faces:
        if f.role != "cell":
            continue
        if any(eid not in by_id for eid in f.boundary):
            continue  # unknown-edge error already recorded above
        raw = diagram.label_word(f.boundary)
        cyc = CyclicWord.from_word(Word(reduce_letters(raw)))
        if not cyc.rep:
            errors.append("cell %s label is freely trivial (0-cells out of scope)"
                          % f.id)
            continue
        if reduce_letters(raw) != raw or min_rotation(raw) != cyc.rep:
            warnings.append("cell %s label is not cyclically reduced as written"
                            % f.id)
        rank = relator_keys.get(cyc.rep)
        if rank is None:
            errors.append("cell %s label %s matches no relator"
                          % (f.id, Word._raw(cyc.rep).format()))
            continue
        if f.rank is not None and f.rank != rank:
            errors.append("cell %s declares rank %d but matches rank %d"
                          % (f.id, f.rank, rank))
        cell_ranks[f.id] = rank

    # contours: right count, closed, each a rotation of a distinct outer face
    want = 1 if diagram.topology == "circular" else 2
    if len(diagram.contours) != want:
        errors.append("%s diagram needs %d contour(s), has %d"
                      % (diagram.topology, want, len(diagram.contours)))
    outer_faces = [f for f in diagram.faces if f.role == "outer"]
    matched: set[str] = set()
    boundary_words = []
    for ci, contour in enumerate(diagram.contours):
        for i, eid in enumerate(contour):
            if eid not in by_id:
                errors.append("contour %d references unknown edge %s" % (ci, eid))
                break
            nxt = contour[(i + 1) % len(contour)]
            if nxt in by_id and by_id[eid].dst != by_id[nxt].src:
                errors.append("contour %d breaks between %s and %s"
                              % (ci, eid, nxt))
        home = None
        for f in outer_faces:
            if f.id not in matched and _rotations_equal(contour, f.boundary):
                home = f
                break
        if home is None:
            errors.append("contour %d is not the cycle of an unmatched outer face"
                          % ci)
        else:
            matched.add(home.id)
        boundary_words.append(Word._raw(
            tuple(by_id[eid].label for eid in contour if eid in by_id)).format())
    unfilled = len(outer_faces) - len(matched)

    V = len(diagram.vertices)
    E = len(diagram.edges) // 2
    F = len(diagram.faces)
    if len(diagram.edges) % 2:
        errors.append("odd number of directed edges")
    sphere = V - E + F
    if sphere != 2:
        errors.append("sphere count V-E+F = %d, expected 2" % sphere)
    reported = sphere if diagram.topology == "circular" else sphere - 2
    r_delta = max(cell_ranks.values(), default=0)
    counts = {"V": V, "E": E, "F": F, "cells": len(cell_ranks),
              "outer": len(outer_faces)}
    return ValidationReport(
        ok=not errors, errors=tuple(errors), warnings=tuple(warnings),
        cell_ranks=cell_ranks, r_delta=r_delta, counts=counts,
        euler_sphere=sphere, euler_reported=reported,
        boundary_words=tuple(boundary_words), unfilled_regions=unfilled,
    )


class ContiguityRecord(Record):
    cell: str
    target: str  # face id or "section:<i>"
    q1_edges: tuple[str, ...]  # arc on the cell cycle
    q2_edges: tuple[str, ...]  # matching arc on the target, reversed inverses
    degree: Fraction

    @property
    def q2_length(self) -> int:
        return len(self.q2_edges)


def find_contiguity(diagram: Diagram, cell_id: str,
                    target: Union[str, Sequence[str]],
                    target_name: Optional[str] = None) -> list[ContiguityRecord]:
    """Maximal direct-gluing bands from a cell to another cell or to a
    contour section (a contiguous directed edge walk).

    A band is a run of cell-cycle positions whose inverses appear
    consecutively (in reverse) on the target.  Records come back sorted by
    starting position on the cell cycle."""
    cell = next((f for f in diagram.faces if f.id == cell_id), None)
    if cell is None or cell.role != "cell":
        raise InputError("no cell %r" % cell_id)
    pi = list(cell.boundary)
    n = len(pi)
    if isinstance(target, str):
        tf = next((f for f in diagram.faces if f.id == target), None)
        if tf is None:
            raise InputError("no target face %r" % target)
        tgt = list(tf.boundary)
        cyclic = True
        tname = target
        self_target = target == cell_id
    else:
        tgt = list(target)
        cyclic = False
        tname = target_name or "section"
        self_target = False
    m = len(tgt)
    inv = {e.id: e.inverse_id for e in diagram.edges}

    pos: dict[str, list[int]] = {}
    for j, eid in enumerate(tgt):
        pos.setdefault(eid, []).append(j)
    pairs = set()
    for i, eid in enumerate(pi):
        for j in pos.get(inv.get(eid, ""), ()):
            if self_target and i == j:
                continue
            pairs.add((i, j))

    def succ(p):
        i, j = p
        i2 = (i + 1) % n
        j2 = (j - 1) % m if cyclic else j - 1
        return (i2, j2)

    records = []
    used = set()
    for start in sorted(pairs):
        if start in used:
            continue
        # rewind to the run's beginning
        cur = start
        steps = 0
        while True:
            i, j = cur
            prev = ((i - 1) % n, (j + 1) % m if cyclic else j + 1)
            if prev in pairs and prev not in used and prev != start and steps < n:
                cur = prev
                steps += 1
            else:
                break
        run = []
        node = cur
        while node in pairs and node not in used and len(run) < n:
            used.add(node)
            run.append(node)
            node = succ(node)
        q1 = tuple(pi[i] for i, _ in run)
        q2 = tuple(tgt[j] for _, j in run)
        records.append(ContiguityRecord(
            cell=cell_id, target=tname, q1_edges=q1, q2_edges=q2,
            degree=Fraction(len(run), n)))
    records.sort(key=lambda r: (r.q1_edges, r.target))
    return records


class CheckItem(Record):
    subject: str
    status: str  # pass | fail | unknown
    detail: str


def _fold(items: Sequence[CheckItem]) -> str:
    """One status for a group of checks: fail over unknown over pass."""
    statuses = {i.status for i in items}
    return "fail" if "fail" in statuses else "unknown" if "unknown" in statuses else "pass"


def _validated(diagram: Diagram, presentation,
               validation: Optional[ValidationReport] = None) -> ValidationReport:
    """The diagram's validation report (computed unless given); a checker
    refuses a diagram that fails it."""
    validation = validation or validate_diagram(diagram, presentation)
    if not validation.ok:
        raise StateError("diagram failed validation: %s" % (validation.errors[0],))
    return validation


class ConditionAReport(Record):
    a1: tuple[CheckItem, ...]
    a2: tuple[CheckItem, ...]
    a3: tuple[CheckItem, ...]

    @property
    def summary(self) -> dict:
        return {"A1": _fold(self.a1), "A2": _fold(self.a2), "A3": _fold(self.a3)}


def _geodesic_items(diagram, oracle, budget, subject, edge_ids, window,
                    cyclic) -> list[CheckItem]:
    items = []
    labels = diagram.label_word(edge_ids)
    n = len(labels)
    if n == 0:
        return [CheckItem(subject, "pass", "empty path, vacuous")]
    doubled = labels + labels if cyclic else labels
    for length in range(2, min(window, n) + 1):
        last_start = n if cyclic else n - length + 1
        for s in range(max(0, last_start)):
            seg = doubled[s:s + length]
            if len(seg) < length:
                continue
            w = Word(reduce_letters(seg))
            if len(w.letters) < length:
                items.append(CheckItem(
                    subject, "fail",
                    "subpath %s at %d freely shortens" % (Word._raw(seg).format(), s)))
                continue
            nb = oracle.norm(w, budget)
            if nb.upper < length:
                items.append(CheckItem(
                    subject, "fail",
                    "subpath %s at %d has norm <= %d < %d"
                    % (w.format(), s, nb.upper, length)))
            elif not nb.exact:
                items.append(CheckItem(
                    subject, "unknown",
                    "subpath %s at %d: norm not settled within budget"
                    % (w.format(), s)))
    if not items:
        items.append(CheckItem(subject, "pass",
                               "all subpaths of length <= %d geodesic" % window))
    return items


def _contiguity_items(records: Sequence[ContiguityRecord], subject: str, rank: int,
                      params) -> list[CheckItem]:
    """The contiguity rule: each record of degree >= epsilon passes when
    |q2| < (1+gamma)*rank and fails otherwise."""
    return [CheckItem(subject, "pass", "|q2| = %d < (1+gamma)*%d" % (rec.q2_length, rank))
            if rec.q2_length < (1 + params.gamma) * rank else
            CheckItem(subject, "fail", "|q2| = %d >= (1+gamma)*%d" % (rec.q2_length, rank))
            for rec in records if rec.degree >= params.epsilon]


def check_condition_A(diagram: Diagram, presentation,
                      validation: Optional[ValidationReport] = None,
                      budget: Optional[OracleBudget] = None) -> ConditionAReport:
    """A1: cell labels cyclically reduced as written and |boundary| >= k*rank.
    A2: short subpaths (window max(rank, 2)) of cell boundaries and contours
    are geodesic, tri-state via the oracle at r(diagram).
    A3: every cell-to-cell contiguity with degree >= epsilon has
    |q2| < (1+gamma)*rank(target)."""
    validation = _validated(diagram, presentation, validation)
    params = presentation.params
    k = params.k
    oracle = presentation.oracle(validation.r_delta)

    a1 = []
    for f in diagram.cells():
        rank = validation.cell_ranks[f.id]
        raw = diagram.label_word(f.boundary)
        reduced_ok = reduce_letters(raw) == raw and (
            len(raw) < 2 or raw[0] != -raw[-1])
        size_ok = len(f.boundary) >= k * rank
        if reduced_ok and size_ok:
            a1.append(CheckItem(f.id, "pass",
                                "|boundary| = %d >= %d" % (len(f.boundary), k * rank)))
        elif not reduced_ok:
            a1.append(CheckItem(f.id, "fail", "boundary label not cyclically reduced"))
        else:
            a1.append(CheckItem(f.id, "fail",
                                "|boundary| = %d < k*j = %d" % (len(f.boundary), k * rank)))

    a2 = []
    for f in diagram.cells():
        rank = validation.cell_ranks[f.id]
        a2.extend(_geodesic_items(diagram, oracle, budget, "cell %s" % f.id,
                                  f.boundary, max(rank, 2), cyclic=True))
    for ci, contour in enumerate(diagram.contours):
        a2.extend(_geodesic_items(diagram, oracle, budget, "contour %d" % ci,
                                  contour, max(validation.r_delta, 2), cyclic=True))

    a3 = []
    cells = diagram.cells()
    for pi in cells:
        for tgt in cells:
            if tgt.id != pi.id:
                a3.extend(_contiguity_items(
                    find_contiguity(diagram, pi.id, tgt.id), "%s->%s" % (pi.id, tgt.id),
                    validation.cell_ranks[tgt.id], params))
    if not a3:
        a3.append(CheckItem("-", "pass", "no contiguity at degree >= epsilon"))
    return ConditionAReport(tuple(a1), tuple(a2), tuple(a3))


class SmoothSectionReport(Record):
    geodesic: tuple[CheckItem, ...]
    contiguity: tuple[CheckItem, ...]

    @property
    def status(self) -> str:
        return _fold(self.geodesic + self.contiguity)


def check_smooth_section(diagram: Diagram, section: Sequence[str], rank: int,
                         presentation,
                         budget: Optional[OracleBudget] = None) -> SmoothSectionReport:
    """Smoothness of rank `rank` for a contour section: subpaths of length
    <= max(rank, 2) geodesic, and every cell contiguity with degree >=
    epsilon has |q2| < (1+gamma)*rank."""
    if rank < 0:
        raise InputError("rank must be >= 0")
    section = list(section)
    for eid in section:
        diagram.edge(eid)
    oracle = presentation.oracle(min(rank, presentation.max_rank))
    geo = _geodesic_items(diagram, oracle, budget, "section", section,
                          max(rank, 2), cyclic=False)
    cont = []
    for f in diagram.cells():
        cont.extend(_contiguity_items(
            find_contiguity(diagram, f.id, section, target_name="section"), f.id, rank,
            presentation.params))
    if not cont:
        cont.append(CheckItem("-", "pass", "no cell contiguity at degree >= epsilon"))
    return SmoothSectionReport(tuple(geo), tuple(cont))


class GammaCellReport(Record):
    ok: bool
    precondition: str
    cells: tuple[tuple[str, Fraction], ...]  # (cell id, degree sum) over gamma-bar
    sums: dict


def find_gamma_cells(diagram: Diagram, sections: Sequence[Sequence[str]],
                     presentation,
                     validation: Optional[ValidationReport] = None) -> GammaCellReport:
    """Cells whose total contiguity degree to the declared (disjoint) contour
    sections exceeds gamma-bar = 1 - gamma.  Maximal gluing runs to disjoint
    sections are edge-disjoint on the cell boundary, so the sums just add."""
    validation = _validated(diagram, presentation, validation)
    if validation.r_delta == 0:
        return GammaCellReport(False, "r(diagram) = 0: no cells to weigh",
                               (), {})
    params = presentation.params
    sums: dict[str, Fraction] = {}
    for f in diagram.cells():
        total = Fraction(0)
        for si, sec in enumerate(sections):
            for rec in find_contiguity(diagram, f.id, list(sec),
                                       target_name="section:%d" % si):
                total += rec.degree
        sums[f.id] = total
    hits = tuple(sorted((cid, s) for cid, s in sums.items()
                        if s > params.gamma_bar))
    return GammaCellReport(True, "", hits, sums)


# trace -> explicit diagram


class CertificateResult(Record):
    status: str  # found | certified-none | none-within-cap | unknown | cell-cap
    diagram: Optional[Diagram]
    cells: int
    verdict: Verdict


class _Builder:
    """Replays an equality trace as boundary surgery: the word is an edge
    path; free-cancel folds two adjacent edges together, relator-insert
    glues a new cell in as a balloon at one path vertex."""

    def __init__(self, letters):
        self.parent: dict[str, str] = {}
        self.edge_label: dict[str, int] = {}
        self.merged: dict[tuple[str, int], tuple[str, int]] = {}
        self.ends: dict[str, tuple[str, str]] = {}
        self.cells: list[list[tuple[str, int]]] = []
        self.cell_ranks: list[int] = []
        n = len(letters)
        self.base_vertices = ["v%d" % i for i in range(max(n, 1))]
        self.path: list[tuple[str, int]] = []
        for i, l in enumerate(letters):
            eid = "c%d" % i
            self.edge_label[eid] = l
            self.ends[eid] = (self.base_vertices[i],
                              self.base_vertices[(i + 1) % n])
            self.path.append((eid, 1))
        self.contour = list(self.path)
        self.fresh = 0

    def _find_v(self, v: str) -> str:
        root = v
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(v, v) != v:
            self.parent[v], v = root, self.parent[v]
        return root

    def _union(self, a: str, b: str):
        ra, rb = self._find_v(a), self._find_v(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def _resolve(self, ref: tuple[str, int]) -> tuple[str, int]:
        seen = []
        while ref in self.merged:
            seen.append(ref)
            ref = self.merged[ref]
        for s in seen:
            self.merged[s] = ref
        return ref

    def _ref_ends(self, ref: tuple[str, int]) -> tuple[str, str]:
        eid, d = ref
        a, b = self.ends[eid]
        a, b = self._find_v(a), self._find_v(b)
        return (a, b) if d == 1 else (b, a)

    def cancel(self, pos: int):
        if not (0 <= pos < len(self.path) - 1):
            raise InvariantViolation("cancel position %d out of range" % pos)
        r1 = self._resolve(self.path[pos])
        r2 = self._resolve(self.path[pos + 1])
        inv_r1 = (r1[0], -r1[1])
        if r2 != inv_r1:
            a1, b1 = self._ref_ends(r1)
            a2, b2 = self._ref_ends(r2)
            self.merged[r2] = inv_r1
            self.merged[(r2[0], -r2[1])] = r1
            self._union(a1, b2)
        del self.path[pos:pos + 2]

    def insert(self, pos: int, material, rank: int):
        if not (0 <= pos <= len(self.path)):
            raise InvariantViolation("insert position %d out of range" % pos)
        if pos < len(self.path):
            anchor = self._ref_ends(self._resolve(self.path[pos]))[0]
        else:
            anchor = self._ref_ends(self._resolve(self.path[-1]))[1]
        idx = self.fresh
        self.fresh += 1
        n = len(material)
        verts = [anchor] + ["u%d.%d" % (idx, i) for i in range(1, n)] + [anchor]
        refs = []
        for i, l in enumerate(material):
            eid = "x%d.%d" % (idx, i)
            self.edge_label[eid] = l
            self.ends[eid] = (verts[i], verts[i + 1])
            refs.append((eid, 1))
        self.path[pos:pos] = refs
        self.cells.append(list(refs))
        self.cell_ranks.append(rank)

    def build(self) -> Diagram:
        if self.path:
            raise InvariantViolation("trace did not close the boundary")
        live: set[str] = set()
        contour_refs = [self._resolve(r) for r in self.contour]
        cell_refs = [[self._resolve(r) for r in cyc] for cyc in self.cells]
        for eid, _ in contour_refs:
            live.add(eid)
        for cyc in cell_refs:
            for eid, _ in cyc:
                live.add(eid)

        def dname(ref):
            eid, d = ref
            return eid if d == 1 else eid + "-"

        edges = []
        vertices = set()
        for eid in sorted(live):
            a, b = self.ends[eid]
            a, b = self._find_v(a), self._find_v(b)
            vertices.update((a, b))
            l = self.edge_label[eid]
            edges.append(Edge(eid, a, b, l, eid + "-"))
            edges.append(Edge(eid + "-", b, a, -l, eid))
        if not vertices:
            vertices = {self._find_v(self.base_vertices[0])}

        faces = []
        for i, cyc in enumerate(cell_refs):
            faces.append(Face("cell%d" % i, tuple(dname(r) for r in cyc),
                              "cell", self.cell_ranks[i]))
        outer_boundary = tuple(dname(r) for r in contour_refs)
        faces.append(Face("outer", outer_boundary, "outer", None))
        return Diagram("circular", sorted(vertices), edges, faces,
                       [list(outer_boundary)])


def diagram_from_trace(presentation, start: Word, witness: dict) -> Diagram:
    """Build the circular diagram traced by an equality witness whose steps
    reduce `start` to the empty word.  A witness with another op, or one that
    does not replay to the empty word, raises InputError."""
    system = presentation.relator_system(presentation.max_rank)
    steps = list(witness.get("steps", ()))
    for step in steps:
        if step.get("op") not in ("free-cancel", "relator-insert"):
            raise InputError("equality witness contains op %r" % step.get("op"))
    try:
        if replay_trace(system, start.letters, steps):
            raise InputError("witness does not replay to the empty word")
    except ReplayError as exc:
        raise InputError("witness does not replay: %s" % exc) from None
    b = _Builder(start.letters)
    for step in steps:
        if step["op"] == "free-cancel":
            b.cancel(step["position"])
        else:
            rel, material = insert_material(system, step)
            b.insert(step["position"], material, rel.rank)
    return b.build()


def search_vk_certificate(presentation, w: Word, rank: int,
                          max_cells: int = 64,
                          budget: Optional[OracleBudget] = None) -> CertificateResult:
    """Equality certificate for w = 1 at the given rank as an explicit
    diagram.  An oracle no proved by a rank-0 or abelian-residue certificate
    gives certified-none; one that only exhausted the search's length cap
    gives none-within-cap.  Unknown stays unknown; a yes whose trace needs
    more than max_cells cells reports cell-cap."""
    if max_cells < 0:
        raise InputError("max_cells must be >= 0")
    oracle = presentation.oracle(rank)
    verdict = oracle.equal(w, Word(()), budget)
    if verdict.is_no:
        bounded = verdict.certificate["kind"] == "exhaustion"
        return CertificateResult("none-within-cap" if bounded else "certified-none",
                                 None, 0, verdict)
    if verdict.is_unknown:
        return CertificateResult("unknown", None, 0, verdict)
    steps = verdict.witness.get("steps", ())
    n_cells = sum(1 for s in steps if s.get("op") == "relator-insert")
    if n_cells > max_cells:
        return CertificateResult("cell-cap", None, n_cells, verdict)
    diagram = diagram_from_trace(presentation, w, verdict.witness)
    return CertificateResult("found", diagram, n_cells, verdict)


class ReducednessReport(Record):
    status: str  # not-reduced | reduced-up-to-cap | unknown
    cap: int
    cells: int
    smaller: Optional[CertificateResult]


def check_reduced(diagram: Diagram, presentation, rank: Optional[int] = None,
                  budget: Optional[OracleBudget] = None) -> ReducednessReport:
    """Semi-decidable minimal-cell check: hunt for a diagram with the same
    contour label and fewer cells.  Success certifies not-reduced; failure
    only certifies minimality among certificates up to the cap, and a search
    that ran out of budget certifies nothing (unknown)."""
    if diagram.topology != "circular":
        raise InputError("reducedness check handles circular diagrams only")
    validation = _validated(diagram, presentation)
    ncells = validation.counts["cells"]
    if rank is None:
        rank = presentation.max_rank
    w = Word(reduce_letters(diagram.label_word(diagram.contours[0])))
    if ncells == 0:
        return ReducednessReport("reduced-up-to-cap", 0, 0, None)
    res = search_vk_certificate(presentation, w, rank, max_cells=ncells - 1,
                                budget=budget)
    status = {"found": "not-reduced", "unknown": "unknown"}.get(
        res.status, "reduced-up-to-cap")
    return ReducednessReport(status, ncells - 1, ncells, res)
